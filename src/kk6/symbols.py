"""Symbol table for the six-dimensional engine.

Every symbol that may appear in an expression is declared here, once, in
``DEFAULT_TABLE`` with its flags: the six coordinates ``x0 .. x5`` and
the parameters of :data:`_CANONICAL_PARAMS`.  It is the one table
(``expr.Sym`` refuses any symbol that is not its entry, and the parser
refuses a name it does not hold); the :class:`SymbolTable` class is only
its type and is not exported from ``kk6``.
Sampling and conjugation honor the real flag, and sampling the positive
one, so this table is the one place where "this quantity is real" or
"positive" is stated.  A positive symbol is also real, and positivity is
a sampling fact only: the kernel's canonical forms never use it.
"""
from __future__ import annotations

from dataclasses import dataclass


class UnknownSymbolError(KeyError):
    """Lookup of a name the table does not hold."""


@dataclass(frozen=True, order=True)
class Symbol:
    name: str
    real: bool = True
    coordinate: bool = False
    positive: bool = False

    def __repr__(self) -> str:
        return self.name


_COORD_NAMES = tuple(f"x{i}" for i in range(6))

# Every parameter an expression may name, by its flags: momenta,
# couplings, the wave and weak-field parameters and the affine parameter
# are real; the rest mass is positive, since the half-spin normalization
# sqrt((m0 + p0)/2m0) holds only for m0 > 0; the vector components and
# the geodesic integration constants are complex.
_CANONICAL_PARAMS = {
    **dict.fromkeys(("hbar", "p0", "p1", "p2", "p3", "kappa", "gamma",
                     "omega", "k3", "eps", "tau"), {}),
    "m0": {"positive": True},
    **dict.fromkeys(("A0", "A1", "A2", "A3",
                     "c0", "c1", "c2", "c3", "c4", "c5"), {"real": False}),
}


class SymbolTable:
    """Table mapping names to :class:`Symbol` entries.

    The six coordinates and the parameters of :data:`_CANONICAL_PARAMS`
    are declared at construction; the coordinates cannot be added or
    removed afterwards.  ``register`` remains for callers that declare
    symbols of their own (the tests do), never positive ones: it is
    idempotent when the flags agree and raises when they conflict.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Symbol] = {}
        for name in _COORD_NAMES:
            self._entries[name] = Symbol(name, real=True, coordinate=True)
        for name, flags in _CANONICAL_PARAMS.items():
            self._entries[name] = Symbol(name, **flags)

    def register(self, name: str, real: bool = True) -> Symbol:
        if name in self._entries:
            existing = self._entries[name]
            if existing.coordinate or existing.real != real:
                raise ValueError(
                    f"symbol {name!r} already registered with different flags")
            return existing
        entry = Symbol(name, real=real)
        self._entries[name] = entry
        return entry

    def lookup(self, name: str) -> Symbol:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownSymbolError(name) from None

    @property
    def coordinates(self) -> tuple[Symbol, ...]:
        return tuple(self._entries[name] for name in _COORD_NAMES)


DEFAULT_TABLE = SymbolTable()

COORDS = DEFAULT_TABLE.coordinates
