"""Symbol registry for the six-dimensional engine.

Every symbol that may appear in an expression is registered in
``DEFAULT_TABLE`` with a declared-real flag.  It is the one table
(``expr.Sym`` refuses any symbol that is not its entry); the
:class:`SymbolTable` class is only its type and is not exported from
``kk6``.  The table always carries exactly six coordinates ``x0 .. x5``;
everything else is a parameter.
Sampling and conjugation honor the real flag, so registration is the one
place where "this quantity is real" is stated.
"""
from __future__ import annotations

from dataclasses import dataclass


class UnknownSymbolError(KeyError):
    """Lookup of a name that was never registered."""


@dataclass(frozen=True, order=True)
class Symbol:
    name: str
    real: bool = True
    coordinate: bool = False

    def __repr__(self) -> str:
        return self.name


_COORD_NAMES = tuple(f"x{i}" for i in range(6))

# Parameters shared by the metric families: momenta, phase gradients and
# coupling constants.  All real; complex quantities (polarizations, generic
# vector components) are registered by the modules that introduce them.
_CANONICAL_PARAMS = (
    "hbar", "m0",
    "p0", "p1", "p2", "p3",
    "a0", "a1", "a2", "a3", "a5",
    "kappa", "C", "gamma", "G",
)


class SymbolTable:
    """Registry mapping names to :class:`Symbol` entries.

    The six coordinates are created at construction and cannot be added or
    removed afterwards.  ``register`` is idempotent when the flags agree and
    raises when they conflict, so modules may declare their parameters at
    import time without coordination.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Symbol] = {}
        for name in _COORD_NAMES:
            self._entries[name] = Symbol(name, real=True, coordinate=True)
        for name in _CANONICAL_PARAMS:
            self._entries[name] = Symbol(name, real=True)

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
