"""Canonical symbolic expressions over complex rationals.

The node set is deliberately small: constants, symbols, sums, products,
integer powers, ``exp``, ``sqrt`` and conjugation.  Every constructor
returns a canonical tree:

* sums and products are flattened and sorted under a total node order,
* numeric parts are folded exactly (``Fraction`` real/imaginary pairs),
* ``exp(a)*exp(b) -> exp(a+b)``, ``exp(0) -> 1``, ``exp(a)**n -> exp(n*a)``,
* ``x**0 -> 1`` (including ``0**0`` by convention), ``0*x -> 0``,
* identical bases merge to integer powers inside products, and even powers
  of ``sqrt`` fold away: ``sqrt(a)**(2q+r) -> a**q * sqrt(a)**r``,
* conjugation is pushed to the leaves, so ``Conj`` only ever wraps symbols
  not declared real.

``sqrt`` is the principal branch.  The canonicalizer never merges distinct
radicands (no ``sqrt(a)*sqrt(b) -> sqrt(a*b)``, no ``sqrt(x**2) -> x``);
the folds it does perform (even powers, conj through sqrt) are exact for
principal-branch semantics on the sampled domains.  Exponent merging is
restricted to ``exp`` because integer powers commute with it exactly,
whereas merging exponents of general bases would smuggle in branch choices.

Nodes are hash-consed: every constructor goes through one process-wide
intern table, so two expressions with the same canonical tree are the same
object, and ``==`` and ``hash`` are identity (O(1), whatever the size).
The table is a ``weakref.WeakValueDictionary``: it holds no node alive, so
memory is bounded by the nodes the caller still references.  It is keyed
by a node's tag and its children's ids (``Num`` by its exact numerator and
denominator integers, ``Sym`` by its ``Symbol``), so a lookup never hashes
a ``Fraction`` or a subtree.  The structural key ``_key`` survives only as
the sort order of sums and products, which therefore does not depend on
construction history.

:func:`simplify` caches its result on each node it simplifies, input and
subexpressions alike.  The cache depends only on the node's structure and
lives as long as the node, so simplifying a live expression again, in a
later claim or pass, costs one attribute read.
"""
from __future__ import annotations

import weakref
from fractions import Fraction
from math import isqrt
from typing import Mapping, Union

from .symbols import DEFAULT_TABLE, Symbol

__all__ = [
    "Expr", "Num", "Sym", "Pow", "Exp", "Sqrt", "Conj", "Mul", "Add",
    "num", "sym", "coords", "add", "mul", "power", "exp", "sqrt", "conj",
    "diff", "subs", "simplify", "free_symbols", "to_text",
    "ZERO", "ONE", "MINUS_ONE", "TWO", "HALF", "I",
    "ExprError", "DomainError", "EvalError",
]

NumberLike = Union[int, float, complex, Fraction, str]


class ExprError(Exception):
    """Base class for expression-layer errors."""


class DomainError(ExprError):
    """Operation outside the defined domain (0**-1, d/dz of conj(z), ...)."""


class EvalError(ExprError):
    """Numeric evaluation failed; carries the offending subtree."""

    def __init__(self, message: str, subtree: "Expr | None" = None):
        super().__init__(message)
        self.subtree = subtree


def _frac(value) -> Fraction:
    # float -> exact binary rational, str -> exact decimal/ratio; both lossless.
    return Fraction(value)


# ---------------------------------------------------------------------------
# nodes

class Expr:
    __slots__ = ("_key", "_free", "_simp", "__weakref__")

    def __repr__(self) -> str:
        return to_text(self)

    # arithmetic sugar ------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else add(self, mul(MINUS_ONE, other))

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else add(other, mul(MINUS_ONE, self))

    def __mul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else mul(self, power(other, -1))

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else mul(other, power(self, -1))

    def __pow__(self, n: int):
        return power(self, n)

    def __neg__(self):
        return mul(MINUS_ONE, self)


# The intern table: one live node per structure.  Keys hold only small ints,
# tags and ``Symbol``s: a composite is keyed by its children's ids, which
# are unique while the node (and so each child) is alive, and the table
# drops the entry when the node dies.
_TABLE: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()
# ``_simp`` of a node that simplifies to itself (a self-reference would make
# every such node a reference cycle).
_SELF = object()
_F0 = Fraction(0)


def _new(cls, ikey: tuple, key: tuple):
    node = object.__new__(cls)
    node._key = key
    node._free = None
    node._simp = None
    _TABLE[ikey] = node
    return node


class Num(Expr):
    __slots__ = ("re", "im")

    def __new__(cls, re: Fraction, im: Fraction = _F0):
        ikey = (0, re.numerator, re.denominator, im.numerator, im.denominator)
        node = _TABLE.get(ikey)
        if node is None:
            node = _new(cls, ikey, (0, re, im))
            node.re = re
            node.im = im
        return node


class Sym(Expr):
    __slots__ = ("symbol",)

    def __new__(cls, symbol: Symbol):
        ikey = (1, symbol)
        node = _TABLE.get(ikey)
        if node is None:
            # printing, sorting and evaluation know a symbol by its name
            if DEFAULT_TABLE.lookup(symbol.name) != symbol:
                raise ValueError(f"symbol {symbol.name!r} is registered "
                                 "with different flags")
            node = _new(cls, ikey, (1, symbol.name))
            node.symbol = symbol
        return node


class Pow(Expr):
    """Integer power of a non-numeric base; built only via :func:`power`."""

    __slots__ = ("base", "n")

    def __new__(cls, base: Expr, n: int):
        ikey = (2, id(base), n)
        node = _TABLE.get(ikey)
        if node is None:
            node = _new(cls, ikey, (2, base._key, n))
            node.base = base
            node.n = n
        return node


class _Unary(Expr):
    __slots__ = ("arg",)
    _tag: int  # set by each subclass

    def __new__(cls, arg: Expr):
        ikey = (cls._tag, id(arg))
        node = _TABLE.get(ikey)
        if node is None:
            node = _new(cls, ikey, (cls._tag, arg._key))
            node.arg = arg
        return node


class Exp(_Unary):
    __slots__ = ()
    _tag = 3


class Sqrt(_Unary):
    __slots__ = ()
    _tag = 4


class Conj(_Unary):
    __slots__ = ()
    _tag = 5


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        ikey = (6, *map(id, factors))
        node = _TABLE.get(ikey)
        if node is None:
            node = _new(cls, ikey, (6, tuple(f._key for f in factors)))
            node.factors = factors
        return node


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        ikey = (7, *map(id, terms))
        node = _TABLE.get(ikey)
        if node is None:
            node = _new(cls, ikey, (7, tuple(t._key for t in terms)))
            node.terms = terms
        return node


def _keyfn(e: Expr) -> tuple:
    return e._key


# ---------------------------------------------------------------------------
# exact complex-rational arithmetic on (re, im) Fraction pairs

_C_ZERO = (Fraction(0), Fraction(0))
_C_ONE = (Fraction(1), Fraction(0))


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cinv(a):
    d = a[0] * a[0] + a[1] * a[1]
    if d == 0:
        raise DomainError("zero raised to a negative power")
    return (a[0] / d, -a[1] / d)


def _cpow(a, n: int):
    if n < 0:
        a = _cinv(a)
        n = -n
    out = _C_ONE
    while n:
        if n & 1:
            out = _cmul(out, a)
        a = _cmul(a, a)
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# constructors

def num(re: NumberLike = 0, im: NumberLike = 0) -> Num:
    if isinstance(re, complex):
        if im:
            raise TypeError("complex value with separate imaginary part")
        return Num(_frac(re.real), _frac(re.imag))
    return Num(_frac(re), _frac(im))


def _coerce(value) -> Expr | None:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, complex, Fraction)):
        return num(value)
    return None


def sym(name: str) -> Sym:
    """The symbol registered under ``name`` in ``DEFAULT_TABLE``; every
    symbol comes from that one registry, so a name has one meaning."""
    return Sym(DEFAULT_TABLE.lookup(name))


def coords() -> tuple[Sym, ...]:
    return tuple(Sym(s) for s in DEFAULT_TABLE.coordinates)


def add(*terms: Expr) -> Expr:
    cre, cim = Fraction(0), Fraction(0)
    buckets: dict[Expr, tuple[Fraction, Fraction]] = {}
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
        elif isinstance(t, Num):
            cre += t.re
            cim += t.im
        else:
            if isinstance(t, Mul) and isinstance(t.factors[0], Num):
                coeff = t.factors[0]
                rest = t.factors[1:]
                key = rest[0] if len(rest) == 1 else Mul(rest)
                pair = (coeff.re, coeff.im)
            else:
                key = t
                pair = _C_ONE
            acc = buckets.get(key)
            buckets[key] = pair if acc is None else (acc[0] + pair[0], acc[1] + pair[1])

    out: list[Expr] = []
    for key, (re_, im_) in buckets.items():
        if re_ == 0 and im_ == 0:
            continue
        if re_ == 1 and im_ == 0:
            out.append(key)
        elif isinstance(key, Mul):
            out.append(Mul((Num(re_, im_),) + key.factors))
        else:
            out.append(Mul((Num(re_, im_), key)))
    out.sort(key=_keyfn)
    if cre != 0 or cim != 0:
        out.insert(0, Num(cre, cim))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors: Expr) -> Expr:
    coeff = _C_ONE
    exp_terms: list[Expr] = []
    powmap: dict[Expr, int] = {}
    stack = list(reversed(factors))
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Num):
            coeff = _cmul(coeff, (f.re, f.im))
            if coeff[0] == 0 and coeff[1] == 0:
                return ZERO
        elif isinstance(f, Exp):
            exp_terms.append(f.arg)
        elif isinstance(f, Pow):
            powmap[f.base] = powmap.get(f.base, 0) + f.n
        else:
            powmap[f] = powmap.get(f, 0) + 1

    atoms: list[Expr] = []
    pending: list[Expr] = []
    for base, n in powmap.items():
        if n == 0:
            continue
        if n == 1:
            atoms.append(base)
            continue
        p = power(base, n)
        if isinstance(p, Num):
            coeff = _cmul(coeff, (p.re, p.im))
            if coeff[0] == 0 and coeff[1] == 0:
                return ZERO
        elif isinstance(p, Exp):
            exp_terms.append(p.arg)
        elif isinstance(p, (Mul, Add)):
            # sqrt folds can resolve a power into a product or a sum
            # (sqrt(a)**2 -> a); rerun the pipeline so bases re-merge.
            pending.append(p)
        else:
            atoms.append(p)
    if pending:
        parts: list[Expr] = [Num(*coeff)]
        parts.extend(exp(t) for t in exp_terms)
        parts.extend(atoms)
        parts.extend(pending)
        return mul(*parts)

    if exp_terms:
        ex = exp(add(*exp_terms))
        if isinstance(ex, Num):
            coeff = _cmul(coeff, (ex.re, ex.im))
            if coeff[0] == 0 and coeff[1] == 0:
                return ZERO
        else:
            atoms.append(ex)

    atoms.sort(key=_keyfn)
    if not atoms:
        return Num(*coeff)
    if coeff != _C_ONE:
        atoms.insert(0, Num(*coeff))
    if len(atoms) == 1:
        return atoms[0]
    return Mul(tuple(atoms))


def power(base: Expr, n: int) -> Expr:
    if not isinstance(n, int):
        raise TypeError(f"exponent must be an integer, got {n!r}")
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Num):
        return Num(*_cpow((base.re, base.im), n))
    if isinstance(base, Mul):
        return mul(*(power(f, n) for f in base.factors))
    if isinstance(base, Pow):
        return power(base.base, base.n * n)
    if isinstance(base, Exp):
        return exp(mul(num(n), base.arg))
    if isinstance(base, Sqrt):
        q, r = divmod(n, 2)
        if r == 0:
            return power(base.arg, q)
        if q == 0:
            return base
        return mul(power(base.arg, q), base)
    return Pow(base, n)


def exp(arg: Expr) -> Expr:
    if isinstance(arg, Num) and arg.re == 0 and arg.im == 0:
        return ONE
    return Exp(arg)  # exp of a nonzero constant stays symbolic (exactness)


def sqrt(arg: Expr) -> Expr:
    if isinstance(arg, Num) and arg.im == 0 and arg.re >= 0:
        p, q = arg.re.numerator, arg.re.denominator
        rp, rq = isqrt(p), isqrt(q)
        if rp * rp == p and rq * rq == q:
            return Num(Fraction(rp, rq))
    return Sqrt(arg)


def conj(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(e.re, -e.im)
    if isinstance(e, Sym):
        return e if e.symbol.real else Conj(e)
    if isinstance(e, Conj):
        return e.arg
    if isinstance(e, Add):
        return add(*(conj(t) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(conj(f) for f in e.factors))
    if isinstance(e, Pow):
        return power(conj(e.base), e.n)
    if isinstance(e, Exp):
        return exp(conj(e.arg))
    if isinstance(e, Sqrt):
        # principal branch: conj(sqrt(z)) == sqrt(conj(z)) away from the
        # negative real axis, where all sampling in this engine lives.
        return sqrt(conj(e.arg))
    raise TypeError(f"conj of unsupported node {type(e).__name__}")


# ---------------------------------------------------------------------------
# calculus and rewriting

def _resolve_symbol(s) -> Symbol:
    if isinstance(s, Sym):
        return s.symbol
    if isinstance(s, Symbol):
        return s
    return DEFAULT_TABLE.lookup(s)


def diff(e: Expr, s) -> Expr:
    return _diff(e, _resolve_symbol(s), {})


# The walkers below are module-level functions that take their memo as an
# argument: a closure that calls itself is a reference cycle, which would
# keep the memo, and every node in it, alive until the cyclic collector ran.

def _diff(node: Expr, target: Symbol, memo: dict) -> Expr:
    got = memo.get(node)
    if got is not None:
        return got
    if isinstance(node, Num):
        r = ZERO
    elif isinstance(node, Sym):
        r = ONE if node.symbol == target else ZERO
    elif isinstance(node, Conj):
        if node.arg.symbol == target:
            raise DomainError(
                f"conj({target.name}) is not differentiable in {target.name}")
        r = ZERO
    elif isinstance(node, Add):
        r = add(*(_diff(t, target, memo) for t in node.terms))
    elif isinstance(node, Mul):
        fs = node.factors
        parts = []
        for i, f in enumerate(fs):
            df = _diff(f, target, memo)
            if df is ZERO:
                continue
            parts.append(mul(*fs[:i], df, *fs[i + 1:]))
        r = add(*parts)
    elif isinstance(node, Pow):
        r = mul(num(node.n), power(node.base, node.n - 1),
                _diff(node.base, target, memo))
    elif isinstance(node, Exp):
        r = mul(node, _diff(node.arg, target, memo))
    elif isinstance(node, Sqrt):
        # d sqrt(a) = a' / (2 sqrt(a))
        r = mul(HALF, power(node, -1), _diff(node.arg, target, memo))
    else:  # pragma: no cover
        raise TypeError(f"diff of unsupported node {type(node).__name__}")
    memo[node] = r
    return r


def subs(e: Expr, mapping: Mapping) -> Expr:
    repl: dict[str, Expr] = {}
    for k, v in mapping.items():
        name = _resolve_symbol(k).name
        value = _coerce(v)
        if value is None:
            raise TypeError(f"substitution for {name} is not an expression: {v!r}")
        repl[name] = value
    return _subs(e, repl, {})


def _subs(node: Expr, repl: dict, memo: dict) -> Expr:
    got = memo.get(node)
    if got is not None:
        return got
    if isinstance(node, Num):
        r = node
    elif isinstance(node, Sym):
        r = repl.get(node.symbol.name, node)
    elif isinstance(node, Add):
        r = add(*(_subs(t, repl, memo) for t in node.terms))
    elif isinstance(node, Mul):
        r = mul(*(_subs(f, repl, memo) for f in node.factors))
    elif isinstance(node, Pow):
        r = power(_subs(node.base, repl, memo), node.n)
    elif isinstance(node, Exp):
        r = exp(_subs(node.arg, repl, memo))
    elif isinstance(node, Sqrt):
        r = sqrt(_subs(node.arg, repl, memo))
    elif isinstance(node, Conj):
        r = conj(_subs(node.arg, repl, memo))
    else:  # pragma: no cover
        raise TypeError(f"subs of unsupported node {type(node).__name__}")
    memo[node] = r
    return r


_EXPAND_POW_CAP = 8


def _terms_of(e: Expr) -> tuple:
    return e.terms if isinstance(e, Add) else (e,)


def _expand_monomial(m: Expr) -> Expr:
    # sqrt folds inside mul() can hand back a product with a sum factor
    # (sqrt(a)**2 -> a); push distribution through until none remain.
    if isinstance(m, Mul) and any(isinstance(f, Add) for f in m.factors):
        r: Expr = m.factors[0]
        for f in m.factors[1:]:
            r = _distribute(r, f)
        return r
    return m


def _distribute(a: Expr, b: Expr) -> Expr:
    ta, tb = _terms_of(a), _terms_of(b)
    if len(ta) == 1 and len(tb) == 1:
        return _expand_monomial(mul(a, b))
    return add(*(_expand_monomial(mul(x, y)) for x in ta for y in tb))


def simplify(e: Expr) -> Expr:
    """Expand products over sums, expand small positive powers of sums,
    and collect like monomials.  Negative powers of sums stay atomic.
    Value-preserving and idempotent.  The result is cached on ``e`` (and on
    each subexpression visited), so simplifying a live node again is free."""
    return _simplified(e)


def _simplified(node: Expr) -> Expr:
    got = node._simp
    if got is not None:
        return node if got is _SELF else got
    if isinstance(node, (Num, Sym, Conj)):
        r = node
    elif isinstance(node, Add):
        r = add(*(_simplified(t) for t in node.terms))
    elif isinstance(node, Mul):
        fs = [_simplified(f) for f in node.factors]
        r = fs[0]
        for f in fs[1:]:
            r = _distribute(r, f)
    elif isinstance(node, Pow):
        b = _simplified(node.base)
        if isinstance(b, Add) and 2 <= node.n <= _EXPAND_POW_CAP:
            r = b
            for _ in range(node.n - 1):
                r = _distribute(r, b)
        else:
            r = _expand_monomial(power(b, node.n))
    elif isinstance(node, Exp):
        r = exp(_simplified(node.arg))
    elif isinstance(node, Sqrt):
        r = sqrt(_simplified(node.arg))
    else:  # pragma: no cover
        raise TypeError(f"simplify of unsupported node {type(node).__name__}")
    node._simp = _SELF if r is node else r
    return r


def free_symbols(e: Expr) -> frozenset[Symbol]:
    if e._free is not None:
        return e._free
    if isinstance(e, Num):
        out: frozenset[Symbol] = frozenset()
    elif isinstance(e, Sym):
        out = frozenset((e.symbol,))
    elif isinstance(e, Add):
        out = frozenset().union(*(free_symbols(t) for t in e.terms))
    elif isinstance(e, Mul):
        out = frozenset().union(*(free_symbols(f) for f in e.factors))
    elif isinstance(e, (Exp, Sqrt, Conj)):
        out = free_symbols(e.arg)
    elif isinstance(e, Pow):
        out = free_symbols(e.base)
    else:  # pragma: no cover
        raise TypeError(f"free_symbols of unsupported node {type(e).__name__}")
    e._free = out
    return out


# ---------------------------------------------------------------------------
# printing (round-trips through kk6.parse)

_P_ADD, _P_MUL, _P_UNARY, _P_POW, _P_ATOM = 10, 20, 30, 40, 50


def _rat_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _imag_text(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return f"{_rat_text(f)}*i"


def _num_text(node: Num) -> tuple[str, int]:
    re_, im_ = node.re, node.im
    if im_ == 0:
        s = _rat_text(re_)
        if re_ < 0:
            return s, _P_UNARY
        return s, (_P_MUL if re_.denominator != 1 else _P_ATOM)
    if re_ == 0:
        s = _imag_text(im_)
        return s, (_P_UNARY if im_ < 0 else _P_MUL)
    op = " - " if im_ < 0 else " + "
    return f"({_rat_text(re_)}{op}{_imag_text(abs(im_))})", _P_ATOM


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        return _num_text(e)
    if isinstance(e, Sym):
        return e.symbol.name, _P_ATOM
    if isinstance(e, Exp):
        return f"exp({_render(e.arg)[0]})", _P_ATOM
    if isinstance(e, Sqrt):
        return f"sqrt({_render(e.arg)[0]})", _P_ATOM
    if isinstance(e, Conj):
        return f"conj({_render(e.arg)[0]})", _P_ATOM
    if isinstance(e, Pow):
        bs, bp = _render(e.base)
        if bp < _P_POW:
            bs = f"({bs})"
        return f"{bs}^{e.n}", _P_POW
    if isinstance(e, Mul):
        factors = e.factors
        prefix = ""
        if isinstance(factors[0], Num) and factors[0] == MINUS_ONE:
            prefix, factors = "-", factors[1:]
            if len(factors) == 1:
                s, p = _render(factors[0])
                if p < _P_MUL:
                    s = f"({s})"
                return prefix + s, _P_UNARY
        parts = []
        for f in factors:
            s, p = _render(f)
            if p < _P_MUL:
                s = f"({s})"
            parts.append(s)
        return prefix + "*".join(parts), (_P_UNARY if prefix else _P_MUL)
    if isinstance(e, Add):
        out = []
        for i, t in enumerate(e.terms):
            s, _ = _render(t)
            if i == 0:
                out.append(s)
            elif s.startswith("-"):
                out.append(" - " + s[1:])
            else:
                out.append(" + " + s)
        return "".join(out), _P_ADD
    raise TypeError(f"cannot print node {type(e).__name__}")  # pragma: no cover


def to_text(e: Expr) -> str:
    return _render(e)[0]


# ---------------------------------------------------------------------------
# constants

ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))
MINUS_ONE = Num(Fraction(-1))
TWO = Num(Fraction(2))
HALF = Num(Fraction(1, 2))
I = Num(Fraction(0), Fraction(1))
