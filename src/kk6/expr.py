"""Canonical symbolic expressions over complex rationals.

The node set is deliberately small: constants, symbols, sums, products,
integer powers, ``exp``, ``sqrt`` and conjugation.  Every constructor
returns a canonical tree:

* sums and products are flattened and sorted under a total node order,
* numeric parts are folded exactly (``Fraction`` real/imaginary pairs),
* ``exp(a)*exp(b) -> exp(a+b)``, ``exp(0) -> 1``, ``exp(a)**n -> exp(n*a)``,
* ``x**0 -> 1`` (including ``0**0`` by convention), ``0*x -> 0``,
* identical bases merge to integer powers inside products, and even powers
  of ``sqrt`` fold away: ``sqrt(a)**(2q+r) -> a**q * sqrt(a)**r``, with
  what a fold yields merged with the other factors,
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
construction history.  A ``Num`` key puts a float before each exact part;
the float never orders two values against their exact order, so sorting
compares floats and reaches a ``Fraction`` only on a tie, and a zero part
is the one ``_F0`` object, so equal zero parts tie by identity.

Only the constructors in this module build nodes, so every node they are
handed is already canonical: a product carries at most one numeric factor,
first and never 1, and a sum at most one numeric term, first and never 0.
:func:`add` and :func:`mul` rely on that and never rebuild what they are
given.  ``add`` buckets terms by their factor tuple with the coefficient
held apart and passes a term that meets no like term through as the same
object; coefficients are summed, and a ``Num``/``Mul`` built, only where
two terms merge.  ``mul`` drops unit factors and returns ``ZERO`` at a
zero factor, both by identity against the interned constants (a product
of nonzero exact numbers is never zero), and forms the numeric product
once.

:func:`simplify` expands products over sums, and positive powers of sums
up to ``_EXPAND_POW_CAP``, in one sparse-polynomial kernel (the technique
of Monagan and Pearce's packed exponent vectors).  Each simplified operand
is read once into a dict from monomials to coefficients.  A monomial is the
exponent of each atom (a symbol, a conjugate, or a sum under a power left
atomic: negative, or above the cap) as a signed field of one int, one bit
per ``sqrt`` atom and one for ``i`` (a root carries exponent 0 or 1 in
canonical form), and the merged ``exp`` argument.  Coefficients are
integers over one denominator per polynomial.  A product adds the exponent
ints, adds ``exp`` arguments with :func:`add` (memoized per context) and
multiplies coefficients, and applies ``mul``'s folds in the dict: a root met
twice folds, ``sqrt(a)^2 -> a`` with ``a`` merged like any other factor,
``i*i -> -1``, and a sum that reaches an exponent in 1..cap is expanded as
``simplify`` expands a sum factor or a small power of one, once for all
the monomials that reach the same exponents of the same sums.  Each output
monomial becomes one canonical term, built once, so the result is the tree
that ``mul`` and ``add`` give pair by pair.  The field layout and memos live
in one :func:`context`; a field that would overflow restarts the call in a
wider one.

:func:`contract` is the entry point for sums of products (tensor
contractions): its result is ``simplify`` of the ``add`` of the ``mul`` of
each product, computed in the same kernel without building those trees.
Its loop is the kernel's one expand-and-multiply loop: ``simplify`` runs
it on the single product ``(e,)`` in a fresh context, and inside it a sum
is handed over as the products of its terms and a product as itself.
Calls that share a :func:`context` share its layout and memos, so an
operand is read once for all of them.

``contract`` keeps its results in one process-wide LRU memo of
``_CONTRACTED_CAP`` entries, keyed by its products as a tuple of tuples of
nodes.  Nodes are interned, so the key hashes only object identities, and
a hit returns the node a fresh run would build; a residual formed again in
a later claim or pass, at other sample points, costs one lookup.  Only
returned results are stored, so a call that raises raises again.
``simplify`` runs the kernel without the memo: its result is already
cached on the input, and an entry keyed by the input would keep every
simplified node alive until it was evicted.

:func:`derive` is the entry point for derivatives: its result is
``simplify`` of :func:`diff`, and it is the product rule handed to
``contract``, one product per factor in which the symbol is free, with that
factor replaced by its ``diff`` tree (memoized in the context per symbol).
``_diff`` is the one definition of a derivative, and ``contract`` alone
decides where a product takes the tree route.  Both give ``ZERO`` for a
symbol that is not free in the input.

The node set's shape is stated once: ``_kids`` lists a node's children
in constructor order, ``_rebuild`` applies its constructor to new ones,
and ``_FUNCTIONS`` maps each function node's ``name`` to its constructor
for ``_rebuild``, the printer and :mod:`kk6.parse`.  :func:`free_symbols`,
:func:`subs`, :func:`conj`, ``simplify``'s ``exp`` and ``sqrt`` case and
the post-order of :mod:`kk6.zeros` walk through them.  ``_diff``,
``power``, ``mul``, the kernel's ``_factor_key``, the evaluator's op codes
and the oracle's compiler keep a case per node type, as their rule differs
per type (the oracle compiles on its own, to stay independent).  The
oracle compiles no ``Conj``: it takes functions of the coordinates alone,
and a coordinate is real, so ``conj`` never wraps one.

:func:`to_text` renders each distinct node once per call, however often the
tree shares it, and keeps the text of each node it is asked to print in a
process-wide ``weakref.WeakKeyDictionary``.  A node's text depends only on
the node, so printing a live node again, in a later report or pass, costs
one lookup; the map holds no node alive, and a text lives exactly as long
as its node.

:func:`simplify` caches its result on each node it simplifies, input and
subexpressions alike.  The cache depends only on the node's structure and
lives as long as the node, so simplifying a live expression again, in a
later claim or pass, costs one attribute read.  Unlike ``contract``'s
memo, it holds no node alive.
"""
from __future__ import annotations

import weakref
from collections import OrderedDict
from fractions import Fraction
from math import isqrt, lcm
from operator import attrgetter
from typing import Mapping, Union

from .symbols import COORDS, DEFAULT_TABLE, Symbol, UnknownSymbolError

__all__ = [
    "Expr", "Num", "Sym", "Pow", "Exp", "Sqrt", "Conj", "Mul", "Add",
    "num", "sym", "coords", "add", "mul", "power", "exp", "sqrt", "conj",
    "diff", "derive", "subs", "simplify", "context", "contract",
    "free_symbols",
    "to_text",
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


def _rough(f: Fraction) -> float:
    # correctly rounded, so monotone in ``f``; beyond the float range the
    # exact part after it breaks the tie
    try:
        return float(f)
    except OverflowError:
        return float("inf") if f > 0 else float("-inf")


class Num(Expr):
    __slots__ = ("re", "im")

    def __new__(cls, re: Fraction, im: Fraction = _F0):
        ikey = (0, re.numerator, re.denominator, im.numerator, im.denominator)
        node = _TABLE.get(ikey)
        if node is None:
            # one zero object, so equal zero parts compare by identity
            re, im = re or _F0, im or _F0
            node = _new(cls, ikey, (0, _rough(re), re, _rough(im), im))
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
            if _declared(symbol.name) != symbol:
                raise ValueError(f"symbol {symbol.name!r} is declared "
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
    _tag: int  # set by each subclass, with the ``name`` it prints as
    name: str

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
    name = "exp"


class Sqrt(_Unary):
    __slots__ = ()
    _tag = 4
    name = "sqrt"


class Conj(_Unary):
    __slots__ = ()
    _tag = 5
    name = "conj"


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


_keyfn = attrgetter("_key")


# ---------------------------------------------------------------------------
# exact complex-rational arithmetic on (re, im) Fraction pairs

_C_ONE = (Fraction(1), _F0)


def _cmul(a, b):
    if a[1] is _F0 and b[1] is _F0:  # both real: a ``Num``'s zero part is _F0
        return (a[0] * b[0], _F0)
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
        return Num(Fraction(re.real), Fraction(re.imag))
    return Num(Fraction(re), Fraction(im))


def _coerce(value) -> Expr | None:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, complex, Fraction)):
        return num(value)
    return None


def sym(name: str) -> Sym:
    """The symbol declared under ``name`` in ``DEFAULT_TABLE``; every
    symbol comes from that one table, so a name has one meaning."""
    return Sym(_declared(name))


def _declared(name: str) -> Symbol:
    try:
        return DEFAULT_TABLE[name]
    except KeyError:
        raise UnknownSymbolError(name) from None


def coords() -> tuple[Sym, ...]:
    return tuple(Sym(s) for s in COORDS)


def _lead(t: Expr) -> Num:
    """The numeric coefficient of a canonical term."""
    if isinstance(t, Mul) and isinstance(t.factors[0], Num):
        return t.factors[0]
    return ONE


def add(*terms: Expr) -> Expr:
    """Flattened, collected, canonically ordered sum.

    Every incoming term is canonical, because only the constructors in
    this module build nodes.  A term is therefore its coefficient (the
    leading ``Num`` of a ``Mul``, else 1) times its factor tuple, and terms
    are bucketed by that tuple with the coefficient held apart.  A bucket
    that one term lands in yields that term object unchanged; only when a
    second term lands are the coefficients summed and a ``Num``/``Mul``
    built, and the unit and zero tests on the sum are identity tests
    against the interned ``ONE``/``ZERO``."""
    nums: list[Num] = []
    # factor tuple -> the bucket's only term, or its [re, im] running sum
    buckets: dict[tuple, Expr | list] = {}
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
            continue
        if isinstance(t, Num):
            nums.append(t)
            continue
        if isinstance(t, Mul):
            key = t.factors[1:] if isinstance(t.factors[0], Num) else t.factors
        else:
            key = (t,)
        got = buckets.get(key)
        if got is None:
            buckets[key] = t
            continue
        if not isinstance(got, list):
            c = _lead(got)
            got = buckets[key] = [c.re, c.im]
        c = _lead(t)
        got[0] += c.re
        if c.im is not _F0:
            got[1] += c.im

    out: list[Expr] = []
    for key, got in buckets.items():
        if not isinstance(got, list):
            out.append(got)
            continue
        c = Num(*got)
        if c is ZERO:
            continue
        if c is not ONE:
            out.append(Mul((c, *key)))
        elif len(key) == 1:
            out.append(key[0])
        else:
            out.append(Mul(key))
    out.sort(key=_keyfn)
    c = _num_sum(nums)
    if c is not ZERO:
        out.insert(0, c)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def _num_sum(nums: list) -> Num:
    if not nums:
        return ZERO
    if len(nums) == 1:
        return nums[0]
    return Num(sum(n.re for n in nums), sum(n.im for n in nums))


def _num_product(nums: list) -> Num:
    # ``mul`` passes only factors other than 1 and 0
    if not nums:
        return ONE
    if len(nums) == 1:
        return nums[0]
    c = (nums[0].re, nums[0].im)
    for n in nums[1:]:
        c = _cmul(c, (n.re, n.im))
    return Num(*c)


def mul(*factors: Expr) -> Expr:
    """Flattened, merged, canonically ordered product.

    A factor that is ``ZERO`` ends the product at once: the numeric
    factors are exact Gaussian rationals, so a product of nonzero ones is
    never zero and no running coefficient needs a zero test.  Unit factors
    are dropped by identity, the others are kept as nodes, and their
    product is formed once at the end (a single one is reused as is)."""
    nums: list[Num] = []
    exp_terms: list[Expr] = []
    powmap: dict[Expr, int] = {}
    stack = list(reversed(factors))
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Num):
            if f is ZERO:
                return ZERO
            if f is not ONE:
                nums.append(f)
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
        elif isinstance(base, Sqrt):
            # sqrt(a)**(2q+r) -> a**q * sqrt(a)**r: rerun the pipeline on
            # every fold so its result merges with the other factors
            pending.append(power(base, n))
        else:
            atoms.append(Pow(base, n))  # a symbol, conjugate or sum
    if pending:
        return mul(*nums, *(exp(t) for t in exp_terms), *atoms, *pending)

    if exp_terms:
        ex = exp(add(*exp_terms))
        if ex is not ONE:  # the only number exp() returns
            atoms.append(ex)

    c = _num_product(nums)
    atoms.sort(key=_keyfn)
    if not atoms:
        return c
    if c is not ONE:
        atoms.insert(0, c)
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
        return mul(power(base.arg, q), base)
    return Pow(base, n)


def exp(arg: Expr) -> Expr:
    if arg is ZERO:
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
    # principal branch: conj(sqrt(z)) == sqrt(conj(z)) away from the
    # negative real axis, where all sampling in this engine lives.
    return _rebuild(e, [conj(k) for k in _kids(e)])


# The constructor of each function node, by the node's ``name``: the
# printer, ``_rebuild`` and ``kk6.parse`` all read this one table.
_FUNCTIONS = {Exp.name: exp, Sqrt.name: sqrt, Conj.name: conj}


def _kids(node: Expr) -> tuple:
    """The children of ``node`` in constructor order."""
    if isinstance(node, Add):
        return node.terms
    if isinstance(node, Mul):
        return node.factors
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, _Unary):
        return (node.arg,)
    return ()


def _rebuild(node: Expr, kids) -> Expr:
    """``node``'s constructor applied to ``kids``; its own kids give it
    back."""
    if isinstance(node, Add):
        return add(*kids)
    if isinstance(node, Mul):
        return mul(*kids)
    if isinstance(node, Pow):
        return power(kids[0], node.n)
    if isinstance(node, _Unary):
        return _FUNCTIONS[node.name](kids[0])
    return node


# ---------------------------------------------------------------------------
# calculus and rewriting

def _resolve_symbol(s) -> Symbol:
    if isinstance(s, Sym):
        return s.symbol
    if isinstance(s, Symbol):
        return s
    return _declared(s)


def diff(e: Expr, s) -> Expr:
    """The derivative tree, built by the product and chain rules; ``ZERO``
    at once when ``s`` is not a free symbol of ``e``, which is what every
    rule gives then."""
    target = _resolve_symbol(s)
    if target not in free_symbols(e):
        return ZERO
    return _diff(e, target, {})


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
    if isinstance(node, Sym):
        r = repl.get(node.symbol.name, node)
    else:
        r = _rebuild(node, [_subs(k, repl, memo) for k in _kids(node)])
    memo[node] = r
    return r


# A sum under a power that ``simplify`` leaves atomic: a negative power, or
# one above this cap.  Smaller positive powers of sums are expanded.
_EXPAND_POW_CAP = 8


class _Widen(Exception):
    """An exponent outgrew the packed field width; the call restarts wider."""


class _Poly:
    """A sparse polynomial inside one kernel context: the ``contract`` and
    ``derive`` calls that share one :func:`context`, or one ``simplify``
    call, which is a ``contract`` in a context of its own.

    ``groups`` maps ``(exp argument, root bits)`` to a dict from packed
    exponents to integer numerators over the shared denominator ``den``.
    ``mx`` bounds the magnitude of every packed exponent."""

    __slots__ = ("den", "groups", "mx")

    def __init__(self, den: int, groups: dict, mx: int):
        self.den = den
        self.groups = groups
        self.mx = mx


class _Ctx:
    """The layout and memos of one :func:`context`: of the ``contract`` and
    ``derive`` calls that share it, or of one ``simplify`` call.

    Exponents of field atoms (symbols, conjugates, sums under a power) are
    signed ``width``-bit fields of one int, so a product adds two ints.
    Square roots carry exponent 0 or 1 in canonical form, so each is one
    bit of a separate int; bit 0 stands for ``i``.  A product whose root
    bits overlap folds them as ``mul`` does.  Nothing here outlives the
    calls."""

    __slots__ = ("width", "half", "mask", "bias", "polys", "exps", "fkeys",
                 "factors", "fields", "atoms", "roots", "watch", "derivs")

    def __init__(self, width: int):
        self.width = width
        self.half = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.bias: list[int] = []   # field i -> half added to fields 0..i
        self.polys: dict = {}       # tree -> its _Poly
        self.exps: dict = {}        # (a, b) -> add(a, b) of exp arguments
        self.fkeys: dict = {}       # factor -> _factor_key
        self.factors: dict = {}     # (exp arg, root bits, packed) -> factors
        self.fields: dict = {}      # field atom -> index
        self.atoms: list = []       # index -> field atom
        self.roots: list = [None]   # bit index -> Sqrt atom (0 is i)
        self.watch: list[int] = []  # sums read under a positive power
        self.derivs: dict = {}      # symbol -> {tree: its diff tree}


def _field(ctx: _Ctx, atom: Expr) -> int:
    i = ctx.fields.get(atom)
    if i is None:
        i = ctx.fields[atom] = len(ctx.atoms)
        ctx.atoms.append(atom)
        ctx.bias.append((ctx.bias[-1] if i else 0)
                        + (ctx.half << (ctx.width * i)))
    return i


def _exponent(ctx: _Ctx, k: int, i: int) -> int:
    # biasing fields 0..i keeps the lower ones from borrowing out of field i
    return (((k + ctx.bias[i]) >> (ctx.width * i)) & ctx.mask) - ctx.half


def _factor_key(ctx: _Ctx, f: Expr) -> tuple:
    """(exp argument, root bit, packed exponent, |exponent|) of one factor
    of a canonical term, registering its atom on first sight."""
    got = ctx.fkeys.get(f)
    if got is None:
        if isinstance(f, Exp):
            got = (f.arg, 0, 0, 0)
        elif isinstance(f, Sqrt):
            got = (ZERO, 1 << len(ctx.roots), 0, 0)
            ctx.roots.append(f)
        else:
            base, n = (f.base, f.n) if isinstance(f, Pow) else (f, 1)
            if abs(n) >= ctx.half:  # before any memo holds an overflowed key
                raise _Widen
            i = _field(ctx, base)
            if n > 0 and isinstance(base, Add) and i not in ctx.watch:
                ctx.watch.append(i)
            got = (ZERO, 0, n << (ctx.width * i), abs(n))
        ctx.fkeys[f] = got
    return got


def _read(ctx: _Ctx, e: Expr) -> _Poly:
    """A simplified tree as a polynomial, read once per context: a simplified
    tree holds no product with a sum factor, so each term is a monomial."""
    got = ctx.polys.get(e)
    if got is not None:
        return got
    rows, mx = [], 0
    for t in (e.terms if isinstance(e, Add) else (e,)):
        if isinstance(t, Num):
            c, fs = t, ()
        elif isinstance(t, Mul):
            fs = t.factors
            c = ONE
            if isinstance(fs[0], Num):
                c, fs = fs[0], fs[1:]
        else:
            c, fs = ONE, (t,)
        ex, bits, k = ZERO, 0, 0
        for f in fs:
            fe, fb, fk, fm = _factor_key(ctx, f)
            if fe is not ZERO:
                ex = fe
            bits |= fb
            k += fk
            mx = max(mx, fm)
        ctx.factors[ex, bits, k] = fs
        rows.append((ex, bits, k, c.re, c.im))
    den = lcm(*(f.denominator for row in rows for f in row[3:]))
    groups: dict = {}
    for ex, bits, k, re, im in rows:
        if re:
            groups.setdefault((ex, bits), {})[k] = \
                re.numerator * (den // re.denominator)
        if im:
            groups.setdefault((ex, bits | 1), {})[k] = \
                im.numerator * (den // im.denominator)
    p = ctx.polys[e] = _Poly(den, groups, mx)
    return p


def _times(ctx: _Ctx, p: _Poly, q: _Poly) -> _Poly:
    """``p*q`` as ``mul`` forms each monomial product, then every sum that
    reached an exponent in 1..``_EXPAND_POW_CAP`` expanded, as ``simplify``
    expands a sum factor or a small power of one."""
    landed = list(ctx.watch)
    r = _merge(ctx, p, q, landed)
    return _land(ctx, r, landed) if landed else r


def _merge(ctx: _Ctx, p: _Poly, q: _Poly, landed: list) -> _Poly:
    # exponents add, exp arguments add, coefficients multiply; a doubled
    # root folds, sqrt(a)^2 -> a, with ``a`` merged like any factor (a sum
    # radicand raises its field, which ``_land`` settles afterwards)
    mx = p.mx + q.mx
    if mx >= ctx.half:
        raise _Widen
    den = p.den * q.den
    exps = ctx.exps
    out: dict = {}
    folds = []
    for (ea, ba), da in p.groups.items():
        for (eb, bb), db in q.groups.items():
            if ea is ZERO:
                ex = eb
            elif eb is ZERO:
                ex = ea
            else:
                ex = exps.get((ea, eb))
                if ex is None:
                    ex = exps[ea, eb] = add(ea, eb)
            ov = ba & bb
            if ov & 1:                          # i*i = -1
                db = {k: -n for k, n in db.items()}
            gk = (ex, ba ^ bb)
            if ov > 1:
                tgt: dict = {}
                folds.append((gk, tgt, ov >> 1))
            else:
                tgt = out.get(gk)
                if tgt is None:
                    tgt = out[gk] = {}
            get = tgt.get
            pairs = db.items()
            for ka, na in da.items():
                for kb, nb in pairs:
                    k = ka + kb
                    tgt[k] = get(k, 0) + na * nb
    if not folds and (_monomial(p) or _monomial(q)):
        # one monomial shifts the other side's exponents and group keys
        # and scales its nonzero numerators: distinct monomials stay
        # distinct and nonzero, so there is nothing for ``_sum`` to collect
        return _Poly(den, out, mx)
    parts = [_Poly(den, out, mx)]
    for gk, tgt, ov in folds:
        r = _Poly(den, {gk: tgt}, mx)
        j = 1
        while ov:
            if ov & 1:
                a = ctx.roots[j].arg
                if isinstance(a, Add):
                    i = _field(ctx, a)
                    if i not in landed:
                        landed.append(i)
                    r = _shift(ctx, r, i)
                else:
                    r = _merge(ctx, r, _read(ctx, a), landed)
            ov >>= 1
            j += 1
        parts.append(r)
    return _sum(parts)


def _monomial(p: _Poly) -> bool:
    """Whether ``p`` is one monomial, a constant included."""
    return len(p.groups) == 1 and len(next(iter(p.groups.values()))) == 1


def _shift(ctx: _Ctx, p: _Poly, i: int) -> _Poly:
    """``p`` times field atom ``i``."""
    if p.mx + 1 >= ctx.half:
        raise _Widen
    unit = 1 << (ctx.width * i)
    return _Poly(p.den, {gk: {k + unit: n for k, n in d.items()}
                         for gk, d in p.groups.items()}, p.mx + 1)


def _land(ctx: _Ctx, p: _Poly, fields: list) -> _Poly:
    """Expand the sums among ``fields`` that stand at an exponent in
    1..``_EXPAND_POW_CAP`` in a monomial of ``p``: the rest of the monomial
    times each such sum, as often as its exponent, in canonical factor
    order, as ``simplify`` distributes a sum factor or a small power of
    one.  Monomials that land the same sums at the same exponents are
    landed together: their rests form one polynomial, which is multiplied
    by the sums once."""
    keep: dict = {}
    rests: dict = {}            # ((field, exponent), ...) -> rest groups
    for gk, d in p.groups.items():
        for k, n in d.items():
            ups = tuple((i, m) for i in fields
                        if 1 <= (m := _exponent(ctx, k, i)) <= _EXPAND_POW_CAP)
            if not ups:
                keep.setdefault(gk, {})[k] = n
                continue
            for i, m in ups:
                k -= m << (ctx.width * i)
            rests.setdefault(ups, {}).setdefault(gk, {})[k] = n
    if not rests:
        return p
    parts = [_Poly(p.den, keep, p.mx)]
    for ups, groups in rests.items():
        r = _Poly(p.den, groups, p.mx)
        for i, m in sorted(ups, key=lambda u: _keyfn(ctx.atoms[u[0]])):
            q = _read(ctx, ctx.atoms[i])
            for _ in range(m):
                r = _times(ctx, r, q)
        parts.append(r)
    return _sum(parts)


def _sum(parts: list) -> _Poly:
    """The sum of polynomials over their least common denominator, with
    cancelled monomials dropped."""
    if len(parts) == 1:
        den, out = parts[0].den, parts[0].groups
    else:
        den = lcm(*(p.den for p in parts))
        out = {}
        for p in parts:
            s = den // p.den
            for gk, d in p.groups.items():
                tgt = out.get(gk)
                if tgt is None:
                    tgt = out[gk] = {}
                get = tgt.get
                for k, n in d.items():
                    tgt[k] = get(k, 0) + n * s
    groups = {}
    for gk, d in out.items():
        d = {k: n for k, n in d.items() if n}
        if d:
            groups[gk] = d
    return _Poly(den, groups, max(p.mx for p in parts))


def _factors(ctx: _Ctx, ex: Expr, bits: int, k: int) -> tuple:
    """The canonical factor tuple of one monomial (memoized per context)."""
    key = (ex, bits, k)
    got = ctx.factors.get(key)
    if got is not None:
        return got
    fs = []
    w, half, mask = ctx.width, ctx.half, ctx.mask
    i = 0
    while k:
        n = ((k + half) & mask) - half
        if n:
            a = ctx.atoms[i]
            fs.append(a if n == 1 else Pow(a, n))
        k = (k - n) >> w
        i += 1
    j = 1
    bits >>= 1
    while bits:
        if bits & 1:
            fs.append(ctx.roots[j])
        bits >>= 1
        j += 1
    if ex is not ZERO:
        fs.append(Exp(ex))
    fs.sort(key=_keyfn)
    got = ctx.factors[key] = tuple(fs)
    return got


_NO_TERMS: dict = {}


def _build(ctx: _Ctx, p: _Poly) -> Expr:
    """The canonical tree of ``p``: each monomial becomes one term, built
    once, in ``add``'s order (the numeric term first, then by ``_key``)."""
    den, groups = p.den, p.groups
    const = None
    terms = []
    for (ex, bits), d in groups.items():
        if bits & 1:
            if (ex, bits ^ 1) in groups:
                continue                        # taken with its real part
            re_d, im_d, bits = _NO_TERMS, d, bits ^ 1
            ks = d.keys()
        else:
            re_d, im_d = d, groups.get((ex, bits | 1), _NO_TERMS)
            ks = d.keys() | im_d.keys() if im_d else d.keys()
        for k in ks:
            nr, ni = re_d.get(k, 0), im_d.get(k, 0)
            c = Num(Fraction(nr, den) if nr else _F0,
                    Fraction(ni, den) if ni else _F0)
            fs = _factors(ctx, ex, bits, k)
            if not fs:
                const = c
            elif c is not ONE:
                terms.append(Mul((c, *fs)))
            elif len(fs) == 1:
                terms.append(fs[0])
            else:
                terms.append(Mul(fs))
    terms.sort(key=_keyfn)
    if const is not None:
        terms.insert(0, const)
    if not terms:
        r = ZERO
    elif len(terms) == 1:
        r = terms[0]
    else:
        r = Add(tuple(terms))
    ctx.polys[r] = p
    return r


def simplify(e: Expr) -> Expr:
    """Expand products over sums and small positive powers of sums, and
    collect like monomials.  Negative powers of sums stay atomic.
    Value-preserving and idempotent.  The result is cached on ``e`` (and on
    each subexpression visited), so simplifying a live node again is free.
    It runs the kernel directly, not through :func:`contract`'s memo: the
    cache on ``e`` already answers a repeat, and a memo entry would keep
    ``e`` alive after its last reference."""
    got = e._simp
    if got is not None:
        return e if got is _SELF else got
    r = _expand([(e,)], context())
    e._simp = _SELF if r is e else r
    return r


def _simplified(node: Expr, ctx: _Ctx) -> Expr:
    got = node._simp
    if got is not None:
        return node if got is _SELF else got
    # A sum is the contraction of its terms, a product of its factors.  A
    # canonical product never holds two factors on one sum or root base,
    # as ``mul`` merges them, so ``_merges`` is False on each product
    # handed over here and ``_contract`` never comes back to this node.
    if isinstance(node, (Num, Sym, Conj)):
        r = node
    elif isinstance(node, Add):
        r = _contract([(t,) for t in node.terms], ctx)
    elif isinstance(node, Mul):
        r = _contract([(node,)], ctx)
    elif isinstance(node, Pow):
        b = _simplified(node.base, ctx)
        if isinstance(b, Add) and 2 <= node.n <= _EXPAND_POW_CAP:
            p = q = _read(ctx, b)
            for _ in range(node.n - 1):
                p = _times(ctx, p, q)
            r = _build(ctx, p)
        else:
            r = power(b, node.n)
            # unless ``r`` is ``b`` (a symbol, conjugate or sum) under the
            # power, ``power`` made a new tree (sqrt(S)^5 -> S^2*sqrt(S),
            # exp(S)^2 -> exp(2*S), (S^-1)^-2 -> S^2): simplify it in turn
            if not (isinstance(r, Pow) and r.base is b):
                r = _simplified(r, ctx)
    else:                       # exp or sqrt
        r = _rebuild(node, [_simplified(node.arg, ctx)])
    node._simp = _SELF if r is node else r
    if r._simp is None:         # simplify is idempotent: r is its own result
        r._simp = _SELF
    return r


def context() -> _Ctx:
    """A fresh kernel context for a run of :func:`contract` and
    :func:`derive` calls, or for one :func:`simplify` call: the calls share
    its reads, ``exp`` sums and ``diff`` trees.  A call that outgrows its
    field width restarts in a wider context of its own, and this one goes
    on at its width.  A contraction formed before, in any context, is
    answered by :func:`contract`'s memo and reads nothing into this one."""
    return _Ctx(32)


# ``contract``'s memo: its products as a tuple of tuples of nodes -> the
# result, least recently used first.  Benchmark traffic, a cold pass then
# a warm pass at the next seed in one process: the 17 claims and 4 probes
# make 3,244 calls on 969 distinct products, then 1,207 on 472, forming
# none again (an LRU of 952 entries would do, 72 under the cap).  The
# eight ``kk6 curvature`` runs make 2,930 calls on 1,303, then 420 on 218,
# of which the cap forms 81 again (an LRU of 1,232 entries would not).  An
# entry keeps its key's nodes alive: when one curvature pass formed 2,056
# distinct contractions, 2,048 entries raised its peak RSS by 6%, 1,024 by
# 3%.  Against 1,024, a cap of 2,048 took the warm pass from 0.0119 to
# 0.0103 reference s (8 alternating runs, 8 lower) and its peak RSS from
# 25.555 to 25.566 MB, but a default ``gravity-dirac`` run's from 73.97 to
# 74.18 MB.  The cap stays at 1,024: only a second pass in one process
# gains, and the memory lands on the symbolic runs.
_CONTRACTED: "OrderedDict[tuple, Expr]" = OrderedDict()
_CONTRACTED_CAP = 1024


def contract(products, ctx: _Ctx) -> Expr:
    """The simplified sum of products: by definition
    ``simplify(add(*(mul(*p) for p in products)))``, node for node.

    It is computed in the polynomial kernel without building a ``Mul`` per
    product or the outer ``Add``: the factors of each product (``Mul``
    operands flattened) are read in ``mul``'s order and multiplied, the
    products summed, and the result built once.  Calls that share ``ctx``
    share its reads, so an operand met again costs one dict lookup, and
    its ``exp`` argument sums.  A product in which ``mul`` would merge two
    factors with the same sum or root as base (``S*S^-1 -> 1``,
    ``S^9*S^-1 -> S^8``, ``sqrt(a)^2 -> a``) takes the tree route instead,
    as the kernel would expand or fold them in another order.  On an
    exponent beyond the field width only this call restarts, wider.

    The result is kept in a process-wide LRU memo of ``_CONTRACTED_CAP``
    entries, keyed by the products' nodes, so the same products asked for
    again, in any context, return the stored node at once.  A call that
    raises stores nothing."""
    # the key's tuples, never the caller's iterables, reach the kernel:
    # building the key consumes a generator
    key = tuple(tuple(p) for p in products)
    got = _CONTRACTED.get(key)
    if got is not None:
        _CONTRACTED.move_to_end(key)
        return got
    got = _CONTRACTED[key] = _expand(key, ctx)
    if len(_CONTRACTED) > _CONTRACTED_CAP:
        _CONTRACTED.popitem(last=False)
    return got


def _expand(products, ctx: _Ctx) -> Expr:
    """``_contract``, restarted in a wider context on a field overflow."""
    while True:
        try:
            return _contract(products, ctx)
        except _Widen:
            ctx = _Ctx(ctx.width * 2)


def _contract(products, ctx: _Ctx) -> Expr:
    parts = []
    for p in products:
        fs = []
        for f in p:
            fs.extend(f.factors if isinstance(f, Mul) else (f,))
        if not fs:
            fs.append(ONE)              # the empty product
        elif ZERO in fs:
            continue
        if _merges(fs):
            parts.append(_read(ctx, _simplified(mul(*p), ctx)))
            continue
        fs.sort(key=_keyfn)
        q = _read(ctx, _simplified(fs[0], ctx))
        for f in fs[1:]:
            q = _times(ctx, q, _read(ctx, _simplified(f, ctx)))
        parts.append(q)
    if not parts:
        return ZERO
    r = _build(ctx, _sum(parts))
    if r._simp is None:
        r._simp = _SELF
    return r


def _merges(factors: list) -> bool:
    """Whether ``mul`` would merge two of ``factors`` on a sum or root
    base.  Other merges are the kernel's own: exponents of symbols add,
    ``exp`` arguments add and numbers multiply, in any order."""
    seen = set()
    for f in factors:
        b = f.base if isinstance(f, Pow) else f
        if isinstance(b, (Add, Sqrt)):
            if b in seen:
                return True
            seen.add(b)
    return False


def derive(e: Expr, s, ctx: _Ctx) -> Expr:
    """The simplified derivative: by definition ``simplify(diff(e, s))``,
    node for node.

    It is the product rule handed to :func:`contract`: for each term of
    ``e`` and each factor in which ``s`` is free, the term with that factor
    replaced by its ``diff`` tree, which ``ctx`` memoizes per symbol.  The
    ``add`` of the ``mul`` of these products is ``diff(e, s)``, so
    ``contract`` gives its ``simplify`` for any ``e``; an ``e`` free of
    ``s`` gives no product, and ``ZERO``."""
    target = _resolve_symbol(s)
    memo = ctx.derivs.setdefault(target, {})
    products = []
    for t in (e.terms if isinstance(e, Add) else (e,)):
        fs = t.factors if isinstance(t, Mul) else (t,)
        for i, f in enumerate(fs):
            if target in free_symbols(f):
                products.append(
                    (*fs[:i], _diff(f, target, memo), *fs[i + 1:]))
    return contract(products, ctx)


# Each node caches its free-symbol set, and shares its widest child's set
# when that holds the others, so a new set is formed only where a node
# joins symbols that no one child holds.
_NO_SYMBOLS: frozenset = frozenset()


def free_symbols(e: Expr) -> frozenset[Symbol]:
    if e._free is not None:
        return e._free
    kids = _kids(e)
    if isinstance(e, Sym):
        out = frozenset((e.symbol,))
    elif len(kids) == 1:
        out = free_symbols(kids[0])     # the one child's set, shared
    else:
        sets = [free_symbols(k) for k in kids]
        out = max(sets, key=len, default=_NO_SYMBOLS)
        if not all(s <= out for s in sets):
            out = frozenset().union(*sets)
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


def _text(e: Expr, memo: dict) -> tuple[str, int]:
    # each distinct node is rendered once per ``to_text`` call
    got = memo.get(e)
    if got is None:
        got = memo[e] = _render(e, memo)
    return got


def _render(e: Expr, memo: dict) -> tuple[str, int]:
    if isinstance(e, Num):
        return _num_text(e)
    if isinstance(e, Sym):
        return e.symbol.name, _P_ATOM
    if isinstance(e, _Unary):
        return f"{e.name}({_text(e.arg, memo)[0]})", _P_ATOM
    if isinstance(e, Pow):
        bs, bp = _text(e.base, memo)
        if bp < _P_POW:
            bs = f"({bs})"
        return f"{bs}^{e.n}", _P_POW
    if isinstance(e, Mul):
        factors = e.factors
        prefix = ""
        if isinstance(factors[0], Num) and factors[0] == MINUS_ONE:
            prefix, factors = "-", factors[1:]
            if len(factors) == 1:
                s, p = _text(factors[0], memo)
                if p < _P_MUL:
                    s = f"({s})"
                return prefix + s, _P_UNARY
        parts = []
        for f in factors:
            s, p = _text(f, memo)
            if p < _P_MUL:
                s = f"({s})"
            parts.append(s)
        return prefix + "*".join(parts), (_P_UNARY if prefix else _P_MUL)
    if isinstance(e, Add):
        out = []
        for i, t in enumerate(e.terms):
            s, _ = _text(t, memo)
            if i == 0:
                out.append(s)
            elif s.startswith("-"):
                out.append(" - " + s[1:])
            else:
                out.append(" + " + s)
        return "".join(out), _P_ADD
    raise TypeError(f"cannot print node {type(e).__name__}")  # pragma: no cover


# ``to_text``'s map: each node it printed -> its text, for as long as the
# node lives.  Benchmark traffic, the eight ``kk6 curvature`` runs of a cold
# pass then a warm pass at the next seed in one process: the cold pass makes
# 210 calls on 161 distinct nodes, and the warm pass 210 calls that all
# hit, rendering nothing; the 161 texts hold 126,389 characters.
_TEXTS: "weakref.WeakKeyDictionary[Expr, str]" = weakref.WeakKeyDictionary()


def to_text(e: Expr) -> str:
    """The text of ``e``, which ``kk6.parse`` reads back to ``e``; a node
    shared within ``e`` is rendered once.  The text is kept while ``e``
    lives, so printing ``e`` again returns the same string and renders
    nothing."""
    got = _TEXTS.get(e)
    if got is None:
        got = _TEXTS[e] = _text(e, {})[0]
    return got


# ---------------------------------------------------------------------------
# constants

ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))
MINUS_ONE = Num(Fraction(-1))
TWO = Num(Fraction(2))
HALF = Num(Fraction(1, 2))
I = Num(Fraction(0), Fraction(1))
