"""Probabilistic zero testing by random evaluation.

An expression is declared zero when it evaluates below a scale-aware
threshold at every sampled point.  The scale accompanies the value through
the tree: additive over sums, multiplicative over products, plain magnitude
elsewhere; the verdict compares ``|value| < tol * (1 + scale)``, so a
residual that cancels fourteen digits of a huge intermediate still counts
as zero while a genuine small offset does not.

Sampling is deterministic for a given seed: symbols are drawn in sorted
name order from ``random.Random(seed)`` (whose ``random``/``uniform``
sequences are stable across Python versions).  Magnitudes are uniform in
[0.1, 2]; a symbol declared positive in the symbol table takes no sign,
the other real ones a random sign, the rest a random phase.
Principal-branch ``sqrt`` is sampled consistently: identical radicands
share one evaluation, so identities whose proofs only need
``sqrt(a)**2 == a`` or common ``sqrt`` factors are branch-safe.

Error model.  A ``nonzero`` verdict is certain up to roundoff: the witness
point is returned and the residual there exceeds the threshold.  A
``zero`` verdict can be false.  For a residual that is a nonzero
polynomial of total degree d (or a rational function whose numerator is
one), one point drawn from a set S misses it with probability at most
d/|S| (Schwartz, J. ACM 1980; Zippel, EUROSAM 1979), so ``trials``
independent points miss it with probability at most (d/|S|)**trials,
negligible when S is the ~2**52 doubles of a sampling range.  Residuals
containing ``exp`` or ``sqrt`` are not polynomials and that bound does
not cover them: a nonzero analytic residual vanishes only on a
measure-zero set, but nothing bounds how close to zero it comes at the
sampled points.  For them the guarantee is ``tol`` and ``trials``
themselves: at every sampled point the residual was below ``tol``
relative to its scale.

The zero test has one expression evaluator, a post-order tape (the
curvature oracle, the geodesic connection and the gravity split evaluate
code that the oracle's own emitter compiles, so that they stay
independent of it): one entry per distinct node (op code, child slots,
constant), each after its children, children in the order ``expr._kids``
lists them.  :func:`scaled_eval` builds the tape of one expression and
runs it once; :func:`evaluate` returns its value alone.  :func:`are_zero`
tests a list of expressions in turn, and :func:`is_zero` is its
one-expression case.
Each node's value is the CPython complex arithmetic of a recursive walk in
the same order, so results are bit for bit what such a walk gives.  The
first node in post-order that fails names the error (:class:`EvalError`
with that subtree): an unbound symbol, a zero base at a negative power, a
non-finite value, or an overflow (``exp``, ``**``, a constant or a
magnitude beyond the float range).  :func:`is_zero` binds every free
symbol, so it meets only the last three, and reports them as an
inconclusive verdict with a note naming the subtree (its text cut after
512 characters, with the full length appended).  The error model above is
unchanged.

Expressions with the same free symbols draw the same sample points at a
seed, so all of them, in any :func:`are_zero` call, share one process-wide
tape per free-symbol set: an expression adds only the nodes the tape does
not hold yet.  For the last seed graded on it, the tape also holds each
sample point drawn so far and the values and scales of its first entries
there, so at one seed each node is evaluated once per point, across
calls.  A call reads the roots already evaluated and runs a point only
from where its values end up to the last root still needed.
:func:`is_zero` grades its one expression alone, on a tape of its own,
and leaves the shared tapes as they were.  The tape holds no expression
alive: its entries hold symbol names and numbers, and it finds its nodes
through a weak map from node to slot.  Once more than half of its entries
belong to nodes that have died, the next call starts the set afresh on a
new tape, so no tape grows without bound.  A call keeps the tape and the
points it began with to its end, so a call made while its expressions are
taken, which can start the set or its values afresh, changes none of its
results.
A run of a shared tape stops at its first entry that fails, which can
belong to another expression.  A member whose root lies past that entry
is evaluated at that point alone by :func:`scaled_eval`, as
:func:`is_zero` of it alone evaluates it, so its note names the first
node that fails in its own post-order, and every result, witness and note
is bit for bit what :func:`is_zero` of that expression alone gives.
"""
from __future__ import annotations

import cmath
import math
import random
import weakref
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from numbers import Integral, Real
from typing import Mapping

from .expr import (
    Add, Conj, EvalError, Exp, Expr, Mul, Num, Pow, Sqrt, Sym,
    _kids, free_symbols, to_text,
)
from .symbols import Symbol

__all__ = ["ZeroResult", "sample_env", "scaled_eval", "evaluate", "is_zero",
           "are_zero"]


@dataclass(frozen=True)
class ZeroResult:
    verdict: str
    max_residual: float
    samples: int
    witness: dict[str, complex] | None = None
    note: str | None = None


def sample_env(symbols, rng: random.Random) -> dict[str, complex]:
    """One random point, by each symbol's flags in the symbol table."""
    env: dict[str, complex] = {}
    for s in sorted(symbols, key=lambda s: s.name):
        mag = rng.uniform(0.1, 2.0)
        if s.positive:
            env[s.name] = complex(mag, 0.0)
        elif s.real:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            env[s.name] = complex(sign * mag, 0.0)
        else:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            env[s.name] = cmath.rect(mag, phase)
    return env


def scaled_eval(e: Expr, env: Mapping[str, complex]) -> tuple[complex, float]:
    """Evaluate ``e`` returning ``(value, scale)`` where scale tracks the
    magnitude that roundoff noise is proportional to."""
    values: dict[str, complex] = {k: complex(v) for k, v in env.items()}
    tape: list = []
    order = _extend(tape, {}, e)
    val: list = []
    sc: list = []
    fault = _run(tape, values, val, sc, len(tape))
    if fault is not None:
        raise EvalError(fault, order[len(val)])
    return val[-1], sc[-1]


# Tape op codes.  An entry is ``(op, arg, const)``: ``arg`` is the child's
# slot (a tuple of slots for sums and products), ``const`` the symbol name,
# the exponent, the ``(value, scale)`` of a number, or a failure message.
_NUM, _SYM, _ADD, _MUL, _POW, _EXP, _SQRT, _CONJ, _FAIL = range(9)
_UNARY = {Exp: _EXP, Sqrt: _SQRT, Conj: _CONJ}
_OVERFLOW = {_POW: "power overflow", _EXP: "exp overflow"}


def _walk(slot, e: Expr, base: int) -> list:
    """The nodes of ``e`` that ``slot`` does not hold yet, each after its
    children, in the order a depth-first walk over the children in turn
    finishes them; each is given the next slot from ``base`` on.  Each
    node already held heads a subtree whose nodes are all held, so the new
    nodes keep their order in ``e``'s own walk."""
    new: list = []
    if e not in slot:
        stack = [(e, iter(_kids(e)))]
        while stack:
            node, kids = stack[-1]
            for k in kids:
                if k not in slot:
                    stack.append((k, iter(_kids(k))))
                    break
            else:
                stack.pop()
                slot[node] = base + len(new)
                new.append(node)
    return new


def _extend(tape: list, slot, e: Expr) -> list:
    """Append to ``tape`` the entries of the nodes of ``e`` that ``slot``
    does not hold yet, in :func:`_walk`'s order, and return those nodes."""
    new = _walk(slot, e, len(tape))
    tape.extend(_entry(node, slot) for node in new)
    return new


def _entry(node: Expr, slot: dict) -> tuple:
    if isinstance(node, Num):
        try:
            v = complex(node.re, node.im)
            return (_NUM, None, (v, abs(v)))
        except OverflowError:
            return (_FAIL, None, "constant overflow")
    if isinstance(node, Sym):
        return (_SYM, None, node.symbol.name)
    if isinstance(node, Add):
        return (_ADD, tuple(slot[t] for t in node.terms), None)
    if isinstance(node, Mul):
        return (_MUL, tuple(slot[f] for f in node.factors), None)
    if isinstance(node, Pow):
        return (_POW, slot[node.base], node.n)
    if type(node) in _UNARY:
        return (_UNARY[type(node)], slot[node.arg], None)
    raise TypeError(  # pragma: no cover
        f"scaled_eval of unsupported node {type(node).__name__}")


def _run(tape: list, values: Mapping, val: list, sc: list,
         stop: int) -> str | None:
    """Append to ``val`` and ``sc`` the value and scale of the entries from
    slot ``len(val)`` up to ``stop`` at the point ``values``; return None,
    or the failure message of the first entry that fails, whose slot is
    ``len(val)`` then."""
    # Ops are tested in order of frequency.  CPython complex arithmetic in
    # the order of a recursive walk: sums from 0j, products from 1+0j, ``**``
    # for powers, ``cmath`` for exp and sqrt, ``abs`` for the scale, so
    # every sample is bit for bit what the walk gave.
    put_v, put_s = val.append, sc.append
    isfinite, cexp, csqrt = cmath.isfinite, cmath.exp, cmath.sqrt
    try:
        for op, a, c in islice(tape, len(val), stop):
            if op == _MUL:
                v = 1 + 0j
                s = 1.0
                for i in a:
                    v *= val[i]
                    s *= sc[i]
            elif op == _POW:
                v = val[a] ** c
                s = abs(v)
            elif op == _SYM:
                v = values[c]
                s = abs(v)
            elif op == _NUM:
                put_v(c[0])
                put_s(c[1])
                continue
            elif op == _ADD:
                v = 0j
                s = 0.0
                for i in a:
                    v += val[i]
                    s += sc[i]
            elif op == _EXP:
                v = cexp(val[a])
                s = abs(v)
            elif op == _SQRT:
                v = csqrt(val[a])
                s = abs(v)
            elif op == _CONJ:
                v = val[a].conjugate()
                s = abs(v)
            else:
                return c
            if not isfinite(v):
                return "non-finite value"
            put_v(v)
            put_s(s)
    except KeyError:
        return f"unbound symbol '{tape[len(val)][2]}'"
    except ZeroDivisionError:
        return "zero base at negative power"
    except OverflowError:
        # ``**`` and ``cmath.exp`` past the float range, or ``abs`` of a
        # finite value whose magnitude is not a float
        return _OVERFLOW.get(tape[len(val)][0], "magnitude overflow")
    return None


def evaluate(e: Expr, env: Mapping) -> complex:
    """Evaluate ``e`` numerically over complex doubles.

    ``env`` maps symbol names (or :class:`Symbol` objects) to values.
    Unbound symbols and non-finite intermediate results raise
    :class:`EvalError` carrying the offending subtree."""
    values = {k.name if isinstance(k, Symbol) else k: v
              for k, v in env.items()}
    return scaled_eval(e, values)[0]


# an inconclusive note cuts the failing subtree's text at this length
_NOTE_CHARS = 512


def _note_text(e: Expr) -> str:
    s = to_text(e)
    if len(s) <= _NOTE_CHARS:
        return s
    return f"{s[:_NOTE_CHARS]}... ({len(s)} characters)"


def _check_tol(tol: float, error: type = ValueError) -> None:
    """The one check of a zero-test tolerance: a real ``tol`` in (0, 1)."""
    if not isinstance(tol, Real) or not 0.0 < tol < 1.0:  # NaN fails too
        raise error("tol must lie in (0, 1)")


def _check_seed(seed: int, error: type = ValueError) -> None:
    """The one check of a run's seed: an integer in [0, 2**64)."""
    if not isinstance(seed, Integral) or not 0 <= seed < 2 ** 64:
        raise error("seed must be an integer that fits in 64 unsigned bits")


def is_zero(e: Expr, seed: int = 0, trials: int = 32,
            tol: float = 1e-9) -> ZeroResult:
    """Zero/nonzero/inconclusive verdict for ``e`` by random evaluation.

    Deterministic per seed.  The first point violating the threshold is
    returned as a nonzero witness; an evaluation failure (a zero base at a
    negative power, a non-finite value, an overflow) yields an
    inconclusive verdict naming the offending subtree.
    Raises ``ValueError`` for ``trials`` not an integer of at least 1, or
    ``tol`` not a real number in (0, 1), any of which would let a
    sample-free or NaN test read ``zero`` or fail with a bare ``TypeError``.
    ``e`` is graded alone, on a tape of its own, as :func:`are_zero`
    grades a list; the shared tapes are left as they were.
    """
    return _graded((e,), seed, trials, tol, {})[0]


class _Points:
    """The sample points of ``seed`` on a tape: ``envs[j]`` is point j,
    drawn in turn from ``rng``, and ``vals[j]`` and ``scs[j]`` the values
    and scales of the tape's first entries there, up to the first entry
    that fails."""

    __slots__ = ("seed", "rng", "envs", "vals", "scs")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.envs: list = []
        self.vals: list = []
        self.scs: list = []

    def run(self, tape: "_Tape", j: int, stop: int) -> None:
        """Point ``j``'s values through slot ``stop - 1`` of ``tape``, or up
        to its first entry that fails; the points up to ``j`` are drawn
        first."""
        while len(self.envs) <= j:
            self.envs.append(sample_env(tape.syms, self.rng))
            self.vals.append([])
            self.scs.append(array("d"))
        if len(self.vals[j]) < stop:
            _run(tape.entries, self.envs[j], self.vals[j], self.scs[j], stop)


class _Tape:
    """The tape of one free-symbol set: each distinct node's entry once,
    found through ``slot``, a weak map from node to slot, and ``pts``, the
    points of the last seed graded on it.  The entries of nodes that have
    died stay until the set starts afresh on a new tape."""

    __slots__ = ("syms", "slot", "entries", "pts")

    def __init__(self, syms) -> None:
        self.syms = sorted(syms, key=lambda s: s.name)
        self.slot: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.entries: list = []
        self.pts: _Points | None = None

    def at(self, seed: int) -> _Points:
        """The points of ``seed``, in place of another seed's."""
        if self.pts is None or self.pts.seed != seed:
            self.pts = _Points(seed)
        return self.pts


# The process-wide tapes of are_zero, one per free-symbol set it has graded.
_TAPES: dict = {}


def _tape(tapes: dict, syms) -> _Tape:
    """The tape of ``syms`` in ``tapes``, a new one in place of a tape more
    than half of whose entries belong to nodes that have died."""
    tape = tapes.get(syms)
    if tape is None or 2 * len(tape.slot) < len(tape.entries):
        tape = tapes[syms] = _Tape(syms)
    return tape


class _Group:
    """The expressions of one free-symbol set in a run, on ``tape`` and
    the points of the run's seed, both taken when the group is made and
    kept to the run's end: a call made while ``exprs`` is taken can start
    the set afresh on a new tape or put another seed's points in place of
    these, and the run goes on with the ones it holds.  Member
    ``i`` is expression ``index[i]`` of the run, its value is at slot
    ``root[i]``, ``reach[i]`` is the largest root of members 0..i and
    ``worst[i]`` its largest residual so far."""

    def __init__(self, tape, seed: int, trials: int, tol: float) -> None:
        self.tape = tape
        self.pts = tape.at(seed)
        self.tol = tol
        self.trials = trials if tape.syms else 1
        self.exprs: list = []
        self.index: list = []
        self.root: list = []
        self.reach: list = []
        self.worst: list = []

    def add(self, e: Expr, index: int) -> None:
        tape = self.tape
        root = tape.slot.get(e)
        if root is None:
            _extend(tape.entries, tape.slot, e)
            root = len(tape.entries) - 1
        self.exprs.append(e)
        self.index.append(index)
        self.root.append(root)
        self.reach.append(max(root, self.reach[-1]) if self.reach else root)
        self.worst.append(0.0)

    def run(self, j: int, n: int) -> None:
        """Point ``j``'s values as far as members 0..n-1 need."""
        self.pts.run(self.tape, j, self.reach[n - 1] + 1)

    def judge(self, i: int, j: int) -> ZeroResult | None:
        """Member ``i``'s result if it is not zero at point ``j``, else
        None.  A run that stopped short of its root stopped at an entry
        that fails: the member is evaluated there alone."""
        pts = self.pts
        root, val, env = self.root[i], pts.vals[j], pts.envs[j]
        if root < len(val):
            v, s = val[root], pts.scs[j][root]
        else:
            try:
                v, s = scaled_eval(self.exprs[i], env)
            except EvalError as err:
                note = f"{err} in {_note_text(err.subtree)}"
                return ZeroResult("inconclusive", self.worst[i], self.trials,
                                  witness=dict(env) or None, note=note)
        resid = abs(v) / (1.0 + s)
        self.worst[i] = max(self.worst[i], resid)
        if resid >= self.tol:
            return ZeroResult("nonzero", self.worst[i], self.trials,
                              witness=dict(env))
        return None


def are_zero(exprs, seed: int = 0, trials: int = 32,
             tol: float = 1e-9) -> list[ZeroResult]:
    """:func:`is_zero` of each of ``exprs`` in turn, through the first that
    is not zero, each result bit for bit what ``is_zero`` gives.

    Expressions with the same free symbols draw the same sample points, so
    they share their set's process-wide tape, which holds each distinct
    node once and the values of each point so far at the last seed graded
    on it: at one seed each node is evaluated once per point, across
    calls.  ``exprs`` is taken lazily at the first point, up to the first
    expression that is not zero there; every point runs a tape only from
    where its values end up to the last root still needed.  A call that
    finds its set's tape more than half dead starts the set afresh on a
    new tape; a call keeps the tape and points it began with to its end.
    Where a run stops at an entry that fails before an expression's root,
    that expression is evaluated there alone by :func:`scaled_eval`.  The
    tapes hold no expression alive.
    """
    return _graded(exprs, seed, trials, tol, _TAPES)


def _graded(exprs, seed, trials, tol, tapes: dict) -> list[ZeroResult]:
    """:func:`are_zero` of ``exprs`` on the tapes of ``tapes``."""
    if not isinstance(trials, Integral) or trials < 1:
        raise ValueError(f"trials must be an integer of at least 1, "
                         f"got {trials!r}")
    _check_tol(tol)
    groups: dict = {}
    member: list = []   # each expression's (group, member number)
    out: list = []      # each expression's result once it is not zero
    for e in exprs:
        syms = free_symbols(e)
        g = groups.get(syms)
        if g is None:
            g = groups[syms] = _Group(_tape(tapes, syms), seed, trials, tol)
        member.append((g, len(g.index)))
        g.add(e, len(out))
        g.run(0, len(g.index))
        out.append(g.judge(len(g.index) - 1, 0))
        if out[-1] is not None:
            break
    # the expressions before ``cut`` are zero so far, the one at it is not
    cut = len(out) - 1 if out and out[-1] is not None else len(out)
    for j in range(1, trials):
        for g in groups.values():
            n = bisect_left(g.index, cut)       # members still needed
            if j >= g.trials or not n:
                continue
            g.run(j, n)
            for i in range(n):
                got = g.judge(i, j)
                if got is not None:
                    out[g.index[i]] = got
                    cut = g.index[i]
                    break
    return [r if r is not None else
            ZeroResult("zero", g.worst[i], g.trials)
            for r, (g, i) in zip(out[:cut + 1], member)]
