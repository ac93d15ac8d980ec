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
one-expression case.  Expressions with the same free symbols draw the same
sample points, so each such group shares one tape over the union of its
nodes: an expression adds only the nodes the group does not hold yet, and
each node is evaluated once per point.  At the first point the
expressions are taken one at a time, up to the first that is not zero
there, and only each new expression's entries are evaluated; every later
point runs a group's tape as far as the last root still needed.  Each
expression's result is replayed in order and is bit for bit what testing
it alone gives.
Each node's value is the CPython complex arithmetic of a recursive walk in
the same order, so results are bit for bit what such a walk gives.  The
first node in post-order that fails names the error (:class:`EvalError`
with that subtree): an unbound symbol, a zero base at a negative power, a
non-finite value, or an overflow (``exp``, ``**``, a constant or a
magnitude beyond the float range).  :func:`is_zero` binds every free
symbol, so it meets only the last three, and reports them as an
inconclusive verdict with a note naming the subtree (its text cut after
512 characters, with the full length appended).  In a group, the failing
slot belongs to the first expression that reads it: the expressions
before it are already evaluated at that point, and the slot is also the
first to fail in that expression's own post-order, so the note names the
same subtree.  The error model above is unchanged.

A group's tape outlives its call: it is kept for the next group, in any
later call, that starts with the same expression, which reads the kept
entries as far as its expressions are the kept ones in the same order and
branches where they differ, so a pass that grades the same residuals at
another seed builds no entry.  The first point still stops at the end of
the expressions added so far, so a kept tape changes no result.  A kept
tape holds no expression alive: its entries hold symbol names and
numbers, and its expressions are matched through weak references.  It is
dropped with the expression it starts with, and a branch whose
expression has died is dropped at the next branch from the same place.
"""
from __future__ import annotations

import cmath
import math
import random
import weakref
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
    tape, order = [], []
    _extend(tape, {}, order, e)
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


def _walk(slot: dict, order: list, e: Expr) -> None:
    """Append to ``order`` the nodes of ``e`` that ``slot`` does not hold
    yet, each after its children, in the order a depth-first walk over the
    children in turn finishes them, and give each the next slot.  Each
    node already held heads a subtree whose nodes are all held, so the new
    nodes keep their order in ``e``'s own walk."""
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
                slot[node] = len(order)
                order.append(node)


def _extend(tape: list, slot: dict, order: list, e: Expr) -> int:
    """Append to ``tape`` (and to ``order``, as long as it) the entries of
    the nodes of ``e`` that ``slot`` does not hold yet, in :func:`_walk`'s
    order; return the slot of ``e``."""
    new = len(order)
    _walk(slot, order, e)
    tape.extend(_entry(node, slot) for node in order[new:])
    return slot[e]


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
    """
    return are_zero((e,), seed, trials, tol)[0]


class _Step:
    """A kept member of a group: a weak reference to its expression, the
    slot of its value, the tape's length once it was added (where point 0
    stops), the tape whose first ``end`` entries are the group's through
    it, and the members kept after it, one branch per later expression."""

    __slots__ = ("ref", "root", "end", "tape", "next")

    def __init__(self, e: Expr, root: int, tape: list) -> None:
        self.ref = weakref.ref(e)
        self.root = root
        self.end = len(tape)
        self.tape = tape
        self.next: list = []


# Each group's tape kept for the next group that starts with the same
# expression: its first member's step, keyed on that expression, whose
# death drops the entry.  A step holds no node: its entries name symbols
# and hold numbers, and it finds its members through weak references.
# A tape list is only ever appended to, by a branch from a step where it
# ends; a branch from a step whose list runs past its end copies the
# list's first ``end`` entries, so each step's entries never change.
_KEPT: "weakref.WeakKeyDictionary[Expr, _Step]" = weakref.WeakKeyDictionary()


class _Group:
    """The expressions of one free-symbol set in an :func:`are_zero` run:
    they draw the same sample points and share one tape over the union of
    their nodes, a kept one (``_KEPT``) as far as its steps name the same
    expressions in the same order.  Member ``i`` is expression
    ``index[i]`` of the run, its value is at slot ``root[i]``, ``reach[i]``
    is the largest root of members 0..i and ``worst[i]`` its largest
    residual so far.  ``slot`` and ``order`` (each node's slot, and the
    nodes in slot order) are walked again only to extend the tape or to
    name a failing node."""

    def __init__(self, syms, seed: int, trials: int, tol: float) -> None:
        self.syms = sorted(syms, key=lambda s: s.name)
        self.rng = random.Random(seed)
        self.tol = tol
        self.trials = trials if syms else 1
        self.env = sample_env(self.syms, self.rng)   # point 0
        self.val: list = []     # the values and scales at point 0
        self.sc: list = []
        self.step: _Step | None = None     # the last member's
        self.slot: dict | None = None
        self.order: list | None = None
        self.exprs: list = []
        self.index: list = []
        self.root: list = []
        self.reach: list = []
        self.worst: list = []

    def _walked(self) -> None:
        """``slot`` and ``order`` over the members so far."""
        if self.order is None:
            self.slot, self.order = {}, []
            for e in self.exprs:
                _walk(self.slot, self.order, e)

    def add(self, e: Expr, index: int) -> None:
        last = self.step
        if last is None:
            step = _KEPT.get(e)
            if step is None:
                tape: list = []
                self.slot, self.order = {}, []
                step = _KEPT[e] = _Step(
                    e, _extend(tape, self.slot, self.order, e), tape)
        else:
            step = next((s for s in last.next if s.ref() is e), None)
            if step is None:
                # a branch; members that have died cannot be matched again
                last.next = [s for s in last.next if s.ref() is not None]
                tape = last.tape
                if len(tape) > last.end:
                    tape = tape[:last.end]
                self._walked()
                step = _Step(e, _extend(tape, self.slot, self.order, e),
                             tape)
                last.next.append(step)
        self.step = step
        self.exprs.append(e)
        self.index.append(index)
        self.root.append(step.root)
        self.reach.append(max(step.root, self.reach[-1]) if self.reach
                          else step.root)
        self.worst.append(0.0)

    def judge(self, i: int, val: list, sc: list,
              fault: str | None) -> ZeroResult | None:
        """Member ``i``'s result if it is not zero at the point ``self.env``
        where the tape gave ``val`` and ``sc``, else None.  A ``val`` that
        stops short of the member's root stopped at ``fault``: the members
        before it hold no slot from there on, so the failing slot is its
        own, and the first that fails in its own post-order."""
        root = self.root[i]
        if root >= len(val):
            self._walked()
            note = f"{fault} in {_note_text(self.order[len(val)])}"
            return ZeroResult("inconclusive", self.worst[i], self.trials,
                              witness=self.env or None, note=note)
        resid = abs(val[root]) / (1.0 + sc[root])
        self.worst[i] = max(self.worst[i], resid)
        if resid >= self.tol:
            return ZeroResult("nonzero", self.worst[i], self.trials,
                              witness=self.env or {})
        return None


def are_zero(exprs, seed: int = 0, trials: int = 32,
             tol: float = 1e-9) -> list[ZeroResult]:
    """:func:`is_zero` of each of ``exprs`` in turn, through the first that
    is not zero, each result bit for bit what ``is_zero`` gives.

    Expressions with the same free symbols draw the same sample points, so
    they are evaluated together: one tape over the union of their distinct
    nodes, each evaluated once per point.  ``exprs`` is taken lazily at the
    first point, up to the first expression that is not zero there; every
    later point runs each tape only as far as the last root still needed.
    Each tape is kept for a later call whose group starts with the same
    expression, and dropped with that expression; it holds none alive.
    """
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
            g = groups[syms] = _Group(syms, seed, trials, tol)
        member.append((g, len(g.index)))
        g.add(e, len(out))
        fault = _run(g.step.tape, g.env, g.val, g.sc, g.step.end)
        out.append(g.judge(len(g.index) - 1, g.val, g.sc, fault))
        if out[-1] is not None:
            break
    # the expressions before ``cut`` are zero so far, the one at it is not
    cut = len(out) - 1 if out and out[-1] is not None else len(out)
    for j in range(1, trials):
        for g in groups.values():
            n = bisect_left(g.index, cut)       # members still needed
            if j >= g.trials or not n:
                continue
            g.env = sample_env(g.syms, g.rng)
            val: list = []
            sc: list = []
            fault = _run(g.step.tape, g.env, val, sc, g.reach[n - 1] + 1)
            for i in range(n):
                got = g.judge(i, val, sc, fault)
                if got is not None:
                    out[g.index[i]] = got
                    cut = g.index[i]
                    break
    return [r if r is not None else
            ZeroResult("zero", g.worst[i], g.trials)
            for r, (g, i) in zip(out[:cut + 1], member)]
