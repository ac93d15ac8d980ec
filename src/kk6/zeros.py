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
[0.1, 2]; symbols declared real get a random sign, the rest a random
phase.  Principal-branch ``sqrt`` is sampled consistently: identical
radicands share one evaluation, so identities whose proofs only need
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

:func:`scaled_eval` is the engine's one expression evaluator (the
finite-difference oracle compiles expressions on its own, so that it stays
independent); :func:`evaluate` returns its value alone, and :func:`is_zero`
calls it once per sample.  It runs a post-order tape: one entry per
distinct node (op code, child slots, constant), each after its children,
built once per expression and reused for every sample, children in
the order ``expr._kids`` lists them.  The tape is cached weakly on the
expression and holds no node, so it keeps nothing alive.
Each node's value is the CPython complex arithmetic of a recursive walk in
the same order, so results are bit for bit what such a walk gives.  The
first node in post-order that fails names the error (:class:`EvalError`
with that subtree): an unbound symbol, a zero base at a negative power, a
non-finite value, or an overflow (``exp``, ``**``, a constant or a
magnitude beyond the float range), which :func:`is_zero` reports as an
inconclusive verdict with a note naming the subtree (its text cut after
512 characters, with the full length appended).  The error model above is
unchanged.
"""
from __future__ import annotations

import cmath
import math
import random
import weakref
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Mapping

from .expr import (
    Add, Conj, EvalError, Exp, Expr, Mul, Num, Pow, Sqrt, Sym,
    _kids, free_symbols, to_text,
)
from .symbols import Symbol

__all__ = ["ZeroResult", "sample_env", "scaled_eval", "evaluate", "is_zero"]


@dataclass(frozen=True)
class ZeroResult:
    verdict: str
    max_residual: float
    samples: int
    seed: int
    tol: float
    witness: dict[str, complex] | None = None
    note: str | None = None


def sample_env(symbols, rng: random.Random,
               positive: frozenset[str] = frozenset()) -> dict[str, complex]:
    """One random point.  ``positive`` names real symbols to sample without
    the random sign (domain constraints such as a positive rest mass)."""
    env: dict[str, complex] = {}
    for s in sorted(symbols, key=lambda s: s.name):
        mag = rng.uniform(0.1, 2.0)
        if s.real:
            if s.name in positive:
                env[s.name] = complex(mag, 0.0)
            else:
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
    try:
        return _run(_tape(e), values)
    except _Fault as f:
        raise EvalError(f.args[1], _postorder(e)[f.args[0]]) from None


# Tape op codes.  An entry is ``(op, arg, const)``: ``arg`` is the child's
# slot (a tuple of slots for sums and products), ``const`` the symbol name,
# the exponent, the ``(value, scale)`` of a number, or a failure message.
_NUM, _SYM, _ADD, _MUL, _POW, _EXP, _SQRT, _CONJ, _FAIL = range(9)
_UNARY = {Exp: _EXP, Sqrt: _SQRT, Conj: _CONJ}
_OVERFLOW = {_POW: "power overflow", _EXP: "exp overflow"}

# expression -> its tape; keyed weakly, and a tape holds no node, so the
# cache keeps nothing alive
_TAPES: "weakref.WeakKeyDictionary[Expr, tuple]" = weakref.WeakKeyDictionary()


class _Fault(Exception):
    """Evaluation failed at a tape slot: ``args == (slot, message)``."""


def _postorder(e: Expr) -> list:
    """The distinct nodes of ``e``, each after its children, in the order a
    depth-first walk over the children in turn finishes them."""
    order, seen = [], {e}
    stack = [(e, iter(_kids(e)))]
    while stack:
        node, kids = stack[-1]
        for k in kids:
            if k not in seen:
                seen.add(k)
                stack.append((k, iter(_kids(k))))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def _tape(e: Expr) -> tuple:
    """``e`` as straight-line code: one entry per node of its post-order,
    built once per expression and reused for every sample."""
    tape = _TAPES.get(e)
    if tape is None:
        order = _postorder(e)
        slot = {n: i for i, n in enumerate(order)}
        tape = tuple(_entry(n, slot) for n in order)
        _TAPES[e] = tape
    return tape


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


def _run(tape: tuple, values: dict) -> tuple[complex, float]:
    # Ops are tested in order of frequency.  CPython complex arithmetic in
    # the order of a recursive walk: sums from 0j, products from 1+0j, ``**``
    # for powers, ``cmath`` for exp and sqrt, ``abs`` for the scale, so
    # every sample is bit for bit what the walk gave.
    val: list = []
    sc: list = []
    put_v, put_s = val.append, sc.append
    isfinite, cexp, csqrt = cmath.isfinite, cmath.exp, cmath.sqrt
    try:
        for op, a, c in tape:
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
                raise _Fault(len(val), c)
            if not isfinite(v):
                raise _Fault(len(val), "non-finite value")
            put_v(v)
            put_s(s)
    except KeyError:
        name = tape[len(val)][2]
        raise _Fault(len(val), f"unbound symbol '{name}'") from None
    except ZeroDivisionError:
        raise _Fault(len(val), "zero base at negative power") from None
    except OverflowError:
        # ``**`` and ``cmath.exp`` past the float range, or ``abs`` of a
        # finite value whose magnitude is not a float
        raise _Fault(len(val), _OVERFLOW.get(tape[len(val)][0],
                                             "magnitude overflow")) from None
    return val[-1], sc[-1]


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


def is_zero(e: Expr, seed: int = 0, trials: int = 32, tol: float = 1e-9,
            positive: frozenset[str] = frozenset()) -> ZeroResult:
    """Zero/nonzero/inconclusive verdict for ``e`` by random evaluation.

    Deterministic per seed.  The first point violating the threshold is
    returned as a nonzero witness; evaluation failures (unbound symbols,
    overflow) yield an inconclusive verdict naming the offending subtree.
    Raises ``ValueError`` for ``trials`` not an integer of at least 1, or
    ``tol`` not a real number in (0, 1), any of which would let a
    sample-free or NaN test read ``zero`` or fail with a bare ``TypeError``.
    """
    if not isinstance(trials, Integral) or trials < 1:
        raise ValueError(f"trials must be an integer of at least 1, "
                         f"got {trials!r}")
    _check_tol(tol)
    syms = sorted(free_symbols(e), key=lambda s: s.name)
    rng = random.Random(seed)
    n_trials = trials if syms else 1
    max_resid = 0.0
    for _ in range(n_trials):
        env = sample_env(syms, rng, positive)
        try:
            value, scale = scaled_eval(e, env)
        except EvalError as err:
            sub = _note_text(err.subtree) if err.subtree is not None else "?"
            return ZeroResult("inconclusive", max_resid, n_trials, seed, tol,
                              witness=env or None, note=f"{err} in {sub}")
        resid = abs(value) / (1.0 + scale)
        max_resid = max(max_resid, resid)
        if resid >= tol:
            return ZeroResult("nonzero", max_resid, n_trials, seed, tol,
                              witness=env or {})
    return ZeroResult("zero", max_resid, n_trials, seed, tol)
