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
independent); :func:`evaluate` returns its value alone.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Mapping

from .expr import (
    Add, Conj, EvalError, Exp, Expr, Mul, Num, Pow, Sqrt, Sym,
    free_symbols, to_text,
)
from .symbols import Symbol

__all__ = ["ZeroResult", "ZERO_VERDICT", "NONZERO_VERDICT", "INCONCLUSIVE_VERDICT",
           "sample_env", "scaled_eval", "evaluate", "is_zero"]

ZERO_VERDICT = "zero"
NONZERO_VERDICT = "nonzero"
INCONCLUSIVE_VERDICT = "inconclusive"


@dataclass(frozen=True)
class ZeroResult:
    verdict: str
    max_residual: float
    samples: int
    seed: int
    tol: float
    witness: dict[str, complex] | None = None
    note: str | None = None

    def __bool__(self) -> bool:
        return self.verdict == ZERO_VERDICT


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
    memo: dict[Expr, tuple[complex, float]] = {}

    def ev(node: Expr) -> tuple[complex, float]:
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Num):
            v = complex(node.re, node.im)
            r = (v, abs(v))
        elif isinstance(node, Sym):
            try:
                v = values[node.symbol.name]
            except KeyError:
                raise EvalError(f"unbound symbol '{node.symbol.name}'", node) from None
            r = (v, abs(v))
        elif isinstance(node, Add):
            v = 0j
            s = 0.0
            for t in node.terms:
                tv, ts = ev(t)
                v += tv
                s += ts
            r = (v, s)
        elif isinstance(node, Mul):
            v = 1 + 0j
            s = 1.0
            for f in node.factors:
                fv, fs = ev(f)
                v *= fv
                s *= fs
            r = (v, s)
        elif isinstance(node, Pow):
            bv, _ = ev(node.base)
            try:
                v = bv ** node.n
            except ZeroDivisionError:
                raise EvalError("zero base at negative power", node) from None
            r = (v, abs(v))
        elif isinstance(node, Exp):
            try:
                v = cmath.exp(ev(node.arg)[0])
            except OverflowError:
                raise EvalError("exp overflow", node) from None
            r = (v, abs(v))
        elif isinstance(node, Sqrt):
            v = cmath.sqrt(ev(node.arg)[0])
            r = (v, abs(v))
        elif isinstance(node, Conj):
            v = ev(node.arg)[0].conjugate()
            r = (v, abs(v))
        else:  # pragma: no cover
            raise TypeError(f"scaled_eval of unsupported node {type(node).__name__}")
        if not cmath.isfinite(r[0]):
            raise EvalError("non-finite value", node)
        memo[node] = r
        return r

    return ev(e)


def evaluate(e: Expr, env: Mapping) -> complex:
    """Evaluate ``e`` numerically over complex doubles.

    ``env`` maps symbol names (or :class:`Symbol` objects) to values.
    Unbound symbols and non-finite intermediate results raise
    :class:`EvalError` carrying the offending subtree."""
    values = {k.name if isinstance(k, Symbol) else k: v
              for k, v in env.items()}
    return scaled_eval(e, values)[0]


def is_zero(e: Expr, seed: int = 0, trials: int = 32, tol: float = 1e-9,
            positive: frozenset[str] = frozenset()) -> ZeroResult:
    """Zero/nonzero/inconclusive verdict for ``e`` by random evaluation.

    Deterministic per seed.  The first point violating the threshold is
    returned as a nonzero witness; evaluation failures (unbound symbols,
    overflow) yield an inconclusive verdict naming the offending subtree.
    """
    syms = sorted(free_symbols(e), key=lambda s: s.name)
    rng = random.Random(seed)
    n_trials = trials if syms else 1
    max_resid = 0.0
    for _ in range(n_trials):
        env = sample_env(syms, rng, positive)
        try:
            value, scale = scaled_eval(e, env)
        except EvalError as err:
            sub = to_text(err.subtree) if err.subtree is not None else "?"
            return ZeroResult(INCONCLUSIVE_VERDICT, max_resid, n_trials, seed, tol,
                              witness=env or None, note=f"{err} in {sub}")
        resid = abs(value) / (1.0 + scale)
        max_resid = max(max_resid, resid)
        if resid >= tol:
            return ZeroResult(NONZERO_VERDICT, max_resid, n_trials, seed, tol,
                              witness=env or {})
    return ZeroResult(ZERO_VERDICT, max_resid, n_trials, seed, tol)
