"""Dense 6x6 metrics and exact inversion.

Metrics are symmetric grids of canonical expressions over the six
coordinates.  Inversion is exact adjugate-over-determinant with memoized
minor expansion (block sparsity keeps this cheap for the engine's metric
families, whose determinants collapse to +-1 or a single phase factor).
Minors and the determinant are built as trees and simplified.  Each entry
of the inverse and of :func:`matmul` is one :func:`~kk6.expr.contract`
call, expanded once in the polynomial kernel, with one kernel context per
call of :func:`invert_metric` or :func:`matmul`.  An adjugate entry can be
the determinant's own sum, which ``mul`` cancels against its inverse: such
a product takes the tree route inside ``contract``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .expr import (
    Expr, MINUS_ONE, ZERO, add, context, contract, free_symbols, mul, power,
    simplify, to_text,
)
from .zeros import is_zero, sample_env

__all__ = [
    "DIM", "Metric6", "SingularMetricError", "InverseCheck",
    "determinant", "adjugate", "invert_metric", "verify_claimed_inverse",
    "matmul", "identity_residual",
]

DIM = 6

Grid = tuple[tuple[Expr, ...], ...]


class SingularMetricError(Exception):
    """Raised when a metric determinant vanishes; carries the determinant
    expression and a sample point witnessing the collapse."""

    def __init__(self, det: Expr, witness: dict[str, complex]):
        self.det = det
        self.witness = witness
        super().__init__(f"metric determinant vanishes: det = {to_text(det)}")


def _as_grid(rows) -> Grid:
    grid = tuple(tuple(r) for r in rows)
    if len(grid) != DIM or any(len(r) != DIM for r in grid):
        raise ValueError("metric must be 6x6")
    for r in grid:
        for e in r:
            if not isinstance(e, Expr):
                raise TypeError(f"metric entry is not an expression: {e!r}")
    return grid


class Metric6:
    """Symmetric 6x6 metric with cached derived data (inverse, connection)."""

    def __init__(self, rows, name: str = "metric"):
        grid = _as_grid(rows)
        for a in range(DIM):
            for b in range(a):
                if grid[a][b] != grid[b][a]:
                    raise ValueError(
                        f"metric not symmetric at ({a},{b}): "
                        f"{to_text(grid[a][b])} vs {to_text(grid[b][a])}")
        self.lower = grid
        self.name = name
        self._cache: dict[str, object] = {}

    def det(self) -> Expr:
        got = self._cache.get("det")
        if got is None:
            got = determinant(self.lower)
            self._cache["det"] = got
        return got

    def upper(self) -> Grid:
        got = self._cache.get("upper")
        if got is None:
            got = invert_metric(self)
            self._cache["upper"] = got
        return got

    def __repr__(self) -> str:
        return f"Metric6({self.name})"


# ---------------------------------------------------------------------------
# exact inversion

def _minor(grid: Grid, rows: tuple[int, ...], cols: tuple[int, ...],
           memo: dict) -> Expr:
    if len(rows) == 1:
        return grid[rows[0]][cols[0]]
    key = (rows, cols)
    got = memo.get(key)
    if got is not None:
        return got
    r0, rest = rows[0], rows[1:]
    parts = []
    for j, c in enumerate(cols):
        e = grid[r0][c]
        if e == ZERO:
            continue
        sub = _minor(grid, rest, cols[:j] + cols[j + 1:], memo)
        if sub == ZERO:
            continue
        term = mul(e, sub)
        if j % 2:
            term = mul(MINUS_ONE, term)
        parts.append(term)
    out = add(*parts)
    memo[key] = out
    return out


def determinant(grid: Grid) -> Expr:
    idx = tuple(range(DIM))
    return simplify(_minor(grid, idx, idx, {}))


def adjugate(grid: Grid) -> Grid:
    idx = tuple(range(DIM))
    memo: dict = {}
    out = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            rows = tuple(r for r in idx if r != j)
            cols = tuple(c for c in idx if c != i)
            m = _minor(grid, rows, cols, memo)
            if (i + j) % 2:
                m = mul(MINUS_ONE, m)
            row.append(simplify(m))
        out.append(tuple(row))
    return tuple(out)


def invert_metric(metric: Metric6) -> Grid:
    """Exact inverse by adjugate over determinant.

    Raises :class:`SingularMetricError` when the determinant is zero
    (structurally or under random evaluation)."""
    det = metric.det()
    if det == ZERO or is_zero(det, seed=0, trials=16).verdict == "zero":
        syms = sorted(free_symbols(det), key=lambda s: s.name)
        witness = sample_env(syms, random.Random(0))
        raise SingularMetricError(det, witness)
    inv_det = power(det, -1)
    adj = adjugate(metric.lower)
    ctx = context()
    return tuple(tuple(contract([(adj[a][b], inv_det)], ctx)
                       for b in range(DIM))
                 for a in range(DIM))


def matmul(a: Grid, b: Grid) -> Grid:
    ctx = context()
    return tuple(tuple(contract([(a[i][k], b[k][j]) for k in range(DIM)], ctx)
                       for j in range(DIM))
                 for i in range(DIM))


def identity_residual(metric: Metric6, claimed_upper: Grid) -> Grid:
    """claimed^{AC} g_{CB} - delta^A_B, entrywise simplified."""
    prod = matmul(claimed_upper, metric.lower)
    return tuple(tuple(simplify(add(prod[a][b], MINUS_ONE if a == b else ZERO))
                       for b in range(DIM))
                 for a in range(DIM))


@dataclass(frozen=True)
class InverseCheck:
    exact: bool
    max_residual: float
    failures: tuple[tuple[int, int, float], ...]
    structural_zeros: int        # entries that simplified to literal 0
    seed: int
    trials: int
    tol: float


def verify_claimed_inverse(metric: Metric6, claimed_upper, seed: int = 0,
                           trials: int = 32, tol: float = 1e-9) -> InverseCheck:
    """Measure whether a claimed inverse actually inverts the metric.

    Every entry of ``claimed * g - I`` gets a zero verdict; the check is
    exact when all 36 verdicts are zero, otherwise the failing entries and
    their residuals are reported (never silently patched)."""
    claimed = _as_grid(claimed_upper)
    residual = identity_residual(metric, claimed)
    max_resid = 0.0
    failures: list[tuple[int, int, float]] = []
    for a in range(DIM):
        for b in range(DIM):
            r = is_zero(residual[a][b], seed=seed, trials=trials, tol=tol)
            max_resid = max(max_resid, r.max_residual)
            if r.verdict != "zero":
                failures.append((a, b, r.max_residual))
    structural = sum(1 for row in residual for e in row if e == ZERO)
    return InverseCheck(exact=not failures, max_residual=max_resid,
                        failures=tuple(failures), structural_zeros=structural,
                        seed=seed, trials=trials, tol=tol)

