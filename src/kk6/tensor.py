"""Dense 6x6 metrics and exact inversion.

Metrics are symmetric grids of canonical expressions over the six
coordinates.  Inversion is exact adjugate-over-determinant with memoized
minor expansion (block sparsity keeps this cheap for the engine's metric
families, whose determinants are short: 1 or the scalar mode's compact
phase factor, times g_00 = 1 + 2 eps x1 over the weak-field block).
Minors are built as trees and simplified.  The adjugate and the inverse
of a symmetric grid are symmetric, so both are computed for i <= j and
mirrored by ``_mirror``, which fills every symmetric grid of the
curvature stages too: 21 minors and 21 inverse entries, not 36; a test
checks each mirrored adjugate entry against the transposed minor.  The
metric's cache keeps the adjugate beside the determinant and the
inverse, and the determinant is read off it: row 0 of the metric against
column 0 of the adjugate, the first-row Laplace expansion over cofactors
already simplified.  The determinant, and each entry of the inverse and
of a claimed inverse's residual ``claimed * g - I`` (its row-column
products, with -1 on the diagonal), is one :func:`~kk6.expr.contract`
call, expanded once in the polynomial kernel, with one kernel context
per call of ``Metric6.det``, :func:`invert_metric` or
:func:`identity_residual`.  An adjugate entry can be the determinant's
own sum, which ``mul`` cancels against its inverse: such a product takes
the tree route inside ``contract``.  This layer is exact algebra; its
one numeric check is the zero test of the determinant, after the
adjugate and before scaling by its inverse.  Residuals are graded in
:mod:`kk6.verify` (``grade_entries``).
"""
from __future__ import annotations

import functools
import random

from .expr import (
    Expr, MINUS_ONE, ZERO, add, context, contract, free_symbols, mul, power,
    simplify, to_text,
)
from .zeros import is_zero, sample_env

__all__ = [
    "DIM", "Metric6", "SingularMetricError", "adjugate",
    "invert_metric", "identity_residual",
]

DIM = 6
_IDX = tuple(range(DIM))

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


def _memo(fn):
    """Keep ``fn(metric)`` in ``metric._cache`` under ``fn``'s name."""
    key = fn.__name__

    @functools.wraps(fn)
    def cached(metric):
        got = metric._cache.get(key)
        if got is None:
            got = metric._cache[key] = fn(metric)
        return got
    return cached


class Metric6:
    """Symmetric 6x6 metric with cached derived data (adjugate,
    determinant, inverse, connection)."""

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

    @_memo
    def det(self) -> Expr:
        g, adj = self.lower, self._adjugate()
        return contract([(g[0][c], adj[c][0]) for c in _IDX], context())

    @_memo
    def _adjugate(self) -> Grid:
        return adjugate(self.lower)

    @_memo
    def upper(self) -> Grid:
        return invert_metric(self)

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


def _mirror(entry, *head) -> Grid:
    """The symmetric 6x6 grid of ``entry(*head, a, b)``, computed for
    a <= b."""
    grid = [[None] * DIM for _ in range(DIM)]
    for a in range(DIM):
        for b in range(a, DIM):
            grid[a][b] = grid[b][a] = entry(*head, a, b)
    return tuple(tuple(r) for r in grid)


def adjugate(grid: Grid) -> Grid:
    """The adjugate of ``grid``, which must be symmetric, as
    ``Metric6.lower`` is: the adjugate of a symmetric matrix is symmetric,
    so its signed minors are simplified for i <= j and mirrored."""
    memo: dict = {}

    def entry(i, j):
        rows = tuple(r for r in _IDX if r != j)
        cols = tuple(c for c in _IDX if c != i)
        m = _minor(grid, rows, cols, memo)
        if (i + j) % 2:
            m = mul(MINUS_ONE, m)
        return simplify(m)
    return _mirror(entry)


def invert_metric(metric: Metric6) -> Grid:
    """Exact inverse by adjugate over determinant.

    Raises :class:`SingularMetricError` when the determinant is zero
    (structurally or under random evaluation)."""
    adj = metric._adjugate()
    det = metric.det()
    if det == ZERO or is_zero(det, seed=0, trials=16).verdict == "zero":
        syms = sorted(free_symbols(det), key=lambda s: s.name)
        witness = sample_env(syms, random.Random(0))
        raise SingularMetricError(det, witness)
    inv_det = power(det, -1)
    ctx = context()
    return _mirror(lambda a, b: contract([(adj[a][b], inv_det)], ctx))


def identity_residual(metric: Metric6, claimed_upper: Grid) -> Grid:
    """claimed^{AC} g_{CB} - delta^A_B, one contraction per entry."""
    g = metric.lower
    ctx = context()

    def entry(a, b):
        parts = [(claimed_upper[a][c], g[c][b]) for c in range(DIM)]
        if a == b:
            parts.append((MINUS_ONE,))
        return contract(parts, ctx)
    return tuple(tuple(entry(a, b) for b in range(DIM)) for a in range(DIM))

