"""Dense 6x6 metrics and exact inversion.

Metrics are symmetric grids of canonical expressions over the six
coordinates.  Inversion is exact adjugate-over-determinant.  Every entry
this module computes is one :func:`~kk6.expr.contract` call, expanded
once in the polynomial kernel: it builds no sum tree and calls no
``simplify``.  Where a literal-number diagonal entry has a nonzero row
(g44 = 1, which the vector and half-spin modes couple to),
:func:`adjugate` eliminates on it, by Schur complement, down to a
sub-grid with no such pivot.  That sub-grid's adjugate is one
contraction per signed minor, over the products of the minor's Laplace
expansion along its first row, zero entries skipped.  On the engine's
families the sub-grid is diagonal (the complement of g44, or the whole
scalar-mode metric), so each minor is one product.  A pivot that is a
literal number adds no symbolic denominator, so each entry is the node
that simplifying its minor gives, which a property test checks on random
grids.  The adjugate and the inverse of a symmetric grid are symmetric,
so both are computed for i <= j and mirrored; ``_mirror`` fills every
symmetric 6x6 grid of the curvature stages too: 21 inverse entries, not
36.  Derived data is cached per grid, not per metric: every ``Metric6``
built on equal rows (equal node for node, as nodes are hash-consed)
shares one stage dict, held for the 16 grids used most recently, so a
metric built again derives nothing again.  That dict keeps the adjugate
beside the determinant and the inverse, and the curvature stages beside
them.  The determinant is read off the adjugate: row 0 of the metric
against column 0 of the adjugate, the first-row Laplace expansion over
cofactors already contracted.  The adjugate, the determinant, and each
entry of the inverse and of a claimed inverse's residual
``claimed * g - I`` (its row-column products, with -1 on the diagonal)
take one kernel context per call of :func:`adjugate`, ``Metric6.det``,
:func:`invert_metric` or :func:`identity_residual`.  An adjugate entry
can be the determinant's own sum, which ``mul`` cancels against its
inverse: such a product takes the tree route inside ``contract``.  This
layer is exact algebra; its one numeric check is the zero test of the
determinant, after the adjugate and before scaling by its inverse.
Residuals are graded in :mod:`kk6.verify` (``grade_entries``).
"""
from __future__ import annotations

import functools
import random

from .expr import (
    Expr, MINUS_ONE, Num, ONE, ZERO, context, contract, free_symbols, mul,
    power, to_text,
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


# Traffic: one ``kk6 verify`` pass builds 14 metrics on 12 distinct grids,
# and one ``kk6 curvature`` pass over the eight ansatze 9 metrics on 8, so
# 16 grids hold either pass.  A metric that takes Ricci's phase route keeps
# no Christoffel symbols in its stage dict: on that pass 5 of the 8 grids.
@functools.lru_cache(maxsize=16)
def _stages_of(grid: Grid) -> dict[str, object]:
    """The stage dict of ``grid``, shared by every Metric6 built on it, so
    a metric built again from the same 36 nodes derives nothing again.
    Nodes are hash-consed, so hashing a grid costs 36 identity hashes and
    equal grids are equal node for node."""
    return {}


def _memo(fn):
    """Keep ``fn(metric)`` in ``metric._cache``, its grid's stage dict,
    under ``fn``'s name.  Only a returned value is kept: a call that
    raises (``upper`` of a singular metric) raises again on the next."""
    key = fn.__name__

    @functools.wraps(fn)
    def cached(metric):
        got = metric._cache.get(key)
        if got is None:
            got = metric._cache[key] = fn(metric)
        return got
    return cached


class Metric6:
    """Symmetric 6x6 metric.  Its derived data (adjugate, determinant,
    inverse and the curvature stages) is cached in ``_cache``, the stage
    dict of its grid, which every metric built on an equal grid shares
    while the grid is among the 16 used most recently."""

    def __init__(self, rows):
        grid = _as_grid(rows)
        for a in range(DIM):
            for b in range(a):
                if grid[a][b] != grid[b][a]:
                    raise ValueError(
                        f"metric not symmetric at ({a},{b}): "
                        f"{to_text(grid[a][b])} vs {to_text(grid[b][a])}")
        self.lower = grid
        self._cache = _stages_of(grid)

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


# ---------------------------------------------------------------------------
# exact inversion

def _minor(grid: Grid, rows: tuple[int, ...],
           cols: tuple[int, ...]) -> list[tuple[Expr, ...]]:
    """The minor of ``grid`` on ``rows`` and ``cols`` as its signed
    products, factor tuples for :func:`~kk6.expr.contract`: the Laplace
    expansion along the first row, zero entries skipped, a -1 leading each
    odd column's products.  The empty minor is ``[()]``, which contracts
    to 1."""
    if not rows:
        return [()]
    r0, rest = rows[0], rows[1:]
    out = []
    for j, c in enumerate(cols):
        e = grid[r0][c]
        if e != ZERO:
            sign = (MINUS_ONE,) if j % 2 else ()
            out.extend((*sign, e, *p)
                       for p in _minor(grid, rest, cols[:j] + cols[j + 1:]))
    return out


def _mirror(entry, *head, n: int = DIM) -> Grid:
    """The symmetric n x n grid of ``entry(*head, a, b)``, computed for
    a <= b."""
    grid = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            grid[a][b] = grid[b][a] = entry(*head, a, b)
    return tuple(tuple(r) for r in grid)


def adjugate(grid: Grid) -> Grid:
    """The adjugate of ``grid``, which must be symmetric, as
    ``Metric6.lower`` is, in one kernel context.  Each entry is one
    ``contract`` call, and the node that simplifying its signed minor
    gives (:func:`_adjugate_of`)."""
    return _adjugate_of(grid, context())


def _adjugate_of(grid, ctx) -> Grid:
    """The adjugate of the symmetric n x n ``grid``, n >= 1, each entry one
    ``contract`` call in ``ctx``.

    On a nonzero literal-number diagonal entry p whose row holds another
    nonzero entry, with k the rest of that row and B the rest of the
    grid, the adjugate comes from that of the Schur complement
    S = B - k k^T / p (fraction-free elimination; E. H. Bareiss, Math.
    Comp. 22, 1968): adj_BB = p adj S, adj_Bp = -adj S k and
    adj_pp = det S + k^T adj S k / p, with det S from row 0 of S against
    column 0 of adj S.  A literal p adds no symbolic denominator, so each
    entry is a polynomial in the atoms of ``grid`` and simplifies to the
    node of its minor.  A grid with no such pivot, a diagonal one among
    them, takes one contraction of its signed minor's products
    (:func:`_minor`) per entry for i <= j, mirrored, as the adjugate of a
    symmetric grid is symmetric; a 1 x 1 grid's one minor is empty, and
    its adjugate 1."""
    n = len(grid)
    k = next((i for i in range(n) if isinstance(grid[i][i], Num)
              and grid[i][i] != ZERO
              and any(grid[i][j] != ZERO for j in range(n) if j != i)),
             None)
    if k is None:
        idx = tuple(range(n))

        def minor(i, j):
            m = _minor(grid, tuple(r for r in idx if r != j),
                       tuple(c for c in idx if c != i))
            return contract([(MINUS_ONE, *q) for q in m] if (i + j) % 2
                            else m, ctx)
        return _mirror(minor, n=n)
    p = grid[k][k]
    rest = [i for i in range(n) if i != k]
    kv = [grid[k][i] for i in rest]
    minus_inv_p = power(mul(MINUS_ONE, p), -1)
    schur = _mirror(lambda a, b: contract(
        [(grid[rest[a]][rest[b]],), (minus_inv_p, kv[a], kv[b])], ctx),
        n=n - 1)
    adj = _adjugate_of(schur, ctx)
    det = contract([(schur[0][c], adj[c][0]) for c in range(n - 1)], ctx)
    out = [[None] * n for _ in range(n)]
    for a, r in enumerate(rest):
        for b in range(a, n - 1):
            out[r][rest[b]] = out[rest[b]][r] = (
                adj[a][b] if p is ONE else contract([(p, adj[a][b])], ctx))
        out[r][k] = out[k][r] = contract(
            [(MINUS_ONE, adj[a][c], kv[c]) for c in range(n - 1)], ctx)
    # k^T adj S k / p = -(k . adj_Bp) / p
    out[k][k] = contract([(det,), *((minus_inv_p, kv[a], out[rest[a]][k])
                                     for a in range(n - 1))], ctx)
    return tuple(tuple(r) for r in out)


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

