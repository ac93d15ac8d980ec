"""Connection and curvature of 6x6 metrics.

Christoffel symbols come from the metric through the first-kind
connection: each Gamma_DAB = (d_A g_DB + d_B g_DA - d_D g_AB) / 2 is
formed once and raised by the inverse, Gamma^C_AB = g^CD Gamma_DAB, six
products an entry instead of eighteen (Misner, Thorne and Wheeler,
*Gravitation*, ch. 8).  The Ricci tensor is assembled directly from the
connection,

    R_AB = d_C Gamma^C_AB - d_B Gamma^C_AC
         + Gamma^C_AB Gamma^D_CD - Gamma^C_AD Gamma^D_BC,

never via an intermediate Riemann tensor.  On the diagonal the quadratic
products (C, D) and (D, C) of the last term have the same two factors, so
R_AA writes each pair once with coefficient -2: 21 quadratic products,
not 36.  Every symmetric grid (the metric derivatives, each plane of
either kind of Christoffel symbol, Ricci, Einstein) is filled in for
A <= B and mirrored by ``tensor._mirror``, which also fills the
adjugate and the inverse; Ricci's symmetry is a theorem here, checked
by tests through :func:`ricci_entry_raw`, and Einstein's follows from
Ricci's and the metric's.

Every derivative (d_C g_AB, d_C Gamma^C_AB and d_B Gamma^C_AC) is one
:func:`~kk6.expr.derive` call: the product rule over the entry's terms,
handed to ``contract``.  Every other entry is one
:func:`~kk6.expr.contract` call: its products are expanded once in the
polynomial kernel and the canonical tree is built once, with no tree per
product and none for the sum, and the result is the tree that
simplifying that sum would give.  Each stage call (:func:`christoffel`;
:func:`ricci` with the trace of the connection; :func:`ricci_scalar`;
:func:`einstein`) runs in one kernel context, so each first-kind symbol
is read once for all six raised ones, each connection entry once for all
21 Ricci entries, and each of its factors differentiated once per
coordinate; Ricci takes each d_C Gamma^C_AB in the entry that reads it.
Each stage's result, and the trace, is kept by one memo in the stage
dict of the metric's grid, which every metric built on an equal grid
shares (a bounded cache of the 16 grids used most recently, in
:mod:`kk6.tensor`); the context lives for the call, and the cache keeps
only trees.
A product whose factors share a sum or root base (which ``mul`` would
merge), a derivative's products among them, takes the tree route inside
``contract``.
"""
from __future__ import annotations

from .expr import Expr, HALF, MINUS_ONE, context, contract, derive, mul, num
from .symbols import COORDS
from .tensor import DIM, Metric6, _memo, _mirror

__all__ = [
    "christoffel", "ricci", "ricci_entry_raw", "ricci_scalar", "einstein",
]

_MINUS_HALF = mul(MINUS_ONE, HALF)
_MINUS_TWO = num(-2)


@_memo
def christoffel(metric: Metric6) -> tuple:
    """Gamma^C_AB as nested tuples indexed [C][A][B], symmetric in the
    lower pair."""
    g, gu = metric.lower, metric.upper()      # a singular metric stops here
    ctx = context()
    # d_C g_AB indexed [c][a][b], each read by three first-kind symbols
    dg = tuple(_mirror(lambda a, b: derive(g[a][b], x, ctx)) for x in COORDS)

    def first(d, a, b):
        # Gamma_DAB = (d_A g_DB + d_B g_DA - d_D g_AB) / 2
        return contract([(HALF, dg[a][d][b]), (HALF, dg[b][d][a]),
                         (_MINUS_HALF, dg[d][a][b])], ctx)
    low = tuple(_mirror(first, d) for d in range(DIM))

    def entry(c, a, b):
        return contract([(gu[c][d], low[d][a][b]) for d in range(DIM)], ctx)
    return tuple(_mirror(entry, c) for c in range(DIM))


@_memo
def _trace(metric: Metric6) -> tuple:
    # t_A = Gamma^C_AC, read by seven terms of each Ricci entry
    gamma = christoffel(metric)
    ctx = context()
    return tuple(contract([(gamma[c][a][c],) for c in range(DIM)], ctx)
                 for a in range(DIM))


def _ricci_formula(metric: Metric6, ctx, a: int, b: int) -> Expr:
    gamma = christoffel(metric)
    trace = _trace(metric)
    parts = [(derive(gamma[c][a][b], x, ctx),) for c, x in enumerate(COORDS)]
    parts.append((MINUS_ONE, derive(trace[a], COORDS[b], ctx)))
    parts += ((gamma[c][a][b], trace[c]) for c in range(DIM))
    if a != b:
        parts += ((MINUS_ONE, gamma[c][a][d], gamma[d][b][c])
                  for c in range(DIM) for d in range(DIM))
    else:
        # (c, d) and (d, c) are one product of the same two factors
        parts += ((MINUS_ONE if c == d else _MINUS_TWO,
                   gamma[c][a][d], gamma[d][a][c])
                  for c in range(DIM) for d in range(c, DIM))
    return contract(parts, ctx)


def ricci_entry_raw(metric: Metric6, a: int, b: int) -> Expr:
    """The Ricci formula evaluated at (a, b) itself, not read off the
    a <= b mirror.  On the diagonal the quadratic products (c, d) and
    (d, c) are still written as one: they are a product of the same two
    factors, which is no use of the symmetry of R."""
    return _ricci_formula(metric, context(), a, b)


@_memo
def ricci(metric: Metric6) -> tuple:
    """R_AB as nested tuples indexed [A][B]."""
    return _mirror(_ricci_formula, metric, context())


@_memo
def ricci_scalar(metric: Metric6) -> Expr:
    r = ricci(metric)
    gu = metric.upper()
    return contract([(gu[a][b], r[a][b]) for a in range(DIM)
                     for b in range(DIM)], context())


@_memo
def einstein(metric: Metric6) -> tuple:
    """G_AB = R_AB - R g_AB / 2 as nested tuples indexed [A][B]."""
    r = ricci(metric)
    rs = ricci_scalar(metric)
    g = metric.lower
    ctx = context()

    def entry(a, b):
        return contract([(r[a][b],), (_MINUS_HALF, rs, g[a][b])], ctx)
    return _mirror(entry)
