"""Connection and curvature of 6x6 metrics.

Christoffel symbols come from the metric; the Ricci tensor is assembled
directly from the connection,

    R_AB = d_C Gamma^C_AB - d_B Gamma^C_AC
         + Gamma^C_AB Gamma^D_CD - Gamma^C_AD Gamma^D_BC,

never via an intermediate Riemann tensor.  Ricci is filled in for A <= B
and mirrored (its symmetry is a theorem here, checked by tests through
:func:`ricci_entry_raw`).

Every entry is one :func:`~kk6.expr.contract` call: its products are
expanded once in the polynomial kernel and the canonical tree is built
once, with no tree per product and none for the sum, and the result is
the tree that simplifying that sum would give.  Each stage call
(:func:`christoffel`; :func:`ricci` with the divergence and trace of the
connection; :func:`ricci_scalar`; :func:`einstein`) runs in one kernel
context, so each connection entry is read once for all 21 Ricci entries.
The context lives for the call; the metric's cache keeps only trees.
A product whose factors share a sum or root base (which ``mul`` would
merge) takes the tree route inside ``contract``.
"""
from __future__ import annotations

from .expr import Expr, HALF, MINUS_ONE, ZERO, context, contract, diff, mul
from .symbols import COORDS
from .tensor import DIM, Metric6

__all__ = [
    "christoffel", "ricci", "ricci_entry_raw", "ricci_scalar", "einstein",
]

_MINUS_HALF = mul(MINUS_ONE, HALF)


def _metric_derivatives(metric: Metric6, ctx) -> tuple:
    got = metric._cache.get("dg")
    if got is None:
        g = metric.lower
        dg = [[[None] * DIM for _ in range(DIM)] for _ in range(DIM)]
        for c in range(DIM):
            for a in range(DIM):
                for b in range(a, DIM):
                    d = contract([(diff(g[a][b], COORDS[c]),)], ctx)
                    dg[c][a][b] = d
                    dg[c][b][a] = d
        got = tuple(tuple(tuple(r) for r in plane) for plane in dg)
        metric._cache["dg"] = got
    return got


def christoffel(metric: Metric6) -> tuple:
    """Gamma^C_AB as nested tuples indexed [C][A][B], symmetric in the
    lower pair."""
    got = metric._cache.get("christoffel")
    if got is not None:
        return got
    ctx = context()
    dg = _metric_derivatives(metric, ctx)
    gu = metric.upper()
    comps = [[[ZERO] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for c in range(DIM):
        for a in range(DIM):
            for b in range(a, DIM):
                parts = []
                for d in range(DIM):
                    parts += ((HALF, gu[c][d], dg[a][d][b]),
                              (HALF, gu[c][d], dg[b][d][a]),
                              (_MINUS_HALF, gu[c][d], dg[d][a][b]))
                entry = contract(parts, ctx)
                comps[c][a][b] = entry
                comps[c][b][a] = entry
    got = tuple(tuple(tuple(r) for r in plane) for plane in comps)
    metric._cache["christoffel"] = got
    return got


def _gamma_div(metric: Metric6, ctx) -> tuple:
    # d_C Gamma^C_AB, indexed [c][a][b]; only the diagonal derivative
    # enters the Ricci formula.
    got = metric._cache.get("gamma_div")
    if got is None:
        gamma = christoffel(metric)
        out = []
        for c in range(DIM):
            plane = [[None] * DIM for _ in range(DIM)]
            for a in range(DIM):
                for b in range(a, DIM):
                    d = contract([(diff(gamma[c][a][b], COORDS[c]),)], ctx)
                    plane[a][b] = d
                    plane[b][a] = d
            out.append(tuple(tuple(r) for r in plane))
        got = tuple(out)
        metric._cache["gamma_div"] = got
    return got


def _gamma_trace(metric: Metric6, ctx) -> tuple:
    # t_A = Gamma^C_AC
    got = metric._cache.get("gamma_trace")
    if got is None:
        gamma = christoffel(metric)
        got = tuple(contract([(gamma[c][a][c],) for c in range(DIM)], ctx)
                    for a in range(DIM))
        metric._cache["gamma_trace"] = got
    return got


def _ricci_formula(metric: Metric6, a: int, b: int, ctx) -> Expr:
    gamma = christoffel(metric)
    dgamma = _gamma_div(metric, ctx)
    trace = _gamma_trace(metric, ctx)
    parts = [(dgamma[c][a][b],) for c in range(DIM)]
    parts.append((MINUS_ONE, diff(trace[a], COORDS[b])))
    parts += ((gamma[c][a][b], trace[c]) for c in range(DIM))
    parts += ((MINUS_ONE, gamma[c][a][d], gamma[d][b][c])
              for c in range(DIM) for d in range(DIM))
    return contract(parts, ctx)


def ricci_entry_raw(metric: Metric6, a: int, b: int) -> Expr:
    """The Ricci formula evaluated literally at (a, b), no symmetry shortcut."""
    return _ricci_formula(metric, a, b, context())


def ricci(metric: Metric6) -> tuple:
    """R_AB as nested tuples indexed [A][B]."""
    got = metric._cache.get("ricci")
    if got is not None:
        return got
    ctx = context()
    comps = [[ZERO] * DIM for _ in range(DIM)]
    for a in range(DIM):
        for b in range(a, DIM):
            e = _ricci_formula(metric, a, b, ctx)
            comps[a][b] = e
            comps[b][a] = e
    got = tuple(tuple(r) for r in comps)
    metric._cache["ricci"] = got
    return got


def ricci_scalar(metric: Metric6) -> Expr:
    got = metric._cache.get("ricci_scalar")
    if got is None:
        r = ricci(metric)
        gu = metric.upper()
        got = contract([(gu[a][b], r[a][b]) for a in range(DIM)
                        for b in range(DIM)], context())
        metric._cache["ricci_scalar"] = got
    return got


def einstein(metric: Metric6) -> tuple:
    """G_AB = R_AB - R g_AB / 2 as nested tuples indexed [A][B]."""
    got = metric._cache.get("einstein")
    if got is None:
        r = ricci(metric)
        rs = ricci_scalar(metric)
        g = metric.lower
        ctx = context()
        got = tuple(tuple(contract([(r[a][b],),
                                    (_MINUS_HALF, rs, g[a][b])], ctx)
                          for b in range(DIM))
                    for a in range(DIM))
        metric._cache["einstein"] = got
    return got
