"""Connection and curvature of 6x6 metrics.

Christoffel symbols come from the metric; the Ricci tensor is assembled
directly from the connection,

    R_AB = d_C Gamma^C_AB - d_B Gamma^C_AC
         + Gamma^C_AB Gamma^D_CD - Gamma^C_AD Gamma^D_BC,

never via an intermediate Riemann tensor.  Ricci is filled in for A <= B
and mirrored (its symmetry is a theorem here, checked by tests through
:func:`ricci_entry_raw`).  Every contraction is simplified before use.
"""
from __future__ import annotations

from .expr import Expr, HALF, MINUS_ONE, ZERO, add, diff, mul, simplify
from .symbols import COORDS
from .tensor import DIM, Metric6

__all__ = [
    "christoffel", "ricci", "ricci_entry_raw", "ricci_scalar", "einstein",
]


def _metric_derivatives(metric: Metric6) -> tuple:
    got = metric._cache.get("dg")
    if got is None:
        g = metric.lower
        dg = [[[None] * DIM for _ in range(DIM)] for _ in range(DIM)]
        for c in range(DIM):
            for a in range(DIM):
                for b in range(a, DIM):
                    d = simplify(diff(g[a][b], COORDS[c]))
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
    dg = _metric_derivatives(metric)
    gu = metric.upper()
    comps = [[[ZERO] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for c in range(DIM):
        for a in range(DIM):
            for b in range(a, DIM):
                parts = []
                for d in range(DIM):
                    if gu[c][d] == ZERO:
                        continue
                    bracket = add(dg[a][d][b], dg[b][d][a],
                                  mul(MINUS_ONE, dg[d][a][b]))
                    if bracket == ZERO:
                        continue
                    parts.append(mul(gu[c][d], bracket))
                entry = simplify(mul(HALF, add(*parts))) if parts else ZERO
                comps[c][a][b] = entry
                comps[c][b][a] = entry
    got = tuple(tuple(tuple(r) for r in plane) for plane in comps)
    metric._cache["christoffel"] = got
    return got


def _gamma_div(metric: Metric6) -> tuple:
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
                    d = simplify(diff(gamma[c][a][b], COORDS[c]))
                    plane[a][b] = d
                    plane[b][a] = d
            out.append(tuple(tuple(r) for r in plane))
        got = tuple(out)
        metric._cache["gamma_div"] = got
    return got


def _gamma_trace(metric: Metric6) -> tuple:
    # t_A = Gamma^C_AC
    got = metric._cache.get("gamma_trace")
    if got is None:
        gamma = christoffel(metric)
        got = tuple(simplify(add(*(gamma[c][a][c] for c in range(DIM))))
                    for a in range(DIM))
        metric._cache["gamma_trace"] = got
    return got


def _ricci_formula(metric: Metric6, a: int, b: int) -> Expr:
    gamma = christoffel(metric)
    dgamma = _gamma_div(metric)
    trace = _gamma_trace(metric)
    parts = []
    for c in range(DIM):
        parts.append(dgamma[c][a][b])
    parts.append(simplify(mul(MINUS_ONE, diff(trace[a], COORDS[b]))))
    for c in range(DIM):
        e = gamma[c][a][b]
        if e == ZERO or trace[c] == ZERO:
            continue
        parts.append(mul(e, trace[c]))
    for c in range(DIM):
        for d in range(DIM):
            e1 = gamma[c][a][d]
            if e1 == ZERO:
                continue
            e2 = gamma[d][b][c]
            if e2 == ZERO:
                continue
            parts.append(mul(MINUS_ONE, e1, e2))
    return simplify(add(*parts))


def ricci_entry_raw(metric: Metric6, a: int, b: int) -> Expr:
    """The Ricci formula evaluated literally at (a, b), no symmetry shortcut."""
    return _ricci_formula(metric, a, b)


def ricci(metric: Metric6) -> tuple:
    """R_AB as nested tuples indexed [A][B]."""
    got = metric._cache.get("ricci")
    if got is not None:
        return got
    comps = [[ZERO] * DIM for _ in range(DIM)]
    for a in range(DIM):
        for b in range(a, DIM):
            e = _ricci_formula(metric, a, b)
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
        parts = []
        for a in range(DIM):
            for b in range(DIM):
                if gu[a][b] == ZERO or r[a][b] == ZERO:
                    continue
                parts.append(mul(gu[a][b], r[a][b]))
        got = simplify(add(*parts))
        metric._cache["ricci_scalar"] = got
    return got


def einstein(metric: Metric6) -> tuple:
    """G_AB = R_AB - R g_AB / 2 as nested tuples indexed [A][B]."""
    got = metric._cache.get("einstein")
    if got is None:
        r = ricci(metric)
        rs = ricci_scalar(metric)
        g = metric.lower
        got = tuple(tuple(simplify(add(r[a][b],
                                       mul(MINUS_ONE, HALF, rs, g[a][b])))
                          for b in range(DIM))
                    for a in range(DIM))
        metric._cache["einstein"] = got
    return got
