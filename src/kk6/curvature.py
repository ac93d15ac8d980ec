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
from .tensor import DIM, Metric6, Tensor, build

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


def christoffel(metric: Metric6) -> Tensor:
    """Gamma^C_AB, variance ('u','l','l'), symmetric in the lower pair."""
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
    tensor = Tensor(("u", "l", "l"),
                    tuple(tuple(tuple(r) for r in plane) for plane in comps),
                    name=f"christoffel({metric.name})")
    metric._cache["christoffel"] = tensor
    return tensor


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
                    d = simplify(diff(gamma.entry(c, a, b), COORDS[c]))
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
        got = tuple(simplify(add(*(gamma.entry(c, a, c) for c in range(DIM))))
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
        e = gamma.entry(c, a, b)
        if e == ZERO or trace[c] == ZERO:
            continue
        parts.append(mul(e, trace[c]))
    for c in range(DIM):
        for d in range(DIM):
            e1 = gamma.entry(c, a, d)
            if e1 == ZERO:
                continue
            e2 = gamma.entry(d, b, c)
            if e2 == ZERO:
                continue
            parts.append(mul(MINUS_ONE, e1, e2))
    return simplify(add(*parts))


def ricci_entry_raw(metric: Metric6, a: int, b: int) -> Expr:
    """The Ricci formula evaluated literally at (a, b), no symmetry shortcut."""
    return _ricci_formula(metric, a, b)


def ricci(metric: Metric6) -> Tensor:
    got = metric._cache.get("ricci")
    if got is not None:
        return got
    comps = [[ZERO] * DIM for _ in range(DIM)]
    for a in range(DIM):
        for b in range(a, DIM):
            e = _ricci_formula(metric, a, b)
            comps[a][b] = e
            comps[b][a] = e
    tensor = Tensor(("l", "l"), tuple(tuple(r) for r in comps),
                    name=f"ricci({metric.name})")
    metric._cache["ricci"] = tensor
    return tensor


def ricci_scalar(metric: Metric6) -> Expr:
    got = metric._cache.get("ricci_scalar")
    if got is None:
        r = ricci(metric)
        gu = metric.upper()
        parts = []
        for a in range(DIM):
            for b in range(DIM):
                if gu[a][b] == ZERO or r.entry(a, b) == ZERO:
                    continue
                parts.append(mul(gu[a][b], r.entry(a, b)))
        got = simplify(add(*parts))
        metric._cache["ricci_scalar"] = got
    return got


def einstein(metric: Metric6) -> Tensor:
    got = metric._cache.get("einstein")
    if got is not None:
        return got
    r = ricci(metric)
    rs = ricci_scalar(metric)
    g = metric.lower

    def fn(a, b):
        return simplify(add(r.entry(a, b),
                            mul(MINUS_ONE, HALF, rs, g[a][b])))

    tensor = Tensor(("l", "l"), build(2, fn), name=f"einstein({metric.name})")
    metric._cache["einstein"] = tensor
    return tensor
