"""Geodesics in complexified coordinates and interference profiles.

The scalar-mode metric admits a closed-form geodesic: quadratic-in-tau
ordinary coordinates and a compact coordinate that grows linearly with a
unit-modulus slope.  This module carries both sides of that statement —
the symbolic residual of the closed form in the geodesic equation, and a
fixed-step numeric integrator compared with it in positions, the momenta
checked on shell once per run — plus the interval bookkeeping (ds, |ds|)
and the two-slit fringe profiles built from plane-wave superposition.

The integrator steps the complexified state as a list of twelve Python
complexes, six coordinates then six velocities, through one compiled
function of that state that sums the acceleration over the connection's
nonzero entries only; the affine parameter itself stays real.
"""
from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from functools import cache

from .curvature import christoffel
from .expr import (
    Expr, MINUS_ONE, Num, ZERO, context, contract, derive, exp, mul, num,
    subs, sym,
)
from .oracle import _compile, _compile_metric
from .tensor import DIM, Metric6
from .ansatz import onshell_energy, scalar_metric

__all__ = [
    "DynamicsError", "GeodesicState", "Path", "StepInterval",
    "ClosedForm", "closed_form_exprs", "closed_form_state",
    "closed_form_deviation", "connection_evaluator", "integrate",
    "interval_along", "FringeProfile", "two_path_fringes",
]

class DynamicsError(ValueError):
    """Invalid dynamical input (off-shell seed, degenerate geometry)."""


@dataclass(frozen=True, slots=True)
class GeodesicState:
    x: tuple[complex, ...]
    v: tuple[complex, ...]
    tau: float


@dataclass(frozen=True)
class Path:
    states: tuple[GeodesicState, ...]
    residuals: tuple[float, ...]    # per-step trapezoid defect of dv/dtau
    aborted: bool = False


# ---------------------------------------------------------------------------
# closed form

@dataclass(frozen=True)
class ClosedForm:
    x: tuple[Expr, ...]
    v: tuple[Expr, ...]
    a: tuple[Expr, ...]
    theta: Expr                  # phase p.x - m0 x5 along the curve
    residual: tuple[Expr, ...]   # a^A + Gamma^A_BC v^B v^C, simplified


@cache
def closed_form_exprs() -> ClosedForm:
    """Symbolic closed-form geodesic of the scalar-mode metric, energy on
    shell, with its geodesic-equation residual formed and simplified;
    formed once per process, as it takes no parameters.

    All six residual components reduce to literal zero: the quadratic
    coordinates make the phase constant along the curve, so the compact
    velocity has vanishing derivative and the connection terms cancel the
    remaining accelerations exactly."""
    t = sym("tau")
    m0 = sym("m0")
    p = [sym(f"p{i}") for i in range(1, 4)]
    p = [onshell_energy(*p, m0), *p]
    c = [sym(f"c{i}") for i in range(6)]

    ctx = context()
    quad = mul(num("1/2", 0), num(0, -1), t, t)   # -i tau^2 / 2
    x = [ZERO] * DIM
    for a in range(4):
        x[a] = contract([(quad, p[a]), (c[a],)], ctx)
    x[5] = contract([(quad, m0), (c[5],)], ctx)
    theta = contract([(p[0], x[0]), (MINUS_ONE, p[1], x[1]),
                      (MINUS_ONE, p[2], x[2]), (MINUS_ONE, p[3], x[3]),
                      (MINUS_ONE, m0, x[5])], ctx)
    x[4] = contract([(c[4],), (t, exp(mul(num(0, 1), theta)))], ctx)

    v = tuple(derive(e, t, ctx) for e in x)
    acc = tuple(derive(e, t, ctx) for e in v)

    metric = scalar_metric(p=p).metric
    gamma = christoffel(metric)
    coord_map = {f"x{i}": x[i] for i in range(DIM)}
    residual = tuple(
        contract([(acc[A],), *((subs(gamma[A][B][C], coord_map), v[B], v[C])
                               for B in range(DIM) for C in range(DIM))], ctx)
        for A in range(DIM))
    return ClosedForm(x=tuple(x), v=v, a=acc, theta=theta, residual=residual)


def _phase(x, p, m0):
    """The numeric phase p0 x0 - p1 x1 - p2 x2 - p3 x3 - m0 x5 at x."""
    return p[0] * x[0] - p[1] * x[1] - p[2] * x[2] - p[3] * x[3] - m0 * x[5]


def _closed_form(p, m0, constants):
    """The momenta and rest mass as complexes, checked on shell, and the
    closed form's coordinates and compact slope as one function of tau."""
    p = tuple(complex(v) for v in p)
    if len(p) != 4:
        raise DynamicsError("p must have four components")
    m0 = complex(m0)
    c = tuple(complex(v) for v in constants)
    if len(c) != DIM:
        raise DynamicsError("constants must have six components")
    shell = p[0] * p[0] - p[1] * p[1] - p[2] * p[2] - p[3] * p[3] - m0 * m0
    scale = max(abs(p[0]) ** 2, abs(m0) ** 2, 1.0)
    if abs(shell) > 1e-9 * scale:
        raise DynamicsError(
            f"off-shell momentum: p^2 - m0^2 = {shell:.3e} (|p0| must equal "
            "sqrt(p1^2 + p2^2 + p3^2 + m0^2))")

    def at(tau):
        quad = -0.5j * tau * tau
        x = [quad * p[0] + c[0], quad * p[1] + c[1], quad * p[2] + c[2],
             quad * p[3] + c[3], c[4], quad * m0 + c[5]]
        slope = cmath.exp(1j * _phase(x, p, m0))   # the phase reads no x4
        x[4] += tau * slope
        return x, slope
    return p, m0, at


def closed_form_state(tau: float, p, m0: float, constants) -> GeodesicState:
    """Numeric closed-form state at affine parameter tau.

    ``p`` is the contravariant four-momentum; it must satisfy the
    dispersion relation (off-shell seeds are rejected, not repaired)."""
    p, m0, at = _closed_form(p, m0, constants)
    x, slope = at(tau)
    v = (*(-1j * tau * pa for pa in p), slope, -1j * tau * m0)
    return GeodesicState(x=tuple(x), v=v, tau=float(tau))


def closed_form_deviation(path: Path, p, m0: float, constants) -> float:
    """Largest coordinate gap between a path's states and the closed form
    at the same affine parameters.  The momenta are checked once; a state
    holding a non-finite coordinate is refused, since its gap would be."""
    at = _closed_form(p, m0, constants)[2]
    dev = 0.0
    for n, st in enumerate(path.states):
        if not all(map(cmath.isfinite, st.x)):
            raise DynamicsError(
                f"state {n} (tau = {st.tau!r}) holds a non-finite coordinate")
        dev = max(dev, max(abs(a - b) for a, b in zip(st.x, at(st.tau)[0])))
    return dev


# ---------------------------------------------------------------------------
# numeric geodesic flow

def connection_evaluator(metric: Metric6):
    """Compile the metric's geodesic acceleration: one function of the
    12-component state (six coordinates, then six velocities) returning
    the list of six accelerations -Gamma^A_BC v^B v^C.

    Only the nonzero connection entries enter.  Each component sums the
    products (Gamma^A_BC v^B) v^C in C order of (B, C), starting from 0j,
    and is then negated: at finite velocities this is the dense
    contraction ``-einsum("abc,b,c->a", Gamma, v, v)`` bit for bit, since
    a zero entry adds only a signed zero to that sum.  A connection entry
    that is not finite at the point raises :class:`DynamicsError`; at a
    pole, where a negative power meets zero, the complex arithmetic itself
    raises ZeroDivisionError."""
    gamma = christoffel(metric)
    terms = [(A, B, C) for A in range(DIM) for B in range(DIM)
             for C in range(DIM) if gamma[A][B][C] is not ZERO]
    roots = [gamma[A][B][C] for A, B, C in terms]

    def result(refs):
        varying = dict.fromkeys(r for e, r in zip(roots, refs)
                                if not isinstance(e, Num))
        lines = []
        if varying:
            test = " and ".join(f"_finite({r})" for r in varying)
            lines += [f"if not ({test}):",
                      '    raise _error("connection not finite along path")']
        rows = [[] for _ in range(DIM)]
        for (A, B, C), r in zip(terms, refs):
            rows[A].append(f" + {r} * x[{DIM + B}] * x[{DIM + C}]")
        sums = [f"-(0j{''.join(row)})" if row else "-0j" for row in rows]
        return lines + [f"return [{', '.join(sums)}]"]
    return _compile(roots, result,
                    {"_finite": cmath.isfinite, "_error": DynamicsError})


_BLOWUP = 1e12


def integrate(initial: GeodesicState, tau_end: float, steps: int,
              accel) -> Path:
    """Classical fixed-step 4th-order integration of the geodesic flow.

    ``accel`` maps the 12-component state to the six accelerations, as
    :func:`connection_evaluator` compiles it.  The state is a list of
    Python complexes, coordinates then velocities, stepped with no numpy
    call; each step's residual is the largest CPython ``abs`` of its
    trapezoid defect of the acceleration, NaN if any of them is NaN.
    The acceleration at the step's end, which closes the defect, is also
    the next step's first stage, so a run evaluates ``accel``
    ``4 * steps + 1`` times.  A coordinate or velocity exceeding 1e12 in
    magnitude, or not finite, aborts the run, returning the partial path
    with ``aborted`` set; so does an overflow, a pole or a non-finite
    connection inside a step.  The step enters each product as the
    complex h + 0j, so a component that is an exact -0.0 may read +0.0
    after a step.  Fewer than 2 steps, or an affine span tau_end - tau
    that is zero or not finite, is refused.

    Each state is the one the dense form (numpy arrays and ``einsum``
    over all 216 entries) gives, bit for bit, except in a step whose
    stages overflow a velocity: the dense contraction makes every
    acceleration NaN and this one only those the overflowed velocity
    enters, so the last state of such an aborted run can differ in which
    components are NaN.  Each residual and the guard read CPython's
    ``abs``, which can differ from ``numpy.abs`` in the last place (where
    numpy's vectorised complex absolute fuses its multiply-add), so a
    residual may differ from the dense form's by an ulp, and a magnitude
    within one ulp of 1e12 may be judged differently."""
    if steps < 2:
        raise DynamicsError("need at least 2 steps")
    span = tau_end - initial.tau
    h = span / steps
    if not math.isfinite(span) or h == 0:
        raise DynamicsError(
            f"need a finite nonzero affine span, got tau_end - tau = {span!r}")
    if len(initial.x) != DIM or len(initial.v) != DIM:
        raise DynamicsError("a state has six coordinates and six velocities")
    # the dense form's arithmetic, operation for operation: numpy makes
    # each real factor the complex f + 0j, and divides the defect by h
    # through its reciprocal
    h2, hc, h6 = complex(0.5 * h), complex(h), complex(h / 6.0)
    two, half, inv_h = 2 + 0j, 0.5 + 0j, complex(1 / h)

    y = [complex(c) for c in (*initial.x, *initial.v)]
    states = [GeodesicState(tuple(y[:DIM]), tuple(y[DIM:]), initial.tau)]
    residuals = array("d")
    aborted = False
    try:
        k1 = y[DIM:] + accel(y)
        for n in range(steps):
            tau = initial.tau + n * h
            s = [a + h2 * b for a, b in zip(y, k1)]
            k2 = s[DIM:] + accel(s)
            s = [a + h2 * b for a, b in zip(y, k2)]
            k3 = s[DIM:] + accel(s)
            s = [a + hc * b for a, b in zip(y, k3)]
            k4 = s[DIM:] + accel(s)
            v_old = y[DIM:]
            y = [a + h6 * (b1 + two * b2 + two * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            v, acc = y[DIM:], accel(y)
            mags = [abs((b - a) * inv_h - half * (p + q))
                    for b, a, p, q in zip(v, v_old, k1[DIM:], acc)]
            # NaN compares false, so ``max`` alone could pass it over
            residuals.append(max(mags) if all(m == m for m in mags)
                             else math.nan)
            k1 = v + acc
            states.append(GeodesicState(tuple(y[:DIM]), tuple(v), tau + h))
            if not all(abs(c) <= _BLOWUP for c in y):   # NaN fails too
                aborted = True
                break
    except (OverflowError, ZeroDivisionError, DynamicsError):
        # a diverging trajectory can overflow the exponentials, or reach a
        # pole of the connection, mid-stage before the coordinate guard
        # sees it; same pathology, same answer
        aborted = True
    return Path(states=tuple(states), residuals=tuple(residuals),
                aborted=aborted)


# ---------------------------------------------------------------------------
# interval accumulation

@dataclass(frozen=True)
class StepInterval:
    ds: complex                  # sqrt(g_AB dx^A dx^B), principal branch
    dl: float                    # |ds|
    dx4: complex                 # compact-coordinate increment


def interval_along(path: Path, metric: Metric6) -> tuple[StepInterval, ...]:
    """Per-step interval along a path: ds from the quadratic form with the
    metric evaluated at the arithmetic midpoint, dl = |ds|."""
    if len(path.states) < 2:
        raise DynamicsError("path has no steps")
    where, gev = _compile_metric(metric)
    # (dx g)_b = sum_a dx^a g_ab over the nonzero entries, in order of a,
    # then the sum over b of (dx g)_b dx^b; g[k] is the entry where[k]
    cols = [[(i // DIM, k) for k, i in enumerate(where) if i % DIM == b]
            for b in range(DIM)]
    out = []
    for s0, s1 in zip(path.states, path.states[1:]):
        g = gev(tuple(0.5 * (a + b) for a, b in zip(s0.x, s1.x)))
        dx = [b - a for a, b in zip(s0.x, s1.x)]
        q = 0j
        for b, col in enumerate(cols):
            row = 0j
            for a, i in col:
                row += dx[a] * g[i]
            q += row * dx[b]
        ds = cmath.sqrt(q)
        out.append(StepInterval(ds=ds, dl=abs(ds), dx4=dx[4]))
    return tuple(out)


# ---------------------------------------------------------------------------
# fringe profiles

@dataclass(frozen=True)
class FringeProfile:
    y: tuple[float, ...]
    density: tuple[float, ...]
    minima: tuple[float, ...]    # detector positions of density zeros
    minima_density: tuple[float, ...]   # density at each minimum


def _path_difference(y: float, d: float, L: float) -> float:
    """r2 - r1 as 2 y d / (r1 + r2): the difference of the two lengths
    cancels where they nearly agree, and halving each keeps the sum
    finite."""
    r1 = math.hypot(L, y - 0.5 * d)
    r2 = math.hypot(L, y + 0.5 * d)
    return d * (y / (0.5 * r1 + 0.5 * r2))


def two_path_fringes(d: float, L: float, wavelength: float,
                     grid) -> FringeProfile:
    """Two-slit density |psi_1 + psi_2|^2 over a detector grid.

    Unit-amplitude straight rays from slits at +-d/2; the geometric path
    lengths carry the phase k = 2 pi / wavelength.  A minimum is where the
    path difference r2 - r1 is t = (n + 1/2) wavelength: on the hyperbola
    with foci at the slits and vertices at +-t/2, which meets the detector
    line at y = t/2 sqrt(1 + 4 L^2 / (d^2 - t^2)).  Each half-integer order
    between the grid ends is placed by that closed form, so its position
    is exact to rounding, not to grid resolution; an order with |t| >= d
    has no finite minimum.  A grid cannot resolve more fringes than it has
    points: more half-integer orders between its ends than points, or an
    order range beyond a float, is refused before any minimum is placed.
    A non-finite ``d``, ``L``, ``wavelength`` or grid point is refused
    before any order is computed."""
    ys = [float(v) for v in grid]
    if not all(0 < v < math.inf for v in (d, L, wavelength)) or not ys:
        raise DynamicsError("degenerate fringe geometry")
    for y in ys:
        if not math.isfinite(y):
            raise DynamicsError(f"fringe grid point {y!r} is not finite")
    lo, hi = min(ys), max(ys)
    dlo, dhi = _path_difference(lo, d, L), _path_difference(hi, d, L)
    o_lo = min(dlo, dhi) / wavelength - 0.5
    o_hi = max(dlo, dhi) / wavelength - 0.5
    if not (math.isfinite(o_lo) and math.isfinite(o_hi)):
        raise DynamicsError(
            "fringe orders between the grid ends overflow a float: "
            f"(r2 - r1)/wavelength - 1/2 runs {o_lo!r}..{o_hi!r}")
    k_lo, k_hi = math.ceil(o_lo), math.floor(o_hi)
    if k_hi - k_lo + 1 > len(ys):
        raise DynamicsError(
            f"more fringe orders between the grid ends than its {len(ys)} "
            "grid points can resolve")

    def density(y: float) -> float:
        # |exp(i k r1) + exp(i k r2)|^2 = 4 cos^2(k (r2 - r1) / 2): the
        # phases k r1 and k r2 alone lose the difference far out
        return 4.0 * math.cos(math.pi * _path_difference(y, d, L)
                              / wavelength) ** 2

    dens = [density(y) for y in ys]
    minima = []
    # one order past each end: rounding there may drop an order whose
    # minimum is inside, and the closed form decides
    for n in range(k_lo - 1, k_hi + 2):
        t = (n + 0.5) * wavelength
        if abs(t) < d:
            # hypot and the split root keep 4 L^2 and d^2 - t^2 in range
            y = 0.5 * t * math.hypot(
                1.0, 2.0 * L / (math.sqrt(d - t) * math.sqrt(d + t)))
            if lo <= y <= hi:
                minima.append(y)
    return FringeProfile(y=tuple(ys), density=tuple(dens),
                         minima=tuple(minima),
                         minima_density=tuple(density(y) for y in minima))
