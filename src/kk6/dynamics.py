"""Geodesics in complexified coordinates and interference profiles.

The scalar-mode metric admits a closed-form geodesic: quadratic-in-tau
ordinary coordinates and a compact coordinate that grows linearly with a
unit-modulus slope.  This module carries both sides of that statement —
the symbolic residual of the closed form in the geodesic equation, and a
fixed-step numeric integrator to compare against — plus the interval
bookkeeping (ds, |ds|) and the two-slit fringe profiles built from
plane-wave superposition.

The complexified ODE state is handled as 24 real components (six complex
coordinates and six complex velocities, real and imaginary parts), so a
standard real integrator applies unchanged; the affine parameter itself
stays real.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curvature import christoffel
from .expr import (
    Expr, MINUS_ONE, ZERO, add, context, contract, derive, exp, mul, num,
    simplify, subs, sym,
)
from .oracle import metric_evaluator, tensor_evaluator
from .symbols import DEFAULT_TABLE
from .tensor import DIM, Metric6
from .ansatz import onshell_energy, scalar_metric

__all__ = [
    "DynamicsError", "GeodesicState", "Path", "StepInterval",
    "ClosedForm", "closed_form_exprs", "closed_form_state",
    "closed_form_deviation", "connection_evaluator", "integrate",
    "interval_along", "FringeProfile", "two_path_fringes",
]

for _name in ("tau",):
    DEFAULT_TABLE.register(_name, real=True)
for _name in ("c0", "c1", "c2", "c3", "c4", "c5"):
    DEFAULT_TABLE.register(_name, real=False)


class DynamicsError(ValueError):
    """Invalid dynamical input (off-shell seed, degenerate geometry)."""


@dataclass(frozen=True)
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


def closed_form_exprs() -> ClosedForm:
    """Symbolic closed-form geodesic of the scalar-mode metric, energy on
    shell, with its geodesic-equation residual formed and simplified.

    All six residual components reduce to literal zero: the quadratic
    coordinates make the phase constant along the curve, so the compact
    velocity has vanishing derivative and the connection terms cancel the
    remaining accelerations exactly."""
    t = sym("tau")
    p = [sym(f"p{i}") for i in range(4)]
    m0 = sym("m0")
    c = [sym(f"c{i}") for i in range(6)]
    shell = {"p0": _onshell_expr()}

    quad = mul(num("1/2", 0), num(0, -1), t, t)   # -i tau^2 / 2
    x = [ZERO] * DIM
    for a in range(4):
        x[a] = add(mul(quad, p[a]), c[a])
    x[5] = add(mul(quad, m0), c[5])
    theta = add(mul(p[0], x[0]), mul(MINUS_ONE, p[1], x[1]),
                mul(MINUS_ONE, p[2], x[2]), mul(MINUS_ONE, p[3], x[3]),
                mul(MINUS_ONE, m0, x[5]))
    theta = simplify(subs(theta, shell))
    x[4] = add(c[4], mul(t, exp(mul(num(0, 1), theta))))
    x = [simplify(subs(e, shell)) for e in x]

    ctx = context()
    v = tuple(derive(e, t, ctx) for e in x)
    acc = tuple(derive(e, t, ctx) for e in v)

    metric = scalar_metric(p=(_onshell_expr(), p[1], p[2], p[3])).metric
    gamma = christoffel(metric)
    coord_map = {f"x{i}": x[i] for i in range(DIM)}
    residual = tuple(
        contract([(acc[A],), *((subs(gamma[A][B][C], coord_map), v[B], v[C])
                               for B in range(DIM) for C in range(DIM))], ctx)
        for A in range(DIM))
    return ClosedForm(x=tuple(x), v=v, a=acc, theta=theta, residual=residual)


def _onshell_expr() -> Expr:
    return onshell_energy(sym("p1"), sym("p2"), sym("p3"), sym("m0"))


def closed_form_state(tau: float, p, m0: float, constants) -> GeodesicState:
    """Numeric closed-form state at affine parameter tau.

    ``p`` is the contravariant four-momentum; it must satisfy the
    dispersion relation (off-shell seeds are rejected, not repaired)."""
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

    quad = -0.5j * tau * tau
    x = [0j] * DIM
    for a in range(4):
        x[a] = quad * p[a] + c[a]
    x[5] = quad * m0 + c[5]
    theta = p[0] * x[0] - p[1] * x[1] - p[2] * x[2] - p[3] * x[3] - m0 * x[5]
    slope = cmath.exp(1j * theta)
    x[4] = c[4] + tau * slope

    v = [0j] * DIM
    for a in range(4):
        v[a] = -1j * tau * p[a]
    v[5] = -1j * tau * m0
    v[4] = slope
    return GeodesicState(x=tuple(x), v=tuple(v), tau=float(tau))


def closed_form_deviation(path: Path, p, m0: float, constants) -> float:
    """Largest coordinate gap between a path's states and the closed form
    at the same affine parameters."""
    dev = 0.0
    for st in path.states:
        exact = closed_form_state(st.tau, p, m0, constants)
        dev = max(dev, max(abs(a - b) for a, b in zip(st.x, exact.x)))
    return dev


# ---------------------------------------------------------------------------
# numeric geodesic flow

def connection_evaluator(metric: Metric6):
    """Compile the metric's connection coefficients to a numeric closure
    mapping six complex coordinates to a 6x6x6 array."""
    gamma = christoffel(metric)
    # Gamma^A_BC for B > C is the B <= C entry, mirrored
    return tensor_evaluator([gamma[A][min(B, C)][max(B, C)]
                             for A in range(DIM) for B in range(DIM)
                             for C in range(DIM)], (DIM, DIM, DIM))


_BLOWUP = 1e12


def integrate(initial: GeodesicState, tau_end: float, steps: int,
              gamma) -> Path:
    """Classical fixed-step 4th-order integration of the geodesic flow.

    The complex state is packed into 24 real components; each step's
    trapezoid defect of the acceleration is recorded as a residual.  The
    acceleration at the step's end, which closes the defect, is also the
    next step's first stage, so a run evaluates the connection
    ``4 * steps + 1`` times.  A coordinate or velocity exceeding 1e12 in
    magnitude aborts the run, returning the partial path with ``aborted``
    set."""
    if steps < 2:
        raise DynamicsError("need at least 2 steps")
    h = (tau_end - initial.tau) / steps

    def rhs(y: np.ndarray) -> np.ndarray:
        yc = y.view(np.complex128)
        g = gamma(yc[:DIM])
        if not np.isfinite(g.view(np.float64)).all():
            raise DynamicsError("connection not finite along path")
        v = yc[DIM:]
        return np.concatenate((v, -np.einsum("abc,b,c->a", g, v, v))
                              ).view(np.float64)

    y = np.empty(2 * DIM, dtype=complex)
    y[:DIM] = initial.x
    y[DIM:] = initial.v
    y = y.view(np.float64)

    def snap(yr: np.ndarray, tau: float) -> GeodesicState:
        yc = yr.view(np.complex128)
        return GeodesicState(x=tuple(yc[:DIM]), v=tuple(yc[DIM:]), tau=tau)

    states = [snap(y, initial.tau)]
    residuals: list[float] = []
    aborted = False
    # divergence is detected explicitly below; silence the intermediate
    # overflow chatter numpy would otherwise emit on a blowing-up orbit
    with np.errstate(over="ignore", invalid="ignore"):
        aborted = _advance(rhs, y, snap, states, residuals, initial, steps, h)
    return Path(states=tuple(states), residuals=tuple(residuals),
                aborted=aborted)


def _advance(rhs, y, snap, states, residuals, initial, steps, h) -> bool:
    try:
        k1 = rhs(y)
        for n in range(steps):
            tau = initial.tau + n * h
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            v_old = y.view(np.complex128)[DIM:]
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            yc = y.view(np.complex128)
            k_new = rhs(y)
            defect = (yc[DIM:] - v_old) / h - 0.5 * (
                k1.view(np.complex128)[DIM:] + k_new.view(np.complex128)[DIM:])
            residuals.append(float(np.abs(defect).max()))
            k1 = k_new
            states.append(snap(y, tau + h))
            if not np.isfinite(y).all() or np.abs(yc).max() > _BLOWUP:
                return True
    except (OverflowError, DynamicsError):
        # a diverging trajectory can overflow the exponentials mid-stage
        # before the coordinate guard sees it; same pathology, same answer
        return True
    return False


# ---------------------------------------------------------------------------
# interval accumulation

@dataclass(frozen=True)
class StepInterval:
    tau: float                   # step midpoint
    ds: complex                  # sqrt(g_AB dx^A dx^B), principal branch
    dl: float                    # |ds|
    dx4: complex                 # compact-coordinate increment


def interval_along(path: Path, metric: Metric6) -> tuple[StepInterval, ...]:
    """Per-step interval along a path: ds from the quadratic form with the
    metric evaluated at the arithmetic midpoint, dl = |ds|."""
    if len(path.states) < 2:
        raise DynamicsError("path has no steps")
    gev = metric_evaluator(metric)
    out = []
    for s0, s1 in zip(path.states, path.states[1:]):
        xm = tuple(0.5 * (a + b) for a, b in zip(s0.x, s1.x))
        dx = np.array([b - a for a, b in zip(s0.x, s1.x)], dtype=complex)
        g = gev(xm)
        ds = cmath.sqrt(complex(dx @ g @ dx))
        out.append(StepInterval(tau=0.5 * (s0.tau + s1.tau),
                                ds=ds, dl=abs(ds), dx4=dx[4]))
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
    r1 = math.hypot(L, y - 0.5 * d)
    r2 = math.hypot(L, y + 0.5 * d)
    return r2 - r1


def two_path_fringes(d: float, L: float, wavelength: float,
                     grid) -> FringeProfile:
    """Two-slit density |psi_1 + psi_2|^2 over a detector grid.

    Unit-amplitude straight rays from slits at +-d/2; the geometric path
    lengths carry the phase k = 2 pi / wavelength.  Minima are located by
    root-finding the half-integer path-difference condition between grid
    ends, so each reported position satisfies the destructive-interference
    equation to root tolerance rather than grid resolution.  A grid cannot
    resolve more fringes than it has points: more half-integer orders
    between its ends than points is refused before any root is sought."""
    ys = [float(v) for v in grid]
    if d <= 0 or L <= 0 or wavelength <= 0 or not ys:
        raise DynamicsError("degenerate fringe geometry")
    lo, hi = min(ys), max(ys)
    dlo, dhi = _path_difference(lo, d, L), _path_difference(hi, d, L)
    k_lo = math.ceil(min(dlo, dhi) / wavelength - 0.5)
    k_hi = math.floor(max(dlo, dhi) / wavelength - 0.5)
    if k_hi - k_lo + 1 > len(ys):
        raise DynamicsError(
            f"more fringe orders between the grid ends than its {len(ys)} "
            "grid points can resolve")
    k = 2.0 * math.pi / wavelength

    def density(y: float) -> float:
        return abs(cmath.exp(1j * k * math.hypot(L, y - 0.5 * d))
                   + cmath.exp(1j * k * math.hypot(L, y + 0.5 * d))) ** 2

    dens = [density(y) for y in ys]
    minima = []
    for n in range(k_lo, k_hi + 1):
        target = (n + 0.5) * wavelength

        def gap(y: float, t=target) -> float:
            return _path_difference(y, d, L) - t

        if gap(lo) * gap(hi) > 0:
            continue
        minima.append(float(_brentq(gap, lo, hi, xtol=1e-14, rtol=1e-15)))
    minima.sort()
    return FringeProfile(y=tuple(ys), density=tuple(dens),
                         minima=tuple(minima),
                         minima_density=tuple(density(y) for y in minima))


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket [xa, xb] by Brent's method.

    A line-for-line port of the C loop behind ``scipy.optimize.brentq``
    (same steps in the same floating-point order, so the same root bit for
    bit): it stops when the bracket's half-width is below
    ``(xtol + rtol * |x|) / 2`` or ``f(x) == 0``, and raises after
    ``maxiter`` iterations without convergence."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DynamicsError("root finder needs a sign change over the bracket")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf     # C's x/0 is inf or nan: bisect
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise DynamicsError(
        f"root finder did not converge in {maxiter} iterations")
