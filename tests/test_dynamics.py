"""Geodesic closed form, fixed-step integration, intervals and fringes."""
import cmath
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

import kk6.dynamics
from kk6.ansatz import scalar_metric
from kk6.curvature import christoffel
from kk6.dynamics import (
    DynamicsError, GeodesicState, Path, closed_form_deviation,
    closed_form_exprs, closed_form_state, connection_evaluator, integrate,
    interval_along, two_path_fringes,
)
from kk6.expr import MINUS_ONE, ONE, ZERO, exp, mul, num, simplify, sym
from kk6.oracle import tensor_evaluator
from kk6.tensor import DIM, Metric6

P = (1.25, 0.0, 0.0, 0.75)           # exactly on-shell with m0 = 1
M0 = 1.0
CONST = (0.1 + 0.05j, -0.2j, 0.3, 0.02 + 0.01j, 0.0, 0.04 - 0.1j)


def _metric():
    return scalar_metric(p=("5/4", 0, 0, "3/4"), m0=1).metric


def _dense_connection(metric):
    # the connection as a 6x6x6 array at six coordinates: the dense form
    # the reference integrator contracts with einsum
    return tensor_evaluator([e for plane in christoffel(metric)
                             for row in plane for e in row], (DIM, DIM, DIM))


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_satisfies_geodesic_equation_symbolically():
    cf = closed_form_exprs()
    for a in range(6):
        assert cf.residual[a] == ZERO, a


def test_closed_form_phase_is_constant_on_shell():
    # theta depends only on the integration constants: the trajectory
    # rides a stationary phase, so dx4/dtau is the constant exp(i theta)
    cf = closed_form_exprs()
    assert simplify(cf.v[4] - exp(mul(num(0, 1), cf.theta))) == ZERO
    assert cf.a[4] == ZERO               # constant compact velocity
    assert simplify(cf.a[5] - mul(num(0, -1), sym("m0"))) == ZERO


def test_closed_form_state_matches_quadratic_form():
    s = closed_form_state(0.5, P, M0, CONST)
    # x^alpha = -i p^alpha tau^2 / 2 + c^alpha
    for a, pa in zip((0, 1, 2, 3), P):
        want = -0.5j * pa * 0.25 + CONST[a]
        assert abs(s.x[a] - want) < 1e-15
    assert abs(s.x[5] - (-0.5j * M0 * 0.25 + CONST[5])) < 1e-15
    assert abs(s.v[0] - (-0.5j * P[0])) < 1e-15


def test_closed_form_state_rejects_off_shell_momentum():
    with pytest.raises(DynamicsError, match="shell"):
        closed_form_state(0.0, (2.0, 0.0, 0.0, 0.75), M0, CONST)


def test_rhs_matches_analytic_acceleration_along_the_path():
    accel = connection_evaluator(_metric())
    for k in range(12):
        s = closed_form_state(0.2 * k / 11, P, M0, CONST)
        dv = accel(s.x + s.v)                              # -Gamma v v
        want = [-1j * P[0], -1j * P[1], -1j * P[2], -1j * P[3], 0.0,
                -1j * M0]
        assert max(abs(a - b) for a, b in zip(dv, want)) < 1e-8


# ---------------------------------------------------------------------------
# integration

def test_integration_reproduces_closed_form_to_roundoff():
    accel = connection_evaluator(_metric())
    path = integrate(closed_form_state(0.0, P, M0, CONST), 1.0, 1000, accel)
    assert not path.aborted
    assert len(path.states) == 1001
    dev = _per_state_deviation(path, P, M0, CONST)
    # the trajectory is quadratic in tau: classical RK4 is exact up to
    # floating-point roundoff
    assert dev < 1e-12
    assert closed_form_deviation(path, P, M0, CONST) == dev
    assert max(path.residuals) < 1e-10


def _per_state_deviation(path, p, m0, const):
    # the deviation as one full closed-form state per path state
    dev = 0.0
    for s in path.states:
        exact = closed_form_state(s.tau, p, m0, const)
        dev = max(dev, max(abs(a - b) for a, b in zip(s.x, exact.x)))
    return dev


def test_closed_form_deviation_matches_the_per_state_loop():
    # seeded on-shell runs, forward and backward, and runs the guard
    # aborts with finite states; the momenta may be any iterable
    paths = [(p, m0, integrate(start, tau_end, steps,
                               connection_evaluator(
                                   scalar_metric(p=p, m0=m0).metric)),
              start.x)
             for p, m0, start, tau_end, steps in _seeded_starts()]
    accel = connection_evaluator(_metric())
    for v4 in (1e11, 1e7):
        paths.append((P, M0, integrate(GeodesicState(
            (0,) * 6, (0, 0, 0, 0, v4, 0), 0.0), 1.0, 50, accel), (0,) * 6))
    assert any(path.aborted for _, _, path, _ in paths)
    for p, m0, path, const in paths:
        assert closed_form_deviation(path, iter(p), m0, iter(const)) \
            == _per_state_deviation(path, p, m0, const), (p, m0)


def test_closed_form_deviation_rejects_off_shell_momentum():
    path = integrate(closed_form_state(0.0, P, M0, CONST), 1.0, 4,
                     connection_evaluator(_metric()))
    with pytest.raises(DynamicsError, match="shell"):
        closed_form_deviation(path, (2.0, 0.0, 0.0, 0.75), M0, CONST)


def test_closed_form_deviation_refuses_a_non_finite_state():
    # a NaN gap once dropped out of the maximum, so both paths read a
    # finite deviation (8.7e-19 and 0.0)
    p, const = (1.25, 0, 0, 0.75), (0,) * 6
    start = closed_form_state(0.0, p, 1, const)
    x = list(start.x)
    x[1] = math.nan
    path = integrate(GeodesicState(tuple(x), start.v, 0.0), 1.0, 10,
                     connection_evaluator(_metric()))
    assert path.aborted and len(path.states) == 2
    with pytest.raises(DynamicsError, match=r"state 0 \(tau = 0\.0\)"):
        closed_form_deviation(path, p, 1, const)
    nan = (math.nan,) * 6
    path = Path(states=(start, GeodesicState(nan, nan, 1.0)),
                residuals=(math.nan,))
    with pytest.raises(DynamicsError, match="state 1 .* non-finite"):
        closed_form_deviation(path, p, 1, const)


def test_integrator_order_measured_on_perturbed_seed():
    # the closed-form trajectory integrates exactly, so order must be
    # measured on a perturbed initial state with a generic solution
    accel = connection_evaluator(_metric())
    base = closed_form_state(0.0, P, M0, CONST)
    v = list(base.v)
    v[0] += 0.2                      # drives the compact phase off-form
    v[4] += 0.2
    seed = GeodesicState(base.x, tuple(v), 0.0)
    ref = integrate(seed, 2.0, 6400, accel).states[-1]

    def err(steps):
        end = integrate(seed, 2.0, steps, accel).states[-1]
        return max(abs(a - b) for a, b in zip(end.x, ref.x))

    e1, e2 = err(50), err(100)
    order = math.log(e1 / e2, 2)
    assert order > 3.8


def test_integration_aborts_on_blowup_instead_of_raising():
    accel = connection_evaluator(_metric())
    wild = GeodesicState((0,) * 6, (0, 0, 0, 0, 1e9, 1e9), 0.0)
    path = integrate(wild, 10.0, 50, accel)
    assert path.aborted
    assert len(path.states) < 51


def test_integration_aborts_at_a_pole_of_the_connection():
    # g_00 = x1: the connection carries 1/x1, which Python's complex
    # arithmetic refuses at x1 = 0 with ZeroDivisionError; the run aborts
    # there, as at any other point where the connection is not finite
    diag = (sym("x1"), MINUS_ONE, MINUS_ONE, MINUS_ONE, ONE, MINUS_ONE)
    accel = connection_evaluator(Metric6(
        [[diag[a] if a == b else ZERO for b in range(DIM)]
         for a in range(DIM)]))
    with pytest.raises(ZeroDivisionError):
        accel([0j] * (2 * DIM))
    path = integrate(GeodesicState((0,) * 6, (1, 0, 0, 0, 0, 0), 0.0), 1.0,
                     4, accel)
    assert path.aborted and len(path.states) == 1 and path.residuals == ()


def _reference_integrate(initial, tau_end, steps, gamma):
    # the dense numpy integrator: the state packed into 24 reals, the
    # whole 6x6x6 connection (``gamma``, a ``_dense_connection``)
    # contracted by einsum, and the end-of-step acceleration evaluated
    # again as the next step's k1, five connection evaluations per step
    h = (tau_end - initial.tau) / steps

    def rhs(y):
        yc = y.view(np.complex128)
        g = gamma(yc[:DIM])
        if not np.isfinite(g.view(np.float64)).all():
            raise DynamicsError("connection not finite along path")
        v = yc[DIM:]
        return np.concatenate((v, -np.einsum("abc,b,c->a", g, v, v))
                              ).view(np.float64)

    def snap(yr, tau):
        yc = yr.view(np.complex128)
        return GeodesicState(x=tuple(yc[:DIM]), v=tuple(yc[DIM:]), tau=tau)

    y = np.empty(2 * DIM, dtype=complex)
    y[:DIM] = initial.x
    y[DIM:] = initial.v
    y = y.view(np.float64)
    states, residuals, aborted = [snap(y, initial.tau)], [], False
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            accel_prev = rhs(y).view(np.complex128)[DIM:].copy()
            for n in range(steps):
                tau = initial.tau + n * h
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                v_old = y.view(np.complex128)[DIM:].copy()
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                yc = y.view(np.complex128)
                accel_new = rhs(y).view(np.complex128)[DIM:].copy()
                defect = (yc[DIM:] - v_old) / h - 0.5 * (accel_prev
                                                          + accel_new)
                residuals.append(float(np.max(np.abs(defect))))
                accel_prev = accel_new
                states.append(snap(y, tau + h))
                if not np.all(np.isfinite(y)) or \
                        np.max(np.abs(yc)) > kk6.dynamics._BLOWUP:
                    aborted = True
                    break
        except (OverflowError, DynamicsError):
            aborted = True
    return kk6.dynamics.Path(states=tuple(states),
                             residuals=tuple(residuals), aborted=aborted)


def _path_bytes(path):
    return (np.array([s.x + s.v for s in path.states]).tobytes(),
            np.array([s.tau for s in path.states]).tobytes(),
            np.array(path.residuals).tobytes(), path.aborted)


def _seeded_starts():
    # closed-form starts at seeded on-shell momenta, some components
    # exactly zero, forward and backward, 2 to 200 steps
    rng = random.Random(0)
    out = []
    for k in range(24):
        p = [0.0 if rng.random() < 0.3 else rng.uniform(-1.0, 1.0)
             for _ in range(3)]
        m0 = rng.uniform(0.5, 1.5)
        p = (math.sqrt(sum(c * c for c in p) + m0 * m0), *p)
        const = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                 for _ in range(6)]
        tau_end = rng.choice((1.0, 5.0, -2.0, -0.5))
        steps = rng.choice((2, 7, 50, 200))
        out.append((p, m0, closed_form_state(0.0, p, m0, const), tau_end,
                    steps))
    return out


@pytest.mark.parametrize("case", ["claim", "perturbed", "blowup", "guard",
                                  "guard_alone"])
def test_integrator_matches_five_evaluation_reference(case):
    accel = connection_evaluator(_metric())
    base = closed_form_state(0.0, P, M0, CONST)
    v = list(base.v)
    v[0] += 0.2
    v[4] += 0.2
    seed, tau_end, steps = {
        "claim": (base, 1.0, 1000),
        "perturbed": (GeodesicState(base.x, tuple(v), 0.0), 2.0, 400),
        "blowup": (GeodesicState((0,) * 6, (0, 0, 0, 0, 1e9, 1e9), 0.0),
                   10.0, 50),
        "guard": (GeodesicState((0,) * 6, (0, 0, 0, 0, 1e11, 0), 0.0),
                  1.0, 50),
        # without the guard this run goes on, finite, to all 50 steps
        "guard_alone": (GeodesicState((0,) * 6, (0, 0, 0, 0, 1e7, 0), 0.0),
                        1.0, 50),
    }[case]
    calls = 0

    def counted(y):
        nonlocal calls
        calls += 1
        return accel(y)

    got = integrate(seed, tau_end, steps, counted)
    assert got.aborted == (case not in ("claim", "perturbed"))
    if not got.aborted:
        assert calls == 4 * steps + 1
    if case.startswith("guard"):
        # the magnitude guard, not an exception, ends this run: one step
        # of finite states, the last beyond 1e12
        assert len(got.states) == 2
        assert all(np.isfinite(s.x + s.v).all() for s in got.states)
        assert np.abs(got.states[-1].x + got.states[-1].v).max() > 1e12
    assert _path_bytes(got) == _path_bytes(_reference_integrate(
        seed, tau_end, steps, _dense_connection(_metric())))


def test_integrator_matches_reference_on_seeded_closed_form_starts():
    for p, m0, start, tau_end, steps in _seeded_starts():
        metric = scalar_metric(p=p, m0=m0).metric
        got = integrate(start, tau_end, steps, connection_evaluator(metric))
        assert _path_bytes(got) == _path_bytes(_reference_integrate(
            start, tau_end, steps, _dense_connection(metric))), (p, m0)


def test_integrate_validates_steps():
    accel = connection_evaluator(_metric())
    with pytest.raises(DynamicsError):
        integrate(closed_form_state(0.0, P, M0, CONST), 1.0, 0, accel)
    with pytest.raises(DynamicsError, match="six coordinates"):
        integrate(GeodesicState((0,) * 5, (0,) * 6, 0.0), 1.0, 4, accel)


@pytest.mark.parametrize("tau_end", [0.0, math.inf, -math.inf, math.nan,
                                     5e-324])
def test_integrate_refuses_a_zero_or_non_finite_span(tau_end):
    # each once returned identical or NaN states with NaN residuals and
    # ``aborted`` unset; 5e-324 over 4 steps is a step that rounds to zero
    accel = connection_evaluator(_metric())
    start = closed_form_state(0.0, P, M0, CONST)
    with pytest.raises(DynamicsError, match="finite nonzero affine span"):
        integrate(start, tau_end, 4, accel)


# ---------------------------------------------------------------------------
# intervals

def test_interval_slope_matches_inverse_phase_factor():
    m = _metric()
    accel = connection_evaluator(m)
    path = integrate(closed_form_state(0.0, P, M0, CONST), 1.0, 200, accel)
    worst = 0.0
    for iv, lo, hi in zip(interval_along(path, m), path.states,
                          path.states[1:]):
        xm = [(a + b) / 2 for a, b in zip(lo.x, hi.x)]
        theta = (P[0] * xm[0] - P[1] * xm[1] - P[2] * xm[2] - P[3] * xm[3]
                 - M0 * xm[5])
        worst = max(worst, abs(iv.ds / iv.dx4 - cmath.exp(-1j * theta)))
        assert abs(iv.dl - abs(iv.ds)) < 1e-15
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# fringes

def test_fringes_reduce_to_flat_profile_as_separation_vanishes():
    grid = np.linspace(-15.0, 15.0, 31)
    prof = two_path_fringes(1e-12, 400.0, 0.5, grid)
    assert max(prof.density) - min(prof.density) < 1e-9
    assert abs(prof.density[0] - 4.0) < 1e-9   # fully constructive
    assert prof.minima == ()


def test_fringe_minima_sit_at_half_integer_path_difference():
    d, L, lam = 10.0, 400.0, 0.5
    grid = np.linspace(-15.0, 15.0, 1201)
    prof = two_path_fringes(d, L, lam, grid)
    assert prof.minima                       # at least one in range
    assert len(prof.minima_density) == len(prof.minima)
    peak = max(prof.density)
    for y, reported in zip(prof.minima, prof.minima_density):
        r1 = math.hypot(L, y - d / 2)
        r2 = math.hypot(L, y + d / 2)
        frac = (r2 - r1) / lam - 0.5
        assert abs(frac - round(frac)) < 1e-12
        k = 2 * math.pi / lam
        depth = abs(cmath.exp(1j * k * r1) + cmath.exp(1j * k * r2)) ** 2
        assert depth < 1e-9 * peak
        assert reported == pytest.approx(depth, rel=1e-12, abs=1e-15)
        # far-field estimate lands within one grid cell
        cell = grid[1] - grid[0]
        n = round((abs(y) * d / L / lam) - 0.5)
        approx = (n + 0.5) * lam * L / d
        assert abs(abs(y) - approx) < cell


def test_fringes_validate_geometry():
    # a NaN once read as an order overflow, and an infinite L or wavelength
    # as a flat density with no minima
    grid = np.linspace(-1.0, 1.0, 5)
    for bad in [dict(d=0.0), dict(L=0.0), dict(wavelength=0.0),
                dict(d=math.nan), dict(L=math.nan), dict(wavelength=math.nan),
                dict(d=math.inf), dict(L=math.inf), dict(wavelength=math.inf)]:
        kw = dict(d=1.0, L=10.0, wavelength=0.5)
        kw.update(bad)
        with pytest.raises(DynamicsError,
                           match="^degenerate fringe geometry$"):
            two_path_fringes(kw["d"], kw["L"], kw["wavelength"], grid)
    with pytest.raises(DynamicsError):
        two_path_fringes(1.0, 10.0, 0.5, np.array([]))


@pytest.mark.parametrize("grid", [[-15.0, math.nan, 15.0], [1.0, math.nan],
                                  [math.nan, 1.0], [-15.0, math.inf],
                                  [-math.inf, 15.0]])
def test_fringes_refuse_non_finite_grid_points(grid):
    # each of these once returned a NaN density, dropped a minimum or named
    # an order overflow that did not happen
    bad = next(y for y in grid if not math.isfinite(y))
    with pytest.raises(DynamicsError) as err:
        two_path_fringes(10.0, 400.0, 0.5, grid)
    assert str(err.value) == f"fringe grid point {bad!r} is not finite"


def _decimal_path_difference(y, d, L):
    # r2 - r1 = (r2^2 - r1^2) / (r1 + r2) = 2 y d / (r1 + r2), which keeps
    # every digit where the two lengths nearly agree
    h = d / 2
    return 2 * y * d / ((L * L + (y - h) ** 2).sqrt()
                        + (L * L + (y + h) ** 2).sqrt())


def _bisect(t, lo, hi, d, L):
    # the y in [lo, hi] with r2 - r1 = t; r2 - r1 increases with y
    while hi - lo > abs(lo + hi) * Decimal("1e-20"):
        mid = (lo + hi) / 2
        if _decimal_path_difference(mid, d, L) < t:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _fringe_geometries(rng):
    """(d, L, wavelength, lo, hi): generic; grazing, with the top order's
    path difference t a fraction short of d and a grid end near its
    far-out minimum; grazing with t a few ulp short of d and a grid end
    within 5% of its minimum, where r2 - r1 is flat to the ulp; slits
    1e-16.5..1e-12 of L apart, where the difference of the two lengths
    is all rounding; then the default, an order at exactly d and a
    geometry near 1e160."""
    for _ in range(360):
        d, L = rng.uniform(0.05, 5), rng.uniform(1, 200)
        yield d, L, d * rng.uniform(0.5, 2), -rng.uniform(0.5, 50), \
            rng.uniform(0.5, 50)
    for _ in range(500):
        d = rng.uniform(0.1, 10)
        L = d * 10 ** rng.uniform(-1, 2)
        m = rng.choice((0.5, 1.5))
        if rng.random() < 0.4:
            lam, spread = d * (1 - 10 ** rng.uniform(-15.5, -1)) / m, 2.0
        else:
            lam, spread = d * (1 - rng.randrange(1, 8) * 2.0 ** -53) / m, 1.05
        t = m * lam
        if t < d:
            far = L / math.sqrt(2 * (d - t) / d) \
                * rng.uniform(1 / spread, spread)
            yield d, L, lam, -far * rng.uniform(1 / spread, spread), far
    for _ in range(150):
        L = rng.uniform(0.5, 5)
        d = L * 10 ** rng.uniform(-16.5, -12)
        yield d, L, d / rng.uniform(1, 8), -L * rng.uniform(0.2, 3), \
            L * rng.uniform(0.2, 3)
    yield 10.0, 400.0, 0.5, -15.0, 15.0
    yield 1.0, 1.0, 2.0, -1e8, 1e8
    yield 1e160, 1e160, 1e159, -1e160, 1e160


def test_fringe_minima_are_every_order_to_4_ulp():
    # every half-integer order whose minimum lies between the grid ends is
    # reported, within 4 ulp of a 50-digit bisection root of r2 - r1 = t
    # for the float t = (n + 1/2) wavelength the order names
    roots = geometries = 0
    with localcontext() as ctx:
        ctx.prec = 50
        for d, L, lam, lo, hi in _fringe_geometries(random.Random(7)):
            got = two_path_fringes(d, L, lam, np.linspace(lo, hi, 64)).minima
            D, LL, Lo, Hi = map(Decimal, (d, L, lo, hi))
            plo = _decimal_path_difference(Lo, D, LL)
            phi = _decimal_path_difference(Hi, D, LL)
            want = [_bisect(Decimal(t), Lo, Hi, D, LL)
                    for n in range(math.floor(float(plo) / lam - 0.5) - 1,
                                   math.ceil(float(phi) / lam - 0.5) + 2)
                    for t in [(n + 0.5) * lam] if plo <= Decimal(t) <= phi]
            assert len(got) == len(want), (d, L, lam, lo, hi)
            for y, root in zip(got, want):
                assert abs(Decimal(y) - root) <= 4 * Decimal(math.ulp(y)), \
                    (d, L, lam, lo, hi, y)
            roots += len(want)
            geometries += 1
    assert geometries > 1000 and roots > 2000, (geometries, roots)


def test_an_order_at_the_slit_separation_has_no_minimum():
    # r2 - r1 < d at every finite y, so the order t = d (wavelength 2d) has
    # no minimum, though the float r2 - r1 at y = 1e8 rounds to d
    prof = two_path_fringes(1.0, 1.0, 2.0, [-1e8, 0.0, 1e8])
    assert prof.minima == () and prof.minima_density == ()


def test_fringe_orders_must_fit_on_the_grid():
    # the default geometry has two half-integer orders between +-15: two
    # grid points resolve them, four orders need four points
    assert len(two_path_fringes(10.0, 400.0, 0.5, [-15.0, 15.0]).minima) == 2
    assert len(two_path_fringes(10.0, 400.0, 0.2,
                                np.linspace(-15, 15, 4)).minima) == 4
    with pytest.raises(DynamicsError, match="than its 2 grid points"):
        two_path_fringes(10.0, 400.0, 0.2, [-15.0, 15.0])


def test_an_order_range_beyond_a_float_is_refused():
    # d / wavelength overflows: the order range is named, not left to
    # math.ceil's OverflowError
    with pytest.raises(DynamicsError) as err:
        two_path_fringes(1.0, 1.0, 5e-324, [-1.0, 1.0])
    assert str(err.value) == (
        "fringe orders between the grid ends overflow a float: "
        "(r2 - r1)/wavelength - 1/2 runs -inf..inf")


def test_import_leaves_scipy_unloaded():
    # no part of kk6 needs scipy: start-up must not pay its import
    import subprocess
    import sys
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kk6, kk6.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
