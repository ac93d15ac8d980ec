"""Geodesic closed form, fixed-step integration, intervals and fringes."""
import cmath
import math

import numpy as np
import pytest

import kk6.dynamics
from kk6.ansatz import scalar_metric
from kk6.dynamics import (
    DynamicsError, GeodesicState, closed_form_deviation, closed_form_exprs,
    closed_form_state, connection_evaluator, integrate, interval_along,
    two_path_fringes, _brentq, _path_difference,
)
from kk6.expr import ZERO, exp, mul, num, simplify, sym
from kk6.tensor import DIM

P = (1.25, 0.0, 0.0, 0.75)           # exactly on-shell with m0 = 1
M0 = 1.0
CONST = (0.1 + 0.05j, -0.2j, 0.3, 0.02 + 0.01j, 0.0, 0.04 - 0.1j)


def _metric():
    return scalar_metric(p=("5/4", 0, 0, "3/4"), m0=1).metric


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
    gamma = connection_evaluator(_metric())
    for k in range(12):
        s = closed_form_state(0.2 * k / 11, P, M0, CONST)
        v = np.asarray(s.v)
        dv = -np.einsum("abc,b,c->a", gamma(s.x), v, v)   # -Gamma v v
        want = [-1j * P[0], -1j * P[1], -1j * P[2], -1j * P[3], 0.0,
                -1j * M0]
        assert max(abs(a - b) for a, b in zip(dv, want)) < 1e-8


# ---------------------------------------------------------------------------
# integration

def test_integration_reproduces_closed_form_to_roundoff():
    gamma = connection_evaluator(_metric())
    path = integrate(closed_form_state(0.0, P, M0, CONST), 1.0, 1000, gamma)
    assert not path.aborted
    assert len(path.states) == 1001
    dev = 0.0
    for s in path.states:
        exact = closed_form_state(s.tau, P, M0, CONST)
        dev = max(dev, max(abs(a - b) for a, b in zip(s.x, exact.x)))
    # the trajectory is quadratic in tau: classical RK4 is exact up to
    # floating-point roundoff
    assert dev < 1e-12
    assert closed_form_deviation(path, P, M0, CONST) == dev
    assert max(path.residuals) < 1e-10


def test_integrator_order_measured_on_perturbed_seed():
    # the closed-form trajectory integrates exactly, so order must be
    # measured on a perturbed initial state with a generic solution
    gamma = connection_evaluator(_metric())
    base = closed_form_state(0.0, P, M0, CONST)
    v = list(base.v)
    v[0] += 0.2                      # drives the compact phase off-form
    v[4] += 0.2
    seed = GeodesicState(base.x, tuple(v), 0.0)
    ref = integrate(seed, 2.0, 6400, gamma).states[-1]

    def err(steps):
        end = integrate(seed, 2.0, steps, gamma).states[-1]
        return max(abs(a - b) for a, b in zip(end.x, ref.x))

    e1, e2 = err(50), err(100)
    order = math.log(e1 / e2, 2)
    assert order > 3.8


def test_integration_aborts_on_blowup_instead_of_raising():
    gamma = connection_evaluator(_metric())
    wild = GeodesicState((0,) * 6, (0, 0, 0, 0, 1e9, 1e9), 0.0)
    path = integrate(wild, 10.0, 50, gamma)
    assert path.aborted
    assert len(path.states) < 51


def _reference_advance(rhs, y, snap, states, residuals, initial, steps, h):
    # the integrator's loop before the end-of-step acceleration was reused
    # as the next step's k1: five connection evaluations per step
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
            defect = (yc[DIM:] - v_old) / h - 0.5 * (accel_prev + accel_new)
            residuals.append(float(np.max(np.abs(defect))))
            accel_prev = accel_new
            states.append(snap(y, tau + h))
            if not np.all(np.isfinite(y)) or \
                    np.max(np.abs(yc)) > kk6.dynamics._BLOWUP:
                return True
    except (OverflowError, DynamicsError):
        return True
    return False


def _path_bytes(path):
    return (np.array([s.x + s.v for s in path.states]).tobytes(),
            np.array([s.tau for s in path.states]).tobytes(),
            np.array(path.residuals).tobytes(), path.aborted)


@pytest.mark.parametrize("case", ["claim", "perturbed", "blowup"])
def test_integrator_matches_five_evaluation_reference(case, monkeypatch):
    gamma = connection_evaluator(_metric())
    base = closed_form_state(0.0, P, M0, CONST)
    v = list(base.v)
    v[0] += 0.2
    v[4] += 0.2
    seed, tau_end, steps = {
        "claim": (base, 1.0, 1000),
        "perturbed": (GeodesicState(base.x, tuple(v), 0.0), 2.0, 400),
        "blowup": (GeodesicState((0,) * 6, (0, 0, 0, 0, 1e9, 1e9), 0.0),
                   10.0, 50),
    }[case]
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return gamma(x)

    got = integrate(seed, tau_end, steps, counted)
    assert got.aborted == (case == "blowup")
    if not got.aborted:
        assert calls == 4 * steps + 1
    with monkeypatch.context() as m:
        m.setattr(kk6.dynamics, "_advance", _reference_advance)
        want = integrate(seed, tau_end, steps, gamma)
    assert _path_bytes(got) == _path_bytes(want)


def test_integrate_validates_steps():
    gamma = connection_evaluator(_metric())
    with pytest.raises(DynamicsError):
        integrate(closed_form_state(0.0, P, M0, CONST), 1.0, 0, gamma)


# ---------------------------------------------------------------------------
# intervals

def test_interval_slope_matches_inverse_phase_factor():
    m = _metric()
    gamma = connection_evaluator(m)
    path = integrate(closed_form_state(0.0, P, M0, CONST), 1.0, 200, gamma)
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
    grid = np.linspace(-1.0, 1.0, 5)
    for bad in [dict(d=0.0), dict(L=0.0), dict(wavelength=0.0)]:
        kw = dict(d=1.0, L=10.0, wavelength=0.5)
        kw.update(bad)
        with pytest.raises(DynamicsError):
            two_path_fringes(kw["d"], kw["L"], kw["wavelength"], grid)
    with pytest.raises(DynamicsError):
        two_path_fringes(1.0, 10.0, 0.5, np.array([]))


def _brackets(rng):
    # the fringe-minima brackets of random geometries, then generic roots:
    # smooth, multiple, steep, flat-tiny (so that f's differences reach
    # zero) and oscillating
    for _ in range(150):
        d, L, lam = rng.uniform(0.05, 5), rng.uniform(1, 200), \
            rng.uniform(0.005, 2)
        lo, hi = -rng.uniform(0.5, 50), rng.uniform(0.5, 50)
        dlo, dhi = _path_difference(lo, d, L), _path_difference(hi, d, L)
        for n in range(math.ceil(min(dlo, dhi) / lam - 0.5),
                       math.floor(max(dlo, dhi) / lam - 0.5) + 1)[:8]:
            def gap(y, t=(n + 0.5) * lam, d=d, L=L):
                return _path_difference(y, d, L) - t
            if gap(lo) * gap(hi) <= 0:
                yield gap, lo, hi, 1e-14, 1e-15
    fs = (lambda x: x**3 - 2 * x - 5, lambda x: math.cos(x) - x,
          lambda x: (x - 0.3)**5, lambda x: math.tanh(20 * (x - 0.1)),
          lambda x: 1e-300 * (x - 0.2), lambda x: math.sin(7 * x) + 0.3)
    for _ in range(600):
        f, a, b = rng.choice(fs), rng.uniform(-4, 0.3), rng.uniform(0.3, 4)
        if f(a) * f(b) <= 0:
            yield (f, a, b, rng.choice((2e-12, 1e-14, 1e-6, 1e-3)),
                   rng.choice((8.881784197001252e-16, 1e-15, 1e-10)))


def test_root_finder_matches_scipy_brentq_bit_for_bit():
    optimize = pytest.importorskip("scipy.optimize")
    import random
    import struct
    seen = 0
    for f, a, b, xtol, rtol in _brackets(random.Random(5)):
        try:
            want = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
        except (RuntimeError, ValueError) as err:
            # not converged in 100 iterations, or f(a) f(b) underflowed to
            # zero with one sign
            why = "did not converge" if isinstance(err, RuntimeError) \
                else "needs a sign change"
            with pytest.raises(DynamicsError, match=why):
                _brentq(f, a, b, xtol, rtol)
            continue
        got = _brentq(f, a, b, xtol, rtol)
        assert struct.pack("d", got) == struct.pack("d", want), (a, b)
        seen += 1
    assert seen > 500


def test_fringe_orders_must_fit_on_the_grid():
    # the default geometry has two half-integer orders between +-15: two
    # grid points resolve them, four orders need four points
    assert len(two_path_fringes(10.0, 400.0, 0.5, [-15.0, 15.0]).minima) == 2
    assert len(two_path_fringes(10.0, 400.0, 0.2,
                                np.linspace(-15, 15, 4)).minima) == 4
    with pytest.raises(DynamicsError, match="than its 2 grid points"):
        two_path_fringes(10.0, 400.0, 0.2, [-15.0, 15.0])


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: start-up must not pay its import
    import subprocess
    import sys
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kk6, kk6.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
