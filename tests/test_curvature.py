"""Connection and curvature: symbolic identities and the independent
finite-difference oracle agree on every metric family we can evaluate."""
import cmath
import random

import numpy as np
import pytest

from kk6.ansatz import (
    dirac_metric, gravity_metric, onshell_energy, photon_metric,
    proca_metric, scalar_metric, weak_field_block,
)
from kk6.curvature import (
    christoffel, einstein, ricci, ricci_entry_raw, ricci_scalar,
)
from kk6.expr import ZERO, coords, exp, mul, num, simplify, sym
from kk6.oracle import (
    christoffel_fd, compile_expr, einstein_fd, metric_evaluator, ricci_fd,
    ricci_scalar_fd,
)
from kk6.tensor import DIM, Metric6, diagonal_metric, flat6
from kk6.zeros import is_zero

x = coords()


def _sample_points(seed, n, lo=-0.4, hi=0.4):
    rng = random.Random(seed)
    return [[complex(rng.uniform(lo, hi)) for _ in range(DIM)]
            for _ in range(n)]


def _tensor_eval(comps, rank, pt):
    """Evaluate a symbolic tensor at a numeric point via compiled closures."""
    if rank == 2:
        return np.array([[complex(compile_expr(comps[a][b])(pt))
                          for b in range(DIM)] for a in range(DIM)])
    return np.array([[[complex(compile_expr(comps[a][b][c])(pt))
                       for c in range(DIM)] for b in range(DIM)]
                     for a in range(DIM)])


def _numeric_scalar():
    p = (onshell_energy(num("1/5"), num("2/5"), num("3/5"), num(1)),
         num("1/5"), num("2/5"), num("3/5"))
    return scalar_metric(p=p, m0=1).metric


def _numeric_photon():
    from kk6.ansatz import null_wave_potential
    return photon_metric(null_wave_potential(num("3/4"))).metric


def _numeric_proca():
    from kk6.ansatz import massive_wave_potential
    return proca_metric(massive_wave_potential(num("1/2"), num(1)),
                        num(1)).metric


def _numeric_dirac():
    return dirac_metric(1, num("1/5"), num("1/4"), num("3/5"), num(1)).metric


def _smooth_diagonal(seed=3):
    """Seeded smooth diagonal metric with exponential coordinate ripples."""
    rng = random.Random(seed)
    entries = []
    signs = (1, -1, -1, -1, 1, -1)
    for a in range(DIM):
        k = num(0, rng.randint(1, 3))
        ripple = exp(mul(num("1/10"), k, x[(a + 1) % DIM]))
        entries.append(mul(num(signs[a]), ripple))
    return diagonal_metric(tuple(entries), name="smooth-diagonal")


def test_flat_curvature_vanishes():
    assert ricci_scalar(flat6()) == ZERO
    assert all(e == ZERO for row in einstein(flat6()).comps for e in row)


def _symbolic_gravity_scalar():
    p1, p2, p3, m0 = sym("p1"), sym("p2"), sym("p3"), sym("m0")
    return gravity_metric("scalar", weak_field_block(), None,
                          p=(onshell_energy(p1, p2, p3, m0), p1, p2, p3),
                          m0=m0).metric


@pytest.mark.parametrize("build", [
    lambda: scalar_metric().metric,
    lambda: photon_metric().metric,
    lambda: proca_metric().metric,
    _symbolic_gravity_scalar,
], ids=["scalar", "photon", "proca", "gravity-scalar"])
def test_ricci_mirror_matches_raw_formula(build):
    # ricci() fills a <= b and mirrors; the literal formula at (b, a) must
    # agree with the mirrored entry
    m = build()
    r = ricci(m)
    for a in range(DIM):
        for b in range(a + 1, DIM):
            gap = ricci_entry_raw(m, b, a) - r.entry(a, b)
            assert is_zero(gap).verdict == "zero", (a, b)


def test_scalar_mode_ricci_scalar_structurally_zero():
    m = scalar_metric(p=(onshell_energy(sym("p1"), sym("p2"), sym("p3"),
                                        sym("m0")),
                         sym("p1"), sym("p2"), sym("p3"))).metric
    assert ricci_scalar(m) == ZERO


def test_scalar_einstein_is_momentum_product():
    p1, p2, p3, m0 = sym("p1"), sym("p2"), sym("p3"), sym("m0")
    mode = scalar_metric(p=(onshell_energy(p1, p2, p3, m0), p1, p2, p3))
    g = einstein(mode.metric).comps
    q = list(mode.grad[:4]) + [ZERO, mode.grad[4]]   # lower gradient by index
    for a in range(DIM):
        for b in range(DIM):
            assert simplify(g[a][b] - mul(q[a], q[b])) == ZERO, (a, b)


def test_offshell_scalar_curvature_is_nonzero():
    m = scalar_metric().metric            # p0 left free: no dispersion
    assert is_zero(ricci_scalar(m)).verdict == "nonzero"


@pytest.mark.parametrize("factory", [
    _numeric_scalar, _numeric_photon, _numeric_proca, _numeric_dirac,
    _smooth_diagonal,
])
def test_christoffel_matches_fd_oracle(factory):
    metric = factory()
    gf = metric_evaluator(metric)
    gamma = christoffel(metric).comps
    for pt in _sample_points(11, 3):
        sym_val = _tensor_eval(gamma, 3, pt)
        fd_val = christoffel_fd(gf, pt)
        assert np.max(np.abs(sym_val - fd_val)) < 1e-7


@pytest.mark.parametrize("factory", [
    _numeric_scalar, _numeric_photon, _smooth_diagonal,
])
def test_ricci_and_einstein_match_fd_oracle(factory):
    metric = factory()
    gf = metric_evaluator(metric)
    ric = ricci(metric).comps
    ein = einstein(metric).comps
    rs = compile_expr(ricci_scalar(metric))
    for pt in _sample_points(23, 2):
        assert np.max(np.abs(_tensor_eval(ric, 2, pt) - ricci_fd(gf, pt))) \
            < 1e-6
        assert abs(complex(rs(pt)) - ricci_scalar_fd(gf, pt)) < 1e-6
        assert np.max(np.abs(_tensor_eval(ein, 2, pt)
                             - einstein_fd(gf, pt))) < 1e-6


def test_curvature_results_are_cached_per_metric():
    m = _numeric_scalar()
    assert christoffel(m) is christoffel(m)
    assert einstein(m) is einstein(m)


def test_perturbed_compact_entry_breaks_flatness():
    mode = scalar_metric(p=(onshell_energy(sym("p1"), sym("p2"), sym("p3"),
                                           sym("m0")),
                            sym("p1"), sym("p2"), sym("p3")))
    rows = [list(r) for r in mode.metric.lower]
    rows[4][4] = simplify(mul(rows[4][4],
                              num(1) + mul(x[1], x[1])))
    assert is_zero(ricci_scalar(Metric6(rows))).verdict == "nonzero"
