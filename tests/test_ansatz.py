"""Metric family constructors: component tables against an independent
matrix-representation oracle, defining derivative conditions, reduction
chains, and claimed inverses."""
import cmath

import numpy as np
import pytest

from kk6.ansatz import (
    ETA5, IDX5, AnsatzError, coupled_metric, dirac_components, dirac_metric,
    field_strength, fsq, gravity_metric, massive_wave_potential,
    null_wave_potential, onshell_energy, photon_metric,
    proca_metric, scalar_metric, stress_tensor, weak_field_block,
)
from kk6.expr import (
    MINUS_ONE, ONE, ZERO, add, conj, coords, diff, mul, num, power,
    simplify, subs, sym, to_text,
)
from kk6.tensor import DIM, identity_residual
from kk6.zeros import evaluate, is_zero

x = coords()
_POS = frozenset({"m0"})


# ---------------------------------------------------------------------------
# scalar mode

def test_scalar_phase_gradient_components():
    mode = scalar_metric()
    # lower gradient of the phase over indices (0,1,2,3,5)
    want = ("p0", "-p1", "-p2", "-p3", "-m0")
    assert tuple(to_text(g) for g in mode.grad) == want


def test_scalar_compact_entry_inverts_exactly():
    mode = scalar_metric()
    assert simplify(mul(mode.g44, power(mode.g44, -1))) == ONE


def test_scalar_compact_derivative_condition():
    # d5 g44 = 2 i m0 g44: the compact phase carries the mass
    mode = scalar_metric()
    lhs = diff(mode.g44, x[5].symbol)
    rhs = mul(num(0, 2), sym("m0"), mode.g44)
    assert simplify(lhs - rhs) == ZERO


def test_scalar_hbar_scales_the_phase():
    mode = scalar_metric(hbar=2)
    assert simplify(mode.grad[0] - mul(num("1/2"), sym("p0"))) == ZERO


def test_onshell_subs_closes_dispersion():
    disp = (power(sym("p0"), 2) - power(sym("p1"), 2) - power(sym("p2"), 2)
            - power(sym("p3"), 2) - power(sym("m0"), 2))
    shell = onshell_energy(sym("p1"), sym("p2"), sym("p3"), sym("m0"))
    assert simplify(subs(disp, {"p0": shell})) == ZERO


def test_scalar_rejects_wrong_momentum_arity():
    with pytest.raises(AnsatzError, match="four components"):
        scalar_metric(p=(1, 2, 3))


# ---------------------------------------------------------------------------
# vector modes

def test_field_strength_is_antisymmetric():
    a5 = tuple(sym(f"A{i}") * x[0] for i in range(4)) + (ZERO,)
    f = field_strength(a5)
    for i in range(5):
        assert f[i][i] == ZERO
        for j in range(5):
            assert simplify(f[i][j] + f[j][i]) == ZERO


def test_null_wave_invariant_vanishes_structurally():
    f = field_strength(tuple(null_wave_potential()) + (ZERO,))
    assert simplify(fsq(f)) == ZERO


def test_bare_massive_wave_invariant_does_not_vanish():
    # without the compact phase the on-shell wave is not null
    f = field_strength(tuple(massive_wave_potential()) + (ZERO,))
    assert is_zero(simplify(fsq(f)), positive=_POS).verdict == "nonzero"


def test_proca_field_satisfies_compact_derivative_condition():
    mode = proca_metric()
    for a in range(4):
        lhs = diff(mode.Ahat[a], x[5].symbol)
        rhs = mul(num(0, 1), sym("m0"), mode.Ahat[a])
        assert simplify(lhs - rhs) == ZERO


def test_proca_with_zero_mass_is_photon():
    a4 = null_wave_potential()
    ph = photon_metric(a4)
    pr = proca_metric(a4, m0=0)
    for a in range(DIM):
        for b in range(DIM):
            assert pr.metric.lower[a][b] == ph.metric.lower[a][b]
            assert pr.claimed_upper[a][b] == ph.claimed_upper[a][b]


def test_photon_claimed_inverse_structurally_exact():
    mode = photon_metric()
    res = identity_residual(mode.metric, mode.claimed_upper)
    assert all(e == ZERO for row in res for e in row)


def test_stress_tensor_is_symmetric():
    f = field_strength(tuple(sym(f"A{i}") * x[(i + 1) % 4]
                             for i in range(4)) + (ZERO,))
    t = stress_tensor(f, fsq(f))
    for i in range(5):
        for j in range(5):
            assert simplify(t[i][j] - t[j][i]) == ZERO


def test_transverse_polarization_is_validated():
    with pytest.raises(AnsatzError, match="polarization"):
        null_wave_potential(pol=0)
    with pytest.raises(AnsatzError, match="polarization"):
        massive_wave_potential(pol=3)


# ---------------------------------------------------------------------------
# half-spin mode: independent matrix-representation oracle

_S = [np.array([[0, 1], [1, 0]], dtype=complex),
      np.array([[0, -1j], [1j, 0]], dtype=complex),
      np.array([[1, 0], [0, -1]], dtype=complex)]
_G0 = np.diag([1, 1, -1, -1]).astype(complex)
_GK = [np.block([[np.zeros((2, 2)), s], [-s, np.zeros((2, 2))]])
       for s in _S]


def _phi_numeric(sol, p1, p2, p3, m0):
    comps = dirac_components(num(str(p1)), num(str(p2)), num(str(p3)),
                             num(str(m0)), sol=sol)
    return np.array([complex(evaluate(f, {})) for f in comps.phi])


@pytest.mark.parametrize("sol", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [(0.0, 0.0, 0.6), (0.3, -0.2, 0.5)])
def test_components_solve_the_matrix_equation(sol, p):
    p1, p2, p3 = p
    m0 = 1.0
    e = (p1 * p1 + p2 * p2 + p3 * p3 + m0 * m0) ** 0.5
    slash = e * _G0 - p1 * _GK[0] - p2 * _GK[1] - p3 * _GK[2]
    sign = -1.0 if sol in (1, 2) else 1.0   # (slash -+ m) phi = 0
    op = slash + sign * m0 * np.eye(4)
    phi = _phi_numeric(sol, p1, p2, p3, m0)
    assert np.max(np.abs(op @ phi)) < 1e-12


@pytest.mark.parametrize("sol,want", [(1, 1.0), (2, 1.0), (3, -1.0),
                                      (4, -1.0)])
def test_adjoint_normalization(sol, want):
    phi = _phi_numeric(sol, 0.3, -0.2, 0.5, 1.0)
    norm = (phi.conj() @ _G0 @ phi).real
    assert abs(norm - want) < 1e-12


def test_component_table_values_at_reference_momentum():
    # independent arithmetic: D = m0 + p0, N = sqrt(D / 2 m0)
    p3, m0 = 0.6, 1.0
    p0 = (p3 * p3 + m0 * m0) ** 0.5
    d = m0 + p0
    n = (d / (2 * m0)) ** 0.5
    phi = _phi_numeric(1, 0, 0, p3, m0)
    assert np.allclose(phi, [n, 0, n * p3 / d, 0], atol=1e-14)
    phi3 = _phi_numeric(3, 0, 0, p3, m0)
    assert np.allclose(phi3, [n * p3 / d, 0, n, 0], atol=1e-14)


def test_transverse_momentum_kills_the_paired_component():
    phi = _phi_numeric(1, 0, 0, 0.6, 1.0)
    assert phi[1] == 0 and phi[3] == 0


def test_degenerate_component_inputs_are_rejected():
    with pytest.raises(AnsatzError, match="p3 = 0"):
        dirac_components(num(0), num(0), num(0), num(1))
    with pytest.raises(AnsatzError, match="positive"):
        dirac_components(num(0), num(0), num(1), num(0))
    with pytest.raises(AnsatzError, match="solution index"):
        dirac_components(num(0), num(0), num(1), num(1), sol=5)


@pytest.mark.parametrize("sol,sign", [(1, -1), (2, -1), (3, 1), (4, 1)])
def test_family_sign_tracks_solution_pair(sol, sign):
    assert dirac_metric(sol).family_sign == sign


def test_spinor_field_compact_derivative_condition():
    mode = dirac_metric(1)
    for i in range(5):
        lhs = diff(mode.K[i], x[5].symbol)
        rhs = mul(num(0, 1), sym("m0"), mode.K[i])
        assert is_zero(simplify(lhs - rhs), positive=_POS).verdict == "zero"


def test_halfspin_claimed_inverse_full_reading_exact():
    mode = dirac_metric(1)
    res = identity_residual(mode.metric, mode.claimed_upper)
    assert all(e == ZERO for row in res for e in row)


def test_halfspin_greek_reading_fails_only_in_compact_row():
    mode = dirac_metric(1)
    res = identity_residual(mode.metric, mode.claimed_upper_greek)
    bad = set()
    for a in range(DIM):
        for b in range(DIM):
            if res[a][b] == ZERO:
                continue
            if is_zero(res[a][b], trials=8, positive=_POS).verdict != "zero":
                bad.add((a, b))
    assert bad
    assert all(a == 4 for a, _ in bad)


# ---------------------------------------------------------------------------
# coupled and gravity families

def test_coupled_field_compact_twist_condition():
    mode = coupled_metric(1)
    for i in range(5):
        lhs = diff(mode.K[i], x[4].symbol)
        rhs = mul(num(0, -1), sym("gamma"), mode.K[i])
        assert is_zero(simplify(lhs - rhs), positive=_POS).verdict == "zero"


def test_coupled_reduces_to_halfspin_at_zero_twist():
    plain = dirac_metric(2).metric
    coup = coupled_metric(2, gamma=0).metric
    for a in range(DIM):
        for b in range(DIM):
            assert coup.lower[a][b] == plain.lower[a][b]


@pytest.mark.parametrize("family", ["scalar", "proca", "dirac"])
def test_gravity_flat_unit_coupling_reproduces_family(family):
    if family == "scalar":
        params = {"p": tuple(sym(f"p{i}") for i in range(4))}
        base = scalar_metric(**params).metric
    elif family == "proca":
        a4 = massive_wave_potential()
        params = {"A": a4}
        base = proca_metric(a4).metric
    else:
        params = {"sol": 1}
        base = dirac_metric(1).metric
    gm = gravity_metric(family, None, 1, **params).metric
    for a in range(DIM):
        for b in range(DIM):
            d = simplify(gm.lower[a][b] - base.lower[a][b])
            assert is_zero(d, trials=6, positive=_POS).verdict == "zero", \
                (a, b)


def test_weak_field_block_shape():
    g4 = weak_field_block(sym("eps"))
    assert to_text(g4[0][0]) == "1 + 2*eps*x1"
    assert g4[1][1] == MINUS_ONE
    assert g4[0][1] == ZERO


def test_gravity_rejects_unknown_family():
    with pytest.raises(AnsatzError, match="unknown family"):
        gravity_metric("tensor")
