"""Metric family constructors: component tables against an independent
matrix-representation oracle, defining derivative conditions, reduction
chains, and claimed inverses."""
import numpy as np
import pytest

from kk6.ansatz import (
    ETA5, IDX5, AnsatzError, coupled_metric, dirac_components, dirac_metric,
    field_strength, fsq, gravity_metric, massive_wave_potential,
    null_wave_potential, onshell_energy, photon_metric,
    proca_metric, scalar_metric, stress_tensor, weak_field_block,
)
from kk6.expr import (
    MINUS_ONE, ONE, ZERO, add, context, coords, diff, mul, num, power, simplify,
    subs, sym, to_text,
)
from kk6.tensor import DIM, identity_residual
from kk6.zeros import evaluate, is_zero

x = coords()


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


def test_scalar_compact_entry_has_unit_modulus():
    # a phase: at real momenta and coordinates |g44| = 1
    mode = scalar_metric()
    env = {name: 0.3 + 0.17 * i for i, name in enumerate(
        ("p0", "p1", "p2", "p3", "m0", "x0", "x1", "x2", "x3", "x5"))}
    assert abs(complex(evaluate(mode.g44, env))) == pytest.approx(1, abs=1e-15)


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
    assert is_zero(simplify(fsq(f))).verdict == "nonzero"


def test_proca_field_satisfies_compact_derivative_condition():
    mode = proca_metric()
    for a in range(4):
        lhs = diff(mode.K[a], x[5].symbol)
        rhs = mul(num(0, 1), sym("m0"), mode.K[a])
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
    t, f2 = stress_tensor(f)
    assert f2 is fsq(f)
    for i in range(5):
        for j in range(5):
            assert simplify(t[i][j] - t[j][i]) == ZERO


def test_field_strength_refuses_a_field_without_five_components():
    with pytest.raises(AnsatzError, match="five components"):
        field_strength((ZERO,) * 4)


@pytest.mark.parametrize("build", [photon_metric, proca_metric])
def test_vector_modes_refuse_a_potential_without_four_components(build):
    with pytest.raises(AnsatzError, match="potential must have four"):
        build((ZERO,) * 3)


@pytest.mark.parametrize("build", [photon_metric, proca_metric])
def test_vector_inverse_full_trace_is_the_4d_trace(build):
    # with K5 = 0 the trace over all capital indices adds only a zero
    # product, which the contraction drops: node for node the 4d trace
    from kk6.ansatz import _claimed_upper, _trace4
    mode = build()
    k4 = mode.K[:4]
    want = _claimed_upper(k4, ZERO, _trace4(k4))
    for a in range(DIM):
        for b in range(DIM):
            assert mode.claimed_upper[a][b] is want[a][b], (a, b)


@pytest.mark.parametrize("build, lazy", [
    (photon_metric, {"metric", "claimed_upper"}),
    (proca_metric, {"metric", "claimed_upper"}),
    (coupled_metric, {"metric", "claimed_upper"}),
    (dirac_metric, {"metric", "claimed_upper", "claimed_upper_greek",
                    "stress"}),
])
def test_a_field_mode_builds_each_derived_object_on_first_read(build, lazy):
    # each is built on its own first read, and read again it is the
    # object kept
    mode = build()
    assert not lazy & set(mode.__dict__)
    for name in sorted(lazy):
        first = getattr(mode, name)
        assert name in mode.__dict__
        assert getattr(mode, name) is first
    assert mode.metric.lower[0][4] is mode.K[0]


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
    # a numeric m0 that is not a positive real: negative, or complex
    for m0 in (num(-1), num(1, 1)):
        with pytest.raises(AnsatzError, match="positive"):
            dirac_components(num(0), num(0), num(1), m0)
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
        assert is_zero(simplify(lhs - rhs)).verdict == "zero"


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
            if is_zero(res[a][b], trials=8).verdict != "zero":
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
        assert is_zero(simplify(lhs - rhs)).verdict == "zero"


def test_coupled_reduces_to_halfspin_at_zero_twist():
    plain = dirac_metric(2).metric
    coup = coupled_metric(2, gamma=0).metric
    for a in range(DIM):
        for b in range(DIM):
            assert coup.lower[a][b] == plain.lower[a][b]


# one built mode of each kind; "dirac" is solution 1
FLAT_MODES = {
    "scalar": lambda: scalar_metric(p=tuple(sym(f"p{i}") for i in range(4))),
    "photon": photon_metric,
    "proca": lambda: proca_metric(massive_wave_potential()),
    "dirac": lambda: dirac_metric(1),
    **{f"dirac{s}": (lambda s=s: dirac_metric(s)) for s in (2, 3, 4)},
    "coupled": lambda: coupled_metric(1),
}


@pytest.mark.parametrize("family", list(FLAT_MODES))
def test_gravity_flat_unit_coupling_reproduces_family(family):
    # over the flat block at kappa = 1 (the scalar mode takes no kappa)
    # the coupling step gives the mode's own entries, node for node
    mode = FLAT_MODES[family]()
    kappa = None if family == "scalar" else 1
    gm = gravity_metric(mode, None, kappa)
    for a in range(DIM):
        for b in range(DIM):
            assert gm.lower[a][b] is mode.metric.lower[a][b], (a, b)


def test_gravity_scalar_mode_refuses_kappa():
    # the scalar mode has no field, so a coupling constant would go unread
    with pytest.raises(AnsatzError, match="no field for kappa"):
        gravity_metric(scalar_metric(), weak_field_block(), 1)


@pytest.mark.parametrize("g4", [
    tuple(tuple(ONE if a == b else ZERO for b in range(3)) for a in range(3)),
    tuple((ONE, ZERO, ZERO) for _ in range(4)),
])
def test_gravity_refuses_a_block_that_is_not_4x4(g4):
    with pytest.raises(AnsatzError, match="4x4"):
        gravity_metric(photon_metric(), g4)


def test_weak_field_block_shape():
    g4 = weak_field_block(sym("eps"))
    assert to_text(g4[0][0]) == "1 + 2*eps*x1"
    assert g4[1][1] == MINUS_ONE
    assert g4[0][1] == ZERO


# ---------------------------------------------------------------------------
# the builders are the tree route

# every family of ``golden_metrics.json``
GOLDEN_FAMILIES = {
    "photon": photon_metric,
    "proca": proca_metric,
    **{f"dirac{s}": (lambda s=s: dirac_metric(s)) for s in (1, 2, 3, 4)},
    "coupled": lambda: coupled_metric(1),
    **{f"gravity-{fam}": (lambda build=build: gravity_metric(
        build(), weak_field_block()))
       for fam, build in (("scalar", scalar_metric), ("proca", proca_metric),
                          ("dirac", dirac_metric))},
}


def _tree_rows(g4, K, K5=ZERO, kappa=ONE):
    k2 = power(kappa, 2)
    rows = [[ZERO] * DIM for _ in range(DIM)]
    for a in range(4):
        for b in range(4):
            rows[a][b] = simplify(add(g4[a][b], mul(k2, K[a], K[b])))
        rows[a][4] = rows[4][a] = simplify(mul(kappa, K[a]))
        rows[a][5] = rows[5][a] = simplify(mul(k2, K[a], K5))
    rows[4][4] = ONE
    rows[4][5] = rows[5][4] = simplify(mul(kappa, K5))
    rows[5][5] = simplify(add(MINUS_ONE, mul(k2, power(K5, 2))))
    return rows


def _tree_field_strength(a5):
    out = [[ZERO] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            out[i][j] = simplify(add(diff(a5[j], x[IDX5[i]]),
                                     mul(MINUS_ONE, diff(a5[i], x[IDX5[j]]))))
            out[j][i] = simplify(mul(MINUS_ONE, out[i][j]))
    return out


def _tree_div(v):
    return simplify(add(*(mul(ETA5[i], diff(e, x[IDX5[i]]))
                          for i, e in enumerate(v))))


@pytest.mark.parametrize("family", sorted(GOLDEN_FAMILIES))
def test_builders_are_the_tree_route(family, monkeypatch):
    # each builder's contractions and derivatives give the node that
    # simplifying its sum of products or its derivative tree gives.  The
    # tree route goes first: a kernel result is marked as its own
    # ``simplify`` result, so a wrong one met first would be served from
    # that cache to the tree route.  So the family is built with tree-route
    # rows, and every tree below is formed before any builder runs.
    from kk6 import ansatz
    from kk6.verify import _div
    rows_calls = []

    def tree_rows(g4, K, K5=ZERO, kappa=ONE):
        rows_calls.append(((g4, K, K5, kappa), _tree_rows(g4, K, K5, kappa)))
        return [list(r) for r in rows_calls[-1][1]]

    monkeypatch.setattr(ansatz, "kk_rows", tree_rows)
    built = GOLDEN_FAMILIES[family]()
    if isinstance(built, ansatz.FieldMode):
        built.metric        # a field mode builds its rows on first read
    monkeypatch.undo()

    # the field of the family's own rows, over IDX5
    _, K, K5, _ = rows_calls[-1][0]
    a5 = tuple(K) + (K5,)
    f = _tree_field_strength(a5)
    f2 = simplify(add(*(mul(ETA5[i], ETA5[j], power(f[i][j], 2))
                        for i in range(5) for j in range(5))))
    t = [[simplify(add(mul(num("1/4"), ETA5[i], f2) if i == j else ZERO,
                       *(mul(MINUS_ONE, ETA5[k], f[i][k], f[j][k])
                         for k in range(5))))
          for j in range(5)] for i in range(5)]
    # the divergence of the field and of each column of its strength
    fields = [a5, *([f[i][j] for i in range(5)] for j in range(5))]
    divs = [_tree_div(v) for v in fields]

    for args, tree in rows_calls:
        rows = ansatz.kk_rows(*args)
        for a in range(DIM):
            for b in range(DIM):
                assert rows[a][b] is tree[a][b], ("kk_rows", a, b)
    got = field_strength(a5)
    for i in range(5):
        for j in range(5):
            assert got[i][j] is f[i][j], ("field_strength", i, j)
    assert fsq(f) is f2
    got, got_f2 = stress_tensor(f)
    assert got_f2 is f2
    for i in range(5):
        for j in range(5):
            assert got[i][j] is t[i][j], ("stress_tensor", i, j)
    for v, tree in zip(fields, divs):
        assert _div(v, context()) is tree
