"""6x6 metric container: symmetry, inverse machinery, dense tensors."""
import pytest

from kk6.expr import ONE, ZERO, coords, exp, mul, num, power, sym, to_text
from kk6.tensor import (
    DIM, Metric6, build, determinant, diagonal_metric, flat6,
    identity_residual, invert_metric, matmul, verify_claimed_inverse,
)
from kk6.curvature import christoffel
from kk6.ansatz import photon_metric, scalar_metric
from kk6.zeros import is_zero

x0, x1, x2, x3, x4, x5 = coords()


def test_flat_metric_shape_and_det():
    f = flat6()
    assert [to_text(f.lower[a][a]) for a in range(DIM)] == [
        "1", "-1", "-1", "-1", "1", "-1"]
    assert f.det() == ONE
    assert f.upper() == f.lower          # flat diagonal is its own inverse


def test_asymmetric_rows_rejected():
    rows = [[ZERO] * DIM for _ in range(DIM)]
    for a in range(DIM):
        rows[a][a] = ONE
    rows[0][1] = x1                      # no matching (1,0) entry
    with pytest.raises(ValueError, match="not symmetric"):
        Metric6(rows)


def test_diagonal_metric_det_is_product():
    m = diagonal_metric((ONE, x0, ONE, ONE, ONE, x1))
    assert is_zero(m.det() - mul(x0, x1)).verdict == "zero"


def test_upper_inverts_scalar_mode_metric():
    m = scalar_metric().metric
    res = identity_residual(m, m.upper())
    assert all(e == ZERO for row in res for e in row)
    # the compact-compact inverse entry is the reciprocal phase square
    assert is_zero(m.upper()[4][4] - power(m.lower[4][4], -1)).verdict == "zero"


def test_determinant_expansion_matches_matmul_identity():
    m = scalar_metric().metric
    assert is_zero(m.det() - m.lower[4][4]).verdict == "zero"
    prod = matmul(m.upper(), m.lower)
    for a in range(DIM):
        for b in range(DIM):
            want = ONE if a == b else ZERO
            assert is_zero(prod[a][b] - want).verdict == "zero"


def test_invert_metric_equals_adjugate_route():
    m = photon_metric().metric
    computed = invert_metric(m)
    res = identity_residual(m, computed)
    assert all(is_zero(e).verdict == "zero" for row in res for e in row)


def test_verify_claimed_inverse_exact_for_photon():
    mode = photon_metric()
    chk = verify_claimed_inverse(mode.metric, mode.claimed_upper)
    assert chk.exact
    assert chk.failures == ()
    assert chk.max_residual < chk.tol
    assert chk.structural_zeros == 36    # every entry is literally zero


def test_verify_claimed_inverse_reports_failing_entries():
    mode = photon_metric()
    wrong = [list(row) for row in mode.claimed_upper]
    wrong[5][5] = ONE                    # flip the sign of one entry
    chk = verify_claimed_inverse(mode.metric, wrong)
    assert not chk.exact
    assert (5, 5) in {(a, b) for a, b, _ in chk.failures}
    assert chk.max_residual >= chk.tol
    assert chk.structural_zeros == 36 - len(chk.failures)


def test_build_and_entry_access():
    t = build(2, lambda a, b: num(a * 10 + b))
    assert to_text(t[2][3]) == "23"
    g = christoffel(flat6())
    assert all(g.comps[a][b][c] == ZERO
               for a in range(DIM) for b in range(DIM) for c in range(DIM))


def test_metric_requires_six_rows():
    with pytest.raises(ValueError):
        Metric6([[ONE]])
