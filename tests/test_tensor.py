"""6x6 metric container: symmetry and inverse machinery."""
from fractions import Fraction
from types import SimpleNamespace

import pytest

import kk6.curvature
import kk6.expr
import kk6.tensor
from kk6.expr import (
    I, MINUS_ONE, ONE, ZERO, _Ctx, add, coords, exp, mul, num, power,
    simplify, sqrt, sym, to_text,
)
from kk6.tensor import (
    DIM, Metric6, adjugate, identity_residual, invert_metric,
)
from kk6.curvature import christoffel, einstein, ricci, ricci_scalar
from kk6.ansatz import (
    coupled_metric, dirac_metric, gravity_metric, photon_metric,
    proca_metric, scalar_metric, weak_field_block,
)
from kk6.zeros import is_zero
from test_curvature import _reachable
from test_golden_records import CURVATURE, curvature_metrics

x0, x1, x2, x3, x4, x5 = coords()


def _diagonal(entries) -> Metric6:
    return Metric6([[entries[a] if a == b else ZERO for b in range(DIM)]
                    for a in range(DIM)])


def _flat() -> Metric6:
    return _diagonal((ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE, ONE, MINUS_ONE))


def test_flat_metric_shape_and_det():
    f = _flat()
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
    m = _diagonal((ONE, x0, ONE, ONE, ONE, x1))
    assert is_zero(m.det() - mul(x0, x1)).verdict == "zero"


def test_upper_inverts_scalar_mode_metric():
    m = scalar_metric().metric
    res = identity_residual(m, m.upper())
    assert all(e == ZERO for row in res for e in row)
    # the compact-compact inverse entry is the reciprocal phase square
    assert is_zero(m.upper()[4][4] - power(m.lower[4][4], -1)).verdict == "zero"


def test_determinant_expansion_matches_identity_residual():
    m = scalar_metric().metric
    assert is_zero(m.det() - m.lower[4][4]).verdict == "zero"
    res = identity_residual(m, m.upper())
    assert all(is_zero(e).verdict == "zero" for row in res for e in row)


# every family of ``golden_metrics.json``, with its printed inverse(s)
FAMILIES = {
    "photon": photon_metric,
    "proca": proca_metric,
    **{f"dirac{s}": (lambda s=s: dirac_metric(s)) for s in (1, 2, 3, 4)},
    "coupled": lambda: coupled_metric(1),
    **{f"gravity-{fam}": (lambda build=build: SimpleNamespace(
        metric=gravity_metric(build(), weak_field_block())))
       for fam, build in (("scalar", scalar_metric), ("proca", proca_metric),
                          ("dirac", dirac_metric))},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_identity_residual_is_the_tree_route(family):
    # one contraction per entry gives the node that simplifying the
    # row-column sum minus the identity gives
    mode = FAMILIES[family]()
    g = mode.metric.lower
    grids = [getattr(mode, k) for k in ("claimed_upper", "claimed_upper_greek")
             if hasattr(mode, k)]
    grids.append(mode.metric.upper())
    for up in grids:
        res = identity_residual(mode.metric, up)
        for a in range(DIM):
            for b in range(DIM):
                tree = simplify(add(*(mul(up[a][c], g[c][b])
                                      for c in range(DIM)),
                                    MINUS_ONE if a == b else ZERO))
                assert res[a][b] is tree, (a, b)


def _laplace_tree(grid, rows, cols, memo):
    # the reference: the minor on rows and cols as a mul/add tree, expanded
    # along its first row, zero entries and zero sub-minors skipped, each
    # sub-minor built once per memo
    if len(rows) == 1:
        return grid[rows[0]][cols[0]]
    key = (rows, cols)
    got = memo.get(key)
    if got is not None:
        return got
    r0, rest = rows[0], rows[1:]
    parts = []
    for j, c in enumerate(cols):
        e = grid[r0][c]
        if e == ZERO:
            continue
        sub = _laplace_tree(grid, rest, cols[:j] + cols[j + 1:], memo)
        if sub == ZERO:
            continue
        term = mul(e, sub)
        if j % 2:
            term = mul(MINUS_ONE, term)
        parts.append(term)
    out = memo[key] = add(*parts)
    return out


def _full_adjugate(grid):
    # all 36 signed minors, each expanded along its own first row
    memo = {}
    out = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            m = _laplace_tree(grid, tuple(r for r in range(DIM) if r != j),
                              tuple(c for c in range(DIM) if c != i), memo)
            row.append(simplify(mul(MINUS_ONE, m) if (i + j) % 2 else m))
        out.append(row)
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mirrored_adjugate_is_the_full_minor_expansion(family):
    # the transposed minor, expanded along the other index, simplifies to
    # the same node
    grid = FAMILIES[family]().metric.lower
    full = _full_adjugate(grid)
    adj = adjugate(grid)
    for a in range(DIM):
        for b in range(DIM):
            assert adj[a][b] is full[a][b], (a, b)


def test_the_adjugate_is_one_contraction_per_mirrored_minor(monkeypatch):
    # the scalar-mode metric has no literal pivot: one contraction per
    # signed minor for i <= j; the module can build no sum tree and call
    # no simplify, as it imports neither (and reads every name it imports)
    calls = []

    def counted(products, ctx):
        calls.append(products)
        return kk6.expr.contract(products, ctx)
    monkeypatch.setattr(kk6.tensor, "contract", counted)
    adj = adjugate(scalar_metric().metric.lower)
    assert len(calls) == DIM * (DIM + 1) // 2
    assert all(adj[a][b] is adj[b][a] for a in range(DIM) for b in range(a))
    assert not {"add", "simplify"} & vars(kk6.tensor).keys()


def test_each_call_takes_one_kernel_context(monkeypatch):
    # the contractions of one call of adjugate, Metric6.det, invert_metric
    # or identity_residual share one context, and no two calls share one
    # (the contexts are kept, so no id is reused)
    contexts = []

    def counted(products, ctx):
        contexts[-1].append(ctx)
        return kk6.expr.contract(products, ctx)
    monkeypatch.setattr(kk6.tensor, "contract", counted)
    m = coupled_metric(1).metric
    for call in (m._adjugate, m.det, m.upper,
                 lambda: identity_residual(m, m.upper())):
        contexts.append([])
        call()
    ids = [set(map(id, c)) for c in contexts]
    assert all(len(c) == 1 for c in ids)
    assert len(set.union(*ids)) == len(ids)


@pytest.mark.parametrize("family", ["scalar", *sorted(FAMILIES)])
def test_each_minor_of_a_family_is_one_product(family, monkeypatch):
    # the sub-grid left after elimination is diagonal on every family
    sizes = []
    minor = kk6.tensor._minor

    def recorded(grid, rows, cols):
        got = minor(grid, rows, cols)
        sizes.append(len(got))
        return got
    monkeypatch.setattr(kk6.tensor, "_minor", recorded)
    build = scalar_metric if family == "scalar" else FAMILIES[family]
    adjugate(build().metric.lower)
    assert sizes and max(sizes) == 1


_LITERALS = (ONE, MINUS_ONE, num(2), num(Fraction(-1, 3)), I, ZERO)
# atoms that meet themselves in products: a root folds when met twice, and
# exp(x1) cancels exp(-x1)
_ATOMS = (x0, x1, x2, x3, exp(mul(I, x0)), exp(x1), exp(mul(MINUS_ONE, x1)),
          sqrt(x2), sqrt(add(ONE, mul(x3, x3))))


def _random_grids(st):
    literal = st.sampled_from(_LITERALS)
    atom = st.sampled_from(_ATOMS)
    symbolic = st.one_of(atom, st.builds(add, atom, atom),
                         st.builds(mul, literal, atom))
    entry = st.one_of(st.just(ZERO), literal, atom)

    @st.composite
    def grid(draw):
        # the first n of a random order of the diagonal are literal (n = 0:
        # no literal pivot, the grid is expanded by minors alone)
        order = draw(st.permutations(range(DIM)))
        literal_at = set(order[:draw(st.integers(0, DIM))])
        rows = [[None] * DIM for _ in range(DIM)]
        for a in range(DIM):
            rows[a][a] = draw(literal if a in literal_at else symbolic)
            for b in range(a):
                rows[a][b] = rows[b][a] = draw(entry)
        return tuple(map(tuple, rows))
    return grid()


def _arrow_grid():
    # literal 1 on diagonal entries 0..4, the last row and column symbolic:
    # each elimination leaves an arrow one smaller, so the Schur recursion
    # runs 6 -> 5 -> 4 -> 3 -> 2 -> 1, down to its 1x1 floor, whose one
    # minor is empty: its products [()] contract to the adjugate 1, with no
    # special case for n == 1
    edge = tuple(sym(s) for s in ("p1", "p2", "p3", "k3", "omega"))
    rows = [[ONE if a == b else ZERO for b in range(DIM)] for a in range(DIM)]
    for a in range(5):
        rows[a][5] = rows[5][a] = edge[a]
    rows[5][5] = sym("m0")
    return tuple(map(tuple, rows))


def test_adjugate_is_the_full_minor_expansion_on_random_grids():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.example(_arrow_grid())
    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None,
                         suppress_health_check=[
                             hypothesis.HealthCheck.too_slow])
    @hypothesis.given(_random_grids(hypothesis.strategies))
    def check(grid):
        adj, full = adjugate(grid), _full_adjugate(grid)
        assert all(adj[a][b] is full[a][b]
                   for a in range(DIM) for b in range(DIM))
    check()


@pytest.mark.parametrize("label", list(curvature_metrics()))
def test_det_is_the_laplace_tree(label):
    # the first-row expansion over the cached adjugate gives the node that
    # simplifying the full Laplace tree gives
    m = curvature_metrics()[label]
    tree = simplify(_laplace_tree(m.lower, tuple(range(DIM)),
                                  tuple(range(DIM)), {}))
    assert m.det() is tree


_PHASE = ("exp(-2*i*x0*sqrt(m0^2 + p1^2 + p2^2 + p3^2) + 2*i*m0*x5 + "
          "2*i*p1*x1 + 2*i*p2*x2 + 2*i*p3*x3)")
# each benchmark curvature input's determinant: 1 or the scalar mode's
# compact phase, times g_00 of the weak-field block
BENCHMARK_DETS = {
    "scalar": _PHASE,
    "photon": "1",
    "proca": "1",
    "gravity-scalar": f"{_PHASE} + 2*eps*x1*{_PHASE}",
    "gravity-proca": "1 + 2*eps*x1",
    "dirac1": "1",
    "coupled": "1",
    "gravity-dirac": "1 + 1/5*x1",
}


def test_benchmark_determinants_are_pinned():
    metrics = curvature_metrics()
    assert {label: to_text(metrics[label].det())
            for label in CURVATURE} == BENCHMARK_DETS


def test_invert_metric_contracts_each_mirrored_pair_once(monkeypatch):
    # 21 inverse entries, and the determinant's one contraction; the
    # adjugate, read first, makes its own
    calls = []

    def counted(products, ctx):
        calls.append(products)
        return kk6.expr.contract(products, ctx)
    m = coupled_metric(1).metric
    m._adjugate()
    monkeypatch.setattr(kk6.tensor, "contract", counted)
    up = invert_metric(m)
    assert len(calls) == DIM * (DIM + 1) // 2 + 1
    assert all(up[a][b] is up[b][a] for a in range(DIM) for b in range(a))


def test_invert_metric_equals_adjugate_route():
    m = photon_metric().metric
    computed = invert_metric(m)
    res = identity_residual(m, computed)
    assert all(is_zero(e).verdict == "zero" for row in res for e in row)


def test_flat_connection_vanishes():
    g = christoffel(_flat())
    assert all(g[a][b][c] == ZERO
               for a in range(DIM) for b in range(DIM) for c in range(DIM))


def test_a_singular_metric_witness_is_the_zero_tests_first_point():
    # det = x0 (sqrt(m0^2) - m0) vanishes only for a positive m0, which the
    # symbol table states; the witness is the point the zero test drew first
    m0 = sym("m0")
    g = _diagonal((mul(x0, add(sqrt(power(m0, 2)), mul(MINUS_ONE, m0))),
                   MINUS_ONE, MINUS_ONE, MINUS_ONE, ONE, MINUS_ONE))
    _assert_refused_at_the_first_point(g)


def _assert_refused_at_the_first_point(g: Metric6):
    assert g.det() != ZERO
    with pytest.raises(kk6.tensor.SingularMetricError) as err:
        invert_metric(g)
    first = is_zero(add(g.det(), ONE), seed=0).witness   # nonzero at once
    assert set(err.value.witness) == {"m0", "x0"}
    assert err.value.witness == first
    assert err.value.witness["m0"].real > 0


def test_a_singular_metric_on_a_literal_pivot_keeps_its_witness():
    # g44 = 1 is eliminated against g04 = x0, leaving det =
    # x0 (sqrt(m0^2) - m0), which still vanishes only for a positive m0;
    # the witness is the zero test's first point
    m0 = sym("m0")
    rows = [[ZERO] * DIM for _ in range(DIM)]
    for a, e in enumerate((add(mul(x0, x0), mul(x0, sqrt(power(m0, 2))),
                               mul(MINUS_ONE, x0, m0)),
                           MINUS_ONE, MINUS_ONE, MINUS_ONE, ONE, MINUS_ONE)):
        rows[a][a] = e
    rows[0][4] = rows[4][0] = x0
    g = Metric6(rows)
    adj, full = adjugate(g.lower), _full_adjugate(g.lower)
    assert all(adj[a][b] is full[a][b] for a in range(DIM) for b in range(DIM))
    _assert_refused_at_the_first_point(g)


def test_metric_requires_six_rows():
    with pytest.raises(ValueError):
        Metric6([[ONE]])


# ---------------------------------------------------------------------------
# the grid cache: one stage dict per grid, shared by every build on it

_STAGES = (Metric6.det, Metric6.upper, christoffel, ricci, ricci_scalar,
           einstein)


def test_an_equal_grid_reads_the_first_builds_stages(monkeypatch):
    first = proca_metric().metric
    got = [stage(first) for stage in _STAGES]
    calls = []

    def counted(products, ctx):
        calls.append(products)
        return kk6.expr.contract(products, ctx)
    monkeypatch.setattr(kk6.curvature, "contract", counted)
    monkeypatch.setattr(kk6.tensor, "contract", counted)
    again = Metric6([list(r) for r in first.lower])
    assert again is not first and again._cache is first._cache
    for stage, one in zip(_STAGES, got):
        assert stage(again) is one
    assert calls == []


def test_the_grid_cache_evicts_the_least_recently_used_grid():
    size = kk6.tensor._stages_of.cache_info().maxsize
    assert size == 16
    grids = [_diagonal((num(k), MINUS_ONE, MINUS_ONE, MINUS_ONE, ONE,
                        MINUS_ONE)).lower for k in range(1, size + 2)]
    caches = [Metric6(g)._cache for g in grids[:size]]
    assert Metric6(grids[0])._cache is caches[0]      # a hit refreshes it
    Metric6(grids[size])                              # the 17th grid
    assert kk6.tensor._stages_of.cache_info().currsize == size
    assert Metric6(grids[0])._cache is caches[0]
    assert Metric6(grids[1])._cache is not caches[1]  # evicted first
    assert all(Metric6(grids[k])._cache is caches[k]
               for k in range(3, size))


def test_a_singular_grid_raises_on_every_build():
    m0 = sym("m0")
    entries = (mul(x0, add(sqrt(power(m0, 2)), mul(MINUS_ONE, m0))),
               MINUS_ONE, MINUS_ONE, MINUS_ONE, ONE, MINUS_ONE)
    errors = []
    for _ in range(2):
        with pytest.raises(kk6.tensor.SingularMetricError) as err:
            _diagonal(entries).upper()
        errors.append(err.value)
    assert errors[1].det is errors[0].det
    assert errors[1].witness == errors[0].witness
    assert "upper" not in _diagonal(entries)._cache


def test_the_grid_cache_keeps_no_kernel_context():
    # proca and coupled take Ricci's phase route, gravity-proca the
    # general one
    metrics = curvature_metrics()
    for label in ("proca", "coupled", "gravity-proca"):
        einstein(metrics[label])
    entries = [Metric6(m.lower)._cache for m in metrics.values()]
    assert sum(len(e) for e in entries) >= 16
    assert not any(isinstance(o, _Ctx) for o in _reachable(entries))
