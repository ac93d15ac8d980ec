"""Connection and curvature: symbolic identities and the independent
finite-difference oracle agree on every metric family we can evaluate."""
import gc
import inspect
import random
import types

import numpy as np
import pytest

import kk6.curvature
from kk6 import expr, tensor
from kk6.ansatz import (
    coupled_metric, dirac_metric, gravity_metric, onshell_energy,
    photon_metric, proca_metric, scalar_metric, weak_field_block,
)
from kk6.cli import build_ansatz, parse_config
from kk6.curvature import (
    _phase, christoffel, einstein, ricci, ricci_entry_raw, ricci_scalar,
)
from kk6.dynamics import connection_evaluator
from kk6.expr import (
    HALF, I, MINUS_ONE, ONE, ZERO, _Ctx, context, contract, coords, derive,
    exp, mul, num, simplify, sqrt, sym,
)
from kk6.oracle import (
    H_CONNECTION, H_METRIC, christoffel_fd, compile_expr, einstein_fd,
    metric_evaluator, ricci_fd,
)
from kk6.tensor import DIM, Metric6
from kk6.zeros import is_zero
from test_dynamics import _dense_connection
from test_golden_records import CURVATURE, curvature_metrics

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


def _numeric_coupled():
    return coupled_metric(1, num("1/5"), num("1/4"), num("3/5"), num(1),
                          gamma=num("1/2")).metric


def _numeric_gravity_proca():
    from kk6.ansatz import massive_wave_potential
    mode = proca_metric(massive_wave_potential(num("1/2"), num(1)), num(1))
    return gravity_metric(mode, weak_field_block(num("1/10")), num("1/2"))


def _numeric_gravity_dirac():
    return gravity_metric(dirac_metric(1, 0, 0, num("3/4"), num(1)),
                          weak_field_block(num("1/10")), num(1))


def _diagonal(entries) -> Metric6:
    return Metric6([[entries[a] if a == b else ZERO for b in range(DIM)]
                    for a in range(DIM)])


def _smooth_diagonal(seed=3):
    """Seeded smooth diagonal metric with exponential coordinate ripples."""
    rng = random.Random(seed)
    entries = []
    signs = (1, -1, -1, -1, 1, -1)
    for a in range(DIM):
        k = num(0, rng.randint(1, 3))
        ripple = exp(mul(num("1/10"), k, x[(a + 1) % DIM]))
        entries.append(mul(num(signs[a]), ripple))
    return _diagonal(entries)


def test_flat_curvature_vanishes():
    flat = _diagonal((ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE, ONE, MINUS_ONE))
    assert ricci_scalar(flat) == ZERO
    assert all(e == ZERO for row in einstein(flat) for e in row)
    assert not _dense_connection(flat)([0.5j] * DIM).any()
    assert connection_evaluator(flat)([0.5j] * (2 * DIM)) == [0] * DIM


def _symbolic_gravity_scalar():
    p1, p2, p3, m0 = sym("p1"), sym("p2"), sym("p3"), sym("m0")
    return gravity_metric(scalar_metric(p=(onshell_energy(p1, p2, p3, m0),
                                           p1, p2, p3), m0=m0),
                          weak_field_block())


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
            gap = ricci_entry_raw(m, b, a) - r[a][b]
            assert is_zero(gap).verdict == "zero", (a, b)


def _unpaired_ricci_products(m, a, ctx):
    # the Ricci formula at (a, a) with all 36 quadratic products written
    # out, (c, d) and (d, c) apart
    g = christoffel(m)
    trace = [contract([(g[c][b][c],) for c in range(DIM)], ctx)
             for b in range(DIM)]
    ps = [(derive(g[c][a][a], x[c], ctx),) for c in range(DIM)]
    ps.append((MINUS_ONE, derive(trace[a], x[a], ctx)))
    ps += [(g[c][a][a], trace[c]) for c in range(DIM)]
    ps += [(MINUS_ONE, g[c][a][d], g[d][a][c])
           for c in range(DIM) for d in range(DIM)]
    return ps


@pytest.mark.parametrize("label", ["photon", "proca", "scalar",
                                   "gravity-scalar", "dirac1"])
def test_ricci_diagonal_pairs_equal_products(label):
    # on the diagonal Gamma^c_ad Gamma^d_ac is one product of the same two
    # factors as its (d, c) partner: 21 products stand for the 36
    m = curvature_metrics()[label]
    r = ricci(m)
    for a in range(DIM):
        ps = _unpaired_ricci_products(m, a, context())
        assert len(ps) == 49
        assert r[a][a] is contract(ps, context()), a


def _fresh(metric) -> Metric6:
    # the metric on an empty grid cache and contraction memo, so that its
    # Ricci tensor is formed here, by the route under test
    expr._CONTRACTED.clear()
    tensor._stages_of.cache_clear()
    return Metric6(metric.lower)


def _built(aid, *args) -> Metric6:
    cfg = parse_config("\n".join(("command=curvature", f"ansatz={aid}",
                                   *args)))
    return build_ansatz(aid, cfg.params)[0]


_POINT = CURVATURE["dirac1"]                # the benchmark's spinor point

# label -> (ansatz, CLI arguments) of metrics that depend on the
# coordinates through one plane-wave phase
PHASE_INPUTS = {
    "scalar": ("scalar",), "photon": ("photon",), "proca": ("proca",),
    **{f"dirac{s}": (f"dirac{s}", *_POINT) for s in range(1, 5)},
    "coupled": ("coupled", *_POINT),
    "dirac1 irrational": ("dirac1", "p1=1/2", "p2=1/3", "p3=1/4", "m0=1"),
    "gravity-dirac eps=0": ("gravity-dirac", *_POINT, "eps=0", "kappa=1"),
    "dirac1 symbolic": ("dirac1",),
    "coupled symbolic": ("coupled",),
}


@pytest.mark.parametrize("label", list(PHASE_INPUTS))
def test_the_phase_route_gives_the_general_route_s_nodes(label):
    m = _fresh(_built(*PHASE_INPUTS[label]))
    r = ricci(m)
    assert _phase(m) and "christoffel" not in m._cache
    for a in range(DIM):
        for b in range(a, DIM):
            assert r[a][b] is ricci_entry_raw(m, a, b), (a, b)


_FLAT = (ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE, ONE, MINUS_ONE)


def _diagonal_with(*head) -> Metric6:
    # the flat diagonal with its first entries replaced by ``head``
    return _diagonal((*head, *_FLAT[len(head):]))


# label -> metric that the phase certificate must refuse
FALLBACK_INPUTS = {
    **{aid: (lambda aid=aid: _built(aid, *CURVATURE[aid]))
       for aid in ("gravity-scalar", "gravity-proca", "gravity-dirac")},
    "probe.ricci": lambda: curvature_metrics()["probe.ricci"],
    "flat": _diagonal_with,
    "exp(x1^2)": lambda: _diagonal_with(exp(mul(x[1], x[1]))),
    "two phases": lambda: _diagonal_with(exp(mul(I, x[0])),
                                         mul(MINUS_ONE, exp(mul(I, x[1])))),
    "sqrt(x2)": lambda: _diagonal_with(sqrt(x[2])),
    "bare coordinate": lambda: _diagonal_with(mul(x[1], exp(mul(I, x[0])))),
}


@pytest.mark.parametrize("label", list(FALLBACK_INPUTS))
def test_a_metric_the_certificate_refuses_takes_the_general_route(label):
    m = _fresh(FALLBACK_INPUTS[label]())
    assert _phase(m) == ()
    r = ricci(m)
    assert "christoffel" in m._cache
    for a in range(DIM):
        for b in range(a, DIM):
            assert r[a][b] is ricci_entry_raw(m, a, b), (a, b)


def test_scalar_mode_ricci_scalar_structurally_zero():
    m = scalar_metric(p=(onshell_energy(sym("p1"), sym("p2"), sym("p3"),
                                        sym("m0")),
                         sym("p1"), sym("p2"), sym("p3"))).metric
    assert ricci_scalar(m) == ZERO


def test_scalar_einstein_is_momentum_product():
    p1, p2, p3, m0 = sym("p1"), sym("p2"), sym("p3"), sym("m0")
    mode = scalar_metric(p=(onshell_energy(p1, p2, p3, m0), p1, p2, p3))
    g = einstein(mode.metric)
    q = list(mode.grad[:4]) + [ZERO, mode.grad[4]]   # lower gradient by index
    for a in range(DIM):
        for b in range(DIM):
            assert simplify(g[a][b] - mul(q[a], q[b])) == ZERO, (a, b)


def test_offshell_scalar_curvature_is_nonzero():
    m = scalar_metric().metric            # p0 left free: no dispersion
    assert is_zero(ricci_scalar(m)).verdict == "nonzero"


@pytest.mark.parametrize("factory", [
    _numeric_scalar, _numeric_photon, _numeric_proca, _numeric_dirac,
    _numeric_coupled, _numeric_gravity_proca, _numeric_gravity_dirac,
    _smooth_diagonal,
])
def test_christoffel_matches_fd_oracle(factory):
    metric = factory()
    gf = metric_evaluator(metric)
    gamma = christoffel(metric)
    conn = _dense_connection(metric)
    for pt in _sample_points(11, 3):
        # one compiled function per tensor gives each entry's own compiled
        # value, bit for bit
        assert np.array_equal(gf(pt), _tensor_eval(metric.lower, 2, pt))
        sym_val = _tensor_eval(gamma, 3, pt)
        assert np.array_equal(conn(pt), sym_val)
        fd_val = christoffel_fd(gf, pt)
        assert np.max(np.abs(sym_val - fd_val)) < 1e-7
    # the batch form is the closure's array row by row, bit for bit
    pts = _sample_points(12, 5)
    assert gf.many(pts).tobytes() == \
        np.stack([gf(pt) for pt in pts]).tobytes()


@pytest.mark.parametrize("factory", [
    _numeric_scalar, _numeric_photon, _smooth_diagonal,
])
def test_ricci_and_einstein_match_fd_oracle(factory):
    metric = factory()
    gf = metric_evaluator(metric)
    ric = ricci(metric)
    ein = einstein(metric)
    rs = compile_expr(ricci_scalar(metric))
    for pt in _sample_points(23, 2):
        assert np.max(np.abs(_tensor_eval(ric, 2, pt) - ricci_fd(gf, pt))) \
            < 1e-6
        rs_fd = np.einsum("ab,ab->", np.linalg.inv(gf(pt)), ricci_fd(gf, pt))
        assert abs(complex(rs(pt)) - rs_fd) < 1e-6
        assert np.max(np.abs(_tensor_eval(ein, 2, pt)
                             - einstein_fd(gf, pt))) < 1e-6


def _gravity_split_metrics():
    """The nine metrics the gravity.split claims difference (full, field
    and background per family, at eps = 1/1000 and kappa = 1), plus the
    scalar-mode metric of the geodesic claim, each with its family and
    part."""
    from kk6.ansatz import kk_rows
    from kk6.verify import _gravity_mode
    g4 = weak_field_block(num("1/1000"))
    out = []
    for family in ("scalar", "proca", "dirac"):
        mode = _gravity_mode(family)
        kappa = None if family == "scalar" else num(1)
        out += [((family, "full"), gravity_metric(mode, g4, kappa)),
                ((family, "field"), gravity_metric(mode, None, kappa)),
                ((family, "background"), Metric6(kk_rows(g4, (ZERO,) * 4)))]
    return out + [(("scalar", "geodesic"),
                   scalar_metric(p=("5/4", 0, 0, "3/4"), m0=1).metric)]


def _reference_d1(f, x, c, h):
    # the five-point stencil one point at a time
    def at(step):
        y = list(x)
        y[c] = y[c] + step
        return f(y)
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def _reference_christoffel_fd(gf, x):
    ginv = np.linalg.inv(gf(x))
    dg = np.stack([_reference_d1(gf, x, c, H_METRIC) for c in range(DIM)])
    s = dg + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2)
    return 0.5 * np.einsum("cd,adb->cab", ginv, s)


def _reference_ricci_fd(gf, x):
    gamma = _reference_christoffel_fd(gf, x)
    dgamma = np.stack([
        _reference_d1(lambda p: _reference_christoffel_fd(gf, p), x, e,
                      H_CONNECTION) for e in range(DIM)])
    trace = np.einsum("dcd->c", gamma)
    return (np.einsum("ccab->ab", dgamma) - np.einsum("bcac->ab", dgamma)
            + np.einsum("cab,c->ab", gamma, trace)
            - np.einsum("cad,dbc->ab", gamma, gamma))


def _reference_einstein_fd(gf, x):
    g = gf(x)
    r = _reference_ricci_fd(gf, x)
    return r - 0.5 * np.einsum("ab,ab->", np.linalg.inv(g), r) * g


def test_fd_oracle_batch_and_per_point_routes_agree_bit_for_bit():
    # metric_evaluator's closure has ``many``, so the whole stencil is
    # sampled as one batch; the bare lambda (the benchmark's route) has
    # none and is sampled point by point.  Both must give the reference's
    # arrays, which difference and contract one point at a time.
    rng = random.Random(41)
    for label, metric in _gravity_split_metrics():
        ev = metric_evaluator(metric)
        for _ in range(2):
            pt = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
                  for _ in range(DIM)]
            for fn, ref in ((christoffel_fd, _reference_christoffel_fd),
                            (ricci_fd, _reference_ricci_fd),
                            (einstein_fd, _reference_einstein_fd)):
                want = ref(ev, pt)
                assert np.isfinite(want).all(), (label, fn.__name__)
                for gf in (ev, lambda x: ev(x)):
                    assert fn(gf, pt).tobytes() == want.tobytes(), \
                        (label, fn.__name__)


def _reference_christoffel_entry(metric, c, a, b):
    # the second-kind route: each metric derivative against the inverse
    # row, 18 products an entry
    ctx = context()
    g, gu = metric.lower, metric.upper()

    def dg(e, p, q):
        return derive(g[p][q], x[e], ctx)
    parts = []
    for d in range(DIM):
        parts += ((HALF, gu[c][d], dg(a, d, b)),
                  (HALF, gu[c][d], dg(b, d, a)),
                  (MINUS_ONE, HALF, gu[c][d], dg(d, a, b)))
    return contract(parts, ctx)


@pytest.mark.parametrize("label", list(curvature_metrics()))
def test_christoffel_is_the_second_kind_route(label):
    # raising the first-kind symbols gives, node for node, the entry the
    # 18-product contraction gives, at every index triple
    metric = curvature_metrics()[label]
    gamma = christoffel(metric)
    for c in range(DIM):
        for a in range(DIM):
            for b in range(DIM):
                assert gamma[c][a][b] is \
                    _reference_christoffel_entry(metric, c, a, b), (c, a, b)


def test_curvature_results_are_cached_per_metric():
    m = _numeric_scalar()
    assert christoffel(m) is christoffel(m)
    assert ricci(m) is ricci(m)
    assert ricci_scalar(m) is ricci_scalar(m)
    assert einstein(m) is einstein(m)


def test_curvature_stages_are_plain_functions_of_the_module():
    # tracers wrap the public functions of ``kk6.curvature`` by module
    for fn, params in ((christoffel, ["metric"]), (ricci, ["metric"]),
                       (ricci_entry_raw, ["metric", "a", "b"]),
                       (ricci_scalar, ["metric"]), (einstein, ["metric"])):
        assert inspect.isfunction(fn)
        assert fn.__module__ == "kk6.curvature"
        assert list(inspect.signature(fn).parameters) == params


def test_ricci_entry_raw_reuses_the_cached_connection_terms(monkeypatch):
    # after ``ricci`` takes the general route the trace of the connection
    # is cached: one raw entry is one contraction, its derivatives taken
    # inside it
    m = _numeric_gravity_proca()
    assert not _phase(m)
    ric = ricci(m)
    calls = []
    real = kk6.curvature.contract

    def counting(products, ctx):
        calls.append(ctx)
        return real(products, ctx)
    monkeypatch.setattr(kk6.curvature, "contract", counting)
    assert ricci_entry_raw(m, 0, 3) is ric[0][3]
    assert len(calls) == 1


def test_the_metric_cache_keeps_only_the_stages_and_the_trace():
    # no derivative grid of the connection outlives its stage
    m = _numeric_gravity_proca()
    einstein(m)
    assert set(m._cache) == {"_adjugate", "det", "upper", "_phase",
                             "christoffel", "_trace", "ricci",
                             "ricci_scalar", "einstein"}


def test_the_phase_route_keeps_no_connection():
    # the phase route forms Ricci with no Christoffel symbol, and keeps
    # only its certificate besides the stages
    m = _numeric_proca()
    einstein(m)
    assert set(m._cache) == {"_adjugate", "det", "upper", "_phase",
                             "ricci", "ricci_scalar", "einstein"}


def test_einstein_is_filled_for_a_le_b_and_mirrored(monkeypatch):
    # with Ricci and its trace cached, Einstein is one contraction per
    # entry with a <= b: 21, not 36
    m = _numeric_proca()
    ricci_scalar(m)
    calls = []
    real = kk6.curvature.contract

    def counting(products, ctx):
        calls.append(ctx)
        return real(products, ctx)
    monkeypatch.setattr(kk6.curvature, "contract", counting)
    ein = einstein(m)
    assert len(calls) == 21
    assert all(ein[a][b] is ein[b][a] for a in range(6) for b in range(6))


def _reachable(root):
    # everything reachable from ``root`` through containers and nodes; a
    # class, module or function would lead to the whole interpreter
    seen, stack = {}, [root]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType,
                                           types.FunctionType)):
            continue
        seen[id(o)] = o
        stack.extend(gc.get_referents(o))
    return seen.values()


def _assert_no_context_and_canonical(m, entries):
    assert not any(isinstance(o, _Ctx) for o in _reachable(m._cache))
    assert any(e is not ZERO for e in entries)
    for e in entries:
        assert simplify(e) is e


def test_curvature_keeps_no_kernel_context():
    # each stage's kernel context lives for the stage call only, and what
    # the stages keep is canonical: every entry is its own simplify result
    m = _numeric_gravity_proca()
    ein = einstein(m)
    gamma = christoffel(m)
    _assert_no_context_and_canonical(m, [
        *(e for plane in gamma for row in plane for e in row),
        *(e for row in ricci(m) for e in row),
        *(e for row in ein for e in row)])


def test_the_phase_route_keeps_no_kernel_context():
    m = _numeric_proca()
    ein = einstein(m)
    assert "christoffel" not in m._cache
    _assert_no_context_and_canonical(m, [
        *(e for row in ricci(m) for e in row),
        *(e for row in ein for e in row)])


def test_perturbed_compact_entry_breaks_flatness():
    mode = scalar_metric(p=(onshell_energy(sym("p1"), sym("p2"), sym("p3"),
                                           sym("m0")),
                            sym("p1"), sym("p2"), sym("p3")))
    rows = [list(r) for r in mode.metric.lower]
    rows[4][4] = simplify(mul(rows[4][4],
                              num(1) + mul(x[1], x[1])))
    assert is_zero(ricci_scalar(Metric6(rows))).verdict == "nonzero"
