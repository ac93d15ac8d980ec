"""End-to-end acceptance gate.

Each test checks one published guarantee of the package at its stated
tolerance and emits a single ``ACCEPTANCE <name>: PASS`` or ``FAIL`` line
(echoed in the pytest terminal summary via the session ledger)."""
import cmath
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from kk6.ansatz import (
    dirac_metric, massive_wave_potential, null_wave_potential,
    onshell_energy, photon_metric, proca_metric, scalar_metric,
)
from kk6.cli import main
from kk6.curvature import einstein
from kk6.dynamics import (
    GeodesicState, closed_form_exprs, closed_form_state,
    connection_evaluator, integrate, interval_along, two_path_fringes,
)
from kk6.expr import ZERO, coords, exp, mul, num
from kk6.oracle import compile_expr, einstein_fd, metric_evaluator
from kk6.tensor import DIM, Metric6
from kk6.verify import must_pass_ids, run_claim, run_suite

x = coords()


@contextmanager
def criterion(ledger, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
        print(line)
        ledger.append(line)


# ---------------------------------------------------------------------------
# 1. the symbolic curvature pipeline agrees with an independent
#    finite-difference oracle on every metric family

def _metric_zoo():
    rng = random.Random(3)
    signs = (1, -1, -1, -1, 1, -1)
    ripples = []
    for a in range(DIM):
        k = num(0, rng.randint(1, 3))
        ripples.append(mul(num(signs[a]),
                           exp(mul(num("1/10"), k, x[(a + 1) % DIM]))))
    return [
        scalar_metric(p=(onshell_energy(num("1/5"), num("2/5"), num("3/5"),
                                        num(1)),
                         num("1/5"), num("2/5"), num("3/5")), m0=1).metric,
        photon_metric(null_wave_potential(num("3/4"))).metric,
        proca_metric(massive_wave_potential(num("1/2"), num(1)),
                     num(1)).metric,
        dirac_metric(1, num("1/5"), num("1/4"), num("3/5"), num(1)).metric,
        Metric6([[ripples[a] if a == b else ZERO for b in range(DIM)]
                 for a in range(DIM)]),
    ]


def test_oracle_equivalence(acceptance_ledger):
    with criterion(acceptance_ledger, "oracle_equivalence"):
        t0 = time.perf_counter()
        rng = random.Random(42)
        worst = 0.0
        for metric in _metric_zoo():
            gf = metric_evaluator(metric)
            sym_entries = [[compile_expr(e) for e in row]
                           for row in einstein(metric)]
            for _ in range(20):
                pt = [complex(rng.uniform(-0.4, 0.4)) for _ in range(DIM)]
                fd = einstein_fd(gf, pt)
                ref = np.array([[complex(f(pt)) for f in row]
                                for row in sym_entries])
                worst = max(worst, float(np.max(np.abs(fd - ref))))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-6, worst
        assert elapsed < 60.0, elapsed


# ---------------------------------------------------------------------------
# 2. every must-pass claim is Confirmed at tolerance 1e-9 with 32 samples
#    per residual, for three independent seeds

def test_claim_suite(acceptance_ledger):
    with criterion(acceptance_ledger, "claim_suite"):
        t0 = time.perf_counter()
        for seed in (0, 1, 2):
            records = run_suite(seed=seed, tol=1e-9)
            assert [r.claim_id for r in records] == sorted(must_pass_ids())
            bad = [(r.claim_id, r.verdict) for r in records
                   if r.verdict != "Confirmed"]
            assert not bad, bad
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, elapsed


# ---------------------------------------------------------------------------
# 3. the closed-form geodesic: exact at the expression level, reproduced
#    numerically at 1000 steps, with fourth-order convergence

_P = (1.25, 0.0, 0.0, 0.75)          # exactly on-shell with m0 = 1
_M0 = 1.0
_CONST = (0.0,) * 6


def test_geodesic(acceptance_ledger):
    with criterion(acceptance_ledger, "geodesic"):
        cf = closed_form_exprs()
        assert all(cf.residual[a] == ZERO for a in range(DIM))

        metric = scalar_metric(p=("5/4", 0, 0, "3/4"), m0=1).metric
        gamma = connection_evaluator(metric)
        path = integrate(closed_form_state(0.0, _P, _M0, _CONST),
                         1.0, 1000, gamma)
        dev = max(abs(a - b)
                  for st in path.states
                  for a, b in zip(st.x,
                                  closed_form_state(st.tau, _P, _M0,
                                                    _CONST).x))
        assert dev < 1e-6, dev

        base = closed_form_state(0.0, _P, _M0, _CONST)
        v = list(base.v)
        v[0] += 0.2                   # leave the closed-form family
        v[4] += 0.2
        seed = GeodesicState(base.x, tuple(v), 0.0)
        ref = integrate(seed, 2.0, 6400, gamma).states[-1]

        def err(steps):
            end = integrate(seed, 2.0, steps, gamma).states[-1]
            return max(abs(a - b) for a, b in zip(end.x, ref.x))

        order = math.log(err(50) / err(100), 2)
        assert order >= 3.8, order


# ---------------------------------------------------------------------------
# 4. along the closed-form geodesic the interval accumulates as the
#    inverse phase factor: ds/dx4 = exp(-i theta) per step

def test_interval_ratio(acceptance_ledger):
    with criterion(acceptance_ledger, "interval_ratio"):
        metric = scalar_metric(p=("5/4", 0, 0, "3/4"), m0=1).metric
        gamma = connection_evaluator(metric)
        path = integrate(closed_form_state(0.0, _P, _M0, _CONST),
                         1.0, 500, gamma)
        worst = 0.0
        for iv, lo, hi in zip(interval_along(path, metric), path.states,
                              path.states[1:]):
            xm = [(a + b) / 2 for a, b in zip(lo.x, hi.x)]
            theta = (_P[0] * xm[0] - _P[1] * xm[1] - _P[2] * xm[2]
                     - _P[3] * xm[3] - _M0 * xm[5])
            worst = max(worst, abs(iv.ds / iv.dx4 - cmath.exp(-1j * theta)))
        assert worst < 1e-6, worst


# ---------------------------------------------------------------------------
# 5. two-path fringe minima: located within one grid cell of a brute-force
#    scan, with essentially zero density, across three geometries

def _grid_local_minima(y, density):
    return [y[i] for i in range(1, len(y) - 1)
            if density[i] < density[i - 1] and density[i] < density[i + 1]]


def test_fringe_minima(acceptance_ledger):
    with criterion(acceptance_ledger, "fringe_minima"):
        geometries = [
            (10.0, 400.0, 0.5, 15.0, 1201),
            (4.0, 200.0, 0.25, 15.0, 1001),
            (8.0, 300.0, 1.0, 25.0, 801),
        ]
        for d, length, lam, ymax, npts in geometries:
            grid = np.linspace(-ymax, ymax, npts)
            cell = grid[1] - grid[0]
            fp = two_path_fringes(d, length, lam, grid)
            assert fp.minima, (d, length, lam)
            peak = max(fp.density)
            scan = _grid_local_minima(list(fp.y), list(fp.density))
            k = 2.0 * math.pi / lam
            for ym in fp.minima:
                assert min(abs(ym - s) for s in scan) <= cell, ym
                r1 = math.hypot(length, ym - 0.5 * d)
                r2 = math.hypot(length, ym + 0.5 * d)
                depth = abs(cmath.exp(1j * k * r1)
                            + cmath.exp(1j * k * r2)) ** 2
                assert depth < 1e-9 * peak, (ym, depth)


# ---------------------------------------------------------------------------
# 6. claims that fail in full generality are reported honestly: Conditional
#    verdicts carrying the measured residual, never a manufactured pass

def test_honest_reports(acceptance_ledger):
    with criterion(acceptance_ledger, "honest_reports"):
        half = run_claim("inverse.halfspin", tol=1e-9)
        assert half.verdict == "Conditional"
        assert half.max_residual > 1e-9
        assert any("reading A" in n for n in half.notes)
        assert any("reading B" in n for n in half.notes)
        for fam in ("scalar", "proca", "dirac"):
            rec = run_claim(f"gravity.split.{fam}", tol=1e-9,
                            params={"points": 2})
            assert rec.verdict == "Conditional", fam
            assert rec.max_residual > 0.0, fam
            assert any("split residual" in n for n in rec.notes), fam


# ---------------------------------------------------------------------------
# 7. identical configurations produce byte-identical reports apart from
#    the timing block, and identical exit codes

def _canonical(path):
    rep = json.loads(path.read_text())
    rep.pop("timing", None)
    return json.dumps(rep, indent=2)


def test_determinism(acceptance_ledger, tmp_path, capsys):
    with criterion(acceptance_ledger, "determinism"):
        argv = ["verify", "--claim", "kg.reduction", "--claim",
                "interference.minima", "--seed", "11"]
        codes, texts = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            codes.append(main(argv + ["--out", str(out)]))
            texts.append(_canonical(out / "report.json"))
        capsys.readouterr()
        assert codes[0] == codes[1] == 0
        assert texts[0] == texts[1]

        argv = ["fringes", "points=201", "--format", "csv"]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
