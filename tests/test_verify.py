"""Claim catalog semantics: verdicts, witnesses, seed stability, and the
serialized report format."""
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import kk6
import kk6.verify

from kk6.ansatz import (
    AnsatzError, dirac_metric, photon_metric, weak_field_block,
)
from kk6.expr import ONE, ZERO, num
from kk6.report import (
    CONDITIONAL, CONFIRMED, INCONCLUSIVE, REFUTED, ClaimReport, Report,
    record_dict, to_json,
)
from kk6.verify import (
    ClaimParamError, UnknownClaimError, claim_ids, grade_entries,
    must_pass_ids, refuted_must_pass, run_claim, run_suite,
)
from kk6.tensor import identity_residual
from kk6.zeros import are_zero, is_zero
from test_golden_records import CASES

ALL_IDS = {
    "kg.reduction", "ricci.scalar.zero", "maxwell.reduction", "fsq.null",
    "proca.reduction", "dirac.sol1", "dirac.sol2", "dirac.sol3",
    "dirac.sol4", "dirac.stress", "inverse.photon", "inverse.halfspin",
    "gravity.split.scalar", "gravity.split.proca", "gravity.split.dirac",
    "geodesic.closedform", "interference.minima",
}


def test_registry_enumerates_every_claim():
    assert set(claim_ids()) == ALL_IDS
    assert set(must_pass_ids()) == ALL_IDS - {
        "inverse.halfspin", "gravity.split.scalar", "gravity.split.proca",
        "gravity.split.dirac"}


def test_halfspin_bundle_forms_f2_once(monkeypatch):
    # the stress tensor and the field-invariant check share one F^2,
    # which the stress tensor forms through the mode's phase, once per mode
    from kk6 import ansatz, verify
    calls = []
    original = ansatz._phase_stress

    def counting(K, phase):
        calls.append(K)
        return original(K, phase)

    monkeypatch.setattr(ansatz, "_phase_stress", counting)
    verify._dirac_mode.cache_clear()
    run_claim("dirac.sol1", seed=0)
    assert len(calls) == 1
    run_claim("dirac.sol1", seed=1)
    assert len(calls) == 1
    run_claim("dirac.sol2", seed=0)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# confirmations

def test_kg_reduction_confirmed_symbolically():
    r = run_claim("kg.reduction")
    assert r.verdict == CONFIRMED
    assert r.max_residual == 0.0        # every residual folds structurally
    assert any("hbar = 1" in a for a in r.assumptions)
    assert any("p0 = sqrt" in a for a in r.assumptions)


def test_kg_reduction_confirmed_at_exact_numeric_point():
    r = run_claim("kg.reduction", params={"p1": 0, "p2": 0, "p3": "3/4",
                                          "m0": 1})
    assert r.verdict == CONFIRMED


def test_ricci_scalar_zero_confirmed():
    r = run_claim("ricci.scalar.zero")
    assert r.verdict == CONFIRMED
    assert r.samples == 0               # structural zero, nothing sampled


def test_maxwell_null_and_constant_presets_confirmed():
    assert run_claim("maxwell.reduction").verdict == CONFIRMED
    r = run_claim("maxwell.reduction", params={"potential": "constant"})
    assert r.verdict == CONFIRMED
    assert any("constant" in n for n in r.notes)


def test_proca_reduction_confirmed_with_4d_reading_notes():
    r = run_claim("proca.reduction")
    assert r.verdict == CONFIRMED
    assert any("divergence of F equals -m0^2 A" in n for n in r.notes)


def test_dirac_solution_claim_runs_all_subchecks():
    r = run_claim("dirac.sol2")
    assert r.verdict == CONFIRMED
    assert any("adjoint normalization +1" in n for n in r.notes)
    assert any("stress form" in n for n in r.notes)


def test_dirac_stress_reports_per_solution_conventions():
    r = run_claim("dirac.stress")
    assert r.verdict == CONFIRMED
    for sol, sign in ((1, "-"), (2, "-"), (3, "+"), (4, "+")):
        assert any(f"solution {sol}:" in n and f"{sign}m0" in n
                   for n in r.notes), (sol, sign)
    # the sign scan and the confirmation draw exactly these samples; a
    # scan that skipped or repeated a zero test would change the count
    assert r.samples == 1008


def test_inverse_photon_structurally_exact():
    r = run_claim("inverse.photon")
    assert r.verdict == CONFIRMED
    assert r.samples == 0 and r.max_residual == 0.0


def test_geodesic_claim_blends_symbolic_and_numeric_evidence():
    r = run_claim("geodesic.closedform", params={"steps": 200})
    assert r.verdict == CONFIRMED
    assert r.samples >= 201             # one deviation sample per state
    assert any("interval slope" in n for n in r.notes)


def test_the_geodesic_figure_is_integrated_once_per_step_count(
        monkeypatch):
    # the numeric figure reads no seed: a run at another seed integrates
    # nothing and gives the record a fresh figure gives, and another step
    # count integrates its own
    calls = []
    original = kk6.verify.integrate

    def counting(*args):
        calls.append(args[2])
        return original(*args)
    monkeypatch.setattr(kk6.verify, "integrate", counting)
    runs = [(0, 200), (1, 200), (1, 300)]
    warm = [record_dict(run_claim("geodesic.closedform", seed=seed,
                                  params={"steps": steps}))
            for seed, steps in runs]
    assert calls == [200, 300]
    for (seed, steps), record in zip(runs, warm):
        kk6.verify._geodesic_figure.cache_clear()
        assert record_dict(run_claim("geodesic.closedform", seed=seed,
                                     params={"steps": steps})) == record
    assert calls == [200, 300, 200, 200, 300]


def test_interference_minima_confirmed():
    r = run_claim("interference.minima")
    assert r.verdict == CONFIRMED
    assert any("minima located" in n for n in r.notes)


@pytest.mark.parametrize("L, ymax", [(1, "1e8"), ("1e6", "1e14")])
def test_interference_minima_confirmed_where_the_paths_graze(L, ymax):
    # order 0 sits 1 ulp short of r2 - r1 = d, so its minimum is at
    # y ~ 6.7e7 L, where r2 - r1 taken as a difference of the two lengths
    # (L = 1), or the density from the phases k r1 and k r2 (L = 1e6), is
    # off by far more than the check's tolerance and would refute the
    # exact minimum
    r = run_claim("interference.minima", params={
        "d": 1, "L": L, "wavelength": "1.9999999999999998", "ymax": ymax,
        "points": 3})
    assert r.verdict == CONFIRMED and r.max_residual < 1e-15


# ---------------------------------------------------------------------------
# measured (Conditional) claims

def test_inverse_halfspin_reports_both_readings():
    r = run_claim("inverse.halfspin")
    assert r.verdict == CONDITIONAL
    assert any(n.startswith("reading A") and "exact" in n for n in r.notes)
    assert any(n.startswith("reading B") and "nonzero" in n for n in r.notes)
    assert r.max_residual > 0.1         # the 4d-only reading really fails


def _fold(outs):
    """(failing labels, max residual, structural entries, samples)."""
    return ([o.label for o in outs if o.status != "zero"],
            max(o.max_residual for o in outs),
            sum(o.structural for o in outs), sum(o.samples for o in outs))


def test_grade_entries_exact_for_photon():
    mode = photon_metric()
    outs = grade_entries(identity_residual(mode.metric, mode.claimed_upper),
                         0, 1e-9)
    failures, worst, structural, samples = _fold(outs)
    assert len(outs) == 36 and all(o.status == "zero" for o in outs)
    assert failures == []
    assert worst < 1e-9
    assert structural == 36             # every entry is literally zero
    assert samples == 0


def test_grade_entries_reports_failing_entries():
    mode = photon_metric()
    wrong = [list(row) for row in mode.claimed_upper]
    wrong[5][5] = ONE                    # flip the sign of one entry
    outs = grade_entries(identity_residual(mode.metric, wrong), 0, 1e-9)
    failures, worst, structural, _ = _fold(outs)
    assert not all(o.status == "zero" for o in outs)
    assert (5, 5) in failures
    assert worst >= 1e-9
    assert structural == 36 - len(failures)


def test_grade_entries_tests_only_entries_not_literally_zero(monkeypatch):
    # the 4d-trace reading of a half-spin inverse leaves some entries
    # nonzero; only those are sampled
    mode = dirac_metric(1)
    seen = []

    def counting(exprs, **kw):
        def spy():
            for e in exprs:
                seen.append(e)
                yield e
        return are_zero(spy(), **kw)
    monkeypatch.setattr(kk6.verify, "are_zero", counting)
    res = identity_residual(mode.metric, mode.claimed_upper_greek)
    outs = grade_entries(res, 3, 1e-9)
    failures, _, structural, samples = _fold(outs)
    nonzero = [e for row in res for e in row if e is not ZERO]
    assert seen and all(e is not ZERO for e in seen)
    assert seen == nonzero
    assert structural == 36 - len(nonzero)
    assert samples == sum(is_zero(e, seed=3).samples for e in nonzero)
    assert failures


@pytest.mark.parametrize("fam", ["scalar", "proca", "dirac"])
def test_gravity_split_reports_measured_residual(fam):
    r = run_claim(f"gravity.split.{fam}", params={"points": 2})
    assert r.verdict == CONDITIONAL
    assert r.max_residual > 0.0
    assert any("split residual" in n for n in r.notes)
    if fam == "scalar":
        assert any("m0^2" in n and "exact" in n for n in r.notes)
    # the scalar mode has no field, so no coupling constant is assumed
    assert any("kappa" in a for a in r.assumptions) == (fam != "scalar")


def test_gravity_split_builds_its_background_from_the_exact_eps(
        monkeypatch):
    # eps = 1/3 reaches the weak-field block as the rational 1/3, not as
    # the decimal text of its nearest double
    seen = []

    def block(eps):
        seen.append(eps)
        return weak_field_block(eps)
    monkeypatch.setattr(kk6.verify, "weak_field_block", block)
    r = run_claim("gravity.split.scalar", params={"eps": "1/3", "points": 1})
    assert r.verdict == CONDITIONAL
    assert seen == [num(Fraction(1, 3))]
    assert any("strength 0.333333;" in n for n in r.notes)


def _condition(record) -> float:
    note, = (n for n in record.notes
             if n.startswith("largest condition number"))
    return float(note.split(": ", 1)[1].split()[0])


def test_gravity_split_states_the_metric_conditioning():
    # the split residual's round-off grows with the full metric's condition
    # number, which the record states beside it: near 1 at the defaults,
    # near 1/eps_machine at kappa = 1e4, where the residual outgrows the
    # field part
    assert _condition(run_claim("gravity.split.proca")) < 1e3
    big = run_claim("gravity.split.proca", params={"kappa": "1e4",
                                                   "points": 2})
    assert _condition(big) >= 1e15


@pytest.mark.parametrize("cid, params, verdict, overflow", [
    ("kg.reduction", {"p0": "1e400"}, INCONCLUSIVE, "constant overflow"),
    ("kg.reduction", {"p1": "1e400"}, CONFIRMED, None),
    ("kg.reduction", {"p2": "1e400"}, CONFIRMED, None),
    ("kg.reduction", {"p3": "1e400"}, CONFIRMED, None),
    ("gravity.split.proca", {"kappa": "1e200", "points": 1}, INCONCLUSIVE,
     "metric constant beyond the float range"),
    ("gravity.split.dirac", {"kappa": "1e200", "points": 1}, INCONCLUSIVE,
     "metric constant beyond the float range"),
    # constants that fit a float but whose products do not: NaN entries
    ("gravity.split.proca", {"kappa": "1e150", "points": 1}, INCONCLUSIVE,
     "non-finite entry"),
    # a metric that rounds to singular at the sample point
    ("gravity.split.dirac", {"kappa": "1e8", "points": 1}, INCONCLUSIVE,
     "Singular matrix"),
    ("gravity.split.dirac", {"kappa": "1e150", "points": 1}, INCONCLUSIVE,
     "Singular matrix"),
])
def test_float_overflow_is_a_record_not_a_crash(cid, params, verdict,
                                                overflow):
    # a parameter beyond the float range yields a record that names the
    # overflow; a momentum too large for a float stays out of the witness,
    # whose values are floats
    r = run_claim(cid, params=params)
    assert r.verdict == verdict
    assert (overflow is None
            or any(n.startswith("undecided: ") and overflow in n
                   for n in r.notes)), r.notes
    if r.witness is not None:
        assert not set(params) & set(r.witness)
        json.dumps(record_dict(r))


def test_undecided_opposite_coupling_sign_is_not_called_consistent():
    # the opposite-sign zero test overflows with the rest of the claim
    r = run_claim("kg.reduction", params={"p0": "1e400"})
    assert not any("unexpectedly consistent" in n for n in r.notes)
    assert any(n.startswith("opposite coupling sign undecided")
               for n in r.notes), r.notes


# ---------------------------------------------------------------------------
# refutations: wrong inputs must produce witnesses, not silence

def test_off_shell_momentum_refutes_kg():
    r = run_claim("kg.reduction", params={"p0": 2, "p1": 0, "p2": 0,
                                          "p3": 0, "m0": 1})
    assert r.verdict == REFUTED
    assert r.witness is not None
    assert r.witness.get("p0") == 2.0


_BAD_TOLS = [float("nan"), 0.0, 1.0, -1e-9, float("inf"), "0.1", None]


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_a_bad_tol_cannot_confirm_an_off_shell_momentum(tol):
    # a NaN residual comparison never reads "at or above tol"
    with pytest.raises(ClaimParamError, match=r"tol must lie in \(0, 1\)"):
        run_claim("kg.reduction", tol=tol,
                  params={"p0": 2, "p1": 0, "p2": 0, "p3": 0, "m0": 1})


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_suite_refuses_a_bad_tol_before_any_claim_runs(tol, monkeypatch):
    ran = []
    for cid, claim in kk6.verify.REGISTRY.items():
        monkeypatch.setitem(kk6.verify.REGISTRY, cid, replace(
            claim, runner=lambda *args, cid=cid: ran.append(cid)))
    with pytest.raises(ClaimParamError, match=r"tol must lie in \(0, 1\)"):
        run_suite(tol=tol)
    assert ran == []


_BAD_SEEDS = [1.5, "abc", -1, 2 ** 64]


@pytest.mark.parametrize("seed", _BAD_SEEDS)
def test_a_bad_seed_is_refused_before_the_claim_runs(seed):
    # a record states its seed as an integer: 1.5 would be recorded as 1
    with pytest.raises(ClaimParamError, match="seed must be an integer"):
        run_claim("kg.reduction", seed=seed,
                  params={"p0": 2, "p1": 0, "p2": 0, "p3": 0, "m0": 1})


@pytest.mark.parametrize("seed", _BAD_SEEDS)
def test_suite_refuses_a_bad_seed_before_any_claim_runs(seed, monkeypatch):
    ran = []
    for cid, claim in kk6.verify.REGISTRY.items():
        monkeypatch.setitem(kk6.verify.REGISTRY, cid, replace(
            claim, runner=lambda *args, cid=cid: ran.append(cid)))
    with pytest.raises(ClaimParamError, match="seed must be an integer"):
        run_suite(seed=seed)
    assert ran == []


def test_perturbed_compact_entry_refutes_flatness():
    r = run_claim("ricci.scalar.zero", params={"perturb": "1 + x1^2"})
    assert r.verdict == REFUTED
    assert r.witness
    assert any("1 + x1^2" in n for n in r.notes)


def test_massive_potential_refutes_massless_reduction():
    r = run_claim("maxwell.reduction", params={"potential": "massive"})
    assert r.verdict == REFUTED
    assert any("expected" in n for n in r.notes)


def test_doubled_compact_phase_refutes_proca():
    r = run_claim("proca.reduction", params={"phase_factor": 2})
    assert r.verdict == REFUTED
    assert r.witness is not None


def test_a_stress_scan_no_convention_survives_is_refuted_at_a_witness(
        monkeypatch):
    # every candidate's first residual is 1 + x0^2, nonzero at each point
    from kk6.expr import add, coords, power
    x0 = coords()[0]

    def failing(mode, s5, coeff, ctx):
        yield "stress component (0,0)", add(ONE, power(x0, 2))
    monkeypatch.setattr(kk6.verify, "_stress_residuals", failing)
    r = run_claim("dirac.stress")
    assert r.verdict == REFUTED
    assert set(r.witness) == {"x0"}
    assert r.max_residual > 0
    assert r.notes == ("solution 1: 0 candidate conventions survive the "
                       "scan",)


def test_a_minimum_not_destructive_at_tol_is_refuted_at_its_y():
    # the densities at the two minima are round-off, about 6e-31 of the
    # peak, so at tol 1e-40 both fail and the witness is the last
    from kk6.verify import fringe_profile
    r = run_claim("interference.minima", tol=1e-40)
    assert r.verdict == REFUTED
    assert r.witness == {"y": complex(fringe_profile({})[1].minima[-1])}
    assert "residual nonzero: minimum not destructive" in r.notes


def test_an_integration_that_drifts_from_the_closed_form_is_refuted(
        monkeypatch):
    from kk6.dynamics import GeodesicState, integrate

    def drifting(s0, tau_end, steps, gamma):
        start = GeodesicState(tuple(x + 1e-3 for x in s0.x), s0.v, s0.tau)
        return integrate(start, tau_end, steps, gamma)
    monkeypatch.setattr(kk6.verify, "integrate", drifting)
    r = run_claim("geodesic.closedform", params={"steps": 20})
    assert r.verdict == REFUTED
    assert set(r.witness) == {"deviation"}
    assert r.witness["deviation"].real >= 1e-3 * (1 - 1e-9)
    assert ("residual nonzero: numeric integration disagrees with the "
            "closed form") in r.notes


def test_degenerate_spinor_momentum_is_a_usage_error():
    with pytest.raises(AnsatzError, match="p3 = 0"):
        run_claim("dirac.sol1", params={"p3": 0})


# ---------------------------------------------------------------------------
# suite mechanics

def test_unknown_claim_is_rejected():
    with pytest.raises(UnknownClaimError):
        run_claim("nope")
    with pytest.raises(UnknownClaimError):
        run_suite(claims=["kg.reduction", "nope"])


def test_every_numeric_parameter_is_a_declared_real_symbol():
    # an unbound parameter is built as sym(name) (ansatz._E), so each
    # "param" name must be in the one symbol table, declared real
    from kk6.ansatz import _E
    from kk6.expr import sym
    from kk6.symbols import DEFAULT_TABLE
    names = [n for n, kind in kk6.verify.PARAM_KINDS.items()
             if kind == "param"]
    assert names
    for name in names:
        assert DEFAULT_TABLE[name].real, name
        assert _E(None, name) is sym(name)


def test_stray_parameter_is_rejected():
    with pytest.raises(ClaimParamError, match="bogus"):
        run_suite(claims=["kg.reduction"], params={"bogus": 1})


OUT_OF_RANGE = [
    ("interference.minima", {"d": -1}, "must all be positive"),
    ("interference.minima", {"ymax": "-3"}, "must all be positive"),
    ("interference.minima", {"points": 0}, "points must be at least 2"),
    ("interference.minima", {"points": 1}, "points must be at least 2"),
    ("gravity.split.scalar", {"points": 0}, "points must be at least 1"),
    ("gravity.split.proca", {"points": -2}, "points must be at least 1"),
    ("gravity.split.scalar", {"points": 1001}, "points must be at most 1000"),
    ("gravity.split.dirac", {"points": "1001"},
     "points must be at most 1000"),
    ("gravity.split.scalar", {"eps": "symbolic"}, "requires numeric"),
    ("gravity.split.dirac", {"kappa": None}, "requires numeric"),
    ("gravity.split.scalar", {"eps": "1e400"}, "too large for a float"),
    ("interference.minima", {"wavelength": "1e400"},
     "too large for a float"),
    ("geodesic.closedform", {"steps": 1}, "steps must be at least 2"),
    ("geodesic.closedform", {"steps": 100001}, "steps must be at most 100000"),
    ("interference.minima", {"points": 100001},
     "points must be at most 100000"),
    # the ansatz constructors refuse these too, but only once a claim runs
    ("inverse.halfspin", {"sol": 0}, "sol must be 1..4, got 0"),
    ("inverse.halfspin", {"sol": 5}, "sol must be 1..4, got 5"),
    ("proca.reduction", {"pol": 3}, "pol must be 1..2, got 3"),
    ("proca.reduction", {"pol": 0}, "pol must be 1..2, got 0"),
]


@pytest.mark.parametrize(
    "cid,params,message", OUT_OF_RANGE,
    ids=[f"{cid}:{k}={v}" for cid, p, _ in OUT_OF_RANGE for k, v in p.items()])
def test_out_of_range_parameters_are_rejected(cid, params, message):
    # checked before the claim computes anything, and by run_suite before
    # any selected claim runs
    with pytest.raises(ClaimParamError, match=message):
        run_claim(cid, params=params)
    with pytest.raises(ClaimParamError, match=message):
        run_suite(claims=["inverse.photon", cid], params=params)


def test_step_and_grid_counts_of_one_hundred_thousand_pass():
    # the bound itself is accepted (OUT_OF_RANGE refuses one more); only
    # the parameters are read, nothing is integrated or laid on a grid
    from kk6.verify import FRINGE_DEFAULTS, GEODESIC_DEFAULTS, read_params
    assert read_params(GEODESIC_DEFAULTS, {"steps": 100000},
                       "geodesic")["steps"] == 100000
    assert read_params(FRINGE_DEFAULTS, {"points": "100000"},
                       "fringes")["points"] == 100000


def test_a_gravity_split_of_one_thousand_points_passes():
    # the bound itself is accepted (OUT_OF_RANGE refuses one more); only
    # the parameters are read, no split is sampled
    from kk6.verify import REGISTRY, read_params
    for fam in ("scalar", "proca", "dirac"):
        cid = f"gravity.split.{fam}"
        assert read_params(REGISTRY[cid].params, {"points": 1000},
                           cid)["points"] == 1000


# Residuals literally zero before any sampling, at seed 0.  Grading stops
# at the first nonzero residual, so a refuted probe counts only the
# residuals graded before it: probe.kg has 16 literal zeros among its 22.
STRUCTURAL = {
    "kg.reduction": 22, "maxwell.reduction": 6, "proca.reduction": 11,
    **{f"dirac.sol{s}": 6 for s in (1, 2, 3, 4)},
    "inverse.photon": 36, "inverse.halfspin": 30, "fsq.null": 1,
    "ricci.scalar.zero": 1, "geodesic.closedform": 6, "dirac.stress": 0,
    "gravity.split.scalar": 0, "gravity.split.proca": 0,
    "gravity.split.dirac": 0, "interference.minima": 0,
    "probe.kg": 0, "probe.maxwell": 1, "probe.ricci": 0, "probe.proca": 1,
}


def test_structural_is_a_record_field():
    assert set(STRUCTURAL) == ALL_IDS | set(CASES)
    for label, count in STRUCTURAL.items():
        cid, params = CASES.get(label, (label, {}))
        r = run_claim(cid, seed=0, params=params)
        assert record_dict(r)["structural"] == r.structural == count, label
        # the count is a field, not prose
        assert not [n for n in r.notes
                    if re.search(r"\d+ of \d+ .*vanish", n)], label


def test_parameter_forms_read_as_one_value():
    # text, Fraction, int and float forms of one number give one record
    recs = {json.dumps(record_dict(run_claim(
        "kg.reduction", params={"p0": p0, "p1": 0, "p2": 0, "p3": p3,
                                "m0": 1})))
        for p0, p3 in (("5/4", "3/4"), (Fraction(5, 4), Fraction(3, 4)),
                       (1.25, 0.75), ("1.25", "0.75"))}
    assert len(recs) == 1


def test_empty_selection_returns_empty_report():
    assert run_suite(claims=[]) == ()


def test_suite_orders_records_by_claim_id():
    recs = run_suite(claims=["inverse.photon", "fsq.null", "inverse.photon"])
    assert [r.claim_id for r in recs] == ["fsq.null", "inverse.photon"]


def test_coerce_param_reads_each_kind():
    from kk6.verify import coerce_param
    for v in ("3/4", 0.75, "0.75", Fraction(3, 4)):
        for real in (False, True):
            got = coerce_param("p3", v, real=real)
            assert type(got) is Fraction and got == Fraction(3, 4)
    for v in (3, "3", "6/2", 3.0):
        got = coerce_param("steps", v)
        assert type(got) is int and got == 3
    with pytest.raises(ClaimParamError, match="expects an integer"):
        coerce_param("steps", "5/2")
    assert coerce_param("perturb", "1+x1^2") == "1+x1^2"
    assert coerce_param("potential", "massive") == "massive"
    with pytest.raises(ClaimParamError, match="must be one of"):
        coerce_param("potential", "linear")
    for v in ("symbolic", None):
        assert coerce_param("m0", v) is None
        for name, real in (("steps", False), ("tau_end", False),
                           ("perturb", False), ("m0", True)):
            with pytest.raises(ClaimParamError, match="symbolic"):
                coerce_param(name, v, real=real)
    assert coerce_param("eps", "1e400") == Fraction(10) ** 400
    with pytest.raises(ClaimParamError, match="too large for a float"):
        coerce_param("eps", "1e400", real=True)


def test_read_params_takes_the_given_value_or_the_default():
    from kk6.verify import read_params
    spec = {"p1": None, "p2": None, "m0": None, "eps": 1e-3, "points": 3}
    got = read_params(spec, {"p1": "1/2", "p2": "symbolic", "points": "7"},
                      "gravity.split.scalar")
    # p2 is bound to nothing and m0 not given: both are left out
    assert got == {"p1": Fraction(1, 2), "eps": Fraction(1, 1000),
                   "points": 7}
    assert type(got["points"]) is int


def test_scalar_momenta_put_p0_on_shell_unless_it_is_given():
    from kk6.ansatz import onshell_energy
    from kk6.expr import sym
    from kk6.verify import scalar_momenta
    p, m0, given = scalar_momenta({})
    names = [sym(n) for n in ("p1", "p2", "p3", "m0")]
    assert (p[1:], m0, given) == (tuple(names[:3]), names[3], False)
    assert p[0] is onshell_energy(*names)
    p, m0, given = scalar_momenta({"p0": Fraction(5, 4), "p3": Fraction(3, 4),
                                   "m0": 1})
    assert p == (num("5/4"), sym("p1"), sym("p2"), num("3/4"))
    assert (m0, given) == (num(1), True)


def test_fringe_profile_reads_its_grid_through_the_fringe_defaults():
    from kk6.verify import fringe_profile
    geometry, prof = fringe_profile({"wavelength": "1/4", "points": 11})
    assert geometry == (10.0, 400.0, 0.25, 11)
    assert [type(g) for g in geometry] == [float, float, float, int]
    assert len(prof.y) == 11 and prof.y[0] == -15.0 and prof.y[-1] == 15.0
    for params, message in (({"points": 1}, "at least 2"),
                            ({"L": -1}, "positive"),
                            ({"steps": 10}, None)):
        if message is None:     # a name the fringe grid does not take
            assert fringe_profile(params)[0] == (10.0, 400.0, 0.5, 1201)
            continue
        with pytest.raises(ClaimParamError, match=message):
            fringe_profile(params)


def test_grade_entries_grades_each_entry_row_by_row():
    x = kk6.expr.coords()
    grid = [[ZERO] * 6 for _ in range(6)]
    grid[1][2] = x[1]
    grid[3][0] = ONE
    # (x2 + 1)^2 - x2^2 - 2 x2 - 1, unexpanded: zero in value only
    e = kk6.expr
    grid[4][4] = e.add(e.power(e.add(x[2], ONE), 2),
                       e.mul(num(-1), e.power(x[2], 2)),
                       e.mul(num(-2), x[2]), num(-1))
    assert grid[4][4] is not ZERO
    outs = grade_entries(grid, 0, 1e-9)
    assert len(outs) == 36
    for i, o in enumerate(outs):
        a, b = divmod(i, 6)
        if (a, b) in ((1, 2), (3, 0)):
            assert (o.status, o.label, o.structural) == ("nonzero", (a, b), 0)
            assert o.samples >= 1
        elif grid[a][b] is ZERO:
            assert (o.status, o.samples, o.structural) == ("zero", 0, 1)
        else:
            assert (o.status, o.structural) == ("zero", 0) and o.samples > 0


def test_refuted_must_pass_drives_exit_semantics():
    good = run_claim("fsq.null")
    bad = run_claim("maxwell.reduction", params={"potential": "massive"})
    cond = run_claim("gravity.split.proca", params={"points": 1})
    assert refuted_must_pass([good, cond]) == ()
    assert refuted_must_pass([good, bad]) == ("maxwell.reduction",)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verdicts_stable_across_seeds(seed):
    assert run_claim("dirac.sol3", seed=seed).verdict == CONFIRMED
    assert run_claim("inverse.halfspin", seed=seed).verdict == CONDITIONAL
    assert run_claim("kg.reduction", seed=seed).verdict == CONFIRMED


# ---------------------------------------------------------------------------
# report objects and serialization

def test_refuted_record_requires_witness():
    with pytest.raises(ValueError, match="witness"):
        ClaimReport("x", "anchor", REFUTED, 1.0, 1, 0)


def test_unknown_verdict_rejected():
    with pytest.raises(ValueError, match="verdict"):
        ClaimReport("x", "anchor", "Maybe", 0.0, 0, 0)


def test_record_dict_key_order_and_witness_encoding():
    r = ClaimReport("x", "anchor", REFUTED, 0.5, 3, 7,
                    assumptions=("a",), notes=("n",),
                    witness={"p0": 1 + 2j})
    d = record_dict(r)
    assert list(d) == ["id", "anchor", "verdict", "max_residual", "samples",
                       "structural", "seed", "assumptions", "notes",
                       "witness"]
    assert d["witness"] == {"p0": [1.0, 2.0]}


def test_report_json_isolated_timing_key():
    rec = run_claim("fsq.null")
    rep = Report(version="1", command="verify", config={"b": 2, "a": 1},
                 seed=0, records=(rec,), timing={"seconds": 1.23})
    with_timing = json.loads(to_json(rep))
    without = {k: v for k, v in with_timing.items() if k != "timing"}
    assert "timing" in with_timing and "timing" not in without
    assert with_timing["timing"] == {"seconds": 1.23}
    del with_timing["timing"]
    assert with_timing == without
    assert list(without["config"]) == ["a", "b"]   # sorted, stable


def test_identical_runs_serialize_identically():
    def once():
        recs = run_suite(claims=["fsq.null", "inverse.photon"], seed=9)
        rep = Report(version="1", command="verify", config={}, seed=9,
                     records=recs)
        data = json.loads(to_json(rep))
        del data["timing"]
        return json.dumps(data)
    assert once() == once()


# Claims whose records must not depend on what ran before them in the
# process: the intern table and the ``simplify`` cache on each node are
# process-wide.
HISTORY_CLAIMS = ("kg.reduction", "maxwell.reduction", "proca.reduction",
                  "inverse.photon", "ricci.scalar.zero")
_RECORDS_SCRIPT = """
import json, sys
from kk6.report import record_dict
from kk6.verify import run_claim
print(json.dumps({c: record_dict(run_claim(c, seed=3)) for c in sys.argv[1:]},
                 sort_keys=True))
"""


def _in_fresh_interpreter(script, *args):
    """The JSON that ``script`` prints, run with ``args`` in a new
    interpreter."""
    src = str(Path(kk6.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script, *args],
                         capture_output=True, text=True, env=env, timeout=600,
                         check=True)
    return json.loads(out.stdout)


def _records_in_fresh_interpreter(order):
    return _in_fresh_interpreter(_RECORDS_SCRIPT, *order)


def test_records_do_not_depend_on_claim_order():
    forward = _records_in_fresh_interpreter(HISTORY_CLAIMS)
    backward = _records_in_fresh_interpreter(HISTORY_CLAIMS[::-1])
    assert sorted(forward) == sorted(HISTORY_CLAIMS)
    for cid in HISTORY_CLAIMS:
        assert forward[cid] == backward[cid], cid


# Every claim and the benchmark's four refutation probes, as (label, claim
# id, parameters)
ALL_RUNS = [(cid, cid, {}) for cid in sorted(ALL_IDS)] + [
    (label, *CASES[label]) for label in sorted(CASES)
    if label.startswith("probe.")]
_RUNS_SCRIPT = """
import json, sys
from kk6.report import record_dict
from kk6.verify import run_claim
seed = int(sys.argv[2])
print(json.dumps({label: record_dict(run_claim(cid, seed=seed, params=params))
                  for label, cid, params in json.loads(sys.argv[1])}))
"""


def test_records_do_not_depend_on_what_ran_before():
    # the modes, and the curvature their metrics keep, are shared within
    # a process: a fresh one runs everything in reverse order at seed 1,
    # this one at seed 0 and then at seed 1, the second pass reading what
    # the first built
    assert len(ALL_RUNS) == 21
    fresh = _in_fresh_interpreter(_RUNS_SCRIPT, json.dumps(ALL_RUNS[::-1]),
                                  "1")
    for seed in (0, 1):
        here = {label: json.loads(json.dumps(record_dict(
            run_claim(cid, seed=seed, params=params))))
            for label, cid, params in ALL_RUNS}
    for label, _, _ in ALL_RUNS:
        assert here[label] == fresh[label], label


# One fresh interpreter runs every claim and probe at seed 0 and then at
# seed 1, and counts the seed-1 pass's misses of the contraction memo (a
# miss stores its result, while a hit only moves its key to the end), the
# zero-test tape entries it builds and its geodesic integrations.
_TRAFFIC_SCRIPT = """
import json, sys
from collections import OrderedDict
from kk6 import expr, verify, zeros
from kk6.report import record_dict
from kk6.verify import run_claim

class Counted(OrderedDict):
    stores = 0

    def __setitem__(self, key, value):
        Counted.stores += 1
        super().__setitem__(key, value)

calls = {"_extend": 0, "_entry": 0, "integrate": 0}

def counting(module, name):
    original = getattr(module, name)
    def call(*args):
        calls[name] += 1
        return original(*args)
    setattr(module, name, call)

runs = json.loads(sys.argv[1])
for label, cid, params in runs:
    run_claim(cid, seed=0, params=params)
expr._CONTRACTED = Counted(expr._CONTRACTED)
Counted.stores = 0
for module, name in ((zeros, "_extend"), (zeros, "_entry"),
                     (verify, "integrate")):
    counting(module, name)
records = {label: record_dict(run_claim(cid, seed=1, params=params))
           for label, cid, params in runs}
print(json.dumps({"misses": Counted.stores, "calls": calls,
                  "records": records}))
"""


def test_a_second_verify_pass_forms_no_contraction_again():
    # the residuals do not depend on the seed, so the memo's bound must
    # hold every contraction a pass makes until the next pass asks again,
    # each group of residuals finds the tape the last pass built, and the
    # seed-free geodesic figure is not integrated again; each record is
    # the one its claim makes alone in a fresh process
    got = _in_fresh_interpreter(_TRAFFIC_SCRIPT, json.dumps(ALL_RUNS))
    assert got["misses"] == 0
    assert got["calls"] == {"_extend": 0, "_entry": 0, "integrate": 0}
    for run in ALL_RUNS:
        alone = _in_fresh_interpreter(_RUNS_SCRIPT, json.dumps([run]), "1")
        assert got["records"][run[0]] == alone[run[0]], run[0]


@pytest.fixture
def fresh_modes():
    """The mode memos emptied, so that a test sees what its claims build."""
    from kk6 import verify
    memos = (verify._scalar_mode, verify._dirac_mode)
    for memo in memos:
        memo.cache_clear()
    yield verify
    for memo in memos:
        memo.cache_clear()


def test_halfspin_claim_leaves_the_metric_unbuilt(fresh_modes):
    run_claim("dirac.sol2")
    mode = fresh_modes._dirac_mode(2, None, None, None, None)
    assert "stress" in mode.__dict__
    assert "metric" not in mode.__dict__


def test_inverse_halfspin_reads_the_bundle_mode(fresh_modes):
    run_claim("dirac.sol1")
    mode = fresh_modes._dirac_mode(1, None, None, None, None)
    assert "stress" in mode.__dict__
    assert "metric" not in mode.__dict__
    run_claim("inverse.halfspin")
    assert fresh_modes._dirac_mode(1, None, None, None, None) is mode
    assert {"metric", "claimed_upper", "claimed_upper_greek"} <= set(
        mode.__dict__)


def test_gravity_splits_leave_their_modes_unbuilt(fresh_modes, monkeypatch):
    # a split couples the mode's field over the background through
    # gravity_metric; the mode's own metric and printed inverse go unread
    built, proca = [], fresh_modes.proca_metric

    def recording(*args):
        built.append(proca(*args))
        return built[-1]
    monkeypatch.setattr(fresh_modes, "proca_metric", recording)
    run_claim("gravity.split.proca", params={"points": 1})
    run_claim("gravity.split.dirac", params={"points": 1})
    dirac = fresh_modes._dirac_mode(1, 0, 0, Fraction(3, 4), 1)
    assert len(built) == 1
    for mode in (built[0], dirac):
        assert not {"metric", "claimed_upper"} & set(mode.__dict__)


def test_scalar_claims_share_one_curvature(fresh_modes, monkeypatch):
    # kg.reduction forms the symbolic scalar mode's Einstein tensor; the
    # other claims that read that mode find it in the metric's cache
    from kk6 import curvature
    run_claim("kg.reduction")
    calls = []

    def counting(original):
        def call(*args):
            calls.append(original)
            return original(*args)
        return call

    for name in ("contract", "derive"):
        monkeypatch.setattr(curvature, name,
                            counting(getattr(curvature, name)))
    assert run_claim("ricci.scalar.zero").verdict == CONFIRMED
    assert run_claim("gravity.split.scalar").verdict == CONDITIONAL
    assert calls == []


def test_the_fringe_grid_is_numpy_s_linspace_bit_for_bit():
    import numpy as np
    from kk6.verify import _linspace
    rng = __import__("random").Random(6)
    cases = [(15.0, 1201), (15.0, 2), (1e-320, 3), (5e-324, 100_000),
             (0.1, 100_000)]
    cases += [(10 ** rng.uniform(-5, 5), rng.randint(2, 5000))
              for _ in range(60)]
    for ymax, n in cases:
        want = np.linspace(-ymax, ymax, n)
        assert np.array(_linspace(-ymax, ymax, n)).tobytes() == \
            want.tobytes(), (ymax, n)
    grid = kk6.verify.fringe_profile({"points": 301, "ymax": "7/3"})[1].y
    assert np.array(grid).tobytes() == np.linspace(-7 / 3, 7 / 3,
                                                   301).tobytes()


def test_the_three_splits_form_the_background_once_per_point(monkeypatch):
    # full and field per family and point, and the shared background once
    # per point: 3 * 3 * 2 + 3 = 21 finite-difference Einstein tensors at
    # the defaults; the records are the ones each claim makes alone
    kk6.verify._split_background.cache_clear()
    alone = {}
    for fam in ("scalar", "proca", "dirac"):
        kk6.verify._split_background.cache_clear()
        alone[fam] = record_dict(run_claim(f"gravity.split.{fam}"))
    kk6.verify._split_background.cache_clear()
    calls = []
    einstein_fd = kk6.verify.einstein_fd

    def counted(ev, pt):
        calls.append(pt)
        return einstein_fd(ev, pt)
    monkeypatch.setattr(kk6.verify, "einstein_fd", counted)
    # a longer split first, so the others read points it formed
    run_claim("gravity.split.dirac", params={"points": 4})
    del calls[:]
    for fam in ("dirac", "scalar", "proca"):
        assert record_dict(run_claim(f"gravity.split.{fam}")) == alone[fam]
    assert len(calls) == 3 * 3 * 2
    kk6.verify._split_background.cache_clear()
    del calls[:]
    for fam in ("scalar", "proca", "dirac"):
        run_claim(f"gravity.split.{fam}")
    assert len(calls) == 21
