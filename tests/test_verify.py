"""Claim catalog semantics: verdicts, witnesses, seed stability, and the
serialized report format."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kk6

from kk6.ansatz import AnsatzError
from kk6.report import (
    CONDITIONAL, CONFIRMED, INCONCLUSIVE, REFUTED, ClaimReport, Report,
    record_dict, report_dict, to_json,
)
from kk6.verify import (
    ClaimParamError, REGISTRY, UnknownClaimError, claim_ids, must_pass_ids,
    refuted_must_pass, run_claim, run_suite,
)

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
    r = run_claim("dirac.sol2", trials=8)
    assert r.verdict == CONFIRMED
    assert any("adjoint normalization +1" in n for n in r.notes)
    assert any("stress form" in n for n in r.notes)


def test_dirac_stress_reports_per_solution_conventions():
    r = run_claim("dirac.stress", trials=8)
    assert r.verdict == CONFIRMED
    for sol, sign in ((1, "-"), (2, "-"), (3, "+"), (4, "+")):
        assert any(f"solution {sol}:" in n and f"{sign}m0" in n
                   for n in r.notes), (sol, sign)
    # the sign scan and the confirmation draw exactly these samples; a
    # scan that skipped or repeated a zero test would change the count
    assert r.samples == 648


def test_inverse_photon_structurally_exact():
    r = run_claim("inverse.photon")
    assert r.verdict == CONFIRMED
    assert r.samples == 0 and r.max_residual == 0.0


def test_geodesic_claim_blends_symbolic_and_numeric_evidence():
    r = run_claim("geodesic.closedform", params={"steps": 200})
    assert r.verdict == CONFIRMED
    assert r.samples >= 201             # one deviation sample per state
    assert any("interval slope" in n for n in r.notes)


def test_interference_minima_confirmed():
    r = run_claim("interference.minima")
    assert r.verdict == CONFIRMED
    assert any("minima located" in n for n in r.notes)


# ---------------------------------------------------------------------------
# measured (Conditional) claims

def test_inverse_halfspin_reports_both_readings():
    r = run_claim("inverse.halfspin", trials=8)
    assert r.verdict == CONDITIONAL
    assert any(n.startswith("reading A") and "exact" in n for n in r.notes)
    assert any(n.startswith("reading B") and "nonzero" in n for n in r.notes)
    assert r.max_residual > 0.1         # the 4d-only reading really fails


@pytest.mark.parametrize("fam", ["scalar", "proca", "dirac"])
def test_gravity_split_reports_measured_residual(fam):
    r = run_claim(f"gravity.split.{fam}", params={"points": 2})
    assert r.verdict == CONDITIONAL
    assert r.max_residual > 0.0
    assert any("split residual" in n for n in r.notes)
    if fam == "scalar":
        assert any("m0^2" in n and "exact" in n for n in r.notes)


# ---------------------------------------------------------------------------
# refutations: wrong inputs must produce witnesses, not silence

def test_off_shell_momentum_refutes_kg():
    r = run_claim("kg.reduction", params={"p0": 2, "p1": 0, "p2": 0,
                                          "p3": 0, "m0": 1})
    assert r.verdict == REFUTED
    assert r.witness is not None
    assert r.witness.get("p0") == 2.0


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


def test_stray_parameter_is_rejected():
    with pytest.raises(ClaimParamError, match="bogus"):
        run_suite(claims=["kg.reduction"], params={"bogus": 1})


def test_empty_selection_returns_empty_report():
    assert run_suite(claims=[]) == ()


def test_suite_orders_records_by_claim_id():
    recs = run_suite(claims=["inverse.photon", "fsq.null"])
    assert [r.claim_id for r in recs] == ["fsq.null", "inverse.photon"]


def test_refuted_must_pass_drives_exit_semantics():
    good = run_claim("fsq.null")
    bad = run_claim("maxwell.reduction", params={"potential": "massive"})
    cond = run_claim("gravity.split.proca", params={"points": 1})
    assert refuted_must_pass([good, cond]) == ()
    assert refuted_must_pass([good, bad]) == ("maxwell.reduction",)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verdicts_stable_across_seeds(seed):
    assert run_claim("dirac.sol3", seed=seed, trials=6).verdict == CONFIRMED
    assert run_claim("inverse.halfspin", seed=seed,
                     trials=6).verdict == CONDITIONAL
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
                       "seed", "assumptions", "notes", "witness"]
    assert d["witness"] == {"p0": [1.0, 2.0]}


def test_report_json_isolated_timing_key():
    rec = run_claim("fsq.null")
    rep = Report(version="1", command="verify", config={"b": 2, "a": 1},
                 seed=0, records=(rec,), timing={"seconds": 1.23})
    with_timing = json.loads(to_json(rep))
    without = json.loads(to_json(rep, include_timing=False))
    assert "timing" in with_timing and "timing" not in without
    del with_timing["timing"]
    assert with_timing == without
    assert list(without["config"]) == ["a", "b"]   # sorted, stable


def test_identical_runs_serialize_identically():
    def once():
        recs = run_suite(claims=["fsq.null", "inverse.photon"], seed=9)
        rep = Report(version="1", command="verify", config={}, seed=9,
                     records=recs)
        return to_json(rep, include_timing=False)
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


def _records_in_fresh_interpreter(order):
    src = str(Path(kk6.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _RECORDS_SCRIPT, *order],
                         capture_output=True, text=True, env=env, timeout=600,
                         check=True)
    return json.loads(out.stdout)


def test_records_do_not_depend_on_claim_order():
    forward = _records_in_fresh_interpreter(HISTORY_CLAIMS)
    backward = _records_in_fresh_interpreter(HISTORY_CLAIMS[::-1])
    assert sorted(forward) == sorted(HISTORY_CLAIMS)
    for cid in HISTORY_CLAIMS:
        assert forward[cid] == backward[cid], cid
