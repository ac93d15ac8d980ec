"""Claim records pinned byte for byte.

``golden_records.json`` holds ``record_dict`` at seed 0 of every claim
whose numbers come from the exact kernel and the seeded zero test, and
of four refutation probes.  A change that is meant to keep behaviour
must reproduce each record exactly: same verdict, residual, sample count,
notes and witness.  The ``geodesic.closedform`` and ``gravity.split.*``
claims are left out because their numbers come from numpy integration
and finite differences.

Regenerate (only when a record is meant to change, and say why)::

    PYTHONPATH=src python3 tests/test_golden_records.py
"""
import json
import pathlib

import pytest

from kk6.report import record_dict
from kk6.verify import run_claim

GOLDEN = pathlib.Path(__file__).with_name("golden_records.json")

# label -> (claim id, parameters); parameter values are the strings the
# CLI would pass
CASES = {
    **{cid: (cid, {}) for cid in (
        "kg.reduction", "ricci.scalar.zero", "maxwell.reduction",
        "fsq.null", "proca.reduction", "dirac.sol1", "dirac.sol2",
        "dirac.sol3", "dirac.sol4", "dirac.stress", "inverse.photon",
        "inverse.halfspin", "interference.minima")},
    "probe.kg": ("kg.reduction",
                 {"p0": "2", "p1": "0", "p2": "0", "p3": "0", "m0": "1"}),
    "probe.maxwell": ("maxwell.reduction",
                      {"potential": "massive", "k3": "1/2", "m0": "1"}),
    "probe.ricci": ("ricci.scalar.zero", {"perturb": "1+x1^2"}),
    "probe.proca": ("proca.reduction", {"phase_factor": "2"}),
}


def _record_text(label: str) -> str:
    cid, params = CASES[label]
    return json.dumps(record_dict(run_claim(cid, seed=0, params=params)),
                      indent=1)


@pytest.mark.parametrize("label", sorted(CASES))
def test_record_matches_golden(label):
    golden = json.loads(GOLDEN.read_text())
    assert _record_text(label) == json.dumps(golden[label], indent=1)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {label: json.loads(_record_text(label)) for label in sorted(CASES)},
        indent=1) + "\n")
