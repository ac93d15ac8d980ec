"""Claim records and curvature reports pinned byte for byte.

``golden_records.json`` holds ``record_dict`` at seed 0 of every claim
whose numbers come from the exact kernel and the seeded zero test, and
of four refutation probes.  A change that is meant to keep behaviour
must reproduce each record exactly: same verdict, residual, sample count,
notes and witness.  The ``geodesic.closedform`` and ``gravity.split.*``
claims are left out because their numbers come from numpy integration
and finite differences.

``golden_curvature.json`` holds the ``kk6 curvature`` report (without
``timing``) of eight ansatz inputs at seed 0.  Each report's ``data``
holds the ``ansatz``, its ``metric`` entries, the ``ricci_scalar``, the
``einstein`` entries and the ``notes``, and, for a family that prints an
inverse, a ``claimed_inverse`` summary (``exact``, ``max_residual`` and
``structural_zero_entries``).  The entries are printed canonical forms,
so a kernel change that alters the canonical form of a metric entry, the
Ricci scalar or an Einstein entry shows here.

``golden_symbolic.json`` holds the sha256 of the ``kk6 curvature
ansatz=dirac1`` report (without ``timing``) at default, symbolic
parameters: its 0.64 MB of canonical forms come from the inverse, Ricci
and Einstein contractions over symbolic momenta.  It also holds the
digest of the report at ``p1=1/2 p2=1/3 p3=1/4 m0=1``, whose on-shell
``p0 = sqrt(205)/12`` puts a root in every entry, of the default
``kk6 curvature ansatz=coupled`` report, whose derivatives
meet folded on-shell roots, and of the default ``kk6 curvature
ansatz=gravity-dirac`` report, whose dense metric couples the half-spin
block to the symbolic weak-field block.

``golden_metrics.json`` holds one sha256 per metric family, of the
printed metric entries and claimed inverse(s) at default (symbolic)
parameters: photon, Proca, the four half-spin solutions with both
inverse readings, the coupled family, and the gravity-coupled families
over the symbolic weak-field block with symbolic ``kappa``.  The texts
themselves run to about 258 kB, so only their digests are stored.

Regenerate all four (only when a record is meant to change, and say why)::

    PYTHONPATH=src python3 tests/test_golden_records.py
"""
import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from kk6.ansatz import (
    coupled_metric, dirac_metric, gravity_metric, photon_metric,
    proca_metric, scalar_metric, weak_field_block,
)
from kk6.cli import build_ansatz, main, parse_config
from kk6.expr import context, contract, simplify, to_text
from kk6.parse import parse_expression
from kk6.report import record_dict
from kk6.tensor import DIM, Metric6
from kk6.verify import run_claim, scalar_momenta

GOLDEN = pathlib.Path(__file__).with_name("golden_records.json")
GOLDEN_CURVATURE = pathlib.Path(__file__).with_name("golden_curvature.json")
GOLDEN_METRICS = pathlib.Path(__file__).with_name("golden_metrics.json")
GOLDEN_SYMBOLIC = pathlib.Path(__file__).with_name("golden_symbolic.json")

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

# ansatz -> CLI arguments after ``curvature ansatz=<id>``; the half-spin
# inputs take numeric momenta, so each report builds in about a second
CURVATURE = {
    "scalar": (),
    "photon": (),
    "proca": (),
    "gravity-scalar": (),
    "gravity-proca": (),
    "dirac1": ("p1=1/3", "p2=0", "p3=1/2", "m0=1"),
    "coupled": ("p1=1/3", "p2=0", "p3=1/2", "m0=1"),
    "gravity-dirac": ("p1=1/3", "p2=0", "p3=1/2", "m0=1", "eps=1/10",
                      "kappa=1"),
}


def curvature_metrics() -> dict:
    """label -> metric of every ``CURVATURE`` input, built as ``kk6
    curvature`` builds it, and of ``probe.ricci``: the symbolic on-shell
    scalar mode with its compact entry multiplied by ``1+x1^2``."""
    out = {}
    for aid, args in CURVATURE.items():
        cfg = parse_config("\n".join(("command=curvature", f"ansatz={aid}",
                                      *args)))
        out[aid] = build_ansatz(aid, cfg.params)[0]
    p, m0, _ = scalar_momenta({})
    rows = [list(r) for r in scalar_metric(p=p, m0=m0).metric.lower]
    rows[4][4] = contract([(rows[4][4], parse_expression("1+x1^2"))],
                          context())
    out["probe.ricci"] = Metric6(rows)
    return out


@pytest.mark.parametrize("label", list(curvature_metrics()))
def test_metric_entries_are_their_own_simplify_result(label):
    # an entry stored unexpanded prints in a form no kernel result takes
    lower = curvature_metrics()[label].lower
    assert [(a, b) for a in range(DIM) for b in range(DIM)
            if simplify(lower[a][b]) is not lower[a][b]] == []


def _record_text(label: str) -> str:
    cid, params = CASES[label]
    return json.dumps(record_dict(run_claim(cid, seed=0, params=params)),
                      indent=1)


@pytest.mark.parametrize("label", sorted(CASES))
def test_record_matches_golden(label):
    golden = json.loads(GOLDEN.read_text())
    assert _record_text(label) == json.dumps(golden[label], indent=1)


def _curvature_text(aid: str, args=None) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["curvature", f"ansatz={aid}",
                     *(CURVATURE[aid] if args is None else args), "--seed=0"])
    assert code == 0
    rep = json.loads(out.getvalue())
    rep.pop("timing", None)
    return json.dumps(rep, indent=1)


@pytest.mark.parametrize("aid", sorted(CURVATURE))
def test_curvature_report_matches_golden(aid):
    golden = json.loads(GOLDEN_CURVATURE.read_text())
    assert _curvature_text(aid) == json.dumps(golden[aid], indent=1)


# label -> (ansatz, CLI arguments) of the symbolic reports whose digest is
# pinned: ``dirac1`` at default parameters, and at a point with p2 != 0 and
# an irrational p0, which the benchmark inputs never reach, ``coupled`` at
# default parameters, whose entries fold on-shell roots (about 4 s), and
# ``gravity-dirac`` at default parameters (about 4 s)
SYMBOLIC = {
    "dirac1": ("dirac1", ()),
    "dirac1 p1=1/2 p2=1/3 p3=1/4 m0=1": (
        "dirac1", ("p1=1/2", "p2=1/3", "p3=1/4", "m0=1")),
    "coupled": ("coupled", ()),
    "gravity-dirac": ("gravity-dirac", ()),
}


def _symbolic_digest(label: str) -> str:
    aid, args = SYMBOLIC[label]
    return hashlib.sha256(_curvature_text(aid, args).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(SYMBOLIC))
def test_symbolic_curvature_report_matches_golden(label):
    golden = json.loads(GOLDEN_SYMBOLIC.read_text())
    assert _symbolic_digest(label) == golden[label]


def _dirac_grids(sol: int):
    mode = dirac_metric(sol)
    return mode.metric.lower, mode.claimed_upper, mode.claimed_upper_greek


# family -> the grids whose printed entries are pinned
METRICS = {
    "photon": lambda: (photon_metric().metric.lower,
                       photon_metric().claimed_upper),
    "proca": lambda: (proca_metric().metric.lower,
                      proca_metric().claimed_upper),
    **{f"dirac{s}": (lambda s=s: _dirac_grids(s)) for s in (1, 2, 3, 4)},
    "coupled": lambda: (coupled_metric(1).metric.lower,),
    **{f"gravity-{fam}": (lambda build=build: (
        gravity_metric(build(), weak_field_block()).lower,))
       for fam, build in (("scalar", scalar_metric), ("proca", proca_metric),
                          ("dirac", dirac_metric))},
}


def _metric_digest(family: str) -> str:
    text = "\n".join(to_text(e) for grid in METRICS[family]()
                     for row in grid for e in row)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(METRICS))
def test_metric_family_matches_golden(family):
    golden = json.loads(GOLDEN_METRICS.read_text())
    assert _metric_digest(family) == golden[family]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {label: json.loads(_record_text(label)) for label in sorted(CASES)},
        indent=1) + "\n")
    GOLDEN_CURVATURE.write_text(json.dumps(
        {aid: json.loads(_curvature_text(aid)) for aid in sorted(CURVATURE)},
        indent=1) + "\n")
    GOLDEN_METRICS.write_text(json.dumps(
        {f: _metric_digest(f) for f in sorted(METRICS)}, indent=1) + "\n")
    GOLDEN_SYMBOLIC.write_text(json.dumps(
        {label: _symbolic_digest(label) for label in sorted(SYMBOLIC)},
        indent=1) + "\n")
