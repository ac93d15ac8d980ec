"""Verification outcomes and their stable serialized form.

A claim check produces a ``ClaimReport``; a run produces a ``Report``
wrapping the records plus the resolved configuration.  Serialization uses
a fixed key order with all timing data isolated under one ``timing`` key,
so two runs with identical config and seed emit byte-identical JSON once
that single key is dropped.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "CONFIRMED", "REFUTED", "CONDITIONAL", "INCONCLUSIVE", "VERDICTS",
    "ClaimReport", "Report", "record_dict", "report_dict", "to_json",
]

CONFIRMED = "Confirmed"
REFUTED = "Refuted"
CONDITIONAL = "Conditional"
INCONCLUSIVE = "Inconclusive"
VERDICTS = (CONFIRMED, REFUTED, CONDITIONAL, INCONCLUSIVE)


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    anchor: str                       # what identity/behavior was checked
    verdict: str
    max_residual: float
    samples: int
    seed: int
    assumptions: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    witness: dict[str, complex] | None = None
    # residuals that were literally zero before any sampling; like
    # ``samples`` it counts only the residuals graded before the verdict,
    # since grading stops at the first nonzero one
    structural: int = 0

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == REFUTED and self.witness is None:
            raise ValueError("a refutation must carry a witness assignment")


@dataclass(frozen=True)
class Report:
    version: str
    command: str
    config: dict
    seed: int
    records: tuple[ClaimReport, ...]
    data: dict | None = None          # command payload (curvature, paths, …)
    timing: dict[str, float] = field(default_factory=dict)


def _witness_dict(w: dict[str, complex]) -> dict[str, list[float]]:
    return {k: [float(v.real), float(v.imag)]
            for k, v in sorted(w.items(), key=lambda kv: kv[0])}


def record_dict(r: ClaimReport) -> dict:
    out = {
        "id": r.claim_id,
        "anchor": r.anchor,
        "verdict": r.verdict,
        "max_residual": float(r.max_residual),
        "samples": int(r.samples),
        "structural": int(r.structural),
        "seed": int(r.seed),
        "assumptions": list(r.assumptions),
        "notes": list(r.notes),
    }
    if r.witness is not None:
        out["witness"] = _witness_dict({k: complex(v)
                                        for k, v in r.witness.items()})
    return out


def report_dict(rep: Report) -> dict:
    out = {
        "version": rep.version,
        "command": rep.command,
        "config": {k: rep.config[k] for k in sorted(rep.config)},
        "seed": int(rep.seed),
        "records": [record_dict(r) for r in rep.records],
    }
    if rep.data is not None:
        out["data"] = rep.data
    out["timing"] = {k: rep.timing[k] for k in sorted(rep.timing)}
    return out


def to_json(rep: Report) -> str:
    return json.dumps(report_dict(rep), indent=2) + "\n"
