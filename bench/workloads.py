"""Workload definitions and known answers for the kk6 benchmark.

Every workload is a fixed list of operations driven through the public
API of ``kk6``, one at a time (closed loop, one client).  An operation
takes the workload seed and returns its raw output; ``check`` compares
that output with the known answer and returns ``None`` or the reason it
failed.  Checks run after the timed pass, never inside it.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# -- claim suite --------------------------------------------------------------

CONFIRMED = ("dirac.sol1", "dirac.sol2", "dirac.sol3", "dirac.sol4",
             "dirac.stress", "fsq.null", "geodesic.closedform",
             "interference.minima", "inverse.photon", "kg.reduction",
             "maxwell.reduction", "proca.reduction", "ricci.scalar.zero")
CONDITIONAL = ("gravity.split.dirac", "gravity.split.proca",
               "gravity.split.scalar", "inverse.halfspin")
EXPECTED_VERDICT = {**{c: "Confirmed" for c in CONFIRMED},
                    **{c: "Conditional" for c in CONDITIONAL}}
# Refutation probes: claims run with parameters that break them.  They must
# come back Refuted with a witness (the zero test stops at the first
# failing sample).  (op id, claim id, parameters)
PROBES = (
    ("probe.kg", "kg.reduction",
     {"p0": Fraction(2), "p1": Fraction(0), "p2": Fraction(0),
      "p3": Fraction(0), "m0": Fraction(1)}),
    ("probe.maxwell", "maxwell.reduction",
     {"potential": "massive", "k3": Fraction(1, 2), "m0": Fraction(1)}),
    ("probe.ricci", "ricci.scalar.zero", {"perturb": "1+x1^2"}),
    ("probe.proca", "proca.reduction", {"phase_factor": 2}),
)

# -- curvature pipeline -------------------------------------------------------

CURVATURE = (
    ("scalar", ()),
    ("photon", ()),
    ("proca", ()),
    ("gravity-scalar", ()),
    ("gravity-proca", ()),
    ("dirac1", ("p1=1/3", "p2=0", "p3=1/2", "m0=1")),
    ("coupled", ("p1=1/3", "p2=0", "p3=1/2", "m0=1")),
    ("gravity-dirac", ("p1=1/3", "p2=0", "p3=1/2", "m0=1", "eps=1/10",
                       "kappa=1")),
)

WORKLOADS = ("suite", "curvature")


@dataclass(frozen=True)
class Op:
    id: str                      # claim id, probe or ansatz
    timer: str                   # per-layer metric fed by this op's time
    run: Callable[[int], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str

    def report(self) -> dict:
        return json.loads(self.stdout)


def _cli(argv) -> CliResult:
    from kk6 import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def digest(result) -> str:
    """Stable text of an op's output with the ``timing`` key dropped."""
    if isinstance(result, CliResult):
        rep = result.report() if result.stdout else {}
        rep.pop("timing", None)
        return json.dumps([result.code, rep, result.stderr], sort_keys=True)
    from kk6.report import record_dict
    return json.dumps(record_dict(result), sort_keys=True)


# -- checks -------------------------------------------------------------------

def _check_claim(cid):
    def check(rec) -> str | None:
        if rec.verdict != EXPECTED_VERDICT[cid]:
            return f"verdict {rec.verdict}, expected {EXPECTED_VERDICT[cid]}"
        return None
    return check


def _check_probe(rec) -> str | None:
    if rec.verdict != "Refuted":
        return f"verdict {rec.verdict}, expected Refuted"
    if not rec.witness:
        return "refutation without a witness"
    return None


def _check_curvature(aid):
    def check(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()}"
        data = res.report().get("data") or {}
        if data.get("ansatz") != aid or not data.get("einstein"):
            return "report lacks the Einstein tensor"
        if aid == "scalar" and data["ricci_scalar"] != "0":
            return f"scalar curvature {data['ricci_scalar']!r}, expected 0"
        if aid in ("photon", "proca") and \
                not data.get("claimed_inverse", {}).get("exact"):
            return "claimed inverse is not exact"
        return None
    return check


def op_ids(workload: str) -> tuple[str, ...]:
    """Operation ids of a workload, in run order, without importing kk6."""
    if workload == "suite":
        return (*sorted(EXPECTED_VERDICT), *(op_id for op_id, *_ in PROBES))
    if workload == "curvature":
        return tuple(aid for aid, _ in CURVATURE)
    raise ValueError(f"unknown workload {workload!r}")


def timer(workload: str, op_id: str) -> str:
    """Per-layer metric holding the untraced time of one operation."""
    return {"suite": f"verify.claim.{op_id}.s",
            "curvature": f"cli.curvature.{op_id}.s"}[workload]


def ops(workload: str) -> list[Op]:
    if workload == "suite":
        from kk6 import verify
        claims = [Op(cid, timer(workload, cid),
                     (lambda seed, cid=cid: verify.run_claim(cid, seed=seed)),
                     _check_claim(cid))
                  for cid in verify.claim_ids()]
        probes = [Op(op_id, timer(workload, op_id),
                     (lambda seed, cid=cid, params=params: verify.run_claim(
                         cid, seed=seed, params=params)),
                     _check_probe)
                  for op_id, cid, params in PROBES]
        return claims + probes
    if workload == "curvature":
        return [Op(aid, timer(workload, aid),
                   (lambda seed, aid=aid, params=params: _cli(
                       ("curvature", f"ansatz={aid}", *params,
                        f"--seed={seed}"))),
                   _check_curvature(aid))
                for aid, params in CURVATURE]
    raise ValueError(f"unknown workload {workload!r}")


def catalog_mismatch() -> str | None:
    """The program's claim catalog must be the one the answers are for."""
    from kk6 import verify
    if tuple(verify.claim_ids()) != tuple(sorted(EXPECTED_VERDICT)):
        return f"claim catalog {verify.claim_ids()} differs from the " \
               "known-answer table"
    return None


# -- independent curvature oracle ---------------------------------------------

ORACLE_POINTS = 2
# The bound of ``test_acceptance``, taken relative to 1 + max|G|.  The
# stencil's own noise on these inputs stays below 4e-7; a wrong Einstein
# entry is off by O(|G|).
ORACLE_TOL = 1e-6


def oracle_residual(res: CliResult, seed: int) -> float:
    """Largest gap, relative to 1 + max|G|, between the reported Einstein
    tensor and a finite-difference Einstein tensor of the reported metric.

    Both come from the report text.  Parameters left symbolic are bound to
    seeded rationals in [1/5, 4/5]; points are seeded in [-0.4, 0.4]^6."""
    import numpy as np
    from kk6 import num, parse_expression, subs
    from kk6.expr import free_symbols
    from kk6.oracle import compile_expr, einstein_fd

    data = res.report()["data"]
    metric = {k: parse_expression(v) for k, v in data["metric"].items()}
    ein = {k: parse_expression(v) for k, v in data["einstein"].items()}
    names = set()
    for e in (*metric.values(), *ein.values()):
        names |= {s.name for s in free_symbols(e)}
    coords = {f"x{i}" for i in range(6)}
    rng = random.Random(seed)
    bind = {n: num(Fraction(rng.randint(2, 8), 10))
            for n in sorted(names - coords)}

    def compiled(entries):
        return {(int(k[0]), int(k[1])): compile_expr(subs(e, bind))
                for k, e in entries.items()}

    gfns, efns = compiled(metric), compiled(ein)

    def grid(fns, x):
        out = np.zeros((6, 6), dtype=complex)
        for (a, b), f in fns.items():
            out[a, b] = out[b, a] = f(x)
        return out

    worst = 0.0
    for _ in range(ORACLE_POINTS):
        pt = [complex(rng.uniform(-0.4, 0.4)) for _ in range(6)]
        ref = grid(efns, pt)
        fd = einstein_fd(lambda x: grid(gfns, x), pt)
        gap = float(np.max(np.abs(fd - ref)))
        worst = max(worst, gap / (1.0 + float(np.max(np.abs(ref)))))
    return worst
