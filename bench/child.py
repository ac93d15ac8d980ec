"""One repetition of a kk6 benchmark workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 bench/child.py --spawned T --setup-only [--calibrate]
    python3 bench/child.py --spawned T --workload W --seed S --passes 2
                           [--calibrate] [--oracle] [--trace-out PATH]

``--spawned`` is the ``time.monotonic()`` reading of the parent just before
it started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start-up plus ``import kk6``.  Pass ``k`` runs every operation
of the workload once at seed ``S + k``; pass 0 is cold, the later passes
are warm (same process, so the package's own caches are populated).

With ``--calibrate`` the host's current speed is sampled (``calib.py``)
after the import and between operations, and every time is also reported
in reference seconds (``ref_s``).
"""
from __future__ import annotations

import argparse
import time

ap = argparse.ArgumentParser()
ap.add_argument("--spawned", type=float, required=True)
ap.add_argument("--setup-only", action="store_true")
ap.add_argument("--workload")
ap.add_argument("--seed", type=int, default=0)
ap.add_argument("--passes", type=int, default=2)
ap.add_argument("--calibrate", action="store_true")
ap.add_argument("--oracle", action="store_true")
ap.add_argument("--trace-out")
args = ap.parse_args()
OP_CAP_S = 60.0                  # an operation slower than this fails

import kk6  # noqa: E402

setup_s = time.monotonic() - args.spawned

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import kk6.cli  # noqa: E402,F401  (a traced layer; not imported by kk6)

from calib import host_factor  # noqa: E402


def emit(payload: dict) -> None:
    print(json.dumps(payload))
    sys.stdout.flush()


src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
if os.path.dirname(os.path.dirname(os.path.abspath(kk6.__file__))) != src:
    sys.exit(f"kk6 imported from {kk6.__file__}, not from {src}")
setup_ref_s = setup_s * host_factor() if args.calibrate else None
if args.setup_only:
    emit({"setup_s": setup_s, "setup_ref_s": setup_ref_s})
    sys.exit(0)

import workloads  # noqa: E402
from layertrace import Tracer, layer_metrics  # noqa: E402


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded the {OP_CAP_S:g} s cap")


signal.signal(signal.SIGALRM, _alarm)
problems: list[str] = []
mismatch = workloads.catalog_mismatch()
if mismatch:
    problems.append(mismatch)
ops = workloads.ops(args.workload)

tracer = None
if args.trace_out:
    tracer = Tracer()
    tracer.install()
    stale = tracer.stale_references()
    if stale:
        problems.append(f"tracer left {len(stale)} original bindings: "
                        + ", ".join(stale[:5]))

passes, results = [], []
factor = host_factor() if args.calibrate else None
for k in range(args.passes):
    seed = args.seed + k
    rows, outs = [], []
    t_pass = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        error, out = None, None
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        t0 = time.perf_counter()
        try:
            out = op.run(seed)
        except Exception as err:  # noqa: BLE001 — an op failure is data
            error = f"{type(err).__name__}: {err}"
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        row = {"id": op.id, "timer": op.timer, "s": dt, "error": error}
        if args.calibrate:
            # the host's speed during the op: the mean of the factors
            # sampled just before and just after it
            after = host_factor()
            row["ref_s"] = dt * (factor + after) / 2
            factor = after
        rows.append(row)
        outs.append(out)
    passes.append({"seed": seed, "loop_s": time.perf_counter() - t_pass,
                   "wall_s": sum(r["s"] for r in rows),
                   "ref_s": sum(r["ref_s"] for r in rows)
                   if args.calibrate else None,
                   "ops": rows})
    results.append(outs)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

trace = None
if tracer is not None:
    tracer.uninstall()
    cold = passes[0]["loop_s"]   # the tracer also sees GC between ops
    trace = {"wall_s": cold, "self_sum_s": tracer.self_time_total(),
             "covered_s": tracer.covered,
             "calls": {name: st[0] for name, st in tracer.stats.items()},
             "metrics": layer_metrics(tracer, cold)}
    tracer.dump(args.trace_out, cold)

# output checks, outside every timed region and with the tracer removed
digests = {}
for p, outs in zip(passes, results):
    for row, op, out in zip(p["ops"], ops, outs):
        if row["error"] is None:
            try:
                row["error"] = op.check(out)
            except (KeyError, TypeError, ValueError) as err:
                row["error"] = f"malformed output: {err!r}"
        if row["error"] is None and row["s"] > OP_CAP_S:
            row["error"] = f"exceeded the {OP_CAP_S:g} s cap"
        if p is passes[0] and out is not None:
            digests[op.id] = hashlib.sha256(
                workloads.digest(out).encode()).hexdigest()
if args.oracle and args.workload == "curvature":
    for row, op, out in zip(passes[0]["ops"], ops, results[0]):
        if row["error"] is None:
            gap = workloads.oracle_residual(out, args.seed)
            row["oracle_gap"] = gap
            if not gap < workloads.ORACLE_TOL:
                row["error"] = (f"Einstein tensor disagrees with the "
                                f"finite-difference oracle by {gap:.3e}")

emit({"setup_s": setup_s, "setup_ref_s": setup_ref_s, "passes": passes,
      "rss_mb": rss_mb, "digests": digests, "trace": trace,
      "problems": problems})
