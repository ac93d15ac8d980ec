"""kk6 benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload suite|curvature|numeric|all
                         --seed S --seconds N --trace 0|1

Closed loop, one client: each repetition is a fresh interpreter
(``child.py``) that imports ``kk6`` from ``src/`` of this checkout and runs
the workload's operations one at a time; this process waits for it, so at
most two processes exist and neither starts a thread.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (interpreter start
until ``import kk6`` returns, median over the repetitions and extra
import-only children), ``wall_s`` (cold pass at seed S), ``warm_s`` (warm
pass at seed S+1 in the same process) and ``peak_rss_mb``.  Times are in
reference seconds: seconds scaled by the host's speed, sampled around
every operation (``calib.py``); the plain seconds are printed as ``raw.*``.  Repetitions
start until ``--seconds`` have passed; there is always at least one.

``--trace 1`` prints the per-layer metrics from two traced repetitions of
the cold pass, plus an untraced reference repetition that gives the
per-operation timers and the tracing overhead.

Every operation's output is checked against its known answer; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only if every check passed.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import is_count
from workloads import WORKLOADS, op_ids, timer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"        # span files of traced repetitions
BUDGET_S = 170.0                 # a run ends within 180 s
SETUP_CHILDREN = 2               # import-only children per untraced run

END_TO_END = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
# layers each workload must keep busy (non-zero call counts)
BUSY = {"suite": ("expr.simplify", "zeros.is_zero", "oracle.einstein_fd",
                  "dynamics.integrate"),
        "curvature": ("expr.simplify", "curvature.ricci")}


class Run:
    """Outcome of one benchmark run: metrics plus correctness accounting."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def account(self, workload: str, child: dict | None, passes: int) -> None:
        """Count a repetition's operations; a lost child fails all of them."""
        if child is None:
            n = len(op_ids(workload)) * passes
            self.attempted += n
            self.failed += n
            return
        self.problems.extend(child["problems"])
        for p in child["passes"]:
            for row in p["ops"]:
                self.attempted += 1
                if row["error"] is not None:
                    self.failed += 1
                    self.problems.append(
                        f"{row['id']} (seed {p['seed']}): {row['error']}")

    def compare_outputs(self, children: list[dict]) -> None:
        """Reports at one seed must be identical across repetitions."""
        first = children[0]["digests"]
        for other in children[1:]:
            for op_id, d in other["digests"].items():
                if first.get(op_id, d) != d:
                    self.failed += 1
                    self.problems.append(
                        f"{op_id}: output differs between repetitions")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def spawn(args: list[str], deadline: float, problems: list[str]):
    """Run ``child.py`` to completion; its JSON result, or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        problems.append("time budget exhausted before a repetition")
        return None
    cmd = [sys.executable, str(HERE / "child.py"),
           "--spawned", repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        problems.append(f"repetition killed after {timeout:.0f} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"repetition exited with code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> Run:
    run = Run()
    setups = []
    for _ in range(SETUP_CHILDREN):
        child = spawn(["--setup-only", "--calibrate"], deadline, run.problems)
        if child is not None:
            setups.append(child)
    args = ["--workload", workload, "--seed", str(seed), "--passes", "2",
            "--calibrate", "--oracle"]
    children = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        child = spawn(args, deadline, run.problems)
        run.account(workload, child, 2)
        if child is None:
            break
        children.append(child)
        now = time.monotonic()
        if now - start >= seconds or now + 1.5 * (now - t0) > deadline:
            break
    if not children:
        return run
    run.compare_outputs(children)
    setups += children

    def median(get):
        return statistics.median(get(c) for c in children)

    run.put("setup_s", statistics.median(c["setup_ref_s"] for c in setups),
            "s")
    run.put("wall_s", median(lambda c: c["passes"][0]["ref_s"]), "s")
    run.put("warm_s", median(lambda c: c["passes"][1]["ref_s"]), "s")
    run.put("peak_rss_mb", median(lambda c: c["rss_mb"]), "MB")
    # the same times in plain seconds, printed but not part of the result
    run.put("raw.setup_s", statistics.median(c["setup_s"] for c in setups),
            "s")
    run.put("raw.wall_s", median(lambda c: c["passes"][0]["wall_s"]), "s")
    run.put("raw.warm_s", median(lambda c: c["passes"][1]["wall_s"]), "s")
    run.put("repetitions", len(children), "count")
    return run


def traced(workload: str, seed: int, deadline: float) -> Run:
    run = Run()
    OUT.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--passes", "1"]
    ref = spawn(base + ["--oracle"], deadline, run.problems)
    run.account(workload, ref, 1)
    reps = []
    for tag in ("a", "b"):
        out = OUT / f"spans-{workload}-seed{seed}-{tag}.json"
        child = spawn(base + ["--trace-out", str(out)], deadline,
                      run.problems)
        run.account(workload, child, 1)
        if child is not None:
            reps.append(child)
    if ref is None or len(reps) < 2:
        return run
    run.compare_outputs([ref, *reps])
    a, b = (r["trace"] for r in reps)

    # self-tests: deterministic counts, busy layers, time accounting
    # (garbage collections follow allocator state, not kk6's work)
    for name in sorted((set(a["calls"]) | set(b["calls"])) - {"gc.collect"}):
        if a["calls"].get(name) != b["calls"].get(name):
            run.problems.append(f"{name}: {a['calls'].get(name)} calls vs "
                                f"{b['calls'].get(name)} at one seed")
    for name, (va, _) in a["metrics"].items():
        if is_count(name) and va != b["metrics"][name][0]:
            run.problems.append(f"{name}: {va} vs {b['metrics'][name][0]} "
                                "at one seed")
    for layer in BUSY[workload]:
        if not a["calls"].get(layer):
            run.problems.append(f"{layer}: no calls on {workload}")
    for t in (a, b):
        if abs(t["self_sum_s"] - t["covered_s"]) > 1e-6 * t["wall_s"] \
                or t["covered_s"] > t["wall_s"]:
            run.problems.append(
                f"self times {t['self_sum_s']:.6f} s + outside "
                f"{t['wall_s'] - t['covered_s']:.6f} s != traced wall "
                f"{t['wall_s']:.6f} s")

    for name, (va, unit) in a["metrics"].items():
        vb = b["metrics"][name][0]
        run.put(name, va if is_count(name) else (va + vb) / 2, unit)
    for w in WORKLOADS:
        for op_id in op_ids(w):
            run.put(timer(w, op_id), 0.0, "s")
    for row in ref["passes"][0]["ops"]:
        run.put(row["timer"], row["s"], "s")
    ref_wall = ref["passes"][0]["loop_s"]
    run.put("trace.overhead_frac",
            ((a["wall_s"] + b["wall_s"]) / 2 - ref_wall) / ref_wall, "ratio")
    return run


def show(run: Run, prefix: str = "") -> None:
    for name, m in run.metrics.items():
        print(f"{prefix}{name:<44} {m['value']:>16.6g} {m['unit']}")
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"{prefix}{'fail_frac':<44} {frac:>16.6g} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for p in run.problems:
        print(f"{prefix}FAILED: {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "kk6" / "__init__.py").is_file():
        print(f"error: no kk6 sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "kk6"), quiet=1):
        print("error: kk6 sources do not compile", file=sys.stderr)
        return 2

    if ns.workload != "all":
        deadline = time.monotonic() + BUDGET_S
        run = traced(ns.workload, ns.seed, deadline) if ns.trace else \
            untraced(ns.workload, ns.seed, ns.seconds, deadline)
        show(run)
        metrics = run.metrics
        if not ns.trace:
            metrics = {k: metrics[k] for k in END_TO_END if k in metrics}
        result = {"correct": run.correct, "attempted": max(run.attempted, 1),
                  "failed": run.failed, "metrics": metrics}
    else:   # every workload, untraced then traced
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for w in WORKLOADS:
            for mode in (0, 1):
                deadline = time.monotonic() + BUDGET_S
                run = traced(w, ns.seed, deadline) if mode else \
                    untraced(w, ns.seed, ns.seconds, deadline)
                show(run, f"{w}  ")
                result["correct"] &= run.correct
                result["attempted"] += run.attempted
                result["failed"] += run.failed
                result["metrics"].update(
                    {f"{w}.{k}": v for k, v in run.metrics.items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
