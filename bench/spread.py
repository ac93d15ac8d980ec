"""Run-to-run spread of the kk6 benchmark's metrics.

    python3 bench/spread.py --workload suite --seeds 0-9 [--trace 1]
                            [--out FILE]

Runs ``run.py`` once per seed, then prints for each metric the median, the
quartiles (``statistics.quantiles(n=4)``) and the interquartile range as a
share of the median.  End-to-end metrics (``--trace 0``) are shown next to
their bound in ``BENCHMARK.json``.  ``--out`` merges the summary into a JSON
file under ``end_to_end`` or ``per_layer``, then the workload
(``bench/baseline.json`` holds the committed baseline).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ns = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = ns.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in ns.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", ns.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(ns.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            failures += 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = "" if ns.trace else "  ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}",
              flush=True)

    kind = "per_layer" if ns.trace else "end_to_end"
    summary = {"seeds": ns.seeds, "failed_runs": failures, "metrics": {}}
    for metric in bench[kind]:
        name = metric["name"]
        vals = values.get(name, [])
        if not vals:
            continue
        entry = {"median": statistics.median(vals), "unit": metric["unit"],
                 "values": vals}
        line = f"{name:<40} median {entry['median']:12.6g} {metric['unit']}"
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / entry["median"]
                         if entry["median"] else 0.0)
            line += f"  q1 {q1:.6g} q3 {q3:.6g} spread {entry['spread']:.4f}"
        if "bound" in metric:
            entry["bound"] = metric["bound"]
            ok = entry.get("spread", 0.0) < metric["bound"] / 3
            line += f" bound {metric['bound']} {'ok' if ok else 'WIDE'}"
        summary["metrics"][name] = entry
        print(line)
    print(f"runs not correct: {failures} of {len(ns.seeds)}")
    if ns.out:
        path = Path(ns.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.setdefault(kind, {})[ns.workload] = summary
        path.write_text(json.dumps(merged, indent=2) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
