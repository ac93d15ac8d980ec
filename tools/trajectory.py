"""Whole-process figures of kk6's costliest commands, as medians and
quartiles over fresh runs, at this checkout and at a base revision.

    python3 tools/trajectory.py --out BENCH.json [--runs N] [--base REV]
        [--bench SEEDS] [--tier1 PASSED SECONDS] [--input ARGV]...
        [--golden FILE]

The inputs, each a ``python3 -m kk6`` command line:

* ``kk6 curvature`` at the default (symbolic) parameters for ``dirac1``,
  ``coupled`` and ``gravity-dirac``, and for ``dirac1`` at the irrational
  point ``p1=1/2 p2=1/3 p3=1/4 m0=1``;
* ``kk6 verify``;
* ``kk6 geodesic steps=100000``, in JSON and in CSV.

``--input`` (repeatable) replaces that list.  Each input runs in ``--runs``
(default 3) fresh processes.  With ``--base REV``, the revision is
extracted by ``git archive`` into a temporary directory and each run of
an input alternates between the two checkouts, the first one alternating
from round to round, so that both see the same drift of the host.  A
run's child is started by a reader process of its own, which reads the
child's peak RSS with ``RUSAGE_CHILDREN``, so no peak carries over from
one run to the next; each checkout's ``src/kk6`` is byte-compiled
first, so no run pays for compiling it.  For each run the tool records
the wall seconds (in the reader, around the child), every key of the
report's ``timing`` and the peak RSS; ``calib.host_factor()`` of
``bench/``, sampled before and after each run, gives the wall time in
reference seconds too.

It refuses, with exit code 1 and nothing written, when a child fails (a
``verify`` run of chosen claims may exit 1, a refutation), when a
``curvature`` report's sha256 without ``timing`` differs from the digest
that the checkout's ``tests/golden_symbolic.json`` (or ``--golden``)
gives its input, or when a verdict of the whole ``kk6 verify`` suite
differs from the checkout's ``bench/workloads.py`` table.

``--bench SEEDS`` (comma-separated) also runs ``bench/run.py --workload
suite|curvature --seed S --seconds 10 --trace 0``, unchanged, in each
checkout, alternating likewise, and copies its end-to-end metrics; a run
that is not ``correct`` is refused.  ``--tier1 PASSED SECONDS`` records
the Tier-1 count and wall time as given.

The output holds, per checkout, input and metric, the unit, median, q1,
q3 and the runs; the checkouts' commits (for this one, ``HEAD``, whether
the working tree differs from it, and the sha256 of ``src/kk6``); and the
seeds.  Three runs of the seven inputs take about 30 s per checkout;
``--bench`` with three seeds adds about 75 s per checkout.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from calib import host_factor  # noqa: E402

INPUTS = (
    "curvature ansatz=dirac1",
    "curvature ansatz=dirac1 p1=1/2 p2=1/3 p3=1/4 m0=1",
    "curvature ansatz=coupled",
    "curvature ansatz=gravity-dirac",
    "verify",
    "geodesic steps=100000",
    "geodesic steps=100000 --format csv",
)
WORKLOADS = ("suite", "curvature")

# Run by the reader process: argv[1] the checkout, argv[2] the kk6
# arguments as JSON.  It prints one JSON object about the child.
READER = r"""
import hashlib, json, os, resource, subprocess, sys, time
root, argv = sys.argv[1], json.loads(sys.argv[2])
env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
t0 = time.perf_counter()
p = subprocess.run([sys.executable, "-m", "kk6", *argv], cwd=root, env=env,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
wall = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
out = {"code": p.returncode, "stderr": p.stderr.decode()[-400:],
       "wall_s": wall, "peak_rss_mb": peak, "timing": {}}
if p.returncode in (0, 1) and "csv" not in argv:
    rep = json.loads(p.stdout)
    out["timing"] = rep.pop("timing", {})
    out["sha256"] = hashlib.sha256(
        json.dumps(rep, indent=1).encode()).hexdigest()
    out["verdicts"] = {r["id"]: r["verdict"] for r in rep.get("records", ())}
print(json.dumps(out))
"""


class Refused(Exception):
    """A run whose output or verdicts differ from the known ones."""


def _git(root: Path, *args) -> str | None:
    # None outside a git checkout
    p = subprocess.run(["git", *args], cwd=root, capture_output=True,
                       text=True)
    return p.stdout.strip() if p.returncode == 0 else None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src" / "kk6").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _expected_verdicts(root: Path) -> dict:
    # the checkout's known-answer table, read in a process of its own
    return json.loads(subprocess.run(
        [sys.executable, "-c", "import json; from workloads import "
         "EXPECTED_VERDICT as v; print(json.dumps(v))"],
        cwd=root / "bench", check=True, capture_output=True,
        text=True).stdout)


def _golden_key(argv: list) -> str:
    # "curvature ansatz=dirac1 p1=1/2 ..." -> "dirac1 p1=1/2 ...", the
    # labels of tests/golden_symbolic.json
    return " ".join([argv[1].removeprefix("ansatz="), *argv[2:]])


class Checkout:
    """A tree whose ``src/kk6`` is measured, with its known answers and
    the figures of its runs."""

    def __init__(self, name: str, root: Path, commit: dict, golden):
        # byte-compiled first, as bench/run.py does, so that no run pays
        # for compiling kk6 (a tree extracted by git archive has no .pyc)
        compileall.compile_dir(str(root / "src" / "kk6"), quiet=1)
        self.name, self.root, self.commit = name, root, commit
        self.golden = json.loads(
            (golden or root / "tests" / "golden_symbolic.json").read_text())
        self.verdicts = _expected_verdicts(root)
        self.results: dict = {}
        self.bench: dict = {}

    def check(self, label: str, argv: list, got: dict) -> None:
        # only a verify run of chosen claims may exit 1: a refutation
        refuted = got["code"] == 1 and argv[0] == "verify" and \
            argv != ["verify"]
        if got["code"] != 0 and not refuted:
            raise Refused(f"{self.name}: {label}: exit code {got['code']}: "
                          f"{got['stderr'].strip()}")
        if argv[0] == "curvature":
            want = self.golden.get(_golden_key(label.split()))
            if got["sha256"] != want:
                raise Refused(f"{self.name}: {label}: report sha256 "
                              f"{got['sha256']}, known {want}")
        if argv == ["verify"]:
            moved = {c: v for c, v in got["verdicts"].items()
                     if self.verdicts.get(c) != v}
            if moved or not got["verdicts"]:
                raise Refused(f"{self.name}: verify verdicts moved: {moved}")


def _run(checkout: Checkout, label: str) -> None:
    argv = label.split()
    if argv[0] == "curvature":
        argv.append("--seed=0")
    before = host_factor()
    p = subprocess.run([sys.executable, "-c", READER, str(checkout.root),
                        json.dumps(argv)], check=True, capture_output=True,
                       text=True)
    factor = (before + host_factor()) / 2
    got = json.loads(p.stdout)
    checkout.check(label, argv, got)
    figures = {"wall_s": (got["wall_s"], "s"),
               "wall_ref_s": (got["wall_s"] * factor, "reference s"),
               "peak_rss_mb": (got["peak_rss_mb"], "MB"),
               **{f"timing.{k}": (v, "s") for k, v in got["timing"].items()}}
    into = checkout.results.setdefault(label, {})
    for name, (value, unit) in figures.items():
        into.setdefault(name, {"unit": unit, "runs": []})["runs"].append(
            value)


def _bench(checkout: Checkout, workload: str, seed: int) -> None:
    p = subprocess.run([sys.executable, "bench/run.py", "--workload",
                        workload, "--seed", str(seed), "--seconds", "10",
                        "--trace", "0"], cwd=checkout.root,
                       capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    got = json.loads(lines[-1]) if lines else {}
    if p.returncode != 0 or not got.get("correct"):
        raise Refused(f"{checkout.name}: bench/run.py --workload {workload} "
                      f"--seed {seed} is not correct: {p.stderr[-400:]}")
    names = [m["name"] for m in json.loads(
        (checkout.root / "BENCHMARK.json").read_text())["end_to_end"]]
    into = checkout.bench.setdefault(workload, {})
    for name in names:
        m = got["metrics"][name]
        row = into.setdefault(name, {"unit": m["unit"], "runs": [],
                                     "seeds": []})
        row["runs"].append(m["value"])
        row["seeds"].append(seed)


def _summary(rows: dict) -> dict:
    out = {}
    for name, row in rows.items():
        runs = row["runs"]
        q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                     if len(runs) > 1 else runs * 3)
        out[name] = {**row, "median": statistics.median(runs), "q1": q1,
                     "q3": q3}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--base", metavar="REV")
    ap.add_argument("--bench", metavar="SEEDS")
    ap.add_argument("--tier1", nargs=2, metavar=("PASSED", "SECONDS"))
    ap.add_argument("--input", action="append", metavar="ARGV")
    ap.add_argument("--golden", type=Path)
    args = ap.parse_args(argv)
    inputs = args.input or list(INPUTS)
    seeds = [int(s) for s in args.bench.split(",")] if args.bench else []
    status = _git(ROOT, "status", "--porcelain", "--untracked-files=no")
    checkouts = [Checkout("change", ROOT, {
        "head": _git(ROOT, "rev-parse", "HEAD"),
        "working_tree_differs": None if status is None else bool(status),
        "src_kk6_sha256": _src_digest(ROOT)}, args.golden)]
    with tempfile.TemporaryDirectory() as tmp:
        if args.base:
            base = Path(tmp)
            tar = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(base)], input=tar,
                           check=True)
            checkouts.append(Checkout("base", base, {
                "commit": _git(ROOT, "rev-parse", f"{args.base}^{{commit}}"),
                "src_kk6_sha256": _src_digest(base)}, args.golden))
        try:
            for r in range(args.runs):
                order = checkouts if r % 2 == 0 else checkouts[::-1]
                for label in inputs:
                    for checkout in order:
                        _run(checkout, label)
            for i, seed in enumerate(seeds):
                order = checkouts if i % 2 == 0 else checkouts[::-1]
                for workload in WORKLOADS:
                    for checkout in order:
                        _bench(checkout, workload, seed)
        except Refused as err:
            print(f"error[refused]: {err}", file=sys.stderr)
            return 1
    out = {
        "schema": 1,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "runs": args.runs,
        "inputs": inputs,
        "commits": {c.name: c.commit for c in checkouts},
        "results": {c.name: {label: _summary(rows)
                             for label, rows in c.results.items()}
                    for c in checkouts},
    }
    if seeds:
        out["bench"] = {"seeds": seeds,
                        **{c.name: {w: _summary(rows)
                                    for w, rows in c.bench.items()}
                           for c in checkouts}}
    if args.tier1:
        out["tier1"] = {"passed": int(args.tier1[0]),
                        "seconds": float(args.tier1[1])}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
