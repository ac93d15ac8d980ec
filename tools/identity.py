"""The sha256 of every output a behaviour-preserving change must keep
byte-identical, one ``<sha256>  <output>`` line each.

    python3 tools/identity.py > identity.txt

It imports ``kk6`` from ``src/`` of the checkout it sits in, so running it
in two checkouts and comparing the two listings with ``diff`` shows every
output that moved.  The outputs, each as sorted-key JSON without the
``timing`` key:

* ``record_dict`` of every claim and of the benchmark's refutation probes
  at seeds 0-2,
* the ``kk6 curvature`` reports of the benchmark's inputs at seeds 0-1,
* the default (symbolic) ``dirac1``, ``coupled`` and ``gravity-dirac``
  reports,
* ``kk6 fringes points=201`` and ``kk6 geodesic steps=200``.

A whole run takes about 20 s; the symbolic ``gravity-dirac`` report is
most of it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from kk6 import cli, verify  # noqa: E402
from kk6.report import record_dict  # noqa: E402
from workloads import CURVATURE, PROBES  # noqa: E402

SYMBOLIC = ("dirac1", "coupled", "gravity-dirac")


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    rep = json.loads(out.getvalue()) if out.getvalue() else {}
    rep.pop("timing", None)
    return json.dumps([code, rep, err.getvalue()], sort_keys=True)


def outputs():
    """(name, text) of every output on the list, in a fixed order."""
    runs = [(cid, cid, {}) for cid in verify.claim_ids()] + list(PROBES)
    for seed in (0, 1, 2):
        for name, cid, params in runs:
            rec = verify.run_claim(cid, seed=seed, params=params)
            yield (f"claim {name} seed={seed}",
                   json.dumps(record_dict(rec), sort_keys=True))
    for seed in (0, 1):
        for aid, params in CURVATURE:
            argv = ("curvature", f"ansatz={aid}", *params, f"--seed={seed}")
            yield " ".join(argv), _cli(argv)
    for argv in (*(("curvature", f"ansatz={aid}") for aid in SYMBOLIC),
                 ("fringes", "points=201"), ("geodesic", "steps=200")):
        yield " ".join(argv), _cli(argv)


def main() -> int:
    for name, text in outputs():
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
