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
* ``kk6 fringes points=201`` and ``kk6 geodesic steps=200``,
* every state and residual of ``integrate`` at the geodesic claim's
  inputs and 1000 steps, as raw bytes (the ``geodesic`` report keeps only
  two maxima of them),
* ``einstein_fd`` of the nine metrics the ``gravity.split`` claims
  difference (full, field and background per family) at two seeded
  complex points, as raw bytes.

A whole run takes about 20 s; the symbolic ``gravity-dirac`` report is
most of it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from kk6 import cli, verify  # noqa: E402
from kk6.ansatz import (  # noqa: E402
    gravity_metric, kk_rows, scalar_metric, weak_field_block,
)
from kk6.dynamics import (  # noqa: E402
    closed_form_state, connection_evaluator, integrate,
)
from kk6.expr import ZERO, num  # noqa: E402
from kk6.oracle import einstein_fd, metric_evaluator  # noqa: E402
from kk6.report import record_dict  # noqa: E402
from kk6.tensor import Metric6  # noqa: E402
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
    yield "integrate steps=1000 states residuals", _geodesic_path()
    yield "einstein_fd gravity.split metrics", _gravity_split_fd()


def _geodesic_path() -> str:
    mode = scalar_metric(p=verify._GEO_P, m0=verify._GEO_M0)
    s0 = closed_form_state(0.0, verify._GEO_P, verify._GEO_M0,
                           verify._GEO_CONST)
    path = integrate(s0, 1.0, 1000, connection_evaluator(mode.metric))
    blob = (np.array([s.x + s.v for s in path.states]).tobytes()
            + np.array([s.tau for s in path.states]).tobytes()
            + np.array(path.residuals).tobytes())
    return f"{blob.hex()} aborted={path.aborted}"


def _gravity_split_fd() -> str:
    # the claims' metrics at their default eps = 1/1000 and kappa = 1
    g4 = weak_field_block(num("1/1000"))
    rng = random.Random(0)
    pts = [[complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            for _ in range(6)] for _ in range(2)]
    blob = b""
    for family in ("scalar", "proca", "dirac"):
        fields = verify._gravity_fields(family)
        for metric in (gravity_metric(family, g4, num(1), **fields).metric,
                       gravity_metric(family, None, num(1), **fields).metric,
                       Metric6(kk_rows(g4, (ZERO,) * 4))):
            ev = metric_evaluator(metric)
            blob += b"".join(einstein_fd(ev, pt).tobytes() for pt in pts)
    return blob.hex()


def main() -> int:
    for name, text in outputs():
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
