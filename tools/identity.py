"""The sha256 of every output a behaviour-preserving change must keep
byte-identical, one ``<sha256>  <output>`` line each.

    python3 tools/identity.py > identity.txt

It imports ``kk6`` from ``src/`` of the checkout it sits in, so running it
in two checkouts and comparing the two listings with ``diff`` shows every
output that moved.  The outputs, each as sorted-key JSON without the
``timing`` key:

* ``record_dict`` of every claim and of the benchmark's refutation probes
  at seeds 0-2, and of ``gravity.split.scalar`` at ``eps=1/3`` and seed 0,
  whose weak-field block must be the exact 1/3,
* the ``kk6 curvature`` reports of the benchmark's inputs at seeds 0-1,
* per benchmark curvature input, ``to_text`` of every Christoffel symbol
  (all 216, one per line) and of the metric's determinant, neither of
  which the reports print, and ``to_text`` of ``conj`` and of
  ``subs(., {"x0": x0 + x1})`` of every Christoffel symbol, which cover
  the kernel's tree walkers directly, and ``to_text`` of the 36 ``ricci``
  entries, which the reports print only through Einstein and R,
* the default (symbolic) ``dirac1``, ``coupled`` and ``gravity-dirac``
  reports,
* ``kk6 fringes points=201`` and ``kk6 geodesic steps=200``, and the
  stdout of each with ``--format csv``: the CSV table, byte for byte,
* ``two_path_fringes(...).minima`` at the default geometry, an order at
  exactly the slit separation, a geometry near 1e160 and 20 seeded ones,
  grazing ones among them, as raw bytes (``fringes points=201`` covers
  the default geometry only),
* every state and residual of ``integrate`` at the geodesic claim's
  inputs and 1000 steps, as raw bytes (the ``geodesic`` report keeps only
  two maxima of them), and likewise of a perturbed start (v0 and v4 each
  0.2 off the closed form, ``tau_end`` 2, 400 steps) and of a backward
  run (``tau_end`` -1, 1000 steps), and of three 50-step runs from the
  origin with integer-typed coordinates: the blow-up start (v4 = v5 =
  1e9, ``tau_end`` 10), which overflows mid-step, the guard start (v4 =
  1e11, ``tau_end`` 1), which the 1e12 guard stops, and an all-integer
  start (v4 = 1, ``tau_end`` 1), which runs to the end,
* ``interval_along``'s ``ds``, ``dl`` and ``dx4`` of every step of that
  1000-step claim path, then its ``closed_form_deviation``, as raw bytes
  (the claim keeps only the largest slope error and the deviation),
* ``einstein_fd`` of the nine metrics the ``gravity.split`` claims
  difference (full, field and background per family) at two seeded
  complex points, as raw bytes, and then ``einstein_jet`` of the same
  nine at the same points,
* the exit code and error line of the documented refusals ``geodesic
  p3=1e200``, ``fringes d=1e308 L=1e308``, ``verify --claim
  interference.minima d=1e308``, ``geodesic steps=100001``, ``fringes
  points=100001``, ``verify --claim gravity.split.scalar points=1001``,
  and ``verify --claim ricci.scalar.zero`` with ``perturb=1/0`` (a zero
  raised to a negative power) and with ``perturb=2^100000`` (a number
  longer than 4300 digits).

A whole run takes about 5 s on a 2-core host; the symbolic reports are
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
from kk6.curvature import christoffel, ricci  # noqa: E402
from kk6.dynamics import (  # noqa: E402
    GeodesicState, closed_form_deviation, closed_form_state,
    connection_evaluator, integrate, interval_along, two_path_fringes,
)
from kk6.expr import ZERO, conj, num, subs, sym, to_text  # noqa: E402
from kk6.oracle import (  # noqa: E402
    einstein_fd, einstein_jet, jet_evaluator, metric_evaluator,
)
from kk6.report import record_dict  # noqa: E402
from kk6.tensor import Metric6  # noqa: E402
from workloads import CURVATURE, PROBES  # noqa: E402

SYMBOLIC = ("dirac1", "coupled", "gravity-dirac")
# documented refusals, each one error line: the exit code and stderr are
# what a change must keep
REFUSALS = (("geodesic", "p3=1e200"), ("fringes", "d=1e308", "L=1e308"),
            ("verify", "--claim", "interference.minima", "d=1e308"),
            ("geodesic", "steps=100001"), ("fringes", "points=100001"),
            ("verify", "--claim", "gravity.split.scalar", "points=1001"),
            ("verify", "--claim", "ricci.scalar.zero", "perturb=1/0"),
            ("verify", "--claim", "ricci.scalar.zero", "perturb=2^100000"))
# the substitution the walker line applies to every Christoffel symbol
SHIFT = {"x0": sym("x0") + sym("x1")}


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if "csv" in argv:               # the table as written, not a report
        return json.dumps([code, out.getvalue(), err.getvalue()])
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
    rec = verify.run_claim("gravity.split.scalar", params={"eps": "1/3"})
    yield ("claim gravity.split.scalar eps=1/3 seed=0",
           json.dumps(record_dict(rec), sort_keys=True))
    for seed in (0, 1):
        for aid, params in CURVATURE:
            argv = ("curvature", f"ansatz={aid}", *params, f"--seed={seed}")
            yield " ".join(argv), _cli(argv)
    for aid, params in CURVATURE:
        cfg = cli.parse_config("\n".join(("command=curvature",
                                          f"ansatz={aid}", *params)))
        metric = cli.build_ansatz(aid, cfg.params)[0]
        label = " ".join((f"ansatz={aid}", *params))
        gamma = [e for plane in christoffel(metric) for row in plane
                 for e in row]
        yield f"christoffel {label}", "\n".join(map(to_text, gamma))
        yield f"det {label}", to_text(metric.det())
        yield f"christoffel conj subs {label}", "\n".join(
            (*(to_text(conj(e)) for e in gamma),
             *(to_text(subs(e, SHIFT)) for e in gamma)))
        yield f"ricci {label}", "\n".join(
            to_text(e) for row in ricci(metric) for e in row)
    for argv in (*(("curvature", f"ansatz={aid}") for aid in SYMBOLIC),
                 ("fringes", "points=201"), ("geodesic", "steps=200"),
                 ("fringes", "points=201", "--format", "csv"),
                 ("geodesic", "steps=200", "--format", "csv")):
        yield " ".join(argv), _cli(argv)
    yield ("integrate steps=1000 states residuals",
           _geodesic_path(False, 1.0, 1000))
    yield ("integrate perturbed tau_end=2 steps=400 states residuals",
           _geodesic_path(True, 2.0, 400))
    yield ("integrate tau_end=-1 steps=1000 states residuals",
           _geodesic_path(False, -1.0, 1000))
    for label, v, tau_end in (("blow-up", (0, 0, 0, 0, 1e9, 1e9), 10.0),
                              ("guard", (0, 0, 0, 0, 1e11, 0), 1.0),
                              ("integer", (0, 0, 0, 0, 1, 0), 1.0)):
        yield (f"integrate {label} start steps=50 states residuals",
               _path_hex(GeodesicState((0,) * 6, v, 0), tau_end, 50))
    yield ("interval_along steps=1000 ds dl dx4 closed_form_deviation",
           _claim_intervals())
    yield "two_path_fringes minima", _fringe_minima()
    yield "einstein_fd gravity.split metrics", _gravity_split_fd()
    yield "einstein_jet gravity.split metrics", _gravity_split_jet()
    for argv in REFUSALS:
        yield " ".join(argv), _cli(argv)


def _geodesic_path(perturbed: bool, tau_end: float, steps: int) -> str:
    # from the geodesic claim's closed-form start; perturbed, v0 and v4
    # are each 0.2 off it, so the path is no longer quadratic in tau
    s0 = closed_form_state(0.0, verify._GEO_P, verify._GEO_M0,
                           verify._GEO_CONST)
    if perturbed:
        v = list(s0.v)
        v[0] += 0.2
        v[4] += 0.2
        s0 = GeodesicState(s0.x, tuple(v), s0.tau)
    return _path_hex(s0, tau_end, steps)


def _path_hex(s0: GeodesicState, tau_end: float, steps: int) -> str:
    # every state, affine parameter and residual of the scalar mode's
    # geodesic at the claim's momenta, as raw bytes
    mode = scalar_metric(p=verify._GEO_P, m0=verify._GEO_M0)
    path = integrate(s0, tau_end, steps, connection_evaluator(mode.metric))
    blob = (np.array([s.x + s.v for s in path.states]).tobytes()
            + np.array([s.tau for s in path.states]).tobytes()
            + np.array(path.residuals).tobytes())
    return f"{blob.hex()} aborted={path.aborted}"


def _claim_intervals() -> str:
    # each step's interval, then the deviation, of the claim's 1000 steps
    args = verify._GEO_P, verify._GEO_M0, verify._GEO_CONST
    mode = scalar_metric(p=verify._GEO_P, m0=verify._GEO_M0)
    path = integrate(closed_form_state(0.0, *args), 1.0, 1000,
                     connection_evaluator(mode.metric))
    return (np.array([(iv.ds, iv.dl, iv.dx4)
                      for iv in interval_along(path, mode.metric)]).tobytes()
            + np.array([closed_form_deviation(path, *args)]).tobytes()).hex()


def _fringe_minima() -> str:
    # (d, L, wavelength, ymax); the seeded wavelengths put the top order
    # 1e-15..1e-1 of d short of d, and ymax up to 1e8 d reaches some
    geos = [(10.0, 400.0, 0.5, 15.0), (1.0, 1.0, 2.0, 1e8),
            (1e160, 1e160, 1e159, 1e160)]
    rng = random.Random(0)
    for _ in range(20):
        d = rng.uniform(0.1, 10)
        geos.append((d, d * 10 ** rng.uniform(-1, 2),
                     d * (1 - 10 ** rng.uniform(-15, -1))
                     / rng.choice((0.5, 1.5)), d * 10 ** rng.uniform(0, 8)))
    return "\n".join(
        np.array(two_path_fringes(d, length, lam,
                                  np.linspace(-ymax, ymax, 64)).minima)
        .tobytes().hex() for d, length, lam, ymax in geos)


def _gravity_split_metrics():
    # the claims' metrics at their default eps = 1/1000 and kappa = 1
    # (the scalar mode takes no kappa), and two seeded complex points
    g4 = weak_field_block(num("1/1000"))
    rng = random.Random(0)
    pts = [[complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            for _ in range(6)] for _ in range(2)]
    metrics = []
    for family in ("scalar", "proca", "dirac"):
        mode = verify._gravity_mode(family)
        kappa = None if family == "scalar" else num(1)
        metrics += [gravity_metric(mode, g4, kappa),
                    gravity_metric(mode, None, kappa),
                    Metric6(kk_rows(g4, (ZERO,) * 4))]
    return metrics, pts


def _gravity_split_fd() -> str:
    metrics, pts = _gravity_split_metrics()
    blob = b""
    for metric in metrics:
        ev = metric_evaluator(metric)
        blob += b"".join(einstein_fd(ev, pt).tobytes() for pt in pts)
    return blob.hex()


def _gravity_split_jet() -> str:
    metrics, pts = _gravity_split_metrics()
    blob = b""
    for metric in metrics:
        jf = jet_evaluator(metric)
        blob += b"".join(np.array(einstein_jet(jf, pt)).tobytes()
                         for pt in pts)
    return blob.hex()


def main() -> int:
    for name, text in outputs():
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
