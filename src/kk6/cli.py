"""Command-line front end: configuration, claim runs, report emission.

Commands
--------
``curvature``   build a named metric and report its curvature tensors;
                where the family prints an inverse, grade it entry by
                entry (``verify.grade_entries``)
``verify``      run claim checks (default: every must-pass claim)
``geodesic``    integrate the closed-form-seeded trajectory numerically
``fringes``     two-path interference density profile with located minima

Configuration is flat ``key=value`` text -- either lines of a file passed
with ``--config`` or bare ``key=value`` arguments; later sources win
(defaults < file < command line, flags last).  ``#`` starts a comment.
Numbers accept integer, decimal, scientific and ``a/b`` rational forms;
physics parameters also accept the word ``symbolic`` to leave them
unbound.  Diagnostics are first-error-wins with line and column.

Parameters are stated once, in :mod:`kk6.verify`: each value is parsed
by its kind in ``PARAM_KINDS``; a command accepts the names of its
target (the selected claims' ``REGISTRY`` rows, the ansatz's row in
``_ANSATZ_PARAMS``, or ``GEODESIC_DEFAULTS`` / ``FRINGE_DEFAULTS``); and
``read_params`` fills in defaults and runs the range checks.  All of it
happens while the configuration is read, before anything is computed,
for the commands and the claims alike, and ``run_claim`` reads its
parameters the same way.

Output is written once at the end.  JSON reports have a stable schema and
key order; all timing lives under the single ``timing`` key, so identical
config and seed reproduce the report byte-for-byte once that key is
dropped.  ``timing`` holds the run's total ``seconds`` and, for
``curvature``, the time of each pipeline stage as a flat dotted key:
``stages.inverse``, ``stages.christoffel``, ``stages.ricci``,
``stages.ricci_scalar`` and ``stages.einstein``.  A metric that depends
on the coordinates through one plane-wave phase takes Ricci's phase route
(:mod:`kk6.curvature`), which forms no Christoffel symbols: its
``stages.christoffel`` times the phase certificate alone.  CSV columns:

* ``geodesic``: header ``tau,re_x0,im_x0,...,re_x5,im_x5``, one row per
  stored state,
* ``fringes``: header ``y,density``, grid rows in order followed by one
  row per located minimum.

Each CSV cell is the ``repr`` of the double the run holds.  The rows are a
lazy iterable that :func:`emit` reads only for ``--format csv``, so a JSON
run never forms the table.

Exit codes: 0 success, 1 must-pass claim refuted, 2 usage or
configuration error, 3 runtime failure.  Every error path prints a single
line ``error[<code>]: <message>`` to stderr.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain

from . import __version__
from .ansatz import (
    AnsatzError, coupled_metric, dirac_metric, gravity_metric,
    massive_wave_potential, null_wave_potential, photon_metric,
    proca_metric, scalar_metric, weak_field_block,
)
from .curvature import _phase, christoffel, einstein, ricci, ricci_scalar
from .dynamics import (
    DynamicsError, closed_form_deviation, closed_form_state,
    connection_evaluator, integrate,
)
from .expr import ZERO, to_text
from .report import Report, to_json
from .tensor import DIM, SingularMetricError, identity_residual
from .verify import (
    FRINGE_DEFAULTS, GEODESIC_DEFAULTS, PARAM_KINDS, REGISTRY,
    ClaimParamError, coerce_param, fringe_profile, grade_entries,
    must_pass_ids, read_params, refuted_must_pass, run_suite,
    scalar_momenta,
)
from .zeros import _check_seed, _check_tol

__all__ = ["RunConfig", "CliError", "parse_config", "emit", "main"]

COMMANDS = ("curvature", "verify", "geodesic", "fringes")

_ANSATZ_PARAMS = {
    # name -> default (None: unbound, the symbol); the scalar report is the
    # hbar = 1 metric unless hbar is given
    "scalar": {**dict.fromkeys(("p0", "p1", "p2", "p3", "m0")), "hbar": 1},
    "photon": dict.fromkeys(("omega", "pol")),
    "proca": dict.fromkeys(("k3", "m0", "pol")),
    **{f"dirac{s}": dict.fromkeys(("p1", "p2", "p3", "m0"))
       for s in range(1, 5)},
    "coupled": dict.fromkeys(("sol", "p1", "p2", "p3", "m0", "gamma")),
    "gravity-scalar": dict.fromkeys(("p0", "p1", "p2", "p3", "m0", "eps")),
    "gravity-proca": dict.fromkeys(("k3", "m0", "pol", "eps", "kappa")),
    "gravity-dirac": dict.fromkeys(("sol", "p1", "p2", "p3", "m0", "eps",
                                    "kappa")),
}
ANSATZ_IDS = tuple(_ANSATZ_PARAMS)


class CliError(Exception):
    """Error with a machine-greppable code and a process exit status."""

    def __init__(self, code: str, message: str, exit_code: int):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _usage(message: str) -> CliError:
    return CliError("usage", message, 2)


def _config_err(message: str, where: str | None = None) -> CliError:
    return CliError("config", f"{where}: {message}" if where else message, 2)


def _runtime(message: str) -> CliError:
    return CliError("runtime", message, 3)


@dataclass(frozen=True)
class RunConfig:
    command: str
    ansatz: str | None
    claims: tuple[str, ...] | None    # None -> default must-pass selection
    seed: int
    tol: float
    out: str | None
    format: str
    params: dict                      # typed values; symbolic entries absent
    echo: dict                        # raw bindings for the report config


# ---------------------------------------------------------------------------
# configuration parsing

def _lex_config(text: str):
    """Return (key, value, value position, key position) per binding."""
    items = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            col = len(line) - len(line.lstrip()) + 1
            raise _config_err("expected key=value", f"line {ln}, column {col}")
        key, value = line.split("=", 1)
        key_col = len(key) - len(key.lstrip()) + 1
        value_col = len(key) + 2 + (len(value) - len(value.lstrip()))
        key, value = key.strip(), value.strip()
        if not key:
            raise _config_err("empty key", f"line {ln}, column {key_col}")
        if not value:
            raise _config_err(f"empty value for {key!r}",
                              f"line {ln}, column {value_col}")
        items.append((key, value, f"line {ln}, column {value_col}",
                      f"line {ln}, column {key_col}"))
    return items


def _resolve(items) -> RunConfig:
    command = ansatz = out = None
    claims: list[str] | None = None
    seed, tol, fmt = 0, 1e-9, "json"
    given: dict = {}                  # typed values; None for symbolic
    echo: dict = {}
    positions: dict = {}

    for key, value, where, key_where in items:
        if key == "command":
            if value not in COMMANDS:
                raise _config_err(
                    f"unknown command {value!r} (expected one of "
                    f"{', '.join(COMMANDS)})", where)
            command = value
        elif key == "ansatz":
            if value not in ANSATZ_IDS:
                raise _config_err(f"unknown ansatz {value!r}", where)
            ansatz = value
        elif key == "seed":
            try:
                seed = int(value, 10)
            except ValueError:
                raise _config_err(f"seed expects an integer, got {value!r}",
                                  where) from None
            try:
                _check_seed(seed)
            except ValueError as err:
                raise _config_err(str(err), where) from None
        elif key == "tol":
            try:
                tol = float(value)
            except ValueError:
                raise _config_err(f"tol expects a number, got {value!r}",
                                  where) from None
            try:
                _check_tol(tol)
            except ValueError as err:
                raise _config_err(str(err), where) from None
        elif key == "out":
            out = value
        elif key == "format":
            if value not in ("json", "csv"):
                raise _config_err("format must be json or csv", where)
            fmt = value
        elif key == "claims":
            claims = [c.strip() for c in value.split(",") if c.strip()]
            for cid in claims:
                if cid not in REGISTRY:
                    raise _config_err(f"unknown claim id {cid!r}", where)
        elif key in PARAM_KINDS:
            try:
                given[key] = coerce_param(key, value)
            except ClaimParamError as err:
                raise _config_err(str(err), where) from None
            positions[key] = key_where
        else:
            raise _config_err(f"unknown key {key!r}", key_where)
        if key not in ("command", "out"):
            echo[key] = value

    if command is None:
        raise _usage("no command given (expected one of "
                     + ", ".join(COMMANDS) + ")")

    # cross-field validation: the command's targets (reader -> accepted
    # name -> default) must take every given parameter, symbolic or bound
    params = {k: v for k, v in given.items() if v is not None}
    if command == "verify":
        if ansatz is not None:
            raise _config_err("command 'verify' does not take an ansatz; "
                              "select claims instead")
        selection = claims if claims is not None else must_pass_ids()
        targets = {cid: REGISTRY[cid].params for cid in selection}
        stray = "is not accepted by any selected claim"
    elif command == "curvature":
        if claims is not None:
            raise _config_err("command 'curvature' does not use claim "
                              "selection")
        aid = ansatz or "scalar"
        targets = {aid: _ANSATZ_PARAMS[aid]}
        stray = f"is not declared by ansatz {aid!r}"
    elif command == "geodesic":
        if ansatz not in (None, "scalar"):
            raise _config_err("command 'geodesic' integrates the scalar "
                              "ansatz only")
        if claims is not None:
            raise _config_err("command 'geodesic' does not use claim "
                              "selection")
        targets = {"geodesic integration": GEODESIC_DEFAULTS}
        stray = "is not used by the geodesic command"
    else:  # fringes
        if ansatz is not None or claims is not None:
            raise _config_err("command 'fringes' takes only geometry "
                              "parameters")
        targets = {"fringes": FRINGE_DEFAULTS}
        stray = "is not used by the fringes command"
    for key in given:
        if not any(key in spec for spec in targets.values()):
            raise _config_err(f"parameter {key!r} {stray}",
                              positions.get(key))

    if fmt == "csv" and command in ("curvature", "verify"):
        raise _config_err("csv output applies to the geodesic and fringes "
                          "commands")
    try:
        for reader, spec in targets.items():
            read_params(spec, given, reader)
    except ClaimParamError as err:
        raise _config_err(str(err)) from None

    echo["seed"] = seed
    echo["tol"] = tol
    echo["format"] = fmt
    if claims is not None:
        echo["claims"] = sorted(claims)
    return RunConfig(command=command, ansatz=ansatz,
                     claims=tuple(sorted(claims)) if claims is not None
                     else None,
                     seed=seed, tol=tol, out=out, format=fmt,
                     params=params, echo=echo)


def parse_config(text: str) -> RunConfig:
    """Parse and validate flat key=value configuration text."""
    return _resolve(_lex_config(text))


# ---------------------------------------------------------------------------
# ansatz construction by name

def build_ansatz(aid: str, params: dict):
    """Named metric constructor; returns (metric, claimed_upper, notes).
    ``params`` binds only names of the ansatz's row, which are the
    keyword names of its constructors, so unbound ones take the
    constructors' own defaults.  The scalar and coupled families print no
    inverse (claimed_upper None).  A ``gravity-X`` ansatz is X's mode,
    built as for X, coupled over ``weak_field_block(eps)`` by
    ``gravity_metric`` and reported with no printed inverse either."""
    kw = dict(params)
    family = aid.removeprefix("gravity-")
    eps, kappa = kw.pop("eps", None), kw.pop("kappa", None)
    notes = []
    if family == "scalar":
        p, m0, explicit = scalar_momenta(kw)
        mode = scalar_metric(p=p, m0=m0, hbar=kw.get("hbar"))
        notes.append("explicit energy component" if explicit else
                     "p0 = sqrt(p1^2 + p2^2 + p3^2 + m0^2) installed")
    elif family == "photon":
        mode = photon_metric(null_wave_potential(**kw))
    elif family == "proca":
        mode = proca_metric(massive_wave_potential(**kw), kw.get("m0"))
    elif family == "coupled":
        mode = coupled_metric(**kw)
    else:
        mode = dirac_metric(int(family[5:] or kw.pop("sol", 1)), **kw)
        notes += mode.notes
    if family == aid:
        claimed = None if family in ("scalar", "coupled") else \
            mode.claimed_upper
        return mode.metric, claimed, notes
    notes.append("static weak-field background block")
    return gravity_metric(mode, weak_field_block(eps), kappa), None, notes


# ---------------------------------------------------------------------------
# command runners: each returns the records, the data payload, the CSV
# table (or None) and timings to add under ``timing``

def _run_curvature(cfg: RunConfig):
    aid = cfg.ansatz or "scalar"
    metric, claimed, notes = build_ansatz(aid, cfg.params)
    # each stage is memoized on the metric and reads the ones before it,
    # so in this order each time is the stage's own; Ricci reads no
    # Christoffel symbols of a metric that passes its phase certificate,
    # so for that metric the christoffel stage is the certificate
    stages = {}
    for name, stage in (("inverse", lambda m: m.upper()),
                        ("christoffel", lambda m: _phase(m) or christoffel(m)),
                        ("ricci", ricci),
                        ("ricci_scalar", ricci_scalar),
                        ("einstein", einstein)):
        t0 = time.perf_counter()
        stage(metric)
        stages[f"stages.{name}"] = time.perf_counter() - t0
    ein = einstein(metric)
    data = {
        "ansatz": aid,
        "metric": {f"{a}{b}": to_text(metric.lower[a][b])
                   for a in range(DIM) for b in range(a, DIM)
                   if metric.lower[a][b] != ZERO},
        "ricci_scalar": to_text(ricci_scalar(metric)),
        "einstein": {f"{a}{b}": to_text(ein[a][b])
                     for a in range(DIM) for b in range(a, DIM)
                     if ein[a][b] != ZERO},
        "notes": notes,
    }
    if claimed is not None:
        graded = grade_entries(identity_residual(metric, claimed),
                               cfg.seed, cfg.tol)
        data["claimed_inverse"] = {
            "exact": all(o.status == "zero" for o in graded),
            "max_residual": max(o.max_residual for o in graded),
            "structural_zero_entries": sum(o.structural for o in graded),
        }
    return (), data, None, stages


def _run_verify(cfg: RunConfig):
    # the claim ids and parameters were checked with the configuration
    return run_suite(claims=cfg.claims, seed=cfg.seed, tol=cfg.tol,
                     params=cfg.params), None, None, {}


def _run_geodesic(cfg: RunConfig):
    g = read_params(GEODESIC_DEFAULTS, cfg.params, "geodesic integration")
    p1, p2, p3, m0, tau_end = (float(g[k]) for k in
                               ("p1", "p2", "p3", "m0", "tau_end"))
    steps = g["steps"]
    p_sym, m0_sym, _ = scalar_momenta(g)
    mode = scalar_metric(p=p_sym, m0=m0_sym)
    gamma = connection_evaluator(mode.metric)
    p0 = math.sqrt(p1 * p1 + p2 * p2 + p3 * p3 + m0 * m0)
    start = closed_form_state(0.0, (p0, p1, p2, p3), m0, (0,) * 6)
    path = integrate(start, tau_end, steps, gamma)
    if path.aborted:
        raise _runtime("geodesic integration aborted (coordinate blow-up)")

    deviation = closed_form_deviation(path, (p0, p1, p2, p3), m0, (0,) * 6)
    data = {
        "p": [p0, p1, p2, p3], "m0": m0,
        "steps": steps, "tau_end": tau_end,
        "max_step_defect": max(path.residuals),
        "max_closed_form_deviation": deviation,
    }
    header = ["tau"]
    for a in range(DIM):
        header += [f"re_x{a}", f"im_x{a}"]
    rows = ([st.tau, *(c for xa in st.x for c in (xa.real, xa.imag))]
            for st in path.states)
    return (), data, ("path", header, rows), {}


def _run_fringes(cfg: RunConfig):
    (d, length, lam, points), profile = fringe_profile(cfg.params)
    peak = max(profile.density)
    data = {
        "d": d, "L": length, "wavelength": lam,
        "points": points, "peak_density": peak,
        "minima": profile.minima,
        "minima_density": profile.minima_density,
    }
    if cfg.format == "json":
        data["y"] = profile.y
        data["density"] = profile.density
    rows = chain(zip(profile.y, profile.density),
                 zip(profile.minima, profile.minima_density))
    return (), data, ("fringes", ["y", "density"], rows), {}


_RUNNERS = {"curvature": _run_curvature, "verify": _run_verify,
            "geodesic": _run_geodesic, "fringes": _run_fringes}


# ---------------------------------------------------------------------------
# emission

def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def emit(report: Report, format: str, out: str | None = None,
         csv_table=None) -> None:
    """Write the report (and CSV table, if any) to stdout or into ``out``."""
    try:
        if out is None:
            if format == "csv" and csv_table is not None:
                name, header, rows = csv_table
                sys.stdout.write(_csv_text(header, rows))
            else:
                sys.stdout.write(to_json(report))
            return
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "report.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(to_json(report))
        if format == "csv" and csv_table is not None:
            name, header, rows = csv_table
            with open(os.path.join(out, f"{name}.csv"), "w",
                      encoding="utf-8", newline="") as fh:
                fh.write(_csv_text(header, rows))
    except OSError as err:
        raise CliError("io", f"cannot write output: {err}", 3) from None


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _usage(message)


def _build_parser() -> _Parser:
    ap = _Parser(prog="kk6", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", nargs="?",
                    help="curvature | verify | geodesic | fringes")
    ap.add_argument("bindings", nargs="*", metavar="key=value",
                    help="parameter bindings, e.g. p3=3/4 m0=symbolic")
    ap.add_argument("--config", metavar="PATH",
                    help="flat key=value configuration file")
    ap.add_argument("--seed", metavar="U64")
    ap.add_argument("--tol", metavar="FLOAT")
    ap.add_argument("--out", metavar="DIR")
    ap.add_argument("--format", choices=("json", "csv"))
    ap.add_argument("--claim", action="append", metavar="ID",
                    help="claim id (repeatable); overrides config claims")
    return ap


def _gather_items(ns) -> list:
    items = []
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise _config_err(f"cannot read config: {err}")
        items.extend(_lex_config(text))
    bindings = list(ns.bindings)
    if ns.command is not None:
        if "=" in ns.command:       # config file supplies the command
            bindings.insert(0, ns.command)
        else:
            items.append(("command", ns.command, "argument 'command'",
                          "argument 'command'"))
    for binding in bindings:
        if "=" not in binding:
            raise _usage(f"expected key=value, got {binding!r}")
        key, value = binding.split("=", 1)
        key, value = key.strip(), value.strip()
        where = f"argument {binding!r}"
        if not key or not value:
            raise _usage(f"expected key=value, got {binding!r}")
        items.append((key, value, where, where))
    for flag in ("seed", "tol", "out", "format"):
        v = getattr(ns, flag)
        if v is not None:
            items.append((flag, v, f"option --{flag}", f"option --{flag}"))
    if ns.claim:
        items.append(("claims", ",".join(ns.claim), "option --claim",
                      "option --claim"))
    return items


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        ns, extras = _build_parser().parse_known_args(argv)
        for arg in extras:            # bindings interleaved after flags
            if arg.startswith("-") or "=" not in arg:
                raise _usage(f"unrecognized argument {arg!r}")
        ns.bindings = list(ns.bindings) + extras
        cfg = _resolve(_gather_items(ns))
        try:
            records, data, csv_table, timing = _RUNNERS[cfg.command](cfg)
        except (AnsatzError, SingularMetricError) as err:
            raise CliError("ansatz", str(err), 2) from None
        except (DynamicsError, OverflowError) as err:
            raise _runtime(str(err)) from None
        report = Report(version=__version__, command=cfg.command,
                        config=cfg.echo, seed=cfg.seed,
                        records=tuple(records), data=data,
                        timing={"seconds": time.perf_counter() - t0,
                                **timing})
        emit(report, cfg.format, cfg.out, csv_table)
        return 1 if refuted_must_pass(records) else 0
    except CliError as err:
        line = str(err).replace("\n", " ")
        print(f"error[{err.code}]: {line}", file=sys.stderr)
        return err.exit_code
    except Exception as err:          # noqa: BLE001 — last-resort guard
        line = f"{type(err).__name__}: {err}".replace("\n", " ")
        print(f"error[internal]: {line}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
