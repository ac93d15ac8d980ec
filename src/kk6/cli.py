"""Command-line front end: configuration, claim runs, report emission.

Commands
--------
``curvature``   build a named metric and report its curvature tensors
``verify``      run claim checks (default: every must-pass claim)
``geodesic``    integrate the closed-form-seeded trajectory numerically
``fringes``     two-path interference density profile with located minima

Configuration is flat ``key=value`` text -- either lines of a file passed
with ``--config`` or bare ``key=value`` arguments; later sources win
(defaults < file < command line, flags last).  ``#`` starts a comment.
Numbers accept integer, decimal, scientific and ``a/b`` rational forms;
physics parameters also accept the word ``symbolic`` to leave them
unbound.  Diagnostics are first-error-wins with line and column.

Output is written once at the end.  JSON reports have a stable schema and
key order; all timing lives under the single ``timing`` key, so identical
config and seed reproduce the report byte-for-byte once that key is
dropped.  CSV columns:

* ``geodesic``: header ``tau,re_x0,im_x0,...,re_x5,im_x5``, one row per
  stored state,
* ``fringes``: header ``y,density``, grid rows in order followed by one
  row per located minimum.

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
from fractions import Fraction

import numpy as np

from . import __version__
from .ansatz import (
    AnsatzError, coupled_metric, dirac_metric, gravity_metric,
    massive_wave_potential, null_wave_potential, onshell_energy,
    photon_metric, proca_metric, scalar_metric, weak_field_block,
)
from .curvature import einstein, ricci_scalar
from .dynamics import (
    DynamicsError, closed_form_deviation, closed_form_state,
    connection_evaluator, integrate, two_path_fringes,
)
from .expr import ZERO, num, sym, to_text
from .parse import ParseError, parse_expression
from .report import Report, to_json
from .tensor import DIM, verify_claimed_inverse
from .verify import (
    ClaimParamError, REGISTRY, UnknownClaimError, must_pass_ids,
    refuted_must_pass, run_suite,
)

__all__ = ["RunConfig", "CliError", "parse_config", "emit", "main"]

COMMANDS = ("curvature", "verify", "geodesic", "fringes")

# parameter name -> value kind
_PARAM_KINDS = {
    "p0": "param", "p1": "param", "p2": "param", "p3": "param",
    "m0": "param", "hbar": "param", "omega": "param", "k3": "param",
    "gamma": "param", "eps": "param", "kappa": "param",
    "sol": "int", "pol": "int", "phase_factor": "int",
    "steps": "int", "points": "int",
    "tau_end": "real", "d": "real", "L": "real", "wavelength": "real",
    "ymax": "real",
    "perturb": "expr", "potential": "choice",
}
_POTENTIALS = ("null", "constant", "massive")

_ANSATZ_PARAMS = {
    "scalar": frozenset({"p0", "p1", "p2", "p3", "m0", "hbar"}),
    "photon": frozenset({"omega", "pol"}),
    "proca": frozenset({"k3", "m0", "pol"}),
    **{f"dirac{s}": frozenset({"p1", "p2", "p3", "m0"}) for s in range(1, 5)},
    "coupled": frozenset({"sol", "p1", "p2", "p3", "m0", "gamma"}),
    "gravity-scalar": frozenset({"p0", "p1", "p2", "p3", "m0", "eps",
                                 "kappa"}),
    "gravity-proca": frozenset({"k3", "m0", "pol", "eps", "kappa"}),
    "gravity-dirac": frozenset({"sol", "p1", "p2", "p3", "m0", "eps",
                                "kappa"}),
}
ANSATZ_IDS = tuple(_ANSATZ_PARAMS)
_GEODESIC_PARAMS = frozenset({"p1", "p2", "p3", "m0", "steps", "tau_end"})
_FRINGE_PARAMS = frozenset({"d", "L", "wavelength", "ymax", "points"})


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


def _parse_number(text: str, where: str, key: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _config_err(f"{key} expects a number, got {text!r}", where) \
            from None


def _parse_param(key: str, value: str, where: str):
    """Typed value for a parameter binding, or None for 'symbolic'."""
    kind = _PARAM_KINDS[key]
    if kind == "param":
        if value == "symbolic":
            return None
        return _parse_number(value, where, key)
    if value == "symbolic":
        raise _config_err(f"{key} does not admit a symbolic value", where)
    if kind == "real":
        return _parse_number(value, where, key)
    if kind == "int":
        try:
            return int(value, 10)
        except ValueError:
            raise _config_err(f"{key} expects an integer, got {value!r}",
                              where) from None
    if kind == "choice":
        if value not in _POTENTIALS:
            raise _config_err(
                f"{key} must be one of {', '.join(_POTENTIALS)}", where)
        return value
    # expression text: validated eagerly so errors carry a position
    try:
        parse_expression(value)
    except ParseError as err:
        raise _config_err(f"{key}: {err}", where) from None
    return value


def _resolve(items) -> RunConfig:
    command = ansatz = out = None
    claims: list[str] | None = None
    seed, tol, fmt = 0, 1e-9, "json"
    params: dict = {}
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
            if not 0 <= seed < 2 ** 64:
                raise _config_err("seed must fit in 64 unsigned bits", where)
        elif key == "tol":
            try:
                tol = float(value)
            except ValueError:
                raise _config_err(f"tol expects a number, got {value!r}",
                                  where) from None
            if not (0.0 < tol < 1.0) or math.isnan(tol):
                raise _config_err("tol must lie in (0, 1)", where)
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
        elif key in _PARAM_KINDS:
            v = _parse_param(key, value, where)
            if v is None:
                params.pop(key, None)
            else:
                params[key] = v
            positions[key] = key_where
        else:
            raise _config_err(f"unknown key {key!r}", key_where)
        if key not in ("command", "out"):
            echo[key] = value

    if command is None:
        raise _usage("no command given (expected one of "
                     + ", ".join(COMMANDS) + ")")

    # cross-field validation: every binding must be consumed by the command
    def reject(key, message):
        raise _config_err(message, positions.get(key))

    if command == "verify":
        if ansatz is not None:
            raise _config_err("command 'verify' does not take an ansatz; "
                              "select claims instead")
        selection = claims if claims is not None else must_pass_ids()
        allowed = set()
        for cid in selection:
            allowed |= REGISTRY[cid].param_names
        for key in params:
            if key not in allowed:
                reject(key, f"parameter {key!r} is not accepted by any "
                       "selected claim")
    elif command == "curvature":
        if claims is not None:
            raise _config_err("command 'curvature' does not use claim "
                              "selection")
        allowed = _ANSATZ_PARAMS[ansatz or "scalar"]
        for key in params:
            if key not in allowed:
                reject(key, f"parameter {key!r} is not declared by ansatz "
                       f"{ansatz or 'scalar'!r}")
    elif command == "geodesic":
        if ansatz not in (None, "scalar"):
            raise _config_err("command 'geodesic' integrates the scalar "
                              "ansatz only")
        if claims is not None:
            raise _config_err("command 'geodesic' does not use claim "
                              "selection")
        for key in params:
            if key not in _GEODESIC_PARAMS:
                reject(key, f"parameter {key!r} is not used by the geodesic "
                       "command")
        for key in ("p1", "p2", "p3", "m0"):
            if key in echo and echo[key] == "symbolic":
                reject(key, "geodesic integration requires numeric "
                       "parameters")
    else:  # fringes
        if ansatz is not None or claims is not None:
            raise _config_err("command 'fringes' takes only geometry "
                              "parameters")
        for key in params:
            if key not in _FRINGE_PARAMS:
                reject(key, f"parameter {key!r} is not used by the fringes "
                       "command")

    if fmt == "csv" and command in ("curvature", "verify"):
        raise _config_err("csv output applies to the geodesic and fringes "
                          "commands")

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

def _scalar_p(params):
    def e(v, name):
        return sym(name) if v is None else num(v)
    p123 = [e(params.get(k), k) for k in ("p1", "p2", "p3")]
    m0 = e(params.get("m0"), "m0")
    if "p0" in params:
        return (num(params["p0"]), *p123), m0, "explicit energy component"
    p0 = onshell_energy(p123[0], p123[1], p123[2], m0)
    return (p0, *p123), m0, \
        "p0 = sqrt(p1^2 + p2^2 + p3^2 + m0^2) installed"


def build_ansatz(aid: str, params: dict):
    """Named metric constructor; returns (metric, claimed_upper, notes)."""
    notes = []
    if aid == "scalar":
        p, m0, note = _scalar_p(params)
        mode = scalar_metric(p=p, m0=m0, hbar=params.get("hbar"))
        return mode.metric, None, [note]
    if aid == "photon":
        a4 = null_wave_potential(params.get("omega"),
                                 pol=int(params.get("pol", 2)))
        mode = photon_metric(a4)
        return mode.metric, mode.claimed_upper, notes
    if aid == "proca":
        a4 = massive_wave_potential(params.get("k3"), params.get("m0"),
                                    pol=int(params.get("pol", 1)))
        mode = proca_metric(a4, params.get("m0"))
        return mode.metric, mode.claimed_upper, notes
    if aid.startswith("dirac"):
        mode = dirac_metric(int(aid[-1]), params.get("p1"), params.get("p2"),
                            params.get("p3"), params.get("m0"))
        notes.extend(mode.notes)
        return mode.metric, mode.claimed_upper, notes
    if aid == "coupled":
        mode = coupled_metric(int(params.get("sol", 1)), params.get("p1"),
                              params.get("p2"), params.get("p3"),
                              params.get("m0"), params.get("gamma"))
        return mode.metric, None, notes
    family = aid.split("-", 1)[1]
    g4 = weak_field_block(params.get("eps"))
    kappa = params.get("kappa")
    if family == "scalar":
        p, m0, note = _scalar_p(params)
        mode = gravity_metric("scalar", g4, kappa, p=p, m0=m0)
        notes.append(note)
    elif family == "proca":
        a4 = massive_wave_potential(params.get("k3"), params.get("m0"),
                                    pol=int(params.get("pol", 1)))
        mode = gravity_metric("proca", g4, kappa, A=a4, m0=params.get("m0"))
    else:
        mode = gravity_metric("dirac", g4, kappa,
                              sol=int(params.get("sol", 1)),
                              p1=params.get("p1"), p2=params.get("p2"),
                              p3=params.get("p3"), m0=params.get("m0"))
    notes.append("static weak-field background block")
    return mode.metric, None, notes


# ---------------------------------------------------------------------------
# command runners

def _run_curvature(cfg: RunConfig):
    aid = cfg.ansatz or "scalar"
    metric, claimed, notes = build_ansatz(aid, cfg.params)
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
        chk = verify_claimed_inverse(metric, claimed, seed=cfg.seed,
                                     tol=cfg.tol)
        data["claimed_inverse"] = {
            "exact": chk.exact,
            "max_residual": chk.max_residual,
            "structural_zero_entries": chk.structural_zeros,
        }
    return (), data, None


def _run_verify(cfg: RunConfig):
    try:
        records = run_suite(claims=cfg.claims, seed=cfg.seed, tol=cfg.tol,
                            params=cfg.params)
    except (UnknownClaimError, ClaimParamError) as err:
        raise _config_err(str(err)) from None
    return records, None, None


def _geo_value(params, key, default):
    v = params.get(key)
    return float(v) if v is not None else default


def _run_geodesic(cfg: RunConfig):
    p1 = _geo_value(cfg.params, "p1", 0.0)
    p2 = _geo_value(cfg.params, "p2", 0.0)
    p3 = _geo_value(cfg.params, "p3", 0.75)
    m0 = _geo_value(cfg.params, "m0", 1.0)
    steps = int(cfg.params.get("steps", 1000))
    tau_end = _geo_value(cfg.params, "tau_end", 1.0)
    if steps < 2:
        raise _config_err("steps must be at least 2")
    if not tau_end > 0:
        raise _config_err("tau_end must be positive")
    if m0 == 0.0:
        raise _config_err("geodesic integration needs m0 != 0 (the compact "
                          "phase degenerates otherwise)")

    frac = {k: num(cfg.params.get(k, d)) for k, d in
            (("p1", 0), ("p2", 0), ("p3", Fraction(3, 4)), ("m0", 1))}
    p0_sym = onshell_energy(*(frac[k] for k in ("p1", "p2", "p3", "m0")))
    mode = scalar_metric(p=(p0_sym, frac["p1"], frac["p2"], frac["p3"]),
                         m0=frac["m0"])
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
        "max_step_defect": max(path.residuals) if path.residuals else 0.0,
        "max_closed_form_deviation": deviation,
    }
    header = ["tau"]
    for a in range(DIM):
        header += [f"re_x{a}", f"im_x{a}"]
    rows = []
    for st in path.states:
        row = [repr(float(st.tau))]
        for xa in st.x:
            row += [repr(float(xa.real)), repr(float(xa.imag))]
        rows.append(row)
    return (), data, ("path", header, rows)


def _run_fringes(cfg: RunConfig):
    d = _geo_value(cfg.params, "d", 10.0)
    length = _geo_value(cfg.params, "L", 400.0)
    lam = _geo_value(cfg.params, "wavelength", 0.5)
    ymax = _geo_value(cfg.params, "ymax", 15.0)
    points = int(cfg.params.get("points", 1201))
    if d <= 0 or length <= 0 or lam <= 0 or ymax <= 0:
        raise _config_err("d, L, wavelength and ymax must all be positive")
    if points < 2:
        raise _config_err("points must be at least 2")

    grid = np.linspace(-ymax, ymax, points)
    profile = two_path_fringes(d, length, lam, grid)
    peak = max(profile.density)
    data = {
        "d": d, "L": length, "wavelength": lam,
        "points": points, "peak_density": peak,
        "minima": [float(y) for y in profile.minima],
        "minima_density": list(profile.minima_density),
    }
    if cfg.format == "json":
        data["y"] = [float(y) for y in profile.y]
        data["density"] = [float(v) for v in profile.density]
    header = ["y", "density"]
    rows = [[repr(float(y)), repr(float(v))]
            for y, v in zip(profile.y, profile.density)]
    rows += [[repr(float(y)), repr(float(v))]
             for y, v in zip(profile.minima, profile.minima_density)]
    return (), data, ("fringes", header, rows)


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
         csv_table=None) -> dict[str, str]:
    """Write the report (and CSV table, if any); returns {name: path}."""
    written = {}
    try:
        if out is None:
            if format == "csv" and csv_table is not None:
                name, header, rows = csv_table
                sys.stdout.write(_csv_text(header, rows))
            else:
                sys.stdout.write(to_json(report))
            return written
        os.makedirs(out, exist_ok=True)
        rpath = os.path.join(out, "report.json")
        with open(rpath, "w", encoding="utf-8") as fh:
            fh.write(to_json(report))
        written["report"] = rpath
        if format == "csv" and csv_table is not None:
            name, header, rows = csv_table
            cpath = os.path.join(out, f"{name}.csv")
            with open(cpath, "w", encoding="utf-8", newline="") as fh:
                fh.write(_csv_text(header, rows))
            written[name] = cpath
    except OSError as err:
        raise CliError("io", f"cannot write output: {err}", 3) from None
    return written


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
            records, data, csv_table = _RUNNERS[cfg.command](cfg)
        except AnsatzError as err:
            raise CliError("ansatz", str(err), 2) from None
        except ParseError as err:
            raise _config_err(str(err)) from None
        except (DynamicsError, OverflowError) as err:
            raise _runtime(str(err)) from None
        report = Report(version=__version__, command=cfg.command,
                        config=cfg.echo, seed=cfg.seed,
                        records=tuple(records), data=data,
                        timing={"seconds": time.perf_counter() - t0})
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
