"""Command-line behaviour: config parsing, exit codes, report and CSV
emission, and determinism of the serialized output."""
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from kk6.ansatz import scalar_metric
from kk6.cli import CliError, main, parse_config
from kk6.dynamics import (
    closed_form_state, connection_evaluator, integrate, two_path_fringes,
)
from kk6.parse import parse_expression
from kk6.verify import (
    GEODESIC_DEFAULTS, ClaimParamError, _expanded_terms, coerce_param,
    must_pass_ids, read_params, scalar_momenta,
)
from test_golden_records import CURVATURE

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GEO_HEADER = "tau," + ",".join(f"re_x{a},im_x{a}" for a in range(6))


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# configuration parsing

def test_minimal_config_defaults():
    cfg = parse_config("command=verify\n")
    assert cfg.command == "verify"
    assert cfg.seed == 0 and cfg.tol == 1e-9 and cfg.format == "json"
    assert cfg.claims is None and cfg.params == {}
    assert cfg.echo["seed"] == 0 and cfg.echo["tol"] == 1e-9


def test_comments_blank_lines_and_whitespace_tolerated():
    cfg = parse_config(
        "# run setup\n"
        "command = curvature   # inline comment\n"
        "\n"
        "  ansatz = photon\n"
        "omega = 3/4\n")
    assert cfg.command == "curvature" and cfg.ansatz == "photon"
    assert cfg.params["omega"] == Fraction(3, 4)


def test_error_positions_are_line_and_column_exact():
    with pytest.raises(CliError) as ei:
        parse_config("command=verify\nseed=abc\n")
    assert ei.value.code == "config" and ei.value.exit_code == 2
    assert "line 2, column 6" in str(ei.value)
    assert "seed expects an integer" in str(ei.value)

    with pytest.raises(CliError) as ei:
        parse_config("command=verify\n   notakey\n")
    assert "line 2, column 4: expected key=value" in str(ei.value)

    with pytest.raises(CliError) as ei:
        parse_config("command=verify\nseed=\n")
    assert "empty value for 'seed'" in str(ei.value)


@pytest.mark.parametrize("text,needle", [
    ("command=orbit\n", "unknown command 'orbit'"),
    ("command=verify\nwibble=1\n", "unknown key 'wibble'"),
    ("command=verify\nclaims=kg.reduction,nope\n", "unknown claim id 'nope'"),
    ("command=curvature\nansatz=torus\n", "unknown ansatz 'torus'"),
    ("command=verify\ntol=2\n", "tol must lie in (0, 1)"),
    ("command=verify\ntol=nan\n", "tol must lie in (0, 1)"),
    ("command=verify\nseed=-1\n", "64 unsigned bits"),
])
def test_rejected_configurations(text, needle):
    with pytest.raises(CliError) as ei:
        parse_config(text)
    assert needle in str(ei.value)


def test_first_error_wins_over_later_ones():
    # line 2 is malformed before line 3's unknown key can be seen
    with pytest.raises(CliError) as ei:
        parse_config("command=verify\nseed=zz\nwibble=1\n")
    assert "line 2" in str(ei.value)


def test_symbolic_binding_is_dropped_from_params():
    cfg = parse_config("command=curvature\nansatz=scalar\n"
                       "p1=symbolic\np2=1/3\n")
    assert "p1" not in cfg.params
    assert cfg.params["p2"] == Fraction(1, 3)
    assert cfg.echo["p1"] == "symbolic"   # still echoed for provenance


def test_cross_field_validation():
    with pytest.raises(CliError, match="not accepted by any selected claim"):
        parse_config("command=verify\nclaims=fsq.null\nm0=1\n")
    with pytest.raises(CliError, match="not declared by ansatz"):
        parse_config("command=curvature\nansatz=photon\nkappa=1\n")
    with pytest.raises(CliError, match="scalar ansatz only"):
        parse_config("command=geodesic\nansatz=photon\n")
    with pytest.raises(CliError, match="requires numeric"):
        parse_config("command=geodesic\nm0=symbolic\n")
    with pytest.raises(CliError, match="csv output applies"):
        parse_config("command=verify\nformat=csv\n")


# ---------------------------------------------------------------------------
# exit codes

def test_exit_0_and_json_shape_on_stdout(capsys):
    code, out, err = run(["verify", "--claim", "fsq.null", "omega=2"],
                         capsys)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["command"] == "verify"
    assert [r["id"] for r in rep["records"]] == ["fsq.null"]
    assert rep["records"][0]["verdict"] == "Confirmed"
    assert rep["config"]["omega"] == "2"
    assert "out" not in rep["config"]


def test_exit_0_on_empty_claim_selection(capsys):
    code, out, _ = run(["verify", "--claim", ""], capsys)
    assert code == 0
    assert json.loads(out)["records"] == []


def test_exit_1_when_a_must_pass_claim_is_refuted(capsys):
    code, out, _ = run(["verify", "--claim", "maxwell.reduction",
                        "potential=massive", "k3=1/2", "m0=1"], capsys)
    assert code == 1
    rec = json.loads(out)["records"][0]
    assert rec["verdict"] == "Refuted" and rec["witness"]


def test_exit_0_when_the_zero_test_overflows(capsys):
    # a constant beyond the float range makes the verdict undecided, not
    # a runtime failure
    code, out, err = run(["verify", "--claim", "ricci.scalar.zero",
                          "perturb=1+(10^200+x1)^3"], capsys)
    assert code == 0 and err == ""
    rec = json.loads(out)["records"][0]
    assert rec["verdict"] == "Inconclusive"
    assert rec["notes"][1].startswith(
        "undecided: scalar curvature (constant overflow in ")


def test_exit_0_when_the_split_einstein_tensor_is_undefined(capsys):
    # at kappa = 1e8 the gravity-coupled half-spin metric rounds to
    # singular at the sample point: an undecided record, not a crash
    code, out, err = run(["verify", "--claim", "gravity.split.dirac",
                          "kappa=1e8", "points=1"], capsys)
    assert code == 0 and err == ""
    rec = json.loads(out)["records"][0]
    assert rec["verdict"] == "Inconclusive"
    assert rec["notes"] == [
        "undecided: finite-difference Einstein tensor at sample point 1 "
        "(full metric: Singular matrix)"]


def test_overflow_note_is_bounded(capsys):
    # the failing subtree is a 1,402-character constant: the note keeps its
    # first 512 characters and states the full length
    code, out, _ = run(["verify", "--claim", "ricci.scalar.zero",
                        "perturb=1+(10^200+x1)^3"], capsys)
    assert code == 0
    note = json.loads(out)["records"][0]["notes"][1]
    head = "undecided: scalar curvature (constant overflow in "
    assert note.startswith(head)
    assert note.endswith("... (1402 characters))")
    assert len(note) == len(head) + 512 + len("... (1402 characters))")


def test_exit_2_on_ansatz_domain_error(capsys):
    # a degenerate input (a zero hbar, a vanishing determinant) is refused
    # with one error[ansatz] line, never as an internal error
    for argv, message in (
            (["curvature", "ansatz=dirac1", "p3=0"],
             "normalization C is undefined at p3 = 0"),
            (["curvature", "ansatz=scalar", "hbar=0"], "hbar must be nonzero"),
            (["verify", "--claim", "ricci.scalar.zero", "perturb=0"],
             "metric determinant vanishes: det = 0"),
            # a half-spin report assumes m0 > 0, so a negative rest mass is
            # refused rather than confirmed under a violated assumption
            (["verify", "--claim", "dirac.sol1", "m0=-1"],
             "rest mass must be positive"),
            (["curvature", "ansatz=dirac1", "m0=-1", "p1=1/3", "p2=0",
              "p3=1/2"], "rest mass must be positive")):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error[ansatz]: {message}\n"   # single line


@pytest.mark.parametrize("perturb, message", [
    ("1/0", "zero raised to a negative power"),
    ("0^-1", "zero raised to a negative power"),
    ("2^100000", "a number with more than 4300 digits (column 2)"),
    ("2^100000000", "a number with more than 4300 digits (column 2)"),
])
def test_exit_2_on_a_perturbation_that_cannot_be_formed(perturb, message,
                                                        capsys):
    # a division by zero, or a number too long to print, is refused with
    # one error[config] line, never as an internal error
    code, out, err = run(["verify", "--claim", "ricci.scalar.zero",
                          f"perturb={perturb}"], capsys)
    assert code == 2 and out == ""
    assert err == (f"error[config]: argument 'perturb={perturb}': "
                   f"perturb: {message}\n")


def test_a_power_too_long_to_compute_is_refused_unformed():
    # 2^10000000000 would take more than 1 GB; it is refused from its
    # exponent and base alone.  The child runs under a time limit so that
    # computing it fails the test instead of hanging it
    argv = ["verify", "--claim", "ricci.scalar.zero", "perturb=2^10000000000"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "kk6", *argv], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error[config]: argument 'perturb=2^10000000000': "
                           "perturb: a number with more than 4300 digits "
                           "(column 2)\n")


@pytest.mark.parametrize("perturb", [
    "(1+x1+x2+x3+x4)^-8", "exp((1+x1+x2+x3+x4)^5)",
    "(1+x1+x2+x3+x4)^8*(1+x0+x5)^8",
])
def test_a_perturbation_that_expands_too_far_is_refused(perturb):
    # read as the command line reads it, so nothing runs if it is accepted
    with pytest.raises(ClaimParamError) as err:
        coerce_param("perturb", perturb)
    assert str(err.value) == "perturb: expands to more than 70 monomials"


@pytest.mark.parametrize("perturb, terms", [
    ("1+x1^2", 2), ("(1+x1+x2+x3+x4)^4", 70), ("(1+x1+x2+x3+x4)^-4", 70),
    ("(1+x1+x2+x3+x4)^2*(1+x0+x5)", 45), ("sqrt((1+x1+x2+x3+x4)^3)", 35),
    ("(1+x1+x2+x3+x4)^5", 71), ("(1+x1+x2)^(10^4000)", 71),
])
def test_a_perturbation_s_expanded_size_is_counted(perturb, terms):
    assert _expanded_terms(parse_expression(perturb)) == terms


def test_counting_a_perturbation_keeps_it_no_longer_than_its_caller():
    # with the cyclic collector off, the expression dies as soon as the
    # caller drops it: the count leaves no cycle holding its memo
    import gc
    import weakref
    enabled = gc.isenabled()
    gc.disable()
    try:
        e = parse_expression("(1+x1+918276*x2)^3*exp(x3)")
        assert _expanded_terms(e) == 10
        probe = weakref.ref(e)
        del e
        assert probe() is None
    finally:
        if enabled:
            gc.enable()


def test_a_perturbation_that_once_ran_109_s_fails_fast():
    # (1+x1+x2+x3+x4)^8 expands to 495 monomials; before the bound it ran
    # for about 109 s.  The child runs under a time limit so that running
    # it fails the test instead of hanging it
    argv = ["verify", "--claim", "ricci.scalar.zero",
            "perturb=(1+x1+x2+x3+x4)^8"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "kk6", *argv], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error[config]: argument "
                           "'perturb=(1+x1+x2+x3+x4)^8': perturb: expands "
                           "to more than 70 monomials\n")


@pytest.mark.parametrize("argv, message", [
    (["verify", "tol=abc"],
     "argument 'tol=abc': tol expects a number, got 'abc'"),
    (["verify", "format=xml"],
     "argument 'format=xml': format must be json or csv"),
    (["verify", "ansatz=scalar"],
     "command 'verify' does not take an ansatz; select claims instead"),
    (["curvature", "claims=kg.reduction"],
     "command 'curvature' does not use claim selection"),
    (["geodesic", "--claim", "kg.reduction"],
     "command 'geodesic' does not use claim selection"),
    (["fringes", "ansatz=scalar"],
     "command 'fringes' takes only geometry parameters"),
    (["fringes", "steps=symbolic"],
     "argument 'steps=symbolic': steps does not admit a symbolic value"),
    (["verify", "--claim", "maxwell.reduction", "potential=weird"],
     "argument 'potential=weird': potential must be one of null, constant, "
     "massive"),
    (["geodesic", "m0=0"],
     "geodesic integration needs m0 != 0 (the compact phase degenerates "
     "otherwise)"),
    # the scalar mode has no field, so neither its gravity ansatz nor its
    # split claim takes a coupling constant
    (["curvature", "ansatz=gravity-scalar", "kappa=2"],
     "argument 'kappa=2': parameter 'kappa' is not declared by ansatz "
     "'gravity-scalar'"),
    (["verify", "--claim", "gravity.split.scalar", "kappa=2"],
     "argument 'kappa=2': parameter 'kappa' is not accepted by any selected "
     "claim"),
    # a number of the wrong kind, or none at all
    (["geodesic", "steps=5/2"],
     "argument 'steps=5/2': steps expects an integer, got '5/2'"),
    (["curvature", "ansatz=dirac1", "p3=abc"],
     "argument 'p3=abc': p3 expects a number, got 'abc'"),
    (["curvature", "ansatz=dirac1", "p3=1/0"],
     "argument 'p3=1/0': p3 expects a number, got '1/0'"),
    # a config file given by its text; None: the file does not exist
    (None, "cannot read config: [Errno 2] No such file or directory: '{}'"),
    ("command=verify\n = 3\n", "line 2, column 2: empty key"),
])
def test_exit_2_on_config_errors(argv, message, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    if not isinstance(argv, list):
        if argv is not None:
            cfgfile.write_text(argv)
        argv = ["--config", str(cfgfile)]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error[config]: {message.format(cfgfile)}\n"


@pytest.mark.parametrize("argv", [
    ["fringes", "wavelength=1e-300"],
    ["verify", "--claim", "interference.minima", "wavelength=1e-12"],
])
def test_more_fringe_orders_than_grid_points_fail_fast(argv):
    # 1e-300 asks for ~1e300 half-integer orders on 1201 points; the child
    # runs under a time limit so that a search over all of them fails the
    # test instead of hanging it
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "kk6", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("error[runtime]: more fringe orders between the "
                           "grid ends than its 1201 grid points can "
                           "resolve\n")


def test_exit_2_on_usage_errors(capsys):
    # argparse's own wording differs between Python versions, so only the
    # start of its line is pinned
    for argv, start in (
            ([], ""),
            (["verify", "stray"], "expected key=value"),
            (["verify", "--format", "xml"], "argument --format:"),
            (["verify", "p3="], "expected key=value, got 'p3='")):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error[usage]: {start}")
        assert err.count("\n") == 1
    # a claim runs the range checks of the command it shares parameters
    # with, and refuses symbolic or float-overflowing numeric inputs
    positive = "d, L, wavelength and ymax must all be positive"
    overflow = ("fringe geometry overflows a float: 2*ymax and "
                "2*pi*hypot(L, ymax + d/2)/wavelength must be finite")
    fringe = ["verify", "--claim", "interference.minima"]
    split = ["verify", "--claim", "gravity.split.scalar"]
    for argv, message in (
            (["geodesic", "steps=1"], "steps must be at least 2"),
            (["verify", "--claim", "geodesic.closedform", "steps=1"],
             "steps must be at least 2"),
            (["fringes", "d=-1"], positive),
            (fringe + ["d=-1"], positive),
            (fringe + ["ymax=-3"], positive),
            (["fringes", "points=1"], "points must be at least 2"),
            # a count whose run would grow memory without bound
            (["geodesic", "steps=100001"],
             "steps must be at most 100000, got 100001"),
            (["verify", "--claim", "geodesic.closedform", "steps=100001"],
             "steps must be at most 100000, got 100001"),
            (["fringes", "points=100001"],
             "points must be at most 100000, got 100001"),
            (fringe + ["points=100001"],
             "points must be at most 100000, got 100001"),
            (fringe + ["points=0"], "points must be at least 2"),
            (fringe + ["points=1"], "points must be at least 2"),
            # a grid span or far-end phase beyond a float is refused
            # before any work, not left to overflow inside it
            (["fringes", "d=1e308", "L=1e308"], overflow),
            (fringe + ["d=1e308"], overflow),
            (["fringes", "ymax=1e308"], overflow),
            (split + ["points=0"], "points must be at least 1"),
            (split + ["points=-2"], "points must be at least 1"),
            # a count whose run would take more than about 14 s
            (split + ["points=1001"], "points must be at most 1000, got 1001"),
            (["verify", "--claim", "gravity.split.dirac", "points=1001"],
             "points must be at most 1000, got 1001"),
            (split + ["eps=symbolic"], "gravity.split.scalar requires "
             "numeric parameters, got eps=symbolic"),
            (["verify", "--claim", "gravity.split.proca", "kappa=symbolic"],
             "gravity.split.proca requires numeric parameters, got "
             "kappa=symbolic"),
            (split + ["eps=1e400"], "eps is too large for a float"),
            (["fringes", "wavelength=1e400"], "argument 'wavelength=1e400': "
             "wavelength is too large for a float"),
            (["geodesic", "tau_end=1e400"], "argument 'tau_end=1e400': "
             "tau_end is too large for a float"),
            # each momentum fits a float, but the on-shell energy squared
            # does not
            (["geodesic", "p3=1e200"], "geodesic momenta overflow a float: "
             "p1^2 + p2^2 + p3^2 + m0^2 must be finite"),
            # the scalar report is the hbar = 1 metric unless hbar is bound
            (["curvature", "ansatz=scalar", "hbar=symbolic"],
             "scalar requires numeric parameters, got hbar=symbolic"),
            # refused as configuration, not by the ansatz constructor once
            # the selected dirac.sol1 has run
            (["verify", "--claim", "dirac.sol1", "--claim",
              "inverse.halfspin", "sol=0"], "sol must be 1..4, got 0"),
            (["curvature", "ansatz=photon", "pol=3"],
             "pol must be 1..2, got 3"),
            (["curvature", "ansatz=coupled", "sol=9"],
             "sol must be 1..4, got 9"),
            (["geodesic", "tau_end=0"], "tau_end must be positive")):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error[config]: {message}\n"
    # a name the target does not take is refused whether it is bound or
    # symbolic, with the same line
    for argv, name, value, message in (
            (["curvature", "ansatz=photon"], "kappa", "1",
             "is not declared by ansatz 'photon'"),
            (["verify"], "eps", "1", "is not accepted by any selected claim"),
            (["verify", "--claim", "kg.reduction"], "hbar", "2",
             "is not accepted by any selected claim")):
        for v in (value, "symbolic"):
            code, out, err = run(argv + [f"{name}={v}"], capsys)
            assert code == 2 and out == ""
            assert err == (f"error[config]: argument '{name}={v}': "
                           f"parameter '{name}' {message}\n")


def test_exit_3_on_unwritable_output(capsys):
    code, _, err = run(["fringes", "points=2", "--out", "/dev/null/x"],
                       capsys)
    assert code == 3 and err.startswith("error[io]: ")


def test_exit_3_on_runtime_failure(capsys):
    code, _, err = run(["geodesic", "steps=2", "tau_end=1e300"], capsys)
    assert code == 3 and err.startswith("error[runtime]: ")
    # p3^2 = 1e300 fits a float, so the configuration passes and the
    # integration aborts
    code, out, err = run(["geodesic", "p3=1e150"], capsys)
    assert code == 3 and out == ""
    assert err == ("error[runtime]: geodesic integration aborted "
                   "(coordinate blow-up)\n")


# ---------------------------------------------------------------------------
# flags, config files, and precedence

def test_config_file_supplies_command_and_flags_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("command=verify\nclaims=fsq.null\nseed=1\n")
    code, out, _ = run(["--config", str(cfgfile), "--seed", "9"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 9


def test_bindings_may_follow_flags(capsys):
    code, out, _ = run(["verify", "--seed", "3", "--claim", "fsq.null",
                        "omega=5"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["omega"] == "5"


def test_a_repeated_claim_is_selected_and_echoed_once(capsys):
    cfg = parse_config("command=verify\nclaims=fsq.null,kg.reduction,"
                       "fsq.null\n")
    assert cfg.claims == ("fsq.null", "kg.reduction")
    assert cfg.echo["claims"] == ["fsq.null", "kg.reduction"]
    code, out, _ = run(["verify", "--claim", "fsq.null", "--claim",
                        "fsq.null"], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["config"]["claims"] == ["fsq.null"]
    assert [r["id"] for r in rep["records"]] == ["fsq.null"]


def test_the_parser_and_the_refusal_name_every_command():
    from kk6 import cli
    help_text = cli._build_parser().format_help()
    assert " | ".join(cli._RUNNERS) in help_text
    with pytest.raises(CliError, match=", ".join(cli._RUNNERS)):
        parse_config("command=orbit\n")


def test_the_help_is_written_for_the_user(capsys):
    # ``kk6 --help`` names every command, the flags and every exit code,
    # and carries no reST markup from the module docstring
    import re
    from kk6 import cli
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    help_text = capsys.readouterr().out
    assert help_text == cli._build_parser().format_help()
    for name in cli._RUNNERS:
        assert re.search(rf"^  {name} ", help_text, re.M), name
    for flag in ("--config", "--seed", "--tol", "--out", "--format",
                 "--claim", "key=value"):
        assert flag in help_text
    codes = help_text[help_text.index("exit codes:"):]
    assert re.findall(r"^  (\d)  ", codes, re.M) == ["0", "1", "2", "3"]
    assert "error[<code>]" in codes
    assert "`" not in help_text
    assert not re.search(r":[a-z]+:", help_text)


def test_the_parser_is_built_once_per_process():
    from kk6 import cli
    assert cli._build_parser() is cli._build_parser()


def test_a_second_command_in_one_process_inherits_nothing(capsys):
    # the reused parser keeps no --claim list, seed or format from a call
    # before: each report is the one a fresh process prints
    assert run(["verify", "--claim", "kg.reduction", "--seed", "5"],
               capsys)[0] == 0
    code, out, err = run(["verify"], capsys)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "kk6", "verify"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (code, err) == (proc.returncode, proc.stderr) == (0, "")
    assert strip_timing(out) == strip_timing(proc.stdout)
    rep = json.loads(out)
    assert rep["seed"] == 0 and "claims" not in rep["config"]
    assert [r["id"] for r in rep["records"]] == list(must_pass_ids())

    assert run(["fringes", "--format", "csv"], capsys)[1].startswith(
        "y,density\n")
    assert "density" in json.loads(run(["fringes"], capsys)[1])["data"]

    code, out, err = run(["verify", "--format", "xml"], capsys)
    assert code == 2 and out == "" and err.startswith("error[usage]: ")
    code, out, _ = run(["verify", "--claim", "fsq.null"], capsys)
    assert code == 0 and json.loads(out)["config"]["format"] == "json"


def test_a_first_positional_binding_is_one_more_binding(capsys):
    code, out, _ = run(["command=verify", "--claim", "fsq.null"], capsys)
    assert code == 0
    assert [r["id"] for r in json.loads(out)["records"]] == ["fsq.null"]


def test_unknown_flag_is_a_usage_error(capsys):
    code, _, err = run(["verify", "--frobnicate"], capsys)
    assert code == 2 and err.startswith("error[usage]: ")


# ---------------------------------------------------------------------------
# curvature output

def test_curvature_report_carries_tensor_data(capsys):
    code, out, _ = run(["curvature", "ansatz=photon", "omega=1"], capsys)
    assert code == 0
    data = json.loads(out)["data"]
    assert data["ansatz"] == "photon"
    assert data["ricci_scalar"] == "0"
    assert data["claimed_inverse"]["exact"] is True
    assert data["claimed_inverse"]["structural_zero_entries"] == 36


def test_curvature_timing_holds_each_stage(capsys):
    # the four pipeline stages are timed apart, within the run's total
    code, out, _ = run(["curvature", "ansatz=coupled", "p1=1/3", "p2=0",
                        "p3=1/2", "m0=1"], capsys)
    assert code == 0
    timing = json.loads(out)["timing"]
    stages = [f"stages.{s}" for s in ("inverse", "ricci", "ricci_scalar",
                                       "einstein")]
    assert sorted(timing) == sorted(["seconds", *stages])
    assert all(timing[k] >= 0 for k in stages)
    assert sum(timing[k] for k in stages) <= timing["seconds"]


@pytest.mark.parametrize("aid", CURVATURE)
def test_a_repeated_curvature_report_is_identical_outside_timing(aid,
                                                                 capsys):
    # the second run reads every stage from the first run's grid cache
    argv = ["curvature", f"ansatz={aid}", *CURVATURE[aid]]
    reports = []
    for _ in range(2):
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert rep.pop("timing")
        reports.append(json.dumps(rep))
    assert reports[0] == reports[1]


def test_curvature_scalar_defaults_to_symbolic_momenta(capsys):
    code, out, _ = run(["curvature"], capsys)
    assert code == 0
    data = json.loads(out)["data"]
    assert data["ansatz"] == "scalar"
    assert any("p1" in v for v in data["einstein"].values())


def test_gravity_dirac_notes_are_the_half_spin_notes(capsys):
    # a gravity-X report carries X's own notes before the background note
    point = ["p1=1/3", "p2=0", "p3=1/2", "m0=1"]
    notes = {}
    for argv in (["ansatz=dirac3"],
                 ["ansatz=gravity-dirac", "sol=3", "eps=1/10", "kappa=1"]):
        code, out, _ = run(["curvature", *argv, *point], capsys)
        assert code == 0
        notes[argv[0]] = json.loads(out)["data"]["notes"]
    assert notes["ansatz=dirac3"]
    assert notes["ansatz=gravity-dirac"] == [
        *notes["ansatz=dirac3"], "static weak-field background block"]


# ---------------------------------------------------------------------------
# geodesic and fringe CSV tables

def test_geodesic_csv_layout(tmp_path, capsys):
    out = tmp_path / "geo"
    code, _, _ = run(["geodesic", "steps=4", "--format", "csv",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == GEO_HEADER
    assert len(lines) == 1 + 5        # header + initial state + 4 steps
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and len(first) == 13
    rep = json.loads((out / "report.json").read_text())
    assert rep["data"]["max_closed_form_deviation"] < 1e-9


def test_fringes_csv_appends_minima_rows(capsys):
    code, out, _ = run(["fringes", "points=41", "ymax=12",
                        "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "y,density"
    grid = [tuple(map(float, ln.split(","))) for ln in lines[1:42]]
    minima = [tuple(map(float, ln.split(","))) for ln in lines[42:]]
    assert len(minima) == 2           # +-10 for the default geometry
    peak = max(v for _, v in grid)
    assert all(v < 1e-9 * peak for _, v in minima)
    assert sorted(abs(y) for y, _ in minima) == pytest.approx([10.0, 10.0],
                                                              abs=0.1)


def test_csv_cells_are_the_reprs_of_the_run_s_own_doubles(tmp_path, capsys):
    # every cell, against the values an in-process run through the same
    # API holds: each must read back to the same bits
    geo = ["steps=40", "p1=1/3", "p2=-0.7", "m0=2", "tau_end=3"]
    code, _, _ = run(["geodesic", *geo, "--format", "csv",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    g = read_params(GEODESIC_DEFAULTS, parse_config(
        "\n".join(["command=geodesic", *geo])).params, "geodesic")
    p1, p2, p3, m0, tau_end = (float(g[k]) for k in
                               ("p1", "p2", "p3", "m0", "tau_end"))
    p0 = math.sqrt(p1 * p1 + p2 * p2 + p3 * p3 + m0 * m0)
    p_sym, m0_sym, _ = scalar_momenta(g)
    path = integrate(closed_form_state(0.0, (p0, p1, p2, p3), m0, (0,) * 6),
                     tau_end, g["steps"], connection_evaluator(
                         scalar_metric(p=p_sym, m0=m0_sym).metric))
    lines = (tmp_path / "path.csv").read_text().splitlines()
    assert lines[1:] == [
        ",".join(map(repr, [st.tau, *(c for xa in st.x
                                      for c in (xa.real, xa.imag))]))
        for st in path.states]

    code, out, _ = run(["fringes", "wavelength=0.13", "ymax=12.3",
                        "points=101", "--format", "csv"], capsys)
    assert code == 0
    prof = two_path_fringes(10.0, 400.0, 0.13, np.linspace(-12.3, 12.3, 101))
    rows = [*zip(prof.y, prof.density),
            *zip(prof.minima, prof.minima_density)]
    assert len(prof.minima) >= 4
    assert out.splitlines()[1:] == [f"{y!r},{v!r}" for y, v in rows]


def test_fringes_report_no_minimum_for_an_order_at_the_slit_separation(
        capsys):
    # wavelength 2d puts order 0 at r2 - r1 = d, which no finite y reaches
    code, out, _ = run(["fringes", "d=1", "L=1", "wavelength=2", "ymax=1e8",
                        "points=3"], capsys)
    assert code == 0
    data = json.loads(out)["data"]
    assert data["minima"] == [] and data["minima_density"] == []


def test_fringes_json_includes_profile_arrays(capsys):
    code, out, _ = run(["fringes", "points=5", "ymax=1"], capsys)
    assert code == 0
    data = json.loads(out)["data"]
    assert len(data["y"]) == len(data["density"]) == 5


def test_parameter_tables_cover_every_parameter():
    # one kinds table serves the claim rows, the ansatz rows and the two
    # numeric commands: every name a target accepts has a kind, and every
    # kind is accepted by some target
    from kk6.cli import ANSATZ_IDS, _ANSATZ_PARAMS
    from kk6.verify import (
        FRINGE_DEFAULTS, GEODESIC_DEFAULTS, PARAM_KINDS, REGISTRY,
    )
    names = set().union(*(c.params for c in REGISTRY.values()),
                        *_ANSATZ_PARAMS.values(), GEODESIC_DEFAULTS,
                        FRINGE_DEFAULTS)
    assert sorted(names - set(PARAM_KINDS)) == []
    assert sorted(set(PARAM_KINDS) - names) == []
    for aid in ANSATZ_IDS:
        assert parse_config(f"command=curvature\nansatz={aid}").ansatz == aid


# ---------------------------------------------------------------------------
# README quick start

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_lines():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start — CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [ln for ln in block.splitlines() if ln.startswith("kk6 ")]


@pytest.mark.parametrize("line", _quick_start_lines())
def test_readme_quick_start_line_runs(line, tmp_path, monkeypatch, capsys):
    # each documented invocation runs and exits as the README says
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("command=verify\nclaims=fsq.null\n")
    argv = shlex.split(line, comments=True)[1:]
    code, _, err = run(argv, capsys)
    assert code == (1 if "# exit 1" in line else 0), err


# ---------------------------------------------------------------------------
# determinism

def strip_timing(text):
    rep = json.loads(text)
    rep.pop("timing", None)
    return json.dumps(rep, indent=2, sort_keys=False)


def test_reports_identical_across_runs_modulo_timing(tmp_path, capsys):
    argv = ["verify", "--claim", "inverse.photon", "--claim",
            "geodesic.closedform", "steps=50", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert strip_timing((a / "report.json").read_text()) == \
        strip_timing((b / "report.json").read_text())
