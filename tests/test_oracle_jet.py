"""The oracle against the symbolic pipeline and itself: Einstein tensors
from second-order jets against the symbolic tensor and the stencil, the
metric values the jets and the stencil carry, the stencil's one batch,
and what the oracle compiles, imports and refuses."""
import ast
import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import kk6.oracle
from kk6.curvature import einstein
from kk6.expr import (
    ZERO, coords, exp, free_symbols, mul, num, power, sqrt, subs, sym,
)
from kk6.oracle import (
    SingularMatrixError, compile_expr, einstein_fd, einstein_jet,
    jet_evaluator, metric_evaluator, ricci_fd,
)
from kk6.parse import parse_expression
from kk6.tensor import DIM, Metric6
from test_curvature import _gravity_split_metrics

GOLDEN = pathlib.Path(__file__).with_name("golden_curvature.json")
x = coords()


def _points(seed, n):
    # complex points, as the gravity split's identity line samples them
    rng = random.Random(seed)
    return [[complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
             for _ in range(DIM)] for _ in range(n)]


def _rows(entries: dict) -> list:
    # a report's "ab" -> text map (a <= b) as symmetric rows of expressions
    rows = [[ZERO] * DIM for _ in range(DIM)]
    for key, text in entries.items():
        a, b = int(key[0]), int(key[1])
        rows[a][b] = rows[b][a] = parse_expression(text)
    return rows


def _golden_case(label):
    """The metric and Einstein tensor of a ``kk6 curvature`` report, each
    parameter left symbolic bound to a seeded rational in [1/5, 4/5]."""
    data = json.loads(GOLDEN.read_text())[label]["data"]
    metric, ein = _rows(data["metric"]), _rows(data["einstein"])
    names = sorted({s.name for row in metric + ein for e in row
                    for s in free_symbols(e)} - {f"x{i}" for i in range(6)})
    rng = random.Random(5)
    bind = {n: num(Fraction(rng.randint(2, 8), 10)) for n in names}
    return ([[subs(e, bind) for e in row] for row in metric],
            [[subs(e, bind) for e in row] for row in ein])


def _split_case(label):
    metric = dict(_gravity_split_metrics())[label]
    return metric.lower, einstein(metric)


def _ripple_case(_):
    # every jet rule a metric family may not reach: sqrt, exp and
    # negative powers of coordinate-dependent arguments, off the diagonal
    lower = [[ZERO] * DIM for _ in range(DIM)]
    diag = (num(1) + power(x[1], 2), num(-1), num(-1),
            mul(num(-1), exp(mul(x[2], x[3]))),
            sqrt(num(2) + x[0]), power(num(3) + x[4], -3))
    for a in range(DIM):
        lower[a][a] = diag[a]
    lower[0][4] = lower[4][0] = mul(num("1/10"), x[5], x[1])
    metric = Metric6(lower)
    return metric.lower, einstein(metric)


CASES = ([("golden", label) for label in json.loads(GOLDEN.read_text())]
         + [("split", label) for label, _ in _gravity_split_metrics()]
         + [("ripple", None)])
BUILD = {"golden": _golden_case, "split": _split_case,
         "ripple": _ripple_case}


def _relative_gap(got, ref) -> float:
    got, ref = np.array(got), np.array(ref)
    return float(np.max(np.abs(got - ref))) / (1 + float(np.max(np.abs(ref))))


def _diagonal(entries) -> Metric6:
    lower = [[ZERO] * DIM for _ in range(DIM)]
    for a, e in enumerate(entries):
        lower[a][a] = e
    return Metric6(lower)


@pytest.mark.parametrize("kind, label", CASES,
                         ids=[f"{k}-{lab}" for k, lab in CASES])
def test_einstein_jet_is_the_symbolic_einstein(kind, label):
    # the jets differentiate exactly, so only rounding separates them
    lower, ein = BUILD[kind](label)
    jf = jet_evaluator(Metric6(lower))
    for pt in _points(7, 3):
        ref = [[complex(compile_expr(e)(pt)) for e in row] for row in ein]
        assert _relative_gap(einstein_jet(jf, pt), ref) < 1e-10, pt


@pytest.mark.parametrize("kind, label", CASES,
                         ids=[f"{k}-{lab}" for k, lab in CASES])
def test_einstein_jet_agrees_with_the_stencil(kind, label):
    metric = Metric6(BUILD[kind](label)[0])
    jf, gf = jet_evaluator(metric), metric_evaluator(metric)
    for pt in _points(8, 2):
        assert _relative_gap(einstein_jet(jf, pt), einstein_fd(gf, pt)) \
            < 1e-6, pt


def test_jet_values_are_the_compiled_metric_bit_for_bit():
    # the jets are the nonzero entries in C order, a jet where the entry
    # reads a coordinate and a plain number where it is constant; the
    # value part of each is the number compile_expr gives for the entry,
    # and the stencil's closure holds the same numbers
    for _, metric in _gravity_split_metrics():
        entries = [e for row in metric.lower for e in row]
        nonzero = [i for i, e in enumerate(entries) if e is not ZERO]
        jf, gf = jet_evaluator(metric), metric_evaluator(metric)
        for pt in _points(9, 2):
            pairs = jf(pt)
            assert [i for i, _ in pairs] == nonzero
            assert [hasattr(j, "dd") for _, j in pairs] == \
                [bool(free_symbols(entries[i])) for i in nonzero]
            values = np.zeros(DIM * DIM, dtype=complex)
            values[nonzero] = [getattr(j, "v", j) for _, j in pairs]
            ref = np.array([complex(compile_expr(e)(pt)) for e in entries])
            assert values.tobytes() == ref.tobytes() == gf(pt).tobytes()


def test_einstein_jet_refuses_a_metric_singular_at_the_point():
    # g_00 = x1 vanishes at x1 = 0: an exactly zero pivot
    jf = jet_evaluator(_diagonal((x[1], num(-1), num(-1), num(-1), num(1),
                                  num(-1))))
    with pytest.raises(SingularMatrixError, match="Singular matrix"):
        einstein_jet(jf, [0.3, 0, 0.1, 0.2, 0, 0])
    assert np.isfinite(einstein_jet(jf, [0.3, 0.5, 0.1, 0.2, 0, 0])).all()


def test_einstein_jet_returns_an_overflowing_tensor_as_it_is():
    # g_00 = 1e200 x1^3 against g_11 = -1e-200 x2: the connection's
    # products overflow, and G comes back as nested tuples of non-finite
    # entries instead of raising
    jf = jet_evaluator(_diagonal((mul(num(1e200), power(x[1], 3)),
                                  mul(num(-1e-200), x[2]), num(-1),
                                  num(-1), num(1), num(-1))))
    got = einstein_jet(jf, [0.3, 0.5, 0.1, 0.2, 0, 0])
    assert type(got) is tuple and {type(row) for row in got} == {tuple}
    assert not np.isfinite(got).any()
    # a jet's ** that overflows raises
    with pytest.raises(OverflowError):
        einstein_jet(jf, [0.3, 1e120, 0.1, 0.2, 0, 0])


def test_compile_expr_refuses_a_symbol_that_is_not_a_coordinate():
    with pytest.raises(ValueError, match=r"non-coordinate symbols in "
                                         r"compiled expression: \['m0'\]"):
        compile_expr(mul(sym("m0"), x[1]))


def test_a_compiled_constant_is_formed_once():
    # the constant is formed when the function is compiled, so every call
    # returns that one object
    f = compile_expr(num("1/3"))
    assert f([0j] * DIM) is f([1j] * DIM)
    assert f([0j] * DIM) == complex(1 / 3)


def test_the_oracle_reads_no_symbolic_derivative():
    # it rebuilds the curvature numerically: nothing from curvature, and
    # neither a derivative nor simplify from the kernel
    tree = ast.parse(pathlib.Path(kk6.oracle.__file__).read_text())
    froms = {(n.module, a.name) for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) for a in n.names}
    assert {m for m, _ in froms} == {"__future__", "typing", "expr",
                                     "tensor"}
    assert not {name for m, name in froms if m == "expr"} & {
        "derive", "diff", "simplify", "contract", "context"}


def test_the_jet_route_leaves_numpy_unloaded():
    # numpy is the stencil's alone: compile_expr, the jets and einstein_jet
    # run without it
    code = (
        "import sys\n"
        "from kk6.ansatz import scalar_metric\n"
        "from kk6.oracle import compile_expr, einstein_jet, jet_evaluator\n"
        "m = scalar_metric(p=('5/4', 0, 0, '3/4'), m0=1).metric\n"
        "pt = [0.1j, 0.2, 0.3, 0.4, 0.5, 0.6]\n"
        "einstein_jet(jet_evaluator(m), pt)\n"
        "compile_expr(m.lower[4][4])(pt)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'numpy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_ricci_fd_forms_its_625_samples_as_one_batch(monkeypatch):
    # one many() call for the whole stencil, one batched inverse of the 25
    # centre metrics, and one einsum contracting them into connections
    ev = metric_evaluator(dict(_gravity_split_metrics())[("scalar", "full")])
    batches, inverted, contracted = [], [], []

    def gf(pt):
        return ev(pt)

    def many(points):
        batches.append(len(points))
        return ev.many(points)

    gf.many = many
    inv, einsum = np.linalg.inv, np.einsum
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: inverted.append(a.shape) or inv(a))
    monkeypatch.setattr(np, "einsum",
                        lambda spec, *ops: contracted.append(spec)
                        or einsum(spec, *ops))
    ricci_fd(gf, _points(10, 1)[0])
    assert batches == [625]
    assert inverted == [(25, DIM, DIM)]
    assert contracted.count("pcd,padb->pcab") == 1
