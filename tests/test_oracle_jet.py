"""The oracle's jet route against the symbolic pipeline and the stencil:
Einstein tensors from second-order jets, and the metric values they
carry."""
import json
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from kk6.curvature import einstein
from kk6.expr import (
    ZERO, coords, exp, free_symbols, mul, num, power, sqrt, subs,
)
from kk6.oracle import (
    SingularMatrixError, compile_expr, einstein_fd, einstein_jet,
    jet_evaluator, metric_evaluator, metric_values,
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
    # the value part of every jet is the plain compiled entry, and the
    # stencil's closure holds the same numbers
    for _, metric in _gravity_split_metrics():
        jf, mv, gf = (jet_evaluator(metric), metric_values(metric),
                      metric_evaluator(metric))
        for pt in _points(9, 2):
            values = [getattr(j, "v", j) for j in jf(pt)]
            assert np.array(values).tobytes() == np.array(mv(pt)).tobytes()
            assert np.array(mv(pt)).reshape(DIM, DIM).tobytes() == \
                gf(pt).tobytes()


def test_einstein_jet_refuses_a_metric_singular_at_the_point():
    # g_00 = x1 vanishes at x1 = 0: an exactly zero pivot
    lower = [[ZERO] * DIM for _ in range(DIM)]
    for a, e in enumerate((x[1], num(-1), num(-1), num(-1), num(1),
                           num(-1))):
        lower[a][a] = e
    jf = jet_evaluator(Metric6(lower))
    with pytest.raises(SingularMatrixError, match="Singular matrix"):
        einstein_jet(jf, [0.3, 0, 0.1, 0.2, 0, 0])
    assert np.isfinite(einstein_jet(jf, [0.3, 0.5, 0.1, 0.2, 0, 0])).all()
