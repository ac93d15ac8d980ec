"""``simplify`` against an independent oracle, ``sympy`` (skipped where it
is not installed): an expression and its ``simplify`` output are the same
sympy expression once expanded, over the property-test strategy and over
the contraction of golden metric families with their claimed inverses.
The Christoffel symbols and the Einstein tensor of the scalar and photon
metrics are computed again in sympy, from the metric alone, and match."""
import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402

from kk6.ansatz import (  # noqa: E402
    null_wave_potential, photon_metric, scalar_metric,
)
from kk6.curvature import christoffel, einstein  # noqa: E402
from kk6.expr import (  # noqa: E402
    ZERO, Add, Exp, Mul, Num, Pow, Sqrt, Sym, add, coords, mul, simplify,
)
from test_expr_properties import PROPERTY, exprs  # noqa: E402
from test_golden_records import METRICS  # noqa: E402


def _sympy(e, memo: dict):
    if e in memo:
        return memo[e]
    if isinstance(e, Num):
        r = (sympy.Rational(e.re.numerator, e.re.denominator)
             + sympy.I * sympy.Rational(e.im.numerator, e.im.denominator))
    elif isinstance(e, Sym):
        r = sympy.Symbol(e.symbol.name, real=e.symbol.real)
    elif isinstance(e, Add):
        r = sympy.Add(*(_sympy(t, memo) for t in e.terms))
    elif isinstance(e, Mul):
        r = sympy.Mul(*(_sympy(f, memo) for f in e.factors))
    elif isinstance(e, Pow):
        r = _sympy(e.base, memo) ** e.n
    elif isinstance(e, Exp):
        r = sympy.exp(_sympy(e.arg, memo))
    elif isinstance(e, Sqrt):
        r = sympy.sqrt(_sympy(e.arg, memo))
    else:
        r = sympy.conjugate(_sympy(e.arg, memo))
    memo[e] = r
    return r


def _agree(e) -> bool:
    memo: dict = {}
    d = sympy.expand(_sympy(e, memo) - _sympy(simplify(e), memo))
    # ``expand`` leaves some quotients by sums apart; ``simplify`` joins them
    return d == 0 or sympy.simplify(d) == 0


@PROPERTY
@given(exprs)
def test_simplify_agrees_with_sympy(e):
    assert _agree(e)


@pytest.mark.parametrize("family", ["dirac1", "photon", "proca"])
def test_inverse_contraction_agrees_with_sympy(family):
    lower, upper = METRICS[family]()[:2]
    for a in range(6):
        for c in range(6):
            assert _agree(add(*(mul(lower[a][b], upper[b][c])
                                for b in range(6))))


def _sympy_connection_and_einstein(g, x):
    # textbook formulas over sympy's own inverse and derivatives
    r6 = range(6)
    gi = g.inv().applyfunc(sympy.expand)
    dg = [g.diff(s) for s in x]
    gamma = [[[sympy.expand(sum(gi[c, d] * (dg[a][d, b] + dg[b][d, a]
                                            - dg[d][a, b]) for d in r6) / 2)
               for b in r6] for a in r6] for c in r6]
    trace = [sum(gamma[c][a][c] for c in r6) for a in r6]
    ric = [[sum(gamma[c][a][b].diff(x[c]) + gamma[c][a][b] * trace[c]
                for c in r6) - trace[a].diff(x[b])
            - sum(gamma[c][a][d] * gamma[d][b][c] for c in r6 for d in r6)
            for b in r6] for a in r6]
    rs = sum(gi[a, b] * ric[a][b] for a in r6 for b in r6)
    return gamma, [[ric[a][b] - rs * g[a, b] / 2 for b in r6] for a in r6]


@pytest.mark.parametrize("build", [
    scalar_metric, lambda: photon_metric(null_wave_potential()),
], ids=["scalar", "photon"])
def test_connection_and_einstein_agree_with_sympy(build):
    # the metrics of ``kk6 curvature`` at its default, symbolic parameters
    metric = build().metric
    memo: dict = {}
    g = sympy.Matrix(6, 6, lambda a, b: _sympy(metric.lower[a][b], memo))
    gamma, ein = _sympy_connection_and_einstein(
        g, [_sympy(s, memo) for s in coords()])
    ours = christoffel(metric)
    for c in range(6):
        for a in range(6):
            for b in range(6):
                assert sympy.expand(gamma[c][a][b]
                                    - _sympy(ours[c][a][b], memo)) == 0
    ours = einstein(metric)
    assert any(e is not ZERO for row in ours for e in row)
    for a in range(6):
        for b in range(6):
            assert sympy.expand(ein[a][b] - _sympy(ours[a][b], memo)) == 0
