"""``simplify`` against an independent oracle, ``sympy`` (skipped where it
is not installed): an expression and its ``simplify`` output are the same
sympy expression once expanded, over the property-test strategy and over
the contraction of golden metric families with their claimed inverses."""
import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402

from kk6.expr import (  # noqa: E402
    Add, Exp, Mul, Num, Pow, Sqrt, Sym, add, mul, simplify,
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
