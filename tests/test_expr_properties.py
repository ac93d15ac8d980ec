"""Property tests of the expression kernel's invariants: ``simplify`` is
value-preserving and idempotent, printing round-trips through the parser,
and ``diff`` agrees with central finite differences."""
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from kk6.expr import (  # noqa: E402
    ONE, add, conj, coords, diff, exp, free_symbols, mul, num, power,
    simplify, sqrt, sym, to_text,
)
from kk6.parse import parse_expression  # noqa: E402
from kk6.symbols import DEFAULT_TABLE  # noqa: E402
from kk6.zeros import evaluate, sample_env, scaled_eval  # noqa: E402

DEFAULT_TABLE.register("w", real=False)
W = sym("w")
X0, X1, X2 = coords()[:3]
SYMS = (X0, X1, X2, W)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
numbers = st.builds(num, rationals,
                    st.sampled_from((Fraction(0), Fraction(1), Fraction(-1, 2))))
leaves = st.one_of(st.sampled_from(SYMS), numbers)


def _extend(children):
    # Every node kind, on domains where evaluation stays finite and off the
    # branch cut: negative powers only of symbols (sampled magnitudes are
    # >= 0.1), exp of a bounded linear form, sqrt of |u|^2 + 1.
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
        st.builds(power, children, st.integers(2, 3)),
        st.builds(power, st.sampled_from(SYMS), st.integers(-3, -1)),
        st.builds(lambda c, s: exp(mul(num(c), s)), rationals,
                  st.sampled_from(SYMS)),
        children.map(lambda u: sqrt(add(mul(u, conj(u)), ONE))),
        children.map(conj),
    )


exprs = st.recursive(leaves, _extend, max_leaves=6)
seeds = st.integers(0, 2**32 - 1)


def _point(e, seed):
    return sample_env(free_symbols(e), random.Random(seed))


@PROPERTY
@given(exprs, seeds)
def test_simplify_preserves_value(e, seed):
    s = simplify(e)
    env = _point(e, seed)
    scale = scaled_eval(e, env)[1] + scaled_eval(s, env)[1]
    assert abs(evaluate(e, env) - evaluate(s, env)) <= 1e-9 * (1 + scale)


@PROPERTY
@given(exprs)
def test_simplify_is_idempotent(e):
    s = simplify(e)
    assert simplify(s) is s


@PROPERTY
@given(exprs)
def test_text_round_trips_through_the_parser(e):
    assert parse_expression(to_text(e)) is e


@PROPERTY
@given(exprs, seeds)
def test_diff_matches_central_difference(e, seed):
    h = 1e-6
    d = diff(e, X0)
    env = _point(e, seed)
    env.setdefault("x0", 0.7 + 0j)
    up, dn = dict(env), dict(env)
    up["x0"] += h
    dn["x0"] -= h
    fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
    # roundoff in the difference quotient grows with |e| / h
    tol = 1e-5 * (1 + scaled_eval(d, env)[1]) + 1e-7 * scaled_eval(e, env)[1]
    assert abs(evaluate(d, env) - fd) <= tol
