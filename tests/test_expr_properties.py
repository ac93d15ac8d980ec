"""Property tests of the expression kernel's invariants: ``add`` and
``mul`` ignore the order and grouping of their arguments, a product holds
each base once and a term minus itself is zero, ``simplify`` is
value-preserving and idempotent and agrees with the tree expansion it
replaced, printing round-trips through the parser, ``diff`` agrees with
central finite differences, and ``scaled_eval``'s tape gives the recursive
walk's numbers and failures bit for bit."""
import cmath
import random
import struct
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from kk6.expr import (  # noqa: E402
    MINUS_ONE, ONE, ZERO, Add, Conj, EvalError, Exp, Expr, Mul, Num, Pow,
    Sqrt, Sym, add, conj, coords, diff, exp, free_symbols, mul, num, power,
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
# a few roots and inverse radicands, so that products meet the same root
# twice and fold it, and a fold can cancel a sum's negative power
_RADICANDS = (add(mul(X1, X1), ONE), add(mul(W, conj(W)), ONE))
FOLD_LEAVES = (sqrt(W), *map(sqrt, _RADICANDS),
         *(power(a, -1) for a in _RADICANDS))
leaves = st.one_of(st.sampled_from(SYMS), numbers,
                   st.sampled_from(FOLD_LEAVES))


def _extend(children):
    # Every node kind, on domains where evaluation stays finite and off the
    # branch cut: negative powers only of symbols (sampled magnitudes are
    # >= 0.1) and of the radicands above (>= 1), exp of a bounded linear
    # form, sqrt of |u|^2 + 1 or of the complex w.
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
        st.builds(power, children, st.integers(2, 3)),
        st.builds(power, st.sampled_from(SYMS), st.integers(-3, -1)),
        st.builds(lambda c, s: exp(mul(num(c), s)), rationals,
                  st.sampled_from(SYMS)),
        st.builds(lambda u, c, s, d, t: mul(u, exp(add(mul(num(c), s),
                                                       mul(num(d), t)))),
                  children, rationals, st.sampled_from(SYMS), rationals,
                  st.sampled_from(SYMS)),
        children.map(lambda u: sqrt(add(mul(u, conj(u)), ONE))),
        children.map(lambda u: mul(u, sqrt(W))),
        children.map(conj),
    )


exprs = st.recursive(leaves, _extend, max_leaves=6)
seeds = st.integers(0, 2**32 - 1)


def _point(e, seed):
    return sample_env(free_symbols(e), random.Random(seed))


@PROPERTY
@given(st.lists(exprs, min_size=3, max_size=3), st.permutations(range(3)))
def test_add_and_mul_ignore_order_and_grouping(es, perm):
    a, b, c = es
    shuffled = [es[i] for i in perm]
    assert add(*shuffled) is add(a, b, c)
    assert add(a, add(b, c)) is add(add(a, b), c) is add(a, b, c)
    assert mul(*shuffled) is mul(a, b, c)
    assert mul(a, mul(b, c)) is mul(mul(a, b), c) is mul(a, b, c)


def _nodes(e):
    seen, stack = set(), [e]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        yield n
        if isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, (Exp, Sqrt, Conj)):
            stack.append(n.arg)


@PROPERTY
@given(st.lists(exprs, min_size=2, max_size=3))
def test_a_product_holds_each_base_once(es):
    # x and x^n merge, and so does what a root folds to: sqrt(w)^2 w^-1 = 1
    for e in (mul(*es), simplify(mul(*es))):
        for m in _nodes(e):
            if isinstance(m, Mul):
                bases = [f.base if isinstance(f, Pow) else f
                         for f in m.factors]
                assert len(set(bases)) == len(bases), to_text(m)


@PROPERTY
@given(exprs)
def test_a_term_minus_itself_is_zero(e):
    # ``add`` collects like terms; a sum times -1 is one term, a product,
    # until ``simplify`` distributes it
    if not isinstance(e, Add):
        assert add(e, mul(MINUS_ONE, e)) is ZERO
    assert simplify(add(e, mul(MINUS_ONE, e))) is ZERO


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


# The tree expansion ``simplify`` used before its polynomial kernel: every
# pair of terms multiplied by ``mul``, every sum factor a fold leaves
# distributed again, the products collected by ``add``.
def _terms(a: Expr) -> tuple:
    return a.terms if isinstance(a, Add) else (a,)


def _monomial(m: Expr) -> Expr:
    if isinstance(m, Mul) and any(isinstance(f, Add) for f in m.factors):
        r = m.factors[0]
        for f in m.factors[1:]:
            r = _distribute(r, f)
        return r
    return m


def _distribute(a: Expr, b: Expr) -> Expr:
    ta, tb = _terms(a), _terms(b)
    if len(ta) == 1 and len(tb) == 1:
        return _monomial(mul(a, b))
    return add(*(_monomial(mul(x, y)) for x in ta for y in tb))


def _reference_simplify(e: Expr, memo: dict) -> Expr:
    if e in memo:
        return memo[e]
    if isinstance(e, (Num, Sym, Conj)):
        r = e
    elif isinstance(e, Add):
        r = add(*(_reference_simplify(t, memo) for t in e.terms))
    elif isinstance(e, Mul):
        fs = [_reference_simplify(f, memo) for f in e.factors]
        r = fs[0]
        for f in fs[1:]:
            r = _distribute(r, f)
    elif isinstance(e, Pow):
        b = _reference_simplify(e.base, memo)
        if isinstance(b, Add) and 2 <= e.n <= 8:
            r = b
            for _ in range(e.n - 1):
                r = _distribute(r, b)
        else:
            r = _monomial(power(b, e.n))
    elif isinstance(e, Exp):
        r = exp(_reference_simplify(e.arg, memo))
    else:
        r = sqrt(_reference_simplify(e.arg, memo))
    memo[e] = r
    return r


@PROPERTY
@given(exprs)
def test_simplify_matches_the_tree_expansion(e):
    assert simplify(e) is _reference_simplify(e, {})


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


# The recursive walk ``scaled_eval`` used before its post-order tape, with
# its memo passed in.
def _reference_scaled(node: Expr, values: dict, memo: dict):
    got = memo.get(node)
    if got is not None:
        return got
    if isinstance(node, Num):
        v = complex(node.re, node.im)
        r = (v, abs(v))
    elif isinstance(node, Sym):
        try:
            v = values[node.symbol.name]
        except KeyError:
            raise EvalError(f"unbound symbol '{node.symbol.name}'", node) \
                from None
        r = (v, abs(v))
    elif isinstance(node, Add):
        v = 0j
        s = 0.0
        for t in node.terms:
            tv, ts = _reference_scaled(t, values, memo)
            v += tv
            s += ts
        r = (v, s)
    elif isinstance(node, Mul):
        v = 1 + 0j
        s = 1.0
        for f in node.factors:
            fv, fs = _reference_scaled(f, values, memo)
            v *= fv
            s *= fs
        r = (v, s)
    elif isinstance(node, Pow):
        bv, _ = _reference_scaled(node.base, values, memo)
        try:
            v = bv ** node.n
        except ZeroDivisionError:
            raise EvalError("zero base at negative power", node) from None
        r = (v, abs(v))
    elif isinstance(node, Exp):
        try:
            v = cmath.exp(_reference_scaled(node.arg, values, memo)[0])
        except OverflowError:
            raise EvalError("exp overflow", node) from None
        r = (v, abs(v))
    elif isinstance(node, Sqrt):
        v = cmath.sqrt(_reference_scaled(node.arg, values, memo)[0])
        r = (v, abs(v))
    else:
        v = _reference_scaled(node.arg, values, memo)[0].conjugate()
        r = (v, abs(v))
    if not cmath.isfinite(r[0]):
        raise EvalError("non-finite value", node)
    memo[node] = r
    return r


def _bits(value: complex, scale: float) -> bytes:
    # equal bytes: equal values, signs of zero included
    return struct.pack("ddd", value.real, value.imag, scale)


@PROPERTY
@given(exprs, seeds)
def test_scaled_eval_matches_the_recursive_walk(e, seed):
    env = _point(e, seed)
    want = _reference_scaled(e, dict(env), {})
    assert _bits(*scaled_eval(e, env)) == _bits(*want)


def test_scaled_eval_keeps_the_sign_of_zero():
    # each term is a positive real with imaginary part -0.0; a sum from 0j
    # makes it +0.0
    e = add(mul(MINUS_ONE, X0), mul(MINUS_ONE, X1))
    env = {"x0": -0.5 + 0j, "x1": -0.25 + 0j}
    want = _reference_scaled(e, dict(env), {})
    assert struct.pack("d", want[0].imag) == struct.pack("d", 0.0)
    assert _bits(*scaled_eval(e, env)) == _bits(*want)


DEFAULT_TABLE.register("zbad", real=False)
ZBAD = sym("zbad")
# failing subtree -> the value of ``zbad`` that makes it fail
FAILURES = (
    (power(ZBAD, -2), 0j),                          # zero base, negative power
    (exp(mul(num(1000), ZBAD)), 1 + 0j),            # exp overflow
    (mul(num(10**200), ZBAD, ZBAD), 1e150 + 0j),    # non-finite product
    (add(ZBAD, conj(ZBAD)), 1.5e308 + 0j),          # non-finite sum
)


@PROPERTY
@given(st.lists(exprs, min_size=1, max_size=3), st.sampled_from(FAILURES),
       st.integers(0, 3), st.booleans(), seeds)
def test_scaled_eval_fails_where_the_recursive_walk_fails(
        es, failure, at, as_sum, seed):
    bad, value = failure
    parts = [p for p in es if p is not ZERO]   # 0 * bad would drop bad
    parts.insert(at % (len(parts) + 1), bad)
    e = add(*parts) if as_sum else mul(*parts)
    env = _point(e, seed)
    env["zbad"] = value
    with pytest.raises(EvalError) as want:
        _reference_scaled(e, dict(env), {})
    with pytest.raises(EvalError) as got:
        scaled_eval(e, env)
    assert str(got.value) == str(want.value)
    assert got.value.subtree is want.value.subtree
