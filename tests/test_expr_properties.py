"""Property tests of the expression kernel's invariants: ``add`` and
``mul`` ignore the order and grouping of their arguments, a product holds
each base once and a term minus itself is zero, ``simplify`` is
value-preserving and idempotent and agrees with the tree expansion it
replaced, ``contract`` and ``derive`` are the tree routes they stand for,
node for node, printing round-trips through the parser, every node is
its constructor applied to its children and ``subs`` and ``conj`` keep the
value, ``diff`` agrees with central finite differences, and
``scaled_eval``'s tape gives the recursive walk's numbers and failures bit
for bit."""
import cmath
import json
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import (  # noqa: E402
    HealthCheck, assume, example, given, settings, strategies as st,
)

from kk6 import expr as kernel  # noqa: E402
from kk6.expr import (  # noqa: E402
    MINUS_ONE, ONE, ZERO, Add, Conj, DomainError, EvalError, Exp, Expr, Mul,
    Num, Pow, Sqrt, Sym, add, conj, context, contract, coords, derive, diff,
    exp, free_symbols, mul, num, power, simplify, sqrt, subs, sym, to_text,
)
from kk6.parse import parse_expression  # noqa: E402
from kk6.zeros import evaluate, sample_env, scaled_eval  # noqa: E402

W = sym("c0")     # a complex symbol
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


def _children(n):
    if isinstance(n, Add):
        return n.terms
    if isinstance(n, Mul):
        return n.factors
    if isinstance(n, Pow):
        return (n.base,)
    if isinstance(n, (Exp, Sqrt, Conj)):
        return (n.arg,)
    return ()


def _nodes(e):
    seen, stack = set(), [e]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        yield n
        stack.extend(_children(n))


@PROPERTY
@given(st.lists(exprs, min_size=2, max_size=3))
def test_a_product_holds_each_base_once(es):
    # x and x^n merge, and so does what a root folds to: sqrt(c0)^2 c0^-1 = 1
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
            r = power(b, e.n)
            if not (isinstance(r, Pow) and r.base is b):
                r = _reference_simplify(r, memo)
    elif isinstance(e, Exp):
        r = exp(_reference_simplify(e.arg, memo))
    else:
        r = sqrt(_reference_simplify(e.arg, memo))
    memo[e] = r
    return r


# Powers of S = x0 + x1 under a root.  ``power`` folds sqrt(S)^3 to
# S*sqrt(S) when it builds the tree; a sum that only ``simplify`` collapses
# to one term leaves the fold, or an ``exp`` argument's scaling, to
# ``simplify``'s power branch.
_SUM = add(X0, X1)


def _collapsing(t):
    return add(mul(t, add(ONE, X2)), mul(MINUS_ONE, X2, t))  # simplifies to t


_ROOT = _collapsing(sqrt(_SUM))
FOLDS = (
    power(sqrt(_SUM), 3), mul(X2, power(sqrt(_SUM), -3)),
    power(add(power(sqrt(_SUM), 5), X2), 2),
    power(_ROOT, 3), mul(X2, power(_ROOT, -3)),
    power(add(power(_ROOT, 5), X2), 2),
    # the fold leaves S^2, or the power makes exp(2*S) or S^2, which
    # simplify expands in a fresh tree
    power(_ROOT, 5), power(_collapsing(mul(X2, sqrt(_SUM))), 4),
    power(_collapsing(exp(_SUM)), 2), power(_collapsing(power(_SUM, -1)), -2),
)


def _with_folds(test):
    for e in FOLDS:
        test = example(e)(test)
    return test


@PROPERTY
@given(exprs)
@_with_folds
def test_simplify_matches_the_tree_expansion(e):
    assert simplify(e) is _reference_simplify(e, {})


# The tree route goes first in each check: ``contract`` marks its result as
# its own ``simplify`` result, so a wrong result met first would be served
# from that cache to the tree route.
def _tree_route(products) -> Expr:
    return simplify(add(*(mul(*p) for p in products)))


products = st.lists(st.lists(exprs, min_size=1, max_size=3).map(tuple),
                    min_size=1, max_size=4)


@PROPERTY
@given(products)
def test_contract_is_the_tree_route(ps):
    assert _tree_route(ps) is contract(ps, context())


@settings(PROPERTY, max_examples=40)
@given(st.lists(products, min_size=2, max_size=3))
def test_contract_in_a_shared_context_is_the_tree_route(calls):
    # reads, exp sums and registered atoms carry over between calls
    ctx = context()
    for ps in calls:
        assert _tree_route(ps) is contract(ps, ctx)


_S = add(X1, ONE)
_T = add(X2, ONE)
_R = add(mul(X1, X1), ONE)


@pytest.mark.parametrize("ps", [
    # a sum times its own inverse: mul cancels it, the kernel would
    # expand the sum against an atomic inverse
    [(_S, power(_S, -1))],
    [(MINUS_ONE, mul(X0, _S)), (power(_S, -1), X2)],
    # nine copies of one sum: mul makes an atomic ninth power
    [(_S,) * 9],
    # S^9 S^-1 = S^8, which is expanded
    [(power(_S, 9), power(_S, -1))],
    # a root met twice folds to its radicand, which meets its inverse
    [(sqrt(mul(X2, _S)), sqrt(mul(X2, _S)), power(_S, -1))],
    # two roots that fold to a sum, beside another sum
    [(sqrt(_S), sqrt(_S), _T)],
], ids=["inverse", "inverse-in-a-product", "nine-copies", "ninth-power",
        "root-of-a-product", "root-of-a-sum"])
def test_contract_takes_the_tree_route_where_mul_merges(ps):
    assert _tree_route(ps) is contract(ps, context())


def test_contract_multiplies_in_muls_order():
    # sqrt(R) meets sqrt(R) in the first two sums and R^-1 in the third:
    # mul's order takes the third first, so the fold meets R^-1 and
    # cancels; the written order would expand R before it meets R^-1
    ps = [(add(X1, sqrt(_R)), add(X2, sqrt(_R)), add(X0, power(_R, -1)))]
    assert _tree_route(ps) is contract(ps, context())


def test_contract_widens_only_the_call_that_overflows():
    ctx = context()
    big = [(power(X1, 2**31 + 5), power(X2, 3)), (power(X1, 2**30),) * 2]
    assert _tree_route(big) is contract(big, ctx)
    assert ctx.width == 32
    # the shared context goes on at its own width
    small = [(X1, _S), (MINUS_ONE, X1, X2)]
    assert _tree_route(small) is contract(small, ctx)
    assert _tree_route(big) is contract(iter(big), ctx)


def test_derive_widens_only_the_call_that_overflows():
    ctx = context()
    big = mul(power(X1, 2**31 + 5), power(X2, 3))
    want = simplify(diff(big, X1))
    assert derive(big, X1, ctx) is want
    assert ctx.width == 32
    small = mul(X1, X2, _S)
    want = simplify(diff(small, X1))
    assert derive(small, X1, ctx) is want


def test_a_widened_call_leaves_no_overflowed_key_in_its_context():
    # at width 32, x1^(2^31 + 5) packs to the key of x1^(5 - 2^31)*x2
    # (x1 in field 0, x2 in field 1); the call that widens must not leave
    # that key's factors behind for the next call to build
    ctx = context()
    contract([(power(X1, 2**31 + 5),)], ctx)
    ps = [(power(X1, 5 - 2**31), X2)]
    assert _tree_route(ps) is contract(ps, ctx)


def test_contract_of_nothing_is_zero_and_an_empty_product_is_one():
    assert contract([], context()) is ZERO
    assert contract([(X1, ZERO), (ZERO,)], context()) is ZERO
    assert contract([(), (X1,)], context()) is _tree_route([(), (X1,)])


@PROPERTY
@given(exprs.map(lambda e: _terms(simplify(e))[0]), exprs.map(simplify))
# i times imaginary parts: the i*i = -1 negation of the other side
@example(mul(num(0, 1), X1), add(X0, mul(num(0, 1), X2), num(1, 1)))
# a shared root folds, so the product must still be collected
@example(mul(X1, sqrt(W)), add(X0, sqrt(W)))
def test_a_monomial_side_leaves_nothing_to_collect(m, e):
    ctx = context()
    p, q = kernel._read(ctx, m), kernel._read(ctx, e)
    assume(kernel._monomial(p) or kernel._monomial(q))
    # the reference expansion does not run the kernel that ``contract`` does
    assert contract([(m, e)], context()) is _reference_simplify(mul(m, e), {})
    folds = any((ba & bb) > 1 for _, ba in p.groups for _, bb in q.groups)
    r = kernel._merge(ctx, p, q, [])
    if not folds:
        # no zero numerator and no empty group: the collect pass is a copy
        want = kernel._sum([r])
        assert (r.den, r.groups, r.mx) == (want.den, want.groups, want.mx)


@PROPERTY
@given(exprs)
def test_text_round_trips_through_the_parser(e):
    assert parse_expression(to_text(e)) is e


@PROPERTY
@given(exprs)
def test_every_node_is_its_constructor_applied_to_its_children(e):
    for n in _nodes(e):
        assert kernel._kids(n) == _children(n)
        assert kernel._rebuild(n, list(kernel._kids(n))) is n


@PROPERTY
@given(exprs)
def test_subs_of_nothing_and_conj_twice_give_the_node_back(e):
    assert subs(e, {}) is e
    assert conj(conj(e)) is e


def _close(a, b, scale):
    return abs(a - b) <= 1e-9 * (1 + scale)


@PROPERTY
@given(exprs, seeds)
def test_subs_and_conj_keep_the_value(e, seed):
    env = _point(add(e, X0, X1), seed)
    value, scale = scaled_eval(e, env)
    got, got_scale = scaled_eval(conj(e), env)
    assert _close(got, value.conjugate(), scale + got_scale)
    shifted = dict(env, x0=env["x0"] + env["x1"])
    value, scale = scaled_eval(e, shifted)
    got, got_scale = scaled_eval(subs(e, {"x0": X0 + X1}), env)
    assert _close(got, value, scale + got_scale)


@PROPERTY
@given(exprs)
def test_every_function_name_round_trips_through_the_parser(e):
    for build in kernel._FUNCTIONS.values():
        f = build(e)
        assert parse_expression(to_text(f)) is f


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


ZBAD = sym("c1")  # a complex symbol apart from W
# failing subtree -> the value of ``ZBAD`` that makes it fail
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
    env["c1"] = value
    with pytest.raises(EvalError) as want:
        _reference_scaled(e, dict(env), {})
    with pytest.raises(EvalError) as got:
        scaled_eval(e, env)
    assert str(got.value) == str(want.value)
    assert got.value.subtree is want.value.subtree


# ``derive`` against the tree route it stands for.  Its strategy adds sums
# under negative powers and roots of sums to ``exprs``, from a pool in
# which one sum is another's derivative, so that the derivative factor of a
# monomial meets a sum or root of the rest of it.
_DERIVED = add(mul(X0, X1), X0)            # d/dx0 is _S = x1 + 1
_POOL = (_S, _DERIVED, _R, add(mul(X0, X0), X2))
pooled = st.one_of(
    st.builds(power, st.sampled_from(_POOL), st.sampled_from((-2, -1, 9))),
    st.sampled_from(_POOL).map(sqrt),
)


def _extend_derivable(children):
    sums = st.lists(children, min_size=2, max_size=3).map(lambda ts: add(*ts))
    return st.one_of(
        _extend(children),
        # a sum that collapsed to a number stays as it is: 0^-1 is no node
        st.builds(lambda u, n: u if isinstance(u, Num) else power(u, n),
                  sums, st.integers(-2, -1)),
        sums.map(sqrt),
    )


derivables = st.one_of(
    st.recursive(st.one_of(leaves, pooled), _extend_derivable, max_leaves=6),
    st.lists(st.one_of(pooled, exprs), min_size=2, max_size=3).map(
        lambda fs: mul(*fs)),
)
TARGETS = (X0, X1, W)


def _tree_derivative(e, s):
    try:
        return simplify(diff(e, s))
    except DomainError:
        return DomainError


def _derivative(e, s, ctx):
    try:
        return derive(e, s, ctx)
    except DomainError:
        return DomainError


# As for ``contract``, the tree route goes first in each check.
@PROPERTY
@given(derivables)
def test_derive_is_the_tree_route(e):
    for x in (e, simplify(e)):
        for s in TARGETS:
            want = _tree_derivative(x, s)
            assert _derivative(x, s, context()) is want


@settings(PROPERTY, max_examples=60)
@given(st.lists(st.tuples(derivables, st.sampled_from(TARGETS)),
                min_size=2, max_size=4))
def test_derive_in_a_shared_context_is_the_tree_route(calls):
    # derivatives of sums, arguments and radicands carry over
    ctx = context()
    for e, s in calls:
        x = simplify(e)
        want = _tree_derivative(x, s)
        assert _derivative(x, s, ctx) is want


_A = add(X0, X1)


@pytest.mark.parametrize("e, s", [
    # d/dx0 of x0 + x0*x1 is 1 + x1, which mul merges with its inverse
    (mul(power(_DERIVED, -1), power(_S, -1)), X0),
    # S^9 gives 9*S^8*S', and simplify expands S^8
    (mul(power(_S, 9), X2), X1),
    # the root's derivative brings R^-1, and R^9 R^-1 = R^8 is expanded
    (mul(power(_R, 9), sqrt(_R)), X1),
    # a root of the rest meets the same root in the derivative factor
    (mul(sqrt(_R), power(add(X2, sqrt(_R)), -1)), X1),
    # the derivative factor brings S^-2, and S^10 S^-2 = S^8 is expanded
    (mul(power(_S, 10), power(add(mul(X0, power(_S, -2)), X2), -1)), X0),
    # S^9 S^-1 = S^8 inside simplify, which expands it there as it
    # does in a fresh tree
    (mul(power(_A, 9), add(X2, power(_A, -1))), X0),
], ids=["derived-sum", "ninth-power", "root-at-ninth-power", "shared-root",
        "sum-inside", "unexpanded-power"])
def test_derive_takes_the_tree_route_where_mul_merges(e, s):
    x = simplify(e)
    want = simplify(diff(x, s))
    assert derive(x, s, context()) is want


def test_derive_of_an_unsimplified_input_is_the_tree_route():
    e = mul(add(X0, X1), exp(mul(X0, X1)), power(_S, -1))
    assert simplify(e) is not e
    want = simplify(diff(e, X1))
    assert derive(e, X1, context()) is want


@settings(PROPERTY, max_examples=60)
@given(derivables)
def test_derive_in_two_symbols_in_one_context_is_the_tree_route(e):
    # the diff trees ``derive`` keeps in the context belong to one symbol
    ctx = context()
    x = simplify(e)
    for s in (X0, X1):
        want = _tree_derivative(x, s)
        assert _derivative(x, s, ctx) is want


def test_derive_merges_where_contract_does(monkeypatch):
    # the derived-sum case: with contract's guard off, the kernel expands
    # 1 + x1 against its own inverse instead of cancelling it
    x = simplify(mul(power(_DERIVED, -1), power(_S, -1)))
    want = simplify(diff(x, X0))
    monkeypatch.setattr(kernel, "_merges", lambda factors: False)
    assert derive(x, X0, context()) is not want


# ``contract``'s process-wide memo: a hit returns the node a fresh run
# builds, whatever filled the memo, and ``derive`` reaches it through
# ``contract``.  Each check clears the memo itself, as hypothesis runs
# every example of a test in one call of the fixtures.
def _both(ps, x, s):
    return contract(ps, context()), _derivative(x, s, context())


@PROPERTY
@given(products, derivables, st.sampled_from(TARGETS), products)
def test_contract_and_derive_give_one_node_with_the_memo_empty_or_filled(
        ps, e, s, other):
    x = simplify(e)
    want = (_tree_route(ps), _tree_derivative(x, s))
    kernel._CONTRACTED.clear()
    empty = _both(ps, x, s)
    contract(other, context())
    filled = _both(ps, x, s)
    for got in (empty, filled):
        assert got[0] is want[0]
        assert got[1] is want[1]
    as_generators = (iter(p) for p in ps)
    assert contract(as_generators, context()) is want[0]


def test_products_as_generators_give_the_node_of_tuples():
    # the tree route rebuilds a product in which mul merges, so a
    # generator product must reach the kernel as the key's tuple
    ps = [(_S, power(_S, -1)), (X1, sqrt(_R), sqrt(_R))]
    want = _tree_route(ps)
    for _ in range(2):      # the memo empty, then filled
        assert contract((iter(p) for p in ps), context()) is want
    assert contract(ps, context()) is want


def test_the_contract_memo_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(kernel, "_CONTRACTED_CAP", 2)
    expand = kernel._expand
    runs = []
    monkeypatch.setattr(
        kernel, "_expand",
        lambda ps, ctx: runs.append(ps) or expand(ps, ctx))
    a, b, c = ((X0, _S),), ((X1, _T),), ((X2, _R),)  # each its own key
    got_a, got_b = contract(a, context()), contract(b, context())
    assert contract(a, context()) is got_a      # a hit refreshes a
    contract(c, context())                      # and b goes
    assert list(kernel._CONTRACTED) == [a, c]
    assert runs == [a, b, c]
    assert contract(b, context()) is got_b      # formed again
    assert list(kernel._CONTRACTED) == [c, b]
    assert runs == [a, b, c, b]


def test_a_contraction_that_raises_stores_nothing():
    # a sum that simplifies to zero, under a negative power
    zero = add(mul(X0, _S), mul(MINUS_ONE, X0, X1), mul(MINUS_ONE, X0))
    assert simplify(zero) is ZERO
    ps = [(power(zero, -1), X2)]
    for _ in range(2):      # raised again, not answered from the memo
        with pytest.raises(DomainError):
            contract(ps, context())
        assert not kernel._CONTRACTED


# Idempotency where no cached result can answer: a result met again as
# a fresh parse of its printed text, in this process with every cached
# ``simplify`` result on it forgotten, and in a fresh process.  Products
# of pooled powers and of sums that hold them bring a sum's power into
# 2..8, which ``simplify`` expands in a fresh tree.
_pooled_sums = st.lists(st.one_of(pooled, exprs), min_size=2,
                        max_size=3).map(lambda ts: add(*ts))
landings = st.lists(st.one_of(pooled, _pooled_sums), min_size=2,
                    max_size=3).map(lambda fs: mul(*fs))


@PROPERTY
@given(st.one_of(derivables, landings))
@_with_folds
def test_simplify_is_idempotent_with_its_cache_forgotten(e):
    s = simplify(e)
    for n in _nodes(s):
        n._simp = None
    assert simplify(s) is s


_FRESH_SCRIPT = """
import json, sys
from kk6.expr import simplify, to_text
from kk6.parse import parse_expression
print(json.dumps([to_text(simplify(parse_expression(t)))
                  for t in json.load(sys.stdin)]))
"""


def test_printed_results_are_fixed_points_in_a_fresh_process():
    cases = [
        mul(power(_A, 9), add(X2, power(_A, -1))),
        mul(power(_S, 10), power(add(mul(X0, power(_S, -2)), X2), -1)),
        mul(power(_R, 9), sqrt(_R), add(X0, power(_R, -3))),
        mul(add(X1, sqrt(_R)), add(X2, sqrt(_R)), add(X0, power(_R, -1))),
        *FOLDS,
    ]
    texts = [to_text(simplify(e)) for e in cases]
    src = str(Path(kernel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _FRESH_SCRIPT],
                         input=json.dumps(texts), capture_output=True,
                         text=True, env=env, timeout=600, check=True)
    assert json.loads(out.stdout) == texts
