"""Expression kernel: canonical construction, interning, calculus,
evaluation."""
import gc
import random
import weakref
from fractions import Fraction

import pytest

from kk6 import expr as kernel
from kk6.expr import (
    Add, Conj, DomainError, EvalError, Exp, HALF, I, MINUS_ONE, Mul, Num,
    ONE, Pow, Sqrt, TWO, ZERO, add, conj, coords, diff, exp, free_symbols,
    mul, num, power, simplify, sqrt, subs, sym, to_text,
)
from kk6.oracle import compile_expr
from kk6.zeros import evaluate, is_zero, scaled_eval

X = coords()
x0, x1, x2, x3, x4, x5 = X
p0, p1, p2, p3, m0, hbar = (sym(n) for n in ("p0", "p1", "p2", "p3", "m0", "hbar"))


def _px():
    return p0 * x0 - p1 * x1 - p2 * x2 - p3 * x3


# --- canonical construction -------------------------------------------------

def test_unit_and_zero_rules():
    assert power(x0, 0) == ONE
    assert power(x0, 1) == x0
    assert mul(ZERO, x0) == ZERO
    assert mul(ONE, x0) == x0
    assert add(ZERO, x0) == x0
    assert exp(ZERO) == ONE


def test_numeric_folding_is_exact():
    assert num(1, 2) * num(3, -1) == num(5, 5)
    assert num(Fraction(1, 3)) + num(Fraction(1, 6)) == HALF
    assert power(num(1, 1), 4) == num(-4)
    assert power(TWO, -3) == num(Fraction(1, 8))
    assert I * I == MINUS_ONE


def test_construction_order_is_irrelevant():
    a = add(mul(p1, x1), mul(p0, x0), num(3))
    b = add(num(1), mul(x0, p0), num(2), mul(x1, p1))
    assert a == b
    assert hash(a) == hash(b)


def test_like_terms_collect_at_construction():
    assert add(x0, x0) == mul(TWO, x0)
    assert add(mul(num(3), x0), mul(num(-3), x0)) == ZERO
    assert mul(x0, x0, x0) == power(x0, 3)
    assert mul(power(x0, 2), power(x0, -2)) == ONE


def test_exp_merging_rules():
    assert mul(exp(x0), exp(x1)) == exp(add(x0, x1))
    assert mul(exp(x0), exp(-x0)) == ONE
    assert power(exp(x0), 3) == exp(mul(num(3), x0))
    assert power(exp(x0), -1) == exp(-x0)


def test_sqrt_power_folds():
    a = add(x0, x1)
    assert power(sqrt(a), 2) == a
    assert power(sqrt(a), 4) == power(a, 2)
    assert power(sqrt(x0), 3) == mul(x0, sqrt(x0))
    assert power(sqrt(x0), -1) == mul(power(x0, -1), sqrt(x0))
    # identical sqrt factors merge even when the fold resolves to a sum
    assert mul(sqrt(a), sqrt(a)) == a
    assert mul(a, sqrt(a), sqrt(a)) == power(a, 2)


def test_sqrt_no_unsound_merges():
    # distinct radicands never merge, and sqrt(x^2) never collapses to x
    e = mul(sqrt(x0), sqrt(x1))
    assert isinstance(e, Mul)
    s = sqrt(power(x0, 2))
    assert isinstance(s, Sqrt)


def test_exact_square_roots_of_rationals():
    assert sqrt(num(4)) == TWO
    assert sqrt(num(Fraction(9, 4))) == num(Fraction(3, 2))
    assert sqrt(ZERO) == ZERO
    assert isinstance(sqrt(TWO), Sqrt)
    assert isinstance(sqrt(num(-4)), Sqrt)


# --- frozen derivative values ------------------------------------------------

def test_scalar_block_x5_derivative():
    g44 = exp(num(0, -2) * (_px() - m0 * x5))
    assert diff(g44, "x5") == mul(num(0, 2), m0, g44)
    assert diff(g44, "x4") == ZERO


def test_phase_is_unit_modulus():
    phi = exp(num(0, -1) * _px())
    assert simplify(conj(phi) * phi) == ONE


def test_phase_momentum_extraction():
    phi = exp(num(0, -1) * _px())
    assert simplify(conj(phi) * diff(phi, "x0")) == mul(num(0, -1), p0)
    assert simplify(conj(phi) * diff(phi, "x1")) == mul(num(0, 1), p1)


def test_expand_collect_cancellation():
    e = power(x0 + ONE, 2) - power(x0, 2) - TWO * x0 - ONE
    assert simplify(e) == ZERO


def test_diff_sqrt():
    e = sqrt(power(p1, 2) + power(m0, 2))
    d = diff(e, "p1")
    # d sqrt(a) = a'/(2 sqrt a)
    assert simplify(d * e - p1) == ZERO


def test_diff_wrt_conjugated_symbol_raises():
    from kk6.symbols import DEFAULT_TABLE
    DEFAULT_TABLE.register("zc_test", real=False)
    z = sym("zc_test")
    with pytest.raises(DomainError):
        diff(conj(z), "zc_test")
    assert diff(conj(z), "x0") == ZERO


def test_a_symbol_name_has_one_meaning():
    # Every Sym comes from the one registry, which refuses to give a name a
    # second set of flags, so two nodes never print the same.
    from kk6.symbols import DEFAULT_TABLE, Symbol, UnknownSymbolError
    DEFAULT_TABLE.register("q_test", real=True)
    with pytest.raises(ValueError, match="different flags"):
        DEFAULT_TABLE.register("q_test", real=False)
    with pytest.raises(ValueError, match="different flags"):
        DEFAULT_TABLE.register("x0", real=True)
    with pytest.raises(UnknownSymbolError):
        sym(Symbol("q_test", real=False))
    with pytest.raises(ValueError, match="different flags"):
        kernel.Sym(Symbol("q_test", real=False))
    assert sym("q_test") is sym("q_test")
    assert to_text(add(sym("q_test"), sym("q_test"))) == "2*q_test"


# --- conjugation --------------------------------------------------------------

def test_conj_pushes_to_leaves_and_involutes():
    from kk6.symbols import DEFAULT_TABLE
    DEFAULT_TABLE.register("w_test", real=False)
    w = sym("w_test")
    e = exp(num(0, 1) * x0) * (w + num(2, 3))
    ce = conj(e)
    assert conj(ce) == e
    assert conj(p0) == p0  # declared real
    assert isinstance(conj(w), Conj)


def test_conj_through_exp_flips_phase():
    phi = exp(num(0, -1) * _px())
    assert conj(phi) == exp(num(0, 1) * _px())


# --- numeric evaluation -------------------------------------------------------

def _rand_env(rng, names):
    return {n: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for n in names}


def test_diff_matches_central_difference():
    rng = random.Random(11)
    px = _px()
    exprs = [
        exp(num(0, -1) * px),
        sqrt(power(p1, 2) + power(p2, 2) + power(m0, 2)),
        mul(x0, power(x1 + num(3), -1)),
        power(x0 + x1, 3) * exp(x2),
    ]
    h = 1e-6
    for e in exprs:
        names = sorted(s.name for s in free_symbols(e))
        for target in names:
            d = diff(e, target)
            for _ in range(5):
                env = {n: complex(rng.uniform(0.3, 1.5), 0) for n in names}
                up = dict(env); up[target] += h
                dn = dict(env); dn[target] -= h
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                sd = evaluate(d, env)
                assert abs(fd - sd) <= 1e-5 * (1 + abs(sd))


def test_mixed_partials_commute():
    e = exp(num(0, -1) * _px()) * power(x0 + x1, 2) + sqrt(power(x2, 2) + ONE)
    d01 = diff(diff(e, "x0"), "x1")
    d10 = diff(diff(e, "x1"), "x0")
    assert is_zero(simplify(d01 - d10)).verdict == "zero"


def test_simplify_preserves_value_and_is_idempotent():
    rng = random.Random(23)
    pool = [x0, x1, p0, m0, num(3), num(Fraction(1, 3)), I,
            sqrt(x1 + num(2)), exp(num(0, 1) * x0)]

    def rand_expr(depth):
        if depth == 0:
            return pool[rng.randrange(len(pool))]
        k = rng.randrange(5)
        if k == 0:
            return add(rand_expr(depth - 1), rand_expr(depth - 1))
        if k == 1:
            return mul(rand_expr(depth - 1), rand_expr(depth - 1))
        if k == 2:
            return power(rand_expr(depth - 1), rng.choice([-2, -1, 2, 3]))
        if k == 3:
            return exp(rand_expr(depth - 1))
        return sqrt(rand_expr(depth - 1))

    names = ("x0", "x1", "p0", "m0")
    checked = 0
    for _ in range(200):
        try:
            e = rand_expr(3)
        except DomainError:
            continue
        s = simplify(e)
        assert simplify(s) == s
        env = {n: complex(rng.uniform(0.2, 1.4), rng.uniform(0.1, 0.8)) for n in names}
        try:
            ve, vs = evaluate(e, env), evaluate(s, env)
        except EvalError:
            continue
        assert abs(ve - vs) <= 1e-9 * (1 + abs(ve) + abs(vs))
        checked += 1
    assert checked > 120


def test_evaluate_unbound_symbol_is_named():
    with pytest.raises(EvalError, match="p0"):
        evaluate(p0 * x0, {"x0": 1.0})


def test_evaluate_overflow_names_subtree():
    with pytest.raises(EvalError, match="exp"):
        evaluate(exp(x0), {"x0": 1e6})


def test_evaluate_zero_base_negative_power():
    with pytest.raises(EvalError):
        evaluate(power(x0, -1), {"x0": 0.0})


# --- substitution -------------------------------------------------------------

def test_subs_onshell_energy():
    disp = power(p0, 2) - power(p1, 2) - power(p2, 2) - power(p3, 2) - power(m0, 2)
    shell = sqrt(power(p1, 2) + power(p2, 2) + power(p3, 2) + power(m0, 2))
    assert simplify(subs(disp, {"p0": shell})) == ZERO


def test_subs_rebuilds_canonically():
    e = mul(exp(x0), exp(x1))
    assert subs(e, {"x1": -x0}) == ONE


def test_free_symbols():
    e = exp(num(0, -1) * _px()) + sqrt(power(m0, 2) + ONE)
    names = {s.name for s in free_symbols(e)}
    assert names == {"p0", "p1", "p2", "p3", "x0", "x1", "x2", "x3", "m0"}


# --- interning ----------------------------------------------------------------

def _fresh(tag: int):
    # a structure no other test builds: the coefficient is unique to ``tag``
    c = num(Fraction(104729 + tag, 7919))
    return add(mul(c, x0, power(add(x1, c), 3)), sqrt(add(x2, c)), exp(mul(c, x3)))


def test_equal_constructions_are_identical():
    assert add(x0, x1) is add(x1, x0)
    assert num(Fraction(2, 4)) is HALF
    assert num(0.5) is HALF
    assert mul(p0, x0, num(3)) is mul(num(3), x0, p0)
    assert mul(exp(x0), exp(x1)) is exp(add(x0, x1))
    assert sym("x0") is x0
    assert _fresh(0) is _fresh(0)
    assert _fresh(0) is not _fresh(1)


def test_equality_is_identity():
    a = add(mul(p1, x1), num(3))
    assert a == add(num(3), mul(x1, p1))
    assert a != add(mul(p1, x1), num(4))
    assert hash(a) == object.__hash__(a)
    assert ZERO != 0


def test_dead_nodes_leave_the_intern_table():
    gc.collect()
    gc.disable()
    try:
        before = len(kernel._TABLE)
        e = _fresh(2)
        simplify(e)
        diff(e, "x1")
        subs(e, {"x2": x1})
        scaled_eval(e, {f"x{i}": 0.5 for i in range(4)})
        assert len(kernel._TABLE) > before
        probe = weakref.ref(e)
        del e
        assert probe() is None
        assert len(kernel._TABLE) == before
    finally:
        gc.enable()


_ENV = {f"x{i}": 0.25 * (i + 1) for i in range(4)}
WALKERS = {
    "simplify": simplify,
    "diff": lambda e: diff(e, "x1"),
    "subs": lambda e: subs(e, {"x2": x1}),
    "scaled_eval": lambda e: scaled_eval(e, _ENV),
    "compile_expr": lambda e: compile_expr(e)([0.5] * 6),
}


@pytest.mark.parametrize("name", sorted(WALKERS))
def test_walkers_leave_no_reference_cycles(name):
    gc.collect()
    gc.disable()
    try:
        e = _fresh(3 + sorted(WALKERS).index(name))
        WALKERS[name](e)
        del e
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_repeated_simplify_reuses_the_cached_result(monkeypatch):
    e = _fresh(10)
    first = simplify(e)
    calls = []
    for name in ("add", "mul"):
        original = getattr(kernel, name)
        monkeypatch.setattr(
            kernel, name,
            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    assert simplify(e) is first
    assert calls == []
    simplify(_fresh(11))  # the patch is live: a new input does call them
    assert "add" in calls and "mul" in calls


def test_sort_order_is_structural():
    # the canonical order compares structure, never node identity
    assert to_text(add(x1, x0, num(2))) == "2 + x0 + x1"
    assert to_text(mul(x2, p0, num(-3), exp(x0))) == "-3*p0*x2*exp(x0)"
