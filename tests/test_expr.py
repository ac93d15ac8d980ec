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
    ONE, Pow, Sqrt, TWO, ZERO, add, conj, context, contract, coords, derive,
    diff, exp, free_symbols, mul, num, power, simplify, sqrt, subs, sym,
    to_text,
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
    e = add(x0, mul(p1, x1))
    assert mul(ONE, e) is e
    assert mul(num(2), HALF, e) is e
    assert mul(ZERO, e) is ZERO
    assert mul(e, ZERO) is ZERO
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


def test_sqrt_fold_merges_with_the_other_factors():
    # a fold to a symbol meets that symbol's other powers in the product
    assert mul(sqrt(p1), sqrt(p1), power(p1, -1)) is ONE
    e = mul(mul(sqrt(p1), p2), mul(sqrt(p1), power(p1, -2)))
    assert e is mul(p2, power(p1, -1))
    assert to_text(e) == "p2*p1^-1"


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
    z = sym("c0")
    # the symbol is free in each, so no shortcut skips the walk
    for e in (conj(z), mul(x0, conj(z)), exp(conj(z)), sqrt(conj(z))):
        with pytest.raises(DomainError):
            diff(e, "c0")
        with pytest.raises(DomainError):
            derive(simplify(e), "c0", context())
    assert diff(conj(z), "x0") == ZERO


def test_a_symbol_name_has_one_meaning():
    # Every Sym comes from the one table, which gives a name one set of
    # flags, so two nodes never print the same.
    from kk6.symbols import Symbol, UnknownSymbolError
    with pytest.raises(UnknownSymbolError):
        sym(Symbol("k3", real=False))
    with pytest.raises(ValueError, match="different flags"):
        kernel.Sym(Symbol("k3", real=False))
    with pytest.raises(ValueError, match="different flags"):
        kernel.Sym(Symbol("x0", real=True))
    assert sym("k3") is sym("k3")
    assert to_text(add(sym("k3"), sym("k3"))) == "2*k3"


def test_the_symbol_table_holds_only_its_declarations():
    # fixed at import: no test or library code adds a symbol afterwards,
    # and the table refuses a write
    from kk6.symbols import (
        COORDS, DEFAULT_TABLE, _CANONICAL_PARAMS, _COORD_NAMES, Symbol,
    )
    assert list(DEFAULT_TABLE) == [*_COORD_NAMES, *_CANONICAL_PARAMS]
    assert COORDS == tuple(DEFAULT_TABLE[n] for n in _COORD_NAMES)
    with pytest.raises(TypeError):
        DEFAULT_TABLE["q0"] = Symbol("q0")
    with pytest.raises(TypeError):
        del DEFAULT_TABLE["x0"]
    assert "q0" not in DEFAULT_TABLE


RETIRED_NAMES = ("a0", "a1", "a2", "a3", "a5", "C", "G", "k0", "k1", "k2",
                 "K0", "K1", "K2", "K3", "K5", "e0", "e1", "e2", "e3")


@pytest.mark.parametrize("name", RETIRED_NAMES)
def test_names_no_family_builds_are_not_declared(name):
    # once declared for families that never built them; a name the table
    # does not hold is refused by the parser and by sym alike
    from kk6.parse import ParseError, parse_expression
    from kk6.symbols import UnknownSymbolError
    with pytest.raises(ParseError, match=f"unknown symbol '{name}'"):
        parse_expression(f"1 + {name}")
    with pytest.raises(UnknownSymbolError):
        sym(name)


# --- conjugation --------------------------------------------------------------

def test_conj_pushes_to_leaves_and_involutes():
    w = sym("c0")
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


def test_nodes_with_equal_free_symbols_share_one_set():
    # a node holds its widest child's set when that holds the others; a
    # node that joins its children's symbols forms an equal set of its own
    a = add(mul(x0, x1), x2)
    b = mul(add(x1, x2), x0)
    c = add(mul(x0, x1, x2), x1)
    assert free_symbols(a) == {x0.symbol, x1.symbol, x2.symbol}
    assert free_symbols(a) == free_symbols(b) == free_symbols(c)
    assert free_symbols(c) is free_symbols(mul(x0, x1, x2))
    assert free_symbols(num(3)) == frozenset()


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
    "derive": lambda e: derive(e, "x1", context()),
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
    for name in ("add", "mul", "_build"):
        original = getattr(kernel, name)
        monkeypatch.setattr(
            kernel, name,
            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    assert simplify(e) is first
    assert calls == []
    simplify(_fresh(11))  # the patch is live: a new input does build
    assert "_build" in calls


def test_simplify_result_is_cached_as_its_own_result(monkeypatch):
    # a simplify output is a fixed point: simplifying it again is a lookup
    # on the output itself, not a second walk of a tree never seen as input
    out = simplify(power(add(_fresh(12), p1), 2))
    calls = []
    for name in ("add", "mul"):
        original = getattr(kernel, name)
        monkeypatch.setattr(
            kernel, name,
            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    assert simplify(out) is out
    assert calls == []


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(kernel, name)
    monkeypatch.setattr(
        kernel, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_diff_of_an_absent_symbol_builds_nothing(monkeypatch):
    # every rule gives 0 when the symbol is not free, so neither walks
    e = _fresh(14)
    assert x5.symbol not in free_symbols(e)
    sums = _count_calls(monkeypatch, "add")
    products = _count_calls(monkeypatch, "mul")
    assert diff(e, "x5") is ZERO
    assert derive(e, "x5", context()) is ZERO
    assert sums == [] and products == []
    diff(e, "x1")                       # the patch is live
    assert sums and products


class _Forget(dict):
    """A memo that keeps nothing, so a shared node is rendered on every
    path that reaches it."""

    def __setitem__(self, key, value):
        pass


def _distinct(e) -> set:
    seen, stack = set(), [e]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, (Exp, Sqrt, Conj)):
            stack.append(n.arg)
    return seen


def test_to_text_renders_each_distinct_node_once(monkeypatch):
    # every level uses the one below three times: 3^8 paths from the top
    e = x0
    for i in range(8):
        e = add(mul(e, exp(e)), mul(num(i + 2), e))
    renders = _count_calls(monkeypatch, "_render")
    text = to_text(e)
    assert len(renders) == len(_distinct(e))
    assert text == kernel._text(e, _Forget())[0]


def test_add_passes_distinct_terms_through(monkeypatch):
    # canonical terms with distinct factor tuples are not rebuilt: the only
    # node ``add`` makes is the sum itself
    c = num(Fraction(104729, 7907))
    root = sqrt(add(x2, c))
    terms = (mul(c, x0, root), mul(num(-3), x1, root), power(x3, 2),
             exp(mul(c, x4)), root, c)
    built = _count_calls(monkeypatch, "_new")
    s = add(*reversed(terms))
    assert [args[0] for args in built] == [Add]
    assert len(s.terms) == len(terms)
    assert all(any(t is u for u in s.terms) for t in terms)


def test_add_builds_only_merged_buckets(monkeypatch):
    c = num(Fraction(104723, 7907))
    root = sqrt(add(x2, c))
    a, b = mul(c, x0, root), mul(c, root)
    terms = (a, b, mul(TWO, a), mul(MINUS_ONE, b))
    built = _count_calls(monkeypatch, "_new")
    s = add(*terms)
    # 3c x0 sqrt(x2 + c): one new number, one new product, no sum
    assert [args[0] for args in built] == [Num, Mul]
    assert s is mul(num(3), a)


def test_a_merge_to_a_unit_coefficient_gives_the_bare_product():
    # the merged bucket's coefficient is 1 and its factor tuple holds two
    # factors, so the term is their product with no numeric factor
    assert add(mul(num(2), x1, x2), mul(num(-1), x1, x2)) is mul(x1, x2)


def test_simplify_builds_each_output_term_once(monkeypatch):
    # a product of two 6-term sums is expanded in one polynomial: each of
    # the 21 output terms is built once, as one product over its atoms
    # (x_i^2 are the new atoms), and no pair of terms goes through ``mul``
    cs = [num(Fraction(104743 + i, 7927)) for i in range(12)]
    a = add(*(mul(cs[i], X[i]) for i in range(6)))
    b = add(*(mul(cs[6 + i], X[i]) for i in range(6)))
    e = mul(a, b)
    built = _count_calls(monkeypatch, "_new")
    products = _count_calls(monkeypatch, "mul")
    s = simplify(e)
    kinds = [args[0] for args in built]
    assert len(s.terms) == 21
    assert set(kinds) <= {Num, Pow, Mul, Add}
    assert kinds.count(Mul) <= len(s.terms)
    assert kinds.count(Pow) <= 6
    assert kinds.count(Add) == 1
    assert products == []


def test_simplify_folds_a_root_as_mul_does():
    # sqrt(a)^2 -> a meets a^-1 before the sum a would be expanded
    a = add(x0, x1)
    e = mul(add(x3, sqrt(a)), sqrt(a), power(a, -1))
    assert simplify(e) is add(ONE, mul(x3, sqrt(a), power(a, -1)))


def test_simplify_expands_a_sum_that_reaches_exponent_one():
    # a^9 * a^-8 and a power's fold sqrt(a)^3 -> a*sqrt(a) both leave the
    # sum a at exponent 1, which is expanded like a sum factor
    a = add(x0, x1)
    e = mul(power(a, 9), add(x2, power(a, -8)))
    assert simplify(e) is add(x0, x1, mul(x2, power(a, 9)))
    b = add(mul(sqrt(a), add(ONE, x2)), mul(MINUS_ONE, x2, sqrt(a)))
    assert simplify(power(b, 3)) is add(mul(x0, sqrt(a)), mul(x1, sqrt(a)))


def test_simplify_distributes_folded_sums_in_factor_order():
    # sqrt(a)^2 sqrt(b)^2 leaves the sums a and b as factors, distributed in
    # canonical factor order: a's sqrt(c) folds against the sqrt(c) already
    # there, so c is expanded before b brings c^-1 (the other order would
    # cancel c against c^-1 and print another form of the same value)
    c = add(x2, ONE)
    a, b = add(x0, sqrt(c)), add(x1, power(c, -1))
    e = mul(add(mul(sqrt(a), sqrt(b), sqrt(c)), x3), sqrt(a), sqrt(b))
    assert to_text(simplify(e)) == (
        "x1 + (1 + x2)^-1 + x0*x1*sqrt(1 + x2) + x0*(1 + x2)^-1*sqrt(1 + x2)"
        " + x1*x2 + x2*(1 + x2)^-1 + x3*sqrt(x0 + sqrt(1 + x2))*"
        "sqrt(x1 + (1 + x2)^-1)")


def test_simplify_takes_exponents_of_any_size():
    # exponents far beyond a packed field's first width still add exactly
    big = 2 ** 40
    assert simplify(mul(power(x0, big), add(x0, x1))) is \
        add(power(x0, big + 1), mul(x1, power(x0, big)))
    half = 2 ** 30
    assert simplify(power(add(power(x0, half), x1), 2)) is add(
        power(x0, 2 * half), mul(TWO, x1, power(x0, half)), power(x1, 2))


# --- the guarantees of the simplify, contract and derive docstrings ---------

def test_simplify_keeps_negative_powers_of_sums_atomic():
    s = add(x0, x1)
    assert simplify(power(s, -2)) is power(s, -2)
    e = mul(add(x2, ONE), power(s, -1))
    assert simplify(e) is add(power(s, -1), mul(x2, power(s, -1)))


def test_simplify_caches_its_result_on_each_visited_factor(monkeypatch):
    a, b = add(_fresh(20), x1), add(_fresh(21), x2)
    simplify(mul(a, b))
    built = _count_calls(monkeypatch, "_build")
    for f in (a, b):
        assert f._simp is not None
        simplify(f)
    assert built == []


def test_simplify_stores_nothing_in_the_contract_memo():
    kernel._CONTRACTED.clear()
    e = _fresh(22)
    assert simplify(e) is not e
    assert not kernel._CONTRACTED


def test_contract_builds_no_product_and_no_outer_sum(monkeypatch):
    ps = [(add(x0, x1), add(x2, num(3))), (MINUS_ONE, x0, x2),
          (p1, exp(x3))]
    want = simplify(add(*(mul(*p) for p in ps)))
    sums = _count_calls(monkeypatch, "add")
    products = _count_calls(monkeypatch, "mul")
    assert contract(ps, context()) is want
    assert sums == [] and products == []


def test_contract_calls_in_one_context_read_an_operand_once(monkeypatch):
    a = simplify(add(_fresh(23), x1))      # read, not built, in ctx
    e1, e2 = exp(mul(p1, x0)), exp(mul(p2, x1))
    ctx = context()
    contract([(a, x2, e1, e2)], ctx)
    fresh, read = [], kernel._read

    def counted(c, t):
        if t not in c.polys:
            fresh.append(t)
        return read(c, t)
    monkeypatch.setattr(kernel, "_read", counted)
    sums = _count_calls(monkeypatch, "add")
    contract([(a, x3, e1, e2)], ctx)
    # the operand and its exp argument sum were formed by the first call
    assert a not in fresh and sums == []
    contract([(a, x4, e1, e2)], context())      # the patch is live
    assert a in fresh and sums


def test_derive_keeps_each_diff_tree_in_its_context_per_symbol(monkeypatch):
    f = sqrt(add(x0, mul(p1, x1), num(Fraction(104753, 7919))))
    ctx = context()
    derive(mul(x2, f), "x0", ctx)
    products = _count_calls(monkeypatch, "mul")
    derive(mul(x3, f), "x0", ctx)
    assert products == []
    derive(mul(x3, f), "x1", ctx)               # another symbol's tree
    assert products


def test_mul_does_no_arithmetic_with_unit_or_zero(monkeypatch):
    e = mul(p1, x1)
    products = _count_calls(monkeypatch, "_cmul")
    assert mul(ONE, num(3), e, ONE) is mul(num(3), p1, x1)
    assert mul(num(3), ZERO, e) is ZERO
    assert mul(e, num(3), ZERO, num(5)) is ZERO
    assert products == []
    assert mul(num(2), e, HALF) is e
    assert len(products) == 1


def test_sort_order_is_structural():
    # the canonical order compares structure, never node identity
    assert to_text(add(x1, x0, num(2))) == "2 + x0 + x1"
    assert to_text(mul(x2, p0, num(-3), exp(x0))) == "-3*p0*x2*exp(x0)"


def test_number_sort_key_follows_exact_value():
    # floats lead the key; values they cannot tell apart (or cannot hold)
    # fall back to the exact parts
    big = Fraction(10**400)
    tiny = Fraction(1, 10**30)
    values = [(big, 0), (-big, 0), (big + 1, 0), (1 + tiny, 0), (1, 0),
              (1, tiny), (1, -tiny), (1 - tiny, 0), (0, 0), (-tiny, 0),
              (Fraction(1, 3), 2), (Fraction(1, 3), -big)]
    nodes = [num(re, im) for re, im in values]
    by_key = sorted(nodes, key=lambda n: n._key)
    assert by_key == sorted(nodes, key=lambda n: (n.re, n.im))
