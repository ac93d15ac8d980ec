"""Probabilistic zero verdicts: determinism, scale guard, witnesses."""
import pytest

from kk6.expr import (
    MINUS_ONE, ONE, ZERO, EvalError, _kids, add, coords, exp, mul, num, power,
    sqrt, subs, sym,
)
from kk6.zeros import are_zero, evaluate, is_zero, sample_env, scaled_eval
from kk6.symbols import DEFAULT_TABLE

x0, x1, x2, x3, x4, x5 = coords()
p0, p1, p2, p3, m0 = (sym(n) for n in ("p0", "p1", "p2", "p3", "m0"))


def test_polynomial_identity_is_zero():
    e = power(x0 + ONE, 2) - power(x0, 2) - 2 * x0 - ONE
    r = is_zero(e)
    assert r.verdict == "zero"
    assert r.samples == 32
    assert r.max_residual < 1e-9


@pytest.mark.parametrize("e", [x0, ONE], ids=["symbolic", "constant"])
@pytest.mark.parametrize("kw", [
    {"trials": 0}, {"trials": -1}, {"tol": float("nan")}, {"tol": 0.0},
    {"tol": 1.0}, {"tol": -1e-9}, {"tol": float("inf")},
    {"trials": 2.5}, {"trials": "3"}, {"tol": "0.1"}, {"tol": None},
    {"tol": 1e-9j},
])
def test_a_bad_trials_or_tol_is_refused(e, kw):
    # zero samples, or a threshold no residual can reach, would read "zero";
    # a value of the wrong kind is refused the same way, not by a TypeError
    with pytest.raises(ValueError):
        is_zero(e, **kw)


def test_genuine_nonzero_has_witness():
    r = is_zero(power(x0, 2) + ONE)
    assert r.verdict == "nonzero"
    assert set(r.witness) == {"x0"}
    # witness actually violates the bound
    v, scale = scaled_eval(power(x0, 2) + ONE, r.witness)
    assert abs(v) >= 1e-9 * (1 + scale)


def test_onshell_dispersion_zero():
    disp = power(p0, 2) - power(p1, 2) - power(p2, 2) - power(p3, 2) - power(m0, 2)
    shell = sqrt(power(p1, 2) + power(p2, 2) + power(p3, 2) + power(m0, 2))
    assert is_zero(subs(disp, {"p0": shell})).verdict == "zero"
    assert is_zero(disp).verdict == "nonzero"


def test_same_seed_reproduces_bitwise():
    e = power(x0, 2) + x1
    r1, r2 = is_zero(e, seed=5), is_zero(e, seed=5)
    assert r1 == r2
    assert r1.witness == r2.witness


def test_verdicts_stable_across_seeds():
    zero_e = mul(exp(x0), exp(-x0)) - ONE  # collapses structurally, stays zero
    small = power(x0 + ONE, 3) - power(x0, 3) - 3 * power(x0, 2) - 3 * x0 - ONE
    offset = num(1e-6)
    for seed in (0, 1, 2, 17):
        assert is_zero(small, seed=seed).verdict == "zero"
        assert is_zero(zero_e, seed=seed).verdict == "zero"
        assert is_zero(offset, seed=seed).verdict == "nonzero"


def test_scale_guard_tolerates_catastrophic_cancellation():
    # c*(x0+1) - c*x0 - c is exactly zero but the double evaluation wobbles
    # at ~1e2 absolute; the ~3e18 scale keeps the verdict zero.
    c = num(10**18)
    e = add(mul(c, x0 + ONE), mul(num(-(10**18)), x0), num(-(10**18)))
    assert is_zero(e).verdict == "zero"
    # a genuine absolute offset of the same magnitude as that wobble is
    # still flagged when the operands are O(1)
    assert is_zero(num(1e-6)).verdict == "nonzero"


def test_constant_expression_uses_single_sample():
    r = is_zero(ZERO)
    assert r.verdict == "zero"
    assert r.samples == 1


def test_overflow_is_inconclusive_with_note():
    e = exp(mul(num(10**9), power(x0, 2)))
    r = is_zero(e)
    assert r.verdict == "inconclusive"
    assert r.note == "exp overflow in exp(1000000000*x0^2)"


def test_constant_beyond_the_float_range_is_inconclusive():
    r = is_zero(num(10**400))
    assert r.verdict == "inconclusive"
    assert r.note == f"constant overflow in {10**400}"
    # both parts are floats, the modulus (the scale) is not
    r = is_zero(num(1.5e308, 1.5e308))
    assert r.verdict == "inconclusive"
    assert r.note.startswith("constant overflow in ")


def test_note_cuts_a_long_subtree():
    # 10^600 prints as 601 digits: the note keeps 512 and the length
    r = is_zero(num(10**600))
    assert r.verdict == "inconclusive"
    assert r.note == (f"constant overflow in {str(10**600)[:512]}"
                      "... (601 characters)")
    # 512 characters are kept whole
    r = is_zero(num(10**511))
    assert r.note == f"constant overflow in {10**511}"


def test_power_overflow_is_inconclusive_with_note():
    r = is_zero(power(add(num(10**200), x0), 3))
    assert r.verdict == "inconclusive"
    assert r.note == f"power overflow in ({10**200} + x0)^3"
    assert set(r.witness) == {"x0"}


def test_zero_base_at_a_negative_power_is_inconclusive_with_note():
    # sqrt(m0^2) - m0 is exactly 0 at every point, as m0 is sampled positive
    r = is_zero(power(sqrt(power(m0, 2)) - m0, -1))
    assert r.verdict == "inconclusive"
    assert r.note == "zero base at negative power in (sqrt(m0^2) - m0)^-1"
    assert set(r.witness) == {"m0"}


def test_magnitude_overflow_names_the_node():
    with pytest.raises(EvalError, match="^magnitude overflow$") as err:
        scaled_eval(add(x0, ONE), {"x0": complex(1.5e308, 1.5e308)})
    assert err.value.subtree is x0


def test_real_symbols_sampled_real_complex_sampled_complex():
    import random
    syms = [DEFAULT_TABLE["p0"], DEFAULT_TABLE["c0"]]
    env = sample_env(syms, random.Random(3))
    assert env["p0"].imag == 0.0
    assert env["c0"].imag != 0.0
    assert 0.1 <= abs(env["p0"]) <= 2.0
    assert 0.1 <= abs(env["c0"]) <= 2.0


def test_scale_semantics():
    env = {"x0": 2.0}
    _, s_add = scaled_eval(add(x0, x0, ONE), env)  # additive
    assert s_add == pytest.approx(5.0)
    _, s_mul = scaled_eval(mul(x0, x0), env)  # multiplicative
    assert s_mul == pytest.approx(4.0)


def _vanishing(a, b):
    # a (b + 1) - a b - a: zero up to roundoff, never literally
    return add(mul(a, add(b, ONE)), mul(MINUS_ONE, a, b), mul(MINUS_ONE, a))


def _nodes(*es):
    seen, todo = set(), list(es)
    while todo:
        e = todo.pop()
        if e not in seen:
            seen.add(e)
            todo.extend(_kids(e))
    return seen


def test_a_graded_expression_is_not_kept_alive():
    # the tapes a call keeps hold no expression alive
    import gc
    import weakref
    from kk6.verify import _grade
    e = add(mul(x0, x1, num(918273)), exp(x2))
    f = add(mul(x0, x1, num(918274)), exp(x2))      # shares exp(x2) with e
    refs = [weakref.ref(e), weakref.ref(f)]
    assert is_zero(e).verdict == "nonzero"
    assert _grade([("e", e), ("f", f)], 0, 1e-9).status == "nonzero"
    del e, f
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_a_kept_tape_keeps_no_member_alive():
    # the second member holds the first as a subtree, so a kept tape that
    # held it would keep its own anchor alive: with the cyclic collector
    # off, both die as soon as the caller drops them, and the tape with them
    import gc
    import weakref
    from kk6 import zeros
    e = _vanishing(mul(x0, exp(x2)), add(x1, num(918275)))
    f = add(exp(e), MINUS_ONE)
    assert any(e in _kids(k) for k in _kids(f))
    for seed in (0, 1):       # the second call reads the kept tape
        assert [r.verdict for r in are_zero([e, f], seed)] == ["zero"] * 2
    assert list(zeros._KEPT) == [e]
    refs = [weakref.ref(e), weakref.ref(f)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del e, f
        assert [r() for r in refs] == [None, None]
        assert len(zeros._KEPT) == 0
    finally:
        if enabled:
            gc.enable()


def test_a_group_tape_holds_each_distinct_node_once():
    # two residuals over one symbol set share sqrt(x0 x1 + 1): their tape
    # has one entry per distinct node of the two, each after its children,
    # and the shared radicand is one evaluation
    from kk6 import zeros
    root = sqrt(add(mul(x0, x1), ONE))
    e, f = _vanishing(root, x0), _vanishing(root, x1)
    assert [r.verdict for r in are_zero([e, f])] == ["zero"] * 2
    first = zeros._KEPT[e]
    (second,) = first.next
    assert first.end == len(_nodes(e))
    assert second.end == len(_nodes(e, f))
    tape = second.tape[:second.end]
    assert sum(op == zeros._SQRT for op, _, _ in tape) == 1
    for i, (op, arg, _) in enumerate(tape):
        kids = arg if isinstance(arg, tuple) else () if arg is None else (arg,)
        assert all(k < i for k in kids)


def test_are_zero_takes_its_expressions_lazily():
    # nothing past the first expression that is not zero at the first
    # point is read
    pulled = []

    def exprs():
        for e in (_vanishing(x0, x1), add(power(x0, 2), ONE), x1):
            pulled.append(e)
            yield e
    got = are_zero(exprs())
    assert [r.verdict for r in got] == ["zero", "nonzero"]
    assert len(pulled) == 2


def test_later_points_run_a_tape_only_as_far_as_needed(monkeypatch):
    # once the second member is not zero at the first point, the later
    # points run only the first member's entries
    from kk6 import zeros
    stops = []

    def run(tape, values, val, sc, stop):
        stops.append(stop)
        return original(tape, values, val, sc, stop)
    original = zeros._run
    monkeypatch.setattr(zeros, "_run", run)
    e, f = _vanishing(x0, x1), add(mul(x0, x1), ONE, x0)
    assert [r.verdict for r in are_zero([e, f])] == ["zero", "nonzero"]
    first = zeros._KEPT[e]
    assert first.next[0].end > first.end == first.root + 1
    assert stops == [first.end, first.next[0].end] + [first.end] * 31


def test_a_second_call_reads_the_kept_tape(monkeypatch):
    # the same residuals at another seed build no entry; a group that
    # parts from the kept one branches where it parts
    from kk6 import zeros
    e, f, g = (_vanishing(x0, b) for b in (x1, mul(x0, x1), add(x1, ONE)))
    are_zero([e, f], seed=0)
    built = []
    original = zeros._entry
    monkeypatch.setattr(zeros, "_entry",
                        lambda *args: built.append(1) or original(*args))
    assert [r.verdict for r in are_zero([e, f], seed=1)] == ["zero"] * 2
    assert built == []
    assert [r.verdict for r in are_zero([e, g], seed=2)] == ["zero"] * 2
    first = zeros._KEPT[e]
    assert [s.ref() for s in first.next] == [f, g]
    assert len(built) == first.next[1].end - first.end > 0


def test_a_dead_branch_is_dropped_at_the_next_branch():
    # a member that has died can never be matched again: the next branch
    # from the same place drops its step
    from kk6 import zeros
    e, f, g = (_vanishing(x0, b) for b in (x1, mul(x0, x1), add(x1, ONE)))
    are_zero([e, f])
    first = zeros._KEPT[e]
    assert first.next[0].tape is first.tape    # extended in place
    del f
    are_zero([e, g])
    (step,) = first.next
    assert step.ref() is g
    assert step.end - first.end == len(_nodes(e, g)) - len(_nodes(e))


def test_a_branch_leaves_the_other_branches_entries_as_they_are():
    # the repeated e adds no entry, so its step ends where its tape list
    # does until h extends that list in place; a branch after the repeated
    # e must then copy, not cut h's entries, which the last call reads
    e, h, k = (_vanishing(x0, b) for b in (x1, mul(x0, x1), add(x1, ONE)))
    for seed, exprs in enumerate(([e, e], [e, h], [e, e, k], [e, h])):
        got = are_zero(exprs, seed)
        assert got == [is_zero(x, seed) for x in exprs]
        assert [r.verdict for r in got] == ["zero"] * len(exprs)


def test_evaluate_reads_symbols_by_name_or_by_symbol():
    e = add(mul(x0, x1), exp(x1))
    env = {x0.symbol: 2.0, "x1": 3.0}
    assert evaluate(e, env) == scaled_eval(e, {"x0": 2.0, "x1": 3.0})[0]


def test_the_rest_mass_is_sampled_positive_with_no_argument():
    # the symbol table declares m0 positive, so sqrt(m0^2) is m0 at every
    # sample point; the kernel itself never rewrites sqrt(m0^2) to m0
    e = sqrt(power(m0, 2)) - m0
    assert e != ZERO
    for seed in (0, 1, 2):
        assert is_zero(e, seed=seed).verdict == "zero"


def test_only_a_positive_symbol_takes_no_sign():
    import random
    syms = [DEFAULT_TABLE[n] for n in ("m0", "p1", "k3")]
    assert [s.positive for s in syms] == [True, False, False]
    assert all(s.real for s in syms)
    draws = [sample_env(syms, random.Random(seed)) for seed in range(50)]
    assert all(env["m0"].imag == 0.0 < env["m0"].real for env in draws)
    for name in ("p1", "k3"):
        assert {env[name].real > 0 for env in draws} == {True, False}
        assert all(env[name].imag == 0.0 for env in draws)


def test_the_first_sample_point_of_a_seed_is_pinned():
    # random.Random's uniform/random sequences are stable across Python
    # versions, so a seed draws these magnitudes, signs and phase on any;
    # only the complex point's cos/sin come from the platform's libm
    import cmath
    import random
    syms = [DEFAULT_TABLE[n] for n in ("x0", "c0", "p1", "m0")]
    env = sample_env(syms, random.Random(7))
    assert list(env) == ["c0", "m0", "p1", "x0"]   # sorted draws
    assert env["c0"] == cmath.rect(0.7152822531830084, 0.9478133132026084)
    assert env["m0"] == complex(1.336775498775722, 0.0)
    assert env["p1"] == complex(-0.23762894466833123, 0.0)
    assert env["x0"] == complex(0.7948089421339125, 0.0)
