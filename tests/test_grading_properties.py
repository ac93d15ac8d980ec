"""Grouped grading against the per-residual loop it replaced.

``verify._grade`` hands its residuals to ``zeros.are_zero``, which
evaluates the residuals of one free-symbol set through one tape over the
union of their nodes.  The oracle here is the grader as it was: a loop of
single zero tests, each its own sampling loop over ``scaled_eval``,
stopping at the first residual that is not zero.  Both must give the same
outcome, record for record (floats compared by their bytes), on random
residual lists with shared subtrees, interleaved symbol sets, literal
zeros, overflows that fire only at later points, 1 to 32 trials and
the positive rest mass among the symbols, and on the claims and
refutation probes of the catalog."""
import random
import struct
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402,E501

import kk6.verify as verify  # noqa: E402
from kk6.expr import (  # noqa: E402
    MINUS_ONE, ONE, ZERO, EvalError, add, conj, coords, exp, free_symbols,
    mul, num, power, sqrt, sym,
)
from kk6.report import record_dict  # noqa: E402
from kk6.zeros import (  # noqa: E402
    _note_text, are_zero, is_zero, sample_env, scaled_eval,
)

W = sym("c0")     # a complex symbol
X0, X1, X2 = coords()[:3]
M0 = sym("m0")

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


# -- the oracle: one sampling loop per residual, as the grader had ----------

def _reference_is_zero(e, seed, trials=32, tol=1e-9):
    syms = sorted(free_symbols(e), key=lambda s: s.name)
    rng = random.Random(seed)
    n_trials = trials if syms else 1
    worst = 0.0
    for _ in range(n_trials):
        env = sample_env(syms, rng)
        try:
            value, scale = scaled_eval(e, env)
        except EvalError as err:
            return ("inconclusive", worst, n_trials, env or None,
                    f"{err} in {_note_text(err.subtree)}")
        resid = abs(value) / (1.0 + scale)
        worst = max(worst, resid)
        if resid >= tol:
            return ("nonzero", worst, n_trials, env or {}, None)
    return ("zero", worst, n_trials, None, None)


def _reference_grade(pairs, seed, tol, trials=32):
    worst, total, structural = 0.0, 0, 0
    for label, e in pairs:
        if e == ZERO:
            structural += 1
            continue
        verdict, resid, samples, witness, note = _reference_is_zero(
            e, seed, trials, tol)
        total += samples
        worst = max(worst, resid)
        if verdict != "zero":
            return verify._Outcome(verdict, worst, total, structural,
                                   witness, label, note)
    return verify._Outcome("zero", worst, total, structural)


def _bits(x: float) -> bytes:
    return struct.pack("d", x)     # NaN and the sign of zero compare too


def _env(witness):
    return None if witness is None else sorted(
        (k, _bits(v.real), _bits(v.imag)) for k, v in witness.items())


def _record(o) -> tuple:
    return (o.status, _bits(o.max_residual), o.samples, o.structural,
            _env(o.witness), o.label, o.note)


def _result(r) -> tuple:
    return (r.verdict, _bits(r.max_residual), r.samples, _env(r.witness),
            r.note)


# -- random residual lists --------------------------------------------------

_SYMBOL_SETS = ((X0,), (X0, X1), (X1, W), (X0, M0), ())
_COEFFS = st.sampled_from((num(2), num(Fraction(-3, 4)),
                           num(Fraction(1, 3), 1)))


@st.composite
def _part(draw, syms):
    """A subtree over ``syms``: a polynomial, or one with an ``exp`` that
    overflows at the sample points where ``c * s`` passes ~709.78."""
    if not syms:
        return draw(_COEFFS)
    s = draw(st.sampled_from(syms))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return add(mul(draw(_COEFFS), s), ONE)
    if kind == 1:
        return mul(s, *syms)
    if kind == 2:
        return sqrt(add(mul(s, conj(s)), ONE))
    c = draw(st.sampled_from((360, 400, 420)))
    return exp(mul(num(c), s))


def _vanishing(a, b):
    # a (b + 1) - a b - a: zero up to roundoff, never literally
    return add(mul(a, add(b, ONE)), mul(MINUS_ONE, a, b), mul(MINUS_ONE, a))


@st.composite
def residual_lists(draw):
    """Up to 9 labelled residuals from up to 4 interleaved symbol sets,
    built from a few shared parts each: most vanish, some are tiny at a
    few points only, some plainly nonzero, some literal zeros."""
    sets = draw(st.lists(st.sampled_from(_SYMBOL_SETS), min_size=1,
                         max_size=4))
    parts = {syms: draw(st.lists(_part(syms), min_size=1, max_size=3))
             for syms in sets}
    pairs = []
    for k in range(draw(st.integers(1, 9))):
        syms = draw(st.sampled_from(sets))
        a, b = (draw(st.sampled_from(parts[syms])) for _ in range(2))
        kind = draw(st.integers(0, 9))
        if kind == 0:
            e = ZERO
        elif kind == 1:
            e = add(a, b, ONE)
        elif kind == 2 and syms:
            # below tol at most points, above it where |s|^20 is large
            e = add(_vanishing(a, b),
                    mul(num(Fraction(1, 10**14)), power(syms[0], 20)))
        else:
            e = _vanishing(a, b)
        pairs.append((f"residual {k}", e))
    return pairs


@PROPERTY
@given(residual_lists(), st.integers(0, 2**32 - 1),
       st.sampled_from((1, 2, 6, 32)))
def test_grouped_grading_equals_the_per_residual_loop(pairs, seed, trials):
    got = verify._grade(pairs, seed, 1e-9, trials=trials)
    want = _reference_grade(pairs, seed, 1e-9, trials=trials)
    assert _record(got) == _record(want)


@PROPERTY
@given(residual_lists(), st.integers(0, 2**32 - 1),
       st.sampled_from((1, 6, 32)))
def test_each_result_is_the_single_test_of_its_expression(pairs, seed,
                                                          trials):
    es = [e for _, e in pairs]
    got = are_zero(es, seed, trials)
    assert 1 <= len(got) <= len(es)
    for r, e in zip(got, es):
        verdict, worst, samples, witness, note = \
            _reference_is_zero(e, seed, trials)
        assert _result(r) == (verdict, _bits(worst), samples, _env(witness),
                              note)
        assert _result(is_zero(e, seed, trials)) == _result(r)
    assert all(r.verdict == "zero" for r in got[:-1])
    if len(got) < len(es):
        assert got[-1].verdict != "zero"


_TRIALS = st.sampled_from((1, 2, 6, 32))


@PROPERTY
@given(residual_lists(), residual_lists(), st.integers(0, 8),
       st.lists(st.tuples(st.integers(0, 2**32 - 1), _TRIALS), min_size=2,
                max_size=2))
def test_grading_with_kept_tapes_equals_the_per_residual_loop(
        pairs, other, shared, runs):
    # two lists that share their first residuals and diverge after them:
    # the first run keeps each group's tape and branches it where the
    # lists part, the second reads the kept tapes at another seed and
    # sample count, and extends them where it grades further
    lists = (pairs, pairs[:shared + 1] + other)
    for seed, trials in runs:
        for ps in lists:
            got = verify._grade(ps, seed, 1e-9, trials=trials)
            assert _record(got) == _record(
                _reference_grade(ps, seed, 1e-9, trials=trials))
            for r, (_, e) in zip(are_zero([e for _, e in ps], seed, trials),
                                 ps):
                verdict, worst, samples, witness, note = \
                    _reference_is_zero(e, seed, trials)
                assert _result(r) == (verdict, _bits(worst), samples,
                                      _env(witness), note)


# -- overflow at a later point, in a shared node and in an unshared one -----

def _late_overflow(seed):
    """``exp(c*x0)`` that is finite at point 0 of ``seed``'s 32 draws over
    {x0, x1} and overflows at the later point of largest x0, with that
    x0; None if point 0 comes too close to it."""
    rng = random.Random(seed)
    xs = [sample_env([X0.symbol, X1.symbol], rng)["x0"].real
          for _ in range(32)]
    top = max(xs[1:])
    if top <= 0 or xs[0] >= 0.9 * top:
        return None
    return exp(mul(num(709.9 / top), X0)), top


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_an_overflow_at_a_later_point_matches_the_per_residual_loop(shared):
    seed = next(s for s in range(100) if _late_overflow(s) is not None)
    big, top = _late_overflow(seed)
    poly = add(mul(num(2), X1), ONE)
    if shared:   # the first residual adds the exp node, the second reads it
        first, second = (_vanishing(mul(big, X1), b) for b in (poly, X0))
    else:        # only the third residual holds it
        first, second = _vanishing(poly, X0), _vanishing(poly, mul(X0, X1))
    third = _vanishing(big, X1)
    pairs = [("first", first), ("literal", ZERO), ("second", second),
             ("third", third)]
    got = verify._grade(pairs, seed, 1e-9)
    assert _record(got) == _record(_reference_grade(pairs, seed, 1e-9))
    assert got.status == "inconclusive"
    assert got.label == ("first" if shared else "third")
    assert got.note.startswith("exp overflow in exp(")
    assert got.witness["x0"].real == top           # not point 0
    assert got.samples == (32 if shared else 96)


# -- the catalog ------------------------------------------------------------

PROBES = (
    ("kg.reduction", {"p0": 2, "p1": 0, "p2": 0, "p3": 0, "m0": 1}),
    ("maxwell.reduction", {"potential": "massive", "k3": "1/2", "m0": 1}),
    ("ricci.scalar.zero", {"perturb": "1+x1^2"}),
    ("proca.reduction", {"phase_factor": 2}),
)
CLAIMS = tuple((cid, None) for cid in (
    "dirac.sol1", "dirac.sol3", "dirac.stress", "inverse.halfspin",
    "kg.reduction"))


@pytest.mark.parametrize("claim, params", PROBES + CLAIMS,
                         ids=[c for c, _ in PROBES] +
                         [f"{c}-confirmed" for c, _ in CLAIMS])
def test_catalog_records_equal_the_per_residual_loop(claim, params,
                                                     monkeypatch):
    got = record_dict(verify.run_claim(claim, seed=1, params=params))
    monkeypatch.setattr(verify, "_grade", _reference_grade)
    assert got == record_dict(verify.run_claim(claim, seed=1, params=params))
    if params is not None:
        assert got["verdict"] == "Refuted"
