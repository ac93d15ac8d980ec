"""Expression grammar: parsing, precedence, errors, print round-trips."""
import random
from fractions import Fraction

import pytest

from kk6.expr import (
    HALF, I, add, coords, exp, mul, num, power, sqrt, sym, to_text,
)
from kk6.parse import ParseError, parse_expression

x0, x1, x2, x3, x4, x5 = coords()
p0, p1, m0, hbar = (sym(n) for n in ("p0", "p1", "m0", "hbar"))


def test_plane_wave_phase_parses():
    e = parse_expression("exp(-i*(p0*x0 - p1*x1)/hbar)")
    manual = exp(mul(num(0, -1), add(mul(p0, x0), -mul(p1, x1)), power(hbar, -1)))
    assert e == manual


def test_unary_minus_binds_looser_than_power():
    assert parse_expression("-x0^2") == -power(x0, 2)
    assert parse_expression("(-x0)^2") == power(x0, 2)


def test_power_right_associative_integer_folding():
    assert parse_expression("2^3^2") == num(512)


def test_negative_exponent():
    assert parse_expression("x1^-2") == power(x1, -2)


def test_division_is_negative_power():
    assert parse_expression("x0/x1") == mul(x0, power(x1, -1))
    assert parse_expression("3/4") == num(Fraction(3, 4))


def test_decimal_literals_are_exact():
    assert parse_expression("0.5*x0") == mul(HALF, x0)
    assert parse_expression("0.125") == num(Fraction(1, 8))
    assert parse_expression("2.50") == num(Fraction(5, 2))


def test_imaginary_unit():
    assert parse_expression("i") == I
    assert parse_expression("i^2") == num(-1)
    assert parse_expression("3*i") == num(0, 3)


def test_double_negation():
    assert parse_expression("x0 - -x1") == add(x0, x1)


def test_function_calls():
    assert parse_expression("sqrt(p1^2 + m0^2)") == sqrt(power(p1, 2) + power(m0, 2))
    assert parse_expression("conj(i)") == num(0, -1)


def test_unknown_symbol_named_with_position():
    with pytest.raises(ParseError, match="q9"):
        parse_expression("q9 + 1")
    try:
        parse_expression("x0 + q9")
    except ParseError as err:
        assert err.pos == 5
    else:  # pragma: no cover
        pytest.fail("expected ParseError")


def test_unknown_function():
    with pytest.raises(ParseError, match="sinh"):
        parse_expression("sinh(x0)")


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError, match="integer"):
        parse_expression("x0^x1")
    with pytest.raises(ParseError, match="integer"):
        parse_expression("x0^(1/2)")


@pytest.mark.parametrize("text", [
    "1" * 4300, "10^4299", "3^9000", "2^-14000", "(2/3)^4000",
    "sqrt(2)^28000", "(1+i)^14000", "i^(10^4000)", "x1^(10^4000)",
    "10^2000*10^2000"])
def test_numbers_up_to_4300_digits_parse(text):
    parse_expression(text)


@pytest.mark.parametrize("text, column", [
    ("1" * 4301, 1), ("0." + "1" * 4300, 1), ("10^4300", 3), ("3^9100", 2),
    ("2^-14300", 2), ("(2*x1)^100000", 7), ("(1+i)^14300", 6),
    ("2^100000000", 2), ("x1*10^3000*10^3000", 11),
    ("9*10^4299+10^4299", 10), ("(x1^(10^4000))^(10^300)", 15)])
def test_numbers_beyond_4300_digits_are_refused(text, column):
    # a number too long to print is refused, a power from its exponent
    # and base before it is computed
    with pytest.raises(ParseError) as ei:
        parse_expression(text)
    assert str(ei.value) == (f"a number with more than 4300 digits "
                             f"(column {column})")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expression("x0 x1")
    with pytest.raises(ParseError):
        parse_expression("(x0")
    with pytest.raises(ParseError, match="character"):
        parse_expression("x0 $ x1")


def test_typical_phase_and_momentum_expressions_round_trip():
    sources = [
        "exp(-i*(p0*x0 - p1*x1)/hbar)",
        "-x0^2",
        "0.5*x0",
        "x1^-2",
        "sqrt(p1^2 + m0^2)",
        "conj(p0*x0)",
        "(3 + 1/2*i)*x2",
        "1/2*i*m0",
    ]
    for src in sources:
        e = parse_expression(src)
        assert parse_expression(to_text(e)) == e, src


def test_random_round_trips():
    rng = random.Random(7)
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

    for _ in range(400):
        e = rand_expr(3)
        text = to_text(e)
        assert parse_expression(text) == e, text
