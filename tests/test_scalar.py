"""Gaussian rational arithmetic, parsing and rendering."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ginv.errors import ScalarParseError
from ginv.scalar import (_SCALAR, GaussianRational, I, ONE, ZERO, _walk,
                         as_scalar, parse_scalar, render_int, render_scalar)

from conftest import SCALAR_POOL, read_decimal


small_fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(GaussianRational, small_fractions, small_fractions)


def test_constants():
    assert ZERO.is_zero() and not ONE.is_zero()
    assert I * I == -ONE
    assert ONE.is_real() and not I.is_real()


def test_basic_arithmetic():
    x = GaussianRational(Fraction(3, 2), Fraction(-1, 3))
    y = GaussianRational(Fraction(-1), Fraction(2))
    assert x + y == GaussianRational(Fraction(1, 2), Fraction(5, 3))
    assert x - y == GaussianRational(Fraction(5, 2), Fraction(-7, 3))
    assert x * ZERO == ZERO
    assert (x * y) / y == x
    assert -(-x) == x


def test_int_and_fraction_coercion():
    x = GaussianRational(Fraction(1), Fraction(1))
    assert x + 1 == GaussianRational(Fraction(2), Fraction(1))
    assert 1 + x == x + 1
    assert 2 * x == x + x
    assert x - Fraction(1, 2) == GaussianRational(Fraction(1, 2), Fraction(1))
    assert x / 2 == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert 1 / I == -I


def test_inverse_and_division():
    x = GaussianRational(Fraction(1), Fraction(1))
    assert x.inverse() == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert x * x.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugate():
    x = GaussianRational(Fraction(2), Fraction(-3))
    assert x.conjugate() == GaussianRational(Fraction(2), Fraction(3))
    assert (x * x.conjugate()).is_real()


def test_equality_and_hash():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational(Fraction(2, 4), Fraction(2, 6))
    assert a == b and hash(a) == hash(b)
    assert a != GaussianRational(Fraction(1, 2))
    assert len({a, b}) == 1


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.re = Fraction(2)


def test_as_scalar():
    assert as_scalar(3) == GaussianRational(Fraction(3))
    assert as_scalar(Fraction(1, 2)).re == Fraction(1, 2)
    assert as_scalar("2-i") == GaussianRational(Fraction(2), Fraction(-1))
    x = GaussianRational(Fraction(1))
    assert as_scalar(x) is x
    with pytest.raises(TypeError):
        as_scalar(1.5)


@pytest.mark.parametrize("text,expected", [
    ("0", ZERO),
    ("7", GaussianRational(Fraction(7))),
    ("-3/4", GaussianRational(Fraction(-3, 4))),
    ("i", I),
    ("-i", -I),
    ("4i", GaussianRational(0, Fraction(4))),
    ("-2/3i", GaussianRational(0, Fraction(-2, 3))),
    ("1+i", GaussianRational(Fraction(1), Fraction(1))),
    ("1-i", GaussianRational(Fraction(1), Fraction(-1))),
    ("3/2-1/3i", GaussianRational(Fraction(3, 2), Fraction(-1, 3))),
    ("  2+3i ", GaussianRational(Fraction(2), Fraction(3))),
])
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", [
    "", "i5", "3//2", "1+2", "1+", "2i+3", "1.5", "3 4", "2 + 3i", "+-1",
    "/2",
])
def test_parse_scalar_rejects(text):
    with pytest.raises(ScalarParseError):
        parse_scalar(text)


def test_parse_error_positions():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("3//2")
    assert err.value.pos == 2
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("1+2")
    assert err.value.pos == 3


def test_parse_rejects_literal_over_digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter's int/str digit limit is disabled")
    digits = "9" * limit
    assert parse_scalar(digits + "i").im == int(digits)
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("-1/" + digits + "9")
    assert err.value.pos == 3
    assert f"exceeds the limit of {limit}" in str(err.value)


def test_render_examples():
    assert render_scalar(ZERO) == "0"
    assert render_scalar(-I) == "-i"
    assert render_scalar(GaussianRational(0, Fraction(4))) == "4i"
    assert render_scalar(GaussianRational(Fraction(3, 2), Fraction(-1, 3))) \
        == "3/2-1/3i"


@given(scalars)
def test_render_parse_round_trip(x):
    assert parse_scalar(render_scalar(x)) == x


@given(scalars, scalars)
def test_field_axioms(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert x + ZERO == x and x * ONE == x
    if not y.is_zero():
        assert (x / y) * y == x


@given(scalars, scalars, scalars)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


def test_pool_members_round_trip():
    for x in SCALAR_POOL:
        assert parse_scalar(render_scalar(x)) == x


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except ScalarParseError as err:
        return "error", err.pos


# The grammar's characters plus two that str.isdigit() accepts: an
# Arabic-Indic three, which int() reads, and a superscript two, which it
# does not.
@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="0123456789/+-i \t\u0663\u00b2", max_size=12))
@example("\u0663/2-i")
@example("\u00b2")
@example("1/0i")
@example("+3")
def test_parse_scalar_agrees_with_the_walk(text):
    assert _outcome(parse_scalar, text) == _outcome(_walk, text)
    # The walk is only the error path: whatever it accepts, the pattern
    # accepts too.
    if _outcome(_walk, text)[0] == "value":
        assert _SCALAR.fullmatch(text) is not None


@given(st.integers(0, 40000), st.integers(-1, 1))
@example(0, 1)
@example(2000, 1)
@example(2001, -1)
def test_render_int_has_no_digit_limit(bits, sign):
    n = sign * (1 << bits | 12345)
    text = render_int(n)
    assert read_decimal(text) == n
    assert text.lstrip("-")[0] != "0" or n == 0
    if bits < 2000:
        assert text == str(n)
