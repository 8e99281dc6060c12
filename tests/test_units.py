import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goldbug.units import (
    MAX_DIGITS,
    DomainError,
    Length,
    ParseError,
    format_exact_inches,
    format_feet_inches,
    parse_length,
)


@pytest.mark.parametrize(
    "text,inches",
    [
        ("2in", Fraction(2)),
        ("2.5in", Fraction(5, 2)),
        ("5/2in", Fraction(5, 2)),
        (".5in", Fraction(1, 2)),
        ("0.000001in", Fraction(1, 1_000_000)),
        ("50ft", Fraction(600)),
        ("1.5ft", Fraction(18)),
        ("3/4ft", Fraction(9)),
        ("250/91ft", Fraction(3000, 91)),
        ("2'9\"", Fraction(33)),
        ("0'9\"", Fraction(9)),
        ("2.5'0\"", Fraction(30)),
        ("2' 9\"", Fraction(33)),
        ("  2.5 in  ", Fraction(5, 2)),
        ("5 / 2 in", Fraction(5, 2)),
        ("+4in", Fraction(4)),
        ("-1.5in", Fraction(-3, 2)),
        ("- 2in", Fraction(-2)),
        ("-2'9\"", Fraction(-33)),
        ("0in", Fraction(0)),
    ],
)
def test_parse_examples(text, inches):
    assert parse_length(text).inches == inches


def test_decimals_parse_exactly():
    # 0.1 must become 1/10, never the nearest binary float.
    assert parse_length("0.1in").inches == Fraction(1, 10)
    assert parse_length("2.5in") == parse_length("5/2in")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "abc",
        "2",
        "1/2",
        "2m",
        "2 meters",
        "2km",
        "3/0in",
        "1.2345678in",
        "2.5.3in",
        "2'",
        "'9\"",
        "2''9\"",
        "--2in",
        "2/in",
        "ft",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_length(text)


def test_parse_rejects_non_string():
    with pytest.raises(ParseError):
        parse_length(42)


def test_parse_error_messages_name_the_problem():
    with pytest.raises(ParseError, match="too many decimal places"):
        parse_length("1.2345678in")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_length("3/0in")
    with pytest.raises(ParseError, match="unknown unit"):
        parse_length("2km")
    with pytest.raises(ParseError, match="missing unit"):
        parse_length("17")
    with pytest.raises(ParseError, match="feet-inches"):
        parse_length("2'")


@pytest.mark.parametrize(
    "template",
    ["{n}in", "-{n}.5ft", "1/{n}in", "{n}/3ft", "{n}'0\"", "1'0.{n}\""],
)
def test_parse_caps_the_digits_of_each_number(template):
    at_cap = "7" * (MAX_DIGITS - 1)
    parse_length(template.format(n=at_cap))
    with pytest.raises(ParseError, match=f"number with more than {MAX_DIGITS} digits"):
        parse_length(template.format(n=at_cap + "77"))


def test_constructors():
    assert Length.from_inches(5).inches == Fraction(5)
    assert Length.from_feet(2).inches == Fraction(24)
    assert Length.from_feet(Fraction(250, 91)).inches == Fraction(3000, 91)
    assert Length.from_feet(Fraction(250, 91)).feet == Fraction(250, 91)


def test_arithmetic():
    a = parse_length("2.5in")
    b = parse_length("1ft")
    assert (a + b).inches == Fraction(29, 2)
    assert (b - a).inches == Fraction(19, 2)
    assert (-a).inches == Fraction(-5, 2)
    assert (3 * a).inches == Fraction(15, 2)
    assert (a * Fraction(1, 5)).inches == Fraction(1, 2)
    assert (a / 2).inches == Fraction(5, 4)
    assert (a / Fraction(5, 2)).inches == Fraction(1)


def test_division_by_zero():
    with pytest.raises(DomainError):
        parse_length("1in") / 0


def test_mul_by_float_rejected():
    with pytest.raises(TypeError):
        parse_length("1in") * 0.5


def test_ordering_and_truthiness():
    assert parse_length("2in") < parse_length("3in")
    assert parse_length("1ft") == parse_length("12in")
    assert not Length.from_inches(0)
    assert Length.from_inches(Fraction(1, 1000))
    assert len({parse_length("2.5in"), parse_length("5/2in")}) == 1


def test_format_exact_inches():
    assert format_exact_inches(parse_length("33in")) == "33in"
    assert format_exact_inches(parse_length("2.5in")) == "5/2in"
    assert format_exact_inches(parse_length("-1.5in")) == "-3/2in"
    assert str(parse_length("2.5in")) == "5/2in"


@pytest.mark.parametrize(
    "text,display",
    [
        ("33in", "2'9\""),
        ("250/91ft", "2'9\""),
        ("1409/546ft", "2'7\""),
        ("12in", "1'0\""),
        ("0in", "0'0\""),
        ("2.5in", "0'3\""),  # half-inch ties round up
        ("14.5in", "1'3\""),
        ("11.4in", "0'11\""),
    ],
)
def test_format_feet_inches(text, display):
    assert format_feet_inches(parse_length(text)) == display


def test_format_feet_inches_rejects_negative():
    with pytest.raises(DomainError):
        format_feet_inches(parse_length("-1in"))


lengths = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
).map(Length.from_inches)


@given(lengths)
def test_exact_format_round_trips(x):
    assert parse_length(format_exact_inches(x)) == x
    assert parse_length(str(x)) == x


@given(lengths, lengths)
def test_addition_is_exact(a, b):
    assert (a + b) - b == a
    assert a + b == b + a


@given(lengths)
def test_to_real_feet_is_correctly_rounded(x):
    # Every float route (lens area, oracles, SVG, report decimals) starts
    # from one of these two conversions of an exact ratio.
    feet = x.feet
    f = float(feet)
    assert feet.numerator / feet.denominator == f
    if f == 0.0:
        assert feet == 0
    else:
        assert abs(Fraction(f) - feet) <= Fraction(math.ulp(abs(f))) / 2


@given(lengths.filter(lambda x: x.inches >= 0))
def test_feet_inches_rounds_to_nearest_inch(x):
    shown = parse_length(format_feet_inches(x))
    assert abs(shown.inches - x.inches) <= Fraction(1, 2)
