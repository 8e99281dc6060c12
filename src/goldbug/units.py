"""Exact rational lengths with imperial parsing and formatting.

Lengths are stored as reduced fractions of inches so that both inch-quoted
values (2.5") and foot-quoted values (50') stay exact, as do thresholds such
as 250/91 ft.  All arithmetic here is exact and makes no float.  Floats enter
downstream, each from the correctly rounded float of an exact ratio (an int
true division, or ``float`` of a Fraction): the lens area
(`analysis.lens_area`), the oracles, the SVG coordinates (`render`), and the
decimal strings printed beside exact values in reports and JSON.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

INCHES_PER_FOOT = 12

# Most digits in one number of a length string.  The longest exact value the
# CLI prints, a 2-axis sweep's margin, has about 8 * MAX_DIGITS digits: inside
# Python's 4,300-digit int/str conversion limit.  Lengths of 10^400 in (401
# digits) still parse, so they meet the CLI's magnitude check.
MAX_DIGITS = 450


class ParseError(ValueError):
    """A length string does not match the accepted grammar."""


class DomainError(ValueError):
    """A value lies outside an operation's domain."""


@dataclass(frozen=True, order=True)
class Length:
    """An exact signed length, canonically a reduced fraction of inches."""

    inches: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.inches, Fraction):
            object.__setattr__(self, "inches", Fraction(self.inches))

    @classmethod
    def from_inches(cls, value: int | Fraction) -> "Length":
        return cls(Fraction(value))

    @classmethod
    def from_feet(cls, value: int | Fraction) -> "Length":
        return cls(Fraction(value) * INCHES_PER_FOOT)

    @property
    def numerator(self) -> int:
        return self.inches.numerator

    @property
    def denominator(self) -> int:
        return self.inches.denominator

    @property
    def feet(self) -> Fraction:
        """Exact value in feet."""
        return self.inches / INCHES_PER_FOOT

    def __add__(self, other: "Length") -> "Length":
        if not isinstance(other, Length):
            return NotImplemented
        return Length(self.inches + other.inches)

    def __sub__(self, other: "Length") -> "Length":
        if not isinstance(other, Length):
            return NotImplemented
        return Length(self.inches - other.inches)

    def __neg__(self) -> "Length":
        return Length(-self.inches)

    def __mul__(self, factor: int | Fraction) -> "Length":
        if not isinstance(factor, (int, Fraction)):
            return NotImplemented
        return Length(self.inches * factor)

    __rmul__ = __mul__

    def __truediv__(self, divisor: int | Fraction) -> "Length":
        if not isinstance(divisor, (int, Fraction)):
            return NotImplemented
        if divisor == 0:
            raise DomainError("cannot divide a length by zero")
        return Length(self.inches / divisor)

    def __bool__(self) -> bool:
        return self.inches != 0

    def __str__(self) -> str:
        return format_exact_inches(self)

    def __repr__(self) -> str:
        return f"Length({self.numerator}/{self.denominator} in)"


# Grammar: optional leading sign, then one of
#   <q>ft | <q>in          decimal quantity, at most 6 fractional digits
#   <a>/<b>ft | <a>/<b>in  integer fraction
#   <f>'<f>"               feet-and-inches, nonnegative decimals
# with whitespace allowed around the unit tokens.
_DEC6 = r"(?:\d+(?:\.\d{1,6})?|\.\d{1,6})"
_DEC = r"(?:\d+(?:\.\d+)?|\.\d+)"
_QTY_RE = re.compile(rf"(?P<q>{_DEC6})\s*(?P<unit>ft|in)\Z")
_FRACTION_RE = re.compile(r"(?P<a>\d+)\s*/\s*(?P<b>\d+)\s*(?P<unit>ft|in)\Z")
_FEET_INCHES_RE = re.compile(rf"(?P<f>{_DEC})\s*'\s*(?P<i>{_DEC})\s*\"\Z")


def parse_length(text: str) -> Length:
    """Parse a length string into an exact :class:`Length`.

    Accepted forms: ``2.5in``, ``50ft``, ``5/2in``, ``250/91ft``, ``2'9"``,
    each with an optional leading sign.  Decimals convert exactly
    (``2.5`` -> 5/2), never through binary floating point.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a length string, got {type(text).__name__}")
    body = text.strip()
    if not body:
        raise ParseError("empty length string")
    sign = 1
    if body[0] in "+-":
        sign = -1 if body[0] == "-" else 1
        body = body[1:].lstrip()

    m = _QTY_RE.fullmatch(body)
    if m:
        _check_digits(m.group("q"))
        magnitude = Fraction(m.group("q"))
        return _from_magnitude(sign * magnitude, m.group("unit"))

    m = _FRACTION_RE.fullmatch(body)
    if m:
        _check_digits(m.group("a"), m.group("b"))
        den = int(m.group("b"))
        if den == 0:
            raise ParseError(f'zero denominator in "{text.strip()}"')
        magnitude = Fraction(int(m.group("a")), den)
        return _from_magnitude(sign * magnitude, m.group("unit"))

    m = _FEET_INCHES_RE.fullmatch(body)
    if m:
        _check_digits(m.group("f"), m.group("i"))
        total = Fraction(m.group("f")) * INCHES_PER_FOOT + Fraction(m.group("i"))
        return Length(sign * total)

    raise ParseError(_describe_failure(text, body))


def _check_digits(*numbers: str) -> None:
    for number in numbers:
        if len(number) - number.count(".") > MAX_DIGITS:
            raise ParseError(f"number with more than {MAX_DIGITS} digits")


def _from_magnitude(value: Fraction, unit: str) -> Length:
    if unit == "ft":
        return Length.from_feet(value)
    return Length.from_inches(value)


def _describe_failure(original: str, body: str) -> str:
    unit_match = re.search(r"(ft|in)\s*\Z", body)
    if unit_match:
        number = body[: unit_match.start()].strip()
        if re.fullmatch(r"\d+\.\d{7,}", number):
            return f'too many decimal places in "{number}" (at most 6 allowed)'
        return f'malformed quantity "{number}" in "{original.strip()}"'
    if "'" in body or '"' in body:
        return f'malformed feet-inches value "{original.strip()}" (expected F\'I")'
    tail = re.search(r"[^\d\s./+-]+\s*\Z", body)
    if tail:
        return f'unknown unit "{tail.group().strip()}" in "{original.strip()}"'
    return f'missing unit in "{original.strip()}" (use ft, in, or F\'I")'


def format_feet_inches(x: Length) -> str:
    """Render as ``F'I"``, rounding to the nearest whole inch (ties up)."""
    if x.inches < 0:
        raise DomainError(f"cannot format negative length {x!r} as feet-inches")
    total = math.floor(x.inches + Fraction(1, 2))
    feet, inches = divmod(total, INCHES_PER_FOOT)
    return f"{feet}'{inches}\""


def format_exact_inches(x: Length) -> str:
    """Exact fraction of inches; parses back to the identical value."""
    if x.denominator == 1:
        return f"{x.numerator}in"
    return f"{x.numerator}/{x.denominator}in"


def format_exact_feet(value: Fraction) -> str:
    """Exact fraction of feet, e.g. ``250/91 ft`` or ``4 ft``."""
    if value.denominator == 1:
        return f"{value.numerator} ft"
    return f"{value.numerator}/{value.denominator} ft"
