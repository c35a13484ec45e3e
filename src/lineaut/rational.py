"""Exact rational scalars and the two-point extension used for interval ends.

Points of the line are :class:`fractions.Fraction` values throughout; all
arithmetic is exact and equality means equality.  Interval endpoints may
additionally be one of the two infinities ``NEG_INF`` / ``POS_INF``, which
compare correctly against every finite rational.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import Union

Rational = Fraction

_MINUS_SIGN = "−"  # typographic minus, accepted on input
# p/q or p in ASCII digits: the forms read past Python's int-from-str digit limit
_DIGITS_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


class _Infinity:
    """Signed infinity; totally ordered against Fractions and itself."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "-inf" if self.sign < 0 else "inf"

    def __neg__(self) -> "_Infinity":
        return NEG_INF if self.sign > 0 else POS_INF

    def __eq__(self, other) -> bool:
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __hash__(self) -> int:
        return hash(("_Infinity", self.sign))

    def __lt__(self, other) -> bool:
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __le__(self, other) -> bool:
        return self == other or self < other

    def __gt__(self, other) -> bool:
        if isinstance(other, _Infinity):
            return self.sign > other.sign
        return self.sign > 0

    def __ge__(self, other) -> bool:
        return self == other or self > other


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(+1)

ExtendedRational = Union[Fraction, _Infinity]


def is_finite(value: ExtendedRational) -> bool:
    return not isinstance(value, _Infinity)


def format_rational(q: Fraction) -> str:
    """Canonical string: ``p/q`` in lowest terms, or ``p`` for integers.

    Exact at any size: past Python's int-to-str digit limit (4,300 digits
    by default) the digits come from ``decimal.Decimal``, which converts an
    int exactly, and the limit itself is left as it is.
    """
    try:
        return str(q)
    except ValueError:
        n = str(Decimal(q.numerator))
        return n if q.denominator == 1 else f"{n}/{Decimal(q.denominator)}"


def parse_rational(text) -> Fraction:
    """Parse ``p/q`` or ``p`` (typographic minus accepted).

    A ``bool`` is rejected, though it subclasses ``int``: ``true`` in a JSON
    file is an input error, not the rational 1.  Past Python's int-from-str
    digit limit, ``p/q`` and ``p`` in ASCII digits are still read exactly,
    through ``decimal.Decimal``.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip().replace(_MINUS_SIGN, "-")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        error = exc
    big = _DIGITS_RATIONAL.fullmatch(s)
    if big:
        n, d = (int(Decimal(part)) for part in (big[1], big[2] or "1"))
        if d:
            return Fraction(n, d)
    raise ValueError(f"not a rational: {text!r}") from error


def format_extended(value: ExtendedRational) -> str:
    if isinstance(value, _Infinity):
        return repr(value)
    return format_rational(value)


def parse_extended(text) -> ExtendedRational:
    if isinstance(text, _Infinity):
        return text
    s = str(text).strip().replace(_MINUS_SIGN, "-")
    if s in ("-inf", "-oo"):
        return NEG_INF
    if s in ("inf", "+inf", "oo", "+oo"):
        return POS_INF
    return parse_rational(s)
