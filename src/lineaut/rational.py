"""Exact rational scalars and the two-point extension used for interval ends.

Points of the line are :class:`fractions.Fraction` values throughout; all
arithmetic is exact and equality means equality.  Interval endpoints may
additionally be one of the two infinities ``NEG_INF`` / ``POS_INF``, which
compare correctly against every finite rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Fraction

_MINUS_SIGN = "−"  # typographic minus, accepted on input


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
    """Canonical string: ``p/q`` in lowest terms, or ``p`` for integers."""
    return str(q)


def parse_rational(text) -> Fraction:
    """Parse ``p/q`` or ``p`` (typographic minus accepted).

    A ``bool`` is rejected, though it subclasses ``int``: ``true`` in a JSON
    file is an input error, not the rational 1.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip().replace(_MINUS_SIGN, "-"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


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
