from fractions import Fraction

import pytest

from lineaut.rational import (
    NEG_INF,
    POS_INF,
    format_extended,
    format_rational,
    is_finite,
    parse_extended,
    parse_rational,
)


def test_parse_and_format_roundtrip():
    for text in ("0", "5", "-7", "5/3", "-22/7"):
        q = parse_rational(text)
        assert format_rational(q) == text


def test_parse_accepts_typographic_minus():
    assert parse_rational("−5/3") == Fraction(-5, 3)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("eleven")


@pytest.mark.parametrize("value", [True, False])
def test_parse_rejects_booleans(value):
    # bool subclasses int, so a JSON true would otherwise read as 1
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(value)


def test_infinities_order_totally():
    q = Fraction(10**9)
    assert NEG_INF < q < POS_INF
    assert NEG_INF < POS_INF
    assert not NEG_INF < NEG_INF
    assert NEG_INF <= NEG_INF
    assert POS_INF > -q
    assert -POS_INF is NEG_INF and -NEG_INF is POS_INF


def test_extended_parse_format():
    assert parse_extended("-inf") is NEG_INF
    assert parse_extended("inf") is POS_INF
    assert parse_extended("3/2") == Fraction(3, 2)
    assert format_extended(NEG_INF) == "-inf"
    assert format_extended(Fraction(3, 2)) == "3/2"
    assert not is_finite(POS_INF)
    assert is_finite(Fraction(0))
