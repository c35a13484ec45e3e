import copy
import pickle
import sys
from fractions import Fraction

import pytest

from lineaut import PLAutomorphism, nth_root, realize
from lineaut.automorphism import _fraction
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


def test_values_past_the_int_str_digit_limit():
    # a 20,000th root of a map with terrain -+- sends 3/2 to a value with a
    # 20,002-bit numerator: over 6,000 digits, past Python's default limit of
    # 4,300 for int/str conversion, which is left as it is
    q = nth_root(realize("-+-"), 20000).forward(Fraction(3, 2))
    assert q.numerator.bit_length() == 20002
    text = format_rational(q)
    assert len(text) > 2 * 4300 and "/" in text
    assert parse_rational(text) == q
    assert parse_rational("−" + text) == -q
    g = PLAutomorphism(((0, q), (1, q + 2)), 1, 1)
    data = g.to_json_dict()
    assert data["knots"][0]["y"] == text
    assert PLAutomorphism.from_json_dict(data) == g
    assert text in repr(g)
    big = "1" + "0" * 5000
    assert parse_rational(big + "/" + big) == 1
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(big + "/0")
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(big + "x")


BIG = 10**5000


@pytest.mark.parametrize("n, d", [
    (0, 1), (0, 7), (5, 1), (-6, 4), (-22, 7), (3 * BIG + 1, 7 * BIG), (-BIG, 3 * BIG + 9),
    (6 * BIG, 4 * BIG + 2), (-(2**16000), 6**7000), (1, BIG - 1),
], ids=lambda k: str(k) if abs(k) < 10**9 else f"{k.bit_length()}-bit")
def test_fraction_slots_make_a_fraction(n, d):
    # values leave the pair protocol through _fraction, which fills
    # Fraction's slots itself: it must make the very Fraction(n, d)
    want, q = Fraction(n, d), _fraction(n, d)
    assert type(q) is Fraction
    assert q == want and (q.numerator, q.denominator) == (want.numerator, want.denominator)
    assert hash(q) == hash(want)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)  # repr and pickle write decimal digits
    try:
        assert repr(q) == repr(want) and str(q) == str(want)
        for again in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
            assert type(again) is Fraction and again == want
            assert (again.numerator, again.denominator) == (want.numerator, want.denominator)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    other = Fraction(-5, 3)
    assert (q + other, q - other, q * other, q / other) == (
        want + other, want - other, want * other, want / other)
    assert (q < other, q <= want, -q, abs(q), q ** 2) == (
        want < other, True, -want, abs(want), want ** 2)
    if q:
        assert 1 / q == 1 / want
