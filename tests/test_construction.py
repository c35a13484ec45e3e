"""The integer piece table of ``PLAutomorphism`` against the Fraction
references in ``conftest``: construction, piece lines, the inverse,
composition, meet/join and support decomposition agree exactly."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lineaut import PLAutomorphism, compose, join, meet, support_decompose
from conftest import (
    reference_canonical,
    reference_compose,
    reference_inverse,
    reference_piece_lines,
    reference_select_pointwise,
    reference_support_decompose,
    triple,
)

F = Fraction
SLOPES = (F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3))
steps = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
# conjugating by t -> s t + c keeps fixed points, roots and collinearity,
# and moves numerators or denominators above 2^64
scales = st.sampled_from((F(1), F(2 ** 64 + 13), F(1, 2 ** 66 + 1), F(2 ** 65 + 1, 3)))
shifts = st.sampled_from((F(0), F(1, 3), F(-(2 ** 70) - 7, 5)))


@st.composite
def raw_maps(draw):
    """Valid raw knot data ``(knots, left_slope, right_slope)``: knots often
    on the diagonal (displacement roots at knots, slope-1 pieces with zero
    displacement), often collinear with the piece before them (redundant
    knots), tails often continuing the outer pieces; none or one knot gives
    the identity or a globally affine map off its anchor."""
    count = draw(st.integers(min_value=0, max_value=6))
    if count == 0:
        return (), F(1), F(1)
    x = draw(st.fractions(min_value=-4, max_value=4, max_denominator=4))
    y = x if draw(st.booleans()) else x + draw(st.sampled_from((-1, 1))) * draw(steps)
    knots = [(x, y)]
    for _ in range(count - 1):
        x += draw(steps)
        kind = draw(st.sampled_from(("diagonal", "collinear", "free")))
        if kind == "diagonal" and x > y:
            y = x
        elif kind == "collinear" and len(knots) > 1:
            (xa, ya), (xb, yb) = knots[-2:]
            y = yb + (yb - ya) / (xb - xa) * (x - xb)
        else:
            y += draw(steps)
        knots.append((x, y))

    def tail(outer):
        if len(knots) > 1 and draw(st.booleans()):
            (xa, ya), (xb, yb) = outer
            return (yb - ya) / (xb - xa)
        return draw(st.sampled_from(SLOPES))

    ls, rs = tail(knots[:2]), tail(knots[-2:])
    if count == 1 and draw(st.booleans()):
        rs = ls
    s, c = draw(scales), draw(shifts)
    return tuple((s * x + c, s * y + c) for x, y in knots), ls, rs


def table_of(knots, left_slope, right_slope):
    """The piece table a canonical triple must have, from its Fraction lines."""
    lines = reference_piece_lines(knots, left_slope, right_slope)
    return ([x.numerator for x, _ in knots], [x.denominator for x, _ in knots],
            [a.numerator for a, _ in lines], [a.denominator for a, _ in lines],
            [b.numerator for _, b in lines], [b.denominator for _, b in lines])


def check(f, expected):
    """f is the canonical triple ``expected`` with the matching table and
    knot y ints."""
    assert triple(f) == expected
    assert all(type(v) is Fraction for k in f.knots for v in k)
    assert type(f.left_slope) is Fraction and type(f.right_slope) is Fraction
    assert f.piece_lines() == reference_piece_lines(*expected)
    assert f._table == table_of(*expected)
    assert f._knot_ys == ([y.numerator for _, y in f.knots], [y.denominator for _, y in f.knots])


@given(raw_maps())
@settings(max_examples=150, deadline=None)
def test_construction(raw):
    check(PLAutomorphism(*raw), reference_canonical(*raw))


@given(raw_maps())
@settings(max_examples=150, deadline=None)
def test_inverse(raw):
    f = PLAutomorphism(*raw)
    check(f._inverse, reference_inverse(f))
    check(f._inverse._inverse, triple(f))


@given(raw_maps(), raw_maps())
@settings(max_examples=120, deadline=None)
def test_compose(raw_f, raw_g):
    f, g = PLAutomorphism(*raw_f), PLAutomorphism(*raw_g)
    check(compose(f, g), reference_compose(f, g))
    check(compose(f, f._inverse), ((), F(1), F(1)))


@given(raw_maps(), raw_maps())
@settings(max_examples=80, deadline=None)
def test_meet_join(raw_f, raw_g):
    f, g = PLAutomorphism(*raw_f), PLAutomorphism(*raw_g)
    check(meet(f, g), reference_select_pointwise(f, g, True))
    check(join(f, g), reference_select_pointwise(f, g, False))


@given(raw_maps(), raw_maps())
@settings(max_examples=120, deadline=None)
def test_terrain(raw_f, raw_g):
    f, g = PLAutomorphism(*raw_f), PLAutomorphism(*raw_g)
    for m in (f, f._inverse, compose(f, g)):
        assert support_decompose(m) == reference_support_decompose(m)


def test_edge_cases():
    """Named cases the strategy reaches only by chance."""
    identity = ((), F(1), F(1))
    collinear = (((F(-1), F(1)), (F(0), F(3)), (F(2), F(7))), F(2), F(2))  # t -> 2t + 3
    cases = [
        identity,
        (((F(5), F(5)),), F(1), F(1)),  # the identity through a fixed knot
        (((F(1), F(4)),), F(1), F(1)),  # a translation off its anchor
        collinear,
        (((F(0), F(0)), (F(1), F(1))), F(2), F(1, 2)),  # fixed interval [0, 1]
        (((F(0), F(0)),), F(1, 2), F(2)),  # one repelling fixed knot
        (((F(2 ** 64 + 1), F(2 ** 64 + 3)), (F(2 ** 66, 3), F(2 ** 66, 3) + 1)), F(1), F(3)),
    ]
    for raw in cases:
        f = PLAutomorphism(*raw)
        check(f, reference_canonical(*raw))
        check(f._inverse, reference_inverse(f))
        assert support_decompose(f) == reference_support_decompose(f)
    assert triple(PLAutomorphism(*collinear)) == (((F(0), F(3)),), F(2), F(2))
    assert triple(PLAutomorphism(*collinear)._inverse) == (((F(0), F(-3, 2)),), F(1, 2), F(1, 2))
    assert PLAutomorphism()._inverse == PLAutomorphism()
