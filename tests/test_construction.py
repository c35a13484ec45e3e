"""The integer piece table of ``PLAutomorphism`` against the Fraction
references in ``conftest``: construction, piece lines, the inverse,
composition, meet/join and support decomposition agree exactly.  Also the
contract of the library's records: equality, hash, repr, immutability."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineaut import (
    NEG_INF,
    POS_INF,
    AffineBridge,
    CallCounter,
    Color,
    CostReport,
    InstrumentedOracle,
    OrbitLocation,
    PLAutomorphism,
    ProceduralAutomorphism,
    Terrain,
    TerrainElement,
    Word,
    compose,
    join,
    meet,
    support_decompose,
)
from lineaut.conjugacy import OrbitTransport
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


def _up(q):
    return q + 1


def _down(q):
    return q - 1


_T = PLAutomorphism.translation(1)
_B = AffineBridge(F(0), F(1), F(0), F(1))
_E = TerrainElement(Color.POS, NEG_INF, POS_INF)
# per record class: its field names, the arguments of one instance, the same
# arguments with one field changed, and its repr as the dataclass gave it
RECORDS = [
    (PLAutomorphism, ("knots", "left_slope", "right_slope"),
     (((F(0), F(1)), (F(1), F(4))), F(1), F(2)), (((F(0), F(1)), (F(1), F(4))), F(1, 2), F(2)),
     "PLAutomorphism([(0, 1), (1, 4)], left_slope=1, right_slope=2)"),
    (ProceduralAutomorphism, ("forward_fn", "backward_fn", "description"),
     (_up, _down, "up"), (_up, _down, "shift"), None),
    (AffineBridge, ("source_lo", "source_hi", "target_lo", "target_hi"),
     (F(0), F(1), F(2), F(5)), (F(0), F(1), F(2), F(6)), None),
    (OrbitLocation, ("index", "lower", "upper"), (3, F(1, 2), F(5, 2)), (4, F(1, 2), F(5, 2)),
     "OrbitLocation(index=3, lower=Fraction(1, 2), upper=Fraction(5, 2))"),
    (OrbitTransport, ("t_in", "t_out", "seed", "anchor_in", "anchor_out"),
     (_T, _T, _B, F(0), F(0)), (_T, _T, _B, F(0), F(1, 2)), None),
    (Word, ("letters",), (((2, 1), (3, -1)),), (((2, 1),),), "Word(x2 x3^-1)"),
    (CallCounter, ("forward", "inverse", "ff_steps"), (1, 2, 3), (1, 2, 4),
     "CallCounter(forward=1, inverse=2, ff_steps=3)"),
    (InstrumentedOracle, ("inner", "forward_count", "inverse_count"), (_T, 1, 2), (_T, 1, 3),
     None),
    (CostReport, ("mode", "index", "oracle_calls", "ff_steps"), ("linear", 3, 7, 0),
     ("linear", 4, 7, 0), "CostReport(mode='linear', index=3, oracle_calls=7, ff_steps=0)"),
    (TerrainElement, ("color", "lo", "hi"), (Color.POS, NEG_INF, F(1, 2)),
     (Color.POS, NEG_INF, F(1)), "+(-inf, 1/2)"),
    (Terrain, ("elements",), ((_E,),), ((TerrainElement(Color.NEG, NEG_INF, POS_INF),),),
     None),
]
MUTABLE = (CallCounter, InstrumentedOracle)


@pytest.mark.parametrize("cls, names, args, changed, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names, args, changed, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert cls(**dict(zip(names, args))) == a
    assert cls.__match_args__ == names
    assert a != cls(*changed) and not a == cls(*changed)
    for other in RECORDS:
        if other[0] is not cls:
            assert a != other[0](*other[2])
    sub = type("Sub", (cls,), {})(*args)  # the same fields, another class
    assert a != sub and sub != a
    for again in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert again == a and type(again) is cls
    if text is not None:
        assert repr(a) == text
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, names[-1], changed[-1])
        assert a == cls(*changed)
        return
    assert hash(a) == hash(b)
    for name, value in zip(names, changed):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_no_dataclasses_at_import():
    """Importing the CLI and the samples loads neither dataclasses nor
    inspect: the records are plain classes, with no generated methods."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, lineaut.cli, lineaut.samples; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
