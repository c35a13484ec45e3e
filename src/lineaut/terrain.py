"""Support decomposition and the terrain invariant.

The support of an automorphism splits into maximal open intervals on which
the map is strictly above the diagonal (positive components) or strictly
below it (negative components).  Together with the nontrivial maximal
intervals of fixed points, ordered along the line, these form the *terrain*
of the map: a colored ordered sequence which is a complete conjugacy
invariant.  Isolated fixed points separating two components are boundary
points, not terrain elements.

For the finite terrains handled here, two terrains are isomorphic exactly
when their color sequences agree: the leftmost and rightmost elements are
forced to be unbounded on their outer side, so interval shapes are
determined by position and color alone.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .automorphism import PLAutomorphism, _Record, _set
from .rational import (
    NEG_INF,
    POS_INF,
    ExtendedRational,
    format_extended,
    is_finite,
    parse_extended,
)

ALPHABET = ("+", "-", "0")


class Color(Enum):
    POS = "+"
    NEG = "-"
    FIXED = "0"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "Color":
        text = text.strip().replace("−", "-")
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"not a color: {text!r}")


class TerrainElement(_Record):
    """One support component (open) or maximal fixed interval (closed).

    ``lo``/``hi`` are the interval endpoints; closedness is implied by the
    color: POS/NEG elements are open intervals, FIXED elements contain their
    finite endpoints.
    """

    __slots__ = _fields = ("color", "lo", "hi")

    def __init__(self, color: Color, lo: ExtendedRational, hi: ExtendedRational):
        if not lo < hi:
            raise ValueError(f"degenerate element: [{format_extended(lo)}, "
                             f"{format_extended(hi)}]")
        _set(self, "color", color)
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def contains(self, q: Fraction) -> bool:
        if self.color is Color.FIXED:
            return self.lo <= q <= self.hi
        return self.lo < q < self.hi

    def to_json_dict(self) -> dict:
        return {
            "color": self.color.value,
            "lo": format_extended(self.lo),
            "hi": format_extended(self.hi),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TerrainElement":
        return cls(Color.parse(data["color"]), parse_extended(data["lo"]),
                   parse_extended(data["hi"]))

    def __repr__(self) -> str:
        return f"{self.color.value}({format_extended(self.lo)}, {format_extended(self.hi)})"


class Terrain(_Record):
    """Ordered sequence of terrain elements covering the line.  Construction
    keeps the finite boundaries, where element k ends and k+1 begins, as
    ints ``_boundaries = (numerators, denominators)`` from the Fractions'
    slots; None if the elements do not cover the line."""

    __slots__ = ("elements", "_boundaries")
    _fields = ("elements",)

    def __init__(self, elements: tuple = ()):
        elems = tuple(elements)
        # as lo < hi, infinite outer ends are -inf and +inf; inner ones leave a gap
        bn, bd = [], []
        for a, b in zip(elems, elems[1:]):
            hi, lo = a.hi, b.lo
            if not (isinstance(hi, Fraction) and isinstance(lo, Fraction)
                    and hi._numerator == lo._numerator and hi._denominator == lo._denominator):
                break
            bn.append(hi._numerator)
            bd.append(hi._denominator)
        covers = (len(bn) == len(elems) - 1 and not is_finite(elems[0].lo)
                  and not is_finite(elems[-1].hi))
        _set(self, "elements", elems)
        _set(self, "_boundaries", (bn, bd) if covers else None)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[TerrainElement]:
        return iter(self.elements)

    def __getitem__(self, k) -> TerrainElement:
        return self.elements[k]

    def color_sequence(self) -> str:
        return "".join(e.color.value for e in self.elements)

    def locate(self, q: Fraction):
        """('element', k) for the element containing q, or ('boundary', k)
        when q is the isolated fixed point between elements k and k+1.

        Bisects over the finite boundaries with integer cross-multiplication.
        A boundary belongs to the fixed interval on either side of it, if
        there is one.  Raises ValueError on a terrain that does not cover
        the line.
        """
        return self._locate(q.numerator, q.denominator)

    def _locate(self, qn: int, qd: int):
        """``locate`` of qn/qd (qd > 0, the pair reduced or not)."""
        if self._boundaries is None:
            raise ValueError(f"terrain {self.color_sequence()!r} does not cover the line")
        bn, bd = self._boundaries
        lo, hi = 0, len(bn)
        while lo < hi:  # least k with q <= boundary k
            mid = (lo + hi) // 2
            if bn[mid] * qd < qn * bd[mid]:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(bn) or bn[lo] * qd != qn * bd[lo]:
            return ("element", lo)
        if self.elements[lo].color is Color.FIXED:
            return ("element", lo)
        if self.elements[lo + 1].color is Color.FIXED:
            return ("element", lo + 1)
        return ("boundary", lo)

    def is_valid(self) -> bool:
        """Whether the elements cover the line, no two fixed intervals adjacent."""
        return self._boundaries is not None and "00" not in self.color_sequence()

    def to_json_dict(self) -> dict:
        return {"elements": [e.to_json_dict() for e in self.elements]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Terrain":
        return cls(tuple(TerrainElement.from_json_dict(e) for e in data["elements"]))

    def __repr__(self) -> str:
        return f"Terrain({self.color_sequence()!r})"


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def support_decompose(g: PLAutomorphism) -> Terrain:
    """Full ordered terrain of a piecewise-linear automorphism.

    The displacement g(t) - t is affine on each piece of g, so its sign
    pattern is determined exactly by the piece table: breakpoints are the
    knots plus the root of the displacement inside each piece, and the
    sign is constant between consecutive breakpoints.  Signs and roots are
    worked out on integer pairs by cross-multiplication; Fractions are
    built only for the roots, which always bound an element.
    """
    if g.is_identity:
        return Terrain((TerrainElement(Color.FIXED, NEG_INF, POS_INF),))

    xn, xd, an, ad, bn, bd = g._table
    last = len(xn)
    # alternating items: tail, point, interval, point, ..., tail
    items = []  # (lo, hi, sign) with lo == hi for single points
    lo = NEG_INF
    for p in range(last + 1):
        hi = g.knots[p][0] if p < last else POS_INF
        # on piece p the displacement is (a - 1) t + b, rising iff rise > 0
        rise = _sign(an[p] - ad[p])
        if rise == 0:
            items.append((lo, hi, _sign(bn[p])))
        else:
            # its root b / (1 - a), denominator made positive
            rn, rd = -rise * bn[p] * ad[p], -rise * bd[p] * (ad[p] - an[p])
            above_lo = p == 0 or xn[p - 1] * rd < rn * xd[p - 1]
            if above_lo and (p == last or rn * xd[p] < xn[p] * rd):
                root = Fraction(rn, rd)
                items += [(lo, root, -rise), (root, root, 0), (root, hi, rise)]
            else:
                items.append((lo, hi, -rise if above_lo else rise))
        if p < last:
            # displacement at knot p, times the positive ad bd xd
            items.append((hi, hi, _sign(xn[p] * bd[p] * (an[p] - ad[p]) + bn[p] * ad[p] * xd[p])))
            lo = hi

    elements = []
    run_lo, run_hi, run_sign = items[0]
    for lo, hi, sign in items[1:]:
        if sign == run_sign:
            run_hi = hi
            continue
        _emit(elements, run_lo, run_hi, run_sign)
        run_lo, run_hi, run_sign = lo, hi, sign
    _emit(elements, run_lo, run_hi, run_sign)
    return Terrain(tuple(elements))


def _emit(elements, lo, hi, sign):
    if sign == 0:
        if lo == hi:
            return  # isolated fixed point: boundary of two components
        elements.append(TerrainElement(Color.FIXED, lo, hi))
    else:
        elements.append(TerrainElement(Color.POS if sign > 0 else Color.NEG, lo, hi))


def color_sequence(terrain: Terrain) -> str:
    return terrain.color_sequence()


def is_isomorphic(t1: Terrain, t2: Terrain) -> bool:
    """Color- and order-preserving bijection test (finite terrains)."""
    return t1.color_sequence() == t2.color_sequence()


def validate(terrain: Terrain) -> bool:
    return terrain.is_valid()


def _check_sequence(seq: str) -> str:
    seq = seq.strip().replace("−", "-")
    if not seq:
        raise ValueError("empty color sequence")
    for ch in seq:
        if ch not in ALPHABET:
            raise ValueError(f"invalid color {ch!r}; expected one of {ALPHABET}")
    if "00" in seq:
        raise ValueError("'00' is not a terrain: adjacent fixed intervals would merge")
    return seq


def enumerate_color_sequences(n: int) -> list:
    """All length-n color sequences with no '00' substring, sorted."""
    if n < 1:
        raise ValueError("sequence length must be positive")
    out = []
    for chars in itertools.product(ALPHABET, repeat=n):
        seq = "".join(chars)
        if "00" not in seq:
            out.append(seq)
    out.sort()
    return out


def realize(seq: str) -> PLAutomorphism:
    """A piecewise-linear map whose terrain has the given color sequence.

    With m elements, element k (1-based) occupies the k-th slot of the fixed
    partition of the line with boundaries at 1, ..., m-1: slot 1 is
    (-inf, 1), slot m is (m-1, +inf), interior slots are unit intervals.
    POS slots get a simple two-piece arc above the diagonal fixing the slot
    ends (a translation-like tail on unbounded slots), NEG slots the mirror
    image below, FIXED slots the identity.
    """
    seq = _check_sequence(seq)
    m = len(seq)
    if m == 1:
        ch = seq[0]
        if ch == "0":
            return PLAutomorphism.identity()
        if ch == "+":
            return PLAutomorphism.translation(1)
        return PLAutomorphism.translation(-1)

    knots = {}

    def add(x, y):
        knots[Fraction(x)] = Fraction(y)

    for k, ch in enumerate(seq, start=1):
        if ch == "0":
            continue
        up = ch == "+"
        if k == 1:
            b = Fraction(1)
            add(b, b)
            add(b - 2, b - 1 if up else b - 3)
        elif k == m:
            a = Fraction(m - 1)
            add(a, a)
            add(a + 2, a + 3 if up else a + 1)
        else:
            a, b = Fraction(k - 1), Fraction(k)
            add(a, a)
            add(b, b)
            mid = (a + b) / 2
            add(mid, (a + 3 * b) / 4 if up else (3 * a + b) / 4)
    return PLAutomorphism(tuple(sorted(knots.items())), 1, 1)
