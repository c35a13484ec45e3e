"""Reference evaluator, independent of lineaut's evaluation code.

A piecewise-linear map is given by its knots ``(x, y)`` and its two tail
slopes.  :class:`RefPL` evaluates it with ``Fraction`` arithmetic and
``bisect``; :func:`ref_compose` builds the knot list of a composite by
evaluating at the breakpoints of both factors; :func:`ref_terrain` reads
the terrain off the sign of the displacement ``g(t) - t``.  Every output
check in the benchmark that needs an input map's values, or a terrain,
goes through this module.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

ONE = Fraction(1)


class RefPL:
    """Increasing piecewise-linear bijection from raw knot data."""

    __slots__ = ("knots", "left_slope", "right_slope", "_xs", "_ys")

    def __init__(self, knots, left_slope=ONE, right_slope=ONE):
        self.knots = tuple((Fraction(x), Fraction(y)) for x, y in knots)
        self.left_slope = Fraction(left_slope)
        self.right_slope = Fraction(right_slope)
        if self.left_slope <= 0 or self.right_slope <= 0:
            raise ValueError("tail slopes must be positive")
        self._xs = [x for x, _ in self.knots]
        self._ys = [y for _, y in self.knots]
        for a, b in zip(self.knots, self.knots[1:]):
            if not (a[0] < b[0] and a[1] < b[1]):
                raise ValueError("knots must increase in both coordinates")
        if not self.knots and (self.left_slope != 1 or self.right_slope != 1):
            raise ValueError("a map without knots is the identity")

    @staticmethod
    def _eval(xs, ys, ls, rs, q):
        if not xs:
            return q
        p = bisect_right(xs, q)
        if p == 0:
            return ys[0] + ls * (q - xs[0])
        if p == len(xs):
            return ys[-1] + rs * (q - xs[-1])
        x0, x1, y0, y1 = xs[p - 1], xs[p], ys[p - 1], ys[p]
        return y0 + (y1 - y0) * (q - x0) / (x1 - x0)

    def forward(self, q: Fraction) -> Fraction:
        return self._eval(self._xs, self._ys, self.left_slope, self.right_slope, q)

    def backward(self, q: Fraction) -> Fraction:
        return self._eval(self._ys, self._xs, 1 / self.left_slope, 1 / self.right_slope, q)

    def inverse(self) -> "RefPL":
        return RefPL([(y, x) for x, y in self.knots], 1 / self.left_slope,
                     1 / self.right_slope)

    def power_at(self, n: int, q: Fraction) -> Fraction:
        step = self.forward if n > 0 else self.backward
        for _ in range(abs(n)):
            q = step(q)
        return q


def ref_compose(a: RefPL, b: RefPL) -> RefPL:
    """Apply ``a``, then ``b``: breakpoints are a's knots and the preimages
    under ``a`` of b's knots."""
    xs = set(a._xs)
    xs.update(a.backward(x) for x in b._xs)
    knots = [(x, b.forward(a.forward(x))) for x in sorted(xs)]
    ls = a.left_slope * b.left_slope
    rs = a.right_slope * b.right_slope
    if not knots and (ls != 1 or rs != 1):
        knots = [(Fraction(0), b.forward(a.forward(Fraction(0))))]
    return RefPL(knots, ls, rs)


def ref_conjugate(g: RefPL, h: RefPL) -> RefPL:
    """``h^-1 g h`` with left-to-right composition: q -> h(g(h^-1(q)))."""
    return ref_compose(ref_compose(h.inverse(), g), h)


def _sign(g: RefPL, q: Fraction) -> int:
    d = g.forward(q) - q
    return (d > 0) - (d < 0)


def ref_terrain(g: RefPL):
    """Terrain as a tuple of ``(color, lo, hi)``; ``None`` marks an infinite end.

    The displacement is affine between knots, so its sign can only change
    at knots and at the single root inside each piece.  Runs of equal sign
    are merged; an isolated zero between two components is a boundary point,
    not an element.
    """
    if not g.knots:
        return (("0", None, None),)
    cuts = set(g._xs)
    ends = [None] + g._xs + [None]
    for lo, hi in zip(ends, ends[1:]):
        x0 = lo if lo is not None else hi - 1
        x1 = hi if hi is not None else lo + 1
        d0, d1 = g.forward(x0) - x0, g.forward(x1) - x1
        if d0 == d1:
            continue  # displacement constant on the piece
        root = x0 + (x1 - x0) * d0 / (d0 - d1)
        if (lo is None or lo < root) and (hi is None or root < hi):
            cuts.add(root)
    pts = sorted(cuts)
    # alternate open gaps and cut points, left to right
    items = [(None, pts[0], _sign(g, pts[0] - 1))]
    for k, p in enumerate(pts):
        items.append((p, p, _sign(g, p)))
        nxt = pts[k + 1] if k + 1 < len(pts) else None
        items.append((p, nxt, _sign(g, (p + nxt) / 2 if nxt is not None else p + 1)))
    runs = []
    for lo, hi, s in items:
        if runs and runs[-1][0] == s:
            runs[-1][2] = hi
        else:
            runs.append([s, lo, hi])
    colors = {1: "+", -1: "-", 0: "0"}
    return tuple((colors[s], lo, hi) for s, lo, hi in runs
                 if not (s == 0 and lo is not None and lo == hi))


def boundary_rates(g: RefPL) -> list:
    """Slope of g on the component side of every finite end of a support
    component.  Orbits approach such an end at that geometric rate, so a
    rate near 1 makes orbit indices of nearby points large."""
    rates = []
    for color, lo, hi in ref_terrain(g):
        if color == "0":
            continue
        for end, side in ((lo, 1), (hi, -1)):
            if end is None:
                continue
            near = [x for x in g._xs if (x > end if side > 0 else x < end)]
            other = (min(near) if side > 0 else max(near)) if near else end + side
            probe = (end + other) / 2
            rates.append((g.forward(probe) - g.forward(end)) / (probe - end))
    return rates


def colors(terrain) -> str:
    return "".join(c for c, _, _ in terrain)


def element_of(terrain, q: Fraction) -> int:
    """Index of the terrain element containing q, or -1 for a boundary point."""
    for k, (c, lo, hi) in enumerate(terrain):
        above = lo is None or (lo <= q if c == "0" else lo < q)
        below = hi is None or (q <= hi if c == "0" else q < hi)
        if above and below:
            return k
    return -1
