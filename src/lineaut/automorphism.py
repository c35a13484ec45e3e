"""Order-preserving bijections of the line, exactly.

Two representations are provided.  :class:`PLAutomorphism` is the closed,
finitely-described one: finitely many knots with affine interpolation between
them and affine tails.  It is closed under composition, inversion, pointwise
min/max, and integer powers, all computed exactly over rationals.
:class:`ProceduralAutomorphism` wraps a pair of evaluation procedures and is
how constructed solutions with infinitely many affine pieces are returned
(conjugators, x g x = f solutions, n-th roots, solutions of words whose
exponent sums are all zero): no finite knot list exists for them.  A
solution with a finite description stays PL: ``solve_word`` gives g, its
inverse or the identity to the variables of a word with an exponent sum
of +-1, and the identity to every variable but the one it solves for.

Composition is written left to right everywhere in this library:
``compose(f, g)`` applies ``f`` first, so ``compose(f, g)(q) == g(f(q))``.
The ``*`` operator follows the same convention: ``(f * g)(q) == g(f(q))``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Union

from .rational import format_rational, parse_rational

MAX_ORBIT_STEPS = 1 << 32
# Steps an orbit takes in one affine piece before the rest of its run there
# is computed in closed form; a closed form costs about as much as a few
# dozen steps, and most runs are shorter than this.
_STEPPED_RUN = 16


class DomainError(ValueError):
    """A partial map was evaluated outside its domain."""


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return parse_rational(value)


def _piece_lines(knots, left_slope, right_slope):
    """(slope, intercept) per affine piece of a nonempty knot list, tails included."""
    x0, y0 = knots[0]
    lines = [(left_slope, y0 - left_slope * x0)]
    for (xa, ya), (xb, yb) in zip(knots, knots[1:]):
        a = (yb - ya) / (xb - xa)
        lines.append((a, ya - a * xa))
    xm, ym = knots[-1]
    lines.append((right_slope, ym - right_slope * xm))
    return lines


def _canonicalize(knots, left_slope, right_slope):
    """Normal form: boundaries of maximal affine pieces.

    Knots collinear with their surroundings are dropped.  A globally affine
    map is anchored at x = 0 (so a translation t -> t + c keeps the single
    knot (0, c)); the identity has no knots at all.
    """
    if not knots:
        if left_slope != 1 or right_slope != 1:
            raise ValueError("a map without knots must be the identity; got tail slopes "
                             f"{left_slope}, {right_slope}")
        return (), Fraction(1), Fraction(1)
    lines = _piece_lines(knots, left_slope, right_slope)
    kept = tuple(knots[i] for i in range(len(knots)) if lines[i] != lines[i + 1])
    if not kept:
        a, b = lines[0]
        if a == 1 and b == 0:
            return (), Fraction(1), Fraction(1)
        return ((Fraction(0), b),), a, a
    return kept, left_slope, right_slope


@dataclass(frozen=True)
class PLAutomorphism:
    """Piecewise-affine increasing bijection of the line.

    ``knots`` are (x, y) pairs with strictly increasing x and strictly
    increasing y; between consecutive knots the map interpolates affinely,
    and beyond the first/last knot it continues with ``left_slope`` /
    ``right_slope``.  Both slopes must be positive, which together with knot
    monotonicity makes the map a continuous increasing bijection by
    construction.  An empty knot tuple denotes the identity.

    Instances are immutable and canonical: redundant (collinear) knots are
    removed on construction, so ``==`` compares the induced maps.
    """

    knots: tuple = ()
    left_slope: Fraction = Fraction(1)
    right_slope: Fraction = Fraction(1)

    def __post_init__(self):
        knots = tuple((_frac(x), _frac(y)) for x, y in self.knots)
        ls = _frac(self.left_slope)
        rs = _frac(self.right_slope)
        if ls <= 0 or rs <= 0:
            raise ValueError(f"tail slopes must be positive; got {ls}, {rs}")
        for (xa, ya), (xb, yb) in zip(knots, knots[1:]):
            if xa >= xb:
                raise ValueError(f"knot x-coordinates must be strictly increasing: {xa} >= {xb}")
            if ya >= yb:
                raise ValueError(f"knot y-coordinates must be strictly increasing: {ya} >= {yb}")
        knots, ls, rs = _canonicalize(knots, ls, rs)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "left_slope", ls)
        object.__setattr__(self, "right_slope", rs)

    @classmethod
    def identity(cls) -> "PLAutomorphism":
        return cls()

    @classmethod
    def translation(cls, c) -> "PLAutomorphism":
        return cls.affine(1, c)

    @classmethod
    def affine(cls, a, b) -> "PLAutomorphism":
        """The global affine map t -> a*t + b (a > 0)."""
        a = _frac(a)
        b = _frac(b)
        if a == 1 and b == 0:
            return cls()
        return cls(((Fraction(0), b),), a, a)

    @property
    def is_identity(self) -> bool:
        return not self.knots

    def piece_lines(self):
        """(slope, intercept) per affine piece, tails included."""
        if not self.knots:
            return [(Fraction(1), Fraction(0))]
        return _piece_lines(self.knots, self.left_slope, self.right_slope)

    @cached_property
    def _table(self):
        """Knot x-coordinates and piece lines as lists of ints:
        ``(bxn, bxd, an, ad, bn, bd)``.  Piece p is ``y = a[p] x + b[p]`` and
        covers ``[bx[p-1], bx[p]]``; denominators are positive."""
        bxn = [x.numerator for x, _ in self.knots]
        bxd = [x.denominator for x, _ in self.knots]
        an, ad, bn, bd = [], [], [], []
        for a, b in self.piece_lines():
            an.append(a.numerator)
            ad.append(a.denominator)
            bn.append(b.numerator)
            bd.append(b.denominator)
        return (bxn, bxd, an, ad, bn, bd)

    @cached_property
    def _inverse(self) -> "PLAutomorphism":
        return PLAutomorphism(
            tuple((y, x) for x, y in self.knots),
            1 / self.left_slope,
            1 / self.right_slope,
        )

    def _image(self, xn: int, xd: int):
        """Image of xn/xd (xd > 0) as an unreduced pair with positive
        denominator, and the index of the piece that gave it.

        A binary search over the knots picks the piece; adjacent pieces agree
        at a shared knot, so which one a knot falls in does not matter.
        """
        bxn, bxd, an, ad, bn, bd = self._table
        lo = 0
        hi = len(bxn)
        while lo < hi:
            mid = (lo + hi) // 2
            if bxn[mid] * xd < xn * bxd[mid]:
                lo = mid + 1
            else:
                hi = mid
        return an[lo] * xn * bd[lo] + bn[lo] * ad[lo] * xd, ad[lo] * xd * bd[lo], lo

    def forward(self, q: Fraction) -> Fraction:
        q = _frac(q)
        yn, yd, _ = self._image(q.numerator, q.denominator)
        return Fraction(yn, yd)

    def _iterate(self, pn: int, pd: int, count=None, gamma=None, up=True, trail=None):
        """The orbit primitive: iterate this map from pn/pd (pd > 0).

        Stops after ``count`` steps or at the first iterate past ``gamma``,
        whichever comes first; past means above gamma when ``up``, at or
        below it otherwise.  Returns ``(steps, previous iterate, last
        iterate)``, the very values that stepping gives, each iterate as a
        ``(numerator, denominator)`` pair with positive denominator.  The
        map is affine on each piece, so once an orbit has stayed
        ``_STEPPED_RUN`` steps in one piece, the rest of its run there has a
        closed form (see ``_affine_run``) and costs one ceiling division or
        O(log n) exact powers.  A walk thus takes at most ``_STEPPED_RUN``
        steps and one closed form per piece it crosses, whatever its length.
        ``trail``, when a list, gets the iterates appended as reduced pairs
        while they come one step at a time.

        With gamma given, raises ValueError when the start is a fixed point
        or the orbit is found never to pass gamma: it converges to a fixed
        point or runs off to infinity first, so gamma lies in another
        component.
        """
        if count == 0:
            return 0, (pn, pd), (pn, pd)
        gn, gd = (0, 1) if gamma is None else (gamma.numerator, gamma.denominator)
        steps = run = 0
        piece = None
        while True:
            cn, cd, at = self._image(pn, pd)
            run = run + 1 if at == piece else 1
            piece = at
            if run > _STEPPED_RUN:
                _, _, an, ad, bn, bd = self._table
                n, prev, cur, done = _affine_run(
                    Fraction(an[piece], ad[piece]), Fraction(bn[piece], bd[piece]),
                    Fraction(pn, pd), self.knots[piece - 1][0] if piece else None,
                    self.knots[piece][0] if piece < len(self.knots) else None,
                    None if count is None else count - steps, gamma, up)
                steps += n
                pn, pd = cur.numerator, cur.denominator
                if trail is not None:
                    if n == 1:
                        trail.append((pn, pd))
                    else:
                        trail = None
                if done:
                    return steps, (prev.numerator, prev.denominator), (pn, pd)
                continue
            if gamma is not None and cn * pd == pn * cd:
                raise ValueError("fixed point reached during orbit iteration")
            steps += 1
            common = gcd(cn, cd)
            cn, cd = cn // common, cd // common
            if trail is not None:
                trail.append((cn, cd))
            if steps == count or (gamma is not None and (cn * gd > gn * cd) == up):
                return steps, (pn, pd), (cn, cd)
            pn, pd = cn, cd

    def backward(self, q: Fraction) -> Fraction:
        return self._inverse.forward(q)

    __call__ = forward

    def __mul__(self, other):
        return compose(self, other)

    def __invert__(self):
        return inverse(self)

    def __pow__(self, n: int):
        return power(self, n)

    def to_json_dict(self) -> dict:
        return {
            "knots": [{"x": format_rational(x), "y": format_rational(y)} for x, y in self.knots],
            "left_slope": format_rational(self.left_slope),
            "right_slope": format_rational(self.right_slope),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PLAutomorphism":
        try:
            knots = tuple(
                (parse_rational(k["x"]), parse_rational(k["y"])) for k in data["knots"]
            )
            ls = parse_rational(data["left_slope"])
            rs = parse_rational(data["right_slope"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed piecewise-linear JSON: {exc}") from exc
        return cls(knots, ls, rs)

    def __repr__(self) -> str:
        ks = ", ".join(f"({format_rational(x)}, {format_rational(y)})" for x, y in self.knots)
        return (f"PLAutomorphism([{ks}], left_slope={format_rational(self.left_slope)}, "
                f"right_slope={format_rational(self.right_slope)})")


@dataclass(frozen=True)
class ProceduralAutomorphism:
    """Increasing bijection given by exact evaluation procedures.

    ``forward_fn`` and ``backward_fn`` must be exact mutual inverses on every
    rational, and each call must terminate after finitely many evaluations of
    whatever underlying maps the procedure consults.  ``description`` records
    which construction produced the value.
    """

    forward_fn: Callable[[Fraction], Fraction]
    backward_fn: Callable[[Fraction], Fraction]
    description: str = "procedural"

    def forward(self, q: Fraction) -> Fraction:
        return self.forward_fn(_frac(q))

    def backward(self, q: Fraction) -> Fraction:
        return self.backward_fn(_frac(q))

    __call__ = forward

    def __mul__(self, other):
        return compose(self, other)

    def __invert__(self):
        return inverse(self)

    def __pow__(self, n: int):
        return power(self, n)

    def __repr__(self) -> str:
        return f"ProceduralAutomorphism({self.description})"


Automorphism = Union[PLAutomorphism, ProceduralAutomorphism]


def evaluate(f, x) -> Fraction:
    """Image of x under f (same as ``f.forward(x)``)."""
    return f.forward(_frac(x))


def inverse(f):
    """Group inverse; PL stays PL with knots reflected across the diagonal."""
    if isinstance(f, PLAutomorphism):
        return f._inverse
    if isinstance(f, ProceduralAutomorphism):
        return ProceduralAutomorphism(f.backward_fn, f.forward_fn, f"inverse({f.description})")
    return ProceduralAutomorphism(f.backward, f.forward, "inverse")


def compose(f, g):
    """Apply f, then g.  PL inputs give an exact PL result."""
    if isinstance(f, PLAutomorphism) and isinstance(g, PLAutomorphism):
        if f.is_identity:
            return g
        if g.is_identity:
            return f
        xs = {x for x, _ in f.knots}
        xs.update(f.backward(x) for x, _ in g.knots)
        knots = tuple(sorted((x, g.forward(f.forward(x))) for x in xs))
        return PLAutomorphism(knots, f.left_slope * g.left_slope,
                              f.right_slope * g.right_slope)

    def fwd(q, f=f, g=g):
        return g.forward(f.forward(q))

    def bwd(q, f=f, g=g):
        return f.backward(g.backward(q))

    return ProceduralAutomorphism(fwd, bwd, "composite")


def power(f, n: int):
    """n-fold composition; n = 0 gives the identity, negative n inverts."""
    if n == 0:
        return PLAutomorphism()
    if isinstance(f, PLAutomorphism):
        base = f if n > 0 else f._inverse
        e = abs(n)
        result = None
        sq = base
        while True:
            if e & 1:
                result = sq if result is None else compose(result, sq)
            e >>= 1
            if not e:
                return result
            sq = compose(sq, sq)

    def fwd(q, f=f, n=n):
        return apply_power(f, n, q)

    def bwd(q, f=f, n=n):
        return apply_power(f, -n, q)

    return ProceduralAutomorphism(fwd, bwd, f"power({n})")


def apply_power(f, n: int, q: Fraction) -> Fraction:
    """Evaluate f^n at q: through the orbit primitive for a PL map, by |n|
    single applications for any other map (black-box friendly)."""
    q = _frac(q)
    return Fraction(*_walk(f, q.numerator, q.denominator, n < 0, count=abs(n))[2])


def _walk(g, qn: int, qd: int, backward: bool = False, count=None, gamma=None, up=True,
          trail=None):
    """The one orbit walk: iterate g, or g^-1 when ``backward``, from qn/qd.

    Takes the arguments and gives the result of ``PLAutomorphism._iterate``,
    which does the work for PL maps: points are ``(numerator,
    denominator)`` pairs, gamma a Fraction.  Any other map is stepped in
    Fractions, converted at this boundary; with gamma it stops with
    ValueError at an exact fixed point, and without a count after
    ``MAX_ORBIT_STEPS`` steps.
    """
    if isinstance(g, PLAutomorphism):
        return (g._inverse if backward else g)._iterate(qn, qd, count, gamma, up, trail)
    if count == 0:
        return 0, (qn, qd), (qn, qd)
    step = g.backward if backward else g.forward
    prev = cur = Fraction(qn, qd)
    for steps in range(1, (count or MAX_ORBIT_STEPS) + 1):
        prev, cur = cur, step(cur)
        if trail is not None:
            trail.append((cur.numerator, cur.denominator))
        if gamma is not None:
            if cur == prev:
                raise ValueError("fixed point reached during orbit iteration")
            if (cur > gamma) == up:
                break
    else:
        if count is None:
            raise ValueError(f"orbit iteration exceeded {MAX_ORBIT_STEPS} steps")
    return steps, (prev.numerator, prev.denominator), (cur.numerator, cur.denominator)


def _reaches(a: Fraction, b: Fraction, s: int, c: Fraction) -> bool:
    """Whether iterates under t -> a t + b that move in direction s ever get
    past c: always, unless they converge to the fixed point of the line
    (slope below 1) and c is not before it."""
    return a >= 1 or s * (c - b / (1 - a)) < 0


def _first_past(a: Fraction, b: Fraction, x: Fraction, c: Fraction, s: int, strict: bool,
                cap=None):
    """Least n in 1..cap with s (x_n - c) > 0, or >= 0 unless ``strict``, where
    x_n is the n-th iterate of x under t -> a t + b and the iterates move
    in direction s and reach c (``_reaches``); None when n exceeds cap.

    With slope 1 this is a ceiling division.  Otherwise x_n - p = a^n (x - p)
    about the fixed point p of the line, and doubling plus bisection over
    exact powers of a finds n, never trying a power above cap.
    """
    if a == 1:
        ahead, step = s * (c - x), abs(b)
        n = max(ahead // step + 1 if strict else -(-ahead // step), 1)
        return n if cap is None or n <= cap else None
    p = b / (1 - a)
    u, k = s * (x - p), s * (c - p)

    def reached(n):
        v = a ** n * u
        return v > k if strict else v >= k

    lo, n = 0, 1
    while not reached(n):
        if cap is not None and n >= cap:
            return None
        lo, n = n, 2 * n if cap is None else min(2 * n, cap)
    while n - lo > 1:
        mid = (lo + n) // 2
        if reached(mid):
            n = mid
        else:
            lo = mid
    return n


def _affine_run(a: Fraction, b: Fraction, x: Fraction, lo, hi, count, gamma, up: bool):
    """The iterates of x under t -> a t + b while they stay in [lo, hi]
    (None for an unbounded end), in closed form.

    Returns ``(n, x_(n-1), x_n, done)``: ``done`` when x_n ends the walk of
    ``PLAutomorphism._iterate`` (the count is reached or x_n is past
    gamma), otherwise x_n is the first iterate out of [lo, hi].  Raises
    ValueError when gamma is given and the iterates neither pass it nor
    leave the piece, whatever the count: no walk from x ever passes gamma.
    """
    move = (a - 1) * x + b
    if move == 0:
        if gamma is not None:
            raise ValueError("fixed point reached during orbit iteration")
        return count, x, x, True
    s = 1 if move > 0 else -1
    edge = hi if s > 0 else lo
    leaves = edge is not None and _reaches(a, b, s, edge)
    stop = count
    if gamma is not None:
        # moving up, the walk stops above gamma; moving down, at or below it
        if up == (s > 0) and _reaches(a, b, s, gamma):
            past = _first_past(a, b, x, gamma, s, up, stop)
            stop = stop if past is None else past
        elif not leaves:
            raise ValueError(f"the orbit of {x} never passes {gamma}: it converges to a "
                             "fixed point or runs off to infinity first")
    out = _first_past(a, b, x, edge, s, True, stop) if leaves else None
    done = out is None or (stop is not None and stop <= out)
    n = stop if done else out
    if a == 1:
        return n, x + (n - 1) * b, x + n * b, done
    p = b / (1 - a)
    prev = p + a ** (n - 1) * (x - p)
    return n, prev, a * prev + b, done


def _select_pointwise(f: PLAutomorphism, g: PLAutomorphism, want_min: bool) -> PLAutomorphism:
    if f == g:
        return f
    boundaries = {x for x, _ in f.knots} | {x for x, _ in g.knots}
    f_xs = [x for x, _ in f.knots]
    g_xs = [x for x, _ in g.knots]
    f_lines = f.piece_lines()
    g_lines = g.piece_lines()

    def line_at(xs, lines, x, side):
        # piece index at x biased to the requested side
        if side < 0:
            return lines[bisect.bisect_left(xs, x)]
        return lines[bisect.bisect_right(xs, x)]

    ordered = sorted(boundaries)  # nonempty: equal knotless maps returned above
    # crossings inside every maximal region where both maps are affine
    regions = [(None, ordered[0])]
    regions.extend(zip(ordered, ordered[1:]))
    regions.append((ordered[-1], None))
    crossings = set()
    for lo, hi in regions:
        probe = lo if lo is not None else hi
        side = 1 if lo is not None else -1
        fa, fb = line_at(f_xs, f_lines, probe, side)
        ga, gb = line_at(g_xs, g_lines, probe, side)
        if fa == ga:
            continue
        x_star = (gb - fb) / (fa - ga)
        if (lo is None or x_star > lo) and (hi is None or x_star < hi):
            crossings.add(x_star)
    boundaries |= crossings
    ordered = sorted(boundaries)
    pick = min if want_min else max
    knots = tuple((x, pick(f.forward(x), g.forward(x))) for x in ordered)
    # tail slopes come from whichever branch wins beyond the last crossing
    left_probe = ordered[0] - 1
    right_probe = ordered[-1] + 1
    fl, gl = f.forward(left_probe), g.forward(left_probe)
    fr, gr = f.forward(right_probe), g.forward(right_probe)
    ls = f.left_slope if pick(fl, gl) == fl else g.left_slope
    rs = f.right_slope if pick(fr, gr) == fr else g.right_slope
    return PLAutomorphism(knots, ls, rs)


def meet(f: PLAutomorphism, g: PLAutomorphism) -> PLAutomorphism:
    """Pointwise min, with crossing points of affine pieces as new knots."""
    return _select_pointwise(f, g, want_min=True)


def join(f: PLAutomorphism, g: PLAutomorphism) -> PLAutomorphism:
    """Pointwise max, with crossing points of affine pieces as new knots."""
    return _select_pointwise(f, g, want_min=False)


def equals_pl(f: PLAutomorphism, g: PLAutomorphism) -> bool:
    """Exact map equality (canonical forms are compared structurally)."""
    return f == g


def reflect(f: PLAutomorphism) -> PLAutomorphism:
    """Conjugate by t -> -t: returns the map t -> -f(-t)."""
    knots = tuple((-x, -y) for x, y in reversed(f.knots))
    return PLAutomorphism(knots, f.right_slope, f.left_slope)
