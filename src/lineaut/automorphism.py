"""Order-preserving bijections of the line, exactly.

Every map speaks the pair protocol of :class:`Automorphism`; a Fraction is
made only where a value leaves.  :class:`PLAutomorphism` is the closed,
finitely-described map: finitely many knots with affine interpolation
between them and affine tails.  It is closed under composition, inversion,
pointwise min/max, and integer powers, all computed exactly over rationals.
Each map is validated and brought to normal form once, on integer pairs,
and keeps the result as one table of ints: its knot x-coordinates and the
line of every piece.  Constructed solutions with infinitely many affine
pieces (conjugators, x g x = f solutions, n-th roots, solutions of words
whose exponent sums are all zero) have no finite knot list: each is a tree
of nodes, a seed on one anchor block carried along orbits
(``conjugacy.OrbitTransport``), put together over a terrain
(``conjugacy._Dispatch``), composed (``_Composite``) or powered
(``_Power``).  A solution with a finite description stays PL.
:class:`ProceduralAutomorphism` only adapts a black box given as two
evaluation procedures.

Such a solution is still piecewise affine: an evaluation composes the
lines of the pieces its walks and seeds pass through.  So a node over PL
maps that is evaluated often keeps a bounded table of the exact pieces it
has met, each a closed interval, its image and its line, found by tracking
the affine germ of an evaluation beside its image (``_Germ``,
``_PieceCache``) or, on an orbit transport, carried out from the piece one
orbit block inward; both directions read it, without a lock.

Composition is written left to right everywhere in this library:
``compose(f, g)`` applies ``f`` first, so ``compose(f, g)(q) == g(f(q))``.
The ``*`` operator follows the same convention: ``(f * g)(q) == g(f(q))``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from fractions import Fraction
from math import gcd, inf
from typing import Callable

from .rational import format_rational, parse_rational

MAX_ORBIT_STEPS = 1 << 32
# Steps an orbit takes in a piece of slope other than 1 before the rest of
# its run there is computed in closed form, which costs exact powers; most
# such runs are shorter than this.  A translation piece is crossed in closed
# form at once, by floor divisions and one gcd per iterate returned.
_STEPPED_RUN = 16
# The piece cache of a solution node (``Automorphism._value``).  A node is
# evaluated plainly this many times before its cache starts: a node built for
# one check is often evaluated only a few times, and a cache would not pay.
_PLAIN_EVALUATIONS = 16
# Pieces one cache holds at most; past this, misses are evaluated plainly.
_MAX_PIECES = 1024
# A cache is dropped for good once its misses exceed twice its hits plus
# _MISS_ALLOWANCE, judged from its _JUDGED_AFTER-th lookup on (the first ones
# all miss): most points then land in pieces of their own, where tracking only costs.
_MISS_ALLOWANCE = 8
_JUDGED_AFTER = 32


# the piece table of the identity: no knots, the one line y = x; shared by
# every identity map, like all tables it is never mutated
_IDENTITY_TABLE = ([], [], [1], [1], [0], [1])


class DomainError(ValueError):
    """A partial map was evaluated outside its domain."""


_new = object.__new__
_set = object.__setattr__


def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) for d > 0, as values leave the pair protocol: one gcd,
    and the two slots set as Python 3.12's ``_from_coprime_ints`` does."""
    common = gcd(n, d)
    q = _new(Fraction)
    q._numerator, q._denominator = n // common, d // common
    return q


class _lazy:
    """``functools.cached_property`` without the lock it takes before Python
    3.12: threads racing on a first access each compute the value, and the
    last write stays.  Every use computes equal values (an inverse, a flag),
    and a node's piece cache lives on the node, not on its inverse."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Record:
    """Equality, hash, repr and immutability from the field names
    ``_fields``, for the library's value classes: instances of one class
    are equal when their fields are, and hash as the tuple of them.  Each
    class's ``__init__`` sets its fields once, in its ``__dict__`` or, in a
    class with slots, by ``_set``; any later assignment or deletion raises
    AttributeError.  Copies and pickles are rebuilt by the constructor."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _key(n: int, d: int) -> float:
    """n/d as a float, saturated past the float range; -inf when d = 0."""
    try:
        return n / d
    except (OverflowError, ZeroDivisionError):
        return inf if n > 0 and d else -inf


def _line_through(an: int, ad: int, xn: int, xd: int, yn: int, yd: int):
    """The line of slope an/ad through (xn/xd, yn/yd) as reduced ints
    ``(an, ad, bn, bd)``: intercept b = y - a x.  Denominators are positive,
    and an/ad must be reduced."""
    bn = yn * ad * xd - an * xn * yd
    bd = yd * ad * xd
    common = gcd(bn, bd)
    return an, ad, bn // common, bd // common


def _inverse_line(an: int, ad: int, bn: int, bd: int):
    """The inverse of the increasing line t -> (an/ad) t + bn/bd, reduced:
    t -> (ad/an) t - (bn ad) / (bd an)."""
    bn, bd = -bn * ad, bd * an
    common = gcd(bn, bd)
    return ad, an, bn // common, bd // common


def _tracked(nodes) -> bool:
    """Whether every one of the nodes tracks germs; anything that is not a
    library node is a black box."""
    return all(getattr(node, "_tracks", False) for node in nodes)


class _Germ:
    """The affine germ of one evaluation at a point q, as the nodes'
    ``_image`` tracks it beside the image when given one.

    ``sn/sd`` is the slope in q of the value computed so far, unreduced:
    each rule multiplies in the slope of the line it applies.  Every
    comparison that picks a piece, a case, a branch or a walk's length
    bounds the value it compares, and so q: ``below`` and ``above`` hold
    how far q may move down and up (pairs u/v with v > 0, None while
    unbounded) with each bound still met.  On that closed interval the map
    is the line of this slope through q's image: every point inside with
    q's choices gets that line, the map is continuous, and adjacent pieces
    agree where they meet.
    """

    __slots__ = ("sn", "sd", "below", "above")

    def __init__(self):
        self.sn = self.sd = 1
        self.below = self.above = None

    def scale(self, an: int, ad: int):
        if an != ad:
            self.sn *= an
            self.sd *= ad

    def bound(self, xn: int, xd: int, cn: int, cd: int, upper: bool):
        """The value so far, xn/xd, stays at most cn/cd if ``upper``, at
        least cn/cd otherwise."""
        # the room (c - x) / slope, or (x - c) / slope, as u/v
        u = (cn * xd - xn * cd) * self.sd
        v = xd * cd * self.sn
        if upper:
            room = self.above
            if room is None or u * room[1] < room[0] * v:
                self.above = u, v
        else:
            room = self.below
            if room is None or -u * room[1] < room[0] * v:
                self.below = -u, v

    def inside(self, xn: int, xd: int, bn: list, bd: list, k: int):
        """xn/xd stays in the closed piece k between the sorted boundaries
        bn/bd: from boundary k-1 (if k > 0) to boundary k (if there is one);
        ``bound`` twice, inline."""
        xs, xsd, xds = xn * self.sd, xd * self.sd, xd * self.sn
        if k:
            cd = bd[k - 1]
            u, v = xs * cd - bn[k - 1] * xsd, cd * xds
            room = self.below
            if room is None or u * room[1] < room[0] * v:
                self.below = u, v
        if k < len(bn):
            cd = bd[k]
            u, v = bn[k] * xsd - xs * cd, cd * xds
            room = self.above
            if room is None or u * room[1] < room[0] * v:
                self.above = u, v

    def stop(self, prev, last, an: int, ad: int, gamma, up: bool):
        """The last step, of slope an/ad from the pair prev to the pair last,
        of a walk toward gamma (``PLAutomorphism._iterate``), whose stop test
        holds for the germ: prev is not past gamma, and last is past it (or
        not past it, when the walk stopped at its count)."""
        self.bound(*prev, *gamma, up)
        self.scale(an, ad)
        past = (last[0] * gamma[1] > gamma[0] * last[1]) == up
        self.bound(*last, *gamma, up != past)

    def point(self):
        """An exact special case: the germ is q alone, a zero-width piece."""
        self.below = self.above = (0, 1)


class _PieceCache:
    """The exact pieces of one node found so far, for ``forward`` and
    ``backward`` both: ``table = (xkeys, ykeys, entries)``.  Entry ``(ln,
    ld, hn, hd, yln, yld, yhn, yhd, an, ad, bn, bd)`` is a closed interval (a
    point for an exact special case, ``_Germ.point``), its image and the
    node's line there, y = (an/ad) x + bn/bd, reduced; an unbounded end is
    (-1, 0) or (1, 0), below or above every pair when cross-multiplied.  A
    derived entry's ends are reduced; a tracked entry's are left as computed.
    Entries are sorted both ways, with disjoint interiors; the keys are
    their lower ends as floats (``_key``).  The table is copy-on-write: a
    writer swaps in new lists under the lock, so readers take no lock and
    never see keys and entries out of step.  The counters steer
    ``Automorphism._value``; a lost increment only shifts it.
    """

    __slots__ = ("hits", "misses", "table", "lock")

    def __init__(self):
        self.hits = self.misses = 0
        self.table = ([], [], [])
        self.lock = threading.Lock()

    def add(self, n: int, d: int, yn: int, yd: int, germ: _Germ, back: bool, derived=False):
        """Insert the piece of n/d that ``germ`` found, n/d's image being
        yn/yd (under the inverse if ``back``); a ``derived`` piece has its
        ends reduced.  The slot is found by n/d itself, and the piece is
        clipped to the gap its neighbours leave, so the table stays disjoint
        whatever the germ: a derived germ is no cell of one evaluation."""
        below, above = germ.below, germ.above
        common = gcd(germ.sn, germ.sd)
        an, ad = germ.sn // common, germ.sd // common
        # each end q -+ u/v and its image y -+ a u/v, unreduced (they are
        # only compared); an unbounded end stays one
        if below is None:
            lo = ylo = (-1, 0)
        else:
            u, v = below
            lo = n * v - u * d, d * v
            ylo = yn * ad * v - an * u * yd, yd * ad * v
        if above is None:
            hi = yhi = (1, 0)
        else:
            u, v = above
            hi = n * v + u * d, d * v
            yhi = yn * ad * v + an * u * yd, yd * ad * v
        line = _line_through(an, ad, n, d, yn, yd)
        if back:  # the piece of the inverse: its image is the x-interval
            lo, hi, ylo, yhi, line, n, d = ylo, yhi, lo, hi, _inverse_line(*line), yn, yd
        with self.lock:
            xkeys, ykeys, entries = self.table
            if len(entries) >= _MAX_PIECES:
                return
            k = bisect_right(xkeys, _key(n, d))
            while k and n * entries[k - 1][1] < entries[k - 1][0] * d:
                k -= 1  # a float tie: that piece starts above n/d
            if k:
                prev = entries[k - 1]
                if n * prev[3] <= prev[2] * d:
                    return  # another evaluation has cached this piece meanwhile
                if lo[0] * prev[3] < prev[2] * lo[1]:
                    lo, ylo = prev[2:4], prev[6:8]
            if k < len(entries):
                after = entries[k]
                if after[0] * hi[1] < hi[0] * after[1]:
                    hi, yhi = after[:2], after[4:6]
            if derived:
                lo, hi, ylo, yhi = [(u // c, v // c) for u, v in (lo, hi, ylo, yhi)
                                    for c in (gcd(u, v),)]
            xkeys, ykeys, entries = xkeys[:], ykeys[:], entries[:]
            xkeys.insert(k, _key(*lo))
            ykeys.insert(k, _key(*ylo))
            entries.insert(k, (*lo, *hi, *ylo, *yhi, *line))
            self.table = xkeys, ykeys, entries


def _lookup(keys: list, entries: list, n: int, d: int, back: bool):
    """The entry of one table snapshot that holds n/d (d > 0), by its
    x-interval, or its y-interval if ``back``; None if none does.  Bisects
    the keys by n/d as a float: rounding is monotone, so every entry past
    the candidate starts above n/d.  On a float tie it steps down while the
    candidate starts above n/d, and it answers only if the exact ends hold
    n/d."""
    try:
        q = n / d
    except OverflowError:  # past the float range
        q = inf if n > 0 else -inf
    k = bisect_right(keys, q)
    while k:
        k -= 1
        entry = entries[k]
        ln, ld, hn, hd = entry[4:8] if back else entry[:4]
        if n * ld < ln * d:
            continue  # a float tie: this piece starts above n/d
        return entry if n * hd <= hn * d else None
    return None


class Automorphism:
    """An increasing bijection of the line in the pair protocol.  A subclass
    gives one evaluation function, ``_image(n, d, back=False, germ=None)``:
    the image of n/d (d > 0), or its preimage when ``back``, as an unreduced
    pair with positive denominator and a piece index.  A node whose tree is
    made of this library's node classes over PL maps says so by ``_tracks``,
    and its ``_image`` also tracks the point's affine germ (``_Germ``) when
    given one.  The rest is defined here once: a node's inverse is a view
    that flips ``back`` (``_Inverse``; a PL map builds its own), and a
    tracking node keeps one piece cache (``_PieceCache``) for ``forward``
    and ``backward`` (``_value``); a PL map reads its own table instead.
    """

    # whether this node's tree tracks germs; any other map is a black box
    _tracks = False
    # the node's piece cache once it has one, and its evaluations so far
    # until it decides, once, whether to keep one (None after that)
    _cache = None
    _seen = 0

    def forward(self, q: Fraction) -> Fraction:
        if type(q) is not Fraction:
            q = parse_rational(q)
        return self._value(q._numerator, q._denominator, False)

    def backward(self, q: Fraction) -> Fraction:
        if type(q) is not Fraction:
            q = parse_rational(q)
        return self._value(q._numerator, q._denominator, True)

    __call__ = forward

    def _value(self, n: int, d: int, back: bool) -> Fraction:
        """The image of n/d (d > 0), under the inverse if ``back``, through
        the piece cache.

        The first ``_PLAIN_EVALUATIONS`` evaluations of a node are plain.
        Then the node decides, once and from its tree, whether it keeps a
        cache: a tree with a black box never tracks a germ, so it calls no
        oracle more often than its plain evaluation does.  A lookup is
        ``_lookup`` on one table snapshot, answering by the line or its
        inverse.  A miss first asks the node to derive the point's piece
        from the same snapshot (``_derive``), and tracks its germ only when
        the node cannot; either way it caches the piece, up to
        ``_MAX_PIECES``, and the miss budget (``_MISS_ALLOWANCE``), which
        counts a derived answer as a miss, may drop the cache for good.
        Counts and the cache are written straight into the node's
        ``__dict__``, as a record (``_Record``) refuses assignment; threads
        that start the cache at once share one.
        """
        cache = self._cache
        if cache is None:
            seen = self._seen
            if seen is None:
                cache = self._cache  # started by another thread meanwhile, or None
            elif seen < _PLAIN_EVALUATIONS:
                self.__dict__["_seen"] = seen + 1
            else:
                if self._tracks:  # threads that start it at once share one cache
                    cache = self.__dict__.setdefault("_cache", _PieceCache())
                self.__dict__["_seen"] = None
        if cache is not None:
            xkeys, ykeys, entries = cache.table
            keys = ykeys if back else xkeys
            # ``_lookup``, inline: the call would add about 14% to a hit
            try:
                q = n / d
            except OverflowError:  # past the float range
                q = inf if n > 0 else -inf
            k = bisect_right(keys, q)
            while k:
                k -= 1
                if back:
                    _, _, _, _, ln, ld, hn, hd, an, ad, bn, bd = entries[k]
                else:
                    ln, ld, hn, hd, _, _, _, _, an, ad, bn, bd = entries[k]
                if n * ld < ln * d:
                    continue  # a float tie: this piece starts above n/d
                if n * hd <= hn * d:
                    cache.hits += 1
                    if back:
                        return _fraction(ad * (n * bd - bn * d), an * bd * d)
                    return _fraction(an * n * bd + bn * ad * d, ad * d * bd)
                break
            misses = cache.misses = cache.misses + 1
            if misses + cache.hits >= _JUDGED_AFTER and misses > 2 * cache.hits + _MISS_ALLOWANCE:
                self.__dict__["_cache"] = None
            elif len(entries) < _MAX_PIECES:
                found = self._derive(n, d, back, entries, keys)
                if found is None:
                    germ = _Germ()
                    yn, yd, _ = self._image(n, d, back, germ)
                else:
                    yn, yd, germ = found
                cache.add(n, d, yn, yd, germ, back, found is not None)
                return _fraction(yn, yd)
        n, d, _ = self._image(n, d, back)
        return _fraction(n, d)

    def _derive(self, n: int, d: int, back: bool, entries: list, keys: list):
        """``(yn, yd, germ)`` at n/d as ``_image`` gives them, derived from a
        table snapshot read as ``_lookup`` reads it, or None: only an orbit
        transport can derive (``OrbitTransport._derive``)."""
        return None

    def __mul__(self, other):
        return compose(self, other)

    def __invert__(self):
        return self._inverse

    def __pow__(self, n: int):
        return power(self, n)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({getattr(self, 'description', '')})"


class _Inverse(Automorphism):
    """``inverse(x)`` of a node x that is not PL: x read backward, sharing
    x's ``_value``, so its piece cache and plain count.  Its inverse is x;
    x keeps no link back, as the cycle would keep a solution tree alive
    until the cyclic collector runs."""

    def __init__(self, x):
        self.x, self.description = x, f"inverse({getattr(x, 'description', '')})"

    def _image(self, n: int, d: int, back=False, germ=None):
        return self.x._image(n, d, not back, germ)

    def _value(self, n: int, d: int, back: bool) -> Fraction:
        return self.x._value(n, d, not back)

    _inverse = property(lambda self: self.x)
    _tracks = property(lambda self: self.x._tracks)


Automorphism._inverse = property(_Inverse)  # any node's but a PL map's


class PLAutomorphism(_Record, Automorphism):
    """Piecewise-affine increasing bijection of the line.

    ``knots`` are (x, y) pairs with strictly increasing x and strictly
    increasing y; between consecutive knots the map interpolates affinely,
    and beyond the first/last knot it continues with ``left_slope`` /
    ``right_slope``.  Both slopes must be positive, which together with knot
    monotonicity makes the map a continuous increasing bijection by
    construction.  An empty knot tuple denotes the identity.

    Instances are immutable and canonical: redundant (collinear) knots are
    removed on construction, so ``==`` compares the induced maps.

    Construction validates and canonicalizes on integer pairs and keeps the
    result as the piece table ``_table``, which evaluation, the inverse,
    ``compose``, ``meet``/``join`` and ``support_decompose`` all read: knot
    x-coordinates and the line of every piece as lists of ints.  The knots
    and slopes stay Fractions, so equality, hashing, repr and JSON see the
    canonical map only.
    """

    _fields = ("knots", "left_slope", "right_slope")
    # a PL map is its own finite piece table: it tracks germs, and its
    # ``_value`` reads the table with no cache
    _tracks = True

    def __init__(self, knots: tuple = (), left_slope: Fraction = Fraction(1),
                 right_slope: Fraction = Fraction(1)):
        knots = tuple((parse_rational(x), parse_rational(y)) for x, y in knots)
        ls = parse_rational(left_slope)
        rs = parse_rational(right_slope)
        if ls <= 0 or rs <= 0:
            raise ValueError("tail slopes must be positive; got "
                             f"{format_rational(ls)}, {format_rational(rs)}")
        if not knots:
            if ls != 1 or rs != 1:
                raise ValueError("a map without knots must be the identity; got tail slopes "
                                 f"{format_rational(ls)}, {format_rational(rs)}")
            self._fill((), ls, rs, _IDENTITY_TABLE, _IDENTITY_TABLE[:2])
            return
        xn, xd = [x.numerator for x, _ in knots], [x.denominator for x, _ in knots]
        yn, yd = [y.numerator for _, y in knots], [y.denominator for _, y in knots]
        # lines[p] is piece p: the left tail, the chord of knots p-1 and p, the right tail
        lines = [_line_through(ls.numerator, ls.denominator, xn[0], xd[0], yn[0], yd[0])]
        for k in range(1, len(knots)):
            dx = xn[k] * xd[k - 1] - xn[k - 1] * xd[k]
            dy = yn[k] * yd[k - 1] - yn[k - 1] * yd[k]
            if dx <= 0:
                raise ValueError("knot x-coordinates must be strictly increasing: "
                                 f"{format_rational(knots[k - 1][0])} >= "
                                 f"{format_rational(knots[k][0])}")
            if dy <= 0:
                raise ValueError("knot y-coordinates must be strictly increasing: "
                                 f"{format_rational(knots[k - 1][1])} >= "
                                 f"{format_rational(knots[k][1])}")
            an, ad = dy * xd[k - 1] * xd[k], dx * yd[k - 1] * yd[k]
            common = gcd(an, ad)
            lines.append(_line_through(an // common, ad // common, xn[k], xd[k], yn[k], yd[k]))
        lines.append(_line_through(rs.numerator, rs.denominator, xn[-1], xd[-1], yn[-1], yd[-1]))
        # normal form: boundaries of maximal affine pieces only
        kept = [k for k in range(len(knots)) if lines[k] != lines[k + 1]]
        if not kept:
            # globally affine: anchored at x = 0, so t -> t + c keeps the knot (0, c)
            line = lines[0]
            if line == (1, 1, 0, 1):
                self._fill((), ls, rs, _IDENTITY_TABLE, _IDENTITY_TABLE[:2])
                return
            knots = ((Fraction(0), _fraction(line[2], line[3])),)
            xn, xd, yn, yd = [0], [1], [line[2]], [line[3]]
            lines, rs = [line] * 2, ls
        elif len(kept) < len(knots):
            knots = tuple(knots[k] for k in kept)
            xn, xd = [xn[k] for k in kept], [xd[k] for k in kept]
            yn, yd = [yn[k] for k in kept], [yd[k] for k in kept]
            lines = [lines[0]] + [lines[k + 1] for k in kept]
        self._fill(knots, ls, rs, (xn, xd, *map(list, zip(*lines))), (yn, yd))

    def _fill(self, knots, ls, rs, table, knot_ys):
        """Set the fields of a canonical map, its piece table ``(bxn, bxd,
        an, ad, bn, bd)`` and its knots' y-coordinates as int lists
        ``knot_ys``: piece p is ``y = a[p] x + b[p]`` and covers ``[bx[p-1],
        bx[p]]``, all reduced with positive denominators.  A globally affine
        map has its one line twice, either side of its anchor at x = 0."""
        # straight into __dict__: a record refuses assignment
        self.__dict__.update(knots=knots, left_slope=ls, right_slope=rs, _table=table,
                             _knot_ys=knot_ys)

    @classmethod
    def identity(cls) -> "PLAutomorphism":
        return cls()

    @classmethod
    def translation(cls, c) -> "PLAutomorphism":
        return cls.affine(1, c)

    @classmethod
    def affine(cls, a, b) -> "PLAutomorphism":
        """The global affine map t -> a*t + b (a > 0)."""
        a = parse_rational(a)
        b = parse_rational(b)
        if a == 1 and b == 0:
            return cls()
        return cls(((Fraction(0), b),), a, a)

    @property
    def is_identity(self) -> bool:
        return not self.knots

    def piece_lines(self):
        """(slope, intercept) per affine piece, tails included."""
        _, _, an, ad, bn, bd = self._table
        return [(Fraction(a, c), Fraction(b, d)) for a, c, b, d in zip(an, ad, bn, bd)]

    @_lazy
    def _inverse(self) -> "PLAutomorphism":
        """The inverse as a PL map of its own, for ``inverse`` and ``power``;
        evaluation reads this map's table backward.  Built from the ints of the
        table and ``_knot_ys``, with no second validation: the knots swapped,
        the slope lists shared, swapped, each intercept -b/a by one gcd."""
        if not self.knots:
            return self
        xn, xd, an, ad, bn, bd = self._table
        ibn, ibd = [], []
        for a, c, b, e in zip(an, ad, bn, bd):
            n, d = -b * c, e * a
            common = gcd(n, d)
            ibn.append(n // common)
            ibd.append(d // common)
        if len(xn) == 1 and an[0] == an[1] and ad[0] == ad[1]:
            # globally affine (one knot, no bend): anchored at x = 0 again
            knots = ((Fraction(0), _fraction(ibn[0], ibd[0])),)
            bx, ys = ([0], [1]), (ibn[:1], ibd[:1])
        else:
            knots, bx, ys = tuple([(y, x) for x, y in self.knots]), self._knot_ys, (xn, xd)
        inv = _new(PLAutomorphism)
        inv._fill(knots, _fraction(ad[0], an[0]), _fraction(ad[-1], an[-1]),
                  (*bx, ad, an, ibn, ibd), ys)
        return inv

    def _value(self, n: int, d: int, back: bool) -> Fraction:
        n, d, _ = self._image(n, d, back)
        return _fraction(n, d)

    def _image(self, xn: int, xd: int, back=False, germ=None):
        """Image of xn/xd (xd > 0), or its preimage when ``back``, as an
        unreduced pair with positive denominator, and the index of the piece
        that gave it; with a ``germ``, xn/xd stays in that closed piece.

        A binary search over the knots, or backward over their ys, picks the
        piece; adjacent pieces agree at a shared knot.  Backward, the piece's
        line y = (a/c) x + b/e inverts in place: slope c/a, intercept -bc/(ea).
        """
        bxn, bxd, an, ad, bn, bd = self._table
        if back:
            (bxn, bxd), an, ad = self._knot_ys, ad, an
        lo = 0
        hi = len(bxn)
        while lo < hi:
            mid = (lo + hi) // 2
            if bxn[mid] * xd < xn * bxd[mid]:
                lo = mid + 1
            else:
                hi = mid
        a, c, b, e = an[lo], ad[lo], bn[lo], bd[lo]
        if germ is not None:
            germ.inside(xn, xd, bxn, bxd, lo)
            germ.scale(a, c)
        return (a * (xn * e - b * xd) if back else a * xn * e + b * c * xd), c * xd * e, lo

    def _iterate(self, pn: int, pd: int, count=None, gamma=None, up=True, trail=None,
                 germ=None, back=False):
        """The orbit primitive: iterate this map, or its inverse when
        ``back``, from pn/pd (pd > 0).

        Stops after ``count`` steps or at the first iterate past the pair
        ``gamma``, whichever comes first; past means above gamma when
        ``up``, at or below it otherwise.  Returns ``(steps, previous
        iterate, last iterate)``, the very values that stepping gives, each
        iterate as a ``(numerator, denominator)`` pair with positive
        denominator, reduced unless it is the caller's start, which comes
        back as given.  The piece table is unpacked once per walk, and each
        step finds its piece by an inline bisection, backward as ``_image``
        does.  The map is affine on each piece, so a run through one piece
        has a closed form on integer pairs (``_affine_run``; backward, on the
        inverted line, reduced by one gcd).  A translation piece takes it at
        once, for a few floor divisions; any other piece after the orbit has
        stayed ``_STEPPED_RUN`` steps in it, for O(log n) exact powers.
        ``trail``, when a list, gets the iterates appended as reduced pairs
        while they come one step at a time.  ``germ``, when given, tracks the
        walk's germ (``_Germ``): each step's point stays in its piece, and so
        do the first and the last point a closed-form run applies its line
        to, which bounds every point between, as iterates of a line move
        monotonically; with gamma, the walk's stop test holds.

        With gamma given, raises ValueError when the start is a fixed point
        or the orbit is found never to pass gamma: it converges to a fixed
        point or runs off to infinity first, so gamma lies in another
        component.
        """
        if count == 0:
            return 0, (pn, pd), (pn, pd)
        gn, gd = gamma or (0, 1)
        bxn, bxd, an, ad, bn, bd = self._table
        if back:
            (bxn, bxd), an, ad = self._knot_ys, ad, an
        knots = len(bxn)
        steps = run = 0
        piece = None
        while True:
            # the piece of pn/pd: least k with pn/pd <= knot k, as in _image
            lo, hi = 0, knots
            while lo < hi:
                mid = (lo + hi) // 2
                if bxn[mid] * pd < pn * bxd[mid]:
                    lo = mid + 1
                else:
                    hi = mid
            run = run + 1 if lo == piece else 1
            piece = lo
            a, c, b, e = an[lo], ad[lo], bn[lo], bd[lo]
            if a == c or run > _STEPPED_RUN:
                if germ is not None:
                    germ.inside(pn, pd, bxn, bxd, lo)
                n, prev, (pn, pd), done = _affine_run(
                    _inverse_line(c, a, b, e) if back else (a, c, b, e), (pn, pd),
                    (bxn[lo - 1], bxd[lo - 1]) if lo else None,
                    (bxn[lo], bxd[lo]) if lo < knots else None,
                    None if count is None else count - steps, gamma, up)
                steps += n
                if germ is not None:
                    if n > 1:
                        germ.scale(a ** (n - 1), c ** (n - 1))
                        germ.inside(*prev, bxn, bxd, lo)
                    if done and gamma is not None:
                        germ.stop(prev, (pn, pd), a, c, gamma, up)
                    elif a != c:
                        germ.sn *= a
                        germ.sd *= c
                if trail is not None:
                    if n == 1:
                        trail.append((pn, pd))
                    else:
                        trail = None
                if done:
                    return steps, prev, (pn, pd)
                continue
            cn, cd = (a * (pn * e - b * pd) if back else a * pn * e + b * c * pd), c * pd * e
            if gamma is not None and cn * pd == pn * cd:
                raise ValueError("fixed point reached during orbit iteration")
            steps += 1
            common = gcd(cn, cd)
            cn, cd = cn // common, cd // common
            if trail is not None:
                trail.append((cn, cd))
            if steps == count or (gamma is not None and (cn * gd > gn * cd) == up):
                if germ is not None:
                    germ.inside(pn, pd, bxn, bxd, lo)
                    if gamma is None:
                        germ.scale(a, c)
                    else:
                        germ.stop((pn, pd), (cn, cd), a, c, gamma, up)
                return steps, (pn, pd), (cn, cd)
            if germ is not None:
                germ.inside(pn, pd, bxn, bxd, lo)
                germ.sn *= a  # a != c: this piece is no translation
                germ.sd *= c
            pn, pd = cn, cd

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


class ProceduralAutomorphism(_Record, Automorphism):
    """A black box given by exact evaluation procedures, in the pair protocol.

    ``forward_fn`` and ``backward_fn`` must be exact mutual inverses on every
    rational, and each call must terminate after finitely many evaluations of
    whatever underlying maps the procedure consults.
    """

    _fields = ("forward_fn", "backward_fn", "description")
    __repr__ = Automorphism.__repr__

    def __init__(self, forward_fn: Callable[[Fraction], Fraction],
                 backward_fn: Callable[[Fraction], Fraction], description: str = "procedural"):
        self.__dict__.update(forward_fn=forward_fn, backward_fn=backward_fn,
                             description=description)

    def _image(self, n: int, d: int, back=False, germ=None):
        q = (self.backward_fn if back else self.forward_fn)(_fraction(n, d))
        return q.numerator, q.denominator, 0


class _Composite(Automorphism):
    """``parts`` applied left to right, or backward right to left; each
    pair is reduced once before the next part."""

    def __init__(self, parts: tuple, description: str):
        self.parts, self.description = parts, description
        self._orders = (parts, parts[::-1])

    def _image(self, n: int, d: int, back=False, germ=None):
        parts = self._orders[back]
        n, d, _ = parts[0]._image(n, d, back, germ)
        for part in parts[1:]:
            common = gcd(n, d)
            n, d, _ = part._image(n // common, d // common, back, germ)
        return n, d, 0

    @_lazy
    def _tracks(self) -> bool:
        return _tracked(self.parts)


class _Power(Automorphism):
    """g^k on integer pairs: one orbit walk of |k| steps (``_walk``), in
    closed form where it can when g is PL, stepped otherwise."""

    def __init__(self, g, k: int, description=None):
        self.g, self.k, self.description = g, k, description or f"power({k})"

    def _image(self, n: int, d: int, back=False, germ=None):
        n, d = _walk(self.g, n, d, (self.k < 0) != back, count=abs(self.k), germ=germ)[2]
        return n, d, 0

    @_lazy
    def _tracks(self) -> bool:
        return isinstance(self.g, PLAutomorphism)


def _node(f) -> Automorphism:
    """f itself, or a black box adapted by its two procedures."""
    return f if isinstance(f, Automorphism) else ProceduralAutomorphism(f.forward, f.backward)


def evaluate(f, x) -> Fraction:
    """Image of x under f (same as ``f.forward(x)``)."""
    return f.forward(parse_rational(x))


def inverse(f):
    """Group inverse: a PL map's knots reflected, any other node read backward."""
    if isinstance(f, Automorphism):
        return f._inverse
    return ProceduralAutomorphism(f.backward, f.forward, "inverse")


def compose(f, g):
    """Apply f, then g.  PL inputs give an exact PL result.

    The knots of a PL result lie at f's knot xs and at f^-1 of g's knot xs;
    both lists are sorted, so one merge orders them, comparing integer
    pairs.  At f's knot (x, y) the image is g(y), one piece search in g; at
    x = f^-1(u) for g's knot (u, v) it is v itself.
    """
    if isinstance(f, PLAutomorphism) and isinstance(g, PLAutomorphism):
        if f.is_identity:
            return g
        if g.is_identity:
            return f
        fxn, fxd = f._table[:2]
        fyn, fyd = f._knot_ys
        knots = []
        i, m = 0, len(f.knots)

        def through_f(k):
            yn, yd, _ = g._image(fyn[k], fyd[k])
            knots.append((f.knots[k][0], _fraction(yn, yd)))

        for (u, v), un, ud in zip(g.knots, *g._table[:2]):
            pn, pd, _ = f._image(un, ud, True)
            while i < m and fxn[i] * pd < pn * fxd[i]:
                through_f(i)
                i += 1
            if i < m and fxn[i] * pd == pn * fxd[i]:
                knots.append((f.knots[i][0], v))
                i += 1
            else:
                knots.append((_fraction(pn, pd), v))
        for k in range(i, m):
            through_f(k)
        return PLAutomorphism(tuple(knots), f.left_slope * g.left_slope,
                              f.right_slope * g.right_slope)
    return _Composite((_node(f), _node(g)), "composite")


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
    return _Power(f, n)


def apply_power(f, n: int, q: Fraction) -> Fraction:
    """Evaluate f^n at q: through the orbit primitive for a PL map, by |n|
    single applications for any other map (black-box friendly)."""
    return _Power(f, n).forward(q)


def _walk(g, qn: int, qd: int, backward: bool = False, count=None, gamma=None, up=True,
          trail=None, germ=None):
    """The one orbit walk: iterate g, or g^-1 when ``backward``, from qn/qd.

    Takes the arguments and gives the result of ``PLAutomorphism._iterate``,
    which does the work for PL maps: points and the target gamma are
    ``(numerator, denominator)`` pairs with positive denominators.  Any
    other map is stepped in Fractions, converted at this boundary, gamma
    included; with gamma it stops with ValueError at an exact fixed point,
    and without a count after ``MAX_ORBIT_STEPS`` steps.  A PL walk backward
    reads g's own table, and only a PL walk tracks a ``germ``.
    """
    if isinstance(g, PLAutomorphism):
        return g._iterate(qn, qd, count, gamma, up, trail, germ, backward)
    if count == 0:
        return 0, (qn, qd), (qn, qd)
    if gamma is not None:
        gamma = Fraction(*gamma)
    step = g.backward if backward else g.forward
    prev = cur = _fraction(qn, qd)
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


def _sum(x, y):
    """x + y for reduced pairs, reduced.  The gcds are taken against the
    denominators' common factor, so they stay cheap when one pair is small."""
    (xn, xd), (yn, yd) = x, y
    common = gcd(xd, yd)
    if common == 1:
        return xn * yd + yn * xd, xd * yd
    xd //= common
    n = xn * (yd // common) + yn * xd
    common = gcd(n, common)
    return n // common, xd * (yd // common)


def _product(x, y):
    """x * y for reduced pairs, reduced, by crosswise gcds."""
    (xn, xd), (yn, yd) = x, y
    g1, g2 = gcd(xn, yd), gcd(yn, xd)
    return (xn // g1) * (yn // g2), (xd // g2) * (yd // g1)


def _fixed_point(an: int, ad: int, bn: int, bd: int):
    """The fixed point b / (1 - a) of a line with slope a = an/ad != 1, reduced."""
    n, d = bn * ad, bd * (ad - an)
    common = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // common, d // common


def _reaches(line, s: int, c) -> bool:
    """Whether iterates under the line ``(an, ad, bn, bd)``, t -> (an/ad) t +
    bn/bd, that move in direction s ever get past the pair c: always, unless
    they converge to the fixed point of the line (slope below 1) and c is
    not before it."""
    an, ad, bn, bd = line
    # s (c - p) for the fixed point p = bn ad / (bd (ad - an)), times a
    # positive denominator
    return an >= ad or s * (c[0] * bd * (ad - an) - bn * ad * c[1]) < 0


def _first_past(line, x, c, s: int, strict: bool, cap=None):
    """Least n in 1..cap with s (x_n - c) > 0, or >= 0 unless ``strict``, where
    x_n is the n-th iterate of the pair x under the line ``(an, ad, bn, bd)``
    of slope other than 1 and the iterates move in direction s and reach the
    pair c (``_reaches``); None when n exceeds cap.

    x_n - p = a^n (x - p) about the fixed point p of the line, and doubling
    plus bisection over exact powers of a finds n, never trying a power
    above cap.
    """
    an, ad, bn, bd = line
    (xn, xd), (cn, cd) = x, c
    pn, pd = _fixed_point(an, ad, bn, bd)
    # s (x - p) and s (c - p), both over xd cd pd
    u, k = s * (xn * pd - pn * xd) * cd, s * (cn * pd - pn * cd) * xd

    def reached(n):
        v, w = an ** n * u, ad ** n * k
        return v > w if strict else v >= w

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


def _affine_run(line, x, lo, hi, count, gamma, up: bool):
    """The iterates of the pair x under the line ``(an, ad, bn, bd)`` while
    they stay in [lo, hi] (knot pairs, None for an unbounded end), in closed
    form.

    Returns ``(n, x_(n-1), x_n, done)``: ``done`` when x_n ends the walk of
    ``PLAutomorphism._iterate`` (the count is reached or x_n is past the
    pair gamma), otherwise x_n is the first iterate out of [lo, hi].
    Raises ValueError when gamma is given and the iterates neither pass it
    nor leave the piece, whatever the count: no walk from x ever passes
    gamma.

    On a translation piece x may be unreduced (a seed's output): x_k =
    (u + k v) / w over the one denominator w = xd bd, each stop is a floor
    division, and each iterate returned other than x itself is reduced by
    one gcd.  Any other slope needs x reduced, and finds its stops by
    ``_first_past`` and its iterates by exact powers about the fixed point
    of the line.
    """
    an, ad, bn, bd = line
    xn, xd = x
    # (a - 1) x + b, times the positive ad xd bd
    move = (an - ad) * xn * bd + bn * ad * xd
    if move == 0:
        if gamma is not None:
            raise ValueError("fixed point reached during orbit iteration")
        return count, x, x, True
    s = 1 if move > 0 else -1
    edge = hi if s > 0 else lo
    stop = count
    if an == ad:
        u, v, w = xn * bd, bn * xd, xd * bd
        # x_k = (u + k v) / w is past the pair c, s (x_k - c) > 0, once
        # k |v| cd > s (cn w - u cd): one floor division finds the least k
        if gamma is not None:
            gn, gd = gamma
            if up == (s > 0):
                # moving up, the walk stops above gamma; moving down, at or below it
                ahead, step = s * (gn * w - u * gd), s * v * gd
                past = max(ahead // step + 1 if up else -(-ahead // step), 1)
                if stop is None or past < stop:
                    stop = past
            elif edge is None:
                raise ValueError(f"the orbit of {format_rational(Fraction(*x))} never passes "
                                 f"{format_rational(Fraction(*gamma))}: it runs off to "
                                 "infinity first")
        out = None if edge is None else s * (edge[0] * w - u * edge[1]) // (s * v * edge[1]) + 1
        done = out is None or (stop is not None and stop <= out)
        n = stop if done else out
        if n == 1:
            prev = x
        else:
            m = u + (n - 1) * v
            common = gcd(m, w)
            prev = m // common, w // common
        m = u + n * v
        common = gcd(m, w)
        return n, prev, (m // common, w // common), done
    leaves = edge is not None and _reaches(line, s, edge)
    if gamma is not None:
        # moving up, the walk stops above gamma; moving down, at or below it
        if up == (s > 0) and _reaches(line, s, gamma):
            past = _first_past(line, x, gamma, s, up, stop)
            stop = stop if past is None else past
        elif not leaves:
            raise ValueError(f"the orbit of {format_rational(Fraction(*x))} never passes "
                             f"{format_rational(Fraction(*gamma))}: it converges to a fixed "
                             "point or runs off to infinity first")
    out = _first_past(line, x, edge, s, True, stop) if leaves else None
    done = out is None or (stop is not None and stop <= out)
    n = stop if done else out
    # x_(n-1) = p + a^(n-1) (x - p) about the fixed point p; x_n is one more step
    pn, pd = _fixed_point(an, ad, bn, bd)
    prev = _sum((pn, pd), _product((an ** (n - 1), ad ** (n - 1)), _sum(x, (-pn, pd))))
    return n, prev, _sum(_product((an, ad), prev), (bn, bd)), done


def _select_pointwise(f: PLAutomorphism, g: PLAutomorphism, want_min: bool) -> PLAutomorphism:
    if f == g:
        return f
    fxn, fxd, fan, fad, fbn, fbd = f._table
    gxn, gxd, gan, gad, gbn, gbd = g._table
    # the knot xs of both maps in order, and before each of them and after
    # the last the crossing of f's and g's lines, if it lies in that region
    # (the points are nonempty: equal knotless maps returned above)
    points = []
    lo, i, j = None, 0, 0
    while True:
        if i < len(fxn) and (j == len(gxn) or fxn[i] * gxd[j] <= gxn[j] * fxd[i]):
            hi = fxn[i], fxd[i]
        else:
            hi = (gxn[j], gxd[j]) if j < len(gxn) else None
        # f - g on (lo, hi) is (fa - ga) t + (fb - gb); its root as cn/cd
        cn = (gbn[j] * fbd[i] - fbn[i] * gbd[j]) * fad[i] * gad[j]
        cd = (fan[i] * gad[j] - gan[j] * fad[i]) * fbd[i] * gbd[j]
        if cd:
            if cd < 0:
                cn, cd = -cn, -cd
            if ((lo is None or lo[0] * cd < cn * lo[1])
                    and (hi is None or cn * hi[1] < hi[0] * cd)):
                common = gcd(cn, cd)
                points.append((cn // common, cd // common))
        if hi is None:
            break
        points.append(hi)
        lo = hi
        if i < len(fxn) and (fxn[i], fxd[i]) == hi:
            i += 1
        if j < len(gxn) and (gxn[j], gxd[j]) == hi:
            j += 1

    def f_wins(n, d):
        # whether f(n/d) is picked over g(n/d), f on a tie
        yn, yd, _ = f._image(n, d)
        zn, zd, _ = g._image(n, d)
        return (yn * zd <= zn * yd) == want_min or yn * zd == zn * yd

    knots = []
    for n, d in points:
        yn, yd, _ = (f if f_wins(n, d) else g)._image(n, d)
        knots.append((Fraction(n, d), Fraction(yn, yd)))
    # tail slopes come from whichever map wins beyond the first and last point
    (ln, ld), (rn, rd) = points[0], points[-1]
    ls = f.left_slope if f_wins(ln - ld, ld) else g.left_slope
    rs = f.right_slope if f_wins(rn + rd, rd) else g.right_slope
    return PLAutomorphism(tuple(knots), ls, rs)


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
