"""Conjugacy testing and effective conjugator construction.

Two conjugate maps have order-isomorphic terrains, and conversely a terrain
isomorphism can be upgraded to an explicit conjugator: each pair of matched
support components is bridged block by block along the anchor orbit, each
pair of matched fixed intervals by a direct affine or translation map.  The
result is a tree of pair-protocol nodes (``automorphism.Automorphism``), not
a finite knot list: its graph has infinitely many affine pieces accumulating
at component boundaries.

Direction convention (important): ``conjugate_on_component(g, f, I, J, ...)``
takes ``I`` from the support of ``g`` and ``J`` from the support of ``f`` and
returns x with ``f = x^-1 g x`` on ``J``; equivalently x transports the
g-orbit structure of I onto the f-orbit structure of J.  The same convention
is used by :func:`solve_conjugacy`, whose result h satisfies ``f = h^-1 g h``
exactly at every rational.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd
from typing import Optional

from .automorphism import (
    Automorphism,
    DomainError,
    PLAutomorphism,
    _Germ,
    _Record,
    _line_through,
    _fraction,
    _lazy,
    _lookup,
    _set,
    _tracked,
    _walk,
    compose,
    inverse,
)
from .oracle import CallCounter
from .rational import format_rational, is_finite
from .terrain import Color, TerrainElement, support_decompose

LINEAR = "linear"
FAST_FORWARD = "fast_forward"
_MODES = (LINEAR, FAST_FORWARD)


def _check_mode(mode: str):
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")


class AffineBridge(_Record, Automorphism):
    """Affine increasing bijection [source_lo, source_hi) -> [target_lo, target_hi).

    Construction works out the line t -> (an/ad) t + bn/bd in ints, and
    every evaluation goes through it: ``_image`` applies it, or backward
    its inverse line, to an integer pair with a few multiplications and one
    addition.  A bridge consults no map, so it costs nothing in the counted
    model.  Inside a seed it continues affinely past its intervals, so its
    germ has no bound.
    """

    _fields = ("source_lo", "source_hi", "target_lo", "target_hi")
    # one line: it tracks germs and needs no cache
    _tracks = True
    _seen = None

    def __init__(self, source_lo: Fraction, source_hi: Fraction, target_lo: Fraction,
                 target_hi: Fraction):
        if source_lo >= source_hi or target_lo >= target_hi:
            raise ValueError("degenerate bridge interval")
        # a = (th - tl) / (sh - sl), b = tl - a sl
        sln, sld = source_lo.numerator, source_lo.denominator
        shn, shd = source_hi.numerator, source_hi.denominator
        tln, tld = target_lo.numerator, target_lo.denominator
        thn, thd = target_hi.numerator, target_hi.denominator
        an = (thn * tld - tln * thd) * shd * sld
        ad = (shn * sld - sln * shd) * thd * tld
        common = gcd(an, ad)
        self.__dict__.update(source_lo=source_lo, source_hi=source_hi, target_lo=target_lo,
                             target_hi=target_hi,
                             _line=_line_through(an // common, ad // common, sln, sld, tln, tld))

    def _image(self, n: int, d: int, back=False, germ=None):
        """Image of n/d (d > 0), under the inverse if ``back``, as an
        unreduced pair with positive denominator, and piece 0."""
        an, ad, bn, bd = self._line
        if back:
            an, ad = ad, an  # the inverse line: t -> (an/ad) (t - bn/bd)
        if germ is not None:
            germ.scale(an, ad)
        return (an * (n * bd - bn * d) if back else an * n * bd + bn * ad * d), ad * d * bd, 0


class OrbitLocation(_Record):
    """Block of the anchor orbit containing a query point.

    ``lower <= query < upper`` always holds.  For an increasing orbit the
    block is [anchor*g^i, anchor*g^(i+1)); for a decreasing one it is the
    mirrored [anchor*g^(i+1), anchor*g^i).
    """

    __slots__ = _fields = ("index", "lower", "upper")

    def __init__(self, index: int, lower: Fraction, upper: Fraction):
        _set(self, "index", index)
        _set(self, "lower", lower)
        _set(self, "upper", upper)


def _orientation(increasing: bool, alpha, gamma):
    """The one rule for walking an orbit from alpha toward gamma, given as
    ``(numerator, denominator)`` pairs with positive denominators.

    The walk goes up the line iff ``gamma >= alpha``.  It applies g iff that
    is the orbit's direction, and g^-1 otherwise, and it stops at the first
    iterate p past gamma: ``(p > gamma) == up``.  Returns ``(up, with_g)``.
    """
    up = gamma[0] * alpha[1] >= alpha[0] * gamma[1]
    return up, increasing == up


def _ff_search(g, backward, alpha, first, gamma, up, counter):
    """Minimal e >= 1 with point(e) past gamma; returns (e, point(e-1), point(e)).

    point(e) is alpha after e steps of g, or of g^-1 when ``backward``; points
    are ``(numerator, denominator)`` pairs, and ``first`` is point(1) when the
    caller has it already, else None.  Doubling finds the power-of-two
    bracket, then a nested binary descent adds halving power-of-two steps;
    every step, one orbit walk of 2^k steps, is one fast-forward step.  A
    step may stop early past the pair gamma: such a point only ever tells
    the search that it went too far.
    """
    gn, gd = gamma

    def step(p, k):
        if counter is not None:
            counter.ff_steps += 1
        return _walk(g, *p, backward, 1 << k, gamma, up)[2]

    def past(p):
        return (p[0] * gd > gn * p[1]) == up

    pt = step(alpha, 0) if first is None else first
    if past(pt):
        return 1, alpha, pt
    n = 0
    pt_e = pt  # point(2^n), not yet past gamma
    while True:
        nxt = step(pt_e, n)
        if past(nxt):
            break
        n += 1
        pt_e = nxt
    j = 1 << n
    pt = pt_e
    hit = None
    for k in range(n - 1, -1, -1):
        cand = step(pt, k)
        if past(cand):
            if k == 0:
                hit = cand
        else:
            pt = cand
            j += 1 << k
            if k == 0:
                hit = None
    if hit is None:
        hit = step(pt, 0)
    return j + 1, pt, hit


def orbit_locate(g, alpha: Fraction, gamma: Fraction, mode: str = LINEAR, *,
                 counter: Optional[CallCounter] = None) -> OrbitLocation:
    """Block of the anchor orbit of g containing gamma.

    Both gamma and alpha must lie in the same support component of g; when
    they do not, the walk raises ValueError once it sees that the orbit
    never passes gamma.  In the counted model linear mode makes |index| + 1
    evaluations and fast-forward mode O(log |index|) fast-forward steps
    (doubling plus a nested binary descent over powers of two), and a
    ``counter`` is charged exactly that; the first step, which finds the
    orbit's direction, is also the search's first when the search walks
    with g.  Fast-forward mode needs a PL g, not a wrapped one (TypeError).
    Wall time differs for a PL map: each walk, and each fast-forward step,
    takes translation pieces in closed form at once and other pieces after
    16 steps (``PLAutomorphism._iterate``), so beyond the middle of the
    component linear mode costs O(log |index|) exact-power operations and
    fast-forward mode O(log^2 |index|); on a slope-1 piece a closed form is
    a few floor divisions.  Any other map is stepped, as counted.
    """
    _check_mode(mode)
    if mode == FAST_FORWARD and not isinstance(g, PLAutomorphism):
        raise TypeError("fast-forward location requires a piecewise-linear map")
    a = (alpha.numerator, alpha.denominator)
    first = _walk(g, *a, count=1)[2]
    if counter is not None:
        if mode == FAST_FORWARD:
            counter.ff_steps += 1
        else:
            counter.forward += 1
    if first[0] * a[1] == a[0] * first[1]:
        raise ValueError(f"anchor {format_rational(alpha)} is a fixed point; "
                         "it lies in no component")
    c = (gamma.numerator, gamma.denominator)
    up, with_g = _orientation(first[0] * a[1] > a[0] * first[1], a, c)
    if mode == FAST_FORWARD:
        e, prev, cur = _ff_search(g, not with_g, a, first if with_g else None, c, up, counter)
    elif with_g and (first[0] * c[1] > c[0] * first[1]) == up:
        e, prev, cur = 1, a, first
    else:
        # on with g from the first iterate, or back with g^-1 from the anchor
        e, prev, cur = _walk(g, *(first if with_g else a), not with_g, gamma=c, up=up)
        if counter is not None:
            if with_g:
                counter.forward += e
            else:
                counter.inverse += e
        e += with_g
    lower, upper = (prev, cur) if up else (cur, prev)
    return OrbitLocation(e - 1 if with_g else -e, Fraction(*lower), Fraction(*upper))


class ComponentOrbit:
    """Lazily cached two-sided anchor orbit of a word variable's component.

    ``point(i)`` is anchor*g^i; ``locate(q)`` returns the block index of q.
    Points are cached under a lock as the orbit walk produces them one step
    at a time, so each is evaluated once; the cache holds them as reduced
    ``(numerator, denominator)`` pairs.  ``locate`` bisects over the cached
    points on q's side of the anchor, O(log) integer cross-multiplications.
    Past the cache both go through the orbit walk from the last cached
    point.  A black-box g is stepped and every point cached.  For a PL g a
    walk takes translation pieces in closed form at once and other pieces
    after 16 steps, and the cache stops for good where a walk first jumps
    more than one step.  So after one far query on each side it holds at
    most 17 points in each piece of g, plus the anchor (walks of a few steps
    each, as from ``point(i)`` for i = 1, 2, 3, ..., cache every point).  A
    far index costs O(log |i|) exact-power operations beyond the middle of
    the component.
    """

    def __init__(self, g, anchor: Fraction):
        self.g = g
        self.anchor = anchor
        start = (anchor.numerator, anchor.denominator)
        self._fwd = [start]  # indices 0, 1, 2, ...
        self._bwd = [start]  # indices 0, -1, -2, ...
        self._lock = threading.RLock()
        self._sealed = set()  # directions (with_g) whose cache has stopped growing
        first = g.forward(anchor)
        if first == anchor:
            raise ValueError(f"anchor {format_rational(anchor)} is a fixed point; "
                             "it lies in no component")
        self.increasing = first > anchor
        self._fwd.append((first.numerator, first.denominator))

    def _past_cache(self, with_g: bool, count=None, gamma=None, up=True):
        """Walk on from the last cached point with g (or g^-1).  Returns the
        walk's last point as a pair and its distance from the anchor in steps."""
        walk = self._fwd if with_g else self._bwd
        known = len(walk) - 1
        trail = None if with_g in self._sealed else walk
        steps, _, cur = _walk(self.g, *walk[-1], not with_g, count, gamma, up, trail)
        if len(walk) - 1 < known + steps:
            # the walk jumped; points past here are recomputed, not cached
            self._sealed.add(with_g)
        return known + steps, cur

    def point(self, i: int) -> Fraction:
        with self._lock:
            walk = self._fwd if i >= 0 else self._bwd
            if abs(i) < len(walk):
                return Fraction(*walk[abs(i)])
            return Fraction(*self._past_cache(i >= 0, count=abs(i) - len(walk) + 1)[1])

    def locate(self, q: Fraction) -> int:
        """Index i with point(i) <= q < point(i+1) (mirrored when decreasing)."""
        return self._locate(q.numerator, q.denominator)

    def _locate(self, qn: int, qd: int) -> int:
        """``locate`` of qn/qd (qd > 0, the pair reduced or not)."""
        with self._lock:
            up, with_g = _orientation(self.increasing, self._fwd[0], (qn, qd))
            # The walk's k-th point is point(k) with g and point(-k) with g^-1;
            # find the least k whose point is past q.  The anchor (k = 0)
            # never is.
            walk = self._fwd if with_g else self._bwd
            lo, hi = 0, len(walk) - 1
            pn, pd = walk[hi]
            if (pn * qd > qn * pd) == up:
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    pn, pd = walk[mid]
                    if (pn * qd > qn * pd) == up:
                        hi = mid
                    else:
                        lo = mid
            else:
                hi = self._past_cache(with_g, gamma=(qn, qd), up=up)[0]
            return hi - 1 if with_g else -hi


class OrbitTransport(_Record, Automorphism):
    """A seed map on one anchor block, carried along the orbits.

    ``_image(q) = t_out^i(seed(t_in^-i(q)))``, where ``_pull`` finds both
    the block i of q in the t_in-orbit of ``anchor_in`` and t_in^-i(q); the
    seed maps the anchor block of t_in onto that of t_out.  Backward, the
    two sides swap and the seed runs backward: construction keeps the sides
    in both orders, so no inverse is built.  Transports: conjugators
    (g, f), x g x = f pieces (fg, gf), roots (g, g), the word aligner
    (W, g).

    An evaluation is one pass over integer pairs, every walk through
    ``_walk`` with its target as a pair.  One walk toward the anchor block
    [lo, hi) finds i and t_in^-i(q) together: down from q >= hi to the first
    iterate at or below hi (hi itself is one step short of lo), up from
    q < lo to the first iterate above lo (one step too far when the one
    before is lo).  At i = 0 there is no walk either way, and otherwise the
    push-forward walk takes |i| steps, so an evaluation costs at most
    2|i| + 1 evaluations in the counted model.  In wall time a PL walk takes
    translation pieces in closed form at once and other pieces after 16
    steps, so it costs O(log |i|) exact-power operations past the middle of
    the component.  Over PL maps, a node evaluated often answers from its
    piece cache (``Automorphism._value``): a point in a piece met before
    costs one float bisection, one line and one gcd, whatever its orbit
    index.  A miss outside the anchor block steps one block inward first,
    and if the piece there is cached, carries it back out (``_derive``), at
    about 1.5 plain evaluations of the point; otherwise it tracks its germ,
    at about three.  A point outside the anchor's component raises
    ValueError.
    """

    _fields = ("t_in", "t_out", "seed", "anchor_in", "anchor_out")

    def __init__(self, t_in, t_out, seed, anchor_in: Fraction, anchor_out: Fraction):
        # per side, input side first: the map, the anchor block's ends as
        # int pairs, and whether the orbit increases
        sides = []
        for t, anchor in ((t_in, anchor_in), (t_out, anchor_out)):
            first = t.forward(anchor)
            if first == anchor:
                raise ValueError(f"anchor {format_rational(anchor)} is a fixed point; "
                                 "it lies in no component")
            lo, hi = sorted((anchor, first))
            sides.append((t, (lo.numerator, lo.denominator), (hi.numerator, hi.denominator),
                          first > anchor))
        self.__dict__.update(t_in=t_in, t_out=t_out, seed=seed, anchor_in=anchor_in,
                             anchor_out=anchor_out, _sides=sides, _orders=(sides, sides[::-1]))

    def _image(self, n: int, d: int, back=False, germ=None):
        pull, push = self._orders[back]
        i, n, d = self._pull(n, d, pull, germ)
        n, d, _ = self.seed._image(n, d, back, germ)
        if i:
            n, d = _walk(push[0], n, d, i < 0, count=abs(i), germ=germ)[2]
        return n, d, 0

    @_lazy
    def _tracks(self) -> bool:
        return (isinstance(self.t_in, PLAutomorphism) and isinstance(self.t_out, PLAutomorphism)
                and _tracked((self.seed,)))

    def _derive(self, n: int, d: int, back: bool, entries: list, keys: list):
        """x(q) = t_out(x(t_in^-1(q))) on the whole component, as the pull
        and push walks take the same count: outside the anchor block, q
        steps one block inward, and a cached piece there gives x(q) and its
        germ: the step's piece, the entry's ends, its line, or the inverse
        line backward, and the push step's piece."""
        pull, push = self._orders[back]
        t, lo, hi, increasing = pull
        if n * hi[1] >= hi[0] * d:
            step = increasing
        elif n * lo[1] < lo[0] * d:
            step = not increasing
        else:
            return None
        germ = _Germ()
        pn, pd, _ = t._image(n, d, step, germ)
        entry = _lookup(keys, entries, pn, pd, back)
        if entry is None:
            return None
        ln, ld, hn, hd = entry[4:8] if back else entry[:4]
        an, ad, bn, bd = entry[8:]
        germ.bound(pn, pd, ln, ld, False)  # an unbounded end (d = 0) leaves its side unbounded
        germ.bound(pn, pd, hn, hd, True)
        if back:
            germ.scale(ad, an)
            yn, yd = ad * (pn * bd - bn * pd), an * bd * pd
        else:
            germ.scale(an, ad)
            yn, yd = an * pn * bd + bn * ad * pd, ad * pd * bd
        yn, yd, _ = push[0]._image(yn, yd, not step, germ)
        return yn, yd, germ

    def _pull(self, n: int, d: int, side, germ=None):
        """``(i, n, d)``: the block index i of n/d on one side, n/d = t^-i(q).

        With a ``germ``, q stays on its side of the anchor block, and each
        walk's stop test holds (``_iterate``).  A walk that lands exactly on
        the block end hi, or whose last step but one ends exactly on lo, is
        a special case: its germ is q alone."""
        t, lo, hi, increasing = side
        if n * hi[1] >= hi[0] * d:
            if germ is not None:
                germ.bound(n, d, *hi, False)
            steps, _, (n, d) = _walk(t, n, d, increasing, gamma=hi, up=False, germ=germ)
            if n * hi[1] == hi[0] * d:
                steps, (n, d) = steps + 1, lo
                if germ is not None:
                    germ.point()
            return (steps if increasing else -steps), n, d
        if n * lo[1] < lo[0] * d:
            if germ is not None:
                germ.bound(n, d, *lo, True)
            steps, (pn, pd), (n, d) = _walk(t, n, d, not increasing, gamma=lo, up=True,
                                            germ=germ)
            if pn * lo[1] == lo[0] * pd:
                steps, n, d = steps - 1, pn, pd
                if germ is not None:
                    germ.point()
            return (-steps if increasing else steps), n, d
        if germ is not None:
            germ.bound(n, d, *lo, False)
            germ.bound(n, d, *hi, True)
        return 0, n, d


def anchor_point(element: TerrainElement) -> Fraction:
    """Deterministic anchor: midpoint of bounded elements, finite endpoint
    plus/minus 1 for half-unbounded ones, 0 for the whole line."""
    lo_fin = is_finite(element.lo)
    hi_fin = is_finite(element.hi)
    if lo_fin and hi_fin:
        return (element.lo + element.hi) / 2
    if hi_fin:
        return element.hi - 1
    if lo_fin:
        return element.lo + 1
    return Fraction(0)


class _Guard(Automorphism):
    """x restricted to source, and backward to target: a point outside
    raises DomainError."""

    def __init__(self, x, source, target, what: str, description: str):
        self.x, self.source, self.target = x, source, target
        self.what, self.description = what, description

    def _image(self, n: int, d: int, back=False, germ=None):
        """x's ``_image`` once q is checked; with a ``germ``, q stays in the
        closure of the domain, so no cached piece reaches past a fixed
        interval (a component's pieces each fix a walk length, and so lie
        inside it)."""
        domain = self.target if back else self.source
        q = _fraction(n, d)
        if not domain.contains(q):
            raise DomainError(f"{format_rational(q)} outside {self.what} {domain!r}")
        if germ is not None:
            for end, upper in ((domain.lo, False), (domain.hi, True)):
                if is_finite(end):
                    germ.bound(n, d, end.numerator, end.denominator, upper)
        return self.x._image(n, d, back, germ)

    @_lazy
    def _tracks(self) -> bool:
        return _tracked((self.x,))


def _component_map(g, f, source: TerrainElement, target: TerrainElement,
                   alpha: Fraction, beta: Fraction) -> OrbitTransport:
    """The conjugator of ``conjugate_on_component`` with no domain guard."""
    if source.color is target.color is Color.FIXED:
        raise ValueError("components must be POS or NEG; use conjugate_on_fixed")
    if source.color is not target.color:
        raise ValueError("paired components must share a color")
    if not source.contains(alpha):
        raise DomainError(f"anchor {format_rational(alpha)} outside source component")
    if not target.contains(beta):
        raise DomainError(f"anchor {format_rational(beta)} outside target component")
    bridge = AffineBridge(*sorted((alpha, g.forward(alpha))), *sorted((beta, f.forward(beta))))
    return OrbitTransport(g, f, bridge, alpha, beta)


def conjugate_on_component(g, f, source: TerrainElement, target: TerrainElement,
                           alpha: Fraction, beta: Fraction,
                           mode: str = LINEAR) -> Automorphism:
    """Partial conjugator between support components of the same sign.

    ``source`` is a component of the support of g with anchor ``alpha``,
    ``target`` a component of the support of f with anchor ``beta``; the
    returned x maps source onto target and satisfies f = x^-1 g x on the
    target.  Evaluating x at a point finds its orbit block i and pulls it
    back to the anchor block with g^-i, in one walk, crosses the affine
    bridge, and pushes forward with f^i (``OrbitTransport``).  In the
    counted model an orbit index i costs at most 2|i| + 1 oracle calls.  In
    wall time raw PL inputs cost the middle crossing of the component plus
    O(log |i|) exact-power operations per orbit walk (see ``orbit_locate``),
    and a point in a piece the map's cache holds costs one bisection and
    one line (see ``OrbitTransport``); wrapped or procedural inputs are
    stepped, as counted, and never cached.  ``mode`` must be
    ``"linear"`` or ``"fast_forward"`` (ValueError otherwise); both build
    the same map, evaluated by the same walk.  A point outside source
    (forward) or target (backward) raises DomainError.
    """
    _check_mode(mode)
    return _Guard(_component_map(g, f, source, target, alpha, beta), source, target,
                  "component", f"component-conjugator({source.color.value})")


def _fixed_map(source: TerrainElement, target: TerrainElement):
    """The map of ``conjugate_on_fixed`` with no domain guard."""
    if source.color is not Color.FIXED or target.color is not Color.FIXED:
        raise ValueError("conjugate_on_fixed expects FIXED elements")
    kind = (is_finite(source.lo), is_finite(source.hi))
    if kind != (is_finite(target.lo), is_finite(target.hi)):
        raise ValueError(f"mismatched fixed-interval kinds: {source!r} vs {target!r}")

    lo_fin, hi_fin = kind
    if lo_fin and hi_fin:
        return AffineBridge(source.lo, source.hi, target.lo, target.hi)
    if hi_fin:
        return PLAutomorphism.translation(target.hi - source.hi)
    if lo_fin:
        return PLAutomorphism.translation(target.lo - source.lo)
    return PLAutomorphism.identity()


def conjugate_on_fixed(source: TerrainElement, target: TerrainElement) -> Automorphism:
    """Order bijection between two fixed intervals of the same positional kind.

    Bounded pairs get the affine bridge over the closed intervals, intervals
    unbounded on one side a translation aligning the finite endpoint, and the
    full line the identity.  A point outside source (forward) or target
    (backward) raises DomainError.
    """
    return _Guard(_fixed_map(source, target), source, target, "fixed interval",
                  "fixed-interval-conjugator")


def solve_conjugacy(g: PLAutomorphism, f: PLAutomorphism) -> Optional[Automorphism]:
    """Conjugator h with f = h^-1 g h, or None when none exists.

    Existence is decided by color-sequence equality of the two terrains.
    When the sequences agree, the k-th element of the terrain of g is paired
    with the k-th element of the terrain of f (for finite terrains the
    positional pairing is the unique order-preserving one), components by the
    orbit-block procedure with deterministic anchors, fixed intervals by the
    direct interval maps; the result dispatches each query to the element
    containing it (``_Dispatch``).  The per-element maps are the ones
    ``conjugate_on_component`` and ``conjugate_on_fixed`` return, without
    their domain guards: the dispatcher has located the point already.
    Isolated fixed points between two components map to the corresponding
    boundary point on the other side.  An evaluation at orbit index i costs
    at most 2|i| + 1 oracle calls.
    """
    terrain_g = support_decompose(g)
    terrain_f = support_decompose(f)
    if terrain_g.color_sequence() != terrain_f.color_sequence():
        return None

    pieces = []
    for eg, ef in zip(terrain_g, terrain_f):
        if eg.color is Color.FIXED:
            pieces.append(_fixed_map(eg, ef))
        else:
            pieces.append(_component_map(g, f, eg, ef, anchor_point(eg), anchor_point(ef)))
    return _Dispatch(terrain_g, terrain_f, pieces, f"conjugator({terrain_g.color_sequence()})")


class _Dispatch(Automorphism):
    """The map that sends element k of terrain_in through ``pieces[k]``.

    The isolated fixed point after element k of terrain_in goes to the one
    after element k of terrain_out.  This is exact whenever piece k maps
    element k onto element k, as conjugators, x g x = f solutions (fg to
    gf), n-th roots and the word maps (g to itself) all do.  Backward, the
    terrains swap and the point's piece runs backward.
    """

    def __init__(self, terrain_in, terrain_out, pieces, description: str):
        self.terrain_in, self.terrain_out, self.pieces = terrain_in, terrain_out, pieces
        self.description = description
        self._orders = ((terrain_in, terrain_out), (terrain_out, terrain_in))

    def _image(self, n: int, d: int, back=False, germ=None):
        """The piece of q's element; with a ``germ``, q stays in the closure
        of that element, and an isolated fixed point is a special case,
        whose germ is the point alone."""
        into, out = self._orders[back]
        kind, k = into._locate(n, d)
        if kind == "element":
            if germ is not None:
                germ.inside(n, d, *into._boundaries, k)
            return self.pieces[k]._image(n, d, back, germ)
        if germ is not None:
            germ.point()
        hi = out[k].hi
        return hi.numerator, hi.denominator, 0

    def _derive(self, n: int, d: int, back: bool, entries: list, keys: list):
        """The derivation of q's element's piece, if q lies in an element."""
        kind, k = self._orders[back][0]._locate(n, d)
        return self.pieces[k]._derive(n, d, back, entries, keys) if kind == "element" else None

    @_lazy
    def _tracks(self) -> bool:
        return _tracked(self.pieces)


def verify_pointwise(lhs, rhs, samples) -> bool:
    """Exact pointwise equality of two automorphisms on a finite sample set."""
    return all(lhs.forward(q) == rhs.forward(q) for q in samples)


def conjugation(g, h):
    """h^-1 g h as a composite (left-to-right evaluation)."""
    return compose(compose(inverse(h), g), h)
