"""The orbit primitive against plain stepping, and what it buys: far orbit
indices on affine tails, and targets no orbit ever reaches.

``PLAutomorphism._iterate`` jumps through a translation piece in closed
form at once, and steps through any other piece for a while before it
jumps through the rest of it.  Every value it returns must be the very
rational that stepping ``g.forward`` / ``g.backward`` gives, and every
orbit index the one that walking the orbit gives.
"""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineaut import (
    Color,
    ComponentOrbit,
    PLAutomorphism,
    anchor_point,
    apply_power,
    compose,
    conjugation,
    orbit_locate,
    reflect,
    solve_conjugacy,
    solve_xgx,
    support_decompose,
    wrap,
)
from lineaut.automorphism import _STEPPED_RUN, _walk
from lineaut.conjugacy import OrbitTransport
from lineaut.rational import is_finite
from conftest import walk_locate

F = Fraction

# Terrain "+", slope-1 tails: translation by 1 on both ends.
PROBE = PLAutomorphism(((-2, -1), (0, F(3, 2)), (3, 4)), 1, 1)
# Terrain "-+-": the tails have slopes 3/2 and 1/2 and fix -11 and 5.
TWO_SIGNS = PLAutomorphism(((-6, F(-7, 2)), (F(-5, 4), 2), (2, F(7, 2))), F(3, 2), F(1, 2))
# Terrain "+": tails with slopes 1/2 and 2 whose lines fix -1/2 and 2,
# outside their pieces, so orbits leave the left tail and grow on the right.
GEOMETRIC = PLAutomorphism(((0, 1), (1, F(5, 2))), F(1, 2), 2)
# Terrain "-+": the boundary fixed point -5 is a middle knot.
SLOW_BOUNDARY = PLAutomorphism(((-5, -5), (F(9, 2), F(14, 3)), (5, 6)), F(3, 2), 1)
# Terrain "+-": both tails converge to the fixed point 0.
ATTRACTING_ZERO = PLAutomorphism(((0, 0),), F(1, 2), F(1, 2))
# Terrain "+": the bounded middle piece [0, 4] translates by 1, between a
# left tail of slope 1/2 and a piece of slope 2, so orbits enter and leave
# a translation run in the middle of the line.
BOUNDED_SHIFT = PLAutomorphism(((0, 1), (4, 5), (5, 7)), F(1, 2), 1)

NAMED = [PROBE, reflect(PROBE), TWO_SIGNS, reflect(TWO_SIGNS), GEOMETRIC, reflect(GEOMETRIC),
         SLOW_BOUNDARY, ATTRACTING_ZERO, PLAutomorphism.translation(F(-1, 3)), BOUNDED_SHIFT]

small = st.fractions(min_value=-8, max_value=8, max_denominator=6)
SLOPES = [F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]


@st.composite
def random_maps(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    xs = sorted(draw(st.sets(small, min_size=count, max_size=count)))
    ys = sorted(draw(st.sets(small, min_size=count, max_size=count)))
    return PLAutomorphism(tuple(zip(xs, ys)), draw(st.sampled_from(SLOPES)),
                          draw(st.sampled_from(SLOPES)))


maps = st.one_of(st.sampled_from(NAMED), random_maps())
starts = st.fractions(min_value=-14, max_value=14, max_denominator=12)
# log-uniform up to 10^4: stepping a reference orbit of 10^4 points costs
# up to a second when its bit sizes grow geometrically
counts = st.integers(0, 4).flatmap(lambda e: st.integers(0, 10 ** e))


def walk(g, q, backward, gamma=None, **kwargs):
    """``_walk`` from a Fraction, with a Fraction target passed as a pair,
    its iterates back as Fractions."""
    if gamma is not None:
        gamma = (gamma.numerator, gamma.denominator)
    steps, prev, cur = _walk(g, q.numerator, q.denominator, backward, gamma=gamma, **kwargs)
    return steps, F(*prev), F(*cur)


def stepped(g, q, n, backward=False):
    """q and its first n iterates under g (or g^-1), one application each."""
    step = g.backward if backward else g.forward
    orbit = [q]
    for _ in range(n):
        orbit.append(step(orbit[-1]))
    return orbit


class TestPrimitiveMatchesStepping:
    def test_named_maps_cover_every_kind_of_piece(self):
        lines = {line for g in NAMED for line in (g.piece_lines()[0], g.piece_lines()[-1])}
        assert (F(1), F(1)) in lines  # translation tail
        assert any(a != 1 for a, _ in lines)  # tail with slope != 1
        colors = {e.color for g in NAMED for e in support_decompose(g)}
        assert {Color.POS, Color.NEG} <= colors

    @given(maps, starts, counts, st.booleans(), st.fractions(0, 1, max_denominator=9))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_count_and_gamma(self, g, q, n, backward, t):
        orbit = stepped(g, q, max(n, 1), backward)
        for k in {n, n // 2, n // 3 + 1, _STEPPED_RUN + 1}:
            if k < len(orbit):
                assert walk(g, q, backward, count=k) == (k, orbit[max(k - 1, 0)], orbit[k])
                assert apply_power(g, -k if backward else k, q) == orbit[k]
        if orbit[1] == q:
            with pytest.raises(ValueError):
                walk(g, q, backward, gamma=q + 1, up=True)
            return
        up = orbit[1] > q
        m = max(n, 1)
        lo, hi = sorted(orbit[m - 1:m + 1])
        gamma = lo + t * (hi - lo)
        if gamma < hi:
            # moving up, the first iterate above gamma; moving down, at or below it
            assert walk(g, q, backward, gamma=gamma, up=up) == (m, orbit[m - 1], orbit[m])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_long_dilation_run_ends_at_its_edge(self, sign):
        # SLOW_BOUNDARY has slope 58/57 on [-5, 9/2] and fixes -5, so an
        # orbit from near -5 stays hundreds of steps in that piece before
        # its closed form leaves it; its reflection runs the same orbit
        # down.  Counts and targets at the step that leaves the piece.
        g = SLOW_BOUNDARY if sign > 0 else reflect(SLOW_BOUNDARY)
        up = sign > 0
        for q in (F(-49, 10) * sign, (F(-5) + F(1, 1000)) * sign):
            orbit = stepped(g, q, 1)
            while sign * orbit[-1] <= F(9, 2):
                orbit.append(g.forward(orbit[-1]))
            leaves = len(orbit) - 1
            assert leaves > _STEPPED_RUN
            orbit.append(g.forward(orbit[-1]))
            for k in (leaves - 1, leaves, leaves + 1):
                assert walk(g, q, False, count=k) == (k, orbit[k - 1], orbit[k])
            for gamma in (orbit[leaves - 1], orbit[leaves], F(9, 2) * sign):
                expected = stepped_past(g, q, gamma, up, False, limit=leaves + 1)
                assert walk(g, q, False, gamma=gamma, up=up) == expected

    @given(maps, starts, counts, st.booleans(), st.integers(2, 12))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_unreduced_start(self, g, q, n, backward, factor):
        # the start as a seed's _image hands it in, with a common factor
        orbit = stepped(g, q, max(n, 1), backward)
        pn, pd = q.numerator * factor, q.denominator * factor
        for k in {max(n, 1), 1}:
            steps, prev, cur = _walk(g, pn, pd, backward, count=k)
            assert (steps, F(*prev), F(*cur)) == (k, orbit[k - 1], orbit[k])
            if orbit[k] != q:
                assert gcd(*cur) == 1
        if orbit[1] != q:
            up = orbit[1] > q
            m = max(n, 1)
            gamma = orbit[m]
            steps, prev, cur = _walk(g, pn, pd, backward,
                                     gamma=(gamma.numerator, gamma.denominator), up=up)
            expected = stepped_past(g, q, gamma, up, backward, limit=m + 1)
            assert (steps, F(*prev), F(*cur)) == expected

    @given(maps, starts, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_unreachable_gamma_raises(self, g, q, backward):
        first = g.backward(q) if backward else g.forward(q)
        if first == q:
            return
        up = first > q
        # behind the start: the orbit only moves away
        with pytest.raises(ValueError):
            walk(g, q, backward, gamma=q - 1 if up else q + 1, up=not up)
        # beyond the end of the component the orbit converges to
        terrain = support_decompose(g)
        element = terrain[terrain.locate(q)[1]]
        end = element.hi if up else element.lo
        if is_finite(end):
            with pytest.raises(ValueError):
                walk(g, q, backward, gamma=end + (1 if up else -1), up=up)


def stepped_past(g, q, gamma, up, backward, limit=40):
    """``(steps, previous, last)`` of the first iterate of q past gamma, one
    application at a time; None when none of the first ``limit`` is."""
    orbit = stepped(g, q, limit, backward)
    for k in range(1, limit + 1):
        if (orbit[k] > gamma) == up:
            return k, orbit[k - 1], orbit[k]
    return None


class TestBoundedTranslationRun:
    """BOUNDED_SHIFT translates [0, 4] by 1, and its inverse [1, 5] by -1, so
    walks through that piece are one closed form at once.  Walks from each
    knot of the piece, to a target on an iterate, on a knot or at either
    edge of the piece, and for the count of the step that leaves the piece,
    equal plain stepping in both directions, also from a start handed in
    unreduced; a target the orbit moves away from raises at once."""

    PIECES = {False: (0, 4), True: (1, 5)}  # the translation piece of g, of g^-1

    @pytest.mark.parametrize("backward", [False, True])
    def test_counts(self, backward):
        lo, hi = self.PIECES[backward]
        for q in (F(lo), F(hi), F(lo) + F(1, 3), F(hi) - F(1, 3)):
            orbit = stepped(BOUNDED_SHIFT, q, 12, backward)
            leaves = min(k for k, p in enumerate(orbit) if k and not lo <= p <= hi)
            for k in {1, 2, leaves - 1, leaves, leaves + 1, 12} - {0}:
                assert walk(BOUNDED_SHIFT, q, backward, count=k) == (k, orbit[k - 1], orbit[k])

    @pytest.mark.parametrize("backward", [False, True])
    def test_gamma(self, backward):
        lo, hi = self.PIECES[backward]
        knots = [y if backward else x for x, y in BOUNDED_SHIFT.knots]
        up = not backward  # the orbits of g move up
        for q in (F(lo), F(hi), F(lo) + F(1, 3), F(hi) - F(1, 3)):
            orbit = stepped(BOUNDED_SHIFT, q, 12, backward)
            for gamma in set(orbit[1:]) | set(knots):
                expected = stepped_past(BOUNDED_SHIFT, q, gamma, up, backward)
                assert walk(BOUNDED_SHIFT, q, backward, gamma=gamma, up=up) == expected

    @pytest.mark.parametrize("backward", [False, True])
    def test_gamma_at_the_edges(self, backward):
        # targets on either edge of the translation piece and just either
        # side of it, from starts inside the piece and on its edges
        lo, hi = self.PIECES[backward]
        up = not backward
        for q in (F(lo), F(hi), F(lo) + F(1, 3), F(hi) - F(2, 7)):
            for edge in (lo, hi):
                for gamma in (F(edge), F(edge) - F(1, 7), F(edge) + F(1, 7)):
                    if (gamma >= q) != up and gamma != q:
                        continue  # behind the start: test_unreachable_gamma
                    expected = stepped_past(BOUNDED_SHIFT, q, gamma, up, backward)
                    assert walk(BOUNDED_SHIFT, q, backward, gamma=gamma, up=up) == expected

    @pytest.mark.parametrize("g", [PROBE, reflect(PROBE), BOUNDED_SHIFT])
    @pytest.mark.parametrize("backward", [False, True])
    def test_unreachable_gamma(self, g, backward):
        # an orbit that moves away from gamma on a translation tail never
        # passes it; the walk says so at once, whether it starts on the tail
        # or on a bounded translation piece before it
        for q in (F(-3, 2), F(1, 2), F(9, 2), F(30)):
            up = (g.backward(q) if backward else g.forward(q)) > q
            for gamma in (q - 1 if up else q + 1, q - 10 ** 9 if up else q + 10 ** 9):
                start = time.perf_counter()
                with pytest.raises(ValueError):
                    walk(g, q, backward, gamma=gamma, up=not up)
                assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("backward", [False, True])
    def test_unreduced_start(self, backward):
        # a seed's _image hands its image in unreduced: the walk gives the
        # same iterates, the ones it computes reduced, and the start as given
        lo, hi = self.PIECES[backward]
        up = not backward
        for q in (F(lo), F(hi), F(lo) + F(1, 3), F(hi) - F(2, 7)):
            orbit = stepped(BOUNDED_SHIFT, q, 12, backward)
            for factor in (2, 6, 35):
                n, d = q.numerator * factor, q.denominator * factor
                for count in (1, 2, 5, 12):
                    steps, prev, cur = _walk(BOUNDED_SHIFT, n, d, backward, count=count)
                    assert (steps, F(*prev), F(*cur)) == (count, orbit[count - 1], orbit[count])
                    assert gcd(*cur) == 1
                    assert (prev == (n, d)) if count == 1 else (gcd(*prev) == 1)
                for gamma in (orbit[3], F(lo), F(hi)):
                    if (gamma >= q) != up:
                        continue
                    steps, prev, cur = _walk(BOUNDED_SHIFT, n, d, backward,
                                             gamma=(gamma.numerator, gamma.denominator), up=up)
                    expected = stepped_past(BOUNDED_SHIFT, q, gamma, up, backward)
                    assert (steps, F(*prev), F(*cur)) == expected
                    assert gcd(*cur) == 1


def components(g):
    return [e for e in support_decompose(g) if e.color is not Color.FIXED]


class TestIndicesMatchWalk:
    @given(maps, st.data(), counts, st.booleans(),
           st.fractions(0, 1, max_denominator=9).filter(lambda t: t < 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_block_index(self, g, data, i, negative, t):
        i = -i - 1 if negative else i
        comps = components(g)
        if not comps:
            return
        anchor = anchor_point(data.draw(st.sampled_from(comps)))
        ref = ComponentOrbit(wrap(g), anchor)  # a black box: stepped point by point
        lo, hi = sorted((ref.point(i), ref.point(i + 1)))
        q = lo + t * (hi - lo)
        assert walk_locate(ref, q) == i
        assert ComponentOrbit(g, anchor).locate(q) == i
        for mode in ("linear", "fast_forward"):
            loc = orbit_locate(g, anchor, q, mode)
            assert (loc.index, loc.lower, loc.upper) == (i, lo, hi)

    @pytest.mark.parametrize("g", NAMED)
    def test_cached_and_far_points(self, g):
        # one orbit answers near and far queries in any order, from its cache
        # or past it, with the points stepping gives
        for comp in components(g):
            anchor = anchor_point(comp)
            orbit, ref = ComponentOrbit(g, anchor), ComponentOrbit(wrap(g), anchor)
            for i in (3, 400, -2, 40, -300, 1, 1000, -1000, 17, -17):
                assert orbit.point(i) == ref.point(i)
                q = (ref.point(i) + ref.point(i + 1)) / 2
                assert orbit.locate(q) == i

    @pytest.mark.parametrize("g", NAMED)
    def test_cache_bound(self, g):
        # one far query each way: a walk steps at most _STEPPED_RUN + 1
        # points in a piece before it jumps, and the cache stops there
        bound = (_STEPPED_RUN + 1) * len(g.piece_lines()) + 1
        for comp in components(g):
            orbit = ComponentOrbit(g, anchor_point(comp))
            for i in (10 ** 4, -10 ** 4):
                q = orbit.point(i)
                assert orbit.locate((q + orbit.point(i + 1)) / 2) == i
            assert len(orbit._fwd) <= bound and len(orbit._bwd) <= bound


class _Recorder:
    """The identity seed in the pair protocol, either way: records every
    point it maps."""

    def __init__(self):
        self.seen = []

    def _image(self, n, d, back=False, germ=None):
        self.seen.append(F(n, d))
        return n, d, 0


def check_one_walk(g, m, anchor, q):
    """The transport of m along its own orbit locates q and pulls it back as
    ``orbit_locate`` and ``apply_power`` on the PL map g do, both ways."""
    seed = _Recorder()
    x = OrbitTransport(m, m, seed, anchor, anchor)
    i = orbit_locate(g, anchor, q).index
    pulled = apply_power(g, -i, q)
    assert min(anchor, g.forward(anchor)) <= pulled < max(anchor, g.forward(anchor))
    for side in x._sides:
        k, n, d = x._pull(q.numerator, q.denominator, side)
        assert (k, F(n, d)) == (i, pulled)
    # t^i(t^-i(q)) = q, with t^-i(q) the point the seed saw
    assert x.forward(q) == q and seed.seen[-1] == pulled
    assert x.backward(q) == q and seed.seen[-1] == pulled
    return i


class TestOneWalkLocates:
    """``OrbitTransport`` finds a point's block index and its pull-back into
    the anchor block in one walk; both must be the ones ``orbit_locate`` and
    ``apply_power`` give, for PL and ``wrap``-ped maps, positive and
    negative components and both sides of the anchor."""

    @given(maps, st.data(), counts, st.booleans(),
           st.fractions(0, 1, max_denominator=9).filter(lambda t: t < 1), st.booleans())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_index_and_pull_back(self, g, data, i, negative, t, wrapped):
        if wrapped:
            i %= 300  # a wrapped map is stepped in Fractions
        i = -i - 1 if negative else i
        comps = components(g)
        if not comps:
            return
        anchor = anchor_point(data.draw(st.sampled_from(comps)))
        lo, hi = sorted((apply_power(g, i, anchor), apply_power(g, i + 1, anchor)))
        q = lo + t * (hi - lo)
        assert check_one_walk(g, wrap(g) if wrapped else g, anchor, q) == i

    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("g", NAMED)
    def test_exact_orbit_points(self, g, wrapped):
        # anchor*g^k is the lower end of block k of an increasing orbit, of
        # block k - 1 of a decreasing one; a walk down lands on the top end
        # of the anchor block, a walk up steps one past its lower end
        for comp in components(g):
            anchor = anchor_point(comp)
            for k in range(-5, 6):
                q = apply_power(g, k, anchor)
                i = k if comp.color is Color.POS else k - 1
                assert check_one_walk(g, wrap(g) if wrapped else g, anchor, q) == i

    def test_both_colors_covered(self):
        assert {c.color for g in NAMED for c in components(g)} == {Color.POS, Color.NEG}

    @pytest.mark.parametrize("g", NAMED)
    def test_other_component_raises(self, g):
        # fixed points, and points of other elements, are no block of the
        # anchor's orbit; a wrapped map is stepped, so it is tried at fixed
        # points only, where its first step shows it
        terrain = support_decompose(g)
        fixed = [b for e in terrain for b in (e.lo, e.hi) if is_finite(b)]
        for comp in components(g):
            anchor = anchor_point(comp)
            others = [anchor_point(e) for e in terrain if e != comp]
            for m, qs in ((g, fixed + others), (wrap(g), fixed)):
                x = OrbitTransport(m, m, _Recorder(), anchor, anchor)
                for q in qs:
                    for evaluate in (x.forward, x.backward):
                        with pytest.raises(ValueError):
                            evaluate(q)


class TestFarIndex:
    """Solutions evaluated 10^6 orbit steps out on a slope-1 tail."""

    @pytest.mark.parametrize("mode", ["linear", "fast_forward"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_conjugator(self, mode, sign):
        g = PROBE if sign > 0 else reflect(PROBE)
        f = conjugation(g, PLAutomorphism.translation(F(1, 3)))
        h = solve_conjugacy(g, f)
        for q in (F(10 ** 6) + F(2, 7), F(-10 ** 6) - F(3, 5)):
            beta = anchor_point(support_decompose(f)[0])
            assert abs(orbit_locate(f, beta, q, mode).index) >= 10 ** 6 - 2
            assert h.forward(g.forward(h.backward(q))) == f.forward(q)
            assert h.backward(h.forward(q)) == q

    @pytest.mark.parametrize("sign", [1, -1])
    def test_xgx(self, sign):
        g = PROBE if sign > 0 else reflect(PROBE)
        f = PLAutomorphism(((-1, 0), (2, F(5, 2))), 1, 1)
        f = f if sign > 0 else reflect(f)
        x = solve_xgx(g, f)
        fg = compose(f, g)
        alpha = anchor_point(support_decompose(fg)[0])
        for q in (F(2 * 10 ** 6) + F(1, 3), F(-3 * 10 ** 6) - F(4, 9)):
            assert abs(orbit_locate(fg, alpha, q).index) >= 10 ** 6
            assert x.forward(g.forward(x.forward(q))) == f.forward(q)


class TestUnreachableTarget:
    """0 lies in the component +(-11, 5) of TWO_SIGNS and 1024 in -(5, inf);
    the orbit of 0 converges to 5, so no walk from 0 passes 1024."""

    @pytest.mark.parametrize("mode", ["linear", "fast_forward"])
    def test_orbit_locate_raises_at_once(self, mode):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            orbit_locate(TWO_SIGNS, F(0), F(1024), mode)
        assert time.perf_counter() - start < 1.0

    def test_component_orbit_raises_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            ComponentOrbit(TWO_SIGNS, F(0)).locate(F(1024))
        assert time.perf_counter() - start < 1.0
