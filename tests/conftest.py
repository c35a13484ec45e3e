import bisect
import random
from dataclasses import dataclass
from functools import partial

import pytest
from fractions import Fraction

from lineaut import (
    Color,
    PLAutomorphism,
    Word,
    anchor_point,
    apply_power,
    compose,
    orbit_locate,
    support_decompose,
)
from lineaut.conjugacy import OrbitTransport
from lineaut.equations import _xgx_piece
from lineaut.rational import NEG_INF, POS_INF, is_finite
from lineaut.samples import _terrain_probes, default_samples, random_fraction, random_pl
from lineaut.terrain import Terrain, TerrainElement

# Terrain "-+" with boundary -5, slopes 3/2 and 1: the boundary fixed point
# is a knot, and the "+" component ends there with slope 58/57, so orbits
# near -5 are long.
SLOW_BOUNDARY = PLAutomorphism(((-5, -5), (Fraction(9, 2), Fraction(14, 3)), (5, 6)),
                               Fraction(3, 2), 1)
SLOW_BOUNDARY_POINTS = (default_samples(61, 0, (support_decompose(SLOW_BOUNDARY),))
                        + [Fraction(4), Fraction(24, 7), Fraction(8)])


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_reduced_word(rng: random.Random, max_len: int = 6, n_vars: int = 3) -> Word:
    """Uniform-ish random reduced word; cyclically unreduced words allowed."""
    m = rng.randint(1, max_len)
    letters = []
    for _ in range(m):
        while True:
            cand = (rng.randint(2, 1 + n_vars), rng.choice((1, -1)))
            if letters and letters[-1][0] == cand[0] and letters[-1][1] == -cand[1]:
                continue
            break
        letters.append(cand)
    return Word(tuple(letters))


def random_zero_sum_word(rng: random.Random, max_len: int = 6, n_vars: int = 3) -> Word:
    """Random reduced word whose exponent sums are all zero, by rejection."""
    while True:
        word = random_reduced_word(rng, max_len, n_vars)
        sums = {}
        for v, e in word.letters:
            sums[v] = sums.get(v, 0) + e
        if not any(sums.values()):
            return word


def reference_default_samples(count, seed=0, terrains=()):
    """Reference for ``default_samples``: the grid built on every call and
    sorted by Fraction comparison."""
    picks = set()
    for k in range(-8, 9):
        picks.add(Fraction(k))
    for den in (2, 3, 5, 7):
        for num in range(-4 * den, 4 * den + 1):
            picks.add(Fraction(num, den))
    for terrain in terrains:
        picks.update(_terrain_probes(terrain))
    rng = random.Random(seed)
    while len(picks) < count:
        picks.add(random_fraction(rng, span=12, max_den=64))
    ordered = sorted(picks)
    if len(ordered) > count:
        rng.shuffle(ordered)
        ordered = sorted(ordered[:count])
    return ordered


def fraction_grid(lo: int, hi: int, den: int = 4) -> list:
    return [Fraction(n, den) for n in range(lo * den, hi * den + 1)]


def sample_pls(rng: random.Random, count: int, **kwargs) -> list:
    return [random_pl(rng, **kwargs) for _ in range(count)]


def isolated_fixed_points(g) -> list:
    """Fixed points of g between two support components, in line order."""
    terrain = list(support_decompose(g))
    return [a.hi for a, b in zip(terrain, terrain[1:])
            if Color.FIXED not in (a.color, b.color)]


def walk_locate(orbit, q):
    """Reference block index: walk the orbit from the anchor one point at a time."""
    up = q >= orbit.anchor
    with_g = orbit.increasing == up
    step = 1 if with_g else -1
    i = step
    while (orbit.point(i) > q) != up:
        i += step
    return i - 1 if with_g else i


def variable_window_reference(component, i):
    """Reference for the window of a ``_VariableComponent`` on orbit block
    i: the constraint pairs of blocks i-1, i and i+1, sorted and checked
    strictly increasing in both coordinates, as (inputs, outputs)."""
    pairs = []
    for blk in (i - 1, i, i + 1):
        for j, e in component.positions:
            a, b = component.sub.point(blk, j - 1), component.sub.point(blk, j)
            pairs.append((a, b) if e == 1 else (b, a))
    pairs.sort()
    for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
        if not (a1 < a2 and b1 < b2):
            raise RuntimeError("inconsistent word constraints")
    return tuple(zip(*pairs))


def interpolate_reference(src, dst, q):
    """Affine interpolation in Fractions through the points (src[k], dst[k]),
    src sorted, at a q between src[0] and src[-1]."""
    pos = bisect.bisect_right(src, q) - 1
    if src[pos] == q:
        return dst[pos]
    return dst[pos] + (dst[pos + 1] - dst[pos]) * (q - src[pos]) / (src[pos + 1] - src[pos])


def linear_locate(terrain, q):
    """Reference for ``Terrain.locate``: a linear scan of ``contains``, then
    of the boundaries between elements."""
    for k, e in enumerate(terrain):
        if e.contains(q):
            return ("element", k)
    for k, e in enumerate(terrain.elements[:-1]):
        if e.hi == q:
            return ("boundary", k)
    raise ValueError(f"point {q} not located in terrain {terrain.color_sequence()!r}")


def transport_forward(t, q, mode="linear"):
    """Reference for ``OrbitTransport.forward``: its formula in Fractions,
    with the block index from ``orbit_locate`` in ``mode``, not the
    transport's walk."""
    i = orbit_locate(t.t_in, t.anchor_in, q, mode).index
    return apply_power(t.t_out, i, t.seed.forward(apply_power(t.t_in, -i, q)))


def transport_backward(t, q, mode="linear"):
    """Reference for ``OrbitTransport.backward``: its formula in Fractions,
    with the block index from ``orbit_locate`` in ``mode``, not the
    transport's walk."""
    i = orbit_locate(t.t_out, t.anchor_out, q, mode).index
    return apply_power(t.t_in, i, t.seed.backward(apply_power(t.t_out, -i, q)))


def by_terrain_reference(terrain_in, terrain_out, forwards, backwards):
    """(forward, backward) of the terrain dispatcher, located by
    ``linear_locate``: element k of terrain_in goes through forwards[k], the
    isolated fixed point after it to the one after element k of terrain_out."""

    def fwd(q):
        kind, k = linear_locate(terrain_in, q)
        return forwards[k](q) if kind == "element" else terrain_out[k].hi

    def bwd(q):
        kind, k = linear_locate(terrain_out, q)
        return backwards[k](q) if kind == "element" else terrain_in[k].hi

    return fwd, bwd


@dataclass(frozen=True)
class BridgeReference:
    """Reference for ``AffineBridge``: the affine map [source_lo, source_hi)
    -> [target_lo, target_hi) by its slope formula in Fractions."""

    source_lo: Fraction
    source_hi: Fraction
    target_lo: Fraction
    target_hi: Fraction

    @property
    def slope(self):
        return (self.target_hi - self.target_lo) / (self.source_hi - self.source_lo)

    def forward(self, q):
        return self.target_lo + self.slope * (q - self.source_lo)

    def backward(self, q):
        return self.source_lo + (q - self.target_lo) / self.slope


def fixed_interval_reference(source, target):
    """(forward, backward) of ``conjugate_on_fixed(source, target)`` in
    Fractions: the affine map of the closed intervals when both are bounded,
    the translation that aligns the finite ends when one end is infinite,
    and the identity on the whole line."""
    if is_finite(source.lo) and is_finite(source.hi):
        bridge = BridgeReference(source.lo, source.hi, target.lo, target.hi)
        return bridge.forward, bridge.backward
    if is_finite(source.hi):
        shift = target.hi - source.hi
    elif is_finite(source.lo):
        shift = target.lo - source.lo
    else:
        shift = 0
    return (lambda q: q + shift), (lambda q: q - shift)


def conjugator_reference(g, f, mode):
    """(forward, backward) of ``solve_conjugacy(g, f, mode)``: each pair of
    components through the transport formula in Fractions, located by
    ``orbit_locate`` in ``mode``, with ``BridgeReference`` from anchor block
    to anchor block as its seed, and each pair of fixed intervals through
    ``fixed_interval_reference``."""
    terrain_g, terrain_f = support_decompose(g), support_decompose(f)
    forwards, backwards = [], []
    for eg, ef in zip(terrain_g, terrain_f):
        if eg.color is Color.FIXED:
            fwd, bwd = fixed_interval_reference(eg, ef)
            forwards.append(fwd)
            backwards.append(bwd)
            continue
        alpha, beta = anchor_point(eg), anchor_point(ef)
        ends = sorted((alpha, g.forward(alpha))) + sorted((beta, f.forward(beta)))
        t = OrbitTransport(g, f, BridgeReference(*ends), alpha, beta)
        forwards.append(partial(transport_forward, t, mode=mode))
        backwards.append(partial(transport_backward, t, mode=mode))
    return by_terrain_reference(terrain_g, terrain_f, forwards, backwards)


class XgxSeed:
    """Reference for the seed of x g x = f on the anchor block of fg between
    alpha and alpha*fg, in Fractions.  It maps that block onto the one
    between beta and beta*gf: on alpha's side of beta*g through the affine
    bridge that sends alpha to beta and beta*g to alpha*f, on the other side
    through g^-1, the inverse bridge and f.  ``backward`` splits the same way
    at alpha*f, beta's side first.  beta is the anchor ``_xgx_piece`` pairs
    with alpha, midway between alpha*g^-1 and alpha*f."""

    def __init__(self, f, g, alpha):
        self.f, self.g = f, g
        self.beta = beta = (g.backward(alpha) + f.forward(alpha)) / 2
        self.beta_g = g.forward(beta)
        self.alpha_f = f.forward(alpha)
        self.below = alpha < self.beta_g
        self.bridge = BridgeReference(*sorted((alpha, self.beta_g)),
                                      *sorted((beta, self.alpha_f)))

    def forward(self, v):
        if (v < self.beta_g) == self.below:
            return self.bridge.forward(v)
        return self.f.forward(self.bridge.backward(self.g.backward(v)))

    def backward(self, v):
        if (v < self.alpha_f) == self.below:
            return self.bridge.backward(v)
        return self.g.forward(self.bridge.forward(self.f.backward(v)))


class RootSeed:
    """Reference for the seed of the n-th root x = h^-1 g h of g on the
    anchor block of g between a and a g, in Fractions.  b is the affine
    bridge that sends a to a and a g^n to a g.  With z = g(b^-1(p)), the seed
    is b(z) on a's side of a g^n and g(b(g^-n(z))) on the other; it maps the
    block onto the one between ``start`` = b(a g) and ``start`` g.  Its
    inverse is u -> b(g^-1(v)), with v = b^-1(u) on a's side of a g and
    v = g^n(b^-1(g^-1(u))) on the other."""

    def __init__(self, g, n, a):
        self.g, self.n = g, n
        self.a_g = g.forward(a)
        self.a_gn = apply_power(g, n, a)
        self.below = a < self.a_g
        self.bridge = BridgeReference(*sorted((a, self.a_gn)), *sorted((a, self.a_g)))
        self.start = self.bridge.forward(self.a_g)

    def forward(self, p):
        z = self.g.forward(self.bridge.backward(p))
        if (z < self.a_gn) == self.below:
            return self.bridge.forward(z)
        return self.g.forward(self.bridge.forward(apply_power(self.g, -self.n, z)))

    def backward(self, u):
        if (u < self.a_g) == self.below:
            v = self.bridge.backward(u)
        else:
            v = apply_power(self.g, self.n, self.bridge.backward(self.g.backward(u)))
        return self.bridge.forward(self.g.backward(v))


def xgx_reference(g, f):
    """(forward, backward) of ``solve_xgx(g, f)``: each component of the
    support of fg through the transport formula in Fractions, with the
    reference seed ``XgxSeed``, f on the fixed set of fg."""
    fg, gf = compose(f, g), compose(g, f)
    forwards, backwards = [], []
    terrain_fg = support_decompose(fg)
    for e in terrain_fg:
        if e.color is Color.FIXED:
            forwards.append(f.forward)
            backwards.append(f.backward)
        else:
            alpha = anchor_point(e)
            p = _xgx_piece(f, g, fg, gf, alpha)
            t = OrbitTransport(p.t_in, p.t_out, XgxSeed(f, g, alpha), p.anchor_in, p.anchor_out)
            forwards.append(partial(transport_forward, t))
            backwards.append(partial(transport_backward, t))
    return by_terrain_reference(terrain_fg, support_decompose(gf), forwards, backwards)


# References for the integer piece table of ``PLAutomorphism``: the Fraction
# construction, inverse, composition, pointwise min/max and support
# decomposition it replaced.  A map is handled here as its raw triple
# (knots, left_slope, right_slope) of Fractions.


def triple(f):
    return f.knots, f.left_slope, f.right_slope


def reference_piece_lines(knots, left_slope, right_slope):
    """(slope, intercept) per affine piece, tails included, in Fractions."""
    if not knots:
        return [(Fraction(1), Fraction(0))]
    x0, y0 = knots[0]
    lines = [(left_slope, y0 - left_slope * x0)]
    for (xa, ya), (xb, yb) in zip(knots, knots[1:]):
        a = (yb - ya) / (xb - xa)
        lines.append((a, ya - a * xa))
    xm, ym = knots[-1]
    lines.append((right_slope, ym - right_slope * xm))
    return lines


def reference_canonical(knots, left_slope, right_slope):
    """Canonical triple of valid raw knot data: redundant (collinear) knots
    dropped, a globally affine map anchored at x = 0, the identity knotless."""
    knots = tuple((Fraction(x), Fraction(y)) for x, y in knots)
    left_slope, right_slope = Fraction(left_slope), Fraction(right_slope)
    if not knots:
        return (), Fraction(1), Fraction(1)
    lines = reference_piece_lines(knots, left_slope, right_slope)
    kept = tuple(knots[i] for i in range(len(knots)) if lines[i] != lines[i + 1])
    if not kept:
        a, b = lines[0]
        if a == 1 and b == 0:
            return (), Fraction(1), Fraction(1)
        return ((Fraction(0), b),), a, a
    return kept, left_slope, right_slope


def reference_eval(knots, left_slope, right_slope, q):
    """Image of q under a canonical triple, by a linear scan of the pieces."""
    if not knots:
        return q
    lines = reference_piece_lines(knots, left_slope, right_slope)
    p = sum(1 for x, _ in knots if x < q)
    a, b = lines[p]
    return a * q + b


def reference_inverse(f):
    """Canonical triple of the inverse of f: knots reflected across the diagonal."""
    return reference_canonical(tuple((y, x) for x, y in f.knots),
                               1 / f.left_slope, 1 / f.right_slope)


def reference_compose(f, g):
    """Canonical triple of ``compose(f, g)``: knots at f's knot xs and f^-1 of
    g's knot xs, sorted, with their images under g after f."""
    f_inv = reference_inverse(f)
    xs = {x for x, _ in f.knots}
    xs.update(reference_eval(*f_inv, x) for x, _ in g.knots)
    knots = tuple(sorted((x, reference_eval(*triple(g), reference_eval(*triple(f), x)))
                         for x in xs))
    return reference_canonical(knots, f.left_slope * g.left_slope,
                               f.right_slope * g.right_slope)


def reference_select_pointwise(f, g, want_min):
    """Canonical triple of ``meet(f, g)`` (``want_min``) or ``join(f, g)``: the
    knots of both maps plus every crossing of their pieces, in Fractions."""
    if triple(f) == triple(g):
        return triple(f)
    f_xs, g_xs = [x for x, _ in f.knots], [x for x, _ in g.knots]
    f_lines, g_lines = reference_piece_lines(*triple(f)), reference_piece_lines(*triple(g))
    ordered = sorted(set(f_xs) | set(g_xs))
    boundaries = set(ordered)
    regions = [(None, ordered[0])] + list(zip(ordered, ordered[1:])) + [(ordered[-1], None)]
    for lo, hi in regions:
        probe = lo if lo is not None else hi - 1
        fa, fb = f_lines[sum(1 for x in f_xs if x <= probe)]
        ga, gb = g_lines[sum(1 for x in g_xs if x <= probe)]
        if fa != ga:
            x_star = (gb - fb) / (fa - ga)
            if (lo is None or x_star > lo) and (hi is None or x_star < hi):
                boundaries.add(x_star)
    ordered = sorted(boundaries)
    pick = min if want_min else max

    def value(q):
        return pick(reference_eval(*triple(f), q), reference_eval(*triple(g), q))

    def tail(q, f_slope, g_slope):
        return f_slope if value(q) == reference_eval(*triple(f), q) else g_slope

    knots = tuple((x, value(x)) for x in ordered)
    return reference_canonical(knots, tail(ordered[0] - 1, f.left_slope, g.left_slope),
                               tail(ordered[-1] + 1, f.right_slope, g.right_slope))


def reference_support_decompose(g):
    """Terrain of g: breakpoints at the knots and at the root of the
    displacement inside each piece, each sign read off by evaluating g."""
    if g.is_identity:
        return Terrain((TerrainElement(Color.FIXED, NEG_INF, POS_INF),))

    def sign(q):
        d = reference_eval(*triple(g), q) - q
        return (d > 0) - (d < 0)

    xs = [x for x, _ in g.knots]
    breakpoints = set(xs)
    for p, (a, b) in enumerate(reference_piece_lines(*triple(g))):
        if a != 1:
            root = b / (1 - a)
            if (p == 0 or root > xs[p - 1]) and (p == len(xs) or root < xs[p]):
                breakpoints.add(root)
    bps = sorted(breakpoints)
    items = [(NEG_INF, bps[0], sign(bps[0] - 1))]
    for k, bp in enumerate(bps):
        items.append((bp, bp, sign(bp)))
        if k + 1 < len(bps):
            items.append((bp, bps[k + 1], sign((bp + bps[k + 1]) / 2)))
    items.append((bps[-1], POS_INF, sign(bps[-1] + 1)))
    runs = [list(items[0])]
    for lo, hi, s in items[1:]:
        if s == runs[-1][2]:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, s])
    colors = {1: Color.POS, -1: Color.NEG, 0: Color.FIXED}
    return Terrain(tuple(TerrainElement(colors[s], lo, hi) for lo, hi, s in runs
                         if s != 0 or lo != hi))
