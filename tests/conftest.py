import random
from functools import partial

import pytest
from fractions import Fraction

from lineaut import (
    AffineBridge,
    Color,
    Word,
    anchor_point,
    apply_power,
    compose,
    conjugate_on_fixed,
    orbit_locate,
    support_decompose,
)
from lineaut.conjugacy import OrbitTransport
from lineaut.equations import _xgx_piece
from lineaut.samples import random_pl


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


def transport_forward(t, q):
    """Reference for ``OrbitTransport.forward``: its formula in Fractions."""
    i = t.locate_in(q)
    return apply_power(t.t_out, i, t.seed.forward(apply_power(t.t_in, -i, q)))


def transport_backward(t, q):
    """Reference for ``OrbitTransport.backward``: its formula in Fractions."""
    i = t.locate_out(q)
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


def conjugator_reference(g, f, mode):
    """(forward, backward) of ``solve_conjugacy(g, f, mode)``: each pair of
    components through the transport formula in Fractions, with the affine
    bridge from anchor block to anchor block as its seed."""
    terrain_g, terrain_f = support_decompose(g), support_decompose(f)
    forwards, backwards = [], []
    for eg, ef in zip(terrain_g, terrain_f):
        if eg.color is Color.FIXED:
            piece = conjugate_on_fixed(eg, ef)
            forwards.append(piece.forward)
            backwards.append(piece.backward)
            continue
        alpha, beta = anchor_point(eg), anchor_point(ef)
        ends = sorted((alpha, g.forward(alpha))) + sorted((beta, f.forward(beta)))
        t = OrbitTransport(g, f, AffineBridge(*ends),
                           partial(lambda a, q: orbit_locate(g, a, q, mode).index, alpha),
                           partial(lambda b, q: orbit_locate(f, b, q, mode).index, beta))
        forwards.append(partial(transport_forward, t))
        backwards.append(partial(transport_backward, t))
    return by_terrain_reference(terrain_g, terrain_f, forwards, backwards)


def xgx_reference(g, f):
    """(forward, backward) of ``solve_xgx(g, f)``: each component of the
    support of fg through the transport formula in Fractions, f on the
    fixed set of fg."""
    fg, gf = compose(f, g), compose(g, f)
    forwards, backwards = [], []
    terrain_fg = support_decompose(fg)
    for e in terrain_fg:
        if e.color is Color.FIXED:
            forwards.append(f.forward)
            backwards.append(f.backward)
        else:
            t = _xgx_piece(f, g, fg, gf, anchor_point(e))
            forwards.append(partial(transport_forward, t))
            backwards.append(partial(transport_backward, t))
    return by_terrain_reference(terrain_fg, support_decompose(gf), forwards, backwards)
