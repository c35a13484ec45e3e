"""Sample-point and random-input generation.

Verification in this library is pointwise and exact, so sample sets matter:
the default mix combines small-denominator rationals spread over a window,
midpoints of terrain elements, and points just inside element boundaries
(where orbit indices get large and case splits are exercised), topped up
with seeded pseudo-random rationals to the requested count.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .automorphism import PLAutomorphism, compose, inverse
from .conjugacy import anchor_point
from .rational import is_finite
from .terrain import Terrain, realize

DEFAULT_SAMPLE_COUNT = 257

_SLOPES = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
           Fraction(3, 2), Fraction(2), Fraction(3))


def random_fraction(rng: random.Random, span: int = 8, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(-span * den, span * den)
    return Fraction(num, den)


def random_pl(rng: random.Random, max_knots: int = 4, span: int = 6,
              max_den: int = 4) -> PLAutomorphism:
    """Random piecewise-linear automorphism with small rational data."""
    count = rng.randint(0, max_knots)
    if count == 0:
        a = rng.choice(_SLOPES)
        b = random_fraction(rng, span, max_den)
        return PLAutomorphism.affine(a, b)
    pool = {random_fraction(rng, span, max_den) for _ in range(3 * count + 4)}
    if len(pool) < 2 * count:
        return PLAutomorphism.affine(rng.choice(_SLOPES), random_fraction(rng, span, max_den))
    points = sorted(pool)
    xs = sorted(rng.sample(points, count))
    ys = sorted(rng.sample(points, count))
    return PLAutomorphism(
        tuple(zip(xs, ys)),
        rng.choice(_SLOPES),
        rng.choice(_SLOPES),
    )


def random_with_sequence(rng: random.Random, seq: str) -> PLAutomorphism:
    """Random map whose terrain has the given color sequence.

    Built by conjugating the canonical realization by a random map, which
    preserves the sequence while varying every coordinate.
    """
    base = realize(seq)
    h = random_pl(rng)
    return compose(compose(inverse(h), base), h)


# the fixed part of every default sample set: the integers -8..8 and the
# rationals in [-4, 4] with denominators 2, 3, 5 and 7
_GRID = frozenset([Fraction(k) for k in range(-8, 9)]
                  + [Fraction(num, den) for den in (2, 3, 5, 7)
                     for num in range(-4 * den, 4 * den + 1)])

# the random picks: the rationals in [-_SPAN, _SPAN] with denominator at most
# _MAX_DEN, _GRID among them; there are _POOL_SIZE of them (a test recounts)
_SPAN, _MAX_DEN = 12, 64
_POOL_SIZE = 30241


def default_samples(count: int = DEFAULT_SAMPLE_COUNT, seed: int = 0,
                    terrains: tuple = ()) -> list:
    """Deterministic mixed sample set of exactly ``count`` rationals.

    Sorting compares exact integer keys: each pick scaled to the common
    denominator L of all picks, n/d -> n (L / d), which orders them as the
    rationals do without a Fraction comparison.  Raises ``ValueError`` when
    ``count`` exceeds the random picks and terrain probes there are to draw.
    """
    if count < 0:
        raise ValueError(f"sample count must be non-negative; got {count}")
    picks = set(_GRID)
    for terrain in terrains:
        picks.update(_terrain_probes(terrain))
    if count > _POOL_SIZE:
        limit = _POOL_SIZE + sum(1 for q in picks
                                 if abs(q) > _SPAN or q.denominator > _MAX_DEN)
        if count > limit:
            raise ValueError(f"sample count {count} exceeds the {limit} distinct "
                             "sample points there are to draw")
    rng = random.Random(seed)
    while len(picks) < count:
        picks.add(random_fraction(rng, span=_SPAN, max_den=_MAX_DEN))
    common = lcm(*{q.denominator for q in picks})

    def key(q):
        return q.numerator * (common // q.denominator)

    ordered = sorted(picks, key=key)
    if len(ordered) > count:
        rng.shuffle(ordered)
        ordered = sorted(ordered[:count], key=key)
    return ordered


def _terrain_probes(terrain: Terrain) -> list:
    probes = []
    for element in terrain:
        probes.append(anchor_point(element))
        for end, sign in ((element.lo, 1), (element.hi, -1)):
            if not is_finite(end):
                continue
            for den in (4, 16, 64):
                probe = end + Fraction(sign, den)
                if element.contains(probe):
                    probes.append(probe)
    return probes
