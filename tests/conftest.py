import random

import pytest
from fractions import Fraction

from lineaut import Color, Word, support_decompose
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
