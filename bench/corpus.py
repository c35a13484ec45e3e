"""Seeded input generators.

Every input is built here from a ``random.Random`` as raw knot data and
handed to lineaut only as a finished ``PLAutomorphism``.  No lineaut code
takes part in generating inputs, so a change to the library cannot change
what the benchmark feeds it.  The distributions follow the acceptance
corpora (``tests/test_acceptance.py``): knots drawn from small-denominator
rationals in [-6, 6] and tail slopes from {1/3, 1/2, 2/3, 1, 3/2, 2, 3}.
Knot counts are fixed per slot of a round instead of drawn at random, so
that rounds of different seeds cost about the same.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import RefPL, boundary_rates, ref_compose, ref_conjugate

SLOPES = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
          Fraction(3, 2), Fraction(2), Fraction(3))


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    # str seeds are hashed with SHA-512, so this is stable across processes
    return random.Random(f"{workload}/{seed}/{r}")


def rand_frac(rng, span=6, max_den=4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


def rand_map(rng, k: int, span=6, max_den=4) -> RefPL:
    """Map with k knots (affine when k == 0), as ``samples.random_pl`` draws them."""
    if k > 0:
        pool = sorted({rand_frac(rng, span, max_den) for _ in range(3 * k + 4)})
        if len(pool) >= 2 * k:
            xs = sorted(rng.sample(pool, k))
            ys = sorted(rng.sample(pool, k))
            return RefPL(list(zip(xs, ys)), rng.choice(SLOPES), rng.choice(SLOPES))
    a = rng.choice(SLOPES)
    b = rand_frac(rng, span, max_den)
    if a == 1 and b == 0:
        return RefPL(())
    return RefPL([(Fraction(0), b)], a, a)


FIRM = Fraction(3, 2)


def firm(g: RefPL) -> bool:
    """Every boundary of a support component attracts or repels at rate at
    least 3/2, so points 1/64 from it are about 10 orbit steps from the
    middle of their component."""
    return all(r >= FIRM or r <= 1 / FIRM for r in boundary_rates(g))


def firm_map(rng, k: int) -> RefPL:
    while True:
        g = rand_map(rng, k)
        if firm(g):
            return g


def realize_ref(seq: str) -> RefPL:
    """A map with the given color sequence: element k fills slot (k-1, k)."""
    m = len(seq)
    if m == 1:
        return {"+": RefPL([(0, 1)]), "-": RefPL([(0, -1)]), "0": RefPL(())}[seq]
    knots = {}
    for k, ch in enumerate(seq):
        lo, hi = Fraction(k - 1), Fraction(k)
        if ch == "0":
            continue
        up = 1 if ch == "+" else -1
        if k == 0:
            knots[hi - 2] = hi - 2 + up
            knots[hi] = hi
        elif k == m - 1:
            knots[lo] = lo
            knots[lo + 2] = lo + 2 + up
        else:
            knots[lo] = lo
            knots[hi] = hi
            knots[(lo + hi) / 2] = (lo + hi) / 2 + Fraction(up, 4)
    return RefPL(sorted(knots.items()))


def with_sequence(rng, seq: str) -> RefPL:
    """Random map with the given color sequence: the slot realization
    conjugated by a random map."""
    return ref_conjugate(realize_ref(seq), rand_map(rng, rng.randint(1, 3)))


def tail_map(rng, k: int, c: Fraction) -> RefPL:
    """k knots, then the translation t -> t + c on the whole right tail."""
    while True:
        xs = sorted({rand_frac(rng) for _ in range(k)})
        ys = sorted({rand_frac(rng) for _ in range(k - 1)})
        if len(xs) < k or len(ys) < k - 1:
            continue
        ys.append(xs[-1] + c)
        if all(a < b for a, b in zip(ys, ys[1:])):
            return RefPL(list(zip(xs, ys)), rng.choice(SLOPES), 1)


def line_map(rng, k: int, c: Fraction) -> RefPL:
    """No fixed point: displacement of the sign of c everywhere, t -> t + c
    on both tails, k >= 3 knots of which the middle ones move by other
    multiples of c."""
    while True:
        xs = sorted({rand_frac(rng) for _ in range(k)})
        if len(xs) < k:
            continue
        ys = [xs[0] + c] + [x + c * Fraction(rng.choice((1, 2, 3, 5, 6, 7)), 4)
                            for x in xs[1:-1]] + [xs[-1] + c]
        if all(a < b for a, b in zip(ys, ys[1:])):
            return RefPL(list(zip(xs, ys)), 1, 1)


def reflect_ref(g: RefPL) -> RefPL:
    """t -> -g(-t)."""
    return RefPL([(-x, -y) for x, y in reversed(g.knots)], g.right_slope, g.left_slope)


def conjugate_pair(rng, kg: int, kh: int):
    """(g, f) with f = h^-1 g h for a random h (criterion 2)."""
    g = rand_map(rng, kg)
    return g, ref_conjugate(g, rand_map(rng, kh))


def xgx_pair(rng, kg: int, kf: int):
    """(g, f) with a firm product fg (f first)."""
    while True:
        g, f = rand_map(rng, kg), rand_map(rng, kf)
        if firm(ref_compose(f, g)):
            return g, f


def xgx_forced_pair(rng, seq: str):
    """(g, f) whose firm product fg (f first) has the given color sequence."""
    while True:
        target = with_sequence(rng, seq)
        if firm(target):
            break
    f = rand_map(rng, rng.randint(1, 4))
    return ref_compose(f.inverse(), target), f


def reduced_word(rng, length: int, n_vars=3) -> tuple:
    """Random reduced word as (variable, exponent) letters, variables from 2."""
    letters = []
    for _ in range(length):
        while True:
            cand = (rng.randint(2, 1 + n_vars), rng.choice((1, -1)))
            if not (letters and letters[-1][0] == cand[0] and letters[-1][1] == -cand[1]):
                break
        letters.append(cand)
    return tuple(letters)


def all_sequences(max_len: int) -> list:
    """Every color sequence up to max_len, generated without lineaut."""
    out, layer = [], [""]
    for _ in range(max_len):
        layer = [s + c for s in layer for c in "+-0" if not (s.endswith("0") and c == "0")]
        out.extend(sorted(layer))
    return out
