"""The exact values of every kind of solver output, pinned by one digest.

Conjugators, ``x g x = f`` solved both ways round, square and cube roots,
the commutator's y and a variable of a word whose exponent sums are all
zero, on three maps: ``realize("-+-")``, ``realize("+0-")`` and a map with
slope-1 tails.  Each is evaluated forward and backward at 61 default
samples and at orbit index +-10 and +-100 of a point inside each anchor
block (the word variable, which applies the word value |i| times at orbit
index i, at +-10 only), once plainly (``_image``) and once through a piece
cache started at the first evaluation and never dropped.  The sha256 of the value strings
must be ``DIGEST`` both times.  A change that moves any value, cached or
plain, fails here; a change to how values are computed must keep it.
"""

import hashlib
import random
from fractions import Fraction

import lineaut.automorphism as automorphism
from lineaut import (
    Color,
    PLAutomorphism,
    Word,
    anchor_point,
    apply_power,
    commutator_decomposition,
    conjugation,
    format_rational,
    nth_root,
    realize,
    solve_conjugacy,
    solve_word,
    solve_xgx,
    support_decompose,
)
from lineaut.samples import default_samples, random_pl

DIGEST = "a2ecbfc85d12d006ebf3ec364b7b73d02cbbe7c4cc5505af0846bd98f4a9c669"

TAILED = PLAutomorphism(((Fraction(-2), Fraction(-1)), (Fraction(0), Fraction(3, 2)),
                         (Fraction(3), Fraction(4))))
ZERO_SUM = Word(((2, 1), (3, 1), (2, -1), (3, -1)))


def cases():
    """(name, solution, points) on each map, in a fixed order."""
    for seed, g in enumerate((realize("-+-"), realize("+0-"), TAILED)):
        f = conjugation(g, random_pl(random.Random(seed)))
        terrain = support_decompose(g)
        points, far = default_samples(61, seed, (terrain,)), []
        for e in terrain:
            if e.color is not Color.FIXED:
                a = anchor_point(e)
                middle = (a + g.forward(a)) / 2
                points += [apply_power(g, i, middle) for i in (-10, 10)]
                far += [apply_power(g, i, middle) for i in (-100, 100)]
        for name, x in (("conjugator", solve_conjugacy(g, f)), ("xgx", solve_xgx(g, f)),
                        ("xgx-reversed", solve_xgx(f, g)), ("root2", nth_root(g, 2)),
                        ("root3", nth_root(g, 3)),
                        ("commutator-y", commutator_decomposition(g)[1]),
                        ("word-variable", solve_word(ZERO_SUM, g)[3])):
            yield f"{seed} {name}", x, points if name == "word-variable" else points + far


def digest(value):
    """sha256 over every case, point and direction of ``value(x, q, back)``."""
    h = hashlib.sha256()
    for name, x, points in cases():
        for back in (False, True):
            for q in points:
                y = value(x, q, back)
                h.update(f"{name} {int(back)} {format_rational(q)} {format_rational(y)}\n"
                         .encode())
    return h.hexdigest()


def plain(x, q, back):
    n, d, _ = x._image(q.numerator, q.denominator, back)
    return Fraction(n, d)


def cached(x, q, back):
    return x.backward(q) if back else x.forward(q)


def test_value_digest(monkeypatch):
    assert digest(plain) == DIGEST
    monkeypatch.setattr(automorphism, "_PLAIN_EVALUATIONS", 0)
    monkeypatch.setattr(automorphism, "_MISS_ALLOWANCE", 1 << 30)
    assert digest(cached) == DIGEST
