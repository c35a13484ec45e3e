"""Every solver output is a tree of pair-protocol nodes.

Each kind of output must be an exact bijection with a consistent inverse:
``backward`` undoes ``forward``, ``inverse(x)`` evaluates as ``x.backward``,
and ``x._inverse._inverse`` agrees with x.  No output is a
``ProceduralAutomorphism``, which only adapts black boxes, and each keeps the
construction name the CLI reports.
"""

import random

import pytest

from lineaut import (
    PLAutomorphism,
    ProceduralAutomorphism,
    Word,
    commutator_decomposition,
    compose,
    conjugation,
    inverse,
    nth_root,
    power,
    solve_conjugacy,
    solve_word,
    solve_xgx,
    support_decompose,
    word_automorphism,
    wrap,
)
from lineaut.samples import default_samples, random_pl, random_with_sequence

COMMUTATOR = Word(((2, 1), (3, 1), (2, -1), (3, -1)))


def outputs(seq, seed):
    """(kind, x, description) for every kind of solver output, on a map g
    with color sequence seq and a conjugate f of it."""
    rng = random.Random(seed)
    g = random_with_sequence(rng, seq)
    f = conjugation(g, random_pl(rng))
    h = solve_conjugacy(g, f)
    variables = solve_word(COMMUTATOR, g)
    conjugator = f"conjugator({seq})"
    return g, [
        ("conjugator", h, conjugator),
        ("xgx", solve_xgx(g, f), "xgx-solution"),
        ("root", nth_root(g, 3), "composite"),
        ("commutator-y", commutator_decomposition(g)[1], conjugator),
        ("inverse", inverse(h), f"inverse({conjugator})"),
        ("inverse-inverse", inverse(inverse(h)), f"inverse(inverse({conjugator}))"),
        ("power-procedural", power(ProceduralAutomorphism(g.forward, g.backward), -2),
         "power(-2)"),
        ("power-solution", power(h, 3), "power(3)"),
        ("inverse-power", inverse(power(h, 3)), "inverse(power(3))"),
        ("compose-wrapped", compose(wrap(g), h), "composite"),
        # last: a wrong inverse in a word can send the aligner's walk of the
        # word value on without end (it is stepped as a black box)
        ("word-variable-2", variables[2], "composite"),
        ("word-variable-3", variables[3], "composite"),
        ("word-value", word_automorphism(COMMUTATOR, variables), "word(4 letters)"),
    ]


@pytest.mark.parametrize("seq, seed", [("-+-", 1), ("+0-", 2), ("+-+", 3)])
def test_every_output_is_an_exact_node(seq, seed):
    g, cases = outputs(seq, seed)
    samples = default_samples(24, seed, (support_decompose(g),))
    for kind, x, description in cases:
        assert not isinstance(x, (ProceduralAutomorphism, PLAutomorphism)), kind
        assert x.description == description, kind
        back, again = inverse(x), x._inverse._inverse
        for q in samples:
            y = x.forward(q)
            assert x.backward(y) == q, (kind, q)
            assert back.forward(q) == x.backward(q), (kind, q)
            assert back.backward(q) == y, (kind, q)
            assert again.forward(q) == y and again.backward(q) == x.backward(q), (kind, q)
