import random
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineaut import (
    Color,
    ComponentOrbit,
    PLAutomorphism,
    Subdivision,
    Word,
    anchor_point,
    apply_power,
    apply_word,
    commutator_decomposition,
    compose,
    inverse,
    nth_root,
    realize,
    solve_two_sided,
    solve_word,
    solve_xgx,
    support_decompose,
    verify_pointwise,
    word_automorphism,
)
from lineaut.equations import _solve_cyclically_reduced, _VariableComponent
from lineaut.samples import default_samples, random_pl
from conftest import (
    SLOW_BOUNDARY,
    SLOW_BOUNDARY_POINTS,
    fraction_grid,
    isolated_fixed_points,
    random_reduced_word,
    random_zero_sum_word,
    XgxSeed,
    sample_pls,
    interpolate_reference,
    variable_window_reference,
    walk_locate,
)

F = Fraction
T1 = PLAutomorphism.translation(1)
T2 = PLAutomorphism.translation(2)
IDENT = PLAutomorphism()

COMMUTATOR = Word(((2, -1), (3, -1), (2, 1), (3, 1)))

# Isolated fixed point 0 between a "+" and a "-" component.
ATTRACTING_ZERO = PLAutomorphism(((0, 0),), F(1, 2), F(1, 2))
SHAPED = {"+0-": realize("+0-"), "-0+0-": realize("-0+0-"), "+-": ATTRACTING_ZERO,
          "identity": IDENT}


def samples_for(*maps, count=80, seed=0):
    return default_samples(count, seed, tuple(support_decompose(m) for m in maps))


class TestWord:
    def test_validate(self):
        assert Word(((2, 1),)).is_reduced()
        assert not Word(((2, 1), (2, -1))).is_reduced()
        assert COMMUTATOR.is_reduced()
        assert not Word(()).is_reduced()

    def test_construction_guards(self):
        with pytest.raises(ValueError):
            Word(((1, 1),))
        with pytest.raises(ValueError):
            Word(((2, 2),))

    @pytest.mark.parametrize("letter", [(2.7, 1), (2, 1.0), (True, 1), (2, True), ("2", 1),
                                        (None, 1)])
    def test_rejects_non_int_letters(self, letter):
        with pytest.raises(ValueError):
            Word((letter,))
        with pytest.raises(ValueError):
            Word.from_json_dict({"letters": [{"var": letter[0], "exp": letter[1]}]})

    def test_json_roundtrip(self):
        data = COMMUTATOR.to_json_dict()
        assert data == {"letters": [{"var": 2, "exp": -1}, {"var": 3, "exp": -1},
                                    {"var": 2, "exp": 1}, {"var": 3, "exp": 1}]}
        assert Word.from_json_dict(data) == COMMUTATOR

    def test_variables(self):
        assert COMMUTATOR.variables == (2, 3)


class TestSubdivision:
    def test_endpoints_exact(self):
        orbit = ComponentOrbit(T2, F(0))
        sub = Subdivision(orbit, 4)
        assert sub.point(3, 0) == orbit.point(3)
        assert sub.point(3, 4) == orbit.point(4)
        assert sub.point(0, 2) == F(1)

    def test_monotone_within_block(self):
        orbit = ComponentOrbit(T2, F(0))
        sub = Subdivision(orbit, 5)
        pts = [sub.point(2, j) for j in range(6)]
        assert pts == sorted(pts)
        assert len(set(pts)) == 6


class TestComponentOrbit:
    def test_block_containment(self, rng):
        for _ in range(40):
            g = random_pl(rng)
            terrain = support_decompose(g)
            comps = [e for e in terrain if e.color is not Color.FIXED]
            if not comps:
                continue
            e = comps[0]
            orbit = ComponentOrbit(g, anchor_point(e))
            for q in (anchor_point(e), orbit.point(3), orbit.point(-2),
                      (orbit.point(1) + orbit.point(2)) / 2):
                i = orbit.locate(q)
                if orbit.increasing:
                    assert orbit.point(i) <= q < orbit.point(i + 1)
                else:
                    assert orbit.point(i + 1) <= q < orbit.point(i)


class _Recorder:
    """Passes evaluations through to g and logs them in order."""

    def __init__(self, g):
        self.g = g
        self.calls = []

    def forward(self, q):
        self.calls.append(("forward", q))
        return self.g.forward(q)

    def backward(self, q):
        self.calls.append(("backward", q))
        return self.g.backward(q)


ORBITS = [(PLAutomorphism.translation(c), F(0)) for c in (1, -1, F(1, 2), F(-1, 2))]
ORBITS += [(SLOW_BOUNDARY, anchor_point(e)) for e in support_decompose(SLOW_BOUNDARY)
           if e.color is not Color.FIXED]


def check_locate_against_walk(g, anchor, queries):
    """locate agrees with the walk, and both orbits evaluate the same points in order."""
    fast_g, ref_g = _Recorder(g), _Recorder(g)
    fast, ref = ComponentOrbit(fast_g, anchor), ComponentOrbit(ref_g, anchor)
    for q in queries:
        i = fast.locate(q)
        assert i == walk_locate(ref, q), (g, anchor, q)
        lo, hi = sorted((ref.point(i), ref.point(i + 1)))
        assert lo <= q < hi
    assert fast_g.calls == ref_g.calls


class TestLocateAgainstWalk:
    def test_cases_cover_both_directions(self):
        assert {ComponentOrbit(g, anchor).increasing for g, anchor in ORBITS} == {True, False}

    @pytest.mark.parametrize("g, anchor", ORBITS)
    def test_orbit_points_and_between(self, g, anchor):
        orbit = ComponentOrbit(g, anchor)
        pts = [orbit.point(i) for i in range(-12, 13)]
        queries = pts + [(p + r) / 2 for p, r in zip(pts, pts[1:])]
        for seed in range(4):
            random.Random(seed).shuffle(queries)
            check_locate_against_walk(g, anchor, queries)

    @given(st.sampled_from(ORBITS),
           st.lists(st.tuples(st.integers(-20, 20),
                              st.fractions(0, 1, max_denominator=8).filter(lambda t: t < 1)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_known_blocks_in_any_order(self, case, picks):
        g, anchor = case
        orbit = ComponentOrbit(g, anchor)
        queries = []
        for i, t in picks:
            lo, hi = sorted((orbit.point(i), orbit.point(i + 1)))
            q = lo + t * (hi - lo)
            queries.append(q)
            assert ComponentOrbit(g, anchor).locate(q) == i
        check_locate_against_walk(g, anchor, queries)


class TestSolveWord:
    def test_single_letter(self, rng):
        for g in sample_pls(rng, 5):
            a = solve_word(Word(((2, 1),)), g)
            assert a[2] is g
            a = solve_word(Word(((2, -1),)), g)
            assert verify_pointwise(a[2], inverse(g), fraction_grid(-3, 3))

    def test_square_of_translation(self):
        a = solve_word(Word(((2, 1), (2, 1))), T2)
        x = a[2]
        for q in samples_for(T2, count=100):
            assert x.forward(x.forward(q)) == q + 2
            # the square root of a translation is the half translation, exactly
            assert x.forward(q) == q + 1

    def test_identity_parameter(self):
        a = solve_word(COMMUTATOR, IDENT)
        for v in (2, 3):
            assert verify_pointwise(a[v], IDENT, fraction_grid(-3, 3))

    def test_non_reduced_rejected(self):
        with pytest.raises(ValueError):
            solve_word(Word(((2, 1), (2, -1))), T1)
        with pytest.raises(ValueError):
            solve_word(Word(()), T1)

    def test_cyclically_unreduced(self, rng):
        # x y x^-1 = g forces y to be a conjugate of g
        word = Word(((2, 1), (3, 1), (2, -1)))
        for trial in range(5):
            g = random_pl(rng)
            a = solve_word(word, g)
            for q in samples_for(g, count=60, seed=trial):
                assert apply_word(word, a, q) == g.forward(q)

    def test_random_reduced_words(self, rng):
        for trial in range(15):
            word = random_reduced_word(rng)
            g = random_pl(rng)
            a = solve_word(word, g)
            value = word_automorphism(word, a)
            for q in samples_for(g, count=50, seed=trial):
                assert value.forward(q) == g.forward(q)
                assert value.backward(g.forward(q)) == q

    def test_solutions_order_preserving(self, rng):
        word = random_reduced_word(rng, max_len=4)
        g = random_pl(rng)
        a = solve_word(word, g)
        pts = samples_for(g, count=40)
        for v in word.variables:
            images = [a[v].forward(q) for q in pts]
            assert all(p < q for p, q in zip(images, images[1:]))


# x4 (x2 x3 x2^-1 x3^-1) x4^-1: all sums zero, and it peels once
PEELING_WORD = Word(((4, 1), (2, 1), (3, 1), (2, -1), (3, -1), (4, -1)))


class TestSolveWordRoutes:
    def test_zero_sum_words(self, rng):
        words = [PEELING_WORD] + [random_zero_sum_word(rng) for _ in range(20)]
        assert sum(w.letters[0] == (w.letters[-1][0], -w.letters[-1][1]) for w in words) >= 2
        for trial, word in enumerate(words):
            g = random_pl(rng)
            a = solve_word(word, g)
            value = word_automorphism(word, a)
            for q in samples_for(g, count=20, seed=trial):
                assert value.forward(q) == g.forward(q), (word, g, q)
                assert value.backward(q) == g.backward(q), (word, g, q)

    @pytest.mark.parametrize("letters, chosen, total", [
        (((2, 1), (3, -1), (2, 1)), 3, -1),
        (((3, 1), (2, 1)), 2, 1),  # a tie goes to the lowest index
        (((2, 1), (3, 1), (2, -1)), 3, 1),  # x2 has sum 0
        (((2, -1), (2, -1)), 2, -2),
        (((2, 1), (2, 1), (3, 1), (3, 1), (3, 1)), 2, 2),
        (((3, -1), (3, -1), (3, -1), (2, 1), (2, 1), (2, 1)), 2, 3),
        (((4, -1), (2, 1), (3, 1), (2, -1), (3, -1), (4, -1)), 4, -2),
    ])
    @pytest.mark.parametrize("shape", ["+0-", "-0+0-"])
    def test_route_by_exponent_sums(self, letters, chosen, total, shape):
        word = Word(letters)
        g = SHAPED[shape]
        a = solve_word(word, g)
        assert sorted(a) == list(word.variables)
        for u in word.variables:
            if u != chosen:
                assert a[u] == IDENT
        x = a[chosen]
        if total == 1:
            assert x is g
        elif total == -1:
            assert x == inverse(g)
        else:
            root = nth_root(g, abs(total))
            expected = root if total > 0 else inverse(root)
            pts = samples_for(g, count=20)
            assert verify_pointwise(x, expected, pts)
            for q in pts:
                v = q
                for _ in range(abs(total)):
                    v = x.forward(v) if total > 0 else x.backward(v)
                assert v == g.forward(q)
        value = word_automorphism(word, a)
        assert verify_pointwise(value, g, samples_for(g, count=20))


# slope-1 tails, with the middle of its one component between -2 and 3
TRANSLATING = PLAutomorphism(((-2, -1), (0, F(3, 2)), (3, 4)), 1, 1)


class TestVariableWindows:
    """Each word variable is a PL window per orbit block; it must give the
    Fraction interpolation of the reference window exactly."""

    def test_contradictory_constraints_rejected(self):
        # peeling solves this word; without it its constraint set is
        # contradictory at block boundaries
        with pytest.raises(RuntimeError, match="inconsistent word constraints"):
            _solve_cyclically_reduced(PEELING_WORD, TRANSLATING)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "slow", "translating"]))
    @settings(max_examples=40, deadline=None)
    def test_windows_match_reference(self, seed, kind):
        rng = random.Random(seed)
        while True:
            word = random_zero_sum_word(rng)
            (v1, e1), (vm, em) = word.letters[0], word.letters[-1]
            if len(word) >= 4 and (v1, e1) != (vm, -em):
                break
        g = {"slow": SLOW_BOUNDARY, "translating": TRANSLATING}.get(kind) or random_pl(rng)
        m = len(word)
        for e in support_decompose(g):
            if e.color is Color.FIXED:
                continue
            sub = Subdivision(ComponentOrbit(g, anchor_point(e)), m)
            points = [sub.point(i, j) for i in range(-3, 4) for j in range(m + 1)]
            points += [sub.point(i, 0) + (sub.point(i, m) - sub.point(i, 0))
                       * F(rng.randint(1, 999), 1000) for i in range(-3, 4) for _ in range(3)]
            for v in word.variables:
                positions = [(j, s) for j, (u, s) in enumerate(word.letters, start=1) if u == v]
                x = _VariableComponent(positions, sub)
                windows = {}
                for q in points:
                    i = sub.orbit.locate(q)
                    if i not in windows:
                        windows[i] = variable_window_reference(x, i)
                    ins, outs = windows[i]
                    assert x.forward(q) == interpolate_reference(ins, outs, q), (word, g, v, q)
                    assert x.backward(q) == interpolate_reference(outs, ins, q), (word, g, v, q)


class TestCommutator:
    def test_identity(self):
        x, y = commutator_decomposition(IDENT)
        assert verify_pointwise(x, IDENT, fraction_grid(-2, 2))
        assert verify_pointwise(y, IDENT, fraction_grid(-2, 2))

    def test_translation(self):
        x, y = commutator_decomposition(T1)
        for q in samples_for(T1, count=100):
            lhs = y.forward(x.forward(inverse_chain(x, y, q)))
            assert lhs == q + 1

    def test_mixed_terrain(self):
        g = realize("+0-")
        x, y = commutator_decomposition(g)
        assignment = {2: x, 3: y}
        for q in samples_for(g, count=100):
            assert apply_word(COMMUTATOR, assignment, q) == g.forward(q)

    @pytest.mark.parametrize("shape", sorted(SHAPED))
    def test_shaped_terrains(self, shape):
        g = SHAPED[shape]
        x, y = commutator_decomposition(g)
        assert x is g
        for q in samples_for(g, count=61):
            assert apply_word(COMMUTATOR, {2: x, 3: y}, q) == g.forward(q)
            assert y.backward(y.forward(q)) == q

    def test_slow_boundary_orbit(self):
        g = SLOW_BOUNDARY
        x, y = commutator_decomposition(g)
        for q in SLOW_BOUNDARY_POINTS:
            assert apply_word(COMMUTATOR, {2: x, 3: y}, q) == g.forward(q)


def inverse_chain(x, y, q):
    return y.backward(x.backward(q))


class TestNthRoot:
    def test_first_root_is_input(self):
        assert nth_root(T2, 1) is T2

    def test_square_root_of_translation(self):
        r = nth_root(T2, 2)
        for q in samples_for(T2, count=100):
            assert r.forward(r.forward(q)) == q + 2

    def test_identity(self):
        for n in (2, 5):
            r = nth_root(IDENT, n)
            assert verify_pointwise(r, IDENT, fraction_grid(-2, 2))

    def test_random_inputs(self, rng):
        for trial, n in ((0, 2), (1, 3), (2, 5)):
            g = random_pl(rng)
            r = nth_root(g, n)
            for q in samples_for(g, count=40, seed=trial):
                v = q
                for _ in range(n):
                    v = r.forward(v)
                assert v == g.forward(q)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            nth_root(T1, 0)

    @pytest.mark.parametrize("shape", sorted(SHAPED))
    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_shaped_terrains(self, shape, n):
        g = SHAPED[shape]
        r = nth_root(g, n)
        for q in samples_for(g, count=61):
            assert apply_word(Word(((2, 1),) * n), {2: r}, q) == g.forward(q)
            assert r.backward(r.forward(q)) == q

    def test_slow_boundary_orbit(self):
        g = SLOW_BOUNDARY
        r = nth_root(g, 5)
        for q in SLOW_BOUNDARY_POINTS:
            assert apply_word(Word(((2, 1),) * 5), {2: r}, q) == g.forward(q)

    def test_thousandth_root(self):
        # the bridge of each component spans 1000 orbit steps of g
        g = realize("-+-")
        r = nth_root(g, 1000)
        for q in (F(-3), F(5, 4), F(3, 2), F(7, 4), F(5)):
            assert apply_power(r, 1000, q) == g.forward(q)

    def test_large_order(self):
        # n = 10^5: on the middle component a g^n lies within about 2^-100000
        # of the fixed point 2, so the bridge has rationals of about 10^5
        # bits; a few points suffice
        g = realize("-+-")
        r = nth_root(g, 10 ** 5)
        for q in (F(-3), F(3, 2), F(5)):
            assert r.backward(r.forward(q)) == q
            assert r.forward(g.forward(q)) == g.forward(r.forward(q))


class TestSolveXgx:
    def test_equal_translations_identity_solution(self):
        x = solve_xgx(T1, T1)
        for q in samples_for(T1, count=100):
            assert x.forward(q) == q

    def test_identity_parameter(self):
        x = solve_xgx(IDENT, T2)
        for q in samples_for(T2, count=100):
            assert x.forward(q) == q + 1

    def test_random_pairs(self, rng):
        for trial in range(20):
            f, g = sample_pls(rng, 2)
            x = solve_xgx(g, f)
            fg = compose(f, g)
            for q in samples_for(f, g, fg, count=60, seed=trial):
                assert x.forward(g.forward(x.forward(q))) == f.forward(q)

    def test_mixed_sign_and_fixed_terrain(self, rng):
        for trial, seq in enumerate(("+-+", "-+-", "+0-", "-0+0-")):
            target = realize(seq)
            f = random_pl(rng)
            g = compose(inverse(f), target)  # fg == target exactly
            fg = compose(f, g)
            assert support_decompose(fg).color_sequence() == seq
            x = solve_xgx(g, f)
            for q in samples_for(f, g, fg, count=60, seed=trial):
                assert x.forward(g.forward(x.forward(q))) == f.forward(q)

    def test_case_partition_soundness(self, rng):
        # the seed splits its anchor block, between alpha and alpha fg, at beta g;
        # pulled back by (fg)^-i, a point of block i falls on alpha's side of
        # beta g exactly when the point itself falls on alpha's side of
        # (beta g)(fg)^i, on positive and negative components alike
        from lineaut.equations import _xgx_piece

        f = PLAutomorphism.translation(3)
        pairs = [(f, random_pl(rng, max_knots=2))]
        pairs += [(f, compose(inverse(f), realize(seq)))
                  for seq in ("+-+", "+0-+", "-+-", "-0+0-")]
        checked = {Color.POS: 0, Color.NEG: 0}
        for f, g in pairs:
            fg, gf = compose(f, g), compose(g, f)
            for elem in support_decompose(fg):
                if elem.color is Color.FIXED:
                    continue
                alpha = anchor_point(elem)
                piece = _xgx_piece(f, g, fg, gf, alpha)
                seed = XgxSeed(f, g, alpha)
                beta = (g.backward(alpha) + f.forward(alpha)) / 2
                assert seed.beta == beta
                bridge, back = piece.seed.near[0]
                assert back is False
                beta_g, alpha_f = g.forward(beta), f.forward(alpha)
                alpha_fg, beta_gf = fg.forward(alpha), gf.forward(beta)
                below = alpha < beta_g
                assert below == (elem.color is Color.POS) == (beta < alpha_f)
                assert (seed.beta_g, seed.alpha_f) == (beta_g, alpha_f)
                assert (piece.seed.split, piece.seed.below) == ((beta_g.numerator,
                                                                 beta_g.denominator), below)
                assert (bridge.source_lo, bridge.source_hi, bridge.target_lo,
                        bridge.target_hi) == astuple(seed.bridge)
                assert bridge.forward(alpha) == beta
                assert bridge.forward(beta_g) == alpha_f
                assert seed.forward(alpha) == beta  # first case
                assert seed.forward(beta_g) == alpha_f  # where the cases meet
                for q in samples_for(fg, count=120):
                    if not elem.contains(q):
                        continue
                    i, pn, pd = piece._pull(q.numerator, q.denominator, piece._sides[0])
                    v = apply_power(fg, -i, q)
                    assert F(pn, pd) == v
                    assert min(alpha, alpha_fg) <= v < max(alpha, alpha_fg)
                    first = (q < apply_power(fg, i, beta_g)) == below
                    assert first == ((v < beta_g) == below)
                    w = seed.forward(v)
                    wn, wd, case = piece.seed._image(v.numerator, v.denominator)
                    assert (F(wn, wd), case) == (w, 0 if first else 1)
                    if first:
                        assert w == bridge.forward(v)
                    else:
                        assert w == f.forward(bridge.backward(g.backward(v)))
                    assert min(beta, beta_gf) <= w < max(beta, beta_gf)
                    assert ((w < alpha_f) == below) == first
                    assert seed.backward(w) == v
                    checked[elem.color] += 1
        assert min(checked.values()) >= 20

    def test_fixed_point_rule(self, rng):
        # where fg fixes q, in a fixed interval or as an isolated fixed point,
        # the solution maps q to f(q) and back, and the equation holds
        for trial in range(12):
            seq = ("0", "+0-", "0-0", "+-", "-+-", "+-+")[trial % 6]
            target = realize(seq)
            f = random_pl(rng)
            g = compose(inverse(f), target)
            fg = compose(f, g)
            x = solve_xgx(g, f)
            terrain = support_decompose(fg)
            fixed = [anchor_point(e) for e in terrain if e.color is Color.FIXED]
            fixed += isolated_fixed_points(fg)
            assert len(fixed) == seq.count("0") + seq.count("+-") + seq.count("-+")
            for q in fixed:
                assert fg.forward(q) == q
                assert x.forward(q) == f.forward(q)
                assert x.backward(f.forward(q)) == q
                assert x.forward(g.forward(x.forward(q))) == f.forward(q)

    def test_inverse_consistency(self, rng):
        f, g = sample_pls(rng, 2)
        x = solve_xgx(g, f)
        for q in samples_for(f, g, count=60):
            assert x.backward(x.forward(q)) == q


class TestSolveTwoSided:
    def test_conjugacy_route_identity(self):
        x = solve_two_sided(T1, T1, 1, -1)
        assert x is not None
        for q in fraction_grid(-4, 4, 3):
            # the identity conjugator solves x g x^-1 = g
            assert x.forward(q) == q
            assert x.backward(T1.forward(x.forward(q))) == T1.forward(q)

    def test_conjugacy_route_directions(self, rng):
        g, h0 = sample_pls(rng, 2)
        f = compose(compose(inverse(h0), g), h0)
        for e1, e2 in ((1, -1), (-1, 1)):
            x = solve_two_sided(g, f, e1, e2)
            assert x is not None
            for q in samples_for(g, f, count=50):
                if e1 == 1:
                    lhs = x.backward(g.forward(x.forward(q)))
                else:
                    lhs = x.forward(g.forward(x.backward(q)))
                assert lhs == f.forward(q)

    def test_conjugacy_route_absent(self):
        assert solve_two_sided(T1, PLAutomorphism.translation(-1), 1, -1) is None

    def test_plus_plus_delegates(self, rng):
        f, g = sample_pls(rng, 2)
        x = solve_two_sided(g, f, 1, 1)
        for q in samples_for(f, g, count=50):
            assert x.forward(g.forward(x.forward(q))) == f.forward(q)

    def test_minus_minus_reduction(self, rng):
        for trial in range(5):
            f, g = sample_pls(rng, 2)
            x = solve_two_sided(g, f, -1, -1)
            for q in samples_for(f, g, count=50, seed=trial):
                assert x.backward(g.forward(x.backward(q))) == f.forward(q)

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            solve_two_sided(T1, T1, 0, 1)
