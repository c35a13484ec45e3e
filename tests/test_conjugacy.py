from fractions import Fraction

import pytest

from lineaut import (
    AffineBridge,
    CallCounter,
    Color,
    DomainError,
    PLAutomorphism,
    TerrainElement,
    anchor_point,
    conjugate_on_component,
    conjugate_on_fixed,
    conjugation,
    orbit_locate,
    solve_conjugacy,
    support_decompose,
    verify_pointwise,
    wrap,
)
from lineaut.rational import NEG_INF, POS_INF
from lineaut.samples import default_samples, random_pl, random_with_sequence
from conftest import fraction_grid, isolated_fixed_points, sample_pls

F = Fraction
T1 = PLAutomorphism.translation(1)
T2 = PLAutomorphism.translation(2)


class TestAffineBridge:
    def test_identity_bridge(self):
        b = AffineBridge(F(0), F(1), F(0), F(1))
        assert b.forward(F(1, 2)) == F(1, 2)

    def test_halving(self):
        b = AffineBridge(F(0), F(2), F(0), F(1))
        assert b.forward(F(1)) == F(1, 2)
        assert b.backward(F(1, 2)) == F(1)

    def test_shift(self):
        b = AffineBridge(F(0), F(1), F(1), F(2))
        for q in fraction_grid(0, 1, 8):
            assert b.forward(q) == q + 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            AffineBridge(F(1), F(1), F(0), F(1))
        with pytest.raises(ValueError):
            AffineBridge(F(0), F(1), F(2), F(1))


class TestOrbitLocate:
    def test_translation(self):
        loc = orbit_locate(T1, F(0), F(7, 2))
        assert (loc.index, loc.lower, loc.upper) == (3, F(3), F(4))

    def test_at_anchor(self):
        loc = orbit_locate(T1, F(0), F(0))
        assert (loc.index, loc.lower, loc.upper) == (0, F(0), F(1))

    def test_doubling_map(self):
        double = PLAutomorphism.affine(2, 0)
        loc = orbit_locate(double, F(1), F(100))
        assert loc.index == 6
        assert (loc.lower, loc.upper) == (F(64), F(128))

    def test_negative_index(self):
        loc = orbit_locate(T1, F(0), F(-5, 2))
        assert (loc.index, loc.lower, loc.upper) == (-3, F(-3), F(-2))

    def test_decreasing_orbit(self):
        down = PLAutomorphism.translation(-1)
        loc = orbit_locate(down, F(0), F(-5, 2))
        assert (loc.index, loc.lower, loc.upper) == (2, F(-3), F(-2))
        loc = orbit_locate(down, F(0), F(5, 2))
        assert (loc.index, loc.lower, loc.upper) == (-3, F(2), F(3))
        loc = orbit_locate(down, F(0), F(0))
        assert (loc.index, loc.lower, loc.upper) == (-1, F(0), F(1))

    def test_bracket_always_contains_query(self, rng):
        for _ in range(60):
            g = random_pl(rng)
            terrain = support_decompose(g)
            comps = [e for e in terrain if e.color is not Color.FIXED]
            if not comps:
                continue
            e = comps[rng.randrange(len(comps))]
            alpha = anchor_point(e)
            gamma = _point_inside(rng, e)
            loc = orbit_locate(g, alpha, gamma)
            assert loc.lower <= gamma < loc.upper

    def test_mode_equivalence(self, rng):
        for _ in range(40):
            g = random_pl(rng, max_knots=3)
            terrain = support_decompose(g)
            comps = [e for e in terrain if e.color is not Color.FIXED]
            if not comps:
                continue
            e = comps[rng.randrange(len(comps))]
            alpha = anchor_point(e)
            gamma = _point_inside(rng, e)
            lin = orbit_locate(g, alpha, gamma, "linear")
            ff = orbit_locate(g, alpha, gamma, "fast_forward")
            assert (lin.index, lin.lower, lin.upper) == (ff.index, ff.lower, ff.upper)

    def test_fixed_anchor_rejected(self):
        with pytest.raises(ValueError):
            orbit_locate(PLAutomorphism(), F(0), F(1))

    def test_fast_forward_needs_a_pl_map(self):
        # a wrapped map is not unwrapped: its wrapper would count nothing
        with pytest.raises(TypeError):
            orbit_locate(wrap(T1), F(0), F(10), "fast_forward")

    def test_linear_call_counts(self):
        counter = CallCounter()
        orbit_locate(T1, F(0), F(10), counter=counter)
        assert counter.forward == 11 and counter.inverse == 0
        counter = CallCounter()
        orbit_locate(T1, F(0), F(-10), counter=counter)
        assert counter.inverse == 10 and counter.forward == 1

    def test_fast_forward_step_counts(self):
        for k in range(4, 16):
            counter = CallCounter()
            loc = orbit_locate(T1, F(0), F(2 ** k), "fast_forward", counter=counter)
            assert loc.index == 2 ** k
            assert counter.ff_steps <= 4 * k + 8


def _point_inside(rng, element):
    if element.lo is NEG_INF and element.hi is POS_INF:
        base = F(0)
    elif element.lo is NEG_INF:
        base = element.hi - 1
    elif element.hi is POS_INF:
        base = element.lo + 1
    else:
        base = (element.lo + element.hi) / 2
    for _ in range(20):
        jitter = F(rng.randint(-64, 64), 128)
        if element.contains(base + jitter):
            return base + jitter
    return base


class TestConjugateOnComponent:
    def test_identity_case(self):
        t = support_decompose(T1)
        x = conjugate_on_component(T1, T1, t[0], t[0], F(0), F(0))
        for q in fraction_grid(-4, 4, 3):
            assert x.forward(q) == q
            assert x.backward(q) == q

    def test_spec_example_value(self):
        tg = support_decompose(T2)
        tf = support_decompose(T1)
        x = conjugate_on_component(T2, T1, tg[0], tf[0], F(0), F(0))
        assert x.forward(F(3)) == F(3, 2)

    def test_conjugation_identity_pointwise(self):
        tg = support_decompose(T2)
        tf = support_decompose(T1)
        x = conjugate_on_component(T2, T1, tg[0], tf[0], F(0), F(0))
        for delta in (F(0), F(1, 2), F(-5, 4)):
            lhs = x.forward(T2.forward(x.backward(delta)))
            assert lhs == T1.forward(delta)

    def test_negative_components(self):
        g = PLAutomorphism.translation(-2)
        f = PLAutomorphism.translation(-1)
        tg = support_decompose(g)
        tf = support_decompose(f)
        x = conjugate_on_component(g, f, tg[0], tf[0], F(0), F(0))
        for delta in fraction_grid(-4, 4, 3):
            assert x.forward(g.forward(x.backward(delta))) == f.forward(delta)

    def test_domain_enforced(self):
        g = PLAutomorphism(((F(0), F(0)), (F(1, 2), F(3, 4)), (F(1), F(1))), 1, 1)
        t = support_decompose(g)
        comp = t[1]
        x = conjugate_on_component(g, g, comp, comp,
                                   anchor_point(comp), anchor_point(comp))
        with pytest.raises(DomainError):
            x.forward(F(2))

    def test_oracle_call_counts(self):
        # per evaluation: one walk of |i| calls on g finds the block index i
        # and pulls the point back, then |i| push calls on f; an exact orbit
        # point below the anchor block costs one more call on g.  Both modes
        # evaluate by that walk, so they count the same.
        g = wrap(T2)
        f = wrap(T1)
        tg = support_decompose(T2)
        tf = support_decompose(T1)
        # block index i for t -> t + 2, the image, and the calls of g and f
        # as (forward, inverse) counts
        cases = [(F(21), 10, F(21, 2), (0, 10), (10, 0)),
                 (F(-19), -10, F(-19, 2), (10, 0), (0, 10)),
                 (F(20), 10, F(10), (0, 9), (10, 0)),  # lands on the block's top end
                 (F(-20), -10, F(-10), (11, 0), (0, 10)),  # steps one past the anchor
                 (F(1), 0, F(1, 2), (0, 0), (0, 0))]
        for mode in ("linear", "fast_forward"):
            x = conjugate_on_component(g, f, tg[0], tf[0], F(0), F(0), mode)
            for gamma, i, image, g_calls, f_calls in cases:
                g.reset()
                f.reset()
                assert x.forward(gamma) == image
                assert (g.forward_count, g.inverse_count) == g_calls, mode
                assert (f.forward_count, f.inverse_count) == f_calls, mode
                assert sum(g_calls) + sum(f_calls) <= 2 * abs(i) + 1
                # the first backward of a fresh conjugator makes the mirror
                # walk, f's calls and g's swapped: building its inverse
                # evaluates no map
                x_fresh = conjugate_on_component(g, f, tg[0], tf[0], F(0), F(0), mode)
                g.reset()
                f.reset()
                assert x_fresh.backward(image) == gamma
                assert (g.forward_count, g.inverse_count) == f_calls, mode
                assert (f.forward_count, f.inverse_count) == g_calls, mode

    def test_unknown_mode_rejected(self):
        t = support_decompose(T1)
        with pytest.raises(ValueError, match="unknown mode"):
            conjugate_on_component(T1, T1, t[0], t[0], F(0), F(0), mode="bogus")


class TestConjugateOnFixed:
    def test_full_line(self):
        src = TerrainElement(Color.FIXED, NEG_INF, POS_INF)
        x = conjugate_on_fixed(src, src)
        assert x.forward(F(17, 3)) == F(17, 3)

    def test_left_unbounded_translation(self):
        src = TerrainElement(Color.FIXED, NEG_INF, F(2))
        dst = TerrainElement(Color.FIXED, NEG_INF, F(5))
        x = conjugate_on_fixed(src, dst)
        assert x.forward(F(0)) == F(3)
        assert x.backward(F(5)) == F(2)

    def test_bounded_affine(self):
        src = TerrainElement(Color.FIXED, F(0), F(1))
        dst = TerrainElement(Color.FIXED, F(0), F(4))
        x = conjugate_on_fixed(src, dst)
        for q in fraction_grid(0, 1, 8):
            assert x.forward(q) == 4 * q

    def test_right_unbounded(self):
        src = TerrainElement(Color.FIXED, F(1), POS_INF)
        dst = TerrainElement(Color.FIXED, F(-1), POS_INF)
        x = conjugate_on_fixed(src, dst)
        assert x.forward(F(3)) == F(1)

    def test_mismatched_kinds_rejected(self):
        src = TerrainElement(Color.FIXED, NEG_INF, F(2))
        dst = TerrainElement(Color.FIXED, F(0), F(4))
        with pytest.raises(ValueError):
            conjugate_on_fixed(src, dst)

    def test_domain_enforced(self):
        src = TerrainElement(Color.FIXED, F(0), F(1))
        dst = TerrainElement(Color.FIXED, F(0), F(4))
        x = conjugate_on_fixed(src, dst)
        with pytest.raises(DomainError):
            x.forward(F(2))


class TestAnchorPoint:
    def test_rules(self):
        assert anchor_point(TerrainElement(Color.POS, F(0), F(1))) == F(1, 2)
        assert anchor_point(TerrainElement(Color.POS, NEG_INF, F(3))) == F(2)
        assert anchor_point(TerrainElement(Color.POS, F(3), POS_INF)) == F(4)
        assert anchor_point(TerrainElement(Color.POS, NEG_INF, POS_INF)) == F(0)


class TestSolveConjugacy:
    def test_self_conjugacy(self, rng):
        for g in sample_pls(rng, 10):
            h = solve_conjugacy(g, g)
            assert h is not None
            samples = default_samples(80, 0, (support_decompose(g),))
            assert verify_pointwise(conjugation(g, h), g, samples)

    def test_translations(self):
        h = solve_conjugacy(T2, T1)
        assert h is not None
        samples = default_samples(120, 1)
        assert verify_pointwise(conjugation(T2, h), T1, samples)

    def test_opposite_translations_not_conjugate(self):
        assert solve_conjugacy(T1, PLAutomorphism.translation(-1)) is None

    def test_constructed_conjugates(self, rng):
        for trial in range(25):
            g, h0 = sample_pls(rng, 2)
            f = conjugation(g, h0)
            h = solve_conjugacy(g, f)
            assert h is not None
            samples = default_samples(
                80, trial, (support_decompose(g), support_decompose(f)))
            assert verify_pointwise(conjugation(g, h), f, samples)

    def test_equal_sequences_independent_realizations(self, rng):
        for trial, seq in enumerate(("+", "0+0", "+-", "-0+", "+0-+")):
            g = random_with_sequence(rng, seq)
            f = random_with_sequence(rng, seq)
            h = solve_conjugacy(g, f)
            assert h is not None
            samples = default_samples(
                80, trial, (support_decompose(g), support_decompose(f)))
            assert verify_pointwise(conjugation(g, h), f, samples)

    def test_absent_iff_sequences_differ(self, rng):
        for _ in range(40):
            g, f = sample_pls(rng, 2)
            expected = (support_decompose(g).color_sequence()
                        == support_decompose(f).color_sequence())
            assert (solve_conjugacy(g, f) is not None) == expected

    def test_order_preserving(self, rng):
        g, h0 = sample_pls(rng, 2)
        f = conjugation(g, h0)
        h = solve_conjugacy(g, f)
        samples = default_samples(60, 5, (support_decompose(g),))
        images = [h.forward(q) for q in samples]
        assert all(a < b for a, b in zip(images, images[1:]))

    def test_inverse_consistency(self, rng):
        g, h0 = sample_pls(rng, 2)
        f = conjugation(g, h0)
        h = solve_conjugacy(g, f)
        for q in default_samples(60, 6, (support_decompose(g),)):
            assert h.backward(h.forward(q)) == q

    @pytest.mark.parametrize("seq", [None, "0+0", "+0-+", "-0+", "+-0-+", "0"])
    def test_agrees_with_guarded_element_maps(self, rng, seq):
        # the dispatcher skips the domain guards, since it has located the
        # point; each element's map must still be the guarded one's
        for trial in range(6):
            if seq is None:
                g, h0 = sample_pls(rng, 2)
                f = conjugation(g, h0)
            else:
                g, f = random_with_sequence(rng, seq), random_with_sequence(rng, seq)
            h = solve_conjugacy(g, f)
            tg, tf = support_decompose(g), support_decompose(f)
            guarded = [conjugate_on_fixed(eg, ef) if eg.color is Color.FIXED else
                       conjugate_on_component(g, f, eg, ef, anchor_point(eg), anchor_point(ef))
                       for eg, ef in zip(tg, tf)]
            located = 0
            for q in default_samples(80, trial, (tg, tf)):
                for terrain, evaluate, guarded_evaluate in (
                        (tg, h.forward, lambda x, q: x.forward(q)),
                        (tf, h.backward, lambda x, q: x.backward(q))):
                    kind, k = terrain.locate(q)
                    if kind == "element":
                        assert evaluate(q) == guarded_evaluate(guarded[k], q)
                        located += 1
            assert located >= 100

    @pytest.mark.parametrize("mode", ["linear", "fast_forward"])
    @pytest.mark.parametrize("seq", ["+-", "-+-", "+-+", "+-0-+"])
    def test_isolated_fixed_points_correspond(self, rng, seq, mode):
        # the k-th isolated fixed point of g maps to the k-th of f, both ways;
        # it lies in no component, so location in either mode from the
        # anchor of a neighbouring component raises
        g = random_with_sequence(rng, seq)
        f = random_with_sequence(rng, seq)
        h = solve_conjugacy(g, f)
        iso_g, iso_f = (isolated_fixed_points(m) for m in (g, f))
        assert len(iso_g) == len(iso_f) == seq.count("+-") + seq.count("-+")
        terrain = support_decompose(g)
        for p, q in zip(iso_g, iso_f):
            assert g.forward(p) == p and f.forward(q) == q
            assert h.forward(p) == q
            assert h.backward(q) == p
            kind, k = terrain.locate(p)
            assert kind == "boundary"
            for element in (terrain[k], terrain[k + 1]):
                with pytest.raises(ValueError):
                    orbit_locate(g, anchor_point(element), p, mode)


class TestVerifyPointwise:
    def test_equal(self):
        assert verify_pointwise(PLAutomorphism(), PLAutomorphism(), fraction_grid(-3, 3))

    def test_unequal(self):
        assert not verify_pointwise(T1, T2, [F(0)])
