import math
from fractions import Fraction

import pytest

from lineaut import (
    FastForwardCache,
    PLAutomorphism,
    build_cache,
    equals_pl,
    measure_locate,
    power,
    wrap,
)
from lineaut.samples import random_pl
from conftest import fraction_grid

F = Fraction
T1 = PLAutomorphism.translation(1)


class TestWrap:
    def test_counts_start_at_zero(self):
        oracle = wrap(PLAutomorphism())
        assert oracle.counts == (0, 0)
        assert oracle.forward(F(3)) == F(3)
        assert oracle.counts == (1, 0)

    def test_mixed_counts(self):
        oracle = wrap(T1)
        oracle.forward(F(0))
        oracle.forward(F(1))
        oracle.backward(F(5))
        assert oracle.counts == (2, 1)

    def test_transparent(self, rng):
        for g in (random_pl(rng) for _ in range(10)):
            oracle = wrap(g)
            for q in fraction_grid(-3, 3, 2):
                assert oracle.forward(q) == g.forward(q)
                assert oracle.backward(q) == g.backward(q)

    def test_scripted_sequence_is_exact(self):
        oracle = wrap(T1)
        for k in range(137):
            oracle.forward(F(k))
        assert oracle.forward_count == 137
        oracle.reset()
        assert oracle.counts == (0, 0)


class TestFastForwardCache:
    def test_depth_zero(self):
        cache = build_cache(T1, 0)
        assert cache.depth == 0
        assert equals_pl(cache.power_of_two(0), T1)

    def test_translation_powers(self):
        cache = build_cache(T1, 4)
        for k in range(5):
            assert equals_pl(cache.power_of_two(k), PLAutomorphism.translation(2 ** k))

    def test_matches_repeated_composition(self, rng):
        g = random_pl(rng, max_knots=2)
        cache = build_cache(g, 3)
        assert equals_pl(cache.power_of_two(3), power(g, 8))
        assert cache.power_of_two(3).forward(F(0)) == power(g, 8).forward(F(0))

    def test_inverse_powers(self, rng):
        g = random_pl(rng, max_knots=2)
        cache = FastForwardCache(g)
        assert equals_pl(cache.inverse_power_of_two(2), power(g, -4))

    def test_grows_on_demand(self):
        cache = build_cache(T1, 0)
        assert equals_pl(cache.power_of_two(6), PLAutomorphism.translation(64))
        assert cache.depth >= 6

    def test_requires_pl(self):
        with pytest.raises(TypeError):
            FastForwardCache("not a map")

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            build_cache(T1, -1)


class TestMeasureLocate:
    def test_linear_example(self):
        report = measure_locate(T1, F(0), F(10), "linear")
        assert report.index == 10
        assert report.oracle_calls == 11
        assert report.ff_steps == 0

    def test_fast_forward_example(self):
        report = measure_locate(T1, F(0), F(10), "fast_forward")
        assert report.index == 10
        assert report.oracle_calls == 0
        assert report.ff_steps == 8
        assert report.ff_steps <= 4 * math.log2(10) + 8

    def test_at_anchor(self):
        for mode in ("linear", "fast_forward"):
            report = measure_locate(T1, F(0), F(0), mode)
            assert report.index == 0
            assert report.oracle_calls + report.ff_steps <= 2

    def test_modes_agree_on_index(self, rng):
        for gamma in (F(1), F(7, 2), F(100), F(-13, 4)):
            lin = measure_locate(T1, F(0), gamma, "linear")
            ff = measure_locate(T1, F(0), gamma, "fast_forward")
            assert lin.index == ff.index

    def test_growth_rates(self):
        for k in (4, 8, 12, 16):
            gamma = F(2 ** k)
            lin = measure_locate(T1, F(0), gamma, "linear")
            ff = measure_locate(T1, F(0), gamma, "fast_forward")
            assert lin.index == ff.index == 2 ** k
            assert lin.oracle_calls >= 2 ** k
            assert ff.ff_steps <= 4 * k + 8
            assert lin.ff_steps == 0

    def test_json(self):
        report = measure_locate(T1, F(0), F(10), "fast_forward")
        assert report.to_json_dict() == {"mode": "fast_forward", "index": 10,
                                         "oracle_calls": 0, "ff_steps": 8}

    def test_outside_component_fails(self):
        with pytest.raises(ValueError):
            measure_locate(PLAutomorphism(), F(0), F(1), "linear")

    def test_different_components_rejected(self):
        # 0 lies in the component +(-11, 5) and 1024 in -(5, inf); the walk
        # from 0 never passes 1024, so only the terrain check can stop it
        g = PLAutomorphism(((F(-6), F(-7, 2)), (F(-5, 4), F(2)), (F(2), F(7, 2))),
                           F(3, 2), F(1, 2))
        for mode in ("linear", "fast_forward"):
            with pytest.raises(ValueError, match="different elements"):
                measure_locate(g, F(0), F(1024), mode)
