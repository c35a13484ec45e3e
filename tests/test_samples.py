import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineaut import PLAutomorphism, support_decompose
from lineaut import samples as samples_module
from lineaut.samples import default_samples, random_pl
from conftest import reference_default_samples

# terrains of random maps, numerators and denominators up to 2^70 included
random_terrains = st.lists(
    st.tuples(st.integers(0, 2 ** 32), st.sampled_from((4, 2 ** 70))).map(
        lambda s: support_decompose(random_pl(random.Random(s[0]), max_den=s[1]))),
    max_size=3).map(tuple)


class TestDefaultSamples:
    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_count_rejected(self, count):
        with pytest.raises(ValueError):
            default_samples(count)

    @pytest.mark.parametrize("count", [0, 1, 57, 257, 400])
    def test_exact_count_sorted_distinct(self, count):
        samples = default_samples(count)
        assert len(samples) == count
        assert all(a < b for a, b in zip(samples, samples[1:]))

    @given(st.integers(0, 600), st.integers(0, 2 ** 32), random_terrains)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_reference(self, count, seed, terrains):
        samples = default_samples(count, seed, terrains)
        assert samples == reference_default_samples(count, seed, terrains)
        assert all(type(q) is Fraction for q in samples)


# terrain 0+0 far outside [-12, 12]: its 15 probes are not among the random picks
FAR = support_decompose(PLAutomorphism(
    ((Fraction(100), Fraction(100)), (Fraction(200), Fraction(300)),
     (Fraction(400), Fraction(400))), Fraction(1), Fraction(1)))
# terrain 0+0 on [1/3, 2/3]: its probes 1/3 +- 1/64 and 2/3 +- 1/64 have
# denominator 192, so 4 of them are not among the random picks
NEAR = support_decompose(PLAutomorphism(
    ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 2), Fraction(7, 12)),
     (Fraction(2, 3), Fraction(2, 3))), Fraction(1), Fraction(1)))

# terrains and how many of their probes lie outside the random picks
OUTSIDE = [((), 0), ((FAR,), 15), ((NEAR,), 4), ((FAR, NEAR), 19)]


class TestSampleCountLimit:
    def test_pool_size_by_enumeration(self):
        pool = {Fraction(num, den) for den in range(1, samples_module._MAX_DEN + 1)
                for num in range(-samples_module._SPAN * den, samples_module._SPAN * den + 1)}
        assert len(pool) == samples_module._POOL_SIZE == 30241
        assert samples_module._GRID <= pool

    @pytest.mark.parametrize("terrains, outside", OUTSIDE)
    def test_count_beyond_the_pool_rejected(self, terrains, outside):
        with pytest.raises(ValueError, match=f"exceeds the {30241 + outside} distinct"):
            default_samples(30242 + outside, 0, terrains)

    @pytest.mark.parametrize("terrains, outside", OUTSIDE)
    def test_limit_is_pool_plus_probes_outside_it(self, monkeypatch, terrains, outside):
        # with the pool taken as 300 of its 30,241 picks, the limit is reached
        # in a few hundred draws instead of the seconds the full pool takes
        monkeypatch.setattr(samples_module, "_POOL_SIZE", 300)
        assert len(default_samples(300 + outside, 5, terrains)) == 300 + outside
        with pytest.raises(ValueError):
            default_samples(301 + outside, 5, terrains)
