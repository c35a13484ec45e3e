import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineaut import support_decompose
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
