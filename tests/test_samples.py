import pytest

from lineaut.samples import default_samples


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
