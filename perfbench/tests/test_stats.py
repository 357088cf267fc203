import pytest

from stats import InsufficientSamples, median, percentile


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert percentile(samples, 0.99) == 990
    with pytest.raises(InsufficientSamples):
        percentile(samples[:999], 0.99)
    assert percentile(list(range(100)), 0.90) == 89
    with pytest.raises(InsufficientSamples):
        percentile(list(range(99)), 0.90)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(15)), 0.50)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    with pytest.raises(InsufficientSamples):
        median([])
