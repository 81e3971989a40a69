import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostree import ExhaustiveDriver, MonteCarloDriver, RngStream, law_of

# draws taken before indices(): from a fresh buffer, or close enough to the
# end of the first 4096-uniform block that the batch crosses the refill
consumed = st.one_of(st.integers(0, 40), st.integers(4000, 4096))


class TestIndices:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32),
        consumed,
        st.lists(st.integers(1, 10**6), max_size=400),
    )
    def test_monte_carlo_matches_index_one_at_a_time(self, seed, before, sizes):
        batched = MonteCarloDriver(RngStream(seed, 0))
        scalar = MonteCarloDriver(RngStream(seed, 0))
        for driver in (batched, scalar):
            for _ in range(before):
                driver.index(3)
        got = batched.indices(np.array(sizes, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [scalar.index(k) for k in sizes]
        # both drivers stand at the same stream position afterwards
        assert [batched.index(5) for _ in range(5000)] == [
            scalar.index(5) for _ in range(5000)
        ]

    def test_batch_longer_than_a_block(self):
        sizes = np.arange(1, 10_001)
        batched = MonteCarloDriver(RngStream(4, 2))
        scalar = MonteCarloDriver(RngStream(4, 2))
        batched.index(2)
        scalar.index(2)
        assert batched.indices(sizes).tolist() == [scalar.index(k) for k in range(1, 10_001)]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 4), max_size=5))
    def test_exhaustive_matches_index_one_at_a_time(self, sizes):
        array = np.array(sizes, dtype=np.int64)
        batched = law_of(lambda d: tuple(d.indices(array).tolist()))
        scalar = law_of(lambda d: tuple(d.index(k) for k in sizes))
        assert batched == scalar
        assert all(p == Fraction(1, math.prod(sizes)) for p in batched.values())

    @pytest.mark.parametrize("driver", [MonteCarloDriver(RngStream(0)), ExhaustiveDriver()])
    def test_nonpositive_option_count_rejected(self, driver):
        with pytest.raises(ValueError):
            driver.indices(np.array([2, 0, 3]))


def test_negative_master_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
