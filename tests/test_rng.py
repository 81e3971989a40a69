import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostree import ExhaustiveDriver, MonteCarloDriver, RngStream, law_of
from frostree.rng import IndexColumns, StreamRange, _stream_words, index_block

# draws taken before indices(): from a fresh buffer, or close enough to the
# end of the refills doubling from 64 to 2048 (4032 uniforms) that the batch
# crosses a refill
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


# --------------------------------------------------------------------------
# MonteCarloDriver refills


class RecordingGenerator:
    def __init__(self, gen):
        self.gen = gen
        self.sizes = []

    def random(self, n):
        self.sizes.append(n)
        return self.gen.random(n)


def test_refills_double_from_64_to_4096():
    gen = RecordingGenerator(RngStream(2, 9).generator())
    driver = MonteCarloDriver(gen)
    for _ in range(64 + 128 + 256 + 512 + 1024 + 2048 + 4096 + 1):
        driver.index(3)
    assert gen.sizes == [64, 128, 256, 512, 1024, 2048, 4096, 4096]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 10**6), st.integers(0, 9000), st.integers(0, 99))
def test_fresh_driver_index_is_floor_of_generator_uniforms(seed, stream, n, k_seed):
    ks = np.random.default_rng(k_seed).integers(1, 10**6, n).tolist()
    driver = MonteCarloDriver(RngStream(seed, stream))
    uniforms = RngStream(seed, stream).generator().random(n).tolist()
    # n up to 9000 crosses every refill boundary from 64 to the second 4096
    assert [driver.index(k) for k in ks] == [min(int(u * k), k - 1) for u, k in zip(uniforms, ks)]


# --------------------------------------------------------------------------
# Vectorized stream seeding against numpy's SeedSequence and PCG64


@pytest.mark.parametrize("lane, master_seed", enumerate([0, 1, 2**32 + 7, 2**64 - 1]))
def test_stream_words_equal_seed_sequence_states(lane, master_seed):
    # the four seeds share keys 0..10^6 (every fourth each) and 1000 keys of two words
    high = np.random.default_rng(lane).integers(2**32, 2**64, 996, dtype=np.uint64)
    keys = np.concatenate(
        [
            np.arange(lane, 10**6, 4, dtype=np.uint64),
            np.array([2**32 - 1, 2**32, 2**33 + lane, 2**64 - 1], dtype=np.uint64),
            high,
        ]
    )
    want = np.empty((len(keys), 4), dtype=np.uint64)
    for j, key in enumerate(keys.tolist()):
        want[j] = np.random.SeedSequence(master_seed, spawn_key=(key,)).generate_state(
            4, np.uint64
        )
    assert (_stream_words(master_seed, keys) == want).all()


FULL = 2**53  # index(2^53) is the uniform's 53 bits, so equal indices mean equal uniforms


def uniform_rows(master_seed, start, stop, count):
    """index_block's rows at 2^53 options: each stream's first count uniforms, as indices."""
    return index_block(StreamRange(master_seed, start, stop), np.full(count, FULL, dtype=np.int64))


def stream_rows(master_seed, start, stop, count):
    """The same rows from each stream's own generator."""
    want = [RngStream(master_seed, i).generator().random(count) for i in range(start, stop)]
    return (np.array(want).reshape(stop - start, count) * FULL).astype(np.int64)


@pytest.mark.parametrize(
    "master_seed, start, count",
    [(0, 0, 1), (2**32 + 7, 2**32 - 5000, 40), (2**64 - 1, 10**6, 101)],
)
def test_uniform_rows_equal_stream_draws(master_seed, start, count):
    stop = start + 10**4
    got = uniform_rows(master_seed, start, stop, count)
    assert got.shape == (10**4, count) and got.dtype == np.int64
    assert np.array_equal(got, stream_rows(master_seed, start, stop, count))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**70),
    st.one_of(st.integers(0, 10**6), st.integers(2**32 - 20, 2**32 + 20)),
    st.integers(0, 20),
    st.lists(st.integers(1, 10**9), max_size=300),
)
def test_index_rows_equal_index_block_of_stream_drivers(master_seed, start, replicas, sizes):
    # index_block's rows are the indices of each stream's own driver
    sizes = np.array(sizes, dtype=np.int64)
    stop = start + replicas
    rows = [MonteCarloDriver(RngStream(master_seed, i)).indices(sizes) for i in range(start, stop)]
    want = np.array(rows, dtype=np.int64).reshape(replicas, len(sizes))
    got = index_block(StreamRange(master_seed, start, stop), sizes)
    assert got.dtype == np.int64 and got.shape == (replicas, len(sizes))
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.integers(0, 2**32), st.integers(2**64 - 3, 2**66)),
    st.one_of(st.integers(0, 10**6), st.integers(2**32 - 4, 2**32 + 4)),
    st.integers(1, 4),
    st.sampled_from([1, 64, 5000]),
)
def test_stream_drivers_draw_as_rng_stream_drivers(master_seed, start, replicas, count):
    # IndexColumns seeds one generator per stream of the range: block after
    # block, each column draws what that stream's RngStream driver draws
    stop = start + replicas
    draws = IndexColumns(StreamRange(master_seed, start, stop), max(count, 70))
    want = [MonteCarloDriver(RngStream(master_seed, i)) for i in range(start, stop)]
    for n in (count, 70):
        got = draws.next(np.full(n, FULL, dtype=np.int64))
        assert got.T.tolist() == [[w.index(FULL) for _ in range(n)] for w in want]


def test_uniform_rows_run_no_cyclic_collection():
    # index_block drops each row's generator before the next is built, so
    # 5000 streams leave the collector no growing set of objects to trace
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    uniform_rows(3, 0, 2, 8)  # load numpy.random and build the seed-word class
    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        uniform_rows(3, 0, 5000, 8)
    finally:
        gc.callbacks.remove(count)
    assert starts == []


class TestUniformRowsInput:
    """What a StreamRange accepts, checked when it is built, and the shapes
    of the index blocks drawn from it."""

    def test_negative_master_seed_raises_as_rng_stream_does(self):
        with pytest.raises(ValueError) as stream:
            RngStream(-3, 0)
        with pytest.raises(ValueError) as streams:
            StreamRange(-3, 0, 2)
        assert str(streams.value) == str(stream.value)

    def test_master_seed_masked_to_64_bits(self):
        want = stream_rows(2**64 + 3, 0, 5, 6)
        assert np.array_equal(uniform_rows(2**64 + 3, 0, 5, 6), want)
        assert np.array_equal(uniform_rows(3, 0, 5, 6), want)

    @pytest.mark.parametrize(
        "start, stop, size", [(5, 4, 3), (-1, 2, 3), (0, 2, -1), (0, 2, 0), (0, 2**64 + 1, 1)]
    )
    def test_bad_ranges_and_counts_rejected(self, start, stop, size):
        if size < 1:  # a good range fails at the batches() call, not when iterated
            streams = StreamRange(0, start, stop)
            with pytest.raises(ValueError, match="batch size"):
                streams.batches(size)
        else:  # a bad range fails when it is built
            with pytest.raises(ValueError):
                StreamRange(0, start, stop)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ValueError):
            index_block(StreamRange(0, 0, 2), np.array([2, 0]))
        draws = IndexColumns(StreamRange(0, 0, 2), 3)
        with pytest.raises(ValueError):
            draws.next(np.array([4, 0, 1]))

    @pytest.mark.parametrize("start, stop", [(5, 3), (-1, 2)])
    def test_stream_range_rejects_bad_ranges_when_built(self, start, stop):
        with pytest.raises(ValueError, match=f"start={start}, stop={stop}"):
            StreamRange(1, start, stop)

    def test_zero_count_and_empty_range(self):
        assert uniform_rows(1, 3, 7, 0).shape == (4, 0)
        assert uniform_rows(1, 3, 3, 5).shape == (0, 5)
        assert uniform_rows(1, 2**64, 2**64, 5).shape == (0, 5)
        assert list(StreamRange(1, 3, 3).batches(4)) == []

    def test_keys_of_two_words(self):
        start, stop = 2**32 - 2, 2**32 + 2
        assert np.array_equal(uniform_rows(7, start, stop, 5), stream_rows(7, start, stop, 5))
        last = stream_rows(7, 2**64 - 1, 2**64, 3)
        assert np.array_equal(uniform_rows(7, 2**64 - 1, 2**64, 3), last)
