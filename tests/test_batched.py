"""Replica-batched kernels against the one-replica kernels they replace.

The budgets are patched small in most tests, so one run spans several
batches of replicas and several time blocks of indices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostree import (
    ChoiceSequence,
    MonteCarloDriver,
    RngStream,
    alternating,
    attach_run,
    forward_height,
    parse_sequence,
    run_mc,
    sample_rrt,
    walk_gap_growth,
)
from frostree import forward, montecarlo
from frostree.forward import batch_replicas, forward_heights
from frostree.rng import index_block


def drivers(seed, start, stop):
    return [MonteCarloDriver(RngStream(seed, i)) for i in range(start, stop)]


def shrink_budgets(mp, index_block=8, state_bytes=64, max_batch=3):
    mp.setattr(forward, "INDEX_BLOCK", index_block)
    mp.setattr(forward, "STATE_BYTES", state_bytes)
    mp.setattr(forward, "MAX_BATCH", max_batch)


@st.composite
def valid_sequences(draw):
    """Valid sequences: an attach run (large s_max when long), free steps
    that keep the walk positive, and optionally freezes down to 0."""
    head = draw(st.integers(0, 400))
    if draw(st.booleans()):
        body = [True] * draw(st.integers(0, 30))  # freeze-free
    else:
        body = draw(st.lists(st.booleans(), max_size=40))
    signs, s = [], 1
    for is_attach in [True] * head + body:
        if is_attach or s == 1:
            signs.append(1)
            s += 1
        else:
            signs.append(-1)
            s -= 1
    if draw(st.booleans()):
        signs += [-1] * s  # the walk ends at 0
    if not signs:
        signs = [draw(st.sampled_from([1, -1]))]  # length 1
    return ChoiceSequence.from_signs(signs)


@settings(max_examples=80, deadline=None)
@given(
    seq=valid_sequences(),
    seed=st.integers(0, 2**32),
    start=st.integers(0, 10**6),
    replicas=st.integers(1, 9),
    block=st.sampled_from([1, 5, 64, 1 << 16]),
)
def test_batched_heights_equal_scalar_per_replica(seq, seed, start, replicas, block):
    stop = start + replicas
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward, "INDEX_BLOCK", block)
        got = forward_heights(seq, drivers(seed, start, stop)).tolist()
    want = [forward_height(seq, RngStream(seed, i)) for i in range(start, stop)]
    assert got == want
    if seq.freeze_count == 0:
        assert got == [sample_rrt(len(seq), RngStream(seed, i)).height for i in range(start, stop)]


@settings(max_examples=40, deadline=None)
@given(
    seq=valid_sequences(),
    seed=st.integers(0, 2**32),
    start=st.integers(0, 10**6),
    replicas=st.integers(1, 20),
)
def test_batches_merge_to_the_scalar_histogram(seq, seed, start, replicas):
    want = {}
    for i in range(start, start + replicas):
        h = forward_height(seq, RngStream(seed, i))
        want[h] = want.get(h, 0) + 1
    with pytest.MonkeyPatch.context() as mp:
        shrink_budgets(mp)
        assert montecarlo._replica_heights(seq, seed, start, start + replicas) == want


def test_index_block_rows_and_time_blocks_match_indices():
    sizes = np.array([1, 2, 3, 7, 2, 1, 9, 4, 4, 13])
    whole = index_block(drivers(11, 5, 9), sizes)
    rows = [MonteCarloDriver(RngStream(11, i)).indices(sizes) for i in range(5, 9)]
    assert (whole == np.array(rows)).all()
    # a stream cut into time blocks yields the same indices as one block
    split = drivers(11, 5, 9)
    parts = [index_block(split, sizes[a:b]) for a, b in ((0, 3), (3, 4), (4, 10))]
    assert (np.hstack(parts) == whole).all()


def test_index_block_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        index_block(drivers(0, 0, 2), np.array([2, 0]))


def test_walk_gap_growth_keeps_each_streams_draw_order(monkeypatch):
    shrink_budgets(monkeypatch, index_block=50)
    replicas, seed = 7, 3
    want = []
    for j, m in enumerate([5, 40]):
        total = 0
        for r in range(replicas):
            driver = MonteCarloDriver(RngStream(seed, j * replicas + r))
            depths = sample_rrt(m, driver).depths
            u, v = driver.distinct_pair(m + 1)
            total += abs(depths[u] - depths[v])
        want.append((m, total / replicas))
    assert walk_gap_growth([5, 40], replicas, seed) == want


def _pool_spy(monkeypatch):
    started = []
    real_pool = montecarlo.multiprocessing.Pool

    def pool(workers):
        started.append(workers)
        return real_pool(workers)

    monkeypatch.setattr(montecarlo.multiprocessing, "Pool", pool)
    return started


@pytest.mark.parametrize("text", ["(+-)^12", "+^3-^2(+-)^4", "+^30"])
def test_pool_run_is_byte_identical_to_serial(monkeypatch, text):
    shrink_budgets(monkeypatch, state_bytes=1 << 20, max_batch=10)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    seq = parse_sequence(text)
    assert -(-97 // batch_replicas(seq)) >= 4
    serial = run_mc(seq, 97, 21, parallelism=1)
    started = _pool_spy(monkeypatch)
    parallel = run_mc(seq, 97, 21, parallelism=2)
    assert started == [2]
    assert serial.to_json() == parallel.to_json()


def test_one_batch_starts_no_pool(monkeypatch):
    def no_pool(workers):
        raise AssertionError("a run of one batch started a pool")

    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(montecarlo.multiprocessing, "Pool", no_pool)
    for seq in (alternating(50), attach_run(100)):
        assert batch_replicas(seq) >= 100
        assert run_mc(seq, 100, 4, parallelism=8).replicas == 100


def test_three_batches_per_two_workers_stay_serial(monkeypatch):
    def no_pool(workers):
        raise AssertionError("a worker would get fewer than two batches")

    shrink_budgets(monkeypatch, state_bytes=1 << 20, max_batch=10)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(montecarlo.multiprocessing, "Pool", no_pool)
    assert run_mc(alternating(5), 30, 4, parallelism=2).replicas == 30


@pytest.mark.parametrize("s_max", [2, 3, 10, 1000, 10**5, 10**6])
def test_batch_state_stays_under_its_budget(s_max):
    seq = attach_run(s_max - 1) + parse_sequence("-")
    assert seq.walk.max_value == s_max
    per_batch = batch_replicas(seq)
    assert 1 <= per_batch <= forward.MAX_BATCH
    assert per_batch * s_max * np.dtype(np.int32).itemsize <= forward.STATE_BYTES


@pytest.mark.parametrize("n", [1, 100, 10**4, 10**5])
def test_freeze_free_batch_is_one_index_block(n):
    per_batch = batch_replicas(attach_run(n))
    assert 1 <= per_batch <= forward.MAX_BATCH
    assert per_batch == 1 or per_batch * n <= forward.INDEX_BLOCK
