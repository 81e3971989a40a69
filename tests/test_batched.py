"""Replica-batched kernels against the one-replica kernels they replace.

The budgets are patched small in most tests, so one run spans several
batches of replicas and several time blocks of indices.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frostree import (
    ChoiceSequence,
    MonteCarloDriver,
    NotReducible,
    RngStream,
    alternating,
    attach_run,
    couple_reduce,
    forward_height,
    parse_sequence,
    run_mc,
    sample_rrt,
    walk_gap_growth,
)
from frostree import coupling, forward, montecarlo
from frostree.coupling import couple_reduce_columns, couple_reduce_heights
from frostree.forward import batch_replicas, depths_from_parents, fixed_count_batch, forward_heights
from frostree.rng import IndexColumns, StreamRange, index_block, pair_second


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
        got = forward_heights(seq, StreamRange(seed, start, stop)).tolist()
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
        assert montecarlo._replica_heights(seq, StreamRange(seed, start, start + replicas)) == want


@st.composite
def hovering_walks(draw):
    """Walks that keep coming back to 1, where the tree regrows from a lone
    active vertex: short excursions (+-, ++--, +(+-)^k-, +^j-^j, so equal
    lengths with unequal steps occur), optionally one excursion of 62 to 82
    steps (either side of the longest one grouped by its steps), an optional
    tail that stays above 1, and an optional freeze run down to 0."""
    short = st.one_of(
        st.just("+-"),
        st.just("++--"),
        st.integers(1, 4).map(lambda k: "+" + "+-" * k + "-"),
        st.integers(1, 4).map(lambda j: "+" * j + "-" * j),
    )
    pieces = draw(st.lists(short, max_size=40))
    if draw(st.booleans()):
        k = draw(st.integers(30, 40))
        pieces.insert(draw(st.integers(0, len(pieces))), "+" + "+-" * k + "-")
    signs = [1 if c == "+" else -1 for c in "".join(pieces)]
    s = 1
    if draw(st.booleans()):
        signs.append(1)
        s = 2
        for is_attach in draw(st.lists(st.booleans(), max_size=12)):
            if is_attach or s == 2:
                signs.append(1)
                s += 1
            else:
                signs.append(-1)
                s -= 1
    if draw(st.booleans()):
        signs += [-1] * s
    if not signs:
        signs = [-1]
    return ChoiceSequence.from_signs(signs)


@settings(max_examples=150, deadline=None)
@given(
    seq=hovering_walks(),
    seed=st.one_of(st.integers(0, 2**32), st.integers(2**64 - 5, 2**65)),
    start=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 8, 2**32 + 8)),
    replicas=st.integers(1, 40),
    block=st.sampled_from([1, 5, 64, 1 << 16]),
)
def test_excursion_lanes_equal_scalar_per_replica(seq, seed, start, replicas, block):
    assert_excursion_lanes_match(seq, seed, start, start + replicas, block)


@pytest.mark.parametrize(
    "text",
    [
        "(++-+--+++---)^6",  # equal lengths, unequal steps
        "+-(+(+-)^31-+(+-)^30-++--)^2",  # 64 and 62 steps: either side of the packed keys
        "(+-)^9++-+--+^3(+-)^4",  # a tail above 1
        "(+^3-^3+-)^4-",  # ends at 0
    ],
)
@pytest.mark.parametrize("block", [1, 5, 64, 1 << 16])
@pytest.mark.parametrize("replicas", [1, 4, 9])
def test_excursion_lanes_on_fixed_walks(text, block, replicas):
    assert_excursion_lanes_match(parse_sequence(text), 7, 100, 100 + replicas, block)


def assert_excursion_lanes_match(seq, seed, start, stop, block):
    want = [forward_height(seq, RngStream(seed, i)) for i in range(start, stop)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward, "INDEX_BLOCK", block)
        assert forward_heights(seq, StreamRange(seed, start, stop)).tolist() == want


def spy_groups(mp):
    """Record each excursion group as (batch, tabled, table built earlier)."""
    groups = []
    table = forward._Batch._table

    def spy(batch, key, a, b, lanes):
        built = key in batch.tables
        got = table(batch, key, a, b, lanes)
        groups.append((batch, got is not None, built))
        return got

    mp.setattr(forward._Batch, "_table", spy)
    return groups


@pytest.mark.parametrize(
    "text, replicas, tabled",
    [
        ("+-", 2, False),  # 1 * 2 = 2 combinations, 2 lanes
        ("+-", 3, True),
        ("++--", 12, False),  # 1 * 2 * 3 * 2 = 12 combinations
        ("++--", 13, True),
        ("(++--)^2", 6, False),  # 2 excursions x 6 replicas = 12 lanes
        ("(++--)^2", 7, True),
        ("(+(+-)^2-)^3", 24, False),  # 1 * 2 * (3 * 2)^2 * 2 = 72 combinations
        ("(+(+-)^2-)^3", 25, True),
        ("(+^5-^5)^3", 40, False),  # 6! * 5! = 86400 combinations
    ],
)
def test_excursion_tables_on_each_side_of_the_choice(text, replicas, tabled):
    with pytest.MonkeyPatch.context() as mp:
        groups = spy_groups(mp)
        assert_excursion_lanes_match(parse_sequence(text), 7, 100, 100 + replicas, 1 << 16)
    assert [g[1] for g in groups] == [tabled]  # one time block, one group


def test_one_block_holds_a_table_group_and_a_lane_group():
    # 4 excursions +- (2 combinations) and 3 of +^4-^4 (5! * 4! = 2880) at
    # 10 replicas: the first group reads a table, the second runs as lanes
    with pytest.MonkeyPatch.context() as mp:
        groups = spy_groups(mp)
        assert_excursion_lanes_match(parse_sequence("(+-+^4-^4)^3+-"), 3, 0, 10, 1 << 16)
    assert [g[1] for g in groups] == [True, False]
    assert groups[0][0] is groups[1][0]


@pytest.mark.parametrize("text", ["(+-)^40", "(++--+-)^12+^3-^3"])
def test_tables_serve_later_blocks_and_each_batch_builds_its_own(text):
    seq, replicas = parse_sequence(text), 8
    with pytest.MonkeyPatch.context() as mp:
        # batches of 3 replicas, each in time blocks of 8 steps
        shrink_budgets(mp, index_block=24, state_bytes=1 << 20, max_batch=3)
        groups = spy_groups(mp)
        per_batch = batch_replicas(seq)
        got = []
        for start in range(0, replicas, per_batch):
            stop = min(start + per_batch, replicas)
            got += forward_heights(seq, StreamRange(5, start, stop)).tolist()
    assert got == [forward_height(seq, RngStream(5, i)) for i in range(replicas)]
    batches = list(dict.fromkeys(g[0] for g in groups))
    assert len(batches) == 3
    for batch in batches:
        tabled = [built for b, hit, built in groups if b is batch and hit]
        assert len(tabled) > len(batch.tables) > 0
        assert tabled.count(False) == len(batch.tables)


@settings(max_examples=60, deadline=None)
@given(
    master_seed=st.one_of(st.integers(0, 2**32), st.integers(2**64 - 3, 2**70)),
    start=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 20, 2**32 + 20)),
    replicas=st.integers(0, 8),
    sizes=st.lists(st.one_of(st.integers(1, 20), st.integers(1, 2**53)), min_size=1, max_size=300),
    cuts=st.lists(st.integers(1, 299), max_size=6),
)
# more draws per stream than a driver's largest refill
@example(master_seed=11, start=5, replicas=3, sizes=[2**53] * 5000, cuts=[64, 4096, 4097])
def test_index_block_rows_and_time_blocks_match_indices(master_seed, start, replicas, sizes, cuts):
    # sizes reach 2^53, where index(k) is the uniform's 53 bits: equal indices mean equal uniforms
    sizes = np.array(sizes, dtype=np.int64)
    stop = start + replicas
    streams = StreamRange(master_seed, start, stop)
    rows = [MonteCarloDriver(RngStream(master_seed, i)).indices(sizes) for i in range(start, stop)]
    want = np.array(rows, dtype=np.int64).reshape(replicas, len(sizes))
    got = index_block(streams, sizes)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # the same streams cut into time blocks: each block continues every stream
    bounds = [0, *sorted({c % len(sizes) for c in cuts} - {0}), len(sizes)]
    draws = IndexColumns(streams, max(b - a for a, b in zip(bounds, bounds[1:])))
    blocks = [draws.next(sizes[a:b]).copy() for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.vstack(blocks).T, want)


def test_index_block_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        index_block(StreamRange(0, 0, 2), np.array([2, 0]))


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


@pytest.mark.parametrize("text", ["(+-)^3", "+^3-^4", "+^3"])
@pytest.mark.parametrize("rows", [StreamRange(0, 0, 0), StreamRange(1, 5, 5)])
def test_forward_heights_of_no_replicas(text, rows):
    heights = forward_heights(parse_sequence(text), rows)
    assert heights.shape == (0,) and heights.dtype == np.int64


def test_forward_heights_are_int64_with_and_without_freezes():
    rows = StreamRange(1, 0, 3)
    assert forward_heights(alternating(3), rows).dtype == np.int64
    assert forward_heights(attach_run(3), rows).dtype == np.int64
    assert forward_heights(alternating(3), StreamRange(1, 3, 3)).dtype == np.int64


def test_batches_follow_what_they_hold():
    # a freeze-free batch is one index block; a time-blocked batch holds
    # sqrt(INDEX_BLOCK) generators; MAX_BATCH caps both
    assert batch_replicas(attach_run(100)) == 655
    assert batch_replicas(attach_run(1)) == forward.MAX_BATCH == 1024
    assert batch_replicas(alternating(50)) == 256
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward, "MAX_BATCH", 7)
        assert batch_replicas(attach_run(100)) == batch_replicas(alternating(50)) == 7


@pytest.mark.parametrize("n", [1, 100, 10**4, 10**5])
def test_freeze_free_batch_is_one_index_block(n):
    per_batch = batch_replicas(attach_run(n))
    assert 1 <= per_batch <= forward.MAX_BATCH
    assert per_batch == 1 or per_batch * n <= forward.INDEX_BLOCK


@st.composite
def parent_arrays(draw):
    """(trees, n) parent arrays, entry [r, v - 1] in [0, v); the ranges hold
    n < trees, n == trees and n > trees."""
    trees, n = draw(st.integers(1, 40)), draw(st.integers(0, 40))
    rows = [[draw(st.integers(0, v - 1)) for v in range(1, n + 1)] for _ in range(trees)]
    return np.array(rows, dtype=np.int64).reshape(trees, n)


@settings(max_examples=200, deadline=None)
@given(parent_arrays())
def test_depths_from_parents_equal_a_per_tree_loop(parents):
    trees, n = parents.shape
    expected = np.zeros((trees, n + 1), dtype=np.int64)
    for d, row in zip(expected, parents.tolist()):
        for v, parent in enumerate(row, start=1):
            d[v] = d[parent] + 1
    depths = depths_from_parents(parents)
    assert depths.shape == (trees, n + 1) and depths.dtype == np.int64
    assert np.array_equal(depths, expected)


@pytest.mark.parametrize("n", [1, 255, 256, 257])
def test_freeze_free_batches_on_each_side_of_the_column_pass(n):
    # a batch of +^256 holds 256 trees (a column pass), one of +^257 holds
    # 255 (pointer doubling)
    seq, replicas = attach_run(n), fixed_count_batch(n)
    assert (replicas >= n) == (n <= 256)
    heights = forward_heights(seq, StreamRange(11, 0, replicas))
    assert heights.tolist() == [forward_height(seq, RngStream(11, i)) for i in range(replicas)]


# --------------------------------------------------------------------------
# Reduction coupling


@st.composite
def reducible_walks(draw):
    """A leading attach run of k >= 1, the freeze after it, free steps that
    keep the walk positive, and optionally freezes down to 0 (so the joint
    run starts from an empty forest)."""
    k = draw(st.integers(1, 8))
    signs, s = [1] * k + [-1], k
    for is_attach in draw(st.lists(st.booleans(), max_size=40)):
        if is_attach or s == 1:
            signs.append(1)
            s += 1
        else:
            signs.append(-1)
            s -= 1
    if draw(st.booleans()):
        signs += [-1] * s
    return ChoiceSequence.from_signs(signs)


def scalar_reduce_columns(seq, seed, start, stop):
    samples = [couple_reduce(seq, RngStream(seed, i)) for i in range(start, stop)]
    return [s.height_x for s in samples], [s.height_xhat for s in samples]


def assert_reduce_heights_match(seq, seed, start, stop):
    height_x, height_xhat = couple_reduce_heights(seq, StreamRange(seed, start, stop))
    want = scalar_reduce_columns(seq, seed, start, stop)
    assert (height_x.tolist(), height_xhat.tolist()) == want


@settings(max_examples=120, deadline=None)
@given(
    seq=reducible_walks(),
    seed=st.integers(0, 2**32),
    start=st.integers(0, 10**6),
    replicas=st.integers(1, 12),
)
def test_batched_reduce_coupling_equals_scalar_per_replica(seq, seed, start, replicas):
    assert_reduce_heights_match(seq, seed, start, start + replicas)


@pytest.mark.parametrize(
    "text",
    [
        "+-+",  # leading run of 1: the spare's pair is the only one, no replay
        "+--",  # ends at 0: the joint run starts from an empty forest
        "+-(+-)^3",
        "+^3-^4",
        "+^4-^2+-",
        "+^6-+-+-^5",
    ],
)
def test_batched_reduce_coupling_covers_every_absorption_time(text):
    seq = parse_sequence(text)
    k = coupling._leading_attach_run(seq)
    replicas = 400
    assert_reduce_heights_match(seq, 5, 0, replicas)
    # every replica's pairs, from the draws couple_reduce makes: the spare sits
    # in slot 0 for the last k pairs and is absorbed by the first that holds 0
    drawn = index_block(StreamRange(5, 0, replicas), coupling._reduce_sizes(seq, k))
    first, rest = drawn[:, 0::2][:, -k:], drawn[:, 1::2][:, -k:]
    holds_spare = (first == 0) | (pair_second(first, rest) == 0)
    assert holds_spare.any(axis=1).all()
    # the spare went on its first pair in some rows, on each later pair in others
    assert set(holds_spare.argmax(axis=1).tolist()) == set(range(k))


@pytest.mark.parametrize("text", ["-+", "+^3"])
def test_batched_reduce_coupling_rejects_what_the_scalar_rejects(text):
    seq = parse_sequence(text)
    with pytest.raises(NotReducible) as scalar:
        couple_reduce(seq, RngStream(0))
    with pytest.raises(NotReducible) as batched:
        couple_reduce_heights(seq, StreamRange(0, 0, 2))
    assert str(batched.value) == str(scalar.value)
    with pytest.raises(NotReducible):
        couple_reduce_columns(seq, 3, 0)


@pytest.mark.parametrize("index_block_entries, max_batch", [(60, 256), (4, 256), (1 << 16, 3)])
def test_reduce_batches_keep_the_index_block_budget(monkeypatch, index_block_entries, max_batch):
    monkeypatch.setattr(forward, "INDEX_BLOCK", index_block_entries)
    monkeypatch.setattr(forward, "MAX_BATCH", max_batch)
    seq = parse_sequence("+^3-+-^2+^2-")
    draws = 2 * seq.attach_count
    blocks = []
    real_index_block = coupling.index_block

    def spy(batch, sizes):
        blocks.append((len(batch), len(sizes)))
        return real_index_block(batch, sizes)

    monkeypatch.setattr(coupling, "index_block", spy)
    columns = couple_reduce_columns(seq, 23, 9)
    assert sum(rows for rows, _ in blocks) == 23 and len(blocks) >= 3
    for rows, width in blocks:
        assert width == draws and rows <= max_batch
        assert rows * width <= max(index_block_entries, draws)
    assert columns == scalar_reduce_columns(seq, 9, 0, 23)


# --------------------------------------------------------------------------
# Batches of fresh streams (StreamRange) against the one-replica oracles


@settings(max_examples=80, deadline=None)
@given(
    seq=valid_sequences(),
    seed=st.one_of(st.integers(0, 2**32), st.integers(2**64 - 5, 2**65)),
    start=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 8, 2**32 + 8)),
    replicas=st.integers(1, 9),
    block=st.sampled_from([1, 5, 1 << 16]),
)
def test_stream_range_batch_equals_scalar_per_replica(seq, seed, start, replicas, block):
    stop = start + replicas
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward, "INDEX_BLOCK", block)
        got = forward_heights(seq, StreamRange(seed, start, stop)).tolist()
    assert got == [forward_height(seq, RngStream(seed, i)) for i in range(start, stop)]


@settings(max_examples=60, deadline=None)
@given(
    seq=reducible_walks(),
    seed=st.one_of(st.integers(0, 2**32), st.integers(2**64 - 5, 2**65)),
    replicas=st.integers(1, 30),
    budget=st.sampled_from([(4, 256), (60, 5), (1 << 16, 256)]),
)
def test_reduce_samples_equal_scalar_per_replica(seq, seed, replicas, budget):
    with pytest.MonkeyPatch.context() as mp:
        shrink_budgets(mp, index_block=budget[0], max_batch=budget[1])
        got = couple_reduce_columns(seq, replicas, seed)
    assert got == scalar_reduce_columns(seq, seed, 0, replicas)


def gap_growth_per_replica(m_values, replicas, seed):
    out = []
    for j, m in enumerate(m_values):
        total = 0
        for r in range(replicas):
            driver = MonteCarloDriver(RngStream(seed, j * replicas + r))
            depths = sample_rrt(m, driver).depths
            u, v = driver.distinct_pair(m + 1)
            total += abs(depths[u] - depths[v])
        out.append((m, total / replicas))
    return out


@settings(max_examples=40, deadline=None)
@given(
    m_values=st.lists(st.integers(1, 80), min_size=1, max_size=4, unique=True).map(sorted),
    replicas=st.integers(1, 12),
    seed=st.integers(0, 2**64),
    index_block_entries=st.sampled_from([1, 50, 1 << 16]),
)
def test_walk_gap_growth_equals_scalar_per_replica(m_values, replicas, seed, index_block_entries):
    with pytest.MonkeyPatch.context() as mp:
        shrink_budgets(mp, index_block=index_block_entries)
        got = walk_gap_growth(m_values, replicas, seed)
    assert got == gap_growth_per_replica(m_values, replicas, seed)


@pytest.mark.parametrize("replicas", [0, -2])
def test_walk_gap_growth_needs_a_replica(replicas):
    with pytest.raises(ValueError, match="need at least one replica"):
        walk_gap_growth([3], replicas, 1)
