"""Forward construction: read the sequence left to right, growing one tree.

Each attach step picks a uniformly random active vertex and gives it a new
active child; each freeze step picks a uniformly random active vertex and
freezes it.  After j steps the number of active vertices equals the walk value
at j, which is what makes valid sequences exactly the executable ones.

``forward_height`` is the one-replica kernel (and, under ``ExhaustiveDriver``,
the oracle).  ``forward_heights`` runs a batch of replicas, one
``MonteCarloDriver`` each, with one numpy step for the whole batch: every
replica has exactly s_j actives after step j, so the batch state is a
rectangular array.  It draws exactly what ``forward_height`` draws per driver.
A freeze-free batch draws one index block, so it may also be a
``StreamRange`` of fresh streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSequence
from .rng import (
    Driver,
    MonteCarloDriver,
    RngStream,
    StreamRange,
    _as_driver,
    index_block,
    stream_drivers,
)
from .sequences import ChoiceSequence, Step, quoted, require_valid
from .tree import Status, TreeArena


@dataclass(frozen=True)
class ForwardTrace:
    """Per-step trajectory: active count and running height after each step."""

    active_counts: tuple[int, ...]
    heights: tuple[int, ...]


def build_forward(
    seq: ChoiceSequence,
    rng: RngStream | Driver,
    trace: bool = False,
) -> TreeArena | tuple[TreeArena, ForwardTrace]:
    """Run the forward construction and return the finished arena.

    Raises InvalidSequence if some step finds no active vertex (exactly the
    sequences whose walk hits 0 before the end).  With ``trace=True`` also
    returns the per-step trajectory.
    """
    driver = _as_driver(rng)
    parents = [-1]
    depths = [0]
    statuses = [Status.ACTIVE]
    births = [0]
    active = [0]  # vertex indices; swap-remove keeps freeze O(1)
    height = 0
    counts: list[int] = []
    heights: list[int] = []

    for j, step in enumerate(seq.steps, start=1):
        size = len(active)
        if size == 0:
            raise InvalidSequence(
                f"no active vertex left at step {j} of {quoted(seq)}"
            )
        i = driver.index(size)
        if step is Step.ATTACH:
            v = active[i]
            child = len(parents)
            parents.append(v)
            d = depths[v] + 1
            depths.append(d)
            statuses.append(Status.ACTIVE)
            births.append(j)
            active.append(child)
            if d > height:
                height = d
        else:
            v = active[i]
            statuses[v] = Status.FROZEN
            last = active.pop()
            if i < size - 1:
                active[i] = last
        if trace:
            counts.append(len(active))
            heights.append(height)

    arena = TreeArena(parents, depths, statuses, births, height, active)
    if trace:
        return arena, ForwardTrace(tuple(counts), tuple(heights))
    return arena


def forward_height(seq: ChoiceSequence, rng: RngStream | Driver) -> int:
    """Height of one forward build; tracks active depths only.

    Draws the same indices as :func:`build_forward` (one per step, option
    count s_{j-1} at step j), so both produce the same height for the same
    stream or choice path.  Raises InvalidSequence when the walk dies early.
    """
    require_valid(seq)
    driver = _as_driver(rng)
    depths = [0]
    height = 0
    for is_attach, i in zip(seq.attach_flags(), driver.indices(seq.sizes).tolist()):
        if is_attach:
            d = depths[i] + 1
            depths.append(d)
            if d > height:
                height = d
        else:
            last = depths.pop()
            if i < len(depths):
                depths[i] = last
    return height


# --------------------------------------------------------------------------
# Replica batches

INDEX_BLOCK = 1 << 16  # entries of one (replicas x steps) index block
STATE_BYTES = 1 << 23  # bytes of one batch's active-depth state
MAX_BATCH = 256  # replicas per batch; each holds a generator of about 1 kB


def batch_replicas(seq: ChoiceSequence) -> int:
    """Replicas per ``forward_heights`` batch on seq.

    A freeze-free batch keeps all its indices, so it is one index block; a
    forward batch keeps s_max active depths per replica.  The cap of 256
    (the square root of INDEX_BLOCK) balances the per-step numpy call, which
    a larger batch shares more widely, against the per-row generator call of
    each time block, which a larger batch makes more frequent."""
    if seq.freeze_count == 0:
        per_batch = INDEX_BLOCK // max(len(seq), 1)
    else:
        per_batch = STATE_BYTES // (4 * seq.walk.max_value)  # int32 depths
    return max(1, min(MAX_BATCH, per_batch))


def forward_heights(
    seq: ChoiceSequence, drivers: list[MonteCarloDriver] | StreamRange
) -> np.ndarray:
    """Heights of len(drivers) forward builds: entry r equals
    ``forward_height(seq, drivers[r])``, drawn from the same uniforms in the
    same order.  Batches of ``batch_replicas(seq)`` drivers keep the memory
    bounds.  Raises InvalidSequence when the walk dies early."""
    require_valid(seq)
    if seq.freeze_count == 0:
        parents = index_block(drivers, np.arange(1, len(seq) + 1))
        return depths_from_parents(parents).max(axis=1)
    if isinstance(drivers, StreamRange):
        # time blocks continue each stream, so every row keeps a driver
        drivers = stream_drivers(drivers.master_seed, drivers.start, drivers.stop)

    replicas = len(drivers)
    s_values = seq.walk.s_values
    flags = seq.attach_flags()
    # state[p, r] is the depth of replica r's active vertex at position p;
    # a replica's position p sits at flat offset p * replicas + r
    state = np.zeros((seq.walk.max_value, replicas), dtype=np.int32)
    flat = state.reshape(-1)
    columns = np.arange(replicas)
    one = np.int32(1)  # a Python int would be converted on every call
    height = np.zeros(replicas, dtype=np.int32)
    block = max(1, INDEX_BLOCK // replicas)
    parent_depths = np.empty((min(block, len(seq)), replicas), dtype=np.int32)
    for t0 in range(0, len(seq), block):
        t1 = min(t0 + block, len(seq))
        idx = index_block(drivers, seq.sizes[t0:t1])
        offsets = np.empty((t1 - t0, replicas), dtype=np.intp)
        np.multiply(idx.T, replicas, out=offsets)
        offsets += columns
        attaches = 0
        for is_attach, s, at in zip(flags[t0:t1], s_values[t0:t1], offsets):
            if is_attach:
                # the new vertex takes position s; mode "clip" (indices are in
                # range) lets take write to out without a buffer copy
                parent = parent_depths[attaches]
                flat.take(at, None, parent, "clip")
                np.add(parent, one, state[s])
                attaches += 1
            else:
                # swap-remove: the vertex at position s - 1 replaces the frozen one
                flat[at] = state[s - 1]
        if attaches:
            np.maximum(height, parent_depths[:attaches].max(axis=0) + one, out=height)
    return height


# --------------------------------------------------------------------------
# Freeze-free shortcuts


def depths_from_parents(parents: np.ndarray) -> np.ndarray:
    """Depths of the n + 1 vertices of each of R trees, from the (R, n) array
    whose entry [r, v - 1] is the parent of vertex v in tree r.

    Ancestor pointer doubling over flat offsets: ``anc`` jumps to the
    ancestor 2^t levels up (or the root), ``dist`` counts the levels jumped,
    and the loop ends when every jump lands on a root."""
    trees, n = parents.shape
    width = n + 1
    anc = np.empty((trees, width), dtype=np.intp)
    anc[:, 0] = 0
    anc[:, 1:] = parents
    anc += np.arange(0, trees * width, width)[:, None]
    anc = anc.reshape(-1)
    dist = np.ones(trees * width, dtype=np.int64)
    dist[::width] = 0
    jumped = np.empty_like(dist)
    spare = np.empty_like(anc)
    while True:
        dist.take(anc, None, jumped, "clip")
        if not jumped.any():
            return dist.reshape(trees, width)
        dist += jumped
        anc.take(anc, None, spare, "clip")
        anc, spare = spare, anc


def sample_rrt(n: int, rng: RngStream | Driver) -> TreeArena:
    """A uniform recursive tree with n edges.

    Equivalent to (and stream-compatible with) ``build_forward`` on the
    freeze-free sequence of length n, but vectorized.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    parents = _as_driver(rng).indices(np.arange(1, n + 1))
    depths = depths_from_parents(parents[None])[0]
    return TreeArena(
        parents=[-1] + parents.tolist(),
        depths=depths.tolist(),
        statuses=[Status.ACTIVE] * (n + 1),
        birth_steps=list(range(n + 1)),
        height=int(depths.max()),
        active_list=list(range(n + 1)),
    )


def rrt_split(n: int, rng: RngStream | Driver) -> tuple[TreeArena, TreeArena]:
    """Build an n-edge recursive tree, cut its first edge, return both parts.

    The first part keeps the original root, the second is rooted at the first
    attached vertex; depths are recomputed relative to each new root.  The
    edge count of the root part is uniform on {0, ..., n-1}.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    arena = sample_rrt(n, rng)
    in_second = [False] * (n + 1)
    in_second[1] = True
    for v in range(2, n + 1):
        in_second[v] = in_second[arena.parents[v]]
    return (
        _component_arena(arena, [v for v in range(n + 1) if not in_second[v]]),
        _component_arena(arena, [v for v in range(n + 1) if in_second[v]]),
    )


def _component_arena(arena: TreeArena, members: list[int]) -> TreeArena:
    # members are in creation order, so parents stay earlier after relabeling
    new_index = {v: i for i, v in enumerate(members)}
    parents = [-1] + [new_index[arena.parents[v]] for v in members[1:]]
    depths = [0] * len(members)
    for i in range(1, len(members)):
        depths[i] = depths[parents[i]] + 1
    return TreeArena(
        parents=parents,
        depths=depths,
        statuses=[arena.statuses[v] for v in members],
        birth_steps=[arena.birth_steps[v] for v in members],
        height=max(depths),
        active_list=[new_index[v] for v in arena.active_list if v in new_index],
    )


# --------------------------------------------------------------------------
# Depth of a uniform active vertex


def uniform_active_depth_law(seq: ChoiceSequence) -> list[Fraction]:
    """Success probabilities whose independent Bernoulli sum is distributed as
    the depth of a uniformly chosen active vertex of the finished tree.

    One parameter per attach step: the reciprocal of the walk value right
    after that step.  For the freeze-free sequence of length n this gives
    1/2, 1/3, ..., 1/(n+1); the uniform-vertex expected depth of the 3-edge
    recursive tree is therefore 1/2 + 1/3 + 1/4 = 13/12, which exhaustive
    enumeration confirms.  (The shifted variant with parameters 1, 1/2, 1/3
    is the depth law of the last attached vertex, a different quantity.)
    """
    require_valid(seq)
    profile = seq.walk
    if profile.final == 0:
        raise InvalidSequence(
            f"{quoted(seq)} ends fully frozen: no active vertex to sample"
        )
    return [
        Fraction(1, profile.s_values[i])
        for i, step in enumerate(seq.steps, start=1)
        if step is Step.ATTACH
    ]
