"""Forward construction: read the sequence left to right, growing one tree.

Each attach step picks a uniformly random active vertex and gives it a new
active child; each freeze step picks a uniformly random active vertex and
freezes it.  After j steps the number of active vertices equals the walk value
at j, which is what makes valid sequences exactly the executable ones.

``forward_height`` is the one-replica kernel (and, under ``ExhaustiveDriver``,
the oracle).  ``forward_heights`` runs a batch of replicas, given as a
``StreamRange`` of fresh streams, with one numpy step for the whole batch:
every replica has exactly s_j actives after step j, so the batch state is a
rectangular array.  It draws exactly what ``forward_height`` draws per stream,
by one of the StreamRange's two draws, picked by the sequence: a freeze-free
batch draws one ``rng.index_block``; a batch with freezes draws in time blocks
(``rng.IndexColumns``), from generators seeded once per stream, into buffers
that every block reuses.  ``fixed_count_batch`` sizes every batch that draws
one index block, here and in the reduction coupling and ``walk_gap_growth``.

Where the walk is back at 1 the tree regrows from a lone active vertex, so
the steps up to the next such time (an excursion) act on a replica only
through that vertex's depth.  Within a time block, each group of equal
excursions runs once from relative depth 0, with one lane per (excursion,
replica); each lane gives the survivor's depth change and the excursion's
deepest vertex, and a cumulative sum in time order folds them into the
replicas' depths and heights.  ``(+-)^n`` is back at 1 after every second
step, so its 2n steps become a few numpy calls per time block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSequence
from .rng import Driver, IndexColumns, RngStream, StreamRange, _as_driver, index_block
from .sequences import ChoiceSequence, quoted, require_valid
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

    Raises InvalidSequence, before any draw, when the walk hits 0 before the
    end.  With ``trace=True`` also returns the per-step trajectory.
    """
    require_valid(seq)
    driver = _as_driver(rng)
    parents = [-1]
    depths = [0]
    statuses = [Status.ACTIVE]
    births = [0]
    active = [0]  # vertex indices; swap-remove keeps freeze O(1)
    height = 0
    counts: list[int] = []
    heights: list[int] = []

    for j, attach in enumerate(seq.attach_flags(), start=1):
        i = driver.index(len(active))
        if attach:
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
            if i < len(active):
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
MAX_BATCH = 1024  # replicas per batch, whatever the batch holds
TIME_BLOCKED_BATCH = 256  # sqrt(INDEX_BLOCK): replicas per batch with freezes


def fixed_count_batch(draws: int) -> int:
    """Replicas per batch that draws ``draws`` indices per replica as one
    index block: as many as fit INDEX_BLOCK entries, at least 1 and at most
    MAX_BATCH."""
    return max(1, min(MAX_BATCH, INDEX_BLOCK // max(draws, 1)))


def batch_replicas(seq: ChoiceSequence) -> int:
    """Replicas per ``forward_heights`` batch on seq, at most MAX_BATCH.

    A freeze-free batch keeps all its indices, so it is one index block.  A
    batch with freezes keeps s_max int32 active depths per replica and draws
    each time block by one generator call per replica: TIME_BLOCKED_BATCH
    balances the per-step numpy call, which a larger batch shares more
    widely, against those per-row calls, which it makes more frequent."""
    if seq.freeze_count == 0:
        return fixed_count_batch(len(seq))
    per_batch = min(TIME_BLOCKED_BATCH, STATE_BYTES // (4 * seq.walk.max_value))
    return max(1, min(MAX_BATCH, per_batch))


def forward_heights(seq: ChoiceSequence, streams: StreamRange) -> np.ndarray:
    """Int64 heights of len(streams) forward builds: entry r equals
    ``forward_height(seq, RngStream(master_seed, start + r))``, drawn from the
    same uniforms in the same order.  The caller keeps the memory bounds by
    passing at most ``batch_replicas(seq)`` streams, as ``run_mc`` does.
    Raises InvalidSequence when the walk dies early."""
    require_valid(seq)
    if len(streams) == 0:
        return np.zeros(0, dtype=np.int64)
    if seq.freeze_count == 0:
        parents = index_block(streams, np.arange(1, len(seq) + 1))
        return depths_from_parents(parents).max(axis=1)

    n = len(seq)
    block = min(max(1, INDEX_BLOCK // len(streams)), n)
    # the walk is 1 at these times: the tree regrows from a lone active vertex
    cuts = np.flatnonzero(seq.sizes == 1)
    if seq.walk.final == 1:
        cuts = np.append(cuts, n)
    batch = _Batch(seq, len(streams), block)
    draws = IndexColumns(streams, block)
    for t0 in range(0, n, block):
        t1 = min(t0 + block, n)
        columns = draws.next(seq.sizes[t0:t1])
        first, last = np.searchsorted(cuts, (t0, t1 + 1))
        if last - first < 2:
            batch.run(t0, t1, columns)
        else:
            batch.run(t0, int(cuts[first]), columns[: cuts[first] - t0])
            batch.excursions(cuts[first:last], columns[cuts[first] - t0 : cuts[last - 1] - t0])
            batch.run(int(cuts[last - 1]), t1, columns[cuts[last - 1] - t0 :])
    return batch.height.astype(np.int64)


_ONE = np.int32(1)  # a Python int would be converted on every call
_PATTERN_BITS = 62  # excursions up to this length are grouped by their steps


class _Batch:
    """A batch of forward builds with freezes, run time block by time block.

    ``state[p, r]`` is the depth of replica r's active vertex at position p;
    ``height[r]`` is its running height.  Steps between two times at which
    the walk is 1 form an excursion: it starts from a lone active vertex and
    ends with one, so it acts on a replica's state only through that vertex's
    depth.  ``excursions`` runs each group of equal excursions of a time
    block once from relative depth 0, with one lane per (excursion, replica),
    and folds the lanes' results into the state in time order.  The buffers
    hold block * replicas entries, which bounds every array of a block: a
    group of k excursions of L steps runs k * replicas lanes, and k * L <=
    block."""

    def __init__(self, seq: ChoiceSequence, replicas: int, block: int):
        self.flags, self.s_values = seq.attach_flags(), seq.walk.s_values
        sizes = seq.sizes
        self.steps_up = np.append(sizes[1:] > sizes[:-1], seq.walk.final > sizes[-1])
        self.replicas = replicas
        self.state = np.zeros((seq.walk.max_value, replicas), dtype=np.int32)
        self.height = np.zeros(replicas, dtype=np.int32)
        entries = block * replicas
        self.offsets = np.empty(entries, dtype=np.intp)
        self.parent_depths = np.empty(entries, dtype=np.int32)
        self.lane_state = np.empty(entries, dtype=np.int32)
        self.lane_ids = np.arange(max(entries // 2, replicas), dtype=np.intp)
        self.folds = np.empty((2, entries // 2), dtype=np.int32)

    def run(self, a: int, b: int, columns: np.ndarray) -> None:
        """Steps a..b-1 on the batch's own state; columns holds their indices."""
        if a == b:
            return
        replicas = self.replicas
        at = self.offsets[: (b - a) * replicas].reshape(b - a, replicas)
        np.multiply(columns, replicas, out=at)
        at += self.lane_ids[:replicas]
        depths = self.parent_depths[: (b - a) * replicas].reshape(b - a, replicas)
        attaches = _steps(self.state, self.flags[a:b], self.s_values[a:b], at, depths)
        if attaches:
            np.maximum(self.height, depths[:attaches].max(axis=0) + _ONE, out=self.height)

    def excursions(self, cuts: np.ndarray, columns: np.ndarray) -> None:
        """The excursions between consecutive times of cuts (at least two, all
        with walk value 1); columns holds the indices of steps cuts[0]..cuts[-1]-1."""
        replicas = self.replicas
        count = len(cuts) - 1
        # the survivor's depth change and the excursion's deepest vertex,
        # relative to its root, per (excursion, replica)
        shift, reach = (f[: count * replicas].reshape(count, replicas) for f in self.folds)
        keys = self._pattern_keys(cuts)
        order = np.argsort(keys, kind="stable")
        for members in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
            a, b = int(cuts[members[0]]), int(cuts[members[0] + 1])
            lanes = len(members) * replicas
            # lane i * replicas + r runs replica r's copy of excursion members[i]
            at = self.offsets[: (b - a) * lanes].reshape(b - a, len(members), replicas)
            grid = np.add.outer(np.arange(b - a), cuts[members] - cuts[0])
            np.take(columns, grid, axis=0, out=at, mode="clip")
            at = at.reshape(b - a, lanes)
            at *= lanes
            at += self.lane_ids[:lanes]
            walk = self.lane_state[: max(self.s_values[a : b + 1]) * lanes].reshape(-1, lanes)
            walk[0] = 0
            depths = self.parent_depths[: (b - a) // 2 * lanes].reshape(-1, lanes)
            _steps(walk, self.flags[a:b], self.s_values[a:b], at, depths)
            shift[members] = walk[0].reshape(-1, replicas)
            reach[members] = (depths.max(axis=0) + _ONE).reshape(-1, replicas)
        # excursion i starts at the root's depth plus the shifts before it
        reach -= shift
        np.cumsum(shift, axis=0, dtype=np.int32, out=shift)
        reach += shift
        root = self.state[0]
        np.maximum(self.height, reach.max(axis=0) + root, out=self.height)
        root += shift[-1]

    def _pattern_keys(self, cuts: np.ndarray) -> np.ndarray:
        """One key per excursion between consecutive times of cuts; equal keys
        mean equal steps.  An excursion of at most ``_PATTERN_BITS`` steps is
        keyed by its attach flags packed below a sentinel bit at its length,
        which is exact; a longer one gets a key of its own."""
        lengths = np.diff(cuts)
        span = np.arange(cuts[0], cuts[-1])
        # shifts stop at the sentinel's bit; the keys they spoil are replaced
        offset = np.minimum(span - np.repeat(cuts[:-1], lengths), _PATTERN_BITS)
        bits = self.steps_up[cuts[0] : cuts[-1]].astype(np.uint64) << offset.astype(np.uint64)
        sentinel = np.uint64(1) << np.minimum(lengths, _PATTERN_BITS).astype(np.uint64)
        keys = np.add.reduceat(bits, cuts[:-1] - cuts[0]) | sentinel
        long = lengths > _PATTERN_BITS
        keys[long] = np.uint64(1 << 63) + np.flatnonzero(long).astype(np.uint64)
        return keys


def _steps(state, flags, s_values, offsets, parent_depths) -> int:
    """Run steps on state (positions x lanes), one row of offsets per step:
    entry (index * lanes + lane) is the flat offset of the lane's drawn
    active vertex.  Writes each attach's parent depths into a row of
    parent_depths; returns the number of attaches."""
    flat = state.reshape(-1)
    attaches = 0
    for is_attach, s, at in zip(flags, s_values, offsets):
        if is_attach:
            # the new vertex takes position s; mode "clip" (indices are in
            # range) lets take write to out without a buffer copy
            parent = parent_depths[attaches]
            flat.take(at, None, parent, "clip")
            np.add(parent, _ONE, state[s])
            attaches += 1
        else:
            # swap-remove: the vertex at position s - 1 replaces the frozen one
            flat[at] = state[s - 1]
    return attaches


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
        for i, attach in enumerate(seq.attach_flags(), start=1)
        if attach
    ]
