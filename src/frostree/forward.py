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
Freeze-free depths take one numpy call per vertex when a batch has as many
trees as edges or more, else pointer doubling (``depths_from_parents``).

Where the walk is back at 1 the tree regrows from a lone active vertex, so
the steps up to the next such time (an excursion) act on a replica only
through that vertex's depth.  Per (excursion, replica) lane of a time block,
the kernel finds the survivor's depth change and the excursion's deepest
vertex, and a cumulative sum in time order folds them into the replicas'
depths and heights.  A group of equal excursions whose pattern has fewer index
combinations (the product of its steps' option counts) than lanes reads them
from a table that runs each combination once, from relative depth 0, and
serves the whole batch; any other group runs once, one lane each.  The draws
are the same either way.  ``(+-)^n`` has two combinations, so its 2n steps
become a few numpy calls per time block.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InvalidSequence
from .rng import Driver, IndexColumns, RngStream, StreamRange, _as_driver, index_block
from .sequences import ChoiceSequence, quoted, require_valid
from .tree import Status, TreeArena


def build_forward(seq: ChoiceSequence, rng: RngStream | Driver) -> TreeArena:
    """Run the forward construction and return the finished arena.

    Raises InvalidSequence, before any draw, when the walk hits 0 before the
    end.
    """
    require_valid(seq)
    driver = _as_driver(rng)
    parents = [-1]
    depths = [0]
    statuses = [Status.ACTIVE]
    births = [0]
    active = [0]  # vertex indices; swap-remove keeps freeze O(1)
    height = 0

    for j, attach in enumerate(seq.flags.tolist(), start=1):
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

    return TreeArena(parents, depths, statuses, births, height, active)


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
    for is_attach, i in zip(seq.flags.tolist(), driver.indices(seq.sizes).tolist()):
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
    batch = _Batch(seq, len(streams), block)
    draws = IndexColumns(streams, block)
    for t0 in range(0, n, block):
        t1 = min(t0 + block, n)
        columns = draws.next(seq.sizes[t0:t1])
        first, last = np.searchsorted(batch.cuts, (t0, t1 + 1))
        if last - first < 2:
            batch.run(t0, t1, columns)
        else:
            a, b = int(batch.cuts[first]), int(batch.cuts[last - 1])
            batch.run(t0, a, columns[: a - t0])
            batch.excursions(first, last - 1, columns[a - t0 : b - t0])
            batch.run(b, t1, columns[b - t0 :])
    return batch.height.astype(np.int64)


_ONE = np.int32(1)  # a Python int would be converted on every call
_PATTERN_BITS = 62  # excursions up to this length are grouped by their steps


class _Batch:
    """A batch of forward builds with freezes, run time block by time block.

    ``state[p, r]`` is the depth of replica r's active vertex at position p;
    ``height[r]`` is its running height.  The walk is 1 at the times of
    ``cuts``; ``excursions`` looks a group's lanes up in its pattern's table,
    made once the pattern has fewer index combinations than lanes, and runs
    them otherwise.  The buffers hold block * replicas entries, which bounds
    every array of a block: a group of k excursions of L steps has k *
    replicas lanes, and k * L <= block."""

    def __init__(self, seq: ChoiceSequence, replicas: int, block: int):
        self.flags, self.s_values, self.sizes = seq.flags, seq.walk.s_values, seq.sizes
        self.cuts = np.flatnonzero(self.sizes == 1)
        if seq.walk.final == 1:
            self.cuts = np.append(self.cuts, len(seq))
        steps_up = np.append(self.sizes[1:] > self.sizes[:-1], seq.walk.final > self.sizes[-1])
        self.keys = _pattern_keys(steps_up, self.cuts)
        self.tables: dict[int, tuple] = {}
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

    def excursions(self, first: int, last: int, columns: np.ndarray) -> None:
        """Excursions first..last-1, excursion i running from cuts[i] to
        cuts[i + 1]; columns holds the indices of steps cuts[first]..cuts[last]-1."""
        replicas, count = self.replicas, last - first
        cuts, keys = self.cuts[first : last + 1], self.keys[first:last]
        # per (excursion, replica): the survivor's depth change and the deepest vertex
        shift, reach = (f[: count * replicas].reshape(count, replicas) for f in self.folds)
        order = np.argsort(keys, kind="stable")
        for members in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
            a, b = int(cuts[members[0]]), int(cuts[members[0] + 1])
            lanes = len(members) * replicas
            starts = cuts[members] - cuts[0]
            table = self._table(int(keys[members[0]]), a, b, lanes)
            steps = np.arange(b - a) if table is None else table[1]
            # row t, lane i * replicas + r: replica r's index at step steps[t] of members[i]
            rows = self.offsets[: len(steps) * lanes].reshape(len(steps), len(members), replicas)
            np.take(columns, np.add.outer(steps, starts), axis=0, out=rows, mode="clip")
            rows = rows.reshape(len(steps), lanes)
            if table is None:
                for out, lane in zip((shift, reach), self._simulate(a, b, rows)):
                    out[members] = lane.reshape(-1, replicas)
                continue
            # a lane's combination number: its index at step t times the
            # product of the option counts before t, summed over the steps
            outcomes, _, radices = table
            code = rows[0]  # radix 1
            for row, radix in zip(rows[1:], radices[1:]):
                row *= radix
                code += row
            for out, values in zip((shift, reach), outcomes):
                if len(members) == count:  # members is 0..count-1
                    values.take(code, None, out.reshape(-1), "clip")
                else:
                    out[members] = values[code].reshape(-1, replicas)
        # excursion i starts at the root's depth plus the shifts before it
        reach -= shift
        np.cumsum(shift, axis=0, dtype=np.int32, out=shift)
        reach += shift
        root = self.state[0]
        np.maximum(self.height, reach.max(axis=0) + root, out=self.height)
        root += shift[-1]

    def _table(self, key: int, a: int, b: int, lanes: int) -> tuple | None:
        """The table of the excursion pattern of steps a..b-1: (the outcomes
        per index combination, the steps with more than one option, their
        radices).  The first call with more lanes than combinations builds
        it for the batch; until then there is none."""
        options = self.sizes[a:b]
        # a pattern longer than _PATTERN_BITS has over 2^61 combinations
        if key in self.tables or b - a > _PATTERN_BITS or math.prod(options.tolist()) >= lanes:
            return self.tables.get(key)
        radices = np.cumprod(options) // options
        digits = self.lane_ids[: radices[-1] * options[-1]] // radices[:, None] % options[:, None]
        shift, reach = self._simulate(a, b, digits)
        steps = np.flatnonzero(options > 1)
        self.tables[key] = table = ((shift.copy(), reach), steps, radices[steps])
        return table

    def _simulate(self, a: int, b: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the excursion of steps a..b-1 from relative depth 0, lane j
        drawing index at[t, j] at step t; return each lane's survivor depth
        and deepest vertex.  Turns at into flat offsets."""
        lanes = at.shape[1]
        at *= lanes
        at += self.lane_ids[:lanes]
        walk = self.lane_state[: int(self.s_values[a : b + 1].max()) * lanes].reshape(-1, lanes)
        walk[0] = 0
        depths = self.parent_depths[: (b - a) // 2 * lanes].reshape(-1, lanes)
        _steps(walk, self.flags[a:b], self.s_values[a:b], at, depths)
        return walk[0], depths.max(axis=0) + _ONE


def _pattern_keys(steps_up: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """One key per excursion between consecutive times of cuts; equal keys
    mean equal steps.  An excursion of at most ``_PATTERN_BITS`` steps is
    keyed by its steps up packed below a sentinel bit at its length (pass t
    packs step t), which is exact; a longer one gets a key of its own."""
    starts, lengths = cuts[:-1], np.diff(cuts)
    keys = np.uint64(1) << np.minimum(lengths, _PATTERN_BITS).astype(np.uint64)
    alive = np.arange(len(lengths))
    for t in range(min(int(lengths.max(initial=0)), _PATTERN_BITS)):
        alive = alive[lengths[alive] > t]
        keys[alive] |= steps_up[starts[alive] + t].astype(np.uint64) << np.uint64(t)
    long = lengths > _PATTERN_BITS
    keys[long] = np.uint64(1 << 63) + np.flatnonzero(long).astype(np.uint64)
    return keys


def _steps(state, flags, s_values, offsets, parent_depths) -> int:
    """Run steps on state (positions x lanes), one row of offsets per step:
    entry (index * lanes + lane) is the flat offset of the lane's drawn
    active vertex.  Writes each attach's parent depths into a row of
    parent_depths; returns the number of attaches.  Reads the flags and
    s_values slices as lists: iterating an array boxes each entry."""
    flat = state.reshape(-1)
    attaches = 0
    for is_attach, s, at in zip(flags.tolist(), s_values.tolist(), offsets):
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

    With n <= R, a column pass: parents come before children, so vertex v's
    depths in all trees are one take from a time-major (n + 1, R) array, at
    flat offsets parent * R + r, plus one: n calls over R entries.  A
    narrower batch would make many small calls, so it takes pointer
    doubling, about 4 log2(height) calls over n * R entries: ``anc`` jumps
    to the ancestor 2^t levels up (or the root), ``dist`` counts the levels
    jumped, and the loop ends when every jump lands on a root."""
    trees, n = parents.shape
    if n <= trees:
        depths = np.zeros((n + 1, trees), dtype=np.int64)
        at = np.multiply(parents.T, trees, out=np.empty((n, trees), dtype=np.intp))
        at += np.arange(trees)
        flat, parent = depths.reshape(-1), np.empty(trees, dtype=np.int64)
        for row, offsets in zip(depths[1:], at):
            # take into its own buffer: an out overlapping flat copies flat
            flat.take(offsets, None, parent, "clip")
            np.add(parent, _ONE, row)
        return depths.T
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
    return [Fraction(1, s) for s in profile.s_values[1:][seq.flags].tolist()]
