"""Forward construction: read the sequence left to right, growing one tree.

Each attach step picks a uniformly random active vertex and gives it a new
active child; each freeze step picks a uniformly random active vertex and
freezes it.  After j steps the number of active vertices equals the walk value
at j, which is what makes valid sequences exactly the executable ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSequence
from .rng import Driver, RngStream, _as_driver
from .sequences import ChoiceSequence, Step, require_valid
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
                f"no active vertex left at step {j} of {seq.text!r}"
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
# Freeze-free shortcuts


def _depths_from_parents(parents: np.ndarray) -> np.ndarray:
    """Depth of every vertex by ancestor pointer doubling."""
    n = len(parents)
    full = np.zeros(n + 1, dtype=np.int64)
    full[1:] = parents
    anc = full.copy()
    depth = (np.arange(n + 1) > 0).astype(np.int64)
    while np.any(anc != 0):
        depth = depth + depth[anc]
        anc = anc[anc]
    return depth


def rrt_depths(n: int, driver: Driver) -> tuple[np.ndarray, np.ndarray]:
    """Depths of the n + 1 vertices of an n-edge recursive tree, and the
    parents of vertices 1..n, drawn as build_forward draws on n attachments."""
    parents = driver.indices(np.arange(1, n + 1))
    return _depths_from_parents(parents), parents


def sample_rrt(n: int, rng: RngStream | Driver) -> TreeArena:
    """A uniform recursive tree with n edges.

    Equivalent to (and stream-compatible with) ``build_forward`` on the
    freeze-free sequence of length n, but vectorized.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    depths, parents = rrt_depths(n, _as_driver(rng))
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
            f"{seq.text!r} ends fully frozen: no active vertex to sample"
        )
    return [
        Fraction(1, profile.s_values[i])
        for i, step in enumerate(seq.steps, start=1)
        if step is Step.ATTACH
    ]
