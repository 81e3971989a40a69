"""Coupled constructions: joint samples of tree heights for paired sequences.

Three families of couplings are provided.

* :func:`couple_reduce` runs the reversed construction jointly for a sequence
  and its once-reduced version (drop the last leading attach and the first
  freeze).  The reduced tree's height never exceeds the original's on any
  sample path, which realizes the stochastic-dominance statement as an
  almost-sure inequality.  :func:`couple_reduce_heights` runs a batch of
  replicas with one numpy step per graft and the same draws per replica.

* :func:`couple_prop_i` and :func:`couple_prop_ii` couple the pair of trees
  obtained by inserting a freeze+attach (resp. attach+freeze) after an
  attach-run-then-freeze prefix.  Both heights decompose over a shared
  recursive tree with two marked vertices plus two independently grown
  subtrees whose edge split is uniform; one drawing body serves both, and
  each keeps only its height formulas.

* :func:`couple_prop_iii` couples the attach-insertion pair at the very start
  of the sequence with a plain recursive tree, by cutting the first edge of a
  recursive tree and grafting the two parts onto the surviving actives.

Every scalar operation (one joint sample per call) accepts either an
RngStream (Monte Carlo) or a choice driver, so exhaustive enumeration
(``rng.law_of``) gives exact joint laws that certify the identities on small
instances; the batched ones take a StreamRange.

Monte Carlo rows are rendered from height columns: :func:`render_samples`
fills one row template per replica and writes both the JSON and the CSV form
of ``couple --mode mc``; :func:`couple_reduce_columns` gives the reduce
coupling's columns without building a sample per replica.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, repeat
from typing import Sequence

import numpy as np

from . import forward
from .errors import NotReducible, TargetUnreachable
from .rng import Driver, RngStream, StreamRange, _as_driver, index_block, pair_second
from .sequences import ChoiceSequence, quoted, require_valid


class FreezeCase(Enum):
    """Which of the three candidate actives froze in the attach+freeze coupling."""

    FROZEN_CHILD = "frozen_child"
    FROZEN_PARENT = "frozen_parent"
    FROZEN_OTHER = "frozen_other"


@dataclass(frozen=True)
class CoupledSample:
    height_x: int
    height_xhat: int
    case_tag: FreezeCase | None = None
    i_split: int | None = None


@dataclass(frozen=True)
class ReducedSequence:
    original: ChoiceSequence
    reduced: ChoiceSequence
    removed_at: int  # 1-based position k: steps k and k+1 were dropped


def _leading_attach_run(seq: ChoiceSequence) -> int:
    # a byte search: couple_reduce pays for this per sample, and a numpy call costs 10x more
    first_freeze = seq.flags.tobytes().find(0)
    return len(seq) if first_freeze < 0 else first_freeze


def _reducible_run(seq: ChoiceSequence) -> int:
    """The leading attach run k of seq, checked reducible (0 < k < len) and valid."""
    k = _leading_attach_run(seq)
    if k == 0:
        raise NotReducible("sequence starts with a freeze")
    if k == len(seq):
        raise NotReducible("sequence has no freeze step")
    require_valid(seq)
    return k


def reduce_once(seq: ChoiceSequence) -> ReducedSequence:
    """Drop the last step of the leading attach run and the freeze after it."""
    require_valid(seq)  # invalid input fails as invalid before it fails as irreducible
    k = _reducible_run(seq)
    reduced = ChoiceSequence(np.delete(seq.flags, [k - 1, k]))
    return ReducedSequence(original=seq, reduced=reduced, removed_at=k)


def reduce_to_prefix(seq: ChoiceSequence, r: int) -> ChoiceSequence:
    """Reduce repeatedly until the leading attach run has length at least r.

    Raises TargetUnreachable when reduction runs out before the target run is
    reached.  A walk maximum of at least r does NOT guarantee reachability:
    a leading run of r forces walk value r + 1, and reduction never raises the
    walk maximum, so r above (max - 1) always fails.  ``(+-)^2`` has walk
    maximum 2 but its chain ``(+-)^2 -> +- -> (empty)`` shows leading runs
    1, 1, 0 only.  Every r <= max - 1 is reachable for all valid sequences of
    length at most 14 (an exhaustive test in tests/test_coupling.py), although
    the leading run is not monotone along the chain (it can grow, shrink, stall).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if _leading_attach_run(seq) >= r:
        return seq
    require_valid(seq)  # invalid input fails as invalid before it fails as unreachable
    # After i reductions, each dropping an attach and a freeze, the sequence is
    # ends[i] - 2i attaches and then seq.flags[ends[i]:], ends[i] being freeze
    # i or the end.  A target above max - 1 is unreachable and fails at i = 0.
    ends = np.append(np.flatnonzero(~seq.flags), len(seq))
    runs = ends - 2 * np.arange(len(ends))
    stop = (runs <= 0) | (runs >= r) | (ends == len(seq))
    i = int(np.argmax(stop)) if r <= seq.walk.max_value - 1 else 0
    if runs[i] < r:
        raise TargetUnreachable(
            f"cannot reach a leading attach run of {r} from {quoted(seq)}"
        )
    return ChoiceSequence(np.concatenate((np.ones(runs[i], dtype=bool), seq.flags[ends[i] :])))


# --------------------------------------------------------------------------
# Reduction coupling over the reversed construction


def _reduce_sizes(seq: ChoiceSequence, k: int) -> np.ndarray:
    """Option counts of the joint run's draws in order: (n, n - 1) for each
    distinct pair drawn from a forest of n trees.

    The forest sizes follow from the walk: the shared suffix's graft for the
    attach step i reaches a forest of s_i trees, and after the suffix the
    spare joins s_{k+1} trees, each of the k pairs after it removing one."""
    s = seq.walk.s_values
    suffix = s[k + 2 :][seq.flags[k + 1 :]][::-1]
    sizes = np.repeat(np.concatenate((suffix, s[k + 1] + 1 - np.arange(k))), 2)
    sizes[1::2] -= 1
    return sizes


def _graft_heights(forest: list[int], target: int, donor: int) -> None:
    """Height bookkeeping of a positional graft: donor slot removed, target
    slot replaced by the merge (surviving indices shift past the donor)."""
    donor_height = forest.pop(donor)
    t = target if target < donor else target - 1
    if donor_height + 1 > forest[t]:
        forest[t] = donor_height + 1


def couple_reduce(
    seq: ChoiceSequence,
    rng: RngStream | Driver,
    check: bool = False,
) -> CoupledSample:
    """Jointly sample the heights of a reducible sequence and its reduction.

    Both marginals follow the reversed construction of their own sequence; the
    shared randomness guarantees ``height_xhat <= height_x`` on every path.

    The joint run processes the shared suffix once, then inserts a spare
    frozen singleton in front of the original's forest; it stands for the
    removed freeze step.  Until the spare gets absorbed by a graft, the
    reduced forest replays the original's graft pairs with a one-step delay;
    afterwards both forests consume identical pairs.  ``check=True`` asserts
    the slot-by-slot height domination that makes the final inequality hold.
    All indices come from one ``indices`` call over ``_reduce_sizes``; each
    pair is ``distinct_pair``'s map of two of them.
    """
    driver = _as_driver(rng)
    k = _reducible_run(seq)
    drawn = driver.indices(_reduce_sizes(seq, k)).tolist()
    pairs = ((a, pair_second(a, r)) for a, r in zip(drawn[::2], drawn[1::2]))

    forest = [0] * seq.walk.final
    for attach in seq.flags[k + 1 :][::-1].tolist():
        if not attach:
            forest.append(0)
        else:
            a, b = next(pairs)
            _graft_heights(forest, a, b)

    reduced_forest = forest.copy()
    forest.insert(0, 0)  # the spare frozen singleton occupies slot 0

    def check_absorption(a: int, b: int) -> None:
        # right after absorption the forests agree slot for slot, except where
        # the spare was grafted: there the original sits one level higher (the
        # spare became the root) or at max(height, 1) (the spare hangs under)
        assert len(forest) == len(reduced_forest)
        t = max(a, b) - 1
        for i, (h, hr) in enumerate(zip(forest, reduced_forest)):
            if i != t:
                assert h == hr, "forests differ away from the graft slot"
        expected = reduced_forest[t] + 1 if a == 0 else max(reduced_forest[t], 1)
        assert forest[t] == expected, "graft slot height off"

    spare_absorbed = False
    pending = None  # the reduced forest's next pair, one slot down
    for a, b in pairs:  # the k pairs after the spare
        if spare_absorbed:
            _graft_heights(forest, a, b)
            _graft_heights(reduced_forest, a, b)
        else:
            if pending is not None:
                _graft_heights(reduced_forest, pending[0] - 1, pending[1] - 1)
            if a > 0 and b > 0:
                _graft_heights(forest, a, b)
            else:
                # one of a, b is the spare's slot 0; the merge lands at max(a, b)
                t = max(a, b)
                forest[t] = forest[b] + 1 if a == 0 else max(forest[a], 1)
                forest.pop(0)
                spare_absorbed = True
                if check:
                    check_absorption(a, b)
            pending = (a, b)
        if check and spare_absorbed:
            assert len(forest) == len(reduced_forest) and all(
                h >= hr for h, hr in zip(forest, reduced_forest)
            ), "slot-wise height domination broken"

    return CoupledSample(height_x=forest[0], height_xhat=reduced_forest[0])


def _graft_rows(
    forest: np.ndarray,
    rows: np.ndarray,
    parent: np.ndarray,
    child: np.ndarray,
    removed: np.ndarray,
) -> np.ndarray:
    """One positional graft per row of an (R, n) height array: in row r the
    tree at slot child[r] hangs under the one at slot parent[r], slot
    removed[r] (one of the two) is dropped with the later slots shifting down
    one, and the merged tree lands in the pair's other slot.  Returns (R, n - 1)."""
    height = np.maximum(forest[rows, parent], forest[rows, child] + 1)
    shift = np.arange(forest.shape[1] - 1) >= removed[:, None]
    out = np.where(shift, forest[:, 1:], forest[:, :-1])
    kept = parent + child - removed  # the pair's other slot
    out[rows, kept - (kept > removed)] = height
    return out


def couple_reduce_heights(
    seq: ChoiceSequence, streams: StreamRange
) -> tuple[np.ndarray, np.ndarray]:
    """``(height_x, height_xhat)`` arrays of len(streams) joint runs: entry r
    equals ``couple_reduce(seq, RngStream(master_seed, start + r))``, drawn
    from the same uniforms in the same order.

    Every replica draws the same schedule, so one ``index_block`` call gives
    all pairs and each forest is an (R, n) array that one ``_graft_rows`` call
    advances per graft.  Before the spare is absorbed, the original forest's
    slot 0 is the spare (height 0): a pair with b == 0 is an ordinary graft,
    one with a == 0 drops slot 0 instead of slot b.  The reduced forest
    replays the previous pair one slot down until its row's spare is absorbed.
    """
    k = _reducible_run(seq)
    drawn = index_block(streams, _reduce_sizes(seq, k)).T
    pair_a = np.ascontiguousarray(drawn[0::2])  # (pairs, R): row j is pair j of every replica
    pair_b = pair_second(pair_a, drawn[1::2])
    replicas = len(streams)
    rows = np.arange(replicas)
    singleton = np.zeros((replicas, 1), dtype=np.int64)  # a frozen one-vertex tree

    forest = np.zeros((replicas, seq.walk.final), dtype=np.int64)
    j = 0
    for attach in seq.flags[k + 1 :][::-1].tolist():
        if not attach:
            forest = np.hstack((forest, singleton))
        else:
            forest = _graft_rows(forest, rows, pair_a[j], pair_b[j], pair_b[j])
            j += 1

    reduced = forest
    forest = np.hstack((singleton, forest))  # the spare occupies slot 0
    absorbed = np.zeros(replicas, dtype=bool)
    spare_pair = j
    for j in range(spare_pair, spare_pair + k):
        a, b = pair_a[j], pair_b[j]
        if j > spare_pair:
            ra = np.where(absorbed, a, pair_a[j - 1] - 1)
            rb = np.where(absorbed, b, pair_b[j - 1] - 1)
            reduced = _graft_rows(reduced, rows, ra, rb, rb)
        forest = _graft_rows(forest, rows, a, b, np.where((a == 0) & ~absorbed, a, b))
        absorbed |= (a == 0) | (b == 0)
    return forest[:, 0], reduced[:, 0]


def couple_reduce_columns(
    seq: ChoiceSequence, replicas: int, master_seed: int
) -> tuple[list[int], list[int]]:
    """The ``(height_x, height_xhat)`` columns of
    ``[couple_reduce(seq, RngStream(master_seed, i)) for i in range(replicas)]``
    through :func:`couple_reduce_heights`, in batches of
    ``forward.fixed_count_batch(draws)``: 80 draws per replica make batches
    of 819.  Each batch is a ``StreamRange`` drawn as one ``index_block``,
    so it holds no generator past its row."""
    per_batch = forward.fixed_count_batch(len(_reduce_sizes(seq, _reducible_run(seq))))
    height_x: list[int] = []
    height_xhat: list[int] = []
    for batch in StreamRange(master_seed, 0, replicas).batches(per_batch):
        hx, hxh = couple_reduce_heights(seq, batch)
        height_x += hx.tolist()
        height_xhat += hxh.tolist()
    return height_x, height_xhat


# --------------------------------------------------------------------------
# Shared helpers for the insertion couplings


def _rrt_depths(m: int, driver: Driver) -> tuple[list[int], int]:
    """Depths of a recursive tree grown vertex by vertex; returns (depths, height)."""
    depths = [0]
    height = 0
    for j in range(1, m + 1):
        d = depths[driver.index(j)] + 1
        depths.append(d)
        if d > height:
            height = d
    return depths, height


def _split_heights(n: int, driver: Driver) -> tuple[int, int]:
    """Heights of the two parts of an n-edge recursive tree cut at its first
    edge: (part keeping the root, part rooted at the first child)."""
    component = [0, 1]
    depth = [0, 0]
    heights = [0, 0]
    for j in range(2, n + 1):
        i = driver.index(j)
        c = component[i]
        d = depth[i] + 1
        component.append(c)
        depth.append(d)
        if d > heights[c]:
            heights[c] = d
    return heights[0], heights[1]


def _insertion_draws(m: int, n: int, driver: Driver, freeze_case: bool) -> tuple:
    """The insertion couplings' draws, in order: the m-edge base tree, marked
    vertices u != v, prop_ii's case, the split i_n and the two subtrees.
    Returns (base height, depth of u, depth of v, case or None, i_n, h1, h2)."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    depths, base_height = _rrt_depths(m, driver)
    u, v = driver.distinct_pair(m + 1)
    case = driver.index(3) if freeze_case else None
    i_n = driver.index(n + 1)
    h1 = _rrt_depths(i_n, driver)[1]
    h2 = _rrt_depths(n - i_n, driver)[1]
    return base_height, depths[u], depths[v], case, i_n, h1, h2


def couple_prop_i(m: int, n: int, rng: RngStream | Driver) -> CoupledSample:
    """Coupling for inserting an extra freeze+attach pair.

    Shared pieces: an m-edge recursive tree with two marked distinct uniform
    vertices (the survivors of freezing all but two), a uniform split of n
    extra edges, and the two independently grown subtrees of that split.  The
    first marked vertex hosts both grafts for the longer sequence (one through
    its new child); the two marked vertices share them for the shorter one.
    """
    base, hu, hv, _, i_n, h1, h2 = _insertion_draws(m, n, _as_driver(rng), False)
    return CoupledSample(
        height_x=max(base, hu + 1 + h1, hu + h2),
        height_xhat=max(base, hu + h1, hv + h2),
        i_split=i_n,
    )


def couple_prop_ii(m: int, n: int, rng: RngStream | Driver) -> CoupledSample:
    """Coupling for inserting an extra attach+freeze pair.

    Same shared pieces as :func:`couple_prop_i`, plus a uniform choice of
    which of the three actives (the fresh child, its parent, or the other
    marked vertex) gets frozen; the case decides where the two subtrees land.
    """
    base, hu, hv, case, i_n, h1, h2 = _insertion_draws(m, n, _as_driver(rng), True)
    if case == 0:
        tag = FreezeCase.FROZEN_CHILD
        height_x = max(base, hu + 1, hu + h1, hv + h2)
    elif case == 1:
        tag = FreezeCase.FROZEN_PARENT
        height_x = max(base, hu + 1 + h1, hv + h2)
    else:
        tag = FreezeCase.FROZEN_OTHER
        height_x = max(base, hu + 1 + h1, hu + h2)
    return CoupledSample(
        height_x=height_x,
        height_xhat=max(base, hu + h1, hv + h2),
        case_tag=tag,
        i_split=i_n,
    )


def _prop_iii_x_height(n: int, driver: Driver) -> int:
    """Height of the tree for attach,attach,freeze followed by n attachments."""
    h1, h2 = _split_heights(n + 1, driver)
    cfg = driver.index(6)
    attach_to_child, frozen = divmod(cfg, 3)
    # base tree: root 0, child 1, then vertex 2 under 1 (path) or 0 (star);
    # frozen picks which of 0, 1, 2 is retired before the split parts attach
    if attach_to_child:
        if frozen == 0:
            return max(1 + h1, 2 + h2)
        if frozen == 1:
            return max(h1, 2 + h2)
        return max(2, h1, 1 + h2)
    # three-vertex star
    if frozen == 0:
        return max(1 + h1, 1 + h2)
    return max(h1, 1 + h2)


def _prop_iii_xhat_heights(n: int, driver: Driver) -> tuple[int, int]:
    """(height of the attach,freeze,attach... tree, height of the plain
    recursive tree rebuilt from the same split)."""
    h1, h2 = _split_heights(n, driver)
    rrt_height = max(h1, 1 + h2)
    if driver.index(2) == 0:
        return max(1 + h1, 2 + h2), rrt_height
    return max(h1, 1 + h2), rrt_height


def couple_prop_iii(n: int, rng: RngStream | Driver) -> tuple[int, int, int]:
    """Coupling for removing the second attach of an attach,attach,freeze start.

    Returns ``(height_x, height_xhat, height_rrt)`` where the last two are
    built from the same edge-cut of an n-edge recursive tree, so that the
    recursive tree's height is their deterministic combination.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    driver = _as_driver(rng)
    height_x = _prop_iii_x_height(n, driver)
    height_xhat, height_rrt = _prop_iii_xhat_heights(n, driver)
    return height_x, height_xhat, height_rrt


# --------------------------------------------------------------------------
# Monte Carlo sample rows

# Row templates over (replica, height_x, height_xhat, case text).  The JSON
# one is a row of ``json.dumps(..., sort_keys=True, indent=2)``: keys sorted,
# nested two levels deep.
_ROW = {
    "json": '    {{\n      "case": {3},\n      "height_x": {1},\n'
    '      "height_xhat": {2},\n      "replica": {0}\n    }}',
    "csv": "{0},{1},{2},{3}",
}
_CASE_TEXT = {
    "json": {None: "null", **{c: json.dumps(c.value) for c in FreezeCase}},
    "csv": {None: "", **{c: c.value for c in FreezeCase}},
}


def render_samples(
    fmt: str,
    which: str,
    height_x: Sequence[int],
    height_xhat: Sequence[int],
    cases: Sequence[FreezeCase | None] | None = None,
) -> str:
    """``couple --mode mc`` output of the given height columns (and case tags,
    all None when omitted), row i being replica i.

    ``fmt="json"`` gives ``json.dumps({"which": which, "mode": "mc", "samples":
    rows}, sort_keys=True, indent=2) + "\n"`` with rows of keys replica,
    height_x, height_xhat and case (the tag's value or null); ``fmt="csv"``
    gives ``replica,height_x,height_xhat,case`` rows (an empty case for None)
    and ignores which.  Each row fills one template, so no row object is built."""
    case_text = _CASE_TEXT[fmt]
    texts = repeat(case_text[None]) if cases is None else map(case_text.__getitem__, cases)
    rows = map(_ROW[fmt].format, count(), height_x, height_xhat, texts)
    if fmt == "csv":
        return "\n".join(chain(("replica,height_x,height_xhat,case",), rows)) + "\n"
    body = ",\n".join(rows)
    samples = f"[\n{body}\n  ]" if body else "[]"
    return f'{{\n  "mode": "mc",\n  "samples": {samples},\n  "which": {json.dumps(which)}\n}}\n'
