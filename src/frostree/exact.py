"""Exact height laws by dynamic programming and exhaustive enumeration.

Forward laws compress the construction state to a depth profile: the count of
active vertices per depth plus the running height.  Both step types pick a
uniform active vertex, so only its depth matters for the future, which makes
the profile a lossless state for the height law.  The DP keys each state by
one int, the counts as fixed-width digits above a height field, so an attach
or a freeze is one integer add.  A step runs over all states at once on
numpy arrays in ascending packed key order: int64 arrays when every key
fits in 62 bits and the law's denominator in int64, object arrays of Python
ints otherwise.  Reverse laws track the multiset of tree
heights in the coalescing forest: graft pairs are drawn uniformly over
ordered slot pairs, so slot order never influences the law and sorting the
heights is an exact lumping of the positional chain.

All arithmetic is exact: the DPs carry integer weights over one shared
denominator per law and divide once per height at the end, and every law is a
HeightDistribution of Fractions.  Monte Carlo results are integer height
counts (``montecarlo.SimulationReport``), not laws.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidSequence, StateSpaceExceeded
from .forward import forward_height
from .reverse import build_reverse
from .rng import law_of
from .sequences import ChoiceSequence, attach_run, is_valid, quoted, require_valid

DEFAULT_STATE_CAP = 10_000_000
DEFAULT_REVERSE_LENGTH_CAP = 12  # +^12, the slowest length-12 case, takes about 3 ms on 2 vCPUs
INT64_KEY_BITS = 62  # widest packed key that the array step runs on
ARRAY_STEP_ENTRIES = 1 << 20  # most (state, depth) entries one array slice holds


@dataclass(frozen=True)
class HeightDistribution:
    """Exact probability masses on nonnegative integer heights.

    The masses are Fractions summing to exactly 1, and zero-mass entries are
    dropped; ``from_exact`` is the one constructor that checks both.
    """

    masses: Mapping[int, Fraction]

    @staticmethod
    def from_exact(masses: Mapping[int, Fraction]) -> "HeightDistribution":
        cleaned = {int(h): Fraction(p) for h, p in masses.items() if p != 0}
        total = sum(cleaned.values())  # 0 when empty
        if total != 1:
            raise ValueError(f"exact masses sum to {total}, expected 1")
        if any(p < 0 for p in cleaned.values()) or any(h < 0 for h in cleaned):
            raise ValueError("negative mass or height")
        return HeightDistribution(cleaned)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.masses))

    @property
    def support_max(self) -> int:
        return max(self.masses)

    def mass(self, h: int) -> Fraction:
        return self.masses.get(h, Fraction(0))

    def mean(self) -> Fraction:
        return sum(h * p for h, p in self.masses.items())

    def to_json_obj(self) -> dict:
        support = list(self.support)
        return {
            "support": support,
            "mass_num": [self.masses[h].numerator for h in support],
            "mass_den": [self.masses[h].denominator for h in support],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "HeightDistribution":
        """Inverse of ``to_json_obj``.  Raises ValueError unless obj is a dict
        whose support, mass_num and mass_den are equally long lists of ints
        (bools are not ints here), the support has no repeat and every
        mass_den is positive."""
        if not isinstance(obj, dict):
            raise ValueError("a height law is a JSON object")
        support, nums, dens = (obj.get(key) for key in ("support", "mass_num", "mass_den"))
        if not _int_list(support):
            raise ValueError("support must be a list of ints")
        if len(set(support)) != len(support):
            raise ValueError("repeated height in support")
        if not (_int_list(nums) and _int_list(dens) and all(d > 0 for d in dens)):
            raise ValueError("mass_num and mass_den must be lists of ints, mass_den positive")
        masses = {h: Fraction(n, d) for h, n, d in zip(support, nums, dens, strict=True)}
        return HeightDistribution.from_exact(masses)

    def to_csv(self) -> str:
        lines = ["height,probability"]
        lines += [f"{h},{float(self.masses[h])!r}" for h in self.support]
        return "\n".join(lines) + "\n"


def _int_list(value: object) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


def exact_height_distribution_forward(
    seq: ChoiceSequence, state_cap: int = DEFAULT_STATE_CAP
) -> HeightDistribution:
    """Exact forward height law by depth-profile dynamic programming.

    A state is the number of active vertices per depth plus the running
    height, which may exceed every occupied depth once the deepest vertices
    are frozen.  It is packed into one int: the low ``hb`` bits hold the
    height and digit d above them, ``b`` bits wide, holds the count at depth
    d.  A count never exceeds the walk maximum s_max, so with
    ``b = s_max.bit_length()`` digits never carry, and with
    ``hb = (len(seq) + 1).bit_length()`` the height never reaches the
    digits.  Empty deepest depths are zero digits, so equal states are
    equal ints.  With ``units[d] = 1 << (hb + b * d)`` an attach at depth d
    adds ``units[d + 1]`` and a freeze at depth d subtracts ``units[d]``.
    No occupied depth exceeds the height, so only an attach at depth d equal
    to the height raises it, by 1.

    Every state before step j holds s_{j-1} actives, so all transitions of a
    step share that divisor: weights stay integers and the law is weight /
    denominator, with one division per height at the end.

    Each step runs on arrays of all states at once (``_forward_arrays``),
    whose dtype is chosen from the input alone: int64 when every key fits
    in INT64_KEY_BITS bits (``hb + b * (attach_count + 1) <= 62``) and the
    denominator, which bounds every weight, is below 2**63, and object
    (Python ints) otherwise.  A step whose distinct states pass
    ``state_cap`` raises StateSpaceExceeded naming that step.
    """
    require_valid(seq)
    return _forward_arrays(seq, state_cap)


def _packing(seq: ChoiceSequence) -> tuple[int, int]:
    """Digit width b and height-field bits hb of the packed forward state."""
    return seq.walk.max_value.bit_length(), (len(seq) + 1).bit_length()


def _fits_int64(seq: ChoiceSequence) -> bool:
    """True when every packed key and every weight of the forward DP fits int64."""
    width, hb = _packing(seq)
    return (
        hb + width * (seq.attach_count + 1) <= INT64_KEY_BITS
        and math.prod(seq.sizes.tolist()) < 1 << 63
    )


def _forward_arrays(seq: ChoiceSequence, state_cap: int) -> HeightDistribution:
    """The forward DP with each step over all states at once on arrays of
    ``_fits_int64``'s dtype: int64, or object when a key or weight is wider.

    ``keys`` and ``weights`` hold the states in ascending packed key order,
    and ``units`` holds one unit per depth that the next attach can reach.
    A step unpacks every digit of every state depth-major with one shift and
    mask, and finds the nonzero digits with one scan of that flat array,
    whose entry ``depth * len(source) + state`` is one state's digit.  The
    sources ascend, so each depth's moved keys form one ascending run: an
    attach at depth d adds ``units[d + 1]`` plus 1 where d is the height,
    which keeps keys non-decreasing, and a freeze subtracts ``units[d]``.
    One stable sort (a timsort on int64, which merges presorted runs) merges
    the runs and one ``add.reduceat`` sums equal keys.
    A step whose digit array would pass ARRAY_STEP_ENTRIES runs over slices
    of the states, each merged with the states the earlier slices made, and
    the state count is checked against ``state_cap`` after each merge.
    """
    width, hb = _packing(seq)
    hmask, digit = (1 << hb) - 1, (1 << width) - 1
    dtype = np.int64 if _fits_int64(seq) else object
    shifts = hb + width * np.arange(2, dtype=np.int64)
    units = np.left_shift(np.ones(1, dtype=dtype), shifts)
    keys, weights = units[:1], np.ones(1, dtype=dtype)
    for j, attach in enumerate(seq.flags.tolist(), start=1):
        moves = units[1:] if attach else -units[:-1]  # one per occupiable depth
        rows = max(1, ARRAY_STEP_ENTRIES // len(moves))
        next_keys = next_weights = np.zeros(0, dtype=dtype)
        for lo in range(0, len(keys), rows):
            source = keys[lo : lo + rows]
            counts = ((source >> shifts[:-1, None]) & digit).ravel()
            state = counts.nonzero()[0]  # a flat entry until depth is taken off
            counts = counts[state]
            depth = state // len(source)  # np.divmod is slower on int64
            state -= depth * len(source)
            moved = source[state]
            if attach:
                moved += depth == (moved & hmask)  # reads the source's height
            moved += moves[depth]
            added = weights[lo : lo + rows][state] * counts
            moved = np.concatenate((next_keys, moved))
            order = np.argsort(moved, kind="stable")
            moved = moved[order]
            starts = np.flatnonzero(np.concatenate(([True], moved[1:] != moved[:-1])))
            if len(starts) > state_cap:
                raise _state_cap_error("forward", seq, j, state_cap)
            next_keys = moved[starts]
            next_weights = np.add.reduceat(np.concatenate((next_weights, added))[order], starts)
        keys, weights = next_keys, next_weights
        if attach:
            shifts = np.concatenate((shifts, shifts[-1:] + width))
            units = np.concatenate((units, units[-1:] << width))
    totals = np.zeros(seq.attach_count + 1, dtype=dtype)
    np.add.at(totals, (keys & hmask).astype(np.int64, copy=False), weights)
    return _law(enumerate(totals.tolist()), math.prod(seq.sizes.tolist()))


def _law(weighted: Iterable[tuple[int, int]], denominator: int) -> HeightDistribution:
    """Height law from (height, integer weight) pairs over one denominator."""
    weights: dict[int, int] = {}
    for h, w in weighted:
        weights[h] = weights.get(h, 0) + w
    return HeightDistribution.from_exact(
        {h: Fraction(w, denominator) for h, w in weights.items()}
    )


def _state_cap_error(dp: str, seq: ChoiceSequence, step: int, cap: int) -> StateSpaceExceeded:
    """The cap error names the 1-based step whose states passed the cap."""
    return StateSpaceExceeded(f"{dp} DP passed state_cap={cap} at step {step} of {quoted(seq)}")


def forward_law_by_enumeration(seq: ChoiceSequence) -> HeightDistribution:
    """Forward height law by brute force over every uniform vertex choice.

    Exponential in the sequence length; this is the independent check for the
    depth-profile DP on small instances.
    """
    return HeightDistribution.from_exact(law_of(lambda d: forward_height(seq, d)))


def exact_height_distribution_reverse(
    seq: ChoiceSequence,
    length_cap: int = DEFAULT_REVERSE_LENGTH_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> HeightDistribution:
    """Exact reversed-construction height law.

    Enumerates every ordered graft-pair draw, merging states that share the
    same multiset of tree heights (slot order cannot influence the law since
    pairs are drawn uniformly over ordered slot pairs).  A state's grafts
    run over distinct (target, donor) height pairs, each weighted by its
    count of ordered slot pairs.  Every state of an attach step has the same
    s trees, so each graft keeps its integer weight and the step multiplies
    the shared denominator by s(s-1).  A step whose distinct states pass
    ``state_cap`` raises StateSpaceExceeded naming that step; the count is
    checked after each source state.
    """
    if len(seq) > length_cap:
        raise StateSpaceExceeded(
            f"reverse enumeration capped at length {length_cap}, got {len(seq)}"
        )
    require_valid(seq)
    s = seq.walk.final  # trees in the forest before the next reverse step
    states: dict[tuple[int, ...], int] = {(0,) * s: 1}
    denominator = 1
    for i, attach in zip(range(len(seq) - 1, -1, -1), reversed(seq.flags.tolist())):
        next_states: dict[tuple[int, ...], int] = {}
        if not attach:
            for heights, weight in states.items():
                key = (0,) + heights  # keys are sorted and heights nonnegative
                next_states[key] = next_states.get(key, 0) + weight
            s += 1
        else:
            for heights, weight in states.items():
                tally = Counter(heights)  # heights ascend, so its keys do too
                for target, targets in tally.items():
                    for donor, donors in tally.items():
                        pairs = targets * (donors - (donor == target))
                        if pairs:
                            rest = list(heights)
                            rest.remove(target)
                            rest.remove(donor)
                            insort(rest, max(target, donor + 1))
                            key = tuple(rest)
                            next_states[key] = next_states.get(key, 0) + weight * pairs
                if len(next_states) > state_cap:
                    raise _state_cap_error("reverse", seq, i + 1, state_cap)
            denominator *= s * (s - 1)
            s -= 1
        states = next_states
    return _law(((h, w) for (h,), w in states.items()), denominator)


def reverse_law_by_enumeration(seq: ChoiceSequence) -> HeightDistribution:
    """Reversed-construction law by enumerating full forest trajectories.

    Runs the positional builder over every choice path; exponential, used to
    validate the multiset-merged version on very small instances.
    """
    return HeightDistribution.from_exact(
        law_of(lambda d: build_reverse(seq, d).height)
    )


# --------------------------------------------------------------------------
# Dominance


def stochastic_dominates(d1: HeightDistribution, d2: HeightDistribution) -> bool:
    """True when d1 is stochastically at least d2: d1's CDF is pointwise at
    most d2's, compared exactly."""
    support = sorted(set(d1.masses) | set(d2.masses))
    c1 = c2 = Fraction(0)
    for h in support:
        c1 += d1.mass(h)
        c2 += d2.mass(h)
        if c1 > c2:
            return False
    return True


def floored(d: HeightDistribution, h: int) -> HeightDistribution:
    """Exact law of max(h, H) for H distributed as d: the mass at or below h
    moves to h."""
    if h < 0:
        raise ValueError("floor must be nonnegative")
    out = {hh: p for hh, p in d.masses.items() if hh > h}
    out[h] = sum(p for hh, p in d.masses.items() if hh <= h)  # from_exact drops a 0
    return HeightDistribution.from_exact(out)


def dominance_with_floor(
    d1: HeightDistribution, d2: HeightDistribution, h: int
) -> bool:
    """True when max(h, H2) stochastically dominates H1 (H1 ~ d1, H2 ~ d2)."""
    return stochastic_dominates(floored(d2, h), d1)


def min_floor_search(n: int, sequence_family: Iterable[ChoiceSequence]) -> int:
    """Smallest floor h such that every family member's height law, floored at
    h, dominates the freeze-free law with n attachments."""
    reference = exact_height_distribution_forward(attach_run(n))
    laws = []
    for seq in sequence_family:
        if seq.attach_count != n or not is_valid(seq):
            raise InvalidSequence(
                f"{quoted(seq)} is not an n={n} sequence with a surviving walk"
            )
        laws.append(exact_height_distribution_forward(seq))
    for h in range(reference.support_max + 1):
        if all(dominance_with_floor(reference, law, h) for law in laws):
            return h
    return reference.support_max  # floor at the top of the support always works


# --------------------------------------------------------------------------
# Bernoulli-sum depth laws


def bernoulli_sum_distribution(params: Iterable[Fraction]) -> HeightDistribution:
    """Exact law of a sum of independent Bernoulli variables."""
    masses = [Fraction(1)]
    for p in params:
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise ValueError(f"parameter {p} outside [0, 1]")
        nxt = [Fraction(0)] * (len(masses) + 1)
        for k, mass in enumerate(masses):
            nxt[k] += mass * (1 - p)
            nxt[k + 1] += mass * p
        masses = nxt
    return HeightDistribution.from_exact({k: m for k, m in enumerate(masses) if m})
