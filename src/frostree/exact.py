"""Exact height laws by dynamic programming and exhaustive enumeration.

Forward laws compress the construction state to a depth profile: the count of
active vertices per depth plus the running height.  Both step types pick a
uniform active vertex, so only its depth matters for the future, which makes
the profile a lossless state for the height law.  Reverse laws track the
multiset of tree heights in the coalescing forest: graft pairs are drawn
uniformly over ordered slot pairs, so slot order never influences the law and
sorting the heights is an exact lumping of the positional chain.

All oracle arithmetic is over exact rationals; empirical distributions use
floats and the two kinds never mix in one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InvalidSequence, StateSpaceExceeded
from .forward import forward_height
from .reverse import build_reverse
from .rng import law_of
from .sequences import ChoiceSequence, Step, attach_run, is_valid, require_valid

DEFAULT_STATE_CAP = 10_000_000
DEFAULT_REVERSE_LENGTH_CAP = 8


@dataclass(frozen=True)
class HeightDistribution:
    """Probability masses on nonnegative integer heights.

    ``exact=True`` masses are Fractions summing to exactly 1; float masses
    must sum to 1 within 1e-12.  Zero-mass entries are dropped.
    """

    masses: Mapping[int, Fraction] | Mapping[int, float]
    exact: bool

    @staticmethod
    def from_exact(masses: Mapping[int, Fraction]) -> "HeightDistribution":
        cleaned = {int(h): Fraction(p) for h, p in masses.items() if p != 0}
        total = sum(cleaned.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"exact masses sum to {total}, expected 1")
        if any(p < 0 for p in cleaned.values()) or any(h < 0 for h in cleaned):
            raise ValueError("negative mass or height")
        return HeightDistribution(cleaned, exact=True)

    @staticmethod
    def from_float(masses: Mapping[int, float]) -> "HeightDistribution":
        cleaned = {int(h): float(p) for h, p in masses.items() if p != 0.0}
        total = sum(cleaned.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"float masses sum to {total}, expected 1")
        if any(p < 0 for p in cleaned.values()) or any(h < 0 for h in cleaned):
            raise ValueError("negative mass or height")
        return HeightDistribution(cleaned, exact=False)

    @staticmethod
    def from_counts(histogram: Mapping[int, int]) -> "HeightDistribution":
        total = sum(histogram.values())
        if total <= 0:
            raise ValueError("empty histogram")
        return HeightDistribution.from_float(
            {h: c / total for h, c in histogram.items() if c}
        )

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.masses))

    @property
    def support_max(self) -> int:
        return max(self.masses)

    def mass(self, h: int) -> Fraction | float:
        zero = Fraction(0) if self.exact else 0.0
        return self.masses.get(h, zero)

    def cdf_pairs(self) -> list[tuple[int, Fraction | float]]:
        acc = Fraction(0) if self.exact else 0.0
        out = []
        for h in self.support:
            acc += self.masses[h]
            out.append((h, acc))
        return out

    def mean(self) -> Fraction | float:
        zero = Fraction(0) if self.exact else 0.0
        return sum((h * p for h, p in self.masses.items()), zero)

    def tv_distance(self, other: "HeightDistribution") -> float:
        keys = set(self.masses) | set(other.masses)
        return float(sum(abs(self.mass(h) - other.mass(h)) for h in keys)) / 2

    def to_json_obj(self) -> dict:
        if self.exact:
            support = list(self.support)
            return {
                "support": support,
                "mass_num": [self.masses[h].numerator for h in support],
                "mass_den": [self.masses[h].denominator for h in support],
            }
        return {"support": list(self.support), "mass": [self.masses[h] for h in self.support]}

    @staticmethod
    def from_json_obj(obj: dict) -> "HeightDistribution":
        if "mass_num" in obj:
            masses = {
                h: Fraction(n, d)
                for h, n, d in zip(obj["support"], obj["mass_num"], obj["mass_den"])
            }
            return HeightDistribution.from_exact(masses)
        return HeightDistribution.from_float(dict(zip(obj["support"], obj["mass"])))

    def to_csv(self) -> str:
        lines = ["height,probability"]
        lines += [f"{h},{float(self.masses[h])!r}" for h in self.support]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DepthProfile:
    """Compressed forward state: active count per depth plus running height.

    ``active_counts[d]`` is the number of active vertices at depth d (trailing
    zeros trimmed); the height may exceed every occupied depth when the
    deepest vertices are frozen.
    """

    active_counts: tuple[int, ...]
    current_height: int

    @staticmethod
    def initial() -> "DepthProfile":
        return DepthProfile((1,), 0)

    def attach_at(self, depth: int) -> "DepthProfile":
        child = depth + 1
        counts = list(self.active_counts)
        if child >= len(counts):
            counts.extend([0] * (child + 1 - len(counts)))
        counts[child] += 1
        return DepthProfile(tuple(counts), max(self.current_height, child))

    def freeze_at(self, depth: int) -> "DepthProfile":
        counts = list(self.active_counts)
        counts[depth] -= 1
        while counts and counts[-1] == 0:
            counts.pop()
        return DepthProfile(tuple(counts), self.current_height)


def exact_height_distribution_forward(
    seq: ChoiceSequence, state_cap: int = DEFAULT_STATE_CAP
) -> HeightDistribution:
    """Exact forward height law by depth-profile dynamic programming."""
    require_valid(seq)
    states: dict[DepthProfile, Fraction] = {DepthProfile.initial(): Fraction(1)}
    # every state before step j holds s_{j-1} actives: the walk value
    for step, total in zip(seq.steps, seq.walk.s_values):
        next_states: dict[DepthProfile, Fraction] = {}
        attach = step is Step.ATTACH
        for profile, mass in states.items():
            for depth, count in enumerate(profile.active_counts):
                if count == 0:
                    continue
                target = (
                    profile.attach_at(depth) if attach else profile.freeze_at(depth)
                )
                share = mass * Fraction(count, total)
                next_states[target] = next_states.get(target, Fraction(0)) + share
            if len(next_states) > state_cap:
                raise StateSpaceExceeded(
                    f"forward DP exceeded {state_cap} states on {seq.text!r}"
                )
        states = next_states
    heights: dict[int, Fraction] = {}
    for profile, mass in states.items():
        h = profile.current_height
        heights[h] = heights.get(h, Fraction(0)) + mass
    return HeightDistribution.from_exact(heights)


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
    pairs are drawn uniformly over ordered slot pairs).
    """
    if len(seq) > length_cap:
        raise StateSpaceExceeded(
            f"reverse enumeration capped at length {length_cap}, got {len(seq)}"
        )
    require_valid(seq)
    states: dict[tuple[int, ...], Fraction] = {(0,) * seq.walk.final: Fraction(1)}
    for i in range(len(seq), 0, -1):
        next_states: dict[tuple[int, ...], Fraction] = {}
        if seq.steps[i - 1] is Step.FREEZE:
            for heights, mass in states.items():
                key = tuple(sorted(heights + (0,)))
                next_states[key] = next_states.get(key, Fraction(0)) + mass
        else:
            for heights, mass in states.items():
                s = len(heights)
                share = mass * Fraction(1, s * (s - 1))
                for target in range(s):
                    for donor in range(s):
                        if donor == target:
                            continue
                        merged = max(heights[target], heights[donor] + 1)
                        rest = [
                            heights[x] for x in range(s) if x != target and x != donor
                        ]
                        rest.append(merged)
                        key = tuple(sorted(rest))
                        next_states[key] = next_states.get(key, Fraction(0)) + share
                if len(next_states) > state_cap:
                    raise StateSpaceExceeded(
                        f"reverse DP exceeded {state_cap} states on {seq.text!r}"
                    )
        states = next_states
    heights_law: dict[int, Fraction] = {}
    for heights, mass in states.items():
        (h,) = heights
        heights_law[h] = heights_law.get(h, Fraction(0)) + mass
    return HeightDistribution.from_exact(heights_law)


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


def _require_same_mode(d1: HeightDistribution, d2: HeightDistribution) -> None:
    if d1.exact != d2.exact:
        raise ValueError("refusing to compare exact and float distributions")


def stochastic_dominates(d1: HeightDistribution, d2: HeightDistribution) -> bool:
    """True when d1 is stochastically at least d2 (d1's CDF pointwise <= d2's)."""
    _require_same_mode(d1, d2)
    support = sorted(set(d1.masses) | set(d2.masses))
    zero = Fraction(0) if d1.exact else 0.0
    c1 = c2 = zero
    for h in support:
        c1 += d1.mass(h)
        c2 += d2.mass(h)
        if c1 > c2:
            return False
    return True


def floored(d: HeightDistribution, h: int) -> HeightDistribution:
    """Law of max(h, H) for H distributed as d."""
    if h < 0:
        raise ValueError("floor must be nonnegative")
    zero = Fraction(0) if d.exact else 0.0
    at_floor = sum((p for hh, p in d.masses.items() if hh <= h), zero)
    out = {hh: p for hh, p in d.masses.items() if hh > h}
    if at_floor != 0:
        out[h] = at_floor
    ctor = HeightDistribution.from_exact if d.exact else HeightDistribution.from_float
    return ctor(out)


def dominance_with_floor(
    d1: HeightDistribution, d2: HeightDistribution, h: int
) -> bool:
    """True when max(h, H2) stochastically dominates H1 (H1 ~ d1, H2 ~ d2)."""
    return stochastic_dominates(floored(d2, h), d1)


def min_floor_search(
    n: int,
    sequence_family: Iterable[ChoiceSequence],
    state_cap: int = DEFAULT_STATE_CAP,
) -> int:
    """Smallest floor h such that every family member's height law, floored at
    h, dominates the freeze-free law with n attachments."""
    reference = exact_height_distribution_forward(attach_run(n), state_cap)
    laws = []
    for seq in sequence_family:
        if seq.attach_count != n or not is_valid(seq):
            raise InvalidSequence(
                f"{seq.text!r} is not an n={n} sequence with a surviving walk"
            )
        laws.append(exact_height_distribution_forward(seq, state_cap))
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
