"""The benchmark's workloads: inputs drawn from a seed, the CLI call each input
becomes, and the checks every output must pass.

Imported after ``run.py`` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from frostree.exact import HeightDistribution
from frostree.montecarlo import SimulationReport
from frostree.sequences import ChoiceSequence, is_valid, parse_sequence

# Outputs of this seed's calls are pinned by digests.json (recorded at a commit
# whose report bytes are the reference), and every run starts with this seed's
# first call as its untimed warm-up, so each run checks byte identity once.
DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).with_name("digests.json")


class CheckFailed(Exception):
    """An output that breaks one of the checks below."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``argv`` omits ``--out``, which the runner adds."""

    kind: str  # "simulate", "couple" or "exact"
    seq: str
    replicas: int = 0
    seed: int = 0
    threads: int = 1
    construction: str = "forward"

    @property
    def argv(self) -> list[str]:
        if self.kind == "simulate":
            return ["simulate", "--seq", self.seq, "--replicas", str(self.replicas),
                    "--threads", str(self.threads), "--seed", str(self.seed)]
        if self.kind == "couple":
            return ["couple", "--which", "reduce", "--seq", self.seq,
                    "--replicas", str(self.replicas), "--seed", str(self.seed)]
        return ["exact", "--seq", self.seq, "--construction", self.construction]

    @property
    def work(self) -> int:
        """Units of work the call completes: replicas, or one exact law."""
        return 1 if self.kind == "exact" else self.replicas


def seeded_generator(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed & ((1 << 64) - 1), zlib.crc32(name.encode())])


@dataclass(frozen=True)
class Simulate:
    """``simulate`` on a fixed sequence; each call gets its own master seed."""

    name: str
    why: str
    seq: str
    replicas: int
    threads: int

    def calls(self, seed: int) -> Iterator[Call]:
        gen = seeded_generator(seed, self.name)
        for _ in count():
            yield Call("simulate", self.seq, self.replicas, int(gen.integers(2**32)),
                       self.threads)


def reducible_walk(gen: np.random.Generator, length: int) -> ChoiceSequence:
    """Random reducible sequence of the given length: an attach, then fair
    +/-1 steps pushed up at 1, with a freeze forced in if none was drawn
    (the shape acceptance criterion 05 samples)."""
    signs = [1]
    s = 2
    for j in range(1, length):
        sign = 1 if (s == 1 and j < length - 1) else int(gen.choice([1, -1]))
        signs.append(sign)
        s += sign
    if -1 not in signs:
        signs[-1] = -1
    return ChoiceSequence.from_signs(signs)


@dataclass(frozen=True)
class Couple:
    """``couple --which reduce`` on a fresh random reducible walk per call."""

    name: str
    why: str
    lengths: tuple[int, int]  # walk length drawn uniformly from this closed range
    replicas: int

    def calls(self, seed: int) -> Iterator[Call]:
        gen = seeded_generator(seed, self.name)
        lo, hi = self.lengths
        for _ in count():
            walk = reducible_walk(gen, int(gen.integers(lo, hi + 1)))
            yield Call("couple", walk.text, self.replicas, int(gen.integers(2**32)))


class StateSpace(NamedTuple):
    peak: int  # most states after any step: the smallest state_cap that passes
    transitions: int  # state-to-state moves, which sets the DP's cost


def forward_state_space(seq: ChoiceSequence, max_transitions: int | None = None
                        ) -> StateSpace | None:
    """Replay the forward DP's depth-profile states without their masses.

    A state is (active count per depth with trailing zeros trimmed, running
    height), as in ``frostree.exact.DepthProfile``.  Returns None once more
    than ``max_transitions`` moves were made.  Traced runs confirm ``peak``
    against the public ``state_cap``.
    """
    states = {((1,), 0)}
    peak = transitions = 0
    for attach in seq.attach_flags():
        nxt = set()
        for counts, height in states:
            for depth, c in enumerate(counts):
                if c == 0:
                    continue
                lst = list(counts)
                if attach:
                    if depth + 1 == len(lst):
                        lst.append(1)
                    else:
                        lst[depth + 1] += 1
                    nxt.add((tuple(lst), max(height, depth + 1)))
                else:
                    lst[depth] -= 1
                    while lst and lst[-1] == 0:
                        lst.pop()
                    nxt.add((tuple(lst), height))
            transitions += len(counts) - counts.count(0)
        if max_transitions is not None and transitions > max_transitions:
            return None
        peak = max(peak, len(nxt))
        states = nxt
    return StateSpace(peak, transitions)


POOL_PATH = Path(__file__).with_name("exact_pool.txt")
SHORT_LENGTHS = (5, 8)  # lengths of the members that also run the reverse DP


def read_pool() -> tuple[str, ...]:
    """Sequences listed by catalogue.py, one per line (text, transitions, peak)."""
    return tuple(line.split()[0] for line in POOL_PATH.read_text().splitlines()
                 if line and not line.startswith("#"))


@dataclass(frozen=True)
class Exact:
    """``exact`` over a seeded set of sequences, visited in seeded permutations.

    The set draws ``dp_members`` sequences from ``pool`` (for exact_dp, every
    sequence with 10-13 attaches and 1-3 freezes whose forward DP makes
    18000-22000 transitions, so that members cost about the same and a run's
    latency quantiles do not hinge on which members a seed drew), plus two
    short members of length at most 8, one freeze-free and one with freezes,
    that also run the reverse DP through ``--construction both``.
    """

    name: str
    why: str
    pool: tuple[str, ...]
    dp_members: int

    def members(self, gen: np.random.Generator) -> list[Call]:
        picks = gen.choice(len(self.pool), size=self.dp_members, replace=False)
        calls = [Call("exact", self.pool[j]) for j in picks]
        lo, hi = SHORT_LENGTHS
        calls.append(Call("exact", f"+^{int(gen.integers(lo, hi + 1))}", construction="both"))
        while True:
            seq = ChoiceSequence.from_signs(gen.choice([1, -1], size=int(gen.integers(lo, hi + 1))))
            if seq.steps[0].sign == 1 and seq.freeze_count and is_valid(seq):
                calls.append(Call("exact", seq.text, construction="both"))
                return calls

    def calls(self, seed: int) -> Iterator[Call]:
        gen = seeded_generator(seed, self.name)
        members = self.members(gen)
        for _ in count():
            for j in gen.permutation(len(members)):
                yield members[j]


Workload = Simulate | Couple | Exact

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Simulate(
            "mc_alternating",
            "scalar forward kernel does >95% of the work on a pool of nproc=2; "
            "a replica-batched kernel shows here, a seeding or driver-block change does not",
            "(+-)^10000", replicas=100, threads=2),
        Simulate(
            "mc_rrt_small",
            "short freeze-free sequence, many replicas: per-replica stream setup and "
            "vectorized RRT height dominate; a batching change that costs short inputs shows here",
            "+^100", replicas=2000, threads=1),
        Couple(
            "couple_reduce",
            "coupling kernel with ~80 draws per sample against a 4096-uniform refill: "
            "wasted rng work and the 100 kB JSON serialization show here, forward does not run",
            lengths=(38, 40), replicas=1000),
        Exact(
            "exact_dp",
            "only the exact Fraction DP runs (no rng, no forward kernel): an integer-mass DP "
            "shows here and a Monte Carlo change shows nothing",
            read_pool(), dp_members=12),
    )
}


# --------------------------------------------------------------------------
# Output checks


@lru_cache(maxsize=256)
def canonical(text: str) -> str:
    return parse_sequence(text).text


def check_output(call: Call, text: str) -> None:
    """Raise CheckFailed (or the parser's own error) unless the output is right."""
    if call.kind == "simulate":
        report = SimulationReport.from_json(text)
        try:
            report.audit()
        except AssertionError as exc:
            raise CheckFailed(f"report audit failed: {exc}") from exc
        expect(report.replicas == call.replicas, "replica count differs")
        expect(report.master_seed == call.seed, "seed differs")
        expect(report.sequence_text == canonical(call.seq), "sequence differs")
        return
    obj = json.loads(text)
    if call.kind == "couple":
        rows = obj["samples"]
        expect(obj["which"] == "reduce" and obj["mode"] == "mc", "wrong coupling")
        expect(len(rows) == call.replicas, "sample count differs")
        for i, row in enumerate(rows):
            expect(row["replica"] == i, f"row {i} has replica {row['replica']}")
            expect(row["height_xhat"] <= row["height_x"],
                   f"replica {i}: height_xhat {row['height_xhat']} > height_x {row['height_x']}")
    else:
        law = HeightDistribution.from_json_obj(obj["distribution"])  # masses sum to 1
        expect(obj["sequence"] == canonical(call.seq), "sequence differs")
        expect(obj["construction"] == call.construction, "construction differs")
        if call.construction == "both":
            expect(obj.get("laws_equal") is True, "forward and reverse laws differ")
        seq = parse_sequence(call.seq)
        if seq.freeze_count == 0:
            expect(law.mass(1) == Fraction(1, math.factorial(len(seq))),
                   "height-1 mass of +^n is not 1/n!")


class Digests:
    """sha256 of each output recorded for DEFAULT_SEED's calls, keyed by argv."""

    def __init__(self) -> None:
        self.table: dict[str, str] = json.loads(DIGESTS_PATH.read_text())
        self.checked = 0

    def check(self, call: Call, text: str) -> None:
        want = self.table.get(" ".join(call.argv))
        if want is None:
            return
        self.checked += 1
        got = hashlib.sha256(text.encode()).hexdigest()
        expect(got == want, f"output sha256 {got[:12]} differs from recorded {want[:12]}")
