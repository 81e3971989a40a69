"""Seeded, parallel Monte Carlo over the tree builders, plus tail bounds.

Replica i always draws from stream (master_seed, i), and histograms are merged
by commutative addition, so a run's output is a pure function of
(sequence, replicas, master_seed) no matter how work is scheduled.

``run_mc`` cuts the replicas into batches of ``forward.batch_replicas(seq)``
and runs each batch through ``forward.forward_heights`` as a ``StreamRange``,
which draws by one of its two draws.  A batch with freezes (at most 256
replicas) draws time block by time block (``rng.IndexColumns``, one generator
per stream) and takes one numpy step per sequence step for the whole batch.
An excursion between returns of the walk to 1 is read from its pattern's
table when the pattern has fewer index combinations than lanes, and run as
lanes otherwise, with the same draws.  A freeze-free batch (one index block:
655 replicas of ``+^100``) draws one ``rng.index_block``, and its depths take
one numpy call per vertex when it has as many trees as edges or more, else
pointer doubling, fewer and larger calls (``forward.depths_from_parents``).
``walk_gap_growth`` does the same.  A batched step has a fixed cost whatever
the batch width, so splitting a batch over processes saves little; the pool
starts only when every worker gets at least two batches.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InvalidSequence
from .forward import batch_replicas, depths_from_parents, fixed_count_batch, forward_heights
from .rng import StreamRange, index_block, pair_second
from .sequences import ChoiceSequence, classify, parse_sequence, quoted, require_valid


@dataclass(frozen=True)
class ThresholdStats:
    threshold: float
    fraction_at_or_above: float


@dataclass(frozen=True)
class SimulationReport:
    sequence_text: str
    replicas: int
    master_seed: int
    histogram: dict[int, int]
    mean: float
    variance: float
    ci95_halfwidth: float
    threshold_stats: ThresholdStats | None = None

    def audit(self) -> None:
        """Check histogram/moment consistency; raises AssertionError."""
        total = sum(self.histogram.values())
        assert total == self.replicas, "histogram counts must sum to replicas"
        mean, var = _moments(self.histogram, self.replicas)
        assert math.isclose(mean, self.mean, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(var, self.variance, rel_tol=1e-9, abs_tol=1e-12)

    def to_json_obj(self) -> dict:
        stats = self.threshold_stats
        threshold = None if stats is None else asdict(stats)
        return {
            "sequence": self.sequence_text,
            "replicas": self.replicas,
            "seed": self.master_seed,
            "histogram": {str(h): self.histogram[h] for h in sorted(self.histogram)},
            "mean": self.mean,
            "var": self.variance,
            "ci95": self.ci95_halfwidth,
            "threshold": threshold,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "SimulationReport":
        obj = json.loads(text)
        threshold = obj.get("threshold")
        stats = (
            ThresholdStats(threshold["threshold"], threshold["fraction_at_or_above"])
            if threshold is not None
            else None
        )
        return SimulationReport(
            sequence_text=obj["sequence"],
            replicas=obj["replicas"],
            master_seed=obj["seed"],
            histogram={int(h): c for h, c in obj["histogram"].items()},
            mean=obj["mean"],
            variance=obj["var"],
            ci95_halfwidth=obj["ci95"],
            threshold_stats=stats,
        )

    def to_csv(self) -> str:
        lines = ["height,count"]
        lines += [f"{h},{self.histogram[h]}" for h in sorted(self.histogram)]
        return "\n".join(lines) + "\n"


def _moments(histogram: dict[int, int], replicas: int) -> tuple[float, float]:
    total = sum(h * c for h, c in histogram.items())
    mean = total / replicas
    if replicas < 2:
        return mean, 0.0
    sq = sum(h * h * c for h, c in histogram.items())
    var = (sq - replicas * mean * mean) / (replicas - 1)
    return mean, max(var, 0.0)


def _replica_heights(seq: ChoiceSequence, streams: StreamRange) -> dict[int, int]:
    """Height histogram of the replicas of streams, batch by batch."""
    counts: dict[int, int] = {}
    for batch in streams.batches(batch_replicas(seq)):
        heights, tally = np.unique(forward_heights(seq, batch), return_counts=True)
        for h, c in zip(heights.tolist(), tally.tolist()):
            counts[h] = counts.get(h, 0) + c
    return counts


def _worker(text: str, streams: StreamRange) -> dict[int, int]:
    return _replica_heights(parse_sequence(text), streams)


def _worker_count(parallelism: int, batches: int) -> int:
    """Processes run_mc uses: at most one per CPU, and 1 (serial) unless
    every worker gets at least two batches."""
    workers = min(parallelism, os.cpu_count() or 1)
    return 1 if batches < 2 * workers else workers


def run_mc(
    seq: ChoiceSequence,
    replicas: int,
    master_seed: int,
    parallelism: int = 1,
    threshold: float | None = None,
) -> SimulationReport:
    """Monte Carlo height histogram of the forward construction.

    Bit-identical output for fixed (seq, replicas, master_seed) regardless of
    parallelism.  Freeze-free sequences draw as the general path does and
    take a column pass (batches with at least as many replicas as steps) or
    pointer doubling.  With parallelism > 1 a pool of at most one worker per
    CPU starts only when each worker gets two batches of
    ``batch_replicas(seq)`` replicas.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    require_valid(seq)

    text = seq.text
    per_batch = batch_replicas(seq)
    batches = -(-replicas // per_batch)
    workers = _worker_count(parallelism, batches)
    if len(seq) == 0:
        histogram = {0: replicas}
    elif workers == 1:
        histogram = _replica_heights(seq, StreamRange(master_seed, 0, replicas))
    else:
        # whole batches per worker, so the batches match the serial run's
        bounds = [min(replicas, per_batch * (batches * w // workers)) for w in range(workers + 1)]
        tasks = [(text, StreamRange(master_seed, a, b)) for a, b in zip(bounds, bounds[1:])]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.starmap(_worker, tasks)
        histogram = {}
        for part in parts:
            for h, c in part.items():
                histogram[h] = histogram.get(h, 0) + c

    mean, var = _moments(histogram, replicas)
    ci95 = 1.96 * math.sqrt(var / replicas) if replicas > 1 else 0.0
    stats = None
    if threshold is not None:
        above = sum(c for h, c in histogram.items() if h >= threshold)
        stats = ThresholdStats(float(threshold), above / replicas)
    return SimulationReport(
        sequence_text=text,
        replicas=replicas,
        master_seed=master_seed,
        histogram=dict(sorted(histogram.items())),
        mean=mean,
        variance=var,
        ci95_halfwidth=ci95,
        threshold_stats=stats,
    )


# --------------------------------------------------------------------------
# Bennett's bound for Bernoulli sums


@dataclass(frozen=True)
class BennettQuery:
    mean_sum: float  # sum of the Bernoulli success probabilities
    t: float


def bennett_bound(query: BennettQuery) -> float:
    """Upper bound for both tail probabilities P(S > mean + t), P(S < mean - t)
    of a sum S of independent Bernoulli variables with parameter sum mean_sum:
    exp(-mean_sum * g(t / mean_sum)) with g(u) = (1+u) ln(1+u) - u, taken as
    exp(t - (mean_sum + t)(ln t - ln mean_sum)) where t / mean_sum overflows."""
    mean_sum, t = query.mean_sum, query.t
    if not 0 < mean_sum < math.inf:
        raise DomainError("mean_sum must be finite and positive")
    if not 0 < t < math.inf:
        raise DomainError("t must be finite and positive")
    u = t / mean_sum
    if u == math.inf:
        exponent = (mean_sum + t) * (math.log(t) - math.log(mean_sum)) - t
    else:
        exponent = mean_sum * ((1 + u) * math.log1p(u) - u)
    return math.exp(-exponent)


# --------------------------------------------------------------------------
# Height floor check at the classical growth rate


def height_threshold(n: int) -> float:
    """e ln(n) - 5 ln(ln(n)); natural logarithms, no rounding."""
    if n < 16:
        raise DomainError("threshold needs n >= 16")
    return math.e * math.log(n) - 5.0 * math.log(math.log(n))


def check_theorem_main(
    seq: ChoiceSequence,
    n: int,
    replicas: int,
    master_seed: int,
    parallelism: int = 1,
) -> float:
    """Fraction of replicas whose height reaches e ln(n) - 5 ln ln(n).

    The sequence must have exactly n attachments and a surviving walk.
    """
    verdict = classify(seq, n)
    if not verdict.in_x_n:
        raise InvalidSequence(
            f"{quoted(seq)} is not a valid sequence with {n} attachments"
        )
    report = run_mc(
        seq, replicas, master_seed, parallelism, threshold=height_threshold(n)
    )
    assert report.threshold_stats is not None
    return report.threshold_stats.fraction_at_or_above


# --------------------------------------------------------------------------
# Empirical dominance between reports


class DominanceVerdict(Enum):
    DOMINATES = "dominates"
    DOMINATED = "dominated"
    INCOMPARABLE = "incomparable"
    INCONCLUSIVE = "inconclusive"


def check_slack(slack: float) -> None:
    """Raise ValueError unless slack is finite and at least 0."""
    if not 0 <= slack < math.inf:
        raise ValueError(f"slack must be finite and at least 0, got {slack}")


def empirical_dominance(
    r1: SimulationReport, r2: SimulationReport, slack: float
) -> DominanceVerdict:
    """Compare two empirical height CDFs with a tolerance band.

    DOMINATES means r1's law stochastically dominates r2's beyond noise:
    r1's CDF never exceeds r2's by more than slack, and somewhere sits below
    it by more than slack (or the two CDFs are exactly equal).  Significant
    crossings in both directions give INCOMPARABLE; differences that never
    clear the band give INCONCLUSIVE.  slack must be finite and at least 0.
    """
    check_slack(slack)
    support = sorted(set(r1.histogram) | set(r2.histogram))
    c1 = c2 = 0
    above = below = False
    identical = True
    for h in support:
        c1 += r1.histogram.get(h, 0)
        c2 += r2.histogram.get(h, 0)
        f1 = c1 / r1.replicas
        f2 = c2 / r2.replicas
        if f1 > f2 + slack:
            above = True  # evidence against r1 dominating
        if f2 > f1 + slack:
            below = True  # evidence against r2 dominating
        if f1 != f2:
            identical = False
    if above and below:
        return DominanceVerdict.INCOMPARABLE
    if above:
        return DominanceVerdict.DOMINATED
    if below:
        return DominanceVerdict.DOMINATES
    return (
        DominanceVerdict.DOMINATES if identical else DominanceVerdict.INCONCLUSIVE
    )


# --------------------------------------------------------------------------
# Depth gap between two marked vertices of a growing recursive tree


def walk_gap_growth(
    m_values: list[int], replicas: int, master_seed: int
) -> list[tuple[int, float]]:
    """Mean absolute depth difference of two distinct uniform vertices of an
    m-edge recursive tree, for each m.

    Stream derivation: sample r of size index j uses stream
    (master_seed, j * replicas + r).
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise ValueError("m_values must be strictly increasing")
    out: list[tuple[int, float]] = []
    for j, m in enumerate(m_values):
        if m < 1:
            raise ValueError("tree sizes must be at least 1")
        total = 0
        streams = StreamRange(master_seed, j * replicas, (j + 1) * replicas)
        # each stream draws its tree's m parents, then distinct_pair(m + 1)
        sizes = np.append(np.arange(1, m + 2), m)
        for batch in streams.batches(fixed_count_batch(len(sizes))):
            drawn = index_block(batch, sizes)
            depths = depths_from_parents(drawn[:, :m])
            rows = np.arange(len(batch))
            u, v = drawn[:, m], pair_second(drawn[:, m], drawn[:, m + 1])
            total += int(np.abs(depths[rows, u] - depths[rows, v]).sum())
        out.append((m, total / replicas))
    return out
