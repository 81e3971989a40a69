"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import multiprocessing
from fractions import Fraction

from frostree import (
    ChoiceSequence,
    FreezeCase,
    MonteCarloDriver,
    RngStream,
    alternating,
    attach_run,
    bennett_bound,
    BennettQuery,
    check_theorem_main,
    couple_prop_i,
    couple_prop_ii,
    couple_reduce,
    exact_height_distribution_forward,
    exact_height_distribution_reverse,
    exhaust,
    forward_law_by_enumeration,
    iter_reducible_sequences,
    iter_valid_sequences,
    parse_sequence,
    run_mc,
    stochastic_dominates,
)
from frostree.coupling import _prop_iii_x_height, _prop_iii_xhat_heights

import numpy as np


def check(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


_REPORTS: dict = {}


def cached_run(text: str, replicas: int, seed: int, threshold=None):
    key = (text, replicas, seed, threshold)
    if key not in _REPORTS:
        _REPORTS[key] = run_mc(
            parse_sequence(text), replicas, seed, parallelism=8, threshold=threshold
        )
    return _REPORTS[key]


def test_criterion_01_law_equivalence_m8():
    checked = 0
    for m in range(0, 9):
        for seq in iter_valid_sequences(m):
            forward = exact_height_distribution_forward(seq)
            reverse = exact_height_distribution_reverse(seq)
            assert forward.masses == reverse.masses, seq.text
            checked += 1
    check(
        1,
        f"forward and reversed laws identical (exact) for all {checked} "
        "valid sequences of length <= 8",
        checked > 150,
    )


def test_criterion_02_dp_vs_enumeration_m6():
    checked = 0
    for m in range(0, 7):
        for seq in iter_valid_sequences(m):
            dp = exact_height_distribution_forward(seq)
            brute = forward_law_by_enumeration(seq)
            assert dp.masses == brute.masses, seq.text
            checked += 1
    check(
        2,
        f"depth-profile DP equals vertex-level enumeration for all {checked} "
        "valid sequences of length <= 6",
        checked > 40,
    )


def test_criterion_03_exact_small_height_formulas():
    for n in range(1, 6):
        rn = exact_height_distribution_forward(attach_run(n))
        assert rn.mass(1) == Fraction(1, math.factorial(n)), n
        an = exact_height_distribution_forward(alternating(n))
        assert an.mass(1) == Fraction(1, 2 ** (n - 1)), n

        law_x: dict[int, Fraction] = {}
        for h, w in exhaust(lambda d: _prop_iii_x_height(n, d)):
            law_x[h] = law_x.get(h, Fraction(0)) + w
        assert law_x.get(1, Fraction(0)) == Fraction(1, 3 * math.factorial(n + 1)), n

        law_xhat: dict[int, Fraction] = {}
        for (hxh, _), w in exhaust(lambda d: _prop_iii_xhat_heights(n, d)):
            law_xhat[hxh] = law_xhat.get(hxh, Fraction(0)) + w
        assert law_xhat.get(1, Fraction(0)) == Fraction(1, 2 * math.factorial(n)), n
    check(
        3,
        "height-1 masses equal 1/n!, 1/2^(n-1), (1/3)/(n+1)! and (1/2)/n! "
        "exactly for n <= 5",
        True,
    )


def test_criterion_04_non_dominance():
    for n in (3, 4, 5):
        an = exact_height_distribution_forward(alternating(n))
        rn = exact_height_distribution_forward(attach_run(n))
        assert not stochastic_dominates(an, rn), n
        assert not stochastic_dominates(rn, an), n
    check(
        4,
        "alternating and freeze-free laws are stochastically incomparable "
        "for n = 3, 4, 5 (exact CDFs cross)",
        True,
    )


def _random_reducible_sequence(gen: np.random.Generator, max_len: int) -> ChoiceSequence:
    m = int(gen.integers(4, max_len + 1))
    signs = [1]
    s = 2
    for j in range(1, m):
        sign = 1 if (s == 1 and j < m - 1) else int(gen.choice([1, -1]))
        signs.append(sign)
        s += sign
    if -1 not in signs:
        signs[-1] = -1  # force reducibility; walk stays legal
    return ChoiceSequence.from_signs(signs)


def _pathwise_batch(args: tuple[str, int, int]) -> int:
    text, runs, seed = args
    seq = parse_sequence(text)
    driver = MonteCarloDriver(RngStream(seed, 0))
    violations = 0
    for _ in range(runs):
        sample = couple_reduce(seq, driver)
        if sample.height_xhat > sample.height_x:
            violations += 1
    return violations


def test_criterion_05_pathwise_coupling():
    gen = np.random.default_rng(20240401)
    sequences = [_random_reducible_sequence(gen, 40) for _ in range(20)]
    runs = 100_000
    tasks = [(seq.text, runs, 1000 + i) for i, seq in enumerate(sequences)]
    with multiprocessing.Pool(8) as pool:
        violations = pool.map(_pathwise_batch, tasks)
    assert sum(violations) == 0, violations

    exhaustive_paths = 0
    for seq in iter_reducible_sequences(6):
        for sample, _ in exhaust(lambda d: couple_reduce(seq, d, check=True)):
            assert sample.height_xhat <= sample.height_x, seq.text
            exhaustive_paths += 1
    check(
        5,
        f"no height inversion in 20 x {runs} seeded coupled runs (m <= 40) "
        f"nor in {exhaustive_paths} exhaustive paths (m <= 6)",
        True,
    )


def test_criterion_06_insertion_coupling_marginals():
    freeze = lambda k: ChoiceSequence.from_signs([-1] * k)
    for m, n in ((2, 1), (3, 2)):
        law_x: dict[int, Fraction] = {}
        law_xhat: dict[int, Fraction] = {}
        for sample, w in exhaust(lambda d: couple_prop_i(m, n, d)):
            law_x[sample.height_x] = law_x.get(sample.height_x, Fraction(0)) + w
            law_xhat[sample.height_xhat] = (
                law_xhat.get(sample.height_xhat, Fraction(0)) + w
            )
        seq_x = attach_run(m) + freeze(m - 1) + parse_sequence("-+") + attach_run(n)
        seq_xhat = attach_run(m) + freeze(m - 1) + attach_run(n)
        assert law_x == dict(exact_height_distribution_forward(seq_x).masses), (m, n)
        assert law_xhat == dict(
            exact_height_distribution_forward(seq_xhat).masses
        ), (m, n)
    check(
        6,
        "freeze+attach insertion coupling reproduces both oracle laws exactly "
        "for (m, n) in {(2, 1), (3, 2)}",
        True,
    )


def test_criterion_07_attach_freeze_cases():
    replicas = 30_000
    driver = MonteCarloDriver(RngStream(555, 0))
    counts = {case: 0 for case in FreezeCase}
    for _ in range(replicas):
        s = couple_prop_ii(4, 6, driver)
        counts[s.case_tag] += 1
        if s.case_tag is FreezeCase.FROZEN_CHILD and s.i_split != 0:
            assert s.height_x == s.height_xhat
        if s.case_tag is FreezeCase.FROZEN_PARENT:
            assert abs(s.height_x - s.height_xhat) <= 1
    for case, c in counts.items():
        assert abs(c / replicas - 1 / 3) <= 0.01, (case, c / replicas)
    check(
        7,
        "freeze cases hit 1/3 +- 0.01 at 30000 replicas; equal-height and "
        "delta<=1 claims hold pathwise",
        True,
    )


def test_criterion_08_expectation_identity():
    for n in range(1, 5):
        mean_xhat = Fraction(0)
        mean_rrt = Fraction(0)
        for (hxh, hr), w in exhaust(lambda d: _prop_iii_xhat_heights(n, d)):
            mean_xhat += hxh * w
            mean_rrt += hr * w
        assert mean_xhat == mean_rrt + Fraction(1, 2), n
    check(
        8,
        "mean reduced-insertion height equals the plain recursive-tree mean "
        "plus exactly 1/2 for n <= 4",
        True,
    )


def test_criterion_09_height_floor_fractions():
    n = 10_000
    half = n // 2
    members = {
        "+^10000": attach_run(n),
        "(+-)^10000": alternating(n),
        "split": attach_run(half)
        + ChoiceSequence.from_signs([-1] * (half - 1))
        + attach_run(half),
    }
    fractions = {}
    for name, seq in members.items():
        fractions[name] = check_theorem_main(seq, n, 1_000, 42, parallelism=8)
    ok = all(f >= 0.95 for f in fractions.values())
    check(
        9,
        "P(height >= e ln n - 5 ln ln n) >= 0.95 at n=10^4 for all three "
        f"family members (observed {fractions})",
        ok,
    )


def test_criterion_10_growth_bands():
    alt = cached_run("(+-)^10000", 1_000, 4242)
    ratio = alt.mean / 10_000
    ok_alt = 0.45 <= ratio <= 0.55

    offsets = {}
    for n in (1_000, 10_000, 100_000):
        report = cached_run(f"+^{n}", 10_000, 777)
        offsets[n] = report.mean - (
            math.e * math.log(n) - 1.5 * math.log(math.log(n))
        )
    ok_rrt = all(-8.0 <= off <= 8.0 for off in offsets.values())
    check(
        10,
        f"alternating mean/n = {ratio:.4f} in [0.45, 0.55]; recursive-tree mean "
        f"offsets {({k: round(v, 2) for k, v in offsets.items()})} within [-8, 8]",
        ok_alt and ok_rrt,
    )


def test_alternating_height_law_exact_and_at_monte_carlo_scale():
    # each +- leaves one active vertex, the new child or its parent with chance
    # 1/2 each; the last attach sets the height, so it is 1 + Bin(n - 1, 1/2)
    for n in range(1, 11):
        law = {1 + k: Fraction(math.comb(n - 1, k), 2 ** (n - 1)) for k in range(n)}
        assert exact_height_distribution_forward(alternating(n)).masses == law, n
    # the empirical CDF of run_mc lies in the DKW band around that law
    n, replicas, alpha = 1000, 5000, 1e-3
    report = run_mc(alternating(n), replicas, 2718)
    epsilon = math.sqrt(math.log(2 / alpha) / (2 * replicas))
    seen = mass = 0
    distance = 0.0
    for h in range(1, n + 1):
        seen += report.histogram.get(h, 0)
        mass += math.comb(n - 1, h - 1)
        distance = max(distance, abs(seen / replicas - mass / 2 ** (n - 1)))
    assert distance <= epsilon, f"KS distance {distance:.4f} > DKW epsilon {epsilon:.4f}"


def test_criterion_11_bennett_tails():
    n, p, draws = 200, 0.05, 1_000_000
    mean_sum = n * p
    samples = np.random.default_rng(90210).binomial(n, p, size=draws)
    ok = True
    detail = []
    for t in (5.0, 10.0):
        tail = float(np.mean(samples > mean_sum + t))
        bound = bennett_bound(BennettQuery(mean_sum, t))
        stderr = math.sqrt(max(tail, 1 / draws) * (1 - tail) / draws)
        detail.append(f"t={t:g}: tail={tail:.5f} <= bound={bound:.5f}+3se")
        ok &= tail <= bound + 3 * stderr
    check(11, "; ".join(detail), ok)


def test_criterion_12_determinism():
    seq = parse_sequence("+^100")
    serial = run_mc(seq, 10_000, 7, parallelism=1)
    parallel = run_mc(seq, 10_000, 7, parallelism=8)
    ok = serial == parallel and serial.to_json() == parallel.to_json()
    check(
        12,
        "simulate output byte-identical between parallelism 1 and 8 "
        "(10^4 replicas)",
        ok,
    )
