import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostree import montecarlo
from frostree import (
    BennettQuery,
    DominanceVerdict,
    DomainError,
    InvalidSequence,
    SimulationReport,
    alternating,
    attach_run,
    bennett_bound,
    check_theorem_main,
    empirical_dominance,
    exact_height_distribution_forward,
    height_threshold,
    parse_sequence,
    run_mc,
    walk_gap_growth,
)


class TestRunMc:
    def test_degenerate_sequence(self):
        report = run_mc(parse_sequence("+"), 1000, 3)
        assert report.histogram == {1: 1000}
        report.audit()

    def test_three_edge_law_within_tolerance(self):
        report = run_mc(attach_run(3), 100_000, 5)
        exact = exact_height_distribution_forward(attach_run(3))
        for h in exact.support:
            assert abs(report.histogram[h] / report.replicas - float(exact.mass(h))) < 0.01
        report.audit()

    def test_parallel_determinism(self):
        a = run_mc(parse_sequence("(+-)^40"), 5000, 17, parallelism=1)
        b = run_mc(parse_sequence("(+-)^40"), 5000, 17, parallelism=8)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_freeze_free_fast_path_matches_general(self):
        # same streams through the vectorized and general simulators
        fast = run_mc(attach_run(60), 400, 23)
        general_hist = {}
        from frostree import RngStream, forward_height

        for i in range(400):
            h = forward_height(attach_run(60), RngStream(23, i))
            general_hist[h] = general_hist.get(h, 0) + 1
        assert fast.histogram == general_hist

    def test_invalid_sequence(self):
        with pytest.raises(InvalidSequence):
            run_mc(parse_sequence("+-^3"), 10, 0)

    def test_worker_count_capped_by_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        assert montecarlo._worker_count(64, 10_000) == 2
        assert montecarlo._worker_count(1, 10_000) == 1
        assert montecarlo._worker_count(8, 4) == 2
        assert montecarlo._worker_count(8, 3) == 1  # fewer than two replicas each
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert montecarlo._worker_count(8, 10_000) == 1

    def test_json_round_trip(self):
        report = run_mc(alternating(4), 500, 9, threshold=2.5)
        assert SimulationReport.from_json(report.to_json()) == report

    def test_csv(self):
        report = run_mc(parse_sequence("+"), 10, 0)
        assert report.to_csv() == "height,count\n1,10\n"

    def test_tv_distance_gate(self):
        seq = parse_sequence("+^2(-+)^2")
        exact = exact_height_distribution_forward(seq)
        report = run_mc(seq, 20_000, 31)
        tv = (
            sum(
                abs(report.histogram.get(h, 0) / report.replicas - float(exact.mass(h)))
                for h in set(exact.support) | set(report.histogram)
            )
            / 2
        )
        assert tv <= 3 * math.sqrt(len(exact.support) / report.replicas)


class TestBennett:
    def test_value_at_unit_ratio(self):
        g1 = 2 * math.log(2) - 1
        assert math.isclose(g1, 0.38629, abs_tol=5e-6)
        bound = bennett_bound(BennettQuery(mean_sum=10, t=10))
        assert math.isclose(bound, math.exp(-10 * g1), rel_tol=1e-12)
        assert math.isclose(bound, math.exp(-3.8629), rel_tol=1e-4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bennett_bound(BennettQuery(0.0, 1.0))
        with pytest.raises(DomainError):
            bennett_bound(BennettQuery(1.0, 0.0))

    @pytest.mark.parametrize(
        "mean_sum, t",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 1.0)],
    )
    def test_non_finite_inputs_rejected(self, mean_sum, t):
        with pytest.raises(DomainError, match="finite and positive"):
            bennett_bound(BennettQuery(mean_sum, t))

    def test_finite_where_t_over_mean_sum_overflows(self):
        # u = t / mean_sum is inf; the exponent is (1 + 1e-320) * 736.83 - 1
        bound = bennett_bound(BennettQuery(1e-320, 1.0))
        assert math.isclose(bound, math.exp(-735.8272408909739), rel_tol=1e-3)
        assert 2.7e-320 < bound < 2.8e-320
        assert bennett_bound(BennettQuery(1e-300, 1e10)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-320, 1e308, allow_subnormal=True),
        st.floats(1e-320, 1e308, allow_subnormal=True),
    )
    def test_never_nan_and_a_probability(self, mean_sum, t):
        assert 0 <= bennett_bound(BennettQuery(mean_sum, t)) <= 1

    def test_decreasing_in_t(self):
        values = [bennett_bound(BennettQuery(10, t)) for t in (1, 2, 5, 10, 20)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_binomial_tail_never_exceeds_bound(self):
        n, p, draws = 200, 0.05, 1_000_000
        mean_sum = n * p
        gen = np.random.default_rng(2024)
        samples = gen.binomial(n, p, size=draws)
        for t in (5, 10):
            tail = float(np.mean(samples > mean_sum + t))
            bound = bennett_bound(BennettQuery(mean_sum, t))
            stderr = math.sqrt(max(tail, 1 / draws) * (1 - tail) / draws)
            assert tail <= bound + 3 * stderr

    def test_lower_tail_too(self):
        n, p, draws = 200, 0.05, 200_000
        gen = np.random.default_rng(7)
        samples = gen.binomial(n, p, size=draws)
        t = 6
        tail = float(np.mean(samples < n * p - t))
        assert tail <= bennett_bound(BennettQuery(n * p, t)) + 3 / math.sqrt(draws)


class TestTheorem:
    def test_threshold_value(self):
        # e ln(1e4) - 5 ln ln(1e4): about 25.036 - 11.102
        t = height_threshold(10_000)
        assert math.isclose(
            t, math.e * math.log(1e4) - 5 * math.log(math.log(1e4)), rel_tol=1e-12
        )
        assert abs(t - 13.93) < 0.01

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            height_threshold(15)

    def test_wrong_family_rejected(self):
        with pytest.raises(InvalidSequence):
            check_theorem_main(attach_run(50), 49, 10, 0)

    def test_alternating_always_clears_threshold(self):
        # heights concentrate near n/2, far above the logarithmic floor
        fraction = check_theorem_main(alternating(200), 200, 200, 13)
        assert fraction == 1.0


class TestEmpiricalDominance:
    def test_taller_law_dominates(self):
        r1 = run_mc(attach_run(3), 50_000, 1)
        r2 = run_mc(parse_sequence("+"), 50_000, 2)
        assert empirical_dominance(r1, r2, 0.01) is DominanceVerdict.DOMINATES
        assert empirical_dominance(r2, r1, 0.01) is DominanceVerdict.DOMINATED

    def test_identical_reports_collapse_to_dominates(self):
        r = run_mc(alternating(3), 10_000, 3)
        assert empirical_dominance(r, r, 0.01) is DominanceVerdict.DOMINATES

    def test_alternating_vs_plain_incomparable(self):
        r1 = run_mc(alternating(3), 100_000, 4)
        r2 = run_mc(attach_run(3), 100_000, 5)
        assert empirical_dominance(r1, r2, 0.01) is DominanceVerdict.INCOMPARABLE

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -0.01])
    def test_slack_must_be_finite_and_nonnegative(self, slack):
        r = run_mc(attach_run(3), 100, 8)
        with pytest.raises(ValueError, match="slack must be finite and at least 0"):
            empirical_dominance(r, r, slack)

    def test_close_laws_inconclusive(self):
        r1 = run_mc(attach_run(3), 50_000, 6)
        r2 = run_mc(attach_run(3), 50_000, 7)
        assert empirical_dominance(r1, r2, 0.05) is DominanceVerdict.INCONCLUSIVE


class TestWalkGap:
    def test_single_edge_gap_is_one(self):
        [(_, gap)] = walk_gap_growth([1], 500, 0)
        assert gap == 1.0

    def test_monotone_trend(self):
        results = dict(walk_gap_growth([100, 10_000], 2000, 1))
        assert results[10_000] > results[100]

    def test_ratio_roughly_stable(self):
        results = walk_gap_growth([1000, 10_000], 3000, 2)
        ratios = [gap / math.sqrt(math.log(m)) for m, gap in results]
        assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.25

    def test_values_are_pinned(self):
        # 2500 replicas per size: three index-block batches of up to 1024
        assert walk_gap_growth([1, 5, 40], 2500, 3) == [(1, 1.0), (5, 1.1476), (40, 1.774)]

    def test_requires_increasing_sizes(self):
        with pytest.raises(ValueError):
            walk_gap_growth([10, 10], 10, 0)
