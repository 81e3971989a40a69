import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frostree import coupling
from frostree import (
    ChoiceSequence,
    CoupledSample,
    FreezeCase,
    InvalidSequence,
    MonteCarloDriver,
    NotReducible,
    RngStream,
    Step,
    TargetUnreachable,
    attach_run,
    couple_prop_i,
    couple_prop_ii,
    couple_prop_iii,
    couple_reduce,
    exact_height_distribution_forward,
    exhaust,
    iter_reducible_sequences,
    iter_valid_sequences,
    parse_sequence,
    reduce_once,
    reduce_to_prefix,
)
from frostree.coupling import render_samples
from sample_rows import csv_loop

R = RngStream


class CountingGenerator:
    """A numpy Generator stand-in that counts the uniforms drawn from it."""

    def __init__(self, gen):
        self.gen = gen
        self.generated = 0

    def random(self, n):
        self.generated += n
        return self.gen.random(n)


def freeze_run(k):
    return ChoiceSequence.from_signs([-1] * k)


def marginals(fn):
    law_x, law_xhat = {}, {}
    for sample, w in exhaust(fn):
        law_x[sample.height_x] = law_x.get(sample.height_x, Fraction(0)) + w
        law_xhat[sample.height_xhat] = (
            law_xhat.get(sample.height_xhat, Fraction(0)) + w
        )
    return law_x, law_xhat


class TestReduceOnce:
    def test_basic(self):
        red = reduce_once(parse_sequence("+-+"))
        assert red.reduced.text == "+" and red.removed_at == 1

    def test_longer_run(self):
        red = reduce_once(parse_sequence("+^2-^2"))
        assert red.reduced.text == "+-" and red.removed_at == 2

    def test_all_attach_rejected(self):
        with pytest.raises(NotReducible):
            reduce_once(attach_run(3))

    def test_leading_freeze_rejected(self):
        with pytest.raises(NotReducible):
            reduce_once(parse_sequence("-"))

    def test_invalid_rejected(self):
        with pytest.raises(InvalidSequence):
            reduce_once(parse_sequence("+-^2+"))

    def test_positions_removed(self):
        red = reduce_once(parse_sequence("+^3-^2+"))
        assert red.removed_at == 3
        original = red.original.steps
        expected = original[:2] + original[4:]
        assert red.reduced.steps == expected


class TestReduceToPrefix:
    def test_already_long_enough(self):
        seq = parse_sequence("(+-)^3")
        assert reduce_to_prefix(seq, 1) == seq

    def test_unchanged_when_run_matches(self):
        seq = parse_sequence("+^2-^2")
        assert reduce_to_prefix(seq, 2) == seq

    def test_walk_maximum_does_not_guarantee_reachability(self):
        # the reduction chain (+-)^2 -> +- -> (empty) never shows a run of 2,
        # although the walk maximum is 2
        seq = parse_sequence("(+-)^2")
        assert seq.walk.max_value == 2
        with pytest.raises(TargetUnreachable):
            reduce_to_prefix(seq, 2)

    def test_target_above_walk_maximum_fails_without_reducing(self, monkeypatch):
        # each reduction copies the sequence, so the loop would be quadratic
        # here; a target above max - 1 is unreachable and fails at once
        monkeypatch.setattr(coupling, "reduce_once", lambda seq: pytest.fail("reduced"))
        seq = parse_sequence("(+-)^100000")
        with pytest.raises(TargetUnreachable, match="leading attach run of 2 from '"):
            reduce_to_prefix(seq, 2)
        with pytest.raises(InvalidSequence):
            reduce_to_prefix(parse_sequence("+--+"), 5)

    def test_equals_the_reduce_once_chain(self):
        # every valid sequence of length at most 12 and every reachable target
        def chain(seq, r):
            while seq.steps[:r] != (Step.ATTACH,) * r:
                seq = reduce_once(seq).reduced
            return seq

        pairs = 0
        for m in range(0, 13):
            for seq in iter_valid_sequences(m):
                for r in range(seq.walk.max_value):
                    assert reduce_to_prefix(seq, r) == chain(seq, r), (seq.text, r)
                    pairs += 1
        assert pairs == 10_682  # (sequence, r) pairs over 1977 sequences

    def test_reachable_target_is_linear(self, monkeypatch):
        # 4000 reductions; copying the sequence per reduction took seconds
        monkeypatch.setattr(coupling, "reduce_once", lambda seq: pytest.fail("reduced"))
        seq = parse_sequence("(+-)^4000+^2-^2")
        assert reduce_to_prefix(seq, 2) == parse_sequence("+^2-^2")
        assert reduce_to_prefix(parse_sequence("(+-)^4000+^3-"), 3) == parse_sequence("+^3-")

    def test_invalid_fails_before_unreachable(self):
        # invalid input that needs a reduction fails as invalid, whether or not
        # the target is reachable; one that needs none is returned unchanged
        for r in (2, 5):
            with pytest.raises(InvalidSequence):
                reduce_to_prefix(parse_sequence("+-+--+"), r)
        seq = parse_sequence("+^2--^2+")
        assert reduce_to_prefix(seq, 2) == seq
        with pytest.raises(TargetUnreachable):
            reduce_to_prefix(parse_sequence("-"), 1)
        with pytest.raises(TargetUnreachable):
            reduce_to_prefix(ChoiceSequence(()), 1)

    def test_run_can_grow_through_reduction(self):
        # +-++... : dropping the first pair exposes a longer run
        seq = parse_sequence("+-+^3-^2")
        result = reduce_to_prefix(seq, 3)
        assert result.text == "+^3-^2"

    def test_empirical_reachability_survey(self):
        # A leading run of r forces walk value r+1, and reduction never raises
        # the walk maximum, so targets need r <= max - 1.  The survey confirms
        # that boundary is sharp: r = max - 1 always succeeds, r = max never.
        gen = R(123, 0).generator()
        for trial in range(300):
            m = int(gen.integers(2, 18))
            signs = [1]
            s = 2
            for j in range(1, m):
                sign = 1 if (s == 1 and j < m - 1) else int(gen.choice([1, -1]))
                signs.append(sign)
                s += sign
            seq = ChoiceSequence.from_signs(signs)
            peak = seq.walk.max_value
            result = reduce_to_prefix(seq, peak - 1)
            assert all(st is Step.ATTACH for st in result.steps[: peak - 1])
            with pytest.raises(TargetUnreachable):
                reduce_to_prefix(seq, peak)

    def test_exhaustive_reachability_up_to_length_14(self):
        # every target r <= max - 1 is reached, for every valid sequence of
        # length at most 14; r = max never is
        pairs = 0
        for m in range(0, 15):
            for seq in iter_valid_sequences(m):
                peak = seq.walk.max_value
                for r in range(peak):
                    result = reduce_to_prefix(seq, r)
                    assert all(st is Step.ATTACH for st in result.steps[:r]), (
                        seq.text,
                        r,
                    )
                    pairs += 1
                with pytest.raises(TargetUnreachable):
                    reduce_to_prefix(seq, peak)
        assert pairs == 42_855  # (sequence, r) pairs over 7257 sequences


class TestCoupleReduce:
    def test_attach_freeze_attach_pathwise(self):
        for sample, _ in exhaust(
            lambda d: couple_reduce(parse_sequence("+-+"), d, check=True)
        ):
            assert sample.height_xhat == 1
            assert sample.height_x in (1, 2)

    def test_pathwise_seeded_runs(self):
        seq = parse_sequence("+^2-+--")
        driver = MonteCarloDriver(R(21, 0))
        for _ in range(20_000):
            sample = couple_reduce(seq, driver)
            assert sample.height_xhat <= sample.height_x

    @pytest.mark.parametrize("text", ["+-+", "++-+--", "+^3-^2+", "+-(+-)^2"])
    def test_marginals_match_oracle_exhaustively(self, text):
        seq = parse_sequence(text)
        law_x, law_xhat = marginals(lambda d: couple_reduce(seq, d, check=True))
        assert law_x == dict(exact_height_distribution_forward(seq).masses)
        reduced = reduce_once(seq).reduced
        assert law_xhat == dict(exact_height_distribution_forward(reduced).masses)

    def test_marginal_chi_square(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        seq = parse_sequence("+^2(-+)^2--")
        exact = exact_height_distribution_forward(seq)
        n = 100_000
        counts: dict[int, int] = {}
        driver = MonteCarloDriver(R(99, 0))
        for _ in range(n):
            h = couple_reduce(seq, driver).height_x
            counts[h] = counts.get(h, 0) + 1
        support = exact.support
        observed = [counts.get(h, 0) for h in support]
        expected = [float(exact.mass(h)) * n for h in support]
        result = scipy_stats.chisquare(observed, expected)
        assert result.pvalue > 1e-4

    def test_draw_sizes_equal_the_forest_loop(self):
        # the reference: the forest sizes, step by step through the suffix
        def loop(seq, k):
            n, forests = seq.walk.final, []
            for attach in reversed(seq.flags.tolist()[k + 1 :]):
                if attach:
                    forests.append(n)
                n += -1 if attach else 1
            forests.extend(range(n + 1, n + 1 - k, -1))
            return [size for n in forests for size in (n, n - 1)]

        checked = 0
        for seq in iter_reducible_sequences(11):
            k = coupling._reducible_run(seq)
            assert coupling._reduce_sizes(seq, k).tolist() == loop(seq, k), seq.text
            checked += 1
        assert checked > 500

    def test_fresh_stream_generates_only_the_draws_it_uses(self):
        seq = parse_sequence("+^4-^2+-(+-)^3")
        gen = CountingGenerator(R(3, 0).generator())
        sample = couple_reduce(seq, MonteCarloDriver(gen))
        assert gen.generated == 2 * seq.attach_count  # one distinct pair per graft
        assert sample == couple_reduce(seq, R(3, 0))

    @pytest.mark.parametrize(
        "text, error",
        [("-+", NotReducible), ("+^3", NotReducible), ("+--+-", InvalidSequence)],
    )
    def test_rejects_before_any_draw(self, text, error):
        gen = CountingGenerator(None)
        with pytest.raises(error):
            couple_reduce(parse_sequence(text), MonteCarloDriver(gen))
        assert gen.generated == 0


class TestCouplePropI:
    def test_minimal_case_matches_direct_formula(self):
        # one shared edge, no extra growth: both heights are determined by
        # the depths of the two marked vertices
        for sample, _ in exhaust(lambda d: couple_prop_i(1, 0, d)):
            assert sample.height_x in (1, 2)
            assert sample.height_xhat == 1

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2)])
    def test_marginals_match_oracle(self, m, n):
        seq_x = attach_run(m) + freeze_run(m - 1) + parse_sequence("-+") + attach_run(n)
        seq_xhat = attach_run(m) + freeze_run(m - 1) + attach_run(n)
        law_x, law_xhat = marginals(lambda d: couple_prop_i(m, n, d))
        assert law_x == dict(exact_height_distribution_forward(seq_x).masses)
        assert law_xhat == dict(exact_height_distribution_forward(seq_xhat).masses)

    def test_marked_pair_exchangeable(self):
        # swapping the roles of the marked vertices leaves the joint law of
        # their depths unchanged
        law_uv = {}
        law_vu = {}

        def depths_pair(d, swap):
            depths = [0]
            for j in range(1, 4):
                depths.append(depths[d.index(j)] + 1)
            u, v = d.distinct_pair(4)
            return (depths[v], depths[u]) if swap else (depths[u], depths[v])

        for pair, w in exhaust(lambda d: depths_pair(d, False)):
            law_uv[pair] = law_uv.get(pair, Fraction(0)) + w
        for pair, w in exhaust(lambda d: depths_pair(d, True)):
            law_vu[pair] = law_vu.get(pair, Fraction(0)) + w
        assert law_uv == law_vu


class TestCouplePropII:
    def test_case_frequencies(self):
        n_rep = 30_000
        counts = {case: 0 for case in FreezeCase}
        driver = MonteCarloDriver(R(7, 0))
        for _ in range(n_rep):
            counts[couple_prop_ii(4, 6, driver).case_tag] += 1
        for case, c in counts.items():
            assert abs(c / n_rep - 1 / 3) < 0.01, (case, c / n_rep)

    def test_case_a_equal_heights_when_split_positive(self):
        driver = MonteCarloDriver(R(8, 0))
        seen_case_a = 0
        for _ in range(20_000):
            s = couple_prop_ii(3, 5, driver)
            if s.case_tag is FreezeCase.FROZEN_CHILD and s.i_split != 0:
                assert s.height_x == s.height_xhat
                seen_case_a += 1
            if s.case_tag is FreezeCase.FROZEN_CHILD and s.i_split == 0:
                assert abs(s.height_x - s.height_xhat) <= 1
        assert seen_case_a > 1000

    def test_case_b_heights_differ_by_at_most_one(self):
        driver = MonteCarloDriver(R(9, 0))
        seen = 0
        for _ in range(20_000):
            s = couple_prop_ii(3, 5, driver)
            if s.case_tag is FreezeCase.FROZEN_PARENT:
                assert 0 <= s.height_x - s.height_xhat <= 1
                seen += 1
        assert seen > 1000

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
    def test_marginals_match_oracle(self, m, n):
        seq_x = attach_run(m) + freeze_run(m - 1) + parse_sequence("+-") + attach_run(n)
        seq_xhat = attach_run(m) + freeze_run(m - 1) + attach_run(n)
        law_x, law_xhat = marginals(lambda d: couple_prop_ii(m, n, d))
        assert law_x == dict(exact_height_distribution_forward(seq_x).masses)
        assert law_xhat == dict(exact_height_distribution_forward(seq_xhat).masses)


class TestCouplePropIII:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_marginals_match_oracle(self, n):
        law_x, law_xhat, law_rrt = {}, {}, {}
        for (hx, hxh, hr), w in exhaust(lambda d: couple_prop_iii(n, d)):
            law_x[hx] = law_x.get(hx, Fraction(0)) + w
            law_xhat[hxh] = law_xhat.get(hxh, Fraction(0)) + w
            law_rrt[hr] = law_rrt.get(hr, Fraction(0)) + w
        seq_x = parse_sequence("++-") + attach_run(n)
        seq_xhat = parse_sequence("+-") + attach_run(n)
        assert law_x == dict(exact_height_distribution_forward(seq_x).masses)
        assert law_xhat == dict(exact_height_distribution_forward(seq_xhat).masses)
        assert law_rrt == dict(exact_height_distribution_forward(attach_run(n)).masses)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_height_one_probabilities(self, n):
        law_x, law_xhat = {}, {}
        for (hx, hxh, _), w in exhaust(lambda d: couple_prop_iii(n, d)):
            law_x[hx] = law_x.get(hx, Fraction(0)) + w
            law_xhat[hxh] = law_xhat.get(hxh, Fraction(0)) + w
        assert law_x.get(1, Fraction(0)) == Fraction(1, 3 * math.factorial(n + 1))
        assert law_xhat.get(1, Fraction(0)) == Fraction(1, 2 * math.factorial(n))

    def test_rrt_height_is_pathwise_function_of_split(self):
        # the reduced tree re-hangs the same split one level up or in place
        for (_, hxh, hr), _w in exhaust(lambda d: couple_prop_iii(2, d)):
            assert hxh - 1 <= hr <= hxh


class TestCsv:
    def test_batch_serialization(self):
        samples = [couple_prop_ii(2, 2, R(5, i)) for i in range(3)]
        text = render_samples(
            "csv",
            "prop_ii",
            [s.height_x for s in samples],
            [s.height_xhat for s in samples],
            [s.case_tag for s in samples],
        )
        lines = text.strip().splitlines()
        assert lines[0] == "replica,height_x,height_xhat,case"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[0] == str(i)
            assert fields[3] in {c.value for c in FreezeCase}


# --------------------------------------------------------------------------
# The row renderer against json.dumps and the per-sample CSV loop


heights = st.integers(0, 10**6)
coupled_samples = st.builds(
    CoupledSample, heights, heights, st.one_of(st.none(), st.sampled_from(FreezeCase))
)
EVERY_CASE = [CoupledSample(10**6, 0, tag) for tag in (None, *FreezeCase)]


@settings(max_examples=200, deadline=None)
@given(
    which=st.sampled_from(["reduce", "prop_i", "prop_ii", "prop_iii"]),
    samples=st.lists(coupled_samples, min_size=1, max_size=30),
    tagged=st.booleans(),
)
@example(which="prop_ii", samples=EVERY_CASE, tagged=True)
@example(which="reduce", samples=[CoupledSample(10**6, 10**6)], tagged=False)
def test_render_samples_matches_json_dumps_and_the_csv_loop(which, samples, tagged):
    if not tagged:
        samples = [CoupledSample(s.height_x, s.height_xhat) for s in samples]
    height_x = [s.height_x for s in samples]
    height_xhat = [s.height_xhat for s in samples]
    cases = [s.case_tag for s in samples] if tagged else None
    rows = [
        {
            "replica": i,
            "height_x": s.height_x,
            "height_xhat": s.height_xhat,
            "case": s.case_tag.value if s.case_tag else None,
        }
        for i, s in enumerate(samples)
    ]
    want = json.dumps({"which": which, "mode": "mc", "samples": rows}, sort_keys=True, indent=2)
    assert render_samples("json", which, height_x, height_xhat, cases) == want + "\n"
    assert render_samples("csv", which, height_x, height_xhat, cases) == csv_loop(samples)
