from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostree import (
    ChoiceSequence,
    InvalidSequence,
    RngStream,
    Status,
    TreeArena,
    attach_run,
    bernoulli_sum_distribution,
    build_forward,
    forward_height,
    law_of,
    parse_sequence,
    sample_rrt,
    uniform_active_depth_law,
)

R = RngStream


def valid_sequences(max_len=24):
    """Random valid sequences for property tests."""

    @st.composite
    def strat(draw):
        m = draw(st.integers(1, max_len))
        signs = [1]
        s = 2
        for j in range(1, m):
            # keep the walk positive strictly before the last step
            options = [1] if s == 1 and j < m - 1 else [1, -1]
            sign = draw(st.sampled_from(options))
            signs.append(sign)
            s += sign
        return ChoiceSequence.from_signs(signs)

    return strat()


class TestBuildForward:
    def test_single_attach(self):
        arena = build_forward(parse_sequence("+"), R(0, 0))
        assert len(arena) == 2 and arena.height == 1
        assert arena.active_count() == 2

    def test_grow_then_freeze_all(self):
        arena = build_forward(parse_sequence("+--"), R(0, 1))
        assert len(arena) == 2 and arena.height == 1
        assert arena.active_count() == 0
        assert all(s is Status.FROZEN for s in arena.statuses)

    def test_two_attach_exact_law(self):
        law = law_of(lambda d: build_forward(attach_run(2), d).height)
        assert law == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_invalid_sequence_raises(self):
        with pytest.raises(InvalidSequence):
            build_forward(parse_sequence("+---"), R(0, 0))

    @pytest.mark.parametrize("text", ["+---", "-+", "+--+^3"])
    def test_height_rejects_early_death_under_both_drivers(self, text):
        seq = parse_sequence(text)
        with pytest.raises(InvalidSequence):
            forward_height(seq, R(0, 0))
        with pytest.raises(InvalidSequence):
            law_of(lambda d: forward_height(seq, d))

    @settings(max_examples=40, deadline=None)
    @given(valid_sequences(), st.integers(0, 2**32))
    def test_arena_invariants_and_height_agreement(self, seq, seed):
        arena = build_forward(seq, R(seed, 0))
        arena.check_invariants()
        assert forward_height(seq, R(seed, 0)) == arena.height
        assert arena.active_count() == seq.walk.final

    def test_dump_round_trip(self):
        arena = build_forward(parse_sequence("+^3-+^2"), R(5, 5))
        parsed = TreeArena.from_dump(arena.dump())
        assert parsed == arena


class TestSampleRrt:
    def test_zero_edges(self):
        arena = sample_rrt(0, R(1, 0))
        assert len(arena) == 1 and arena.height == 0

    def test_matches_general_builder_bitwise(self):
        for i in range(20):
            fast = sample_rrt(30, R(2, i))
            slow = build_forward(attach_run(30), R(2, i))
            assert fast.parents == slow.parents
            assert fast.depths == slow.depths

    def test_exact_law_three_edges(self):
        law = law_of(lambda d: sample_rrt(3, d).height)
        assert law == {1: Fraction(1, 6), 2: Fraction(2, 3), 3: Fraction(1, 6)}

    def test_star_probability_two_edges(self):
        law = law_of(lambda d: sample_rrt(2, d).height)
        assert law[1] == Fraction(1, 2)


class TestUniformActiveDepthLaw:
    def test_freeze_free_parameters(self):
        assert uniform_active_depth_law(attach_run(3)) == [
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(1, 4),
        ]

    def test_single_attach_mean(self):
        params = uniform_active_depth_law(parse_sequence("+"))
        assert params == [Fraction(1, 2)]

    def test_attach_freeze_mean(self):
        params = uniform_active_depth_law(parse_sequence("+-"))
        assert sum(params) == Fraction(1, 2)

    def test_fully_frozen_rejected(self):
        with pytest.raises(InvalidSequence):
            uniform_active_depth_law(parse_sequence("+--"))

    @pytest.mark.parametrize(
        "text", ["+", "+-", "+^3", "+^2-+", "+-+-", "+^3-^2+", "+^2(-+)^2"]
    )
    def test_law_matches_enumerated_uniform_active_depth(self, text):
        # independent oracle: enumerate the build plus the uniform pick
        seq = parse_sequence(text)

        def sampled_depth(d):
            arena = build_forward(seq, d)
            pick = arena.active_list[d.index(len(arena.active_list))]
            return arena.depths[pick]

        enumerated = law_of(sampled_depth)
        convolved = bernoulli_sum_distribution(uniform_active_depth_law(seq))
        assert enumerated == dict(convolved.masses)

    def test_indexing_convention_resolved_by_enumeration(self):
        # uniform ACTIVE vertex of the 3-edge freeze-free tree: mean 13/12.
        # The off-by-one variant (1, 1/2, 1/3) is the LAST vertex's depth law
        # (mean 11/6); enumeration distinguishes the two.
        params = uniform_active_depth_law(attach_run(3))
        assert sum(params) == Fraction(13, 12)

        def last_vertex_depth(d):
            return build_forward(attach_run(3), d).depths[3]

        law = law_of(last_vertex_depth)
        mean_last = sum((h * p for h, p in law.items()), Fraction(0))
        assert mean_last == Fraction(11, 6) == 1 + Fraction(1, 2) + Fraction(1, 3)

    def test_empirical_mean_within_three_stderr(self):
        seq = parse_sequence("+^5-^2+^3-")
        params = uniform_active_depth_law(seq)
        exact = bernoulli_sum_distribution(params)
        mean = float(exact.mean())
        var = float(
            sum(h * h * p for h, p in exact.masses.items()) - exact.mean() ** 2
        )
        n = 4000
        total = 0
        for i in range(n):
            driver_stream = R(77, i)
            arena = build_forward(seq, driver_stream)
            gen = R(78, i).generator()
            total += arena.depths[
                arena.active_list[int(gen.integers(len(arena.active_list)))]
            ]
        empirical = total / n
        assert abs(empirical - mean) <= 3 * (var / n) ** 0.5 + 1e-9
