from fractions import Fraction

import pytest

from frostree import (
    Forest,
    InvalidSequence,
    RngStream,
    SelfGraft,
    Status,
    attach_run,
    build_reverse,
    exact_height_distribution_forward,
    iter_valid_sequences,
    law_of,
    parse_sequence,
    reverse_law_by_enumeration,
    walk_profile,
)

R = RngStream


def chain(forest, height):
    """Append a path tree of the given height to the forest's last slot, built
    by grafting it under fresh singletons."""
    forest.add_singleton(Status.ACTIVE, 0)
    for _ in range(height):
        forest.add_singleton(Status.ACTIVE, 0)
        forest.graft_positions(forest.tree_count - 1, forest.tree_count - 2)


class TestGraft:
    def test_two_singletons(self):
        forest = Forest()
        forest.add_singleton(Status.ACTIVE, 0)
        forest.add_singleton(Status.ACTIVE, 0)
        target_root = forest.slots[0].root
        forest.graft_positions(0, 1)
        assert forest.tree_count == 1
        assert forest.slots[0].height == 1
        assert forest.slots[0].root == target_root

    def test_tall_target_keeps_height(self):
        forest = Forest()
        chain(forest, 2)
        chain(forest, 0)
        forest.graft_positions(0, 1)
        assert [h.height for h in forest.slots] == [2]

    def test_tall_donor_adds_one(self):
        forest = Forest()
        chain(forest, 1)
        chain(forest, 3)
        forest.graft_positions(0, 1)
        assert [h.height for h in forest.slots] == [4]

    def test_self_graft_rejected(self):
        forest = Forest()
        forest.add_singleton(Status.ACTIVE, 0)
        forest.add_singleton(Status.ACTIVE, 0)
        with pytest.raises(SelfGraft):
            forest.graft_positions(1, 1)
        assert forest.tree_count == 2


class TestBuildReverse:
    def test_two_attach_law_matches_forward(self):
        law = law_of(lambda d: build_reverse(attach_run(2), d).height)
        assert law == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_attach_freeze_attach_law(self):
        law = law_of(lambda d: build_reverse(parse_sequence("+-+"), d).height)
        assert law == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_lonely_freeze_returns_frozen_root(self):
        arena = build_reverse(parse_sequence("-"), R(0, 0))
        assert len(arena) == 1
        assert arena.height == 0
        assert arena.statuses[0] is Status.FROZEN

    def test_invalid_rejected(self):
        with pytest.raises(InvalidSequence):
            build_reverse(parse_sequence("--"), R(0, 0))

    def test_fully_frozen_end(self):
        arena = build_reverse(parse_sequence("+--"), R(3, 1))
        assert len(arena) == 2 and arena.height == 1
        assert arena.active_count() == 0

    @pytest.mark.parametrize("text", ["+", "+-", "+^2-", "+-+-", "+^3", "+^2-^2"])
    def test_label_multiset_matches_walk(self, text):
        seq = parse_sequence(text)
        profile = walk_profile(seq)
        for i in range(8):
            arena = build_reverse(seq, R(11, i))
            arena.check_invariants()
            assert arena.active_count() == profile.final
            assert len(arena) - arena.active_count() == seq.freeze_count

    def test_law_equivalence_small(self):
        # exhaustive check against the forward oracle for every short sequence
        for m in range(0, 6):
            for seq in iter_valid_sequences(m):
                reverse_law = reverse_law_by_enumeration(seq)
                forward_law = exact_height_distribution_forward(seq)
                assert reverse_law.masses == forward_law.masses, seq.text
