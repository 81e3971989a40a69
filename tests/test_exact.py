import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frostree import (
    ChoiceSequence,
    HeightDistribution,
    InvalidSequence,
    StateSpaceExceeded,
    Step,
    alternating,
    attach_run,
    bernoulli_sum_distribution,
    build_forward,
    dominance_with_floor,
    exact_height_distribution_forward,
    exact_height_distribution_reverse,
    floored,
    forward_law_by_enumeration,
    iter_valid_sequences,
    iter_xn_sequences,
    law_of,
    min_floor_search,
    parse_sequence,
    stochastic_dominates,
)
from frostree import exact


def dist(masses):
    return HeightDistribution.from_exact(
        {int(k): Fraction(v) for k, v in masses.items()}
    )


def made_valid(wanted):
    """The sequence of attach flags wanted, with each freeze that would empty
    the tree before the last step made an attach."""
    steps, s = [], 1
    for j, attach in enumerate(wanted):
        if not attach and s == 1 and j < len(wanted) - 1:
            attach = True
        steps.append(attach)
        s += 1 if attach else -1
    return ChoiceSequence(steps)


@st.composite
def valid_sequences(draw, min_size, max_size):
    """Random valid sequences."""
    return made_valid(draw(st.lists(st.booleans(), min_size=min_size, max_size=max_size)))


def root_only_mass(seq):
    """P(every attach picks the root): the root must be drawn at each attach
    and must escape every freeze before the last attach."""
    flags = seq.flags.tolist()
    if not any(flags):
        return Fraction(0)
    last_attach = max(j for j, attach in enumerate(flags) if attach)
    p = Fraction(1)
    for j, (attach, s) in enumerate(zip(flags, seq.walk.s_values.tolist())):
        if attach:
            p *= Fraction(1, s)
        elif j < last_attach:
            p *= Fraction(s - 1, s)
    return p


def forward_state_counts(seq):
    """The distinct forward states after each step, counted by enumerating
    every tree the prefix can build (a state: sorted active depths, height)."""
    counts = []
    for j in range(1, len(seq) + 1):
        prefix = ChoiceSequence(seq.flags[:j])

        def state(driver):
            tree = build_forward(prefix, driver)
            return tuple(sorted(tree.depths[v] for v in tree.active_list)), tree.height

        counts.append(len(law_of(state)))
    return counts


class TestForwardDistribution:
    def test_two_attachments(self):
        law = exact_height_distribution_forward(attach_run(2))
        assert dict(law.masses) == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_three_attachments(self):
        law = exact_height_distribution_forward(attach_run(3))
        assert dict(law.masses) == {
            1: Fraction(1, 6),
            2: Fraction(2, 3),
            3: Fraction(1, 6),
        }

    def test_alternating_three(self):
        law = exact_height_distribution_forward(alternating(3))
        assert dict(law.masses) == {
            1: Fraction(1, 4),
            2: Fraction(1, 2),
            3: Fraction(1, 4),
        }

    def test_invalid_rejected(self):
        with pytest.raises(InvalidSequence):
            exact_height_distribution_forward(parse_sequence("+-^2+"))

    def test_state_cap(self):
        with pytest.raises(StateSpaceExceeded):
            exact_height_distribution_forward(attach_run(12), state_cap=3)

    def test_small_height_formulas(self):
        for n in range(1, 7):
            rn = exact_height_distribution_forward(attach_run(n))
            assert rn.mass(1) == Fraction(1, math.factorial(n))
            an = exact_height_distribution_forward(alternating(n))
            assert an.mass(1) == Fraction(1, 2 ** (n - 1))

    def test_dp_equals_brute_force(self):
        for m in range(0, 6):
            for seq in iter_valid_sequences(m):
                assert (
                    exact_height_distribution_forward(seq).masses
                    == forward_law_by_enumeration(seq).masses
                ), seq.text

    def test_dp_equals_enumeration_length_7(self):
        # lengths up to 6 are acceptance criterion 02
        for seq in iter_valid_sequences(7):
            assert (
                exact_height_distribution_forward(seq)
                == forward_law_by_enumeration(seq)
            ), seq.text

    @pytest.mark.parametrize("n", range(9, 15))
    def test_attach_run_extremes(self, n):
        law = exact_height_distribution_forward(attach_run(n))
        assert law.mass(1) == law.mass(n) == Fraction(1, math.factorial(n))
        assert sum(law.masses.values(), Fraction(0)) == 1

    @settings(max_examples=40, deadline=None)
    @given(valid_sequences(9, 14))
    def test_random_longer_sequences(self, seq):
        law = exact_height_distribution_forward(seq)
        assert sum(law.masses.values(), Fraction(0)) == 1
        assert law.mass(1) == root_only_mass(seq)
        assert law.support_max <= seq.attach_count

    @pytest.mark.parametrize("text", ["+^8", "+^4-+^3", "+^3-^2+^4"])
    def test_state_cap_boundary(self, monkeypatch, text):
        # every cap from -1 to the peak, on both dtypes and in slices of 1, 2
        # and 16 entries: the DP raises exactly below the peak, naming the
        # first step whose enumerated state count passes the cap
        seq = parse_sequence(text)
        counts = forward_state_counts(seq)
        for fits in (exact._fits_int64, lambda _: False):
            monkeypatch.setattr(exact, "_fits_int64", fits)
            for entries in (1, 2, 16):
                monkeypatch.setattr(exact, "ARRAY_STEP_ENTRIES", entries)
                for cap in range(-1, max(counts)):
                    step = next(j for j, count in enumerate(counts, start=1) if count > cap)
                    expected = f"forward DP passed state_cap={cap} at step {step} of '{text}'"
                    with pytest.raises(StateSpaceExceeded, match=re.escape(expected)):
                        exact_height_distribution_forward(seq, state_cap=cap)
                exact_height_distribution_forward(seq, state_cap=max(counts))

    def test_state_cap_message(self):
        expected = "forward DP passed state_cap=3 at step 3 of '+^12'"
        with pytest.raises(StateSpaceExceeded, match=re.escape(expected)):
            exact_height_distribution_forward(attach_run(12), state_cap=3)

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux")
    def test_a_long_run_stops_at_the_cap_in_little_memory(self):
        # the DP builds a depth's unit when an attach first reaches it, so a
        # million-attach run passes the cap at step 11 under a 1 GB
        # address-space limit; tables for every depth up front do not fit
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from frostree import attach_run, exact_height_distribution_forward\n"
            "try:\n"
            "    exact_height_distribution_forward(attach_run(10**6), state_cap=1000)\n"
            "except Exception as error:\n"
            "    print(type(error).__name__)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.stdout.split() == ["StateSpaceExceeded"]


@st.composite
def spread_peak_sequences(draw, max_size=12):
    """Valid sequences of at most max_size steps whose walk maximum spans
    1..max_size: a leading attach run of random length puts a floor under it."""
    lead = draw(st.integers(0, max_size - 1))
    return attach_run(lead) + draw(valid_sequences(0, max_size - lead))


class TestPackedStateBoundaries:
    """The forward DP packs each depth's count into a digit of
    s_max.bit_length() bits above the height; these cases sit where that
    width changes, where freezes empty the deepest digits, and where the
    height exceeds every occupied depth."""

    @settings(max_examples=60, deadline=None)
    @given(spread_peak_sequences())
    @example(ChoiceSequence(()))
    @example(parse_sequence("-"))
    @example(parse_sequence("+^11-"))
    @example(parse_sequence("+^7-^2+^3"))
    def test_forward_equals_reverse(self, seq):
        assert (
            exact_height_distribution_forward(seq)
            == exact_height_distribution_reverse(seq)
        ), seq.text

    @pytest.mark.parametrize("n", [7, 8, 15, 16])
    def test_attach_run_where_the_digit_width_grows(self, n):
        # s_max = n + 1 is 8, 9, 16, 17: widths 4, 4, 5, 5 bits, and a depth-1
        # count of n needs every bit at n = 8 and 16
        law = exact_height_distribution_forward(attach_run(n))
        assert law.mass(1) == law.mass(n) == Fraction(1, math.factorial(n))
        assert sum(law.masses.values(), Fraction(0)) == 1
        # a freeze after the run reads every digit of the final states back
        assert exact_height_distribution_forward(parse_sequence(f"+^{n}-")) == law

    @pytest.mark.parametrize("k", range(1, 9))
    def test_all_frozen_keeps_the_height(self, k):
        # after +^k -^(k+1) no vertex is active, so the height is above every
        # occupied depth; freezes never change it
        frozen = parse_sequence(f"+^{k}-^{k + 1}")
        assert exact_height_distribution_forward(frozen) == (
            exact_height_distribution_forward(attach_run(k))
        )

    @pytest.mark.parametrize(
        "text", ["+^2-^2+", "+^3-^3+^2", "+^4-^4+-+", "+^5-^5+-", "+^3-^2+^2-^3+^2"]
    )
    def test_freezes_below_the_height(self, text):
        # the deepest vertices freeze first on some paths, then attaches
        # continue from shallower depths
        seq = parse_sequence(text)
        law = exact_height_distribution_forward(seq)
        assert law == exact_height_distribution_reverse(seq)
        if len(seq) <= 8:
            assert law == forward_law_by_enumeration(seq)

    def test_state_cap_names_the_step_whose_states_pass_it(self):
        # steps 3 and 4 of +^12 end with 4 and 8 states, so every cap from 4
        # to 7 lets step 3 through and stops at step 4
        for cap in range(4, 8):
            expected = f"forward DP passed state_cap={cap} at step 4 of '+^12'"
            with pytest.raises(StateSpaceExceeded, match=re.escape(expected)):
                exact_height_distribution_forward(attach_run(12), state_cap=cap)


def cap_outcome(dp, seq, cap):
    """The law dp gives under cap, or its StateSpaceExceeded message."""
    try:
        return dp(seq, cap)
    except StateSpaceExceeded as error:
        return str(error)


def assert_caps_agree(seq):
    """Every cap from -2 up to the peak, the first cap that passes, gives the
    same message or the same law from the array step as from the dict DP."""
    cap = -2
    while True:
        arrays = cap_outcome(exact._forward_arrays, seq, cap)
        assert arrays == cap_outcome(forward_dict_reference, seq, cap), (seq.text, cap)
        if not isinstance(arrays, str):
            return
        cap += 1


def with_object_dtype(texts):
    """Each text with the real ``_fits_int64``, and again with one that sends
    every input to the object dtype."""
    return [pytest.param(text, exact._fits_int64, id=text) for text in texts] + [
        pytest.param(text, lambda seq: False, id=f"{text}-object") for text in texts
    ]


@st.composite
def wide_sequences(draw):
    """Valid sequences with 13 or 14 attaches and up to two freezes, on both
    sides of the int64 path's 62-bit key limit."""
    flags = [True] * draw(st.integers(13, 14)) + [False] * draw(st.integers(0, 2))
    return made_valid(draw(st.permutations(flags)))


POOL = Path(__file__).resolve().parent.parent / "perfbench" / "exact_pool.txt"


class TestInt64ArrayStep:
    """The forward DP steps all states at once on int64 arrays when every key
    and weight fits, and on object arrays otherwise; the dict DP, stepping
    one state at a time, is its reference."""

    @pytest.mark.parametrize(
        "text, fits",
        [
            ("+^13", True),  # 4 + 4 * 14 = 60 key bits
            ("+^14", False),  # 4 + 4 * 15 = 64 key bits
            ("+^7-+^7", False),  # 5 + 4 * 15 = 65 key bits
            ("+^2(-+)^23", True),  # 2 * 6^23 < 2^63
            ("+^2(-+)^24", False),  # 60 key bits, but 2 * 6^24 > 2^63
        ],
    )
    def test_dtype_is_chosen_from_the_input(self, text, fits):
        seq = parse_sequence(text)
        assert exact._fits_int64(seq) is fits
        law = exact_height_distribution_forward(seq)
        assert law == forward_dict_reference(seq, exact.DEFAULT_STATE_CAP)
        assert law.mass(1) == root_only_mass(seq)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(spread_peak_sequences(), wide_sequences()))
    @example(attach_run(13))
    @example(attach_run(14))
    @example(attach_run(8))
    @example(attach_run(15))
    @example(parse_sequence("+^7-+^7"))
    @example(parse_sequence("+^7-^8"))
    def test_int64_dict_and_reverse_agree(self, seq):
        law = exact_height_distribution_forward(seq)
        assert law == forward_dict_reference(seq, exact.DEFAULT_STATE_CAP), seq.text
        if len(seq) <= 14:
            assert law == exact_height_distribution_reverse(seq, length_cap=14), seq.text

    @pytest.mark.parametrize(
        "text, fits",
        with_object_dtype(["+^8", "+^4-+^3", "+^3-^2+^4", "+^5-^4+^3", "(+-)^6", "+^6-^6"]),
    )
    def test_every_cap_gives_the_same_error(self, monkeypatch, text, fits):
        monkeypatch.setattr(exact, "_fits_int64", fits)
        assert_caps_agree(parse_sequence(text))

    @pytest.mark.parametrize("entries", [1, 2, 5, 16])
    @pytest.mark.parametrize(
        "text, fits",
        with_object_dtype(["+^8", "+^4-+^3", "+^3-^2+^4", "+^2-^2+^5", "(+-)^6", "+^5-^4+^3"]),
    )
    def test_sliced_steps_keep_the_law_and_the_cap(self, monkeypatch, entries, text, fits):
        monkeypatch.setattr(exact, "_fits_int64", fits)
        monkeypatch.setattr(exact, "ARRAY_STEP_ENTRIES", entries)
        assert_caps_agree(parse_sequence(text))

    def test_pool_laws_and_peaks(self):
        # every exact_dp benchmark member: the dict DP's law, and the peak
        # state count that the pool file records
        for line in POOL.read_text().splitlines():
            if line.startswith("#"):
                continue
            text, _, peak = line.split()
            seq = parse_sequence(text)
            assert exact._fits_int64(seq), text
            law = exact._forward_arrays(seq, int(peak))
            assert law == forward_dict_reference(seq, exact.DEFAULT_STATE_CAP), text
            with pytest.raises(StateSpaceExceeded):
                exact._forward_arrays(seq, int(peak) - 1)


def forward_dict_reference(seq, state_cap):
    """The forward DP over Python ints in a dict, one source state at a time,
    with the state_cap check after each source state: the reference for the
    library's array step at either dtype."""
    width, hb = exact._packing(seq)
    hmask, digit = (1 << hb) - 1, (1 << width) - 1
    units = [1 << hb, 1 << (hb + width)]  # grows by one depth per attach step
    states = {units[0]: 1}
    denominator = 1
    steps = zip(seq.flags.tolist(), seq.walk.s_values.tolist())
    for j, (attach, total) in enumerate(steps, start=1):
        moves = units[1:] if attach else [-u for u in units]
        next_states = {}
        for key, weight in states.items():
            height = key & hmask
            top = height if attach else -1  # the depth whose attach raises the height
            rest = key >> hb
            depth = 0
            while rest:
                count = rest & digit
                if count:
                    moved = key + moves[depth] + (depth == top)
                    next_states[moved] = next_states.get(moved, 0) + weight * count
                rest >>= width
                depth += 1
            if len(next_states) > state_cap:
                raise exact._state_cap_error("forward", seq, j, state_cap)
        if attach:
            units.append(units[-1] << width)
        states = next_states
        denominator *= total
    weights = {}
    for key, weight in states.items():
        weights[key & hmask] = weights.get(key & hmask, 0) + weight
    return dist({h: Fraction(w, denominator) for h, w in weights.items()})


def reverse_by_slot_pairs(seq, state_cap):
    """The reverse DP with a loop over every ordered (target, donor) slot
    pair: the reference for the library's loop over distinct height pairs."""
    s = seq.walk.final
    states = {(0,) * s: 1}
    denominator = 1
    for i in range(len(seq) - 1, -1, -1):
        next_states = {}
        if seq.steps[i] is Step.FREEZE:
            for heights, weight in states.items():
                key = (0,) + heights
                next_states[key] = next_states.get(key, 0) + weight
            s += 1
        else:
            for heights, weight in states.items():
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
                        next_states[key] = next_states.get(key, 0) + weight
                if len(next_states) > state_cap:
                    raise exact._state_cap_error("reverse", seq, i + 1, state_cap)
            denominator *= s * (s - 1)
            s -= 1
        states = next_states
    return dist({h: Fraction(w, denominator) for (h,), w in states.items()})


class TestReverseDistribution:
    @pytest.mark.parametrize("text", ["+^4-+^3", "+^6", "+^3-^2+^4", "(+-)^5"])
    def test_height_pairs_match_slot_pairs_at_every_cap(self, text):
        # every cap from -2 up to the first that passes gives the slot loop's
        # law or its StateSpaceExceeded message
        def library(seq, cap):
            return exact_height_distribution_reverse(seq, state_cap=cap)

        seq = parse_sequence(text)
        cap = -2
        while True:
            expected = cap_outcome(reverse_by_slot_pairs, seq, cap)
            assert cap_outcome(library, seq, cap) == expected, (text, cap)
            if not isinstance(expected, str):
                return
            cap += 1

    def test_state_cap_message(self):
        # undoing the last attach of +^4-+^3 leaves (0^5, 1); undoing step 7
        # gives (0^4, 1^2), (0^5, 1) and (0^5, 2)
        seq = parse_sequence("+^4-+^3")
        expected = "reverse DP passed state_cap=2 at step 7 of '+^4-+^3'"
        with pytest.raises(StateSpaceExceeded, match=re.escape(expected)):
            exact_height_distribution_reverse(seq, state_cap=2)

    def test_matches_forward_on_examples(self):
        for text in ["+^2", "+-+", "+^2-+"]:
            seq = parse_sequence(text)
            assert (
                exact_height_distribution_reverse(seq).masses
                == exact_height_distribution_forward(seq).masses
            )

    def test_length_cap(self):
        with pytest.raises(StateSpaceExceeded):
            exact_height_distribution_reverse(attach_run(13))
        # explicit cap override allows longer runs
        law = exact_height_distribution_reverse(attach_run(13), length_cap=13)
        assert law.mass(1) == Fraction(1, math.factorial(13))

    @pytest.mark.parametrize("length", [9, 10, 11, 12])
    def test_matches_forward_past_length_8_with_freezes(self, length):
        # every valid sequence up to length 8 is checked by acceptance criterion 01;
        # here four spread-out members per length from 9 to the default cap
        members = [s for s in iter_valid_sequences(length) if s.freeze_count]
        for seq in members[:: len(members) // 4][:4]:
            assert (
                exact_height_distribution_reverse(seq).masses
                == exact_height_distribution_forward(seq).masses
            )


class TestHeightDistribution:
    def test_exact_must_sum_to_one(self):
        with pytest.raises(ValueError):
            HeightDistribution.from_exact({1: Fraction(1, 2)})

    def test_float_tolerance(self):
        # float masses convert exactly and get no tolerance: 0.25 and 0.75 are
        # binary fractions, 0.2 is not 1/5
        assert HeightDistribution.from_exact({1: 0.25, 2: 0.75}) == dist({1: "1/4", 2: "3/4"})
        with pytest.raises(ValueError, match="sum to"):
            HeightDistribution.from_exact({1: 0.25, 2: 0.2, 3: 0.55})

    def test_support_and_mean(self):
        d = dist({1: "1/4", 3: "3/4"})
        assert d.support == (1, 3)
        assert d.support_max == 3
        assert d.mean() == Fraction(10, 4)

    def test_json_round_trip_exact(self):
        d = exact_height_distribution_forward(attach_run(3))
        obj = json.loads(json.dumps(d.to_json_obj()))
        assert HeightDistribution.from_json_obj(obj) == d

    @pytest.mark.parametrize("obj", [
        {"support": [0, 1], "mass_num": [1], "mass_den": [1]},
        {"support": [0], "mass_num": [1, 0], "mass_den": [1, 1]},
        {"support": [0, 1], "mass": [1.0]},
        {"support": [1.5], "mass_num": [1], "mass_den": [1]},
        {"support": ["2"], "mass_num": [1], "mass_den": [1]},
        {"support": [True], "mass_num": [1], "mass_den": [1]},
        {"support": [0], "mass_num": [1], "mass_den": [1.0]},
        {"support": [0], "mass_num": [True], "mass_den": [1]},
        {"support": [0], "mass_num": [1], "mass_den": [0]},
        {"support": [0], "mass_num": [1]},
        {"support": 0, "mass_num": [1], "mass_den": [1]},
        {"mass_num": [1], "mass_den": [1]},
        [[0], [1], [1]],
    ])
    def test_json_mass_lists_must_match_the_support(self, obj):
        with pytest.raises(ValueError):
            HeightDistribution.from_json_obj(obj)

    @pytest.mark.parametrize("obj", [
        {"support": [0, 0], "mass_num": [1, 1], "mass_den": [1, 1]},
        {"support": [0, 0], "mass": [1.0, 1.0]},
    ])
    def test_json_support_must_not_repeat(self, obj):
        with pytest.raises(ValueError, match="repeated height"):
            HeightDistribution.from_json_obj(obj)

    @pytest.mark.parametrize("masses", [{0: math.nan}, {0: 1.0, 1: math.nan}])
    def test_float_masses_must_not_be_nan(self, masses):
        with pytest.raises(ValueError, match="NaN"):
            HeightDistribution.from_exact(masses)

    def test_csv(self):
        d = dist({0: "1/2", 2: "1/2"})
        assert d.to_csv() == "height,probability\n0,0.5\n2,0.5\n"


class TestDominance:
    def test_simple(self):
        assert stochastic_dominates(dist({1: "1/2", 2: "1/2"}), dist({1: 1}))

    def test_reflexive(self):
        d = exact_height_distribution_forward(alternating(3))
        assert stochastic_dominates(d, d)

    def test_alternating_vs_plain_incomparable(self):
        for n in (3, 4, 5):
            an = exact_height_distribution_forward(alternating(n))
            rn = exact_height_distribution_forward(attach_run(n))
            assert not stochastic_dominates(an, rn)
            assert not stochastic_dominates(rn, an)

    def test_transitive_on_sample_set(self):
        laws = [
            exact_height_distribution_forward(seq)
            for m in range(1, 6)
            for seq in iter_valid_sequences(m)
        ]
        related = [
            (a, b) for a in laws for b in laws if stochastic_dominates(a, b)
        ]
        for a, b in related:
            for c in laws:
                if stochastic_dominates(b, c):
                    assert stochastic_dominates(a, c)


class TestFloors:
    def test_floor_above_support_always_dominates(self):
        r3 = exact_height_distribution_forward(attach_run(3))
        a3 = exact_height_distribution_forward(alternating(3))
        assert dominance_with_floor(r3, a3, r3.support_max)
        assert dominance_with_floor(r3, a3, r3.support_max + 5)

    def test_zero_floor_reduces_to_plain_dominance(self):
        r3 = exact_height_distribution_forward(attach_run(3))
        a3 = exact_height_distribution_forward(alternating(3))
        assert dominance_with_floor(r3, a3, 0) == stochastic_dominates(a3, r3)

    def test_floored_law(self):
        d = dist({0: "1/4", 1: "1/4", 3: "1/2"})
        f = floored(d, 1)
        assert dict(f.masses) == {1: Fraction(1, 2), 3: Fraction(1, 2)}

    def test_exact_floor_r3_vs_a3(self):
        r3 = exact_height_distribution_forward(attach_run(3))
        a3 = exact_height_distribution_forward(alternating(3))
        assert [dominance_with_floor(r3, a3, h) for h in range(4)] == [
            False,
            False,
            True,
            True,
        ]

    def test_min_floor_reference_family(self):
        assert min_floor_search(4, [attach_run(4)]) == 0

    def test_min_floor_alternating(self):
        assert min_floor_search(3, [alternating(3)]) == 2

    def test_min_floor_whole_family(self):
        family = list(iter_xn_sequences(3, 7))
        assert len(family) == 19
        assert min_floor_search(3, family) == 2

    def test_family_member_validated(self):
        with pytest.raises(InvalidSequence):
            min_floor_search(3, [attach_run(2)])


class TestBernoulliSum:
    def test_two_coins(self):
        d = bernoulli_sum_distribution([Fraction(1, 2), Fraction(1, 3)])
        assert dict(d.masses) == {
            0: Fraction(1, 3),
            1: Fraction(1, 2),
            2: Fraction(1, 6),
        }

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            bernoulli_sum_distribution([Fraction(3, 2)])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=8), max_size=6
        )
    )
    def test_mean_is_parameter_sum(self, params):
        d = bernoulli_sum_distribution(params)
        assert d.mean() == sum(params, Fraction(0))
