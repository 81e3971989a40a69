import copy
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostree import sequences
from frostree import (
    ChoiceSequence,
    SequenceSyntaxError,
    Step,
    alternating,
    attach_run,
    classify,
    is_valid,
    iter_valid_sequences,
    iter_xn_sequences,
    parse_sequence,
    reduce_once,
    render_sequence,
)

A, F = Step.ATTACH, Step.FREEZE


def seq(*signs):
    return ChoiceSequence.from_signs(signs)


class TestParse:
    def test_repeat_atom(self):
        assert parse_sequence("+^3").steps == (A, A, A)

    def test_repeat_group(self):
        assert parse_sequence("(+-)^2").steps == (A, F, A, F)

    def test_insertion_example(self):
        # attach run 2, freeze run 1, freeze+attach, attach run 1
        assert parse_sequence("+^2-^1(-+)+^1") == seq(1, 1, -1, -1, 1, 1)

    def test_nested_groups(self):
        assert parse_sequence("((+-)^2)^2").steps == (A, F) * 4

    def test_groups_nest_past_the_recursion_limit(self):
        assert parse_sequence("(" * 10**4 + "+" + ")" * 10**4).steps == (A,)
        assert parse_sequence("(" * 10**4 + "+-" + ")" * (10**4 - 1) + ")^3") == alternating(3)

    def test_unclosed_deep_group_is_a_syntax_error(self):
        with pytest.raises(SequenceSyntaxError) as info:
            parse_sequence("(" * 10**4)
        assert info.value.offset == 10**4
        with pytest.raises(SequenceSyntaxError, match="unclosed") as info:
            parse_sequence("(" * 10**4 + "+")
        assert info.value.offset == 10**4 + 1

    def test_whitespace_ignored(self):
        assert parse_sequence(" + ^ 2  ( - + ) ").steps == (A, A, F, A)

    def test_zero_repeat_rejected(self):
        with pytest.raises(SequenceSyntaxError):
            parse_sequence("+^0")

    @pytest.mark.parametrize("bad", ["", "^2", "+^", "(+", "+)", "x", "(+-", "()"])
    def test_syntax_errors_carry_offset(self, bad):
        with pytest.raises(SequenceSyntaxError) as info:
            parse_sequence(bad)
        assert 0 <= info.value.offset <= len(bad)

    @pytest.mark.parametrize("text, offset, message", [
        ("+^\u00b2", 2, "expected repetition count"),  # superscript two
        ("+^\u0663", 2, "expected repetition count"),  # Arabic-Indic three
        ("+^\u00b9\u2070", 2, "expected repetition count"),  # superscript one, zero
        ("+^1\u00b2", 3, "expected '+', '-' or '('"),
    ])
    def test_repetition_counts_take_ascii_digits_only(self, text, offset, message):
        with pytest.raises(SequenceSyntaxError, match=re.escape(message)) as info:
            parse_sequence(text)
        assert info.value.offset == offset

    @pytest.mark.parametrize("text", ["+\u3000x", "+\xa0+"])
    def test_only_ascii_whitespace_is_skipped(self, text):
        # an ideographic or no-break space is the unexpected character itself
        with pytest.raises(SequenceSyntaxError, match="expected '\\+'") as info:
            parse_sequence(text)
        assert info.value.offset == 1

    def test_ascii_whitespace_is_skipped(self):
        assert parse_sequence(" \t+ \n").steps == (A,)

    def test_count_far_above_cap_rejected_at_its_offset(self):
        with pytest.raises(SequenceSyntaxError) as info:
            parse_sequence("+-+^100000000000")
        assert info.value.offset == 4
        with pytest.raises(SequenceSyntaxError) as info:
            parse_sequence("+^" + "9" * 5000)
        assert info.value.offset == 2
        assert parse_sequence("+^003").steps == (A, A, A)

    def test_nested_expansion_counts_enclosing_steps(self):
        # the inner group alone fits, but not next to the steps around it
        text = "+^9999999(+^9999999(+))"
        with pytest.raises(SequenceSyntaxError) as info:
            parse_sequence(text)
        assert info.value.offset == text.index("9999999(+)")

    def test_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(sequences, "MAX_STEPS", 10)
        assert len(parse_sequence("+^10")) == 10
        assert len(parse_sequence("(+-)^4(+)^2")) == 10
        for text, offset in [("+^11", 2), ("(+-)^5+", 6), ("+^9(-)^2", 7)]:
            with pytest.raises(SequenceSyntaxError) as info:
                parse_sequence(text)
            assert info.value.offset == offset

    def test_render_compresses_runs(self):
        assert render_sequence(seq(1, 1, 1)) == "+^3"
        assert render_sequence(seq(1, -1, 1, 1)) == "+-+^2"
        assert render_sequence(seq(1)) == "+"

    def test_quoted_text_is_verbatim_up_to_the_limit(self):
        limit = sequences.MESSAGE_TEXT_CHARS
        short = parse_sequence("+-" * (limit // 2))  # renders to exactly `limit` chars
        assert sequences.quoted(short) == repr(short.text)
        assert sequences.quoted(attach_run(12)) == "'+^12'"
        longer = short + attach_run(1)
        assert sequences.quoted(longer) == (
            f"{longer.text[:limit]!r}... ({len(longer)} steps)"
        )
        assert len(sequences.quoted(alternating(10**5))) < limit + 30

    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=60))
    def test_parse_render_round_trip(self, signs):
        s = ChoiceSequence.from_signs(signs)
        assert parse_sequence(render_sequence(s)) == s

    @settings(max_examples=2, deadline=None)
    @given(
        st.sampled_from("+-"),
        st.integers(int(0.9 * sequences.MAX_STEPS), sequences.MAX_STEPS),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=7),
    )
    def test_round_trip_near_the_step_cap(self, first, total, cuts):
        # runs of a million steps or more, alternating in sign, that add up to
        # within 10 % of the cap: the parser builds the one 10^7-step sequence
        extra = total - (len(cuts) + 1) * 10**6
        bounds = [0, *sorted(c * extra // 10**6 for c in cuts), extra]
        runs = [10**6 + b - a for a, b in zip(bounds, bounds[1:])]
        signs = [first, "+" if first == "-" else "-"] * len(runs)
        text = "".join(f"{sign}^{run}" for sign, run in zip(signs, runs))
        s = parse_sequence(text)
        assert len(s) == total
        assert s.attach_count == sum(runs[first == "-" :: 2])
        # render(s) == text, so parse(render(s)) == parse(text) == s
        assert render_sequence(s) == text


class TestWalk:
    def test_no_extinction(self):
        p = seq(1, 1, -1).walk
        assert p.s_values.tolist() == [1, 2, 3, 2]
        assert p.tau == math.inf

    def test_extinction_at_end(self):
        p = seq(1, -1, -1).walk
        assert p.s_values.tolist() == [1, 2, 1, 0]
        assert p.tau == 3

    def test_immediate_extinction(self):
        p = seq(-1).walk
        assert p.s_values.tolist() == [1, 0]
        assert p.tau == 1

    @given(st.lists(st.sampled_from([1, -1]), max_size=60))
    def test_unit_increments(self, signs):
        p = ChoiceSequence.from_signs(signs).walk
        assert p.s_values[0] == 1
        assert all(
            abs(a - b) == 1 for a, b in zip(p.s_values, p.s_values[1:])
        )


class TestRepresentation:
    """A sequence is one read-only bool array; the walk, sizes and steps
    derive from it."""

    def test_five_builders_make_one_value(self):
        built = [
            parse_sequence("+^2-+"),
            ChoiceSequence.from_signs([1, 1, -1, 1]),
            attach_run(1) + alternating(1) + attach_run(1),
            parse_sequence("+^2") + parse_sequence("-+"),
            reduce_once(parse_sequence("+^3-^2+")).reduced,
        ]
        assert all(s == built[0] for s in built)
        assert len({hash(s) for s in built}) == 1
        assert {s: i for i, s in enumerate(built)} == {built[0]: 4}
        assert built[0] != parse_sequence("+^2-") and built[0] != "+^2-+"

    def test_arrays_are_read_only(self):
        s = parse_sequence("+^3-")
        for array in (s.flags, s.walk.s_values, s.sizes):
            with pytest.raises(ValueError):
                array[0] = 0
        flags = np.ones(3, dtype=bool)
        built = ChoiceSequence(flags)  # a writeable input is copied
        flags[0] = False
        assert built == attach_run(3)
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert copied == s and not copied.flags.flags.writeable

    @pytest.mark.parametrize("bad", [(F,), (A, F), [1, -1], np.ones((2, 2), dtype=bool), True])
    def test_constructor_takes_bool_arrays_only(self, bad):
        with pytest.raises(TypeError):
            ChoiceSequence(bad)

    def test_empty_input_is_the_empty_sequence(self):
        assert ChoiceSequence(()) == ChoiceSequence(np.zeros(0, dtype=bool))
        assert len(ChoiceSequence([])) == 0 and ChoiceSequence(()).text == ""

    @pytest.mark.parametrize("bad", [[0], [1, 2], [-1, 0.5]])
    def test_from_signs_takes_plus_or_minus_one_only(self, bad):
        with pytest.raises(ValueError):
            ChoiceSequence.from_signs(bad)

    def test_steps_round_trip_through_signs(self):
        s = parse_sequence("+^2(-+)^2-")
        assert s.steps == (A, A, F, A, F, A, F)
        assert ChoiceSequence.from_signs([step.sign for step in s.steps]) == s

    def test_walk_scalars_are_python_ints(self):
        walk = parse_sequence("+^40-^3").walk
        assert type(walk.max_value) is int and walk.max_value == 41
        assert type(walk.final) is int and walk.final == 38
        assert walk.tau == math.inf and parse_sequence("+-^2").walk.tau == 3


def peak_rss_mb(code):
    """Peak RSS in MB of a fresh interpreter that runs code: the child reports
    its own ru_maxrss (kB on Linux), so no other process counts.  ru_maxrss
    survives fork and exec, so a child forked from this test process would
    start at its size: a small launcher process forks the measured one."""
    src = Path(__file__).resolve().parent.parent / "src"
    report = "\nimport resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    launcher = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"
    result = subprocess.run(
        [sys.executable, "-c", launcher, code + report], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    return int(result.stdout.split()[-1]) / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
class TestMemory:
    """A 10^7-step sequence is one byte per step plus an int64 walk: no
    Python object per step."""

    def test_parse_and_walk_of_ten_million_steps(self):
        code = ("from frostree import parse_sequence\n"
                "s = parse_sequence('+^9999999')\n"
                "assert s.walk.final == 10**7 and len(s.sizes) == 9999999")
        assert peak_rss_mb(code) <= 400

    def test_simulate_ten_million_steps(self):
        code = ("import contextlib, io\nfrom frostree.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['simulate', '--seq', '+^9999999', '--replicas', '2']) == 0")
        assert peak_rss_mb(code) <= 1100


class TestClassify:
    def test_member(self):
        assert classify(seq(1, -1, 1, -1), 2).in_x_n

    def test_member_despite_final_extinction(self):
        # the walk may hit zero exactly at the last step
        c = classify(seq(1, -1, -1), 1)
        assert c.valid and c.in_x_n

    def test_invalid_start(self):
        c = classify(seq(-1, 1), 1)
        assert not c.valid and not c.in_x_n

    def test_wrong_attach_count(self):
        assert not classify(seq(1, 1), 1).in_x_n

    @given(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=40))
    def test_membership_implies_valid(self, signs):
        s = ChoiceSequence.from_signs(signs)
        c = classify(s, s.attach_count)
        if c.in_x_n:
            assert c.valid


class TestGeneration:
    def test_counts_small(self):
        # first step must attach; walk positive until the end
        assert sum(1 for _ in iter_valid_sequences(1)) == 2  # +, -
        assert sum(1 for _ in iter_valid_sequences(2)) == 2  # ++, +-
        assert sum(1 for _ in iter_valid_sequences(3)) == 4

    def test_all_generated_are_valid(self):
        for m in range(7):
            for s in iter_valid_sequences(m):
                assert is_valid(s)
                assert len(s) == m

    def test_xn_family(self):
        family = list(iter_xn_sequences(2, 5))
        assert attach_run(2) in family
        assert alternating(2) in family
        for s in family:
            assert classify(s, 2).in_x_n

    def test_helpers(self):
        assert attach_run(3).text == "+^3"
        assert alternating(2).text == "+-+-"
        assert alternating(2).steps == (A, F, A, F)
