"""Choice sequences: the +/- scripts that drive tree growth with freezing.

A sequence is an ordered list of steps, each either an attachment (``+``) or a
freeze (``-``).  The associated walk starts at 1 and moves by +1 or -1 per
step; it counts the active vertices of the tree being built.  A sequence is
*valid* when the walk stays positive strictly before the last step (the walk
may reach 0 exactly at the end, meaning every vertex ends up frozen).

The walk is computed once per sequence object and cached on it; every
validity check and every sampling kernel reads that cached walk.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidSequence, SequenceSyntaxError

MAX_STEPS = 10**7  # longest expansion the parser builds
MESSAGE_TEXT_CHARS = 80  # longest sequence text an error message quotes in full


class Step(Enum):
    ATTACH = 1
    FREEZE = -1

    @property
    def sign(self) -> int:
        return self.value

    @property
    def char(self) -> str:
        return "+" if self is Step.ATTACH else "-"


@dataclass(frozen=True)
class ChoiceSequence:
    """Immutable list of attach/freeze steps."""

    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __add__(self, other: "ChoiceSequence") -> "ChoiceSequence":
        return ChoiceSequence(self.steps + other.steps)

    @cached_property
    def attach_count(self) -> int:
        return sum(self._flags)

    @property
    def freeze_count(self) -> int:
        return len(self.steps) - self.attach_count

    def signs(self) -> list[int]:
        return [s.sign for s in self.steps]

    def attach_flags(self) -> tuple[bool, ...]:
        """Per-step booleans (True = attach); the hot-loop representation."""
        return self._flags

    @cached_property
    def _flags(self) -> tuple[bool, ...]:
        return tuple(map(operator.is_, self.steps, repeat(Step.ATTACH)))

    @cached_property
    def walk(self) -> "WalkProfile":
        """Active-vertex counts s_0..s_m, computed once per sequence object."""
        values = tuple(accumulate(map((-1, 1).__getitem__, self._flags), initial=1))
        tau: int | float = values.index(0) if 0 in values else math.inf
        return WalkProfile(values, tau)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Option counts s_0..s_{m-1} of the steps' uniform choices (read-only)."""
        sizes = np.array(self.walk.s_values[:-1], dtype=np.int64)
        sizes.flags.writeable = False
        return sizes

    @staticmethod
    def from_signs(signs: Iterable[int]) -> "ChoiceSequence":
        return ChoiceSequence(tuple(Step(int(s)) for s in signs))

    @property
    def text(self) -> str:
        return render_sequence(self)

    def __str__(self) -> str:
        return self.text


def attach_run(n: int) -> ChoiceSequence:
    """The freeze-free sequence of n attachments (builds the n-edge recursive tree)."""
    return ChoiceSequence((Step.ATTACH,) * n)


def alternating(n: int) -> ChoiceSequence:
    """n repetitions of attach-then-freeze; keeps exactly two vertices active."""
    return ChoiceSequence((Step.ATTACH, Step.FREEZE) * n)


# --------------------------------------------------------------------------
# Text grammar:  seq := term+ ; term := atom ['^' positive-int] ;
#                atom := '+' | '-' | '(' seq ')'        ASCII whitespace ignored


def parse_sequence(text: str) -> ChoiceSequence:
    """Parse sequence text, e.g. ``"+^3(-+)^2"``.

    Raises SequenceSyntaxError (with byte offset) on malformed input,
    including a repetition count of 0 and an expansion past MAX_STEPS steps.
    Groups nest to any depth: open groups wait on an explicit stack.
    """
    out: list[Step] = []  # steps of the innermost open group, or of the text
    groups: list[tuple[list[Step], int]] = []  # per open group: enclosing steps, '(' offset
    enclosing = 0  # steps held by the enclosing groups, which the cap covers too
    pos = 0
    while True:
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] == "(":
            groups.append((out, pos))
            enclosing += len(out)
            out = []
            pos += 1
            continue
        if pos >= len(text) or text[pos] == ")":
            if not out:
                raise SequenceSyntaxError("expected '+', '-' or '('", pos)
            if not groups:
                break
            if pos >= len(text):
                raise SequenceSyntaxError("unclosed '('", pos)
            atom = out
            out, term_at = groups.pop()
            enclosing -= len(out)
        elif text[pos] in "+-":
            atom, term_at = [Step.ATTACH if text[pos] == "+" else Step.FREEZE], pos
        else:
            raise SequenceSyntaxError(f"expected '+', '-' or '(', got {text[pos]!r}", pos)
        pos += 1

        count, count_at = 1, term_at
        after = _skip_ws(text, pos)
        if after < len(text) and text[after] == "^":
            count_at = _skip_ws(text, after + 1)
            pos = count_at
            while pos < len(text) and "0" <= text[pos] <= "9":
                pos += 1
            if pos == count_at:
                raise SequenceSyntaxError("expected repetition count after '^'", count_at)
            digits = text[count_at:pos].lstrip("0")
            if not digits:
                raise SequenceSyntaxError("repetition count must be positive", count_at)
            # a count with more digits than MAX_STEPS is over the cap; int() would
            # also refuse one of more than 4300 digits
            count = int(digits) if len(digits) <= len(str(MAX_STEPS)) else MAX_STEPS + 1
        if enclosing + len(out) + len(atom) * count > MAX_STEPS:
            raise SequenceSyntaxError(f"sequence expands past {MAX_STEPS} steps", count_at)
        out.extend(atom * count)
    if pos != len(text):
        raise SequenceSyntaxError(f"unexpected character {text[pos]!r}", pos)
    return ChoiceSequence(tuple(out))


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t\n\r\f\v":  # ASCII: offsets count bytes
        pos += 1
    return pos


_RUN = re.compile(r"([+-])\1+")  # a maximal run of two or more equal steps
_STEP_CHARS = bytes.maketrans(b"\0\1", b"-+")


def render_sequence(seq: ChoiceSequence) -> str:
    """Canonical printed form: maximal runs compressed with '^'.

    ``parse_sequence(render_sequence(s)) == s`` for every non-empty sequence
    (the empty sequence renders as "", which the grammar does not accept).
    """
    raw = bytes(seq.attach_flags()).translate(_STEP_CHARS).decode()
    return _RUN.sub(lambda run: f"{run[1]}^{len(run[0])}", raw)


def quoted(seq: ChoiceSequence) -> str:
    """The sequence's text quoted for an error message.

    Text up to MESSAGE_TEXT_CHARS characters is quoted verbatim; a longer text
    is cut there and followed by the step count, so a message stays one short
    line however long the sequence.
    """
    text = seq.text
    if len(text) <= MESSAGE_TEXT_CHARS:
        return repr(text)
    return f"{text[:MESSAGE_TEXT_CHARS]!r}... ({len(seq)} steps)"


# --------------------------------------------------------------------------
# Walk and classification


@dataclass(frozen=True)
class WalkProfile:
    """Active-vertex counts along the sequence.

    ``s_values[j]`` is the count after j steps (``s_values[0] == 1``);
    ``tau`` is the first step index at which the count hits 0, or
    ``math.inf`` if it never does.
    """

    s_values: tuple[int, ...]
    tau: int | float

    @cached_property
    def max_value(self) -> int:
        return max(self.s_values)

    @property
    def final(self) -> int:
        return self.s_values[-1]

    @property
    def valid(self) -> bool:
        """True when the walk stays positive strictly before the final step.

        Steps of +-1 from 1 first leave the positives through 0, so this is
        "the first zero, if any, is the final value"."""
        return self.tau >= len(self.s_values) - 1


def walk_profile(seq: ChoiceSequence) -> WalkProfile:
    return seq.walk


@dataclass(frozen=True)
class SequenceClass:
    """Classification of a sequence against a target attachment count n."""

    n: int
    valid: bool
    in_x_n: bool


def is_valid(seq: ChoiceSequence) -> bool:
    """True when the walk stays positive strictly before the final step."""
    return seq.walk.valid


def require_valid(seq: ChoiceSequence) -> None:
    """Raise InvalidSequence unless the walk stays positive before the end."""
    if not seq.walk.valid:
        raise InvalidSequence(f"{quoted(seq)} exhausts its active vertices early")


def classify(seq: ChoiceSequence, n: int) -> SequenceClass:
    """Check validity and membership in the family of n-attachment sequences.

    Membership requires exactly n attach steps and a walk that does not hit 0
    before the final step (hitting 0 exactly at the end is allowed).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    valid = seq.walk.valid
    member = valid and seq.attach_count == n
    return SequenceClass(n=n, valid=valid, in_x_n=member)


# --------------------------------------------------------------------------
# Exhaustive generation (small-instance test families)


def iter_valid_sequences(length: int) -> Iterator[ChoiceSequence]:
    """All valid sequences of exactly the given length, in lexicographic order
    (attach < freeze)."""
    if length == 0:
        yield ChoiceSequence(())
        return

    prefix: list[Step] = []

    def rec(s: int, remaining: int) -> Iterator[ChoiceSequence]:
        if remaining == 0:
            yield ChoiceSequence(tuple(prefix))
            return
        for step in (Step.ATTACH, Step.FREEZE):
            ns = s + step.sign
            # walk may reach 0 only on the very last step
            if ns <= 0 and remaining > 1:
                continue
            prefix.append(step)
            yield from rec(ns, remaining - 1)
            prefix.pop()

    yield from rec(1, length)


def iter_xn_sequences(n: int, max_length: int) -> Iterator[ChoiceSequence]:
    """All sequences with exactly n attachments, valid walk, and length at most
    max_length.  The family is infinite without the length cap."""
    for m in range(n, max_length + 1):
        for seq in iter_valid_sequences(m):
            if seq.attach_count == n:
                yield seq


def iter_reducible_sequences(max_length: int) -> Iterator[ChoiceSequence]:
    """Valid sequences that start with an attach run followed by a freeze."""
    for m in range(2, max_length + 1):
        for seq in iter_valid_sequences(m):
            if seq.steps[0] is Step.ATTACH and Step.FREEZE in seq.steps:
                yield seq
