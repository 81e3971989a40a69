"""Choice sequences: the +/- scripts that drive tree growth with freezing.

A sequence is an ordered list of steps, each either an attachment (``+``) or a
freeze (``-``).  The associated walk starts at 1 and moves by +1 or -1 per
step; it counts the active vertices of the tree being built.  A sequence is
*valid* when the walk stays positive strictly before the last step (the walk
may reach 0 exactly at the end, meaning every vertex ends up frozen).

A sequence stores one read-only numpy bool array, ``flags`` (True = attach).
Everything else derives from it: the walk, a cumulative sum computed once per
sequence object; ``sizes``, a view of the walk; and ``steps``, its ``Step``
spelling.  Every validity check and every sampling kernel reads these.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence

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


@dataclass(frozen=True, eq=False)
class ChoiceSequence:
    """Immutable list of attach/freeze steps: a read-only 1-D bool array.

    The constructor takes any 1-D bool array-like (an empty one is the empty
    sequence) and copies it unless it is already read-only; other input, a
    tuple of ``Step`` members included, raises TypeError."""

    flags: np.ndarray

    def __post_init__(self) -> None:
        flags = np.asarray(self.flags)
        if flags.ndim != 1 or (flags.dtype != bool and flags.size):
            raise TypeError(f"steps must be a 1-D bool array, not {flags.dtype} {flags.shape}")
        if flags.flags.writeable or flags.dtype != bool:
            flags = flags.astype(bool)
            flags.flags.writeable = False
        object.__setattr__(self, "flags", flags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChoiceSequence):
            return NotImplemented
        return np.array_equal(self.flags, other.flags)

    def __hash__(self) -> int:
        return hash(self.flags.tobytes())

    def __reduce__(self):  # a pickled or copied array is writeable: rebuild through the check
        return ChoiceSequence, (self.flags,)

    def __len__(self) -> int:
        return len(self.flags)

    def __add__(self, other: "ChoiceSequence") -> "ChoiceSequence":
        return ChoiceSequence(np.concatenate((self.flags, other.flags)))

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(map((Step.FREEZE, Step.ATTACH).__getitem__, self.flags.tolist()))

    @cached_property
    def attach_count(self) -> int:
        return int(np.count_nonzero(self.flags))

    @property
    def freeze_count(self) -> int:
        return len(self) - self.attach_count

    def attach_flags(self) -> np.ndarray:
        """The flags array (True = attach)."""
        return self.flags

    @cached_property
    def walk(self) -> "WalkProfile":
        """Active-vertex counts s_0..s_m, computed once per sequence object."""
        values = np.ones(len(self) + 1, dtype=np.int64)
        np.cumsum(2 * self.flags.view(np.int8) - 1, dtype=np.int64, out=values[1:])
        values[1:] += 1
        values.flags.writeable = False
        first = int(np.argmax(values == 0))  # 0 when there is no zero: values[0] == 1
        return WalkProfile(values, first or math.inf)

    @property
    def sizes(self) -> np.ndarray:
        """Option counts s_0..s_{m-1} of the steps' uniform choices (read-only)."""
        return self.walk.s_values[:-1]

    @staticmethod
    def from_signs(signs: Sequence[int] | np.ndarray) -> "ChoiceSequence":
        """The sequence of +1 (attach) and -1 (freeze) signs; ValueError otherwise."""
        signs = np.asarray(signs)
        flags = signs == 1
        if not np.all(flags | (signs == -1)):
            raise ValueError("signs must be +1 or -1")
        return ChoiceSequence(flags)

    @property
    def text(self) -> str:
        return render_sequence(self)

    def __str__(self) -> str:
        return self.text


def attach_run(n: int) -> ChoiceSequence:
    """The freeze-free sequence of n attachments (builds the n-edge recursive tree)."""
    return ChoiceSequence(np.ones(n, dtype=bool))


def alternating(n: int) -> ChoiceSequence:
    """n repetitions of attach-then-freeze; keeps exactly two vertices active."""
    return ChoiceSequence(np.tile((True, False), n))


# --------------------------------------------------------------------------
# Text grammar:  seq := term+ ; term := atom ['^' positive-int] ;
#                atom := '+' | '-' | '(' seq ')'        ASCII whitespace ignored


def parse_sequence(text: str) -> ChoiceSequence:
    """Parse sequence text, e.g. ``"+^3(-+)^2"``.

    Raises SequenceSyntaxError (with byte offset) on malformed input,
    including a repetition count of 0 and an expansion past MAX_STEPS steps.
    Groups nest to any depth: open groups wait on an explicit stack.  Steps
    are bytes (1 = attach), and ``atom * count`` repeats a run in C.
    """
    out = bytearray()  # steps of the innermost open group, or of the text
    groups: list[tuple[bytearray, int]] = []  # per open group: enclosing steps, '(' offset
    enclosing = 0  # steps held by the enclosing groups, which the cap covers too
    pos = 0
    while True:
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] == "(":
            groups.append((out, pos))
            enclosing += len(out)
            out = bytearray()
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
            atom, term_at = (b"\1" if text[pos] == "+" else b"\0"), pos
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
        out += atom * count
    if pos != len(text):
        raise SequenceSyntaxError(f"unexpected character {text[pos]!r}", pos)
    return ChoiceSequence(np.frombuffer(bytes(out), dtype=bool))


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
    raw = seq.flags.tobytes().translate(_STEP_CHARS).decode()
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


@dataclass(frozen=True, eq=False)
class WalkProfile:
    """Active-vertex counts along the sequence.

    ``s_values[j]`` is the count after j steps (``s_values[0] == 1``), a
    read-only int64 array; ``tau`` is the first step index at which the count
    hits 0, or ``math.inf`` if it never does.  The other fields are Python ints.
    """

    s_values: np.ndarray
    tau: int | float

    @cached_property
    def max_value(self) -> int:
        return int(self.s_values.max())

    @cached_property
    def final(self) -> int:
        return int(self.s_values[-1])

    @property
    def valid(self) -> bool:
        """True when the walk stays positive strictly before the final step.

        Steps of +-1 from 1 first leave the positives through 0, so this is
        "the first zero, if any, is the final value"."""
        return self.tau >= len(self.s_values) - 1


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

    prefix: list[bool] = []

    def rec(s: int, remaining: int) -> Iterator[ChoiceSequence]:
        if remaining == 0:
            yield ChoiceSequence(np.array(prefix))
            return
        for attach in (True, False):
            ns = s + (1 if attach else -1)
            # walk may reach 0 only on the very last step
            if ns <= 0 and remaining > 1:
                continue
            prefix.append(attach)
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
            if seq.flags[0] and not seq.flags.all():
                yield seq
