"""Reproducible randomness and exhaustive choice enumeration.

Every randomized construction in this package consumes randomness through a
*driver* exposing three primitives:

* ``index(k)``    -- uniform integer in ``[0, k)``
* ``indices(sizes)`` -- one ``index(k)`` per entry k of ``sizes``, in order
* ``distinct_pair(k)`` -- uniform ordered pair of distinct integers in ``[0, k)``,
  ``index(k)`` then ``index(k - 1)`` mapped by ``pair_second``, which the
  batched kernels apply to their index blocks as well

``MonteCarloDriver`` backs them with a seeded generator, and a
``StreamRange`` draws the same indices for a batch of fresh streams at once;
``ExhaustiveDriver`` replays the same construction over every possible choice
path, yielding exact rational weights.  Running one function under both
drivers is how sampled laws get certified against exact ones.  This module is
the only place where a uniform float becomes an index.

Stream ``(master_seed, i)`` is numpy's ``SeedSequence(master_seed,
spawn_key=(i,))`` feeding a PCG64 generator.  A batch of fresh streams has
one input form, a ``StreamRange``, checked when it is built, and skips the
per-replica ``SeedSequence``: a vectorized copy of numpy's seeding (O'Neill's
``seed_seq_fe``, pool of four words) hashes all its keys at once into each
stream's four seed words, from which each stream's PCG64 seeds itself with
numpy's own ``srandom``.  A StreamRange has two draws, one per workload:
``index_block``, for a fixed number of uniforms per replica, fills each row
through a generator it drops before seeding the next, so the cyclic garbage
collector never runs; ``IndexColumns``, for draws time block by time block,
keeps one generator per stream and reuses its buffers.  numpy itself is the
test oracle, so a numpy release that changed its seeding would fail the
tests rather than silently change reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_FIRST_REFILL = 64  # uniforms in a MonteCarloDriver's first refill; each next one doubles
_BLOCK = 4096  # uniforms in a MonteCarloDriver's largest refill


def _check_seed(master_seed: int) -> None:
    if master_seed < 0:
        raise ValueError(f"master seed must be nonnegative, got {master_seed}")


@dataclass(frozen=True)
class RngStream:
    """A named, platform-independent random stream.

    Streams are derived from ``(master_seed, stream_index)`` through
    ``numpy.random.SeedSequence(master_seed, spawn_key=(stream_index,))``,
    so two streams with the same coordinates produce identical draws
    regardless of platform, scheduling, or creation order.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        _check_seed(self.master_seed)

    def generator(self) -> np.random.Generator:
        seed_seq = np.random.SeedSequence(
            self.master_seed & _MASK64, spawn_key=(self.stream_index,)
        )
        return np.random.Generator(np.random.PCG64(seed_seq))


class _ChoiceDriver:
    """The primitives both drivers derive from their ``index``."""

    __slots__ = ()

    def distinct_pair(self, k: int) -> tuple[int, int]:
        if k < 2:
            raise ValueError("distinct_pair() needs at least two options")
        a = self.index(k)
        return a, pair_second(a, self.index(k - 1))


def pair_second(a, r):
    """The second member of the distinct pair drawn as ``a = index(k)``,
    ``r = index(k - 1)``: r with a skipped, so uniform over [0, k) minus a.
    Maps ints and int arrays alike."""
    return r + (r >= a)


class MonteCarloDriver(_ChoiceDriver):
    """Buffered uniform draws from an RngStream.

    ``index(k)`` consumes exactly one uniform float and maps it to
    ``floor(u * k)`` (clamped to ``k - 1`` against rare upward rounding), so
    any two consumers that make the same sequence of calls see identical
    choices for the same stream.  ``indices(sizes)`` applies the same map to a
    block of uniforms at once.
    """

    __slots__ = ("_gen", "_buf", "_pos")

    def __init__(self, rng: RngStream | np.random.Generator):
        self._gen = rng.generator() if isinstance(rng, RngStream) else rng
        self._buf = np.empty(0)
        self._pos = 0

    def _uniform(self) -> float:
        buf = self._buf
        pos = self._pos
        if pos == len(buf):
            # refills double from 64, so a short run generates few unused uniforms
            size = min(max(2 * len(buf), _FIRST_REFILL), _BLOCK)
            buf = self._buf = self._gen.random(size)
            pos = 0
        self._pos = pos + 1
        return buf[pos]

    def uniform_block(self, count: int) -> np.ndarray:
        """count fresh uniforms as an array (for vectorized consumers).

        Buffered uniforms go first, the rest come straight from the generator;
        a PCG64 stream yields the same doubles however its calls are split."""
        out = np.empty(count)
        buf, pos = self._buf, self._pos
        avail = min(count, len(buf) - pos)
        out[:avail] = buf[pos : pos + avail]
        self._pos = pos + avail
        if avail < count:
            out[avail:] = self._gen.random(count - avail)
        return out

    def index(self, k: int) -> int:
        if k <= 0:
            raise ValueError("index() needs a positive option count")
        i = int(self._uniform() * k)
        return k - 1 if i >= k else i

    def indices(self, sizes: np.ndarray) -> np.ndarray:
        """``[index(k) for k in sizes]`` as an int64 array, from one block."""
        _check_sizes(sizes)
        return _to_indices(self.uniform_block(len(sizes)), sizes)


@dataclass(frozen=True)
class StreamRange:
    """The streams (master_seed, i), start <= i < stop, before their first
    draw: the one input form of every batched kernel.

    Building one checks it, so a bad range fails before any draw: the master
    seed is nonnegative (as for ``RngStream``, and masked to 64 bits alike)
    and ``0 <= start <= stop <= 2^64``.  Its draws, ``index_block`` and
    ``IndexColumns``, build no driver per replica and draw exactly what
    ``MonteCarloDriver(RngStream(master_seed, i))`` would."""

    master_seed: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        _check_seed(self.master_seed)
        start, stop = self.start, self.stop
        if not 0 <= start <= stop:
            raise ValueError(f"need 0 <= start <= stop, got start={start}, stop={stop}")
        if stop > 1 << 64:
            raise ValueError(f"stream indices must be below 2^64, got stop={stop}")

    def __len__(self) -> int:
        return self.stop - self.start

    def batches(self, size: int) -> Iterator["StreamRange"]:
        """These streams cut in order into ranges of size >= 1 streams (the
        last may be shorter); a bad size raises at the call."""
        if size < 1:
            raise ValueError(f"batch size must be at least 1, got {size}")
        starts = range(self.start, self.stop, size)
        return (StreamRange(self.master_seed, a, min(a + size, self.stop)) for a in starts)


def _to_indices(
    u: np.ndarray, sizes: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``min(floor(u * k), k - 1)`` with k the entry of sizes that broadcasts
    to u's entry, cast from ``min(u * k, k - 1)`` (k - 1 is an exact double);
    scales and clamps u in place.  out, an int64 array of u's shape, receives
    the indices when it is given."""
    k = sizes.astype(np.float64)  # float-only loops: no cast per entry of u
    u *= k
    np.minimum(u, k - 1, out=u)
    if out is None:
        return u.astype(np.int64)
    np.copyto(out, u, casting="unsafe")  # truncation is floor on u >= 0
    return out


def _check_sizes(sizes: np.ndarray) -> None:
    if len(sizes) and sizes.min() <= 0:
        raise ValueError("indices() needs positive option counts")


def index_block(streams: StreamRange, sizes: np.ndarray) -> np.ndarray:
    """``(len(streams), len(sizes))`` int64 array whose row r holds
    ``MonteCarloDriver(RngStream(master_seed, start + r)).indices(sizes)``:
    each row's uniforms come from a generator dropped before the next is
    built, so the cyclic garbage collector sees no growing set of objects,
    and one ``floor(u * k)`` map covers the block."""
    _check_sizes(sizes)
    u = np.empty((len(streams), len(sizes)))
    for bit_generator, row in zip(_bit_generators(streams), u):
        np.random.Generator(bit_generator).random(out=row)
    return _to_indices(u, sizes)


class IndexColumns:
    """A StreamRange's index blocks, drawn time block by time block.

    ``next(sizes)`` returns a ``(len(sizes), len(streams))`` array whose
    column r holds stream r's next ``indices(sizes)``; each call continues
    every stream where the last one left it.  The streams are seeded once,
    one generator each, and every call fills one reused uniform buffer and
    returns a view of one reused index buffer, valid until the next call;
    sizes has at most width entries."""

    def __init__(self, streams: StreamRange, width: int):
        self._generators = [np.random.Generator(b) for b in _bit_generators(streams)]
        self._uniforms = np.empty((len(streams), width))
        self._columns = np.empty((width, len(streams)), dtype=np.int64)

    def next(self, sizes: np.ndarray) -> np.ndarray:
        _check_sizes(sizes)
        u = self._uniforms[:, : len(sizes)]
        for generator, row in zip(self._generators, u):
            generator.random(out=row)
        return _to_indices(u.T, sizes[:, None], self._columns[: len(sizes)])


# --------------------------------------------------------------------------
# Vectorized stream seeding

# numpy's SeedSequence (O'Neill's seed_seq_fe) on 32-bit words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _chain(h: int, mult: int, count: int) -> list[int]:
    """h and the count hash constants after it: seed_seq_fe multiplies its
    constant by mult at every hash, so the constants depend on no data."""
    chain = [h]
    for _ in range(count):
        chain.append(chain[-1] * mult & _M32)
    return chain


def _columns(chain: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, mul) constants of the len(chain) - 1 hashes along chain, as
    uint64 columns that hash one value into as many lanes."""
    return (
        np.array(chain[:-1], dtype=np.uint64)[:, None],
        np.array(chain[1:], dtype=np.uint64)[:, None],
    )


def _hash(value, xor, mul):
    """seed_seq_fe's hash: value xored with the current constant, times the
    next one.  Operands are 32-bit ints or uint64 arrays of them; every
    product of two 32-bit words fits a uint64 lane, and the mask takes it
    mod 2^32."""
    value = (value ^ xor) * mul & _M32
    return value ^ value >> 16


def _mix(x, y):
    # x, y < 2^32: the uint64 difference wraps mod 2^64, which the mask reduces mod 2^32
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


# Every hash constant is fixed, so the chains and their columns are built once.
_POOL_CHAIN = _chain(_INIT_A, _MULT_A, 24)  # 16 hashes for the pool, 4 per key word
_LOW_WORD = _columns(_POOL_CHAIN[16:21])
_HIGH_WORD = _columns(_POOL_CHAIN[20:25])
# generate_state hashes the pool cycled twice: (2, 4, 1) constants over (4, R) lanes
_STATE_WORDS = tuple(c.reshape(2, 4, 1) for c in _columns(_chain(_INIT_B, _MULT_B, 8)))


def _stream_words(master_seed: int, keys: np.ndarray) -> np.ndarray:
    """``(len(keys), 4)`` uint64 array whose row j equals
    ``SeedSequence(master_seed, spawn_key=(keys[j],)).generate_state(4, np.uint64)``,
    for master_seed < 2^64 and uint64 keys.

    The entropy is the master seed's two 32-bit words padded with zeros to
    the pool size, then the key's words (one below 2^32, else two).  The pool
    after the first four words is the same for every key, so it is mixed
    once; each key word then goes into all four pool words of all keys at
    once, as a (4, len(keys)) array.  The high-word pass runs only when some
    key reaches 2^32."""
    hashes = zip(_POOL_CHAIN, _POOL_CHAIN[1:])
    pool = [_hash(word, *next(hashes)) for word in (master_seed & _M32, master_seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(hashes)))
    pool_column = np.array(pool, dtype=np.uint64)[:, None]
    lanes = _mix(pool_column, _hash(keys & _M32, *_LOW_WORD))
    high = keys >> 32
    if high.any():
        rows = high > 0
        lanes[:, rows] = _mix(lanes[:, rows], _hash(high[rows], *_HIGH_WORD))
    # generate_state: 8 words from the cycled pool, paired little-endian
    words = _hash(lanes, *_STATE_WORDS).reshape(4, 2, -1)
    return (words[:, 0] | words[:, 1] << 32).T


@cache
def _seed_words() -> type:
    """The class that hands a stream's four seed words to PCG64 as a seed
    sequence: PCG64 seeds itself from ``generate_state(4, np.uint64)`` (its
    srandom), so it starts where it starts from the SeedSequence that gave
    the words.  Built on first use, since numpy.random loads lazily and a
    run that draws nothing need not pay for it."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return SeedWords


def _bit_generators(streams: StreamRange) -> Iterator[np.random.PCG64]:
    """The PCG64s of a StreamRange's streams, built one at a time, each in
    the state ``RngStream(master_seed, i)`` starts in.  One ``_stream_words``
    hash seeds them all (about 2 us per stream against about 20 us for a
    ``SeedSequence``)."""
    keys = np.fromiter(range(streams.start, streams.stop), np.uint64, len(streams))
    # PCG64 reads the words' memory: each row must be contiguous
    words = np.ascontiguousarray(_stream_words(streams.master_seed & _MASK64, keys))
    seed_words = _seed_words()
    return (np.random.PCG64(seed_words(row)) for row in words)


class ExhaustiveDriver(_ChoiceDriver):
    """Depth-first enumeration of every choice path.

    Use through :func:`exhaust`; direct use follows the replay protocol:
    run the target function, read ``path_weight()``, then ``advance()`` to the
    next path until it returns False.
    """

    __slots__ = ("_path", "_cursor")

    def __init__(self) -> None:
        self._path: list[list[int]] = []  # [current choice, option count]
        self._cursor = 0

    def rewind(self) -> None:
        self._cursor = 0

    def index(self, k: int) -> int:
        if k <= 0:
            raise ValueError("index() needs a positive option count")
        depth = self._cursor
        self._cursor += 1
        if depth < len(self._path):
            choice, recorded_k = self._path[depth]
            if recorded_k != k:
                raise RuntimeError(
                    "non-deterministic choice structure: option count changed on replay"
                )
            return choice
        self._path.append([0, k])
        return 0

    def indices(self, sizes: np.ndarray) -> np.ndarray:
        """``index(k)`` for each k of sizes, in order, as an int64 array."""
        return np.array([self.index(k) for k in sizes.tolist()], dtype=np.int64)

    def path_weight(self) -> Fraction:
        denom = 1
        for _, k in self._path[: self._cursor]:
            denom *= k
        return Fraction(1, denom)

    def advance(self) -> bool:
        """Move to the next path (odometer over the recorded choices)."""
        path = self._path
        while path:
            last = path[-1]
            if last[0] + 1 < last[1]:
                last[0] += 1
                self._cursor = 0
                return True
            path.pop()
        return False


Driver = MonteCarloDriver | ExhaustiveDriver


def _as_driver(rng: RngStream | Driver) -> Driver:
    return MonteCarloDriver(rng) if isinstance(rng, RngStream) else rng


T = TypeVar("T")


def exhaust(fn: Callable[[ExhaustiveDriver], T]) -> Iterator[tuple[T, Fraction]]:
    """Run fn over every choice path, yielding (result, exact probability).

    fn must be a pure function of its driver's choices.  The yielded weights
    sum to exactly 1.
    """
    driver = ExhaustiveDriver()
    while True:
        driver.rewind()
        result = fn(driver)
        yield result, driver.path_weight()
        if not driver.advance():
            return


def law_of(fn: Callable[[ExhaustiveDriver], T]) -> dict[T, Fraction]:
    """Exact distribution of fn's return value over all choice paths."""
    masses: dict[T, Fraction] = {}
    for value, weight in exhaust(fn):
        masses[value] = masses.get(value, Fraction(0)) + weight
    return masses
