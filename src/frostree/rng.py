"""Reproducible randomness and exhaustive choice enumeration.

Every randomized construction in this package consumes randomness through a
*driver* exposing three primitives:

* ``index(k)``    -- uniform integer in ``[0, k)``
* ``indices(sizes)`` -- one ``index(k)`` per entry k of ``sizes``, in order
* ``distinct_pair(k)`` -- uniform ordered pair of distinct integers in ``[0, k)``

``MonteCarloDriver`` backs them with a seeded generator, and ``index_block``
draws the same indices for many of them at once; ``ExhaustiveDriver``
replays the same construction over every possible choice path, yielding exact
rational weights.  Running one function under both drivers is how sampled laws
get certified against exact ones.  This module is the only place where a
uniform float becomes an index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_BLOCK = 4096  # uniforms drawn per MonteCarloDriver refill


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
        if self.master_seed < 0:
            raise ValueError(f"master seed must be nonnegative, got {self.master_seed}")

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
        r = self.index(k - 1)
        return a, r + 1 if r >= a else r


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
            buf = self._buf = self._gen.random(_BLOCK)
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
        return index_block((self,), sizes)[0]


def stream_drivers(master_seed: int, start: int, stop: int) -> list[MonteCarloDriver]:
    """Drivers of replicas start..stop-1; replica i draws from stream (master_seed, i)."""
    return [MonteCarloDriver(RngStream(master_seed, i)) for i in range(start, stop)]


def index_block(drivers: Sequence[MonteCarloDriver], sizes: np.ndarray) -> np.ndarray:
    """``(len(drivers), len(sizes))`` int64 array whose row r holds
    ``drivers[r].indices(sizes)``: each row takes its driver's next uniforms,
    and one ``floor(u * k)`` map (clamped to ``k - 1``) covers the block."""
    if len(sizes) and sizes.min() <= 0:
        raise ValueError("indices() needs positive option counts")
    u = np.empty((len(drivers), len(sizes)))
    for r, driver in enumerate(drivers):
        u[r] = driver.uniform_block(len(sizes))
    u *= sizes
    out = u.astype(np.int64)
    return np.minimum(out, sizes - 1, out=out)


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
