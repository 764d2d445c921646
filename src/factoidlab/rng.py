"""Deterministic random number generation.

Every stochastic operation in the package takes a SeededRng. Child
generators are derived from (seed, stream indices), never by splitting a
shared stream, so parallel trials produce the same numbers regardless of
execution order.

A stream is numpy's documented one: PCG64 seeded by
SeedSequence(seed, spawn_key=key). `SeededRng.children` derives many
sibling streams at once: the words they share are hashed once with Python
ints, the rest of SeedSequence's pool hash runs for all of them in one
pass of uint32 array arithmetic, and each PCG64 is seeded from its four
words directly; the streams are bit-identical to `child`'s.
numpy.random is imported on first use, not with this module.
"""

from __future__ import annotations

import functools
import operator
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError

__all__ = ["SeededRng"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_WORD_LIMIT = 1 << 32
#: indices per batch of `children`: bounds the working arrays, while the
#: per-batch constant (the shared prefix of the hash) stays negligible
_CHILD_BATCH = 4096


class SeededRng:
    """A numpy PCG64 generator with order-independent child derivation.

    The same (seed, key path) always yields the identical sample stream,
    on every platform. Instances are single-owner: share the seed and
    derive children instead of sharing a live generator across threads.
    The generator is built on first use of `.generator`, so a parent
    that only derives children never seeds one.
    """

    __slots__ = ("_seed", "_key", "_words", "_generator")

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        # operator.index takes ints and numpy integers; a float or any
        # other value is refused rather than truncated
        try:
            self._seed = operator.index(seed)
            self._key = tuple(map(operator.index, _key))
        except TypeError:
            raise ConfigError(
                f"seed and stream key entries must be integers, got {seed!r} and {_key!r}"
            ) from None
        if self._seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self._seed}")
        if self._key and min(self._key) < 0:
            raise ConfigError(f"stream key entries must be >= 0, got {self._key}")
        #: the four uint64 words PCG64 is seeded with, once known
        self._words = None
        self._generator = None

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def key(self) -> tuple[int, ...]:
        return self._key

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = _words_seeder()(self._state_words())
        return self._generator

    def _state_words(self) -> np.ndarray:
        if self._words is None:
            self._words = _literal_words(self._seed, self._key)
        return self._words

    def child(self, *indices: int) -> "SeededRng":
        """Derive an independent stream for (this seed, key + indices).

        Derivation does not consume state from this generator, so
        child(i) is the same stream no matter how many draws happened
        before or after.
        """
        return SeededRng(self._seed, self._key + indices)

    def children(self, indices: Iterable[int]) -> Iterator["SeededRng"]:
        """Lazily, in order, child(i) for each i in indices.

        The seed words of a batch of indices are computed in one pass;
        an index of 2^32 or more takes the literal SeedSequence route.
        Each batch is checked (integers, >= 0) before any of its children
        exists, and this stream's seed and key were checked when it was
        built, so the children are assembled without re-running
        __init__'s checks.
        """
        it = iter(indices)
        seed, key = self._seed, self._key
        while chunk := tuple(islice(it, _CHILD_BATCH)):
            try:
                batch = tuple(map(operator.index, chunk))
            except TypeError:
                raise ConfigError(f"stream key entries must be integers, got {chunk!r}") from None
            if min(batch) < 0:
                raise ConfigError(f"stream key entries must be >= 0, got {min(batch)}")
            words = _spawned_words(seed, key, batch)
            for i, row in zip(batch, words):
                rng = object.__new__(SeededRng)
                rng._seed = seed
                rng._key = key + (i,)
                rng._words = row if i < _WORD_LIMIT else None
                rng._generator = None
                yield rng

    def fingerprint(self) -> int:
        """Stable 64-bit digest of this stream's identity, for run records."""
        lo, hi = self._state_words()[:2].tolist()
        return int(lo ^ (hi << 1)) & (2**64 - 1)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self._seed}, key={self._key})"


# ---------------------------------------------------------------------------
# Seeding: numpy's SeedSequence, literal and batched
# ---------------------------------------------------------------------------


def _literal_words(seed: int, key: tuple[int, ...]) -> np.ndarray:
    """PCG64's seed words through numpy's own SeedSequence."""
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)


def _uint32_words(value: int) -> list[int]:
    """An int as SeedSequence reads it: 32-bit words, least significant
    first; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _spawned_words(seed: int, key: tuple[int, ...], indices: tuple[int, ...]) -> np.ndarray:
    """PCG64's seed words of SeedSequence(seed, spawn_key=key + (i,)) for
    every i in indices, as a (len(indices), 4) uint64 array.

    SeedSequence assembles its entropy as the seed's words, zero-padded to
    the pool size because a spawn key is present, then each key entry's
    words. Every row shares all of it but the last word, i (rows with
    i >= 2^32 are computed but wrong: their index spans two words). The
    hash constants never depend on the data, so the shared words are
    hashed once with Python ints, and only the last word's four mixes and
    the eight state words run on arrays, one row per pool word or state
    word.
    """
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    prefix = run + [w for k in key for w in _uint32_words(k)]

    hash_const = _INIT_A

    def next_consts(mult: int) -> tuple[int, int]:
        """(the constant xored into a value, the one it is multiplied by),
        advancing the running hash constant."""
        nonlocal hash_const
        xor = hash_const
        hash_const = (hash_const * mult) & _MASK32
        return xor, hash_const

    def hashmix(value: int) -> int:
        xor, mult = next_consts(_MULT_A)
        value = ((value ^ xor) * mult) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    # SeedSequence.mix_entropy; entropy is always longer than the pool here
    pool = [hashmix(prefix[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in prefix[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # the last word, each row's index, hashed into each pool word in turn:
    # row d of the (4, n) arrays is pool word d
    last = np.array([i & _MASK32 for i in indices], dtype=np.uint32)
    xor, mult = np.array([next_consts(_MULT_A) for _ in range(_POOL_SIZE)], dtype=np.uint32).T
    hashed = (last ^ xor[:, None]) * mult[:, None]
    hashed ^= hashed >> _XSHIFT
    left = np.array([(_MIX_MULT_L * x) & _MASK32 for x in pool], dtype=np.uint32)
    mixed = left[:, None] - _MIX_MULT_R * hashed
    mixed ^= mixed >> _XSHIFT

    # SeedSequence.generate_state(4, uint64): eight uint32 words cycling
    # the pool, paired little-endian into uint64 by arithmetic
    hash_const = _INIT_B
    xor, mult = np.array([next_consts(_MULT_B) for _ in range(8)], dtype=np.uint32).T
    state = (np.tile(mixed, (2, 1)) ^ xor[:, None]) * mult[:, None]
    state ^= state >> _XSHIFT
    state = state.astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


@functools.cache
def _words_seeder() -> Callable[[np.ndarray], np.random.Generator]:
    """Generator(PCG64(words)) through a minimal ISeedSequence that hands
    PCG64 its precomputed words; built on first use so that importing
    this module does not load numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed seed words serve PCG64's request only")
            return self.words

    return lambda words: Generator(PCG64(_StateWords(words)))
