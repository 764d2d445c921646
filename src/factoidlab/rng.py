"""Deterministic random number generation.

Every stochastic operation in the package takes a SeededRng. Child
generators are derived from (seed, stream indices), never by splitting a
shared stream, so parallel trials produce the same numbers regardless of
execution order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["SeededRng"]


class SeededRng:
    """A numpy PCG64 generator with order-independent child derivation.

    The same (seed, key path) always yields the identical sample stream,
    on every platform. Instances are single-owner: share the seed and
    derive children instead of sharing a live generator across threads.
    """

    __slots__ = ("_seed", "_key", "_seq", "generator")

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self._seed = int(seed)
        if self._seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self._seed}")
        self._key = tuple(int(k) for k in _key)
        self._seq = np.random.SeedSequence(self._seed, spawn_key=self._key)
        self.generator = np.random.Generator(np.random.PCG64(self._seq))

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def key(self) -> tuple[int, ...]:
        return self._key

    def child(self, *indices: int) -> "SeededRng":
        """Derive an independent stream for (this seed, key + indices).

        Derivation does not consume state from this generator, so
        child(i) is the same stream no matter how many draws happened
        before or after.
        """
        return SeededRng(self._seed, self._key + indices)

    def fingerprint(self) -> int:
        """Stable 64-bit digest of this stream's identity, for run records."""
        lo, hi = self._seq.generate_state(2, dtype=np.uint64)[:2].tolist()
        return int(lo ^ (hi << 1)) & (2**64 - 1)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self._seed}, key={self._key})"
