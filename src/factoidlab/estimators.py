"""Training samples, the monofact estimator, and missing-mass bounds.

The monofact estimate is the fraction of training draws whose (non-empty)
factoid appears exactly once in the sample. It is the Good-Turing
estimate of the missing mass, i.e. of the probability that a fresh draw
was never seen in training. The radius functions give the concentration
widths under which |estimate - missing mass| falls with probability
1 - delta; the harness validates both empirically.

A training sample holds its distinct atoms and their counts. The
unobserved atoms are counted, never listed, and the missing mass sums p
over its own explicit atoms, so nothing here has the size of the
universe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .dist import (
    BOTTOM,
    FactoidDist,
    FactoidUniverse,
    _lookup,
    _sample_count_runs,
    _sorted_keys,
    with_bottom,
)
from .errors import DistributionError, InsufficientDataError, UniverseMismatchError, check_count
from .rng import SeededRng

__all__ = [
    "TrainingSample",
    "monofact_estimate",
    "missing_mass",
    "good_turing_radius",
    "missing_mass_lower_radius",
]


@dataclass(frozen=True, eq=False, init=False)
class TrainingSample:
    """How often each atom was drawn in n i.i.d. draws, plus the
    observed/unobserved split.

    atoms holds the distinct draws in increasing order (int64) and counts
    their multiplicities (int64, each at least 1). There are two
    constructors, which validate alike (integer atoms inside the
    universe):

    * TrainingSample(universe, draws) takes the draw sequence (any
      integer sequence) and counts it;
    * TrainingSample.from_counts(universe, atoms, counts) takes the
      counts themselves, as dist.sample_counts returns them; the trial
      path builds every sample this way and never holds the n draws.

    Every reader in this package depends on the counts alone. draws is
    the sequence given, or for a sample built from counts the atoms
    repeated in increasing order, built on first access. All arrays are
    copied and read-only, so the cached views below cannot go stale. The
    empty fact (index 0) counts as observed whether or not it was drawn.
    The unobserved atoms are only counted (unobserved_count), never
    listed: on a huge universe they are nearly all of it.
    """

    universe: FactoidUniverse
    n: int
    atoms: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    def __init__(self, universe: FactoidUniverse, draws):
        draws = universe.atom_array(draws).copy()
        draws.flags.writeable = False
        self._set_counts(universe, *np.unique(draws, return_counts=True))
        object.__setattr__(self, "draws", draws)

    @classmethod
    def from_counts(cls, universe: FactoidUniverse, atoms, counts) -> TrainingSample:
        """The sample whose distinct atoms, in strictly increasing order,
        were drawn counts[i] >= 1 times each."""
        raw_counts = np.asarray(counts)
        if raw_counts.size and raw_counts.dtype.kind not in "iu":
            raise DistributionError(f"counts must be integers, got dtype {raw_counts.dtype}")
        # astype copies, so the caller's arrays stay the caller's
        atoms, counts = _sorted_keys(universe, atoms, raw_counts.astype(np.int64))
        if counts.size and counts.min() < 1:
            raise DistributionError(f"counts must be >= 1, got {counts.min()}")
        sample = cls.__new__(cls)
        sample._set_counts(universe, atoms, counts)
        return sample

    def _set_counts(self, universe: FactoidUniverse, atoms: np.ndarray, counts: np.ndarray):
        atoms.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "n", int(counts.sum()))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def draws(self) -> np.ndarray:
        draws = np.repeat(self.atoms, self.counts)
        draws.flags.writeable = False
        return draws

    @cached_property
    def observed_keys(self) -> np.ndarray:
        """Observed atoms, the empty fact included, in increasing order."""
        keys = with_bottom(self.atoms)
        keys.flags.writeable = False
        return keys

    @cached_property
    def observed(self) -> frozenset[int]:
        return frozenset(self.observed_keys.tolist())

    @property
    def observed_count(self) -> int:
        return self.observed_keys.size

    @property
    def unobserved_count(self) -> int:
        return self.universe.size - self.observed_count


def monofact_estimate(s: TrainingSample) -> float:
    """Fraction of draws whose non-empty factoid occurs exactly once."""
    if s.n == 0:
        raise InsufficientDataError("monofact estimate needs at least one draw")
    singles = int(np.count_nonzero((s.counts == 1) & (s.atoms != BOTTOM)))
    return singles / s.n


def missing_mass(p: FactoidDist, s: TrainingSample) -> float:
    """Probability mass of factoids never observed in the sample.

    Computed by summing p over its own explicit atoms outside the
    observed set plus the background of the remaining unobserved atoms,
    so no huge complement set is ever built. The explicit part is the
    correctly rounded sum of the unseen weights, fsum over them in
    O(|p.keys|).
    """
    if p.universe != s.universe:
        raise UniverseMismatchError(
            f"universe mismatch: {p.universe.size} vs {s.universe.size}"
        )
    observed = s.observed_keys
    pos, hit = _lookup(p.keys, observed)
    seen = pos[hit]
    unseen = np.ones(p.keys.size, dtype=bool)
    unseen[seen] = False
    special_out = math.fsum(memoryview(p.values[unseen]))
    if p.background == 0.0:
        return special_out
    n_obs_plain = observed.size - seen.size
    n_plain_out = (p.universe.size - p.keys.size) - n_obs_plain
    return special_out + p.background * n_plain_out


def _expanded_total(values: np.ndarray) -> tuple[float, ...]:
    """Non-overlapping floats whose exact sum is the exact sum of values,
    largest first.

    Each part is the correctly rounded rest of the exact total after the
    parts before it, so the rest shrinks by about 2^-53 a part and reaches
    0 (every weight is a multiple of 2^-1074)."""
    parts: list[float] = []
    while (rest := math.fsum(chain((-x for x in parts), memoryview(values)))) != 0.0:
        parts.append(rest)
    return tuple(parts)


def _gt_estimates(
    p: FactoidDist, n: int, streams: Iterable[SeededRng]
) -> Iterator[tuple[float, float]]:
    """(monofact_estimate, missing_mass) of the sample
    sample_counts(p, n, rng) for each stream, in order, for a sparse p
    with no mass on the empty fact: the same floats, read off each
    stream's runs (dist._sample_count_runs) with no TrainingSample built.

    An atom drawn once is a singleton. The missing mass is p's total
    expansion minus the seen weights, in O(n) a sample: its exact value
    is the sum of the unseen weights, which missing_mass rounds
    correctly too, so the float is the same.
    """
    parts = _expanded_total(p.values)
    for weights, counts in _sample_count_runs(p, n, streams):
        yield np.count_nonzero(counts == 1) / n, math.fsum(chain(parts, memoryview(-weights)))


def _check_delta(delta: float, upper: float) -> None:
    if not 0.0 < delta <= upper:
        raise DistributionError(f"delta must be in (0, {upper}], got {delta}")


def good_turing_radius(delta: float, n: int) -> float:
    """Two-sided width: |estimate - missing mass| <= 3*sqrt(ln(4/delta)/n)
    with probability at least 1 - delta."""
    _check_delta(delta, 1.0)
    check_count(n, "n", 1, error=InsufficientDataError)
    return 3.0 * math.sqrt(math.log(4.0 / delta) / n)


def missing_mass_lower_radius(delta: float, n: int) -> float:
    """One-sided width: missing mass >= estimate - sqrt(6*ln(2/delta)/n)
    with probability at least 1 - delta, for delta <= 1/3.

    Bound evaluators pass delta/3 here, which turns the log term into
    ln(6/original delta).
    """
    _check_delta(delta, 1.0 / 3.0)
    check_count(n, "n", 1, error=InsufficientDataError)
    return math.sqrt(6.0 * math.log(2.0 / delta) / n)
