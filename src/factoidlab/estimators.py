"""Training samples, the monofact estimator, and missing-mass bounds.

The monofact estimate is the fraction of training draws whose (non-empty)
factoid appears exactly once in the sample. It is the Good-Turing
estimate of the missing mass, i.e. of the probability that a fresh draw
was never seen in training. The radius functions give the concentration
widths under which |estimate - missing mass| falls with probability
1 - delta; the harness validates both empirically.

A training sample holds its distinct atoms and their counts. The
unobserved atoms are counted, never listed, so nothing here has the size
of the universe. The suites read each sample's missing mass off its row
of slot counts (_SlotMasses): the weights of its table's unseen slots,
summed from the shorter side, with no search of the sample in p's keys.
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
    _InverseCdf,
    _chunks,
    _count_rows,
    with_bottom,
)
from .errors import DistributionError, InsufficientDataError, check_count
from .rng import SeededRng

__all__ = [
    "TrainingSample",
    "monofact_estimate",
    "good_turing_radius",
    "missing_mass_lower_radius",
]


@dataclass(frozen=True, eq=False, init=False)
class TrainingSample:
    """How often each atom was drawn in n i.i.d. draws, plus the
    observed/unobserved split.

    atoms holds the distinct draws in increasing order (int64) and counts
    their multiplicities (int64, each at least 1). There are two
    constructors:

    * TrainingSample(universe, draws) takes the draw sequence (any
      integer sequence), checks that its atoms are integers inside the
      universe, and counts it;
    * TrainingSample._counted(universe, atoms, counts) takes counts
      already known valid and checks nothing: the chunked draw route
      (harness._drawn) builds every trial's sample this way from a
      counted row (dist._count_rows) and never holds the n draws. The
      checked form of this build, for counts from outside the library,
      is a test-side reference (tests/literal.py).

    Every reader in this package depends on the counts alone. draws is
    the sequence given, or for a sample built from counts the atoms
    repeated in increasing order, built on first access. All arrays are
    read-only and alias no array a caller can write (the draws are
    copied), so the cached views below cannot go stale. The
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
    def _counted(
        cls, universe: FactoidUniverse, atoms: np.ndarray, counts: np.ndarray
    ) -> TrainingSample:
        """The sample whose distinct atoms were drawn counts[i] times each,
        built with no checks on arrays already known valid: int64 atoms,
        strictly increasing and inside the universe, and parallel int64
        counts, each >= 1, both C-contiguous. They are made read-only, not
        copied, so neither may be an array anyone else can write."""
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


class _SlotMasses:
    """Missing masses read off counted rows (dist._count_rows): the fsum
    of the weights of a row's unseen slots in its table, for tables whose
    slots hold no empty fact, so every unseen slot's weight is missing
    mass.

    The sum is taken over the shorter side: the unseen weights directly,
    or the table's expanded total (_expanded_total) minus the seen
    weights. Both have the exact sum of the unseen weights, which fsum
    rounds correctly, so the float is the same. The expansion and the
    negated weights are worked out when the seen side is the shorter on a
    row counted against the same weights array as the row before, and kept
    while the rows do so, so a table drawn for one row never pays for them.
    """

    def __init__(self):
        self._weights: np.ndarray | None = None
        self._total: tuple[tuple[float, ...], np.ndarray] | None = None

    def __call__(self, table: _InverseCdf, seen: np.ndarray) -> float:
        weights = table.weights
        repeated, self._weights = weights is self._weights, weights
        if not repeated:
            self._total = None
        elif 2 * seen.size < weights.size:
            if self._total is None:
                self._total = _expanded_total(weights), -weights
            parts, negated = self._total
            return math.fsum(chain(parts, memoryview(negated[seen])))
        unseen = np.ones(weights.size, dtype=bool)
        unseen[seen] = False
        return math.fsum(memoryview(weights[unseen]))


def _gt_estimates(
    p: FactoidDist, n: int, streams: Iterable[SeededRng]
) -> Iterator[tuple[float, float]]:
    """(monofact_estimate, missing mass) of n draws from a sparse p with no
    mass on the empty fact, for each stream in order: each generator fills
    its row of n uniforms, and each row is counted against p's table
    (dist._count_rows) with no TrainingSample built. p is refused as the
    samplers refuse it, before any stream is read.
    """
    table = p._inverse_cdf
    masses = _SlotMasses()

    def draw(rng: SeededRng, row: np.ndarray) -> tuple[None, int]:
        rng.generator.random(out=row)
        return None, 0  # p keeps its table, whatever the chunk

    for chunk, u in _chunks(streams, n, draw):
        for seen, counts in _count_rows([table] * len(chunk), u):
            yield int(np.count_nonzero(counts == 1)) / n, masses(table, seen)


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

    The concentration suite passes delta/3 here, which turns the log term
    into ln(6/original delta); bounds.bound_terms computes that width itself.
    """
    _check_delta(delta, 1.0 / 3.0)
    check_count(n, "n", 1, error=InsufficientDataError)
    return math.sqrt(6.0 * math.log(2.0 / delta) / n)
