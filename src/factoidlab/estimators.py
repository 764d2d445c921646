"""Training samples, the monofact estimator, and missing-mass bounds.

The monofact estimate is the fraction of training draws whose (non-empty)
factoid appears exactly once in the sample. It is the Good-Turing
estimate of the missing mass, i.e. of the probability that a fresh draw
was never seen in training. The radius functions give the concentration
widths under which |estimate - missing mass| falls with probability
1 - delta; the harness validates both empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dist import BOTTOM, MATERIALIZE_LIMIT, FactoidDist, FactoidUniverse, with_bottom
from .errors import DistributionError, InsufficientDataError, UniverseMismatchError

__all__ = [
    "TrainingSample",
    "monofact_estimate",
    "good_turing_estimate",
    "missing_mass",
    "good_turing_radius",
    "good_turing_radius_unsimplified",
    "missing_mass_lower_radius",
    "missing_mass_lower_radius_unsimplified",
]


@dataclass(frozen=True, eq=False)
class TrainingSample:
    """An i.i.d. draw sequence plus its observed/unobserved split.

    draws is an int64 array (any integer sequence is accepted and
    range-checked); atoms holds the distinct draws in increasing order
    and counts their multiplicities. The empty fact (index 0) counts as
    observed whether or not it was drawn. The unobserved set is exposed
    lazily; on huge universes use unobserved_count and set-free mass
    computations instead.
    """

    universe: FactoidUniverse
    draws: np.ndarray
    atoms: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        draws = self.universe.atom_array(self.draws).copy()
        draws.flags.writeable = False
        atoms, counts = np.unique(draws, return_counts=True)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return self.draws.size

    @cached_property
    def observed_keys(self) -> np.ndarray:
        """Observed atoms, the empty fact included, in increasing order."""
        return with_bottom(self.atoms)

    @cached_property
    def observed(self) -> frozenset[int]:
        return frozenset(self.observed_keys.tolist())

    @property
    def observed_count(self) -> int:
        return self.observed_keys.size

    @property
    def unobserved_count(self) -> int:
        return self.universe.size - self.observed_count

    @cached_property
    def unobserved(self) -> frozenset[int]:
        if self.universe.size > MATERIALIZE_LIMIT:
            raise DistributionError(
                f"refusing to materialize unobserved set over universe of size {self.universe.size}"
            )
        return frozenset(self.universe.indices()) - self.observed


def monofact_estimate(s: TrainingSample) -> float:
    """Fraction of draws whose non-empty factoid occurs exactly once."""
    if s.n == 0:
        raise InsufficientDataError("monofact estimate needs at least one draw")
    singles = int(np.count_nonzero((s.counts == 1) & (s.atoms != BOTTOM)))
    return singles / s.n


def good_turing_estimate(s: TrainingSample) -> float:
    """Fraction of draws that are unique in the sample, the empty fact
    included. Differs from the monofact estimate by at most 1/n."""
    if s.n == 0:
        raise InsufficientDataError("Good-Turing estimate needs at least one draw")
    singles = int(np.count_nonzero(s.counts == 1))
    return singles / s.n


def missing_mass(p: FactoidDist, s: TrainingSample) -> float:
    """Probability mass of factoids never observed in the sample.

    Computed by summing p over its own explicit atoms outside the
    observed set plus the background of the remaining unobserved atoms,
    so no huge complement set is ever built.
    """
    if p.universe != s.universe:
        raise UniverseMismatchError(
            f"universe mismatch: {p.universe.size} vs {s.universe.size}"
        )
    observed = s.observed_keys
    seen = np.isin(p.keys, observed, assume_unique=True, kind="sort")
    special_out = math.fsum(p.values[~seen].tolist())
    if p.background == 0.0:
        return special_out
    n_obs_plain = observed.size - int(np.count_nonzero(seen))
    n_plain_out = (p.universe.size - p.keys.size) - n_obs_plain
    return special_out + p.background * n_plain_out


def _check_delta(delta: float, upper: float) -> None:
    if not 0.0 < delta <= upper:
        raise DistributionError(f"delta must be in (0, {upper}], got {delta}")


def good_turing_radius(delta: float, n: int) -> float:
    """Two-sided width: |estimate - missing mass| <= 3*sqrt(ln(4/delta)/n)
    with probability at least 1 - delta."""
    _check_delta(delta, 1.0)
    if n < 1:
        raise InsufficientDataError(f"n must be >= 1, got {n}")
    return 3.0 * math.sqrt(math.log(4.0 / delta) / n)


def good_turing_radius_unsimplified(delta: float, n: int) -> float:
    """Sharper two-sided width 1/n + 2.42*sqrt(ln(4/delta)/n); the
    simplified 3*sqrt form above dominates it for n > 4.29."""
    _check_delta(delta, 1.0)
    if n < 1:
        raise InsufficientDataError(f"n must be >= 1, got {n}")
    return 1.0 / n + 2.42 * math.sqrt(math.log(4.0 / delta) / n)


def missing_mass_lower_radius(delta: float, n: int) -> float:
    """One-sided width: missing mass >= estimate - sqrt(6*ln(2/delta)/n)
    with probability at least 1 - delta, for delta <= 1/3.

    Bound evaluators pass delta/3 here, which turns the log term into
    ln(6/original delta).
    """
    _check_delta(delta, 1.0 / 3.0)
    if n < 1:
        raise InsufficientDataError(f"n must be >= 1, got {n}")
    return math.sqrt(6.0 * math.log(2.0 / delta) / n)


def missing_mass_lower_radius_unsimplified(delta: float, n: int) -> float:
    """Sharper one-sided width 1/n + 2.14*sqrt(ln(2/delta)/n)."""
    _check_delta(delta, 1.0)
    if n < 1:
        raise InsufficientDataError(f"n must be >= 1, got {n}")
    return 1.0 / n + 2.14 * math.sqrt(math.log(2.0 / delta) / n)
