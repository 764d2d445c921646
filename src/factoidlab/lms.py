"""Learning algorithms: training sample in, generated distribution out.

The monofact memorizer is the interesting one: it spreads the monofact
estimate uniformly over unobserved factoids and the remaining mass
uniformly over observed ones. With certainty its hallucination rate
stays at or below the monofact estimate, and with high probability it
is nearly calibrated; together these cap how strong any lower bound on
calibrated hallucination can be.

The oracle returns the hidden truth and is flagged as a non-algorithm:
no map from training data alone can implement it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .dist import BOTTOM, FactoidDist, dist_from_arrays, uniform_dist, with_bottom
from .errors import ConfigError, DistributionError, UniverseMismatchError
from .estimators import TrainingSample, monofact_estimate

__all__ = [
    "Empirical",
    "Laplace",
    "Uniform",
    "MonofactMemorizer",
    "Oracle",
    "YayMixture",
    "LmAlgorithm",
    "train",
]


@dataclass(frozen=True)
class Empirical:
    """g(y) = multiplicity(y) / n."""


@dataclass(frozen=True)
class Laplace:
    """g(y) = (multiplicity(y) + alpha) / (n + alpha |Y|)."""

    alpha: float = 0.5

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ConfigError(f"laplace smoothing needs alpha > 0, got {self.alpha}")


@dataclass(frozen=True)
class Uniform:
    """g(y) = 1 / |Y| regardless of the sample."""


@dataclass(frozen=True)
class MonofactMemorizer:
    """Monofact mass spread over unobserved atoms, the rest over observed."""


@dataclass(frozen=True)
class Oracle:
    """Returns the hidden fact distribution; not realizable from data."""

    is_algorithm: bool = field(default=False, init=False)


@dataclass(frozen=True)
class YayMixture:
    """With probability lam emit the empty fact, else defer to base."""

    base: "LmAlgorithm"
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"mixture weight must be in [0,1], got {self.lam}")


LmAlgorithm = Union[Empirical, Laplace, Uniform, MonofactMemorizer, Oracle, YayMixture]


def train(
    alg: LmAlgorithm, sample: TrainingSample, truth: Optional[FactoidDist] = None
) -> FactoidDist:
    """Produce the generated factoid distribution for the algorithm.

    truth is consulted only by the oracle; every honest algorithm sees
    the training sample alone.
    """
    universe = sample.universe
    n = sample.n
    if isinstance(alg, Empirical):
        if n == 0:
            raise ConfigError("empirical algorithm needs a non-empty sample")
        return dist_from_arrays(universe, sample.atoms, sample.counts / n)
    if isinstance(alg, Laplace):
        denom = n + alg.alpha * universe.size
        return dist_from_arrays(
            universe, sample.atoms, (sample.counts + alg.alpha) / denom, alg.alpha / denom
        )
    if isinstance(alg, Uniform):
        return uniform_dist(universe)
    if isinstance(alg, MonofactMemorizer):
        mf = monofact_estimate(sample)
        n_obs = sample.observed_count
        n_unobs = sample.unobserved_count
        if n_unobs == 0:
            raise DistributionError("memorizer needs at least one unobserved factoid")
        observed_share = (1.0 - mf) / n_obs
        return dist_from_arrays(
            universe, sample.observed_keys, np.full(n_obs, observed_share), mf / n_unobs
        )
    if isinstance(alg, Oracle):
        if truth is None:
            raise ConfigError("oracle algorithm requires the true distribution")
        if truth.universe != universe:
            raise UniverseMismatchError("oracle truth universe does not match the sample")
        return truth
    if isinstance(alg, YayMixture):
        base_g = train(alg.base, sample, truth)
        lam = alg.lam
        keys, values = base_g.keys, (1.0 - lam) * base_g.values
        bottom = lam + (1.0 - lam) * base_g.weight(BOTTOM)
        if keys.size and keys[0] == BOTTOM:
            values[0] = bottom
        else:
            keys, values = with_bottom(keys), np.concatenate(([bottom], values))
        return dist_from_arrays(universe, keys, values, (1.0 - lam) * base_g.background)
    raise ConfigError(f"unknown algorithm {alg!r}")

