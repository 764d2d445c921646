"""Every count parameter follows errors.check_count: an integer (int or
numpy integer) in its range, or the calling module's own error at the
call. NaN, a fraction or a numeric string used to pass the hand-written
comparisons and then fail a bound, pass a check that drew nothing, or
die inside numpy with a bare TypeError."""

import math

import numpy as np
import pytest

from factoidlab.bounds import (
    BoundParams,
    clopper_pearson,
    verify_lemma_meat_exhaustive,
    verify_theorem_main_mc,
)
from factoidlab.calibration import AdaptiveBinning, Partition
from factoidlab.dist import (
    FactoidUniverse,
    dist_from_weights,
    random_dist,
    sample_counts,
    sample_iid,
    tv_distance_forms,
    uniform_dist,
)
from factoidlab.errors import (
    ConfigError,
    DistributionError,
    InsufficientDataError,
    PartitionError,
    check_count,
)
from factoidlab.estimators import good_turing_radius, missing_mass_lower_radius
from factoidlab.harness import (
    BoundSettings,
    ExperimentConfig,
    run_gt_concentration,
    run_upper_bound_check,
)
from factoidlab.lms import MonofactMemorizer
from factoidlab.rng import SeededRng
from factoidlab.worlds import ExplicitWorld, PermutedPowerLawWorld, W5World, WorldInstance

WORLD = PermutedPowerLawWorld(500, 20, 0.0)
U = FactoidUniverse(51)
#: no mass on the empty fact, as the concentration suite requires
P = dist_from_weights(U, {y: 1.0 for y in range(1, U.size)})


def config(**fields):
    kwargs = dict(
        world=WORLD, n=30, algorithm=MonofactMemorizer(), bound=BoundSettings(), trials=2,
        master_seed=1,
    )
    return ExperimentConfig(**{**kwargs, **fields})


def bound_params(**fields):
    return BoundParams(**{**dict(delta=0.1, b=10, epsilon=0.1, s=2.0, r=1.0, n=30), **fields})


def theorem_main(fact_count=20, samples=50):
    g = uniform_dist(U)
    partition = Partition(U, np.arange(U.size) % 3)
    return verify_theorem_main_mc(U, fact_count, {0, 1, 2}, g, partition, samples, SeededRng(4))


def lemma_sweep(max_universe):
    u = FactoidUniverse(3)
    nu = ExplicitWorld(((1.0, WorldInstance(random_dist(u, SeededRng(5)))),))
    return verify_lemma_meat_exhaustive(nu, max_universe=max_universe)


#: (call taking the count, the error it raises, a numpy integer it accepts)
COUNTS = {
    "ExperimentConfig.n": (lambda v: config(n=v), ConfigError, 3),
    "ExperimentConfig.trials": (lambda v: config(trials=v), ConfigError, 3),
    "ExperimentConfig.seed": (lambda v: config(master_seed=v), ConfigError, 3),
    "BoundSettings.b": (lambda v: config(bound=BoundSettings(b=v)), DistributionError, 3),
    "BoundParams.b": (lambda v: bound_params(b=v), DistributionError, 3),
    "BoundParams.n": (lambda v: bound_params(n=v), DistributionError, 3),
    "BoundParams.k_types": (lambda v: bound_params(k_types=v), DistributionError, 3),
    "AdaptiveBinning.b": (AdaptiveBinning, PartitionError, 3),
    "FactoidUniverse.size": (FactoidUniverse, DistributionError, 3),
    "PermutedPowerLawWorld.universe_size": (
        lambda v: PermutedPowerLawWorld(v, 1), DistributionError, 3
    ),
    "PermutedPowerLawWorld.fact_count": (
        lambda v: PermutedPowerLawWorld(10**5, v), DistributionError, 3
    ),
    **{
        f"W5World.{name}": (
            lambda v, i=i: W5World(*(v if j == i else 2 for j in range(4))), DistributionError, 3
        )
        for i, name in enumerate(("n_people", "n_dates", "n_foods", "n_locations"))
    },
    "sample_iid.n": (lambda v: sample_iid(P, v, SeededRng(0)), DistributionError, 3),
    "sample_counts.n": (lambda v: sample_counts(P, v, SeededRng(0)), DistributionError, 3),
    "random_dist.support_size": (
        lambda v: random_dist(U, SeededRng(0), support_size=v), DistributionError, 3
    ),
    "good_turing_radius.n": (lambda v: good_turing_radius(0.1, v), InsufficientDataError, 3),
    "missing_mass_lower_radius.n": (
        lambda v: missing_mass_lower_radius(0.1, v), InsufficientDataError, 3
    ),
    "clopper_pearson.successes": (lambda v: clopper_pearson(v, 10), DistributionError, 3),
    "clopper_pearson.trials": (lambda v: clopper_pearson(1, v), InsufficientDataError, 3),
    "verify_theorem_main_mc.samples": (
        lambda v: theorem_main(samples=v), InsufficientDataError, 3
    ),
    "verify_theorem_main_mc.fact_count": (
        lambda v: theorem_main(fact_count=v), DistributionError, 3
    ),
    "tv_distance_forms.exhaustive_limit": (
        lambda v: tv_distance_forms(P, uniform_dist(U), exhaustive_limit=v), DistributionError, 3
    ),
    "verify_lemma_meat_exhaustive.max_universe": (lemma_sweep, DistributionError, 3),
    "run_gt_concentration.trials": (
        lambda v: run_gt_concentration(P, 30, 0.1, v, 5), InsufficientDataError, 100
    ),
    "run_upper_bound_check.trials": (
        lambda v: run_upper_bound_check(WORLD, 30, 0.1, v, 5), InsufficientDataError, 3
    ),
}


@pytest.mark.parametrize("bad", [math.nan, 2.5, "3"], ids=["nan", "fraction", "string"])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_non_integer_count_raises_at_the_call(name, bad):
    call, error, _ = COUNTS[name]
    with pytest.raises(error, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_numpy_integer_count_is_accepted(name):
    call, _, good = COUNTS[name]
    call(np.int64(good))


def test_integral_float_is_refused_not_truncated():
    with pytest.raises(DistributionError, match="must be an integer"):
        check_count(3.0, "n", 1)
    assert check_count(np.uint8(3), "n", 1) == 3


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, "n", 1), "n must be >= 1, got 0"),
        ((0, "fact count", 1, 9), r"fact count 0 must be in \[1, 9\]"),
        ((10, "fact count", 1, 9), r"fact count 10 must be in \[1, 9\]"),
        ((0, "b", 1, 9, "bins"), "b must be >= 1, got 0"),
        ((10, "b", 1, 9, "bins"), "b 10 exceeds the limit of 9 bins"),
    ],
)
def test_out_of_range_messages(args, message):
    with pytest.raises(DistributionError, match=message):
        check_count(*args)


def test_w5_dimensions_are_kept_as_python_ints():
    # numpy's int64 product of these wraps to 0 pairs
    with pytest.raises(DistributionError, match="exceeds the limit"):
        W5World(np.int64(2**32), np.int64(2**32), 1, 1)
    assert type(W5World(np.int64(3), 2, 2, 2).n_people) is int
