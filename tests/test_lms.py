"""Learning algorithms and hallucination rates."""

import math

import pytest

from factoidlab.calibration import ExactValueBinning
from factoidlab.dist import BOTTOM, FactoidUniverse, random_dist, sample_iid
from factoidlab.errors import ConfigError, UniverseMismatchError
from factoidlab.estimators import TrainingSample, monofact_estimate
from factoidlab.lms import (
    Empirical,
    Laplace,
    MonofactMemorizer,
    Oracle,
    Uniform,
    YayMixture,
    train,
)
from factoidlab.rng import SeededRng
from factoidlab.worlds import PermutedPowerLawWorld, sample_world
from literal import hallucination_rate, miscalibration

ALL_ALGORITHMS = [
    Empirical(),
    Laplace(0.5),
    Uniform(),
    MonofactMemorizer(),
    Oracle(),
    YayMixture(Empirical(), 0.99),
    YayMixture(MonofactMemorizer(), 0.5),
]


def make_setup(seed: int, size: int = 60, fact_count: int = 12, n: int = 25):
    rng = SeededRng(seed)
    world = sample_world(PermutedPowerLawWorld(size, fact_count, 0.0), rng)
    draws = sample_iid(world.p, n, rng)
    sample = TrainingSample(world.universe, tuple(int(y) for y in draws))
    return world, sample


class TestMemorizer:
    def test_hand_worked_distribution(self):
        # draws (a,b,a,c) in a 10-atom universe: monofact 1/2, four
        # observed atoms at 0.125 each, six unobserved at 1/12 each
        u = FactoidUniverse(10)
        s = TrainingSample(u, (1, 2, 1, 3))
        g = train(MonofactMemorizer(), s)
        for y in (0, 1, 2, 3):
            assert g.weight(y) == pytest.approx(0.125, abs=1e-12)
        for y in (4, 5, 6, 7, 8, 9):
            assert g.weight(y) == pytest.approx(0.5 / 6, abs=1e-12)

    def test_all_singletons_edge(self):
        # monofact estimate 1: observed atoms get zero mass, all mass
        # spreads over the unobserved
        u = FactoidUniverse(8)
        s = TrainingSample(u, (1, 2, 3))
        g = train(MonofactMemorizer(), s)
        assert g.weight(1) == 0.0
        assert g.weight(0) == 0.0
        assert g.weight(7) == pytest.approx(0.25, abs=1e-12)
        assert g.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_certainty_bound(self):
        for seed in range(15):
            world, sample = make_setup(seed)
            g = train(MonofactMemorizer(), sample)
            assert hallucination_rate(g, world) <= monofact_estimate(sample) + 1e-12


class TestEmpirical:
    def test_frequency_counts(self):
        u = FactoidUniverse(6)
        s = TrainingSample(u, (1, 2, 1, 3))
        g = train(Empirical(), s)
        assert g.weight(1) == 0.5
        assert g.weight(2) == 0.25
        assert g.weight(3) == 0.25

    def test_never_hallucinates(self):
        for seed in range(10):
            world, sample = make_setup(seed)
            g = train(Empirical(), sample)
            assert hallucination_rate(g, world) == pytest.approx(0.0, abs=1e-12)


class TestLaplace:
    def test_smoothed_weights(self):
        u = FactoidUniverse(6)
        s = TrainingSample(u, (1, 2, 1, 3))
        g = train(Laplace(0.5), s)
        denom = 4 + 0.5 * 6
        assert g.weight(1) == pytest.approx(2.5 / denom, abs=1e-12)
        assert g.weight(5) == pytest.approx(0.5 / denom, abs=1e-12)

    def test_hallucination_rate_closed_form(self):
        world, sample = make_setup(3)
        alpha = 0.5
        g = train(Laplace(alpha), sample)
        size = world.universe.size
        expected = world.hallucination_count * alpha / (sample.n + alpha * size)
        assert hallucination_rate(g, world) == pytest.approx(expected, abs=1e-12)

    def test_alpha_validated(self):
        with pytest.raises(ConfigError):
            Laplace(0.0)

    def test_non_finite_alpha_refused(self):
        # refused here, not inside the first trial's training
        for alpha in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite alpha"):
                Laplace(alpha)


class TestUniformAndOracle:
    def test_uniform_hallucination_share(self):
        world, sample = make_setup(4)
        g = train(Uniform(), sample)
        expected = world.hallucination_count / world.universe.size
        assert hallucination_rate(g, world) == pytest.approx(expected, abs=1e-12)

    def test_oracle_requires_truth(self):
        _, sample = make_setup(5)
        with pytest.raises(ConfigError):
            train(Oracle(), sample)

    def test_oracle_is_perfect(self):
        world, sample = make_setup(6)
        g = train(Oracle(), sample, truth=world.p)
        assert hallucination_rate(g, world) == pytest.approx(0.0, abs=1e-12)
        assert miscalibration(world.p, g, ExactValueBinning()) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_flagged_non_algorithm(self):
        assert Oracle().is_algorithm is False


class TestYayMixture:
    def test_hand_worked_mixture(self):
        u = FactoidUniverse(6)
        s = TrainingSample(u, (1, 2, 1, 3))
        g = train(YayMixture(Empirical(), 0.99), s)
        assert g.weight(BOTTOM) == pytest.approx(0.99, abs=1e-12)
        assert g.weight(1) == pytest.approx(0.005, abs=1e-12)
        assert g.weight(2) == pytest.approx(0.0025, abs=1e-12)
        assert g.weight(3) == pytest.approx(0.0025, abs=1e-12)

    def test_hallucination_damping(self):
        for seed in range(10):
            world, sample = make_setup(seed)
            for lam in (0.0, 0.25, 0.99, 1.0):
                base_rate = hallucination_rate(train(MonofactMemorizer(), sample), world)
                mixed_rate = hallucination_rate(
                    train(YayMixture(MonofactMemorizer(), lam), sample), world
                )
                assert mixed_rate == pytest.approx((1.0 - lam) * base_rate, abs=1e-12)

    def test_lambda_validated(self):
        with pytest.raises(ConfigError):
            YayMixture(Empirical(), 1.5)


class TestTrainGeneral:
    @pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: type(a).__name__)
    def test_returns_normalized_distribution(self, alg):
        world, sample = make_setup(7)
        g = train(alg, sample, truth=world.p)
        assert g.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_hallucination_universe_mismatch(self):
        world, _ = make_setup(8)
        g = random_dist(FactoidUniverse(10), SeededRng(9))
        with pytest.raises(UniverseMismatchError):
            hallucination_rate(g, world)
