"""Monofact estimator, missing mass, concentration radii."""

from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factoidlab.dist import FactoidUniverse, dist_from_weights, random_dist, sample_iid
from factoidlab.errors import (
    DistributionError,
    InsufficientDataError,
    UniverseMismatchError,
)
from factoidlab.estimators import (
    TrainingSample,
    good_turing_radius,
    missing_mass,
    missing_mass_lower_radius,
    monofact_estimate,
)
from factoidlab.rng import SeededRng

getcontext().prec = 50


def dec_sqrt(x) -> Decimal:
    return Decimal(x).sqrt()


def unique_fraction(s: TrainingSample) -> float:
    """Fraction of draws unique in the sample, the empty fact included."""
    return int(np.count_nonzero(s.counts == 1)) / s.n


class TestTrainingSample:
    def test_bottom_always_observed(self):
        u = FactoidUniverse(6)
        s = TrainingSample(u, (3, 4))
        assert 0 in s.observed
        assert s.observed == {0, 3, 4}
        assert s.unobserved_count == 3
        assert s.observed_count + s.unobserved_count == u.size

    def test_observed_at_most_n_plus_one(self):
        u = FactoidUniverse(100)
        draws = tuple(sample_iid(random_dist(u, SeededRng(1)), 40, SeededRng(2)).tolist())
        s = TrainingSample(u, draws)
        assert s.observed_count <= len(draws) + 1

    def test_out_of_range_draw_rejected(self):
        with pytest.raises(DistributionError):
            TrainingSample(FactoidUniverse(4), (4,))

    @pytest.mark.parametrize(
        "build",
        [
            lambda u: TrainingSample(u, (3, 5, 3)),
            lambda u: TrainingSample.from_counts(u, np.array([3, 5]), np.array([2, 1])),
        ],
        ids=["draws", "counts"],
    )
    def test_arrays_are_read_only(self, build):
        """A write would leave the cached observed keys stale."""
        s = build(FactoidUniverse(8))
        assert s.observed_keys.tolist() == [0, 3, 5]
        for arr in (s.atoms, s.counts, s.draws, s.observed_keys):
            with pytest.raises(ValueError):
                arr[-1] = 7

    def test_from_counts_copies_its_input(self):
        atoms, counts = np.array([3, 5]), np.array([2, 1])
        s = TrainingSample.from_counts(FactoidUniverse(8), atoms, counts)
        atoms[1], counts[1] = 6, 4
        assert s.atoms.tolist() == [3, 5] and s.counts.tolist() == [2, 1]

    def test_counted_sample_reads_like_its_draws(self):
        u = FactoidUniverse(8)
        s = TrainingSample.from_counts(u, [0, 3, 5], [1, 2, 1])
        assert s.n == 4
        assert s.draws.tolist() == [0, 3, 3, 5]
        assert s.observed == {0, 3, 5}
        assert monofact_estimate(s) == monofact_estimate(TrainingSample(u, (5, 3, 0, 3)))

    def test_empty_counted_sample(self):
        s = TrainingSample.from_counts(FactoidUniverse(4), [], [])
        assert s.n == 0 and s.draws.size == 0

    @pytest.mark.parametrize(
        "atoms, counts",
        [
            ([1, 4], [1, 1]),  # out of the universe
            ([-1, 2], [1, 1]),
            ([1.0, 2.0], [1, 1]),  # not integers
            ([1, 2], [1.0, 1.0]),
            ([2, 1], [1, 1]),  # not increasing
            ([2, 2], [1, 1]),
            ([1, 2], [1, 0]),  # a count below 1
            ([1, 2], [1, -3]),
            ([1, 2], [1]),  # not parallel
        ],
    )
    def test_bad_counts_rejected(self, atoms, counts):
        with pytest.raises(DistributionError):
            TrainingSample.from_counts(FactoidUniverse(4), atoms, counts)


class TestMonofactEstimate:
    def test_two_singletons_of_four(self):
        s = TrainingSample(FactoidUniverse(6), (1, 2, 1, 3))
        assert monofact_estimate(s) == 0.5

    def test_all_distinct(self):
        s = TrainingSample(FactoidUniverse(8), (1, 2, 3, 4, 5))
        assert monofact_estimate(s) == 1.0

    def test_bottom_excluded_and_repeats_ignored(self):
        s = TrainingSample(FactoidUniverse(4), (0, 1, 1))
        assert monofact_estimate(s) == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            monofact_estimate(TrainingSample(FactoidUniverse(4), ()))

    @given(draws=st.lists(st.integers(0, 9), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_range_and_bottom_discrepancy(self, draws):
        s = TrainingSample(FactoidUniverse(10), tuple(draws))
        mf = monofact_estimate(s)
        gt = unique_fraction(s)
        assert 0.0 <= mf <= 1.0
        # the generic unique-fraction counts a lone empty-fact draw that
        # the monofact estimate excludes; they differ by at most one draw
        assert 0.0 <= gt - mf <= 1.0 / s.n + 1e-12

    def test_equal_when_bottom_never_drawn(self):
        s = TrainingSample(FactoidUniverse(10), (1, 2, 2, 5))
        assert monofact_estimate(s) == unique_fraction(s)


class TestMissingMass:
    def test_half_missing(self):
        u = FactoidUniverse(5)
        p = dist_from_weights(u, {1: 1, 2: 1, 3: 1, 4: 1})
        s = TrainingSample(u, (1, 1, 2))
        assert missing_mass(p, s) == pytest.approx(0.5, abs=1e-12)

    def test_support_fully_observed(self):
        u = FactoidUniverse(6)
        p = dist_from_weights(u, {1: 0.5, 2: 0.5})
        s = TrainingSample(u, (1, 2, 1))
        assert missing_mass(p, s) == 0.0

    def test_point_mass_observed(self):
        u = FactoidUniverse(4)
        p = dist_from_weights(u, {1: 1})
        assert missing_mass(p, TrainingSample(u, (1,))) == 0.0

    def test_universe_mismatch(self):
        p = dist_from_weights(FactoidUniverse(4), {1: 1})
        with pytest.raises(UniverseMismatchError):
            missing_mass(p, TrainingSample(FactoidUniverse(5), (1,)))

    def test_matches_direct_sum_over_unobserved(self):
        u = FactoidUniverse(40)
        rng = SeededRng(3)
        for i in range(20):
            p = random_dist(u, rng.child(i, 0))
            draws = tuple(sample_iid(p, 15, rng.child(i, 1)).tolist())
            s = TrainingSample(u, draws)
            direct = sum(p.weight(y) for y in range(u.size) if y not in s.observed)
            assert missing_mass(p, s) == pytest.approx(direct, abs=1e-12)
            assert 0.0 <= missing_mass(p, s) <= 1.0


class TestRadii:
    def test_two_sided_radius_against_high_precision(self):
        # oracle: 3 * sqrt(ln 40 / 1e4) at 50-digit precision
        expected = 3 * dec_sqrt(Decimal(40).ln() / Decimal(10**4))
        assert good_turing_radius(0.1, 10**4) == pytest.approx(float(expected), abs=1e-15)

    def test_two_sided_radius_wide_at_tiny_n(self):
        # at delta=1, n=9 the width exceeds 1, so the statement is trivial
        assert good_turing_radius(1.0, 9) == pytest.approx(
            float(3 * dec_sqrt(Decimal(4).ln() / Decimal(9))), abs=1e-15
        )
        assert good_turing_radius(1.0, 9) > 0.39

    def test_one_sided_radius_against_high_precision(self):
        expected = dec_sqrt(6 * Decimal(6).ln() / Decimal(10**4))
        assert missing_mass_lower_radius(1.0 / 3.0, 10**4) == pytest.approx(
            float(expected), abs=1e-15
        )
        expected60 = dec_sqrt(6 * Decimal(60).ln() / Decimal(10**4))
        assert missing_mass_lower_radius(0.1 / 3.0, 10**4) == pytest.approx(
            float(expected60), abs=1e-15
        )

    def test_radii_shrink_with_n(self):
        assert good_turing_radius(0.1, 10**8) < 1e-3
        assert missing_mass_lower_radius(0.1 / 3.0, 10**8) < 1e-3

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.5])
    def test_delta_range_two_sided(self, delta):
        with pytest.raises(DistributionError):
            good_turing_radius(delta, 100)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_delta_range_one_sided(self, delta):
        with pytest.raises(DistributionError):
            missing_mass_lower_radius(delta, 100)
