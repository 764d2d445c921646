"""Distribution layer: construction, set mass, metrics, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factoidlab.dist import (
    BOTTOM,
    FactoidUniverse,
    dist_from_weights,
    random_dist,
    sample_iid,
    tv_distance_forms,
    uniform_dist,
)
from factoidlab.errors import ConfigError, DistributionError, UniverseMismatchError
from factoidlab.rng import SeededRng
from literal import background_dist, kl_divergence, mass_of_set, paired_profile, tv_distance


def weights_strategy(size: int):
    return st.dictionaries(
        keys=st.integers(min_value=0, max_value=size - 1),
        values=st.integers(min_value=0, max_value=50),
        min_size=1,
        max_size=size,
    ).filter(lambda d: any(v > 0 for v in d.values()))


class TestUniverse:
    def test_bottom_is_index_zero(self):
        assert BOTTOM == 0

    @pytest.mark.parametrize("size", [0, 1, -3])
    def test_too_small(self, size):
        with pytest.raises(DistributionError):
            FactoidUniverse(size)


class TestConstruction:
    def test_point_mass_on_bottom(self):
        u = FactoidUniverse(4)
        d = dist_from_weights(u, {0: 1})
        assert d.weight(0) == 1.0
        assert d.weight(1) == 0.0

    def test_normalization_by_symmetry(self):
        u = FactoidUniverse(4)
        d = dist_from_weights(u, {1: 2, 2: 2})
        assert d.weight(1) == 0.5
        assert d.weight(2) == 0.5

    def test_negative_weight_rejected(self):
        u = FactoidUniverse(4)
        with pytest.raises(DistributionError):
            dist_from_weights(u, {1: 0.3, 2: -0.1})

    def test_all_zero_rejected(self):
        with pytest.raises(DistributionError):
            dist_from_weights(FactoidUniverse(4), {1: 0.0, 2: 0.0})

    def test_out_of_range_rejected(self):
        with pytest.raises(DistributionError):
            dist_from_weights(FactoidUniverse(4), {4: 1.0})

    def test_background_normalizes(self):
        u = FactoidUniverse(1000)
        d = background_dist(u, {1: 3.0}, 0.002)
        assert abs(d.total_mass() - 1.0) < 1e-9
        assert d.weight(999) == d.background > 0

    def test_weights_property_round_trips(self):
        u = FactoidUniverse(6)
        d = dist_from_weights(u, {1: 0.25, 3: 0.75})
        assert dict(zip(d.keys.tolist(), d.values.tolist())) == {1: 0.25, 3: 0.75}
        assert d.background == 0.0

    @given(w=weights_strategy(8))
    @settings(max_examples=60, deadline=None)
    def test_total_mass_one(self, w):
        d = dist_from_weights(FactoidUniverse(8), w)
        assert abs(d.total_mass() - 1.0) < 1e-9


class TestMassOfSet:
    def test_uniform_half(self):
        u = FactoidUniverse(5)
        d = dist_from_weights(u, {1: 1, 2: 1, 3: 1, 4: 1})
        assert mass_of_set(d, {1, 2}) == pytest.approx(0.5, abs=1e-12)

    def test_empty_set(self):
        d = uniform_dist(FactoidUniverse(7))
        assert mass_of_set(d, set()) == 0.0

    def test_full_universe(self):
        u = FactoidUniverse(7)
        d = random_dist(u, SeededRng(1))
        assert mass_of_set(d, range(u.size)) == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range(self):
        d = uniform_dist(FactoidUniverse(4))
        with pytest.raises(DistributionError):
            mass_of_set(d, {4})

    @given(w=weights_strategy(8), subset=st.sets(st.integers(0, 7)))
    @settings(max_examples=60, deadline=None)
    def test_complement_sums_to_one(self, w, subset):
        d = dist_from_weights(FactoidUniverse(8), w)
        rest = set(range(8)) - subset
        assert mass_of_set(d, subset) + mass_of_set(d, rest) == pytest.approx(1.0, abs=1e-9)


class TestTotalVariation:
    def test_disjoint_supports(self):
        u = FactoidUniverse(4)
        assert tv_distance(dist_from_weights(u, {1: 1}), dist_from_weights(u, {2: 1})) == 1.0

    def test_identity(self):
        d = random_dist(FactoidUniverse(9), SeededRng(2))
        assert tv_distance(d, d) == 0.0

    def test_half_sum_of_absolute_differences(self):
        u = FactoidUniverse(4)
        d1 = dist_from_weights(u, {1: 0.5, 2: 0.3, 3: 0.2})
        d2 = dist_from_weights(u, {1: 0.2, 2: 0.3, 3: 0.5})
        assert tv_distance(d1, d2) == pytest.approx(0.3, abs=1e-12)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            tv_distance(uniform_dist(FactoidUniverse(4)), uniform_dist(FactoidUniverse(5)))

    def test_symmetry_range_triangle(self):
        u = FactoidUniverse(11)
        rng = SeededRng(3)
        for i in range(40):
            a = random_dist(u, rng.child(i, 0))
            b = random_dist(u, rng.child(i, 1))
            c = random_dist(u, rng.child(i, 2))
            ab = tv_distance(a, b)
            assert ab == tv_distance(b, a)
            assert 0.0 <= ab <= 1.0
            assert ab <= tv_distance(a, c) + tv_distance(c, b) + 1e-12

    def test_three_formulations_agree_exhaustively(self):
        u = FactoidUniverse(8)
        rng = SeededRng(4)
        for i in range(25):
            a = random_dist(u, rng.child(i, 0))
            b = random_dist(u, rng.child(i, 1))
            half_l1, pos_part, subset_max = tv_distance_forms(a, b, exhaustive_limit=8)
            assert abs(half_l1 - pos_part) <= 1e-12
            assert abs(half_l1 - subset_max) <= 1e-12

    def test_background_pair_matches_dense(self):
        # a background representation must give the same distance as the
        # fully materialized equivalent
        u = FactoidUniverse(500)
        sparse = background_dist(u, {3: 0.25, 7: 0.05}, 0.7 / 498)
        dense = dist_from_weights(u, {y: sparse.weight(y) for y in range(u.size)})
        other = random_dist(u, SeededRng(5), support_size=20)
        assert tv_distance(sparse, other) == pytest.approx(tv_distance(dense, other), abs=1e-12)


class TestKlDivergence:
    def test_identity_zero(self):
        d = random_dist(FactoidUniverse(9), SeededRng(6))
        assert kl_divergence(d, d) == 0.0

    def test_single_atom_closed_form(self):
        u = FactoidUniverse(3)
        truth = dist_from_weights(u, {1: 1})
        model = dist_from_weights(u, {1: 1, 2: 1})
        assert kl_divergence(truth, model) == pytest.approx(math.log(2), abs=1e-12)

    def test_support_violation_infinite(self):
        u = FactoidUniverse(3)
        truth = dist_from_weights(u, {1: 1, 2: 1})
        model = dist_from_weights(u, {1: 1})
        assert kl_divergence(truth, model) == math.inf

    def test_non_negative(self):
        u = FactoidUniverse(10)
        rng = SeededRng(7)
        for i in range(30):
            a = random_dist(u, rng.child(i, 0), support_size=10)
            b = random_dist(u, rng.child(i, 1), support_size=10)
            assert kl_divergence(a, b) >= -1e-12


class TestSampling:
    def test_point_mass_degenerate(self):
        u = FactoidUniverse(6)
        d = dist_from_weights(u, {4: 1.0})
        draws = sample_iid(d, 5, SeededRng(8))
        assert draws.tolist() == [4, 4, 4, 4, 4]

    def test_uniform_two_atom_frequency(self):
        # binomial 3 sigma radius at n=1e5 is about 0.0047; 0.01 is generous
        u = FactoidUniverse(3)
        d = dist_from_weights(u, {1: 1, 2: 1})
        draws = sample_iid(d, 10**5, SeededRng(9))
        freq = np.mean(draws == 1)
        assert abs(freq - 0.5) < 0.01

    def test_same_seed_identical(self):
        d = random_dist(FactoidUniverse(50), SeededRng(10))
        a = sample_iid(d, 1000, SeededRng(11))
        b = sample_iid(d, 1000, SeededRng(11))
        assert np.array_equal(a, b)

    def test_zero_draws_rejected(self):
        with pytest.raises(DistributionError):
            sample_iid(uniform_dist(FactoidUniverse(4)), 0, SeededRng(12))

    def test_background_sampling_frequencies(self):
        # half the mass on atom 1, the rest spread over the other 9 atoms
        u = FactoidUniverse(10)
        d = background_dist(u, {1: 0.5}, 0.5 / 9)
        draws = sample_iid(d, 60_000, SeededRng(13))
        freq1 = np.mean(draws == 1)
        assert abs(freq1 - 0.5) < 0.01
        others = np.array([np.mean(draws == y) for y in range(10) if y != 1])
        assert np.all(np.abs(others - 0.5 / 9) < 0.01)

    def test_zero_weight_special_never_drawn(self):
        u = FactoidUniverse(5)
        d = background_dist(u, {2: 0.0}, 0.25)
        draws = sample_iid(d, 5000, SeededRng(14))
        assert not np.any(draws == 2)


class TestProfile:
    def test_profile_covers_all_mass(self):
        u = FactoidUniverse(1000)
        a = background_dist(u, {1: 0.2, 2: 0.1}, 0.7 / 998)
        b = random_dist(u, SeededRng(15), support_size=5)
        wa, wb, counts = paired_profile(a, b)
        assert float(np.sum(wa * counts)) == pytest.approx(1.0, abs=1e-9)
        assert float(np.sum(wb * counts)) == pytest.approx(1.0, abs=1e-9)
        assert float(counts.sum()) == u.size


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(99).generator.random(16)
        b = SeededRng(99).generator.random(16)
        assert np.array_equal(a, b)

    def test_children_independent_of_consumption(self):
        parent = SeededRng(100)
        parent.generator.random(1000)
        late_child = parent.child(3)
        fresh_child = SeededRng(100).child(3)
        assert np.array_equal(late_child.generator.random(8), fresh_child.generator.random(8))

    def test_fingerprint_stable(self):
        assert SeededRng(5, (1, 2)).fingerprint() == SeededRng(5, (1, 2)).fingerprint()
        assert SeededRng(5, (1, 2)).fingerprint() != SeededRng(5, (2, 1)).fingerprint()

    def test_negative_stream_key_is_a_config_error(self):
        # refused when the stream is derived, although its generator is
        # only built on first use
        with pytest.raises(ConfigError, match="stream key"):
            SeededRng(0).child(-1)
        with pytest.raises(ConfigError, match="stream key"):
            SeededRng(0, (3, -2))
        with pytest.raises(ConfigError, match="stream key"):
            next(SeededRng(0).children([4, -1]))

    @pytest.mark.parametrize("seed", [2.7, 2.0, "2", None])
    def test_non_integer_seed_is_a_config_error(self, seed):
        # a float used to be truncated: SeededRng(2.7) was SeededRng(2)
        with pytest.raises(ConfigError, match="seed and stream key entries must be integers"):
            SeededRng(seed)

    @pytest.mark.parametrize("index", [1.5, 1.0, np.float64(1.0)])
    def test_non_integer_stream_key_is_a_config_error(self, index):
        # child(1.5) used to be the same stream as child(1)
        with pytest.raises(ConfigError, match="stream key entries must be integers"):
            SeededRng(0).child(index)
        with pytest.raises(ConfigError, match="stream key entries must be integers"):
            SeededRng(0, (3, index))
        with pytest.raises(ConfigError, match="stream key entries must be integers"):
            next(SeededRng(0).children([index]))
        with pytest.raises(ConfigError, match="stream key entries must be integers"):
            next(SeededRng(0).children([4, index]))

    def test_numpy_integers_are_the_same_stream_as_ints(self):
        for kind in (np.int64, np.uint32, np.int8):
            rng = SeededRng(kind(7), (kind(2),))
            assert (rng.seed, rng.key) == (7, (2,))
            assert type(rng.seed) is int and all(type(k) is int for k in rng.key)
            assert rng.fingerprint() == SeededRng(7, (2,)).fingerprint()
            assert rng.child(kind(5)).fingerprint() == SeededRng(7, (2, 5)).fingerprint()
            child = next(SeededRng(7).children([kind(5)]))
            assert child.key == (5,)
            assert child.fingerprint() == SeededRng(7).child(5).fingerprint()


class TestMaterializeGuards:
    def test_missing_mass_with_background_truth(self):
        from factoidlab.estimators import TrainingSample, missing_mass
        u = FactoidUniverse(10)
        p = background_dist(u, {1: 0.4, 2: 0.2}, 0.4 / 8)
        s = TrainingSample(u, (1, 3, 3))
        # unobserved: {2,4,5,6,7,8,9}; special atom 2 carries 0.2 and the
        # six plain unobserved atoms carry the 0.05 background each
        expected = 0.2 + 0.05 * 6
        assert missing_mass(p, s) == pytest.approx(expected, abs=1e-12)
        direct = sum(p.weight(y) for y in range(u.size) if y not in s.observed)
        assert missing_mass(p, s) == pytest.approx(direct, abs=1e-12)
