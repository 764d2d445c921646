"""World models, posterior sampling, and regularity analysis."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from factoidlab.dist import BOTTOM, FactoidUniverse, dist_from_weights, sample_iid
from factoidlab.errors import DistributionError, UnsupportedModelError
from factoidlab.estimators import TrainingSample
from factoidlab.rng import SeededRng
from factoidlab.worlds import (
    ExplicitWorld,
    MultiTypeWorld,
    PermutedPowerLawWorld,
    W5World,
    WorldInstance,
    analyze_regularity,
    enumerate_w5_instances,
    posterior_fact_marginal,
    posterior_sampler_uniform_world,
    sample_distinct_excluding,
    sample_world,
    world_sparsity,
)


class TestPermutedPowerLaw:
    def test_uniform_exponent_gives_equal_masses(self):
        model = PermutedPowerLawWorld(101, 10, 0.0)
        inst = sample_world(model, SeededRng(1))
        assert inst.fact_count == 11  # 10 support atoms plus the empty fact
        values = set(round(w, 14) for w in inst.p.values)
        assert values == {0.1}

    def test_zipf_exponent_matches_rank_weights(self):
        model = PermutedPowerLawWorld(101, 5, 1.0)
        inst = sample_world(model, SeededRng(2))
        h5 = sum(1.0 / i for i in range(1, 6))
        got = sorted(inst.p.values, reverse=True)
        want = [1.0 / (i * h5) for i in range(1, 6)]
        assert got == pytest.approx(want, abs=1e-12)

    def test_instance_invariants(self):
        model = PermutedPowerLawWorld(50, 7, 1.0)
        rng = SeededRng(3)
        for i in range(20):
            inst = sample_world(model, rng.child(i))
            assert BOTTOM in inst.facts
            assert inst.p.weight(BOTTOM) == 0.0
            assert sum(inst.p.weight(y) for y in inst.hallucinations) == 0.0
            assert inst.facts | inst.hallucinations == set(range(50))
            assert not inst.facts & inst.hallucinations

    def test_membership_marginal_uniform_over_universe(self):
        # every non-bottom atom is a fact with probability N/(|Y|-1)
        model = PermutedPowerLawWorld(21, 5, 0.0)
        rng = SeededRng(4)
        draws = 10_000
        hits = Counter()
        for i in range(draws):
            inst = sample_world(model, rng.child(i))
            hits.update(inst.facts - {BOTTOM})
        q = 5 / 20
        sigma = math.sqrt(q * (1 - q) / draws)
        for y in (1, 7, 20):
            assert abs(hits[y] / draws - q) <= 3 * sigma

    def test_fact_budget_validation(self):
        with pytest.raises(DistributionError):
            PermutedPowerLawWorld(10, 10, 0.0)
        # a large accepted configuration constructs without sampling cost
        PermutedPowerLawWorld(10**7, 10**6, 1.0)


class TestW5World:
    def test_construction_arithmetic(self):
        model = W5World(2, 2, 2, 2)
        assert model.universe_size == 17
        inst = sample_world(model, SeededRng(5))
        assert inst.fact_count == 5
        assert set(inst.p.values) == {0.25}

    def test_one_fact_per_person_date_pair(self):
        model = W5World(3, 2, 4, 5)
        rng = SeededRng(6)
        for i in range(10):
            inst = sample_world(model, rng.child(i))
            pairs = [model.pair_of(y) for y in inst.facts - {BOTTOM}]
            assert sorted(pairs) == sorted(
                (p, d) for p in range(3) for d in range(2)
            )

    def test_index_round_trip(self):
        model = W5World(3, 4, 2, 5)
        for tup in itertools.product(range(3), range(4), range(2), range(5)):
            assert model.tuple_of(model.index_of(*tup)) == tup


class TestExplicitWorld:
    def test_single_instance_always_drawn(self):
        u = FactoidUniverse(8)
        inst = WorldInstance(dist_from_weights(u, {1: 1, 2: 1}))
        model = ExplicitWorld(((1.0, inst),))
        for i in range(5):
            assert sample_world(model, SeededRng(i)) is inst

    def test_prior_weights_validated(self):
        u = FactoidUniverse(8)
        inst = WorldInstance(dist_from_weights(u, {1: 1}))
        with pytest.raises(DistributionError):
            ExplicitWorld(((0.4, inst),))


class TestDistinctSampling:
    def test_uniform_over_eligible(self):
        rng = SeededRng(7)
        counts = Counter()
        for i in range(4000):
            picked = sample_distinct_excluding(rng.child(i), 0, 10, 3, exclude=frozenset({2, 5}))
            assert len(set(picked)) == 3
            assert not set(picked) & {2, 5}
            counts.update(picked)
        freqs = np.array([counts[y] / 4000 for y in range(10) if y not in (2, 5)])
        q = 3 / 8
        assert np.all(np.abs(freqs - q) < 4 * math.sqrt(q * (1 - q) / 4000))

    def test_rejection_path_on_huge_range(self):
        picked = sample_distinct_excluding(SeededRng(8), 1, 10**7, 1000)
        assert len(set(picked)) == 1000

    def test_exhausted_range_rejected(self):
        with pytest.raises(DistributionError):
            sample_distinct_excluding(SeededRng(9), 0, 4, 5)


class TestPosteriorSampler:
    def test_no_freedom_is_deterministic(self):
        model = PermutedPowerLawWorld(10, 3, 0.0)
        observed = {0, 1, 2, 3}
        inst = posterior_sampler_uniform_world(model, observed, SeededRng(10))
        assert inst.facts == {0, 1, 2, 3}

    def test_full_budget_takes_everything(self):
        model = PermutedPowerLawWorld(6, 5, 0.0)
        inst = posterior_sampler_uniform_world(model, {0}, SeededRng(11))
        assert inst.facts == set(range(6))

    def test_nonzero_exponent_unsupported(self):
        model = PermutedPowerLawWorld(10, 3, 1.0)
        with pytest.raises(UnsupportedModelError):
            posterior_sampler_uniform_world(model, {0}, SeededRng(12))

    def test_observed_exceeding_budget_rejected(self):
        model = PermutedPowerLawWorld(10, 2, 0.0)
        with pytest.raises(DistributionError):
            posterior_sampler_uniform_world(model, {0, 1, 2, 3}, SeededRng(13))

    def test_membership_marginal_matches_hypergeometric(self):
        model = PermutedPowerLawWorld(30, 8, 0.0)
        observed = {0, 3, 9, 15}
        q = posterior_fact_marginal(model, observed)
        assert q == pytest.approx((8 - 3) / (30 - 4), abs=1e-15)
        rng = SeededRng(14)
        draws = 8000
        hits = Counter()
        for i in range(draws):
            inst = posterior_sampler_uniform_world(model, observed, rng.child(i))
            hits.update(inst.facts)
        sigma = math.sqrt(q * (1 - q) / draws)
        for y in (1, 12, 29):
            assert abs(hits[y] / draws - q) <= 3.5 * sigma

    @pytest.mark.parametrize("size,fact_count,n", [(6, 2, 2), (8, 3, 2), (7, 2, 3)])
    def test_joint_factorization_exact(self, size, fact_count, n):
        # forward: support then sample; reverse: sample marginal times the
        # uniform completion posterior. Exhaustive joint tables must match.
        atoms = list(range(1, size))
        supports = list(itertools.combinations(atoms, fact_count))
        p_support = 1.0 / len(supports)
        forward: dict[tuple, float] = {}
        for sup in supports:
            for draws in itertools.product(sup, repeat=n):
                key = (sup, draws)
                forward[key] = forward.get(key, 0.0) + p_support * (1.0 / fact_count) ** n
        # reverse factorization
        reverse: dict[tuple, float] = {}
        sample_marginal: dict[tuple, float] = {}
        for (sup, draws), w in forward.items():
            sample_marginal[draws] = sample_marginal.get(draws, 0.0) + w
        for draws, w in sample_marginal.items():
            observed = set(draws) | {0}
            m = len(observed) - 1
            completions = [
                sup
                for sup in supports
                if set(draws) <= set(sup)
            ]
            for sup in completions:
                reverse[(sup, draws)] = w / len(completions)
        tv = 0.5 * sum(
            abs(forward.get(k, 0.0) - reverse.get(k, 0.0))
            for k in set(forward) | set(reverse)
        )
        assert tv <= 1e-9


class TestRegularity:
    def test_symmetric_explicit_model_is_exchangeable(self):
        # instances are relabelings of one another: two-atom uniform
        # supports over every pair drawn from a 5-atom universe
        u = FactoidUniverse(5)
        pairs = list(itertools.combinations(range(1, 5), 2))
        instances = tuple(
            (1.0 / len(pairs), WorldInstance(dist_from_weights(u, {a: 1, b: 1})))
            for a, b in pairs
        )
        model = ExplicitWorld(instances)
        rep = analyze_regularity(model, TrainingSample(u, ()))
        assert rep.r_facts == pytest.approx(1.0, abs=1e-9)
        assert rep.r_probs == pytest.approx(1.0, abs=1e-9)

    def test_single_instance_sparsity(self):
        u = FactoidUniverse(16)
        inst = WorldInstance(dist_from_weights(u, {1: 1, 2: 1, 3: 1}))
        model = ExplicitWorld(((1.0, inst),))
        rep = analyze_regularity(model, TrainingSample(u, ()))
        assert rep.s == pytest.approx(math.log(3), abs=1e-12)

    def test_inconsistent_sample_rejected(self):
        u = FactoidUniverse(6)
        inst = WorldInstance(dist_from_weights(u, {1: 1}))
        model = ExplicitWorld(((1.0, inst),))
        with pytest.raises(DistributionError):
            analyze_regularity(model, TrainingSample(u, (2,)))

    def test_w5_factorized_matches_explicit_enumeration(self):
        model = W5World(2, 2, 2, 2)
        enumerated = enumerate_w5_instances(model)
        assert len(enumerated.instances) == 256
        rng = SeededRng(15)
        samples = [TrainingSample(model.universe, ())]
        for i in range(4):
            inst = sample_world(model, rng.child(i, 0))
            draws = sample_iid(inst.p, 3, rng.child(i, 1))
            samples.append(TrainingSample(model.universe, tuple(int(y) for y in draws)))
        for s in samples:
            fast = analyze_regularity(model, s)
            slow = analyze_regularity(enumerated, s)
            assert fast.r_facts == pytest.approx(slow.r_facts, abs=1e-9)
            assert fast.r_probs == pytest.approx(slow.r_probs, abs=1e-9)
            assert fast.s == pytest.approx(slow.s, abs=1e-12)

    def test_w5_regularity_within_pair_bound(self):
        model = W5World(2, 2, 2, 2)
        rep = analyze_regularity(model, TrainingSample(model.universe, ()))
        assert rep.r_facts <= model.regularity_bound + 1e-12

    def test_permuted_power_law_reports_exchangeable(self):
        model = PermutedPowerLawWorld(50, 7, 1.0)
        rep = analyze_regularity(model, TrainingSample(FactoidUniverse(50), (3, 4)))
        assert rep.r_facts == 1.0 and rep.r_probs == 1.0


class TestSparsity:
    def test_power_law_closed_form(self):
        model = PermutedPowerLawWorld(10**7, 1000, 0.0)
        expected = math.log((10**7 - 1001) / 1001)
        assert world_sparsity(model) == pytest.approx(expected, abs=1e-12)

    def test_w5_closed_form(self):
        model = W5World(3, 3, 3, 3)
        assert world_sparsity(model) == pytest.approx(math.log(72 / 10), abs=1e-12)

    def test_multi_type_takes_worst_component(self):
        model = MultiTypeWorld(
            components=(
                PermutedPowerLawWorld(1001, 10, 0.0),
                PermutedPowerLawWorld(101, 10, 0.0),
            ),
            weights=(0.5, 0.5),
        )
        assert world_sparsity(model) == pytest.approx(math.log(90 / 11), abs=1e-12)


class TestMultiTypeWorld:
    def test_ranges_disjoint_and_cover(self):
        model = MultiTypeWorld(
            components=(PermutedPowerLawWorld(11, 3, 0.0), PermutedPowerLawWorld(21, 4, 0.0)),
            weights=(0.3, 0.7),
        )
        assert model.universe_size == 1 + 10 + 20
        r0, r1 = model.type_range(0), model.type_range(1)
        assert set(r0) | set(r1) == set(range(1, 31))
        assert not set(r0) & set(r1)

    def test_local_global_round_trip(self):
        model = MultiTypeWorld(
            components=(PermutedPowerLawWorld(11, 3, 0.0), PermutedPowerLawWorld(21, 4, 0.0)),
            weights=(0.3, 0.7),
        )
        for i in (0, 1):
            for local in range(model.components[i].universe_size):
                assert model.to_local(i, model.to_global(i, local)) == local

    def test_per_type_mass_matches_weights(self):
        model = MultiTypeWorld(
            components=(PermutedPowerLawWorld(11, 3, 0.0), PermutedPowerLawWorld(21, 4, 0.0)),
            weights=(0.3, 0.7),
        )
        inst = sample_world(model, SeededRng(16))
        mass0 = sum(inst.p.weight(y) for y in model.type_range(0))
        mass1 = sum(inst.p.weight(y) for y in model.type_range(1))
        assert mass0 == pytest.approx(0.3, abs=1e-9)
        assert mass1 == pytest.approx(0.7, abs=1e-9)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            MultiTypeWorld(
                components=(PermutedPowerLawWorld(11, 3, 0.0),),
                weights=(0.5,),
            )
