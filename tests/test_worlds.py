"""World models, posterior sampling, and regularity analysis."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factoidlab.dist import BOTTOM, FactoidDist, FactoidUniverse, dist_from_weights, sample_iid
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
    sample_world,
    world_sparsity,
)
from literal import (
    enumerate_w5_instances,
    posterior_fact_marginal,
    posterior_sampler_uniform_world,
    sample_distinct_excluding,
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
            facts = set(inst.fact_keys.tolist())
            assert BOTTOM in facts
            assert inst.p.weight(BOTTOM) == 0.0
            assert sum(inst.p.weight(y) for y in range(50) if y not in facts) == 0.0
            assert len(facts) == inst.fact_count == 50 - inst.hallucination_count

    def test_membership_marginal_uniform_over_universe(self):
        # every non-bottom atom is a fact with probability N/(|Y|-1)
        model = PermutedPowerLawWorld(21, 5, 0.0)
        rng = SeededRng(4)
        draws = 10_000
        hits = Counter()
        for i in range(draws):
            inst = sample_world(model, rng.child(i))
            hits.update(inst.fact_keys[1:].tolist())
        q = 5 / 20
        sigma = math.sqrt(q * (1 - q) / draws)
        for y in (1, 7, 20):
            assert abs(hits[y] / draws - q) <= 3 * sigma

    def test_fact_budget_validation(self):
        with pytest.raises(DistributionError):
            PermutedPowerLawWorld(10, 10, 0.0)
        # a large accepted configuration constructs without sampling cost
        PermutedPowerLawWorld(10**7, 10**6, 1.0)

    @pytest.mark.parametrize("exponent", [-0.5, float("nan")])
    def test_bad_exponent_refused_at_construction(self, exponent):
        with pytest.raises(DistributionError, match="exponent must be >= 0"):
            PermutedPowerLawWorld(100, 10, exponent)


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
            pairs = [model.pair_of(y) for y in inst.fact_keys[1:].tolist()]
            assert sorted(pairs) == sorted(
                (p, d) for p in range(3) for d in range(2)
            )

    def test_index_round_trip(self):
        model = W5World(3, 4, 2, 5)
        for tup in itertools.product(range(3), range(4), range(2), range(5)):
            assert model.tuple_of(model.index_of(*tup)) == tup

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(1, 6),
            st.integers(1, 6),
            st.integers(1, 9) | st.sampled_from([2**31, 2**32 + 1, 2**33]),
            st.integers(1, 9) | st.sampled_from([2**31, 2**32 + 1, 2**33]),
        ),
        seed=st.integers(0, 2**32),
    )
    def test_draw_matches_per_pair_loop(self, shape, seed):
        """The vectorised draw against the literal per-pair loop: same keys,
        and the generator left in the same state."""
        model = W5World(*shape)
        assume(model.universe_size < 2**63)
        rng, ref_rng = SeededRng(seed), SeededRng(seed)
        keys = []
        for person in range(model.n_people):
            for date in range(model.n_dates):
                food = int(ref_rng.generator.integers(model.n_foods))
                location = int(ref_rng.generator.integers(model.n_locations))
                keys.append(model.index_of(person, date, food, location))
        inst = sample_world(model, rng)
        assert inst.p.keys.tolist() == keys
        assert inst.p.values.tolist() == [1.0 / model.pair_count] * len(keys)
        assert rng.generator.bit_generator.state == ref_rng.generator.bit_generator.state


class TestExplicitWorld:
    def test_never_drawn(self):
        # the exact checks enumerate an explicit prior; neither a draw nor
        # a sparsity over draws is taken from one
        u = FactoidUniverse(8)
        inst = WorldInstance(dist_from_weights(u, {1: 1, 2: 1}))
        model = ExplicitWorld(((1.0, inst),))
        with pytest.raises(UnsupportedModelError):
            sample_world(model, SeededRng(0))
        with pytest.raises(UnsupportedModelError):
            world_sparsity(model)

    def test_prior_weights_validated(self):
        u = FactoidUniverse(8)
        inst = WorldInstance(dist_from_weights(u, {1: 1}))
        with pytest.raises(DistributionError):
            ExplicitWorld(((0.4, inst),))

    def test_nan_prior_weights_refused(self):
        # with NaN weights the lemma sweep would find no violation even at
        # tolerance -inf, where every pair is one
        inst = WorldInstance(dist_from_weights(FactoidUniverse(4), {1: 1, 2: 1}))
        with pytest.raises(DistributionError, match="must be positive"):
            ExplicitWorld(((math.nan, inst), (math.nan, inst)))

    def test_unnormalized_instance_refused(self):
        # weights 3 and 4 on 3 atoms: not a distribution, so no lemma
        # sweep or posterior may be taken over it
        inst = WorldInstance(FactoidDist(FactoidUniverse(3), np.array([1, 2]), np.array([3.0, 4.0])))
        with pytest.raises(DistributionError, match="must sum to 1"):
            ExplicitWorld(((1.0, inst),))


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
        assert inst.fact_keys.tolist() == [0, 1, 2, 3]

    def test_full_budget_takes_everything(self):
        model = PermutedPowerLawWorld(6, 5, 0.0)
        inst = posterior_sampler_uniform_world(model, {0}, SeededRng(11))
        assert inst.fact_keys.tolist() == list(range(6))

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
            hits.update(inst.fact_keys.tolist())
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

    def test_w5_sample_pinning_two_facts_of_a_pair_is_refused(self):
        model = W5World(2, 3, 2, 2)
        first, second = model.index_of(1, 2, 0, 1), model.index_of(1, 2, 1, 0)
        other = model.index_of(0, 1, 1, 1)
        # two of the six pairs pinned, repeats and the empty fact aside:
        # r = (1 / (2 * 2 foods and locations)) * 22 unobserved / 4 free pairs
        draws = (first, 0, other, first, other)
        rep = analyze_regularity(model, TrainingSample(model.universe, draws))
        assert (rep.r_facts, rep.r_probs) == (1.375, 1.375)
        with pytest.raises(DistributionError, match=r"pins two different facts .* pair \(1, 2\)"):
            analyze_regularity(model, TrainingSample(model.universe, (*draws, second)))

    def test_w5_regularity_within_pair_bound(self):
        model = W5World(2, 2, 2, 2)
        rep = analyze_regularity(model, TrainingSample(model.universe, ()))
        assert rep.r_facts <= model.pair_count + 1e-12

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

    @pytest.mark.parametrize("weights", [(1.0,), (0.3, 0.7), (0.2, 0.3, 0.5)], ids=["k1", "k2", "k3"])
    def test_one_value_draws_hold_one_values_array(self, weights):
        """Every draw of a model whose templates each hold one value holds
        one read-only values array, the templates end to end bit for bit;
        draws of a model with a Zipf type each hold their own."""
        components = tuple(PermutedPowerLawWorld(11 + 10 * i, 3 + i, 0.0) for i in range(len(weights)))
        model = MultiTypeWorld(components=components, weights=weights)
        values = [sample_world(model, rng).p.values for rng in SeededRng(3).children(range(4))]
        assert all(v is values[0] for v in values)
        assert not values[0].flags.writeable
        joined = np.concatenate(model.rank_template)
        assert (values[0].dtype, values[0].tobytes()) == (joined.dtype, joined.tobytes())
        zipf_types = (*components[1:], PermutedPowerLawWorld(21, 4, 1.0))
        zipf = MultiTypeWorld(components=zipf_types, weights=weights)
        values = [sample_world(zipf, rng).p.values for rng in SeededRng(3).children(range(4))]
        assert len({id(v) for v in values}) == len(values)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            MultiTypeWorld(
                components=(PermutedPowerLawWorld(11, 3, 0.0),),
                weights=(0.5,),
            )

    def test_nan_weights_refused(self):
        components = (PermutedPowerLawWorld(11, 3, 0.0), PermutedPowerLawWorld(21, 4, 0.0))
        for weights in ((math.nan, math.nan), (1.0, math.nan)):
            with pytest.raises(DistributionError, match="must be positive"):
                MultiTypeWorld(components=components, weights=weights)

    def test_types_other_than_power_laws_refused(self):
        power_law = PermutedPowerLawWorld(11, 3, 0.0)
        inst = WorldInstance(dist_from_weights(FactoidUniverse(5), {1: 0.5, 2: 0.5}))
        others = (
            W5World(1, 1, 2, 2),
            ExplicitWorld(((1.0, inst),)),
            MultiTypeWorld((power_law,), (1.0,)),
        )
        for other in others:
            for components, weights in (((other,), (1.0,)), ((power_law, other), (0.5, 0.5))):
                with pytest.raises(DistributionError, match=type(other).__name__):
                    MultiTypeWorld(components=components, weights=weights)
