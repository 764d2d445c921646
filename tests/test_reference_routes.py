"""Array fast paths against literal dict/Counter reference routes.

Every reader of the array-backed distribution and sample has a slow
reference here, written the obvious way over dicts, sets and Counters.
Random small universes cover a nonzero background, zero weights, and the
empty fact (key 0) both present and absent. Equality is exact: the fast
paths keep the reference arithmetic (math.fsum where it sums, elementwise
division, the same atom order), so not even the last bit may move.

The cached tables are checked the same way: the guide-table sampler
against plain searchsorted inversion, the chunk counter (rows against
their own tables or one shared table) on both sides of its size rule
against counting the guide-table sampler's draws, the missing mass read
off a row's slots, from either side, against the literal fsum over
unseen atoms, the exact expansion of a total against rational
arithmetic, and the table a world model whose rank templates hold one
value shares among its draws against the table each draw builds for
itself. The chunked draw route every trained suite takes is checked
stream by stream against sample_world, sample_iid, a Counter and the
literal missing mass, on uniform, Zipf, W5 and multi-type models, with
chunks of one stream, one full chunk and a partial last chunk.

So are the two bound verifiers: the core inequality, scored on one
completion, against its literal mean over every posterior completion
(and refused wherever the exactness rule does not hold), the
all-subsets-at-once lemma sweep against the subset-by-subset loop and
the padded-gather route its subset tables replaced, also with tolerances
on the edge where its trivial bound clears a subset before any partition
is scored, and the batched distinct draw against its literal eligible
list. The dense table of every atom's weight those verifiers read is
checked against weights_at over every atom.

Partitions hold one block label per atom; their derived block sets are
checked against the frozenset builders the labels replaced: the sorted
group split behind every binning, the recursive enumeration of all
partitions and the cut-point random partition.

A pair's class profile and hallucination rate, as keyed_profile lays
them out and join_profiles joins many of them, are checked bit for bit
against the layout built atom by atom, on its own and concatenated over
random batches, and the rate against the literal one of a world; a pair
whose g holds an atom p lacks, bar the empty fact, is refused.

The batch scorer, which joins many profiles, sorts them all by g
at once and bins every profile in one pass per spec, is checked against
the one-profile literal route (its own stable argsort, explicit
thresholds, each sum over that profile) on random batches split at
random points, down to one profile a batch.

Batched child streams are checked against numpy's literal route,
Generator(PCG64(SeedSequence(seed, spawn_key=key))), one stream at a time.

World draws through a model's rank template are checked against the
literal power-law draw (rank weights, two fsum totals and two validated
constructions per draw), and multi-type per-type metrics read off one
(p, g) profile against the literal projection, which builds both induced
local distributions of every type. The memorizer upper-bound suite, which
reads both of its events off one (p, g) profile per trial, is recounted
through the literal hallucination rate and miscalibration, and the
Good-Turing concentration suite, which counts a chunk of trials in one
pass, through the literal sampler, monofact estimate and missing mass,
also with chunks of one and three trials, stream by stream with each
generator's end state.

Every row of the bound table, evaluated as named terms, is checked
against its literal right-hand-side formula bit for bit, with the
vacuity cause recounted from the literal running value, and so are both
proof-step events of verify_markov_step.
"""

import dataclasses
import math
import operator
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factoidlab import bounds as bounds_module
from factoidlab import dist as dist_module
from factoidlab.dist import (
    _GUIDE_STEPS,
    BOTTOM,
    FactoidDist,
    FactoidUniverse,
    ProfileBatch,
    _count_rows,
    _dense_weights,
    _expanded_total,
    _guided_slots,
    _SlotMasses,
    _subset_table,
    dist_from_arrays,
    dist_from_weights,
    join_profiles,
    keyed_profile,
    kl_divergences,
    random_dist,
    sample_iid,
    uniform_dist,
)
from factoidlab.bounds import (
    BOUND_TERMS,
    BOUNDS,
    FLOAT_SLACK,
    BoundParams,
    LemmaMeatViolation,
    _bound_frequency,
    bound_terms,
    evaluate_bound,
    verify_lemma_meat_exhaustive,
    verify_markov_step,
    verify_theorem_main_mc,
)
from factoidlab.calibration import (
    EXACT_VALUE_RTOL,
    AdaptiveBinning,
    ExactValueBinning,
    FixedWidthBinning,
    PARTITION_LIMIT,
    Partition,
    SortedProfiles,
    _block_starts_for_spec,
    _partition_label_rows,
    partition_for_spec,
)
from factoidlab.errors import DistributionError, FactoidLabError, PartitionError, UniverseMismatchError
from factoidlab.estimators import (
    TrainingSample,
    _gt_estimates,
    monofact_estimate,
)
from factoidlab import harness
from factoidlab.harness import (
    _local_side,
    multi_type_trial_metrics,
    run_gt_concentration,
    run_upper_bound_check,
)
from factoidlab.rng import _CHILD_BATCH, SeededRng
from factoidlab.lms import (
    Empirical,
    Laplace,
    MonofactMemorizer,
    Oracle,
    Uniform,
    YayMixture,
    train,
)
from factoidlab.worlds import (
    ExplicitWorld,
    MultiTypeWorld,
    PermutedPowerLawWorld,
    W5World,
    WorldInstance,
    _instance_sparsity,
    _posterior_over_instances,
    analyze_regularity,
    sample_world,
)
from literal import (
    REFERENCE_BOUNDS,
    background_dist,
    enumerate_w5_instances,
    gather_lemma_sweep,
    hallucination_rate,
    iter_all_partitions,
    mass_of_set,
    miscalibration,
    missing_mass,
    partition_blocks,
    posterior_fact_marginal,
    profile_calibration,
    profile_kl,
    profile_layout,
    random_partition,
    restricted_growth_strings,
    rhs_terms,
    sample_distinct_excluding,
    sort_profile_by_g,
    theorem_main_exhaustive,
)

PROPERTY = settings(max_examples=100, deadline=None)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def dists(draw, size):
    """A normalized distribution with explicit weights (zeros allowed, key
    0 present or not) and, half the time, a positive background."""
    u = FactoidUniverse(size)
    weights = draw(
        st.dictionaries(
            st.integers(0, size - 1),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.0, 10.0),
            max_size=size,
        )
    )
    background = draw(st.sampled_from([0.0, 0.0, 0.1]) | st.floats(0.0, 1.0))
    background_covers = background > 0.0 and len(weights) < size
    if not background_covers and not any(w > 0.0 for w in weights.values()):
        weights[draw(st.integers(0, size - 1))] = 1.0
    return background_dist(u, weights, background)


@st.composite
def dist_pairs(draw):
    size = draw(st.integers(2, 12))
    return draw(dists(size)), draw(dists(size))


def contained_g(draw, p: FactoidDist) -> FactoidDist:
    """A g on p's universe whose keys are a random subset of p's keys and
    perhaps the empty fact, with or without a background: a g the library
    lays out against p."""
    held = [BOTTOM, *p.keys.tolist()]
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0)
    weights = {y: draw(weight) for y in draw(st.sets(st.sampled_from(held)))}
    background = draw(st.sampled_from([0.0, 0.0, 0.1]))
    size = p.universe.size
    if not any(w > 0.0 for w in weights.values()) and not (background > 0.0 and len(weights) < size):
        weights[draw(st.sampled_from(held))] = 1.0
    return background_dist(p.universe, weights, background)


@st.composite
def contained_pairs(draw):
    """(p, g) on one universe of 2-12 atoms, p any distribution of dists
    and g a contained_g of it."""
    p = draw(dists(draw(st.integers(2, 12))))
    return p, contained_g(draw, p)


def is_contained(p: FactoidDist, g: FactoidDist) -> bool:
    """Whether g's keys lie among p's, bar the empty fact."""
    return set(g.keys.tolist()) - {BOTTOM} <= set(p.keys.tolist())


@st.composite
def world_pairs(draw):
    """(p, g) on one universe of 2-12 atoms: p a sparse fact distribution
    that keeps its explicit zeros (a world keeps keys it gives no mass),
    g a contained_g of it."""
    size = draw(st.integers(2, 12))
    weights = draw(
        st.dictionaries(st.integers(0, size - 1), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0))
    )
    if not any(w > 0.0 for w in weights.values()):
        weights[draw(st.integers(0, size - 1))] = 1.0
    p = FactoidDist(FactoidUniverse(size), *_sorted_pairs(weights))
    return p, contained_g(draw, p)


HALLUC_U = FactoidUniverse(6)
HALLUC_SAMPLE = TrainingSample(HALLUC_U, (1, 1, 3, 4))


def fact_dist(weights: dict) -> FactoidDist:
    """A fact distribution on HALLUC_U with exactly these explicit weights."""
    return FactoidDist(HALLUC_U, *_sorted_pairs(weights))


@st.composite
def samples(draw):
    size = draw(st.integers(2, 12))
    draws = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20))
    return FactoidUniverse(size), draws


# ---------------------------------------------------------------------------
# Reference routes
# ---------------------------------------------------------------------------


def special(d: FactoidDist) -> dict[int, float]:
    return dict(zip(d.keys.tolist(), d.values.tolist()))


def ref_weight(d: FactoidDist, y: int) -> float:
    return special(d).get(y, d.background)


def _sorted_pairs(weights: dict) -> tuple[list[int], list[float]]:
    keys = sorted(weights)
    return keys, [weights[y] for y in keys]


def ref_mass_of_set(d, s):
    sp = special(d)
    atoms = set(s)
    n_plain = sum(1 for y in atoms if y not in sp)
    return math.fsum(sp[y] for y in atoms if y in sp) + d.background * n_plain


def ref_observed(draws):
    return frozenset(draws) | {BOTTOM}


def ref_monofact(draws):
    singles = sum(1 for y, c in Counter(draws).items() if c == 1 and y != BOTTOM)
    return singles / len(draws)


def ref_missing_mass(p, draws):
    sp = special(p)
    observed = ref_observed(draws)
    special_out = math.fsum(w for y, w in sp.items() if y not in observed)
    if p.background == 0.0:
        return special_out
    n_obs_plain = sum(1 for y in observed if y not in sp)
    return special_out + p.background * ((p.universe.size - len(sp)) - n_obs_plain)


def ref_sample_iid(d, n, rng):
    """Plain inversion: one searchsorted over the cumulative weights of the
    positive atoms."""
    sp = special(d)
    atoms = [y for y, w in sp.items() if w > 0.0]
    cum = np.cumsum([w for w in sp.values() if w > 0.0])
    cum[-1] = max(cum[-1], 1.0)
    return np.array(atoms, dtype=np.int64)[np.searchsorted(cum, rng.generator.random(n), side="right")]


def ref_normalized(universe, sp, background):
    """Normalization as a dict: divide by the exactly rounded total, take
    a background no atom carries as 0 and, with no background, drop zero
    weights. Returns (dict, background)."""
    total = math.fsum(sp.values()) + background * (universe.size - len(sp))
    if total <= 0.0:
        raise DistributionError("weights sum to zero")
    sp = {y: w / total for y, w in sp.items()}
    background = background / total if universe.size > len(sp) else 0.0
    if background == 0.0:
        sp = {y: w for y, w in sp.items() if w > 0.0}
    return sp, background


def ref_train(alg, universe, draws, truth):
    n = len(draws)
    mult = Counter(draws)
    if isinstance(alg, Empirical):
        return ref_normalized(universe, {y: c / n for y, c in mult.items()}, 0.0)
    if isinstance(alg, Laplace):
        denom = n + alg.alpha * universe.size
        sp = {y: (c + alg.alpha) / denom for y, c in mult.items()}
        return ref_normalized(universe, sp, alg.alpha / denom)
    if isinstance(alg, Uniform):
        return {}, 1.0 / universe.size
    if isinstance(alg, MonofactMemorizer):
        mf = ref_monofact(draws)
        observed = ref_observed(draws)
        n_unobs = universe.size - len(observed)
        if n_unobs == 0:
            raise DistributionError("no unobserved factoid")
        sp = {y: (1.0 - mf) / len(observed) for y in observed}
        return ref_normalized(universe, sp, mf / n_unobs)
    if isinstance(alg, Oracle):
        return special(truth), truth.background
    if isinstance(alg, YayMixture):
        base_sp, base_bg = ref_train(alg.base, universe, draws, truth)
        lam = alg.lam
        sp = {y: (1.0 - lam) * w for y, w in base_sp.items()}
        sp[BOTTOM] = lam + (1.0 - lam) * base_sp.get(BOTTOM, base_bg)
        return ref_normalized(universe, sp, (1.0 - lam) * base_bg)
    raise AssertionError(alg)


ALGORITHMS = [
    Empirical(),
    Laplace(0.5),
    Laplace(2.0),
    Uniform(),
    MonofactMemorizer(),
    Oracle(),
    YayMixture(Empirical(), 0.99),
    YayMixture(MonofactMemorizer(), 0.3),
    YayMixture(Laplace(0.5), 0.0),
]


# ---------------------------------------------------------------------------
# Fast path == reference
# ---------------------------------------------------------------------------


class TestAgainstReference:
    @given(data=st.data())
    @PROPERTY
    def test_normalization(self, data):
        size = data.draw(st.integers(2, 12))
        weights = data.draw(
            st.dictionaries(st.integers(0, size - 1), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0))
        )
        background = data.draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1.0))
        u = FactoidUniverse(size)
        try:
            want = ref_normalized(u, weights, background)
        except DistributionError:
            with pytest.raises(DistributionError):
                background_dist(u, weights, background)
            return
        d = background_dist(u, weights, background)
        assert (special(d), d.background) == want

    @given(data=st.data())
    @PROPERTY
    def test_dense_weights_match_weights_at_every_atom(self, data):
        """The one scatter that lays out every atom's weight gives the bits
        of weights_at over np.arange(size): zero-weight keys kept by the
        raw constructor, key 0 present or absent, background 0 or not."""
        size = data.draw(st.integers(2, 64), label="size")
        weight = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 10.0)
        weights = data.draw(st.dictionaries(st.integers(1, size - 1), weight, max_size=size - 1))
        if data.draw(st.booleans(), label="key 0"):
            weights[BOTTOM] = data.draw(weight)
        background = data.draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 1.0), label="background")
        d = FactoidDist(FactoidUniverse(size), *_sorted_pairs(weights), background)
        got = _dense_weights(d)
        assert got.dtype == np.float64 and got.shape == (size,)
        assert got.tobytes() == d.weights_at(np.arange(size)).tobytes()

    @given(pair=contained_pairs())
    @PROPERTY
    def test_keyed_profile(self, pair):
        d1, d2 = pair
        got = keyed_profile(d1, d2)
        keys = sorted(set(special(d1)) | set(special(d2)))
        rest = d1.universe.size - len(keys)
        # the rest class is keyed by the universe size, which no atom has
        classes = keys + [d1.universe.size] * (rest > 0)
        assert got.w1.tolist() == [ref_weight(d1, y) for y in classes]
        assert got.w2.tolist() == [ref_weight(d2, y) for y in classes]
        assert got.counts.tolist() == [1.0] * len(keys) + [float(rest)] * (rest > 0)
        assert got.bounds.tolist() == [0, len(classes)]
        facts = [BOTTOM, *(y for y, w in special(d1).items() if w > 0.0)]
        assert got.halluc_rate.tolist() == [max(0.0, 1.0 - ref_mass_of_set(d2, facts))]

    @given(pair=world_pairs())
    # g with a background: Laplace smoothing of a sample
    @example(pair=(fact_dist({1: 0.25, 3: 0.5, 4: 0.25}), train(Laplace(), HALLUC_SAMPLE)))
    # p keeps zero-weight keys, the empty fact among them
    @example(pair=(fact_dist({0: 0.0, 2: 0.0, 4: 1.0}), background_dist(HALLUC_U, {2: 1.0}, 0.2)))
    # the empty fact held by p only
    @example(pair=(fact_dist({0: 0.5, 3: 0.5}), background_dist(HALLUC_U, {3: 1.0}, 0.2)))
    # the empty fact held by g only
    @example(pair=(fact_dist({2: 0.5, 5: 0.5}), background_dist(HALLUC_U, {0: 1.0, 2: 1.0}, 0.1)))
    # the empty fact held by neither
    @example(pair=(fact_dist({1: 0.25, 5: 0.75}), background_dist(HALLUC_U, {5: 1.0}, 0.3)))
    # the keys cover the universe: no rest class; g's mass on p's zero keys
    @example(
        pair=(
            fact_dist({0: 0.2, 1: 0.3, 2: 0.5, 3: 0.0, 4: 0.0, 5: 0.0}),
            dist_from_weights(HALLUC_U, {3: 1.0, 4: 2.0, 5: 1.0}),
        )
    )
    # p's keys and g's leading empty fact cover the universe
    @example(
        pair=(
            fact_dist({1: 0.5, 2: 0.0, 3: 0.0, 4: 0.5, 5: 0.0}),
            dist_from_weights(HALLUC_U, dict.fromkeys(range(6), 1.0)),
        )
    )
    # g uniform: p's facts are the only keys
    @example(pair=(fact_dist({0: 0.5, 5: 0.5}), uniform_dist(HALLUC_U)))
    @PROPERTY
    def test_hallucination_rate_from_keyed_profile(self, pair):
        """The rate keyed_profile carries is the literal rate of g in the
        world of p, exactly: both sides take one fsum of the same terms."""
        p, g = pair
        world = WorldInstance(p)
        want = max(0.0, 1.0 - ref_mass_of_set(g, world.fact_keys.tolist()))
        assert keyed_profile(world.p, g).halluc_rate.tolist() == [hallucination_rate(g, world)]
        assert hallucination_rate(g, world) == want

    @given(data=st.data())
    @PROPERTY
    def test_mass_of_set(self, data):
        size = data.draw(st.integers(2, 12))
        d = data.draw(dists(size))
        s = data.draw(st.lists(st.integers(0, size - 1), max_size=2 * size))
        assert mass_of_set(d, s) == ref_mass_of_set(d, s)
        assert mass_of_set(d, np.array(s, dtype=np.int64)) == ref_mass_of_set(d, s)

    @given(sample=samples())
    @PROPERTY
    def test_multiplicities_and_monofact(self, sample):
        u, draws = sample
        s = TrainingSample(u, tuple(draws))
        assert dict(zip(s.atoms.tolist(), s.counts.tolist())) == Counter(draws)
        assert s.observed == ref_observed(draws)
        assert s.observed_count == len(ref_observed(draws))
        assert monofact_estimate(s) == ref_monofact(draws)

    @given(data=st.data())
    @PROPERTY
    def test_missing_mass(self, data):
        u, draws = data.draw(samples())
        p = data.draw(dists(u.size))
        s = TrainingSample(u, np.array(draws, dtype=np.int64))
        assert missing_mass(p, s) == ref_missing_mass(p, draws)

    @pytest.mark.parametrize("alg", ALGORITHMS, ids=repr)
    @given(data=st.data())
    @PROPERTY
    def test_train(self, alg, data):
        u, draws = data.draw(samples())
        truth = data.draw(dists(u.size))
        try:
            want = ref_train(alg, u, draws, truth)
        except DistributionError:
            with pytest.raises(DistributionError):
                train(alg, TrainingSample(u, tuple(draws)), truth=truth)
            return
        g = train(alg, TrainingSample(u, tuple(draws)), truth=truth)
        assert g.keys.tolist() == sorted(want[0])
        assert (special(g), g.background) == want


# ---------------------------------------------------------------------------
# Cached tables == plain searchsorted and fsum
# ---------------------------------------------------------------------------

#: masses that stress the tables: zeros, subnormals, and weights so far
#: apart that their exact total needs several floats
ODD_WEIGHTS = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-20, 1e-40, 3.0])
WEIGHTS = st.floats(0.0, 10.0) | ODD_WEIGHTS


def single_atom():
    return FactoidDist(FactoidUniverse(5), [3], [1.0])


def zero_and_tiny_weights():
    return FactoidDist(FactoidUniverse(40), [2, 9, 17], [1.0, 0.0, 1e-300])


def crowded_bucket():
    """64 tiny atoms share the first of 128 guide buckets, so a draw there
    takes more steps than the cap allows and must fall back."""
    return FactoidDist(FactoidUniverse(100), np.arange(1, 66), [1e-6] * 64 + [1.0 - 64e-6])


NAMED_DISTS = [single_atom, zero_and_tiny_weights, crowded_bucket]


@st.composite
def sampling_dists(draw):
    """A named hard case or a random distribution, with weights spanning
    normal, tiny and zero masses."""
    if draw(st.booleans()):
        return draw(st.sampled_from(NAMED_DISTS))()
    size = draw(st.integers(2, 80))
    keys = sorted(draw(st.sets(st.integers(0, size - 1), min_size=1)))
    values = draw(st.lists(WEIGHTS, min_size=len(keys), max_size=len(keys)))
    if not any(values):
        values[0] = 1.0
    return dist_from_weights(FactoidUniverse(size), dict(zip(keys, values)))


@st.composite
def counted_dists(draw):
    """A sampling case, or a few explicit atoms on a universe of up to
    10^12."""
    if draw(st.booleans()):
        return draw(sampling_dists())
    size = draw(st.integers(2, 10**12))
    keys = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=20))
    values = draw(st.lists(WEIGHTS, min_size=len(keys), max_size=len(keys)))
    if not any(values):
        values[0] = 1.0
    return dist_from_weights(FactoidUniverse(size), dict(zip(sorted(keys), values)))


#: the size rule's constants forcing each side of it on any table
COUNT_SIDES = st.sampled_from(
    [
        {"_COUNT_BASE_SLOTS": 2**62, "_COUNT_SLOTS_PER_DRAW": 0},
        {"_COUNT_BASE_SLOTS": -1, "_COUNT_SLOTS_PER_DRAW": 0},
    ]
)


#: exponents at which rank weights underflow to 0 (2^-1100 = 0) or turn
#: subnormal, next to the uniform and Zipf worlds
EXPONENTS = st.sampled_from([0.0, 1.0, 2.0, 200.0, 1030.0, 1100.0]) | st.floats(0.0, 1200.0)


@st.composite
def power_law_worlds(draw, max_universe=300, exponents=EXPONENTS):
    size = draw(st.integers(2, max_universe), label="universe_size")
    facts = draw(st.just(size - 1) | st.integers(1, size - 1), label="fact_count")
    return PermutedPowerLawWorld(size, facts, draw(exponents, label="exponent"))


@st.composite
def multi_type_worlds(draw, max_universe=25, exponents=EXPONENTS):
    """One to three power-law components with random type masses that may
    sum to 1 only within the 1e-9 a MultiTypeWorld allows, so that
    normalizing a draw moves its values."""
    k = draw(st.integers(1, 3), label="k")
    components = [draw(power_law_worlds(max_universe, exponents)) for _ in range(k)]
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = math.fsum(raw) * draw(st.sampled_from([1.0, 1.0 + 4e-10, 1.0 - 4e-10]))
    return MultiTypeWorld(tuple(components), tuple(w / total for w in raw))


#: the models whose rank templates each hold one value: exponent-0 power
#: laws and multi-type worlds built only from them
UNIFORM_WORLDS = power_law_worlds(exponents=st.just(0.0)) | multi_type_worlds(300, exponents=st.just(0.0))


def zero_punched_world() -> PermutedPowerLawWorld:
    """A power-law world whose template holds zeros between its weights."""
    model = PermutedPowerLawWorld(60, 5, 1.0)
    model.__dict__["rank_template"] = np.array([0.5, 0.0, 0.2, 0.0, 0.3])
    return model


class TestCachedTables:
    @given(d=sampling_dists(), seed=st.integers(0, 2**32))
    @PROPERTY
    def test_guided_slots_equal_searchsorted(self, d, seed):
        cum, _, guide, _ = d._inverse_cdf
        m = guide.size
        assert m & (m - 1) == 0 and cum.size <= m < 2 * cum.size
        edges = np.arange(m) / m
        assert np.array_equal(guide, np.searchsorted(cum, edges, side="right"))
        # uniform draws plus every tie and bucket edge, and the floats just below them
        ties = np.concatenate((cum[cum < 1.0], edges))
        uniform = np.random.default_rng(seed).random(500)
        u = np.concatenate((uniform, ties, np.nextafter(ties, -1.0)))
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(_guided_slots(cum, guide, u), np.searchsorted(cum, u, side="right"))

    def test_crowded_bucket_forces_the_fallback(self):
        cum, _, guide, _ = crowded_bucket()._inverse_cdf
        u = np.random.default_rng(0).random(20000)
        steps = np.searchsorted(cum, u, side="right") - guide[(u * guide.size).astype(np.intp)]
        assert steps.max() > _GUIDE_STEPS

    @given(d=sampling_dists(), n=st.integers(1, 300), seed=st.integers(0, 2**32))
    @PROPERTY
    def test_sample_iid_matches_plain_inversion(self, d, n, seed):
        got = sample_iid(d, n, SeededRng(seed))
        assert got.dtype == np.int64
        assert np.array_equal(got, ref_sample_iid(d, n, SeededRng(seed)))

    @given(
        ds=st.lists(counted_dists(), min_size=1, max_size=4),
        shared=st.booleans(),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32),
        side=COUNT_SIDES,
    )
    @PROPERTY
    def test_counted_rows_match_counted_draws(self, ds, shared, n, seed, side):
        """Each row, counted against its own table or, when every row
        shares one, in one pass, is the literal count of sample_iid's draws
        from its stream, its slots in increasing order."""
        if shared:
            ds = [ds[0]] * len(ds)
        tables = [d._inverse_cdf for d in ds]
        u = np.array([rng.generator.random(n) for rng in SeededRng(seed).children(range(len(ds)))])
        with mock.patch.multiple(dist_module, **side):
            rows = list(_count_rows(tables, u))
        assert len(rows) == len(ds)
        refs = SeededRng(seed).children(range(len(ds)))
        for d, table, (seen, counts), ref in zip(ds, tables, rows, refs):
            assert counts.dtype == np.int64 and (np.diff(seen) > 0).all()
            want = Counter(sample_iid(d, n, ref).tolist())
            assert dict(zip(table.atoms[seen].tolist(), counts.tolist())) == want

    @pytest.mark.parametrize(
        "atoms, n, rows, counted_by_bincount",
        [
            (10_000, 1000, 16, False),
            (10_000, 1000, 1, True),
            (1000, 2000, 8, True),
            (10**6, 1000, 1, False),
        ],
    )
    def test_size_rule_sides(self, atoms, n, rows, counted_by_bincount):
        """The concentration suite's chunk of 16 rows of 1000 draws on a
        10^4-slot table is counted by sorting each row, one such row by
        bincount; the README world's chunk of 8 rows of 2000 draws on 1000
        slots by one bincount, and a row on 10^6 slots by sorting."""
        p = FactoidDist(FactoidUniverse(atoms + 1), np.arange(1, atoms + 1), np.full(atoms, 1.0 / atoms))
        table = p._inverse_cdf  # built with a bincount of its own
        u = np.array([rng.generator.random(n) for rng in SeededRng(3).children(range(rows))])
        with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
            got = list(_count_rows([table] * rows, u))
        assert bincount.called == counted_by_bincount
        for (seen, counts), ref in zip(got, SeededRng(3).children(range(rows))):
            want = TrainingSample(p.universe, sample_iid(p, n, ref))
            assert np.array_equal(table.atoms[seen], want.atoms) and np.array_equal(counts, want.counts)

    @given(data=st.data())
    @PROPERTY
    def test_slot_masses_match_literal(self, data):
        """A row's missing mass, read off its seen slots from the unseen
        side and then, once the table's expansion is at hand, from the
        shorter side, is the literal fsum over p's unseen keys."""
        size = data.draw(st.integers(4, 60))
        keys = sorted(data.draw(st.sets(st.integers(1, size - 1), min_size=1)))
        values = data.draw(st.lists(WEIGHTS, min_size=len(keys), max_size=len(keys)))
        if not any(values):
            values[0] = 1.0
        p = FactoidDist(FactoidUniverse(size), keys, values)
        table = p._inverse_cdf
        seen = np.array(sorted(data.draw(st.sets(st.integers(0, table.atoms.size - 1)))), dtype=np.intp)
        want = ref_missing_mass(p, table.atoms[seen].tolist())
        masses = _SlotMasses()
        assert [masses(p, seen) for _ in range(3)] == [want] * 3

    @given(case=st.tuples(UNIFORM_WORLDS, st.just(True)), seed=st.integers(0, 2**32 - 1))
    @example(case=(PermutedPowerLawWorld(10**7, 1000, 0.0), True), seed=0)  # the README world
    @example(
        case=(
            MultiTypeWorld((PermutedPowerLawWorld(10**7, 1000, 0.0),) * 2, (0.5, 0.5)),  # AC05's
            True,
        ),
        seed=1,
    )
    @example(case=(PermutedPowerLawWorld(300, 40, 1.0), False), seed=2)
    @example(case=(PermutedPowerLawWorld(10**4, 2000, 1.0), False), seed=3)
    @example(
        case=(
            MultiTypeWorld(
                (PermutedPowerLawWorld(10**4, 300, 0.0), PermutedPowerLawWorld(10**3, 50, 1.0)),
                (0.5, 0.5),
            ),
            False,
        ),
        seed=4,
    )
    @example(case=(zero_punched_world(), False), seed=5)
    @PROPERTY
    def test_one_value_templates_share_one_table(self, case, seed):
        """Every draw of a model whose rank templates each hold one value
        carries the model's one read-only table, bit for bit the table its
        own weights build; draws of any other model build their own."""
        model, shared = case
        rng = SeededRng(seed)
        tables = []
        for _ in range(2):
            p = sample_world(model, rng).p
            table = p._inverse_cdf
            fresh = FactoidDist(p.universe, p.keys, p.values)._inverse_cdf
            for got, want in zip(table, fresh):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            tables.append(table)
        (cum, _, guide, weights), (next_cum, _, next_guide, next_weights) = tables
        if shared:
            assert cum is next_cum and guide is next_guide and weights is next_weights
        else:
            assert cum is not next_cum and guide is not next_guide and weights is not next_weights

    @given(values=st.lists(WEIGHTS | st.floats(0.0, 1e300), max_size=40))
    @PROPERTY
    def test_expansion_sums_exactly(self, values):
        parts = _expanded_total(np.array(values, dtype=np.float64))
        assert sum(map(Fraction, parts), Fraction(0)) == sum(map(Fraction, values), Fraction(0))
        for big, small in zip(parts, parts[1:]):
            assert small != 0.0 and abs(small) <= math.ulp(big) / 2

    def test_expansion_of_spread_weights_has_several_parts(self):
        values = [1.0, 1e-20, 1e-40, 5e-324]
        parts = _expanded_total(np.array(values))
        assert len(parts) == 4
        assert sum(map(Fraction, parts)) == sum(map(Fraction, values))


# ---------------------------------------------------------------------------
# The constructor fails closed
# ---------------------------------------------------------------------------


class TestConstructorFailsClosed:
    U = FactoidUniverse(6)

    @pytest.mark.parametrize("background", [math.nan, math.inf, -0.1])
    def test_bad_background(self, background):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1], [0.5], background)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.25])
    def test_bad_value(self, value):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1, 2], [0.5, value], 0.0)

    @pytest.mark.parametrize("key", [6, -1, 10**30])
    def test_key_out_of_range(self, key):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1, key], [0.5, 0.5], 0.0)

    def test_unsorted_keys(self):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [3, 1], [0.5, 0.5], 0.0)

    def test_duplicate_keys(self):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [2, 2], [0.5, 0.5], 0.0)

    def test_non_integer_keys(self):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1.5], [1.0], 0.0)

    def test_mismatched_lengths(self):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1, 2], [1.0], 0.0)

    def test_arrays_are_private_and_read_only(self):
        keys, values = np.array([1, 4]), np.array([0.25, 0.75])
        d = FactoidDist(self.U, keys, values, 0.0)
        keys[0], values[0] = 0, 9.0
        assert d.keys.tolist() == [1, 4] and d.values.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            d.values[0] = 1.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda u, w: dist_from_weights(u, w),
            lambda u, w: background_dist(u, w, 0.1),
        ],
        ids=["dist_from_weights", "background_dist"],
    )
    @pytest.mark.parametrize("weights", [{1.5: 1.0, 2: 1.0}, {2.0: 1.0}])
    def test_float_keys_through_module_constructors(self, build, weights):
        with pytest.raises(DistributionError):
            build(self.U, weights)

    def test_background_nan_through_module_constructor(self):
        with pytest.raises(DistributionError):
            background_dist(self.U, {1: 1.0}, math.nan)

    def test_valid_input_accepted(self):
        d = FactoidDist(self.U, [0, 3], [0.0, 0.5], 0.125)
        assert d.weight(0) == 0.0 and d.weight(3) == 0.5 and d.weight(5) == 0.125
        assert uniform_dist(self.U).weight(2) == 1.0 / 6

    def test_uncarried_background_over_subnormal_total(self):
        # every atom is explicit, so the background weighs nothing, though
        # dividing it by the 5e-324 total would give inf
        u, weights = FactoidUniverse(2), {0: 5e-324, 1: 0.0}
        d = background_dist(u, weights, 0.5)
        assert (d.keys.tolist(), d.values.tolist(), d.background) == ([0], [1.0], 0.0)
        assert ref_normalized(u, weights, 0.5) == ({0: 1.0}, 0.0)


class TestSampleFailsClosed:
    def test_non_integer_draws(self):
        with pytest.raises(DistributionError):
            TrainingSample(FactoidUniverse(4), (1.5, 2.0))

    def test_negative_draw(self):
        with pytest.raises(DistributionError):
            TrainingSample(FactoidUniverse(4), np.array([1, -1]))


# ---------------------------------------------------------------------------
# Bound verifiers == their every-completion and per-subset loops
# ---------------------------------------------------------------------------


def takes_exact_route(universe, fact_count, observed, g, partition):
    """The exact route's rule, atom by atom: the observed facts fill the
    budget, or g has one weight on the unobserved atoms and they share
    one block or each have a block to themselves."""
    obs = set(observed) | {BOTTOM}
    if fact_count == len(obs) - 1:
        return True
    unobserved = [y for y in range(universe.size) if y not in obs]
    touched = [block for block in partition_blocks(partition) if not block.isdisjoint(unobserved)]
    return len(set(g.weights_at(np.array(unobserved)).tolist())) == 1 and (
        len(touched) == 1 or all(len(block) == 1 for block in touched)
    )


def ref_lemma_scores(nu):
    """Every (partition, subset) pair of the lemma sweep, scored one
    partition at a time, from the recursive enumeration, and subset by
    subset, each right-hand side recomputed inside the partition loop: a
    LemmaMeatViolation row per pair, in the sweep's order, whatever its
    sign."""
    size = nu.universe.size
    weights = np.array([w for w, _ in nu.instances])
    P = np.array([inst.p.weights_at(np.arange(size)) for _, inst in nu.instances])
    mean_p = weights @ P
    subsets = [tuple(y for y in range(size) if mask >> y & 1) for mask in range(1, 1 << size)]
    scores = []
    for labels in restricted_growth_strings(size):
        part = Partition(nu.universe, np.array(labels))
        Q = np.empty_like(P)
        for block in partition_blocks(part):
            atoms = sorted(block)
            Q[:, atoms] = P[:, atoms].sum(axis=1, keepdims=True) / len(atoms)
        for atoms in subsets:
            sel = list(atoms)
            gap = P[:, sel].sum(axis=1) - Q[:, sel].sum(axis=1)
            lhs = float(weights @ np.clip(gap, 0.0, None))
            rhs = (size - len(sel)) * float(mean_p[sel].max())
            scores.append(
                LemmaMeatViolation(
                    partition_blocks=tuple(tuple(sorted(b)) for b in partition_blocks(part)),
                    subset=atoms,
                    lhs=lhs,
                    rhs=rhs,
                )
            )
    return scores


def kept_at(scores, tolerance):
    """The scored pairs verify_lemma_meat_exhaustive reports at this
    tolerance: lhs > rhs + tolerance, in order."""
    return [v for v in scores if v.lhs > v.rhs + tolerance]


def ref_lemma_sweep(nu, tolerance):
    """verify_lemma_meat_exhaustive through ref_lemma_scores."""
    return kept_at(ref_lemma_scores(nu), tolerance)


def ref_distinct(rng, low, high, count, exclude):
    """The distinct draw with its eligible list built atom by atom."""
    gen = rng.generator
    if high - low <= 4096 or count * 4 > high - low - sum(low <= y < high for y in exclude):
        eligible = np.array([y for y in range(low, high) if y not in exclude], dtype=np.int64)
        return [int(y) for y in gen.permutation(eligible)[:count]]
    seen, out = set(exclude), []
    while len(out) < count:
        for v in gen.integers(low, high, size=max(64, 2 * (count - len(out)))).tolist():
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) == count:
                    break
    return out


@st.composite
def theorem_main_cases(draw, max_size=60):
    """A uniform world of 2 to max_size atoms, an observed set holding
    none, some, all but one or all of the fact budget (the empty fact in
    or out), a g with zeros and backgrounds, and a singleton, adaptive,
    fixed-width, exact-value or random partition."""
    size = draw(st.integers(2, max_size), label="size")
    u = FactoidUniverse(size)
    fact_count = draw(st.integers(1, size - 1), label="fact_count")
    m = draw(st.sampled_from([0, fact_count - 1]) | st.integers(0, fact_count), label="m")
    observed = set(draw(st.permutations(range(1, size)))[:m])
    if draw(st.booleans()):
        observed.add(BOTTOM)
    g = draw(dists(size))
    kind = draw(st.sampled_from(["singletons", "adaptive", "fixed", "exact", "random"]))
    if kind == "singletons":
        partition = Partition.singletons(u)
    elif kind == "random":
        partition = random_partition(u, SeededRng(draw(st.integers(0, 2**32 - 1))))
    else:
        spec = {
            "adaptive": AdaptiveBinning(draw(st.integers(1, 8))),
            "fixed": FixedWidthBinning(draw(st.floats(0.01, 1.0))),
            "exact": ExactValueBinning(),
        }[kind]
        partition = partition_for_spec(g, spec)
    return u, fact_count, observed, g, partition


@st.composite
def exchangeable_theorem_main_cases(draw, max_size=60):
    """A case the exact route takes, over 2 to max_size atoms: g is one
    weight on every unobserved atom (a shared background or equal
    explicit weights, over observed atoms of any weight), and the
    unobserved atoms share one block (with observed atoms or not) or each
    have a block to themselves, the observed atoms blocked at random."""
    size = draw(st.integers(2, max_size), label="size")
    u = FactoidUniverse(size)
    fact_count = draw(st.integers(1, size - 1), label="fact_count")
    m = draw(
        st.sampled_from([0, fact_count - 1, fact_count]) | st.integers(0, fact_count), label="m"
    )
    observed = set(draw(st.permutations(range(1, size)))[:m])
    if draw(st.booleans()):
        observed.add(BOTTOM)
    unobserved = [y for y in range(size) if y not in observed | {BOTTOM}]
    weight = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 10.0)
    weights = {y: draw(weight) for y in sorted(observed | {BOTTOM}) if draw(st.booleans())}
    shared = draw(weight)
    # shared weighs nothing when every atom is observed
    if not any(w > 0.0 for w in weights.values()) and (shared == 0.0 or not unobserved):
        weights[BOTTOM] = 1.0
    if draw(st.booleans()):
        g = background_dist(u, weights, shared)
    else:
        g = dist_from_weights(u, weights | {y: shared for y in unobserved})
    labels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 4, size)
    if draw(st.booleans()):
        labels[unobserved] = draw(st.integers(0, 3))
    else:
        labels[unobserved] = 4 + np.arange(len(unobserved))
    partition = Partition(u, np.unique(labels, return_inverse=True)[1])
    return u, fact_count, observed, g, partition


@st.composite
def explicit_worlds(draw):
    size = draw(st.integers(2, 5), label="size")
    count = draw(st.integers(1, 8))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count))
    total = math.fsum(raw)
    instances = []
    for w in raw:
        weights = draw(
            st.dictionaries(st.integers(1, size - 1), st.floats(0.0, 1.0), max_size=size - 1)
        )
        weights[draw(st.integers(0, size - 1))] = draw(st.floats(0.01, 1.0))
        instances.append((w / total, WorldInstance(dist_from_weights(FactoidUniverse(size), weights))))
    return ExplicitWorld(tuple(instances))


@st.composite
def crowded_explicit_worlds(draw):
    """An explicit world of a few hundred instances, so every expectation
    the lemma sweep takes is a dot product of hundreds of terms."""
    size = draw(st.integers(2, 5), label="size")
    count = draw(st.integers(200, 400), label="count")
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = gen.random(count) + 0.01
    total = math.fsum(raw.tolist())
    u = FactoidUniverse(size)
    instances = []
    for w in raw.tolist():
        masses = gen.random(size) * (gen.random(size) < 0.7)
        masses[gen.integers(size)] += 0.01
        instances.append((w / total, WorldInstance(dist_from_weights(u, dict(enumerate(masses))))))
    return ExplicitWorld(tuple(instances))


class TestBatchedVerifiers:
    @given(
        exchangeable_theorem_main_cases(max_size=10)
        | theorem_main_cases(max_size=10).filter(lambda case: takes_exact_route(*case))
    )
    @PROPERTY
    def test_theorem_main_exact_route_matches_every_completion(self, case):
        # every completion has the one value the exact route scores, up to
        # the order in which equal terms are summed
        u, fact_count, observed, _, _ = case
        check = verify_theorem_main_mc(*case)
        assert abs(check.lhs - theorem_main_exhaustive(*case)) <= 1e-15
        q = posterior_fact_marginal(PermutedPowerLawWorld(u.size, fact_count), observed)
        obs_count = len(set(observed) | {BOTTOM})
        assert check.rhs == pytest.approx(q + obs_count * q / fact_count, rel=0, abs=1e-15)
        assert check.passed == (check.lhs <= check.rhs + FLOAT_SLACK)

    @given(theorem_main_cases())
    @PROPERTY
    def test_theorem_main_refuses_what_the_rule_does_not_cover(self, case):
        if takes_exact_route(*case):
            verify_theorem_main_mc(*case)
        else:
            with pytest.raises(DistributionError, match="computed exactly only when"):
                verify_theorem_main_mc(*case)

    @given(explicit_worlds(), st.sampled_from([1e-9, 0.0, -0.01, -0.1, -1.0]))
    @PROPERTY
    def test_lemma_sweep_matches_subset_loop(self, nu, tolerance):
        # negative tolerances turn most (partition, subset) pairs into
        # violations, so the lists are long and compared entry by entry
        assert verify_lemma_meat_exhaustive(nu, tolerance) == ref_lemma_sweep(nu, tolerance)

    @given(crowded_explicit_worlds(), st.sampled_from([1e-9, 0.0, -0.01, -0.1, -1.0]))
    @settings(max_examples=30, deadline=None)
    def test_lemma_sweep_matches_subset_loop_at_many_instances(self, nu, tolerance):
        assert verify_lemma_meat_exhaustive(nu, tolerance) == ref_lemma_sweep(nu, tolerance)

    @given(explicit_worlds() | crowded_explicit_worlds(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_lemma_sweep_tolerance_on_a_tie(self, nu, pick):
        """A tolerance of exactly lhs - rhs for one (partition, subset), and
        the floats either side of it, put that subset on the screen's edge.
        So does E[p(S)] - rhs, the edge where the trivial bound clears the
        subset before any partition is scored, with the floats and one
        rounding margin either side of it; -|Y| puts every limit below 0,
        so nothing is cleared."""
        every = ref_lemma_scores(nu)
        tie = every[pick % len(every)]
        exact = tie.lhs - tie.rhs
        weights = np.array([w for w, _ in nu.instances])
        P = np.array([inst.p.weights_at(np.arange(nu.universe.size)) for _, inst in nu.instances])
        edge = float(weights @ P[:, list(tie.subset)].sum(axis=1)) - tie.rhs
        margin = 2.0 * (len(weights) + 1) * np.finfo(float).eps
        for tolerance in (
            np.nextafter(exact, -math.inf),
            exact,
            np.nextafter(exact, math.inf),
            np.nextafter(edge, -math.inf),
            edge,
            np.nextafter(edge, math.inf),
            edge - margin,
            edge + margin,
            -float(nu.universe.size),
        ):
            got = verify_lemma_meat_exhaustive(nu, float(tolerance))
            assert got == kept_at(every, float(tolerance))

    @pytest.mark.parametrize("per_block", [1, 7, None])
    @given(explicit_worlds() | crowded_explicit_worlds(), st.sampled_from([1e-9, 0.0, -0.01, -0.1, -1.0]))
    @settings(max_examples=15, deadline=None)
    def test_lemma_sweep_across_block_boundaries(self, per_block, nu, tolerance):
        """One partition per block, seven (Bell(5) = 52 is 7 blocks of 7 and
        one of 3), or every partition in one block."""
        size = nu.universe.size
        bell = sum(1 for _ in restricted_growth_strings(size))
        per_partition = len(nu.instances) << size
        blocks = []

        def recorded(size, rows):
            for labels in _partition_label_rows(size, rows):
                blocks.append(len(labels))
                yield labels

        budget = per_partition * (per_block or bell) + per_partition // 2
        with mock.patch.object(bounds_module, "_SWEEP_CELLS", budget), mock.patch.object(
            bounds_module, "_partition_label_rows", recorded
        ):
            got = verify_lemma_meat_exhaustive(nu, tolerance)
        assert got == ref_lemma_sweep(nu, tolerance)
        assert sum(blocks) == bell and max(blocks) == min(per_block or bell, bell)

    @pytest.mark.parametrize("seed, tolerance", [(0, 1e-9), (0, 0.0), (1, 0.0), (2, -0.05)])
    def test_lemma_sweep_matches_subset_loop_at_six_atoms(self, seed, tolerance):
        # Bell(6) = 203 partitions in blocks of 17 at ten instances
        u = FactoidUniverse(6)
        rng = SeededRng(seed)
        nu = ExplicitWorld(
            tuple((0.1, WorldInstance(random_dist(u, rng.child(i)))) for i in range(10))
        )
        assert verify_lemma_meat_exhaustive(nu, tolerance) == ref_lemma_sweep(nu, tolerance)

    @pytest.mark.parametrize("size", [7, 8])
    @pytest.mark.parametrize("tolerance", [-0.02, -0.1])
    def test_lemma_sweep_matches_gather_route(self, size, tolerance):
        # brute-force's prior. The lists hold one violation per partition
        # (S = Y, whose lhs is the rounding left in p(Y) - coarsened p(Y),
        # so it moves with any change in summation order) and more at -0.1
        u = FactoidUniverse(size)
        rng = SeededRng(0)
        nu = ExplicitWorld(
            tuple((0.1, WorldInstance(random_dist(u, rng.child(0, i)))) for i in range(10))
        )
        got = verify_lemma_meat_exhaustive(nu, tolerance, max_universe=size)
        assert len(got) >= len(list(restricted_growth_strings(size)))
        assert any(v.lhs > 0.0 for v in got)
        assert got == gather_lemma_sweep(nu, tolerance)

    @given(st.integers(1, 7).flatmap(
        lambda size: st.lists(st.floats(0.0, 1e300), min_size=size, max_size=size)
    ))
    @PROPERTY
    def test_subset_table_matches_gathered_row_sums(self, values):
        """Row mask of each table is the per-subset np.sum of the gathered
        row, zero-padded as the gather route padded it, bit for bit; the
        same doubling gives each subset's size and largest value."""
        x = np.array(values)
        size = len(values)
        padded = np.append(x, 0.0)
        sums = _subset_table(np.add, x, 0.0)
        sizes = _subset_table(np.add, np.ones(size, dtype=np.intp), 0)
        largest = _subset_table(np.maximum, x, -math.inf)
        for mask in range(1, 1 << size):
            atoms = [y for y in range(size) if mask >> y & 1]
            row = np.array(atoms + [size] * (size - len(atoms)))
            assert sums[mask].tobytes() == np.sum(padded[row]).tobytes()
            assert sums[mask].tobytes() == np.sum(x[atoms]).tobytes()
            assert sizes[mask] == len(atoms)
            assert largest[mask] == x[atoms].max()
        assert sums[0] == 0.0 and sizes[0] == 0

    @given(
        st.integers(0, 6000),
        st.integers(1, 6000),
        st.integers(0, 200),
        st.sets(st.integers(-5, 6200), max_size=30),
        st.integers(0, 2**32 - 1),
    )
    @PROPERTY
    def test_distinct_draw_matches_literal_eligible_list(self, low, width, count, exclude, seed):
        high = low + width
        available = width - sum(low <= y < high for y in exclude)
        count = min(count, available)
        exclude = frozenset(exclude)
        got = sample_distinct_excluding(SeededRng(seed), low, high, count, exclude)
        assert got == ref_distinct(SeededRng(seed), low, high, count, exclude)


# ---------------------------------------------------------------------------
# Label partitions == the frozenset builders they replaced
# ---------------------------------------------------------------------------


def ref_sorted_groups(order, starts):
    """Blocks as frozensets: group i is order[starts[i]:starts[i + 1]]."""
    bounds = np.append(starts, order.size)
    return tuple(frozenset(order[bounds[i] : bounds[i + 1]].tolist()) for i in range(len(starts)))


def ref_all_partitions(size):
    """Every set partition, each atom joining an open block or opening one."""
    blocks = []

    def rec(y):
        if y == size:
            yield tuple(frozenset(b) for b in blocks)
            return
        for b in blocks:
            b.append(y)
            yield from rec(y + 1)
            b.pop()
        blocks.append([y])
        yield from rec(y + 1)
        blocks.pop()

    yield from rec(0)


def ref_random_partition(size, rng):
    """Shuffled atoms cut at random split points, with the same generator
    calls as random_partition."""
    gen = rng.generator
    order = gen.permutation(size)
    n_blocks = int(gen.integers(1, size + 1))
    if n_blocks > 1:
        cuts = np.sort(gen.choice(size - 1, size=n_blocks - 1, replace=False)) + 1
    else:
        cuts = np.zeros(0, dtype=np.int64)
    return ref_sorted_groups(order, np.concatenate(([0], cuts)))


@st.composite
def binning_specs(draw):
    return draw(
        st.sampled_from([ExactValueBinning(), FixedWidthBinning(0.0), FixedWidthBinning(1.0)])
        | st.builds(AdaptiveBinning, st.integers(1, 12))
        | st.builds(FixedWidthBinning, st.floats(0.01, 1.0))
    )


class TestLabelPartitions:
    @pytest.mark.parametrize("size", range(2, 8))
    def test_every_partition_matches_the_recursive_enumeration(self, size):
        got = [partition_blocks(part) for part in iter_all_partitions(FactoidUniverse(size))]
        assert got == list(ref_all_partitions(size))

    @pytest.mark.parametrize(
        "size, bell",
        [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877), (8, 4140), (9, 21147)],
    )
    def test_label_rows_match_the_recursive_generator(self, size, bell):
        expected = list(restricted_growth_strings(size))
        assert len(expected) == bell
        for rows in (1, 7, 4096):
            blocks = list(_partition_label_rows(size, rows))
            assert max(len(block) for block in blocks) == min(rows, bell)
            assert [tuple(row) for block in blocks for row in block.tolist()] == expected
        if size >= 2:  # a universe has at least two atoms
            got = [tuple(part.labels.tolist()) for part in iter_all_partitions(FactoidUniverse(size))]
            assert got == expected

    def test_partitions_at_the_limit_come_out_lazily(self):
        # all Bell(12) = 4213597 label rows would take 404 MB
        tracemalloc.start()
        try:
            first = list(islice(iter_all_partitions(FactoidUniverse(PARTITION_LIMIT)), 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        expected = list(islice(restricted_growth_strings(PARTITION_LIMIT), 1000))
        assert [tuple(part.labels.tolist()) for part in first] == expected
        with pytest.raises(PartitionError):
            next(_partition_label_rows(PARTITION_LIMIT + 1, 1))

    @given(st.integers(2, 40).flatmap(dists), binning_specs())
    @PROPERTY
    def test_binning_partition_matches_sorted_group_split(self, g, spec):
        vals = g.weights_at(np.arange(g.universe.size))
        profile = SortedProfiles(vals, vals, np.ones(vals.size), (0, vals.size))
        assert profile.order.tolist() == np.argsort(vals, kind="stable").tolist()
        starts = _block_starts_for_spec(profile, spec)
        assert partition_blocks(partition_for_spec(g, spec)) == ref_sorted_groups(profile.order, starts)

    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    @PROPERTY
    def test_random_partition_matches_cut_points(self, size, seed):
        got = random_partition(FactoidUniverse(size), SeededRng(seed))
        assert partition_blocks(got) == ref_random_partition(size, SeededRng(seed))


def ref_stream(seed, key):
    """numpy's documented stream for (seed, spawn key), and the fingerprint
    of its SeedSequence."""
    seq = np.random.SeedSequence(seed, spawn_key=key)
    lo, hi = seq.generate_state(2, np.uint64).tolist()
    return np.random.Generator(np.random.PCG64(seq)), (lo ^ (hi << 1)) & (2**64 - 1)


#: ints that SeedSequence splits into one, two or three 32-bit words
WORDY_INTS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5]) | st.integers(0, 2**70)


class TestChildStreams:
    @given(
        WORDY_INTS,
        st.lists(WORDY_INTS, max_size=3),
        st.lists(st.sampled_from([0, 2**32 - 1, 2**32, 2**40]) | st.integers(0, 2**33), min_size=1,
                 max_size=6),
    )
    @PROPERTY
    def test_children_match_literal_seed_sequence(self, seed, key, indices):
        parent = SeededRng(seed, tuple(key))
        got = list(parent.children(indices))
        assert [c.key for c in got] == [tuple(key) + (i,) for i in indices]
        for i, child in zip(indices, got):
            ref, fingerprint = ref_stream(seed, tuple(key) + (i,))
            assert child.generator.bit_generator.state == ref.bit_generator.state
            assert child.fingerprint() == fingerprint == parent.child(i).fingerprint()
            assert np.array_equal(child.generator.random(3), ref.random(3))
            assert child.generator.integers(2**62) == ref.integers(2**62)

    def test_children_across_batches_match_child(self):
        parent = SeededRng(7, (2,))
        indices = range(_CHILD_BATCH - 2, _CHILD_BATCH + 3)
        got = list(parent.children(range(_CHILD_BATCH + 3)))[-len(indices):]
        for i, child in zip(indices, got):
            assert child.key == (2, i)
            assert child.generator.bit_generator.state == ref_stream(7, (2, i))[0].bit_generator.state


# ---------------------------------------------------------------------------
# Explicit regularity analysis == the dense route over every atom
# ---------------------------------------------------------------------------


def ref_analyze_explicit(model, sample):
    """(s, r_facts, r_probs) of an explicit world the dense way: every
    unobserved atom of the universe gets a fact probability and an
    expected mass."""
    if sample.universe != model.universe:
        raise UniverseMismatchError("sample universe does not match the model")
    post = _posterior_over_instances(model, sample)
    unobserved = np.setdiff1d(np.arange(sample.universe.size), sample.observed_keys)
    n_unobs = unobserved.size
    s = min(_instance_sparsity(inst) for _, inst in model.instances)
    if n_unobs == 0:
        return s, 1.0, 1.0
    pr_fact = np.zeros(n_unobs)
    exp_mass = np.zeros(n_unobs)
    exp_overlap = 0.0
    exp_missing = 0.0
    for w, (_, inst) in zip(post, model.instances):
        if w == 0.0:
            continue
        is_fact = np.isin(unobserved, inst.fact_keys)
        mass = inst.p.weights_at(unobserved)
        pr_fact += np.where(is_fact, w, 0.0)
        exp_mass += w * mass
        exp_overlap += w * int(np.count_nonzero(is_fact))
        exp_missing += w * math.fsum(mass.tolist())
    r_facts = 1.0 if exp_overlap == 0.0 else float(pr_fact.max()) * n_unobs / exp_overlap
    r_probs = 1.0 if exp_missing == 0.0 else float(exp_mass.max()) * n_unobs / exp_missing
    return s, r_facts, r_probs


def regularity_bits(report) -> list[str]:
    return [float.hex(float(x)) for x in (report.s, report.r_facts, report.r_probs)]


@st.composite
def regularity_cases(draw):
    """An explicit world of 1-4 instances on 2-30 atoms, whose fact
    distributions keep explicit zero weights and may weigh the empty
    fact, and a sample of facts of any instance or of any atoms, which
    may contradict every instance or observe the whole universe."""
    size = draw(st.integers(2, 30), label="size")
    u = FactoidUniverse(size)
    count = draw(st.integers(1, 4), label="count")
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count))
    total = math.fsum(raw)
    instances = []
    for w in raw:
        weights = draw(
            st.dictionaries(
                st.integers(0, size - 1), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
                min_size=1, max_size=size,
            )
        )
        if not any(v > 0.0 for v in weights.values()):
            weights[draw(st.integers(0, size - 1))] = 1.0
        keys, values = _sorted_pairs(weights)
        mass = math.fsum(values)
        p = FactoidDist(u, keys, [v / mass for v in values])
        instances.append((w / total, WorldInstance(p)))
    facts = sorted({y for _, inst in instances for y in inst.fact_keys.tolist()})
    draws = draw(st.lists(st.sampled_from(facts) | st.integers(0, size - 1), max_size=size + 2))
    return ExplicitWorld(tuple(instances)), TrainingSample(u, draws)


class TestExplicitRegularity:
    @given(regularity_cases())
    @PROPERTY
    def test_keyed_atoms_match_dense_route(self, case):
        model, sample = case
        try:
            want = ref_analyze_explicit(model, sample)
        except DistributionError:
            with pytest.raises(DistributionError):
                analyze_regularity(model, sample)
            return
        assert regularity_bits(analyze_regularity(model, sample)) == [float.hex(x) for x in want]

    def test_enumerated_w5_matches_dense_route(self):
        model = W5World(2, 2, 2, 2)
        enumerated = enumerate_w5_instances(model)
        rng = SeededRng(18)
        for i in range(12):
            inst = sample_world(model, rng.child(i, 0))
            draws = sample_iid(inst.p, 1 + i % 4, rng.child(i, 1)) if i else ()
            sample = TrainingSample(model.universe, draws)
            want = ref_analyze_explicit(enumerated, sample)
            assert regularity_bits(analyze_regularity(enumerated, sample)) == [
                float.hex(x) for x in want
            ]

    def test_universe_above_a_million_atoms(self):
        # the dense route lists all 2,000,001 atoms; the keyed one scores 5
        u = FactoidUniverse(2_000_001)
        small = WorldInstance(FactoidDist(u, [1, 2], [0.5, 0.5]))
        large = WorldInstance(FactoidDist(u, [3, 4, 5, 6], [0.25] * 4))
        model = ExplicitWorld(((0.5, small), (0.5, large)))
        sample = TrainingSample(u, (1,))
        report = analyze_regularity(model, sample)
        # only the small instance explains atom 1; its one unobserved fact
        # is atom 2, with probability 1 and mass 0.5
        assert sample.unobserved_count == 1_999_999
        assert (report.r_facts, report.r_probs) == (1_999_999.0, 1_999_999.0)
        assert regularity_bits(report) == [float.hex(x) for x in ref_analyze_explicit(model, sample)]


# ---------------------------------------------------------------------------
# Rank-template world draws and per-type profiles == their literal routes
# ---------------------------------------------------------------------------


def ref_power_law_draw(model, rng):
    """A permuted power-law world drawn the literal way: rank weights,
    their fsum total, a sort of the drawn atoms, and dist_from_arrays
    normalizing again and dropping zeros."""
    ranked = rng.generator.choice(model.universe_size - 1, size=model.fact_count, replace=False) + 1
    ranks = np.arange(1, ranked.size + 1, dtype=np.float64)
    raw = ranks ** (-model.exponent)
    total = math.fsum(raw.tolist())
    order = np.argsort(ranked)
    return dist_from_arrays(model.universe, ranked[order], raw[order] / total)


def ref_world_draw(model, rng):
    """sample_world's p the literal way: a multi-type world draws each
    component in turn, scales it by its type weight, puts component mass
    on the empty fact onto the shared one, and normalizes the lot."""
    if isinstance(model, PermutedPowerLawWorld):
        return ref_power_law_draw(model, rng)
    if not isinstance(model, MultiTypeWorld):
        return sample_world(model, rng).p
    keys, values = [], []
    bottom_mass = 0.0
    for i, (component, w) in enumerate(zip(model.components, model.weights)):
        p_i = ref_world_draw(component, rng)
        real = p_i.keys != BOTTOM
        keys.append(p_i.keys[real] + (model.type_offset(i) - 1))
        values.append(w * p_i.values[real])
        bottom_mass += w * math.fsum(p_i.values[~real].tolist())
    if bottom_mass > 0.0:
        keys.insert(0, [BOTTOM])
        values.insert(0, [bottom_mass])
    return dist_from_arrays(model.universe, np.concatenate(keys), np.concatenate(values))


def ref_induced_local_dist(model, i, d):
    """Project a global distribution onto one type's local universe.

    In-range atoms keep their weight (specials mapped, background kept);
    everything else, the shared empty fact included, lands on the local
    empty fact.
    """
    start = model.type_offset(i)
    local_universe = model.components[i].universe
    lo, hi = np.searchsorted(d.keys, (start, start + local_universe.size - 1))
    part = slice(int(lo), int(hi))
    weights = d.values[part]
    # accumulated left to right in atom order, like a running sum
    in_range_special_mass = float(np.cumsum(weights)[-1]) if weights.size else 0.0
    range_mass = in_range_special_mass + d.background * (local_universe.size - 1 - weights.size)
    return dist_from_arrays(
        local_universe,
        np.insert(d.keys[part] - (start - 1), 0, BOTTOM),
        np.insert(weights, 0, max(0.0, 1.0 - range_mass)),
        d.background,
    )


def ref_multi_type_trial_metrics(model, world, sample, g, params):
    """Per-type tuples through both induced local distributions of every
    type, miscalibration and hallucination_rate."""
    out = []
    for i in range(model.k_types):
        span = model.type_range(i)
        in_range = (sample.atoms >= span.start) & (sample.atoms < span.stop)
        mf_i = int(np.count_nonzero(sample.counts[in_range] == 1)) / sample.n
        p_i = ref_induced_local_dist(model, i, world.p)
        g_i = ref_induced_local_dist(model, i, g)
        mc_i = miscalibration(p_i, g_i, AdaptiveBinning(params.b))
        g_h_i = hallucination_rate(g_i, WorldInstance(p_i))
        out.append((mf_i, g_h_i, mc_i, evaluate_bound(g_h_i, rhs_terms("cor1", mf_i, mc_i, params))))
    return out


def same_dist(a: FactoidDist, b: FactoidDist) -> bool:
    """The same distribution to the byte: universe, key and value bytes and
    dtypes, and background."""
    return (
        a.universe == b.universe
        and a.keys.dtype == b.keys.dtype
        and a.keys.tobytes() == b.keys.tobytes()
        and a.values.dtype == b.values.dtype
        and a.values.tobytes() == b.values.tobytes()
        and type(a.background) is type(b.background)
        and a.background == b.background
    )


class TestRankTemplates:
    @given(power_law_worlds(), st.integers(0, 2**32 - 1))
    @example(PermutedPowerLawWorld(1000, 100, 200.0), 5)  # ranks past 34 weigh 0
    @example(PermutedPowerLawWorld(50, 49, 1.0), 3)  # every atom a fact
    @example(PermutedPowerLawWorld(10**6, 300, 1030.0), 8)  # rank 2 subnormal
    @example(PermutedPowerLawWorld(40, 1, 0.0), 11)  # one fact
    @example(PermutedPowerLawWorld(50, 49, 0.0), 12)  # every atom a fact, uniform
    @example(PermutedPowerLawWorld(10**6, 2000, 0.0), 13)
    @PROPERTY
    def test_power_law_draw_matches_literal_route(self, model, seed):
        got_rng, ref_rng = SeededRng(seed), SeededRng(seed)
        # twice from one model: the second draw reuses the cached template
        for _ in range(2):
            assert same_dist(sample_world(model, got_rng).p, ref_power_law_draw(model, ref_rng))
        assert got_rng.generator.bit_generator.state == ref_rng.generator.bit_generator.state

    @given(multi_type_worlds(max_universe=300), st.integers(0, 2**32 - 1))
    @PROPERTY
    def test_multi_type_draw_matches_literal_route(self, model, seed):
        got_rng, ref_rng = SeededRng(seed), SeededRng(seed)
        for _ in range(2):
            assert same_dist(sample_world(model, got_rng).p, ref_world_draw(model, ref_rng))
        assert got_rng.generator.bit_generator.state == ref_rng.generator.bit_generator.state

    @pytest.mark.parametrize(
        "model",
        [
            PermutedPowerLawWorld(50, 10, 1.0),
            PermutedPowerLawWorld(50, 10, 0.0),
            MultiTypeWorld((PermutedPowerLawWorld(20, 5, 0.0), PermutedPowerLawWorld(30, 4, 1.0)), (0.5, 0.5)),
            MultiTypeWorld((PermutedPowerLawWorld(20, 5, 0.0), PermutedPowerLawWorld(30, 4, 0.0)), (0.5, 0.5)),
        ],
        ids=repr,
    )
    def test_cached_templates_are_read_only(self, model):
        """A write into a model's cached template or shared table would
        change every later draw: a uniform power-law draw holds the
        template itself as its values."""
        templates = model.rank_template
        templates = templates if isinstance(templates, tuple) else (templates,)
        for template in templates:
            with pytest.raises(ValueError):
                template[0] = 0.5
        if model.draw_table is not None:
            for column in model.draw_table:
                with pytest.raises(ValueError):
                    column[:] = 1
        p = sample_world(model, SeededRng(6)).p
        one_template = isinstance(model, PermutedPowerLawWorld) and model.draw_table is not None
        assert any(np.shares_memory(p.values, t) for t in templates) == one_template
        for column in (p.keys, p.values):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_template_zeros_underflowing_ranks(self):
        model = PermutedPowerLawWorld(1000, 100, 200.0)
        kept = np.count_nonzero(model.rank_template)
        assert 0 < kept < model.fact_count
        assert (model.rank_template[:kept] > 0.0).all()
        with pytest.raises(DistributionError, match="W5World"):
            MultiTypeWorld((model, W5World(1, 1, 2, 2)), (0.5, 0.5))

    def test_template_zeros_need_not_trail(self):
        # the ranks a draw drops are those the template holds at 0, wherever
        # they sit, not just a tail of the weights falling with the rank
        model = zero_punched_world()
        ranked = SeededRng(4).generator.choice(59, size=5, replace=False) + 1
        p = sample_world(model, SeededRng(4)).p
        assert dict(zip(p.keys.tolist(), p.values.tolist())) == {
            ranked[0]: 0.5, ranked[2]: 0.2, ranked[4]: 0.3
        }


@st.composite
def multi_type_cases(draw):
    """A multi-type world, n draws from it (n small enough that the
    memorizer keeps an unobserved atom) and one algorithm's g. The world
    is the model's draw or, half the time, any sparse p over its universe
    whose explicit weights include zeros, which the projection drops."""
    model = draw(multi_type_worlds().filter(lambda m: m.universe_size >= 3))
    rng = SeededRng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        world = sample_world(model, rng)
    else:
        weights = draw(
            st.dictionaries(
                st.integers(0, model.universe_size - 1),
                st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
                min_size=1,
            )
        )
        if not any(w > 0.0 for w in weights.values()):
            weights[min(weights)] = 1.0
        keys, values = _sorted_pairs(weights)
        total = math.fsum(values)
        world = WorldInstance(FactoidDist(model.universe, keys, [w / total for w in values]))
    n = draw(st.integers(1, min(40, model.universe_size - 2)), label="n")
    sample = TrainingSample(world.universe, sample_iid(world.p, n, rng))
    g = train(draw(st.sampled_from(ALGORITHMS)), sample, truth=world.p)
    params = BoundParams(
        delta=0.1, b=draw(st.integers(1, 10)), epsilon=0.1, s=1.0, r=1.0, n=n, k_types=model.k_types
    )
    return model, world, sample, g, params


def bottom_dropped_case():
    """One type holding all the mass: the local empty fact of p weighs
    1 - (p's mass in range) = 0 and is dropped."""
    model = MultiTypeWorld((PermutedPowerLawWorld(12, 4, 0.0),), (1.0,))
    world = WorldInstance(dist_from_weights(model.universe, {3: 1.0, 5: 1.0, 8: 1.0, 9: 1.0}))
    sample = TrainingSample(world.universe, [3, 3, 5, 8])
    params = BoundParams(delta=0.1, b=4, epsilon=0.1, s=1.0, r=1.0, n=4, k_types=1)
    return model, world, sample, train(Empirical(), sample), params


def full_range_case(alg):
    """A type whose facts fill its range, so the local profile has no rest
    class, next to a sparse type."""
    model = MultiTypeWorld(
        (PermutedPowerLawWorld(6, 5, 1.0), PermutedPowerLawWorld(20, 3, 0.0)), (0.3, 0.7)
    )
    rng = SeededRng(11)
    world = sample_world(model, rng)
    sample = TrainingSample(world.universe, sample_iid(world.p, 12, rng))
    params = BoundParams(delta=0.1, b=3, epsilon=0.1, s=1.0, r=1.0, n=12, k_types=2)
    return model, world, sample, train(alg, sample, truth=world.p), params


def one_trial_metrics(model, world, sample, g, params):
    """multi_type_trial_metrics of one trial, scored as a batch of one."""
    (row,) = multi_type_trial_metrics(model, [(world, sample, g)], params)
    return row


class TestMultiTypeProfiles:
    @given(multi_type_cases())
    @PROPERTY
    def test_per_type_tuples_match_literal_projection(self, case):
        assert one_trial_metrics(*case) == ref_multi_type_trial_metrics(*case)

    @given(multi_type_cases())
    @example(bottom_dropped_case())
    @example(full_range_case(Laplace(0.5)))
    @example(full_range_case(MonofactMemorizer()))
    @PROPERTY
    def test_local_sides_are_the_literal_projection(self, case):
        """Each type's projection of p and of g holds the keys, values and
        background of the literal induced distribution, byte for byte, so a
        zero key kept on one route and dropped on the other shows."""
        model, world, _, g, _ = case
        for i, component in enumerate(model.components):
            for d in (world.p, g):
                keys, values, background = _local_side(d, model.type_offset(i), component.universe_size)
                want = ref_induced_local_dist(model, i, d)
                assert (keys.dtype, values.dtype) == (want.keys.dtype, want.values.dtype)
                assert keys.tobytes() == want.keys.tobytes()
                assert values.tobytes() == want.values.tobytes()
                assert background == want.background

    def test_dropped_local_bottom(self):
        model, world, sample, g, params = case = bottom_dropped_case()
        assert ref_induced_local_dist(model, 0, world.p).weight(BOTTOM) == 0.0
        assert BOTTOM not in ref_induced_local_dist(model, 0, world.p).keys
        assert one_trial_metrics(*case) == ref_multi_type_trial_metrics(*case)

    @pytest.mark.parametrize("alg", ALGORITHMS, ids=repr)
    def test_type_filling_its_range(self, alg):
        model, world, sample, g, params = case = full_range_case(alg)
        assert ref_induced_local_dist(model, 0, world.p).keys.size == model.components[0].universe_size
        assert one_trial_metrics(*case) == ref_multi_type_trial_metrics(*case)


# ---------------------------------------------------------------------------
# Memorizer upper-bound suite
# ---------------------------------------------------------------------------


@st.composite
def upper_bound_cases(draw):
    """A small power-law world, n below its size, a few trials, a seed and
    a calibration radius that decides the event either way."""
    n = draw(st.integers(1, 60), label="n")
    size = draw(st.integers(n + 2, 300), label="universe_size")
    facts = draw(st.integers(1, size - 1), label="fact_count")
    model = PermutedPowerLawWorld(size, facts, draw(st.sampled_from([0.0, 1.0, 2.0])))
    trials = draw(st.integers(1, 5), label="trials")
    radius = draw(st.sampled_from([0.0, 0.01, 0.05]) | st.floats(0.0, 0.5), label="radius")
    return model, n, trials, draw(st.integers(0, 2**32), label="seed"), radius


class TestUpperBoundCheck:
    @given(upper_bound_cases())
    @PROPERTY
    def test_hits_match_literal_recount(self, case):
        """Both event counts equal a recount over the same child streams
        through the literal hallucination rate and miscalibration."""
        model, n, trials, seed, radius = case
        with mock.patch.object(harness, "good_turing_radius", lambda delta, n: radius):
            report = run_upper_bound_check(model, n, 0.1, trials, seed)
        certainty = calibration = 0
        for rng in SeededRng(seed).children(range(1, trials + 1)):
            world = sample_world(model, rng)
            sample = TrainingSample(world.universe, sample_iid(world.p, n, rng))
            g = train(MonofactMemorizer(), sample)
            certainty += hallucination_rate(g, world) <= monofact_estimate(sample) + 1e-12
            calibration += miscalibration(world.p, g, ExactValueBinning()) <= radius
        assert (report.certainty_hits, report.calibration_hits) == (certainty, calibration)


# ---------------------------------------------------------------------------
# Chunked draw route
# ---------------------------------------------------------------------------


@st.composite
def w5_worlds(draw):
    return W5World(*(draw(st.integers(1, 4)) for _ in range(4)))


#: every drawable model kind: uniform and Zipf power laws (one shared table
#: or a table per draw), W5 and multi-type worlds
DRAWN_MODELS = (
    power_law_worlds(exponents=st.just(0.0))
    | power_law_worlds(exponents=st.sampled_from([1.0, 2.0]) | st.floats(0.1, 3.0))
    | w5_worlds()
    | multi_type_worlds(exponents=st.just(0.0))
    | multi_type_worlds()
)

#: (streams a chunk, trials): chunks of one stream, exactly one full chunk,
#: and full chunks followed by a partial last one
CHUNKINGS = st.sampled_from([(1, 3), (3, 3), (4, 4), (3, 7), (4, 6)])
#: table slots that close a chunk: never reached, reached by every stream,
#: or reached after some streams of a small world
SLOT_CAPS = st.sampled_from([1 << 14, 1, 60, 100])


class TestChunkedDrawRoute:
    @given(
        model=DRAWN_MODELS,
        n=st.integers(1, 60),
        chunking=CHUNKINGS,
        slot_cap=SLOT_CAPS,
        seed=st.integers(0, 2**32),
    )
    @example(model=PermutedPowerLawWorld(10**7, 1000, 0.0), n=2000, chunking=(8, 11), slot_cap=1 << 14, seed=0)
    @example(model=PermutedPowerLawWorld(300, 40, 1.0), n=50, chunking=(3, 7), slot_cap=1 << 14, seed=1)
    @example(model=PermutedPowerLawWorld(300, 40, 1.0), n=5, chunking=(4, 6), slot_cap=100, seed=3)
    @example(model=W5World(3, 2, 2, 2), n=5, chunking=(3, 7), slot_cap=1 << 14, seed=2)
    @PROPERTY
    def test_chunked_route_matches_literal(self, model, n, chunking, slot_cap, seed):
        """Each stream's world, sample, monofact estimate, missing mass
        and empirical g, drawn and counted a chunk at a time, equal the
        literal route's on that stream alone (sample_world, sample_iid, a
        Counter, the literal missing mass), and every generator ends where
        the literal route leaves it, whether a chunk closes at its draws or
        at its worlds' slots. Zipf, W5 and non-uniform multi-type draws
        each carry a table of their own, so a row counted against another
        row's table draws other atoms."""
        chunk, trials = chunking
        with mock.patch.multiple(dist_module, _CHUNK_DRAWS=chunk * n, _CHUNK_SLOTS=slot_cap):
            got = list(harness._drawn(model, n, seed, range(trials)))
            trained = list(harness._trained(model, n, Empirical(), seed, range(trials)))
        assert [i for i, *_ in got] == list(range(trials))
        masses = _SlotMasses()
        for (_, rng, world, sample, seen), (_, _, g), ref in zip(
            got, trained, SeededRng(seed).children(range(trials))
        ):
            mf, p_u = monofact_estimate(sample), masses(world.p, seen)
            ref_world = sample_world(model, ref)
            draws = sample_iid(ref_world.p, n, ref).tolist()
            assert same_dist(world.p, ref_world.p)
            assert dict(zip(sample.atoms.tolist(), sample.counts.tolist())) == Counter(draws)
            assert sample.n == n
            literal = TrainingSample(world.universe, draws)
            assert mf == ref_monofact(draws)
            assert p_u == missing_mass(ref_world.p, literal) == ref_missing_mass(ref_world.p, draws)
            assert same_dist(g, train(Empirical(), literal))
            assert rng.generator.bit_generator.state == ref.generator.bit_generator.state


def assert_valid_arrays(arrays, dtype, *foreign):
    """Each array holds what the checked constructors guarantee: the dtype,
    C order, read-only, and no memory shared with the foreign arrays, the
    ones a caller holds."""
    for arr in arrays:
        assert arr.dtype == dtype and arr.flags.c_contiguous and not arr.flags.writeable
        assert not any(np.shares_memory(arr, other) for other in foreign)


def assert_valid_dist(d: FactoidDist, *foreign):
    """d passes the FactoidDist checks by its own arrays, not a rebuild's,
    and equals its checked rebuild byte for byte."""
    keys, values = d.keys, d.values
    assert_valid_arrays((keys,), np.int64, *foreign)
    assert_valid_arrays((values,), np.float64, *foreign)
    assert (keys[1:] > keys[:-1]).all() and (keys >= 0).all() and (keys < d.universe.size).all()
    assert np.isfinite(values).all() and (values >= 0.0).all()
    assert type(d.background) is float and math.isfinite(d.background) and d.background >= 0.0
    assert same_dist(d, FactoidDist(d.universe, keys, values, d.background))


class TestUncheckedBuilds:
    """The distributions and samples the library builds with no checks
    (dist._valid_dist, TrainingSample._counted) on arrays it made valid
    itself: each drawn p, each trained g and each sample from the chunked
    draw route equals its checked rebuild byte for byte and holds every
    guarantee of the checked constructor."""

    @given(
        model=DRAWN_MODELS,
        n=st.integers(1, 60),
        alg=st.sampled_from(ALGORITHMS),
        trials=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    @example(model=PermutedPowerLawWorld(300, 40, 0.0), n=50, alg=MonofactMemorizer(), trials=3, seed=1)
    @example(model=PermutedPowerLawWorld(1000, 100, 200.0), n=30, alg=Laplace(0.5), trials=2, seed=5)
    @example(model=W5World(3, 2, 2, 2), n=5, alg=YayMixture(Empirical(), 0.99), trials=2, seed=2)
    @PROPERTY
    def test_drawn_and_trained_match_checked_rebuilds(self, model, n, alg, trials, seed):
        templates = getattr(model, "rank_template", ())
        templates = templates if isinstance(templates, tuple) else (templates,)
        refs = SeededRng(seed).children(range(trials))
        for (_, _, world, sample, seen), ref in zip(harness._drawn(model, n, seed, range(trials)), refs):
            p = world.p
            assert_valid_dist(p)
            assert (p.keys >= 1).all()
            # the one memory a drawn p may share is a read-only template
            for arr in (p.keys, p.values):
                assert all(not np.shares_memory(arr, t) or not t.flags.writeable for t in templates)
            ref_world = sample_world(model, ref)
            assert same_dist(p, ref_world.p)
            # the checked sample on the same stream
            literal = TrainingSample(world.universe, sample_iid(ref_world.p, n, ref))
            assert_valid_arrays((sample.atoms, sample.counts), np.int64, p.keys, p.values)
            assert not seen.flags.writeable
            for got, want in ((sample.atoms, literal.atoms), (sample.counts, literal.counts)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (sample.atoms[1:] > sample.atoms[:-1]).all() and (sample.counts >= 1).all()
            assert sample.n == literal.n == n
            try:
                g = train(alg, sample, truth=p)
            except FactoidLabError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    train(alg, literal, truth=ref_world.p)
                continue
            # an oracle hands back p itself
            foreign = () if isinstance(alg, Oracle) else (p.keys, p.values)
            assert_valid_dist(g, sample.atoms, sample.counts, sample.observed_keys, *foreign)
            assert same_dist(g, train(alg, literal, truth=ref_world.p))

    @given(data=st.data())
    @PROPERTY
    def test_dist_from_arrays_matches_two_checked_builds(self, data):
        """dist_from_arrays checks its input once and builds the normalized
        result unchecked: the same bytes as the checked constructor on the
        normalized arrays, sharing no memory with the caller's arrays."""
        size = data.draw(st.integers(2, 12))
        weights = data.draw(
            st.dictionaries(st.integers(0, size - 1), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0))
        )
        background = data.draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1.0))
        u = FactoidUniverse(size)
        keys = np.array(sorted(weights), dtype=np.int64)
        values = np.array([weights[y] for y in sorted(weights)], dtype=np.float64)
        try:
            raw = FactoidDist(u, keys, values, background)
            want = FactoidDist(u, *dist_module._normalized(size, raw.keys, raw.values, raw.background))
        except DistributionError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                dist_from_arrays(u, keys, values, background)
            return
        got = dist_from_arrays(u, keys, values, background)
        assert_valid_dist(got, keys, values)
        assert same_dist(got, want)


# ---------------------------------------------------------------------------
# Good-Turing concentration suite
# ---------------------------------------------------------------------------


@st.composite
def gt_cases(draw):
    """A sparse distribution with no empty-fact mass, n, trials, a seed and
    two radii that decide the events either way."""
    size = draw(st.integers(2, 10**6), label="universe_size")
    keys = sorted(draw(st.sets(st.integers(1, size - 1), min_size=1, max_size=40)))
    values = draw(st.lists(WEIGHTS, min_size=len(keys), max_size=len(keys)))
    if not any(values):
        values[0] = 1.0
    p = dist_from_weights(FactoidUniverse(size), dict(zip(keys, values)))
    n = draw(st.integers(1, 60), label="n")
    trials = draw(st.integers(100, 120), label="trials")
    radii = draw(st.lists(st.sampled_from([0.0, 0.02, 0.1]) | st.floats(0.0, 0.5), min_size=2, max_size=2))
    return p, n, trials, draw(st.integers(0, 2**32), label="seed"), radii


@st.composite
def gt_chunk_cases(draw):
    """A sparse p with an explicit zero-weight empty fact, m near-uniform
    keys and a few more zero-weight keys; n up to 2m, so that trials see
    few and most of p's keys; chunks of 1 or 3 trials, and a trial count
    that is a multiple of neither (a seed and two radii as in gt_cases)."""
    m = draw(st.integers(2, 30), label="keys")
    zeros = draw(st.integers(0, 3), label="zero_keys")
    size = draw(st.integers(m + zeros + 2, 10**6), label="universe_size")
    keys = sorted(draw(st.sets(st.integers(1, size - 1), min_size=m + zeros, max_size=m + zeros)))
    values = draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m)) + [0.0] * zeros
    values = draw(st.permutations(values))
    # the module constructors would drop the zero weights
    p = FactoidDist(FactoidUniverse(size), [BOTTOM, *keys], np.array([0.0, *values]) / math.fsum(values))
    n = draw(st.integers(1, 2 * m), label="n")
    chunk = draw(st.sampled_from([1, 3]), label="chunk_trials")
    trials = draw(st.integers(100, 120).filter(lambda t: t % 3), label="trials")
    radii = draw(st.lists(st.sampled_from([0.0, 0.02, 0.1]) | st.floats(0.0, 0.5), min_size=2, max_size=2))
    return p, n, chunk, trials, draw(st.integers(0, 2**32), label="seed"), radii


def gt_recount(p, n, trials, seed, two_radius, one_radius):
    """(two-sided count, one-sided count, gaps) over the suite's child
    streams through sample_iid, the literal monofact estimate and missing
    mass, and the suite's two comparisons."""
    gaps = []
    two_sided = one_sided = 0
    for rng in SeededRng(seed).children(range(1, trials + 1)):
        draws = sample_iid(p, n, rng).tolist()
        mf, miss = ref_monofact(draws), ref_missing_mass(p, draws)
        gaps.append(mf - miss)
        two_sided += abs(mf - miss) > two_radius
        one_sided += miss < mf - one_radius
    return two_sided, one_sided, np.array(gaps)


class TestGtConcentration:
    @given(gt_cases())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_literal_recount(self, case):
        """Both violation counts and the mean gap equal a recount over the
        same child streams through sample_iid and the literal monofact
        estimate and missing mass."""
        p, n, trials, seed, (two_radius, one_radius) = case
        with mock.patch.multiple(
            harness,
            good_turing_radius=lambda delta, n: two_radius,
            missing_mass_lower_radius=lambda delta, n: one_radius,
        ):
            report = run_gt_concentration(p, n, 0.1, trials, seed)
        gaps = []
        two_sided = one_sided = 0
        for rng in SeededRng(seed).children(range(1, trials + 1)):
            draws = sample_iid(p, n, rng).tolist()
            mf, miss = ref_monofact(draws), ref_missing_mass(p, draws)
            gaps.append(mf - miss)
            two_sided += abs(mf - miss) > two_radius
            one_sided += miss < mf - one_radius
        assert (report.two_sided_violations, report.one_sided_violations) == (two_sided, one_sided)
        assert report.mean_gap == float(np.array(gaps).mean())

    @given(gt_chunk_cases())
    @example(
        (
            FactoidDist(FactoidUniverse(1000), np.arange(22), np.array([0.0] + [0.05] * 20 + [0.0])),
            14, 3, 101, 7, (0.0, 0.1),
        )
    )
    @PROPERTY
    def test_chunk_edges_match_literal_recount(self, case):
        """Chunks of 1 and 3 trials, a last chunk cut short and zero-weight
        keys, the empty fact among them, give the literal recount's counts,
        mean gap and standard error."""
        p, n, chunk, trials, seed, (two_radius, one_radius) = case
        with mock.patch.object(dist_module, "_CHUNK_DRAWS", chunk * n), mock.patch.multiple(
            harness,
            good_turing_radius=lambda delta, n: two_radius,
            missing_mass_lower_radius=lambda delta, n: one_radius,
        ):
            report = run_gt_concentration(p, n, 0.1, trials, seed)
        two_sided, one_sided, gaps = gt_recount(p, n, trials, seed, two_radius, one_radius)
        assert (report.two_sided_violations, report.one_sided_violations) == (two_sided, one_sided)
        assert report.mean_gap == float(gaps.mean())
        assert report.gap_stderr == float(gaps.std(ddof=1) / math.sqrt(trials))

    @given(gt_chunk_cases())
    @PROPERTY
    def test_chunked_estimates_match_literal(self, case):
        """Each stream's monofact estimate and missing mass, counted in
        chunks of 1 or 3 streams, are the literal pair of the same stream's
        sample_iid draws, and each generator ends where sample_iid leaves
        it."""
        p, n, chunk, trials, seed, _ = case
        streams = list(SeededRng(seed).children(range(1, trials + 1)))
        with mock.patch.object(dist_module, "_CHUNK_DRAWS", chunk * n):
            got = list(_gt_estimates(p, n, streams))
        assert len(got) == trials
        refs = SeededRng(seed).children(range(1, trials + 1))
        for (mf, miss), rng, ref in zip(got, streams, refs):
            draws = sample_iid(p, n, ref).tolist()
            assert (mf, miss) == (ref_monofact(draws), ref_missing_mass(p, draws))
            assert rng.generator.bit_generator.state == ref.generator.bit_generator.state


# ---------------------------------------------------------------------------
# Profile layout
# ---------------------------------------------------------------------------


def same_batch(got: ProfileBatch, want: ProfileBatch) -> bool:
    """Every field of two batches holds the same dtype, shape and bits."""
    for f in dataclasses.fields(ProfileBatch):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True


def concatenated(batches: list[ProfileBatch]) -> ProfileBatch:
    """Batches end to end, field by field, each one's bounds shifted by
    the classes of those before it."""
    fields = {
        f.name: np.concatenate([getattr(b, f.name) for b in batches])
        for f in dataclasses.fields(ProfileBatch)
        if f.name != "bounds"
    }
    bounds = [0]
    for b in batches:
        bounds += [bounds[-1] + int(end) for end in b.bounds[1:]]
    return ProfileBatch(bounds=np.array(bounds), **fields)


LAYOUT_U = FactoidUniverse(6)
LAYOUT_UNIFORM = uniform_dist(LAYOUT_U)
#: every atom a key, the empty fact among them
LAYOUT_FULL = dist_from_weights(LAYOUT_U, dict.fromkeys(range(6), 1.0))
#: keys 2 and 5 = size - 1, without the empty fact
LAYOUT_P = dist_from_weights(LAYOUT_U, {2: 1.0, 5: 3.0})


class TestProfileLayout:
    """keyed_profile and join_profiles against the class layout built atom
    by atom, bit for bit, on pairs whose g's keys lie among p's, bar the
    empty fact; keyed_profile refuses every other pair."""

    @given(pair=dist_pairs() | contained_pairs())
    # rest = 0: the keys cover the universe, the empty fact among them
    @example(pair=(LAYOUT_FULL, LAYOUT_UNIFORM))
    # contained pairs: g on some of p's keys, the one at size - 1 among them
    @example(pair=(LAYOUT_P, dist_from_weights(LAYOUT_U, {5: 1.0})))
    # the empty fact held by g only, by p only and by both
    @example(pair=(LAYOUT_P, dist_from_weights(LAYOUT_U, {0: 1.0, 2: 2.0})))
    @example(
        pair=(dist_from_weights(LAYOUT_U, {0: 2.0, 5: 1.0}), background_dist(LAYOUT_U, {5: 1.0}, 0.5))
    )
    @example(
        pair=(background_dist(LAYOUT_U, {0: 2.0, 3: 1.0}, 0.5), dist_from_weights(LAYOUT_U, {0: 1.0}))
    )
    # g = p, with a rest class and without (a keyless g: the uniform examples below)
    @example(pair=(LAYOUT_P, LAYOUT_P))
    @example(pair=(LAYOUT_FULL, LAYOUT_FULL))
    # keys that cover the universe, g holding the empty fact p's keys hold
    @example(pair=(LAYOUT_FULL, dist_from_weights(LAYOUT_U, {0: 1.0, 4: 1.0})))
    # a keyless p, g holding the empty fact only
    @example(pair=(LAYOUT_UNIFORM, dist_from_weights(LAYOUT_U, {0: 1.0})))
    # two uniforms: no explicit key, only the rest class
    @example(pair=(LAYOUT_UNIFORM, LAYOUT_UNIFORM))
    # the empty fact held by neither side
    @example(pair=(dist_from_weights(LAYOUT_U, {1: 1.0, 5: 3.0}), LAYOUT_UNIFORM))
    # refused: g holds an atom p lacks, beside the empty fact p holds
    @example(
        pair=(background_dist(LAYOUT_U, {0: 2.0, 3: 1.0}, 0.5), dist_from_weights(LAYOUT_U, {2: 1.0}))
    )
    # refused: g's atom at size - 1 against a keyless p
    @example(pair=(LAYOUT_UNIFORM, dist_from_weights(LAYOUT_U, {0: 1.0, 5: 1.0})))
    @PROPERTY
    def test_keyed_profile_is_the_layout(self, pair):
        if is_contained(*pair):
            assert same_batch(keyed_profile(*pair), profile_layout(*pair))
        else:
            with pytest.raises(DistributionError, match="but not of the first"):
                keyed_profile(*pair)

    @pytest.mark.parametrize(
        "p, g",
        [
            (LAYOUT_P, dist_from_weights(LAYOUT_U, {3: 1.0})),
            (LAYOUT_P, dist_from_weights(LAYOUT_U, {0: 1.0, 3: 1.0, 5: 1.0})),
            (LAYOUT_P, background_dist(LAYOUT_U, {2: 1.0, 3: 1.0}, 0.1)),
            (LAYOUT_UNIFORM, dist_from_weights(LAYOUT_U, {0: 1.0, 3: 1.0})),
        ],
    )
    def test_keyed_profile_refuses_a_key_p_lacks(self, p, g):
        """No pair is merged: a g holding an atom p does not hold, other
        than the empty fact, is refused, naming the first such atom."""
        with pytest.raises(DistributionError, match="atom 3 is a key of the second distribution"):
            keyed_profile(p, g)

    @given(data=st.data())
    @PROPERTY
    def test_join_is_the_concatenated_layouts(self, data):
        """Pairs grouped into random batches and joined again equal their
        layouts end to end."""
        pairs = data.draw(st.lists(contained_pairs(), min_size=1, max_size=8))
        inner = range(1, len(pairs))
        cuts = data.draw(st.sets(st.sampled_from(inner)) if inner else st.just(set()))
        ends = [0, *sorted(cuts), len(pairs)]
        batches = [
            join_profiles([keyed_profile(*pair) for pair in pairs[lo:hi]])
            for lo, hi in zip(ends[:-1], ends[1:])
        ]
        want = concatenated([profile_layout(*pair) for pair in pairs])
        assert same_batch(join_profiles(batches), want)


# ---------------------------------------------------------------------------
# Batch scorer
# ---------------------------------------------------------------------------


#: g and p weights: zeros, a subnormal, and runs of values within
#: EXACT_VALUE_RTOL of each other (one exact-value bin, distinct values)
SCORED_WEIGHTS = (
    st.sampled_from([0.0, 0.0, 5e-324, 0.001, 0.01, 0.25, 0.5, 1.0])
    | st.builds(
        lambda base, k: base * (1.0 + k * EXACT_VALUE_RTOL / 4),
        st.sampled_from([0.001, 0.02, 0.3]),
        st.integers(0, 3),
    )
    | st.floats(0.0, 1.0)
)

#: every spec the harness scores with, at the edges of each scheme
SCORED_SPECS = (
    ExactValueBinning(),
    AdaptiveBinning(1),
    AdaptiveBinning(2),
    AdaptiveBinning(10),
    FixedWidthBinning(0.0),
    FixedWidthBinning(0.1),
    FixedWidthBinning(1.0),
)


def hand_profile(w1, w2, rest, background1, background2, halluc_rate) -> ProfileBatch:
    """A batch of one profile laid out by hand: one class per weight pair,
    then, when rest is not 0, a class of rest atoms carrying the
    backgrounds. The weights and the rate need not agree with any pair of
    distributions."""
    counts = [1.0] * len(w1)
    if rest:
        w1, w2, counts = [*w1, background1], [*w2, background2], [*counts, float(rest)]
    return ProfileBatch(
        w1=np.array(w1, dtype=np.float64),
        w2=np.array(w2, dtype=np.float64),
        counts=np.array(counts),
        bounds=np.array([0, len(counts)]),
        halluc_rate=np.array([halluc_rate]),
    )


@st.composite
def scored_profiles(draw):
    """A batch of one profile of 1-60 classes with or without a rest
    class, p-mass somewhere, and a hallucination rate."""
    rest = draw(st.sampled_from([0, 1, 7, 10**6]), label="rest")
    size = draw(st.integers(0 if rest else 1, 59 if rest else 60), label="keys")
    w1 = draw(st.lists(SCORED_WEIGHTS, min_size=size, max_size=size))
    w2 = draw(st.lists(SCORED_WEIGHTS, min_size=size, max_size=size))
    background1, background2 = draw(SCORED_WEIGHTS), draw(SCORED_WEIGHTS)
    if not any(w1) and not (rest and background1):
        if size:
            w1[0] = 0.5
        else:
            background1 = 0.5
    rate = draw(st.floats(0.0, 1.0), label="halluc_rate")
    return hand_profile(w1, w2, rest, background1, background2, rate)


@st.composite
def split_batches(draw):
    """1-40 profiles and the cut points that split them into consecutive
    batches, from one batch down to one profile a batch."""
    profiles = draw(st.lists(scored_profiles(), min_size=1, max_size=40))
    inner = range(1, len(profiles))
    cuts = draw(st.just(list(inner)) | st.sets(st.sampled_from(inner) if inner else st.nothing()))
    return profiles, [0, *sorted(cuts), len(profiles)]


def quantile_tie_batch():
    """Two profiles whose runs of g hold masses 0.25, 0.25 and 0.5: the
    cumulative mass below the top run is exactly the adaptive edge 1/2
    (b = 2), which stays in the lower bin."""
    profile = hand_profile([0.2, 0.3, 0.5], [0.25, 0.25, 0.5], 0, 0.0, 0.0, 0.0)
    return [profile, profile], [0, 2]


def signed_zero_batch():
    """Two profiles whose g holds -0.0 and 0.0, one g-value: the value
    sort keeps one of them as the distinct value and ranks both alike, so
    they stay in input order, one run, as the stable argsort keeps them."""
    profile = hand_profile([0.25, 0.5, 0.25], [0.0, -0.0, 0.0], 7, 0.0, -0.0, 0.5)
    return [profile, profile], [0, 1, 2]


def subnormal_batch():
    """A profile whose g-values include subnormals, the least of them
    beside 0.0, and a tie between two of them."""
    profile = hand_profile([0.25, 0.25, 0.5, 0.0], [5e-324, 0.0, 1e-310, 5e-324], 3, 0.0, 1e-310, 0.0)
    return [profile], [0, 1]


def same_float(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


class TestBatchScorer:
    # a subnormal g-weight overflows p/g in KL, the same on both routes
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(split_batches())
    @example(quantile_tie_batch())
    # a -0.0/0.0 tie and subnormal g-values: the ranks the value sort gives
    @example(signed_zero_batch())
    @example(subnormal_batch())
    @settings(max_examples=200, deadline=None)
    def test_batches_match_the_per_profile_route(self, case):
        """Every metric of every profile, scored in batches, equals the
        one-profile literal route bit for bit, whatever the batch."""
        profiles, cuts = case
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part = profiles[lo:hi]
            joined = join_profiles(part)
            kl = kl_divergences(joined)
            by_g = SortedProfiles(joined.w1, joined.w2, joined.counts, joined.bounds)
            binned = {spec: by_g.binned(spec) for spec in SCORED_SPECS}
            for t, profile in enumerate(part):
                classes = profile.w1, profile.w2, profile.counts
                assert joined.halluc_rate[t] == profile.halluc_rate[0]
                assert same_float(kl[t], profile_kl(*classes))
                by_g_alone = sort_profile_by_g(*classes)
                for spec, bins in binned.items():
                    mis, gap, (g_mass, p_mass, sizes) = profile_calibration(*by_g_alone, spec)
                    assert same_float(bins.miscalibration[t], mis), spec
                    assert same_float(bins.mass_gaps()[t], gap), spec
                    got = bins.bins(t)
                    want = (g_mass, p_mass, sizes)
                    assert [a.tolist() for a in got] == [a.tolist() for a in want], spec


# ---------------------------------------------------------------------------
# Bound right-hand sides
# ---------------------------------------------------------------------------


@st.composite
def bound_params(draw):
    """BoundParams across their accepted range: s = +-inf, r = inf and
    epsilon = 0 included, but not s = inf with r = inf, which BoundParams
    refuses (the penalty would be NaN)."""
    s = draw(st.floats(-709.0, 1e3) | st.sampled_from([-math.inf, math.inf]), label="s")
    finite_r = st.floats(1.0, 1e6)
    return BoundParams(
        delta=draw(st.floats(1e-9, 1.0), label="delta"),
        b=10,
        epsilon=draw(st.just(0.0) | st.floats(1e-15, 1.0), label="epsilon"),
        s=s,
        r=draw(finite_r if s == math.inf else finite_r | st.just(math.inf), label="r"),
        n=draw(st.integers(1, 10**12), label="n"),
        k_types=draw(st.integers(1, 8), label="k"),
    )


def ref_cause(terms) -> str | None:
    """The first term after which the literal running value, terms[0]
    minus each later term, is <= 0; None where the final value is not
    (a NaN included)."""
    running = list(accumulate(terms, operator.sub))
    if not running[-1] <= 0.0:
        return None
    return next(term for term, value in zip(BOUND_TERMS, running) if value <= 0.0)


UNIT = st.floats(0.0, 1.0)
NO_PENALTY = BoundParams(delta=0.1, b=10, epsilon=0.0, s=math.inf, r=1e6, n=1)


class TestBoundTable:
    @given(bound_params(), st.lists(st.tuples(UNIT, UNIT, UNIT), min_size=1, max_size=8))
    @example(NO_PENALTY, [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)])
    @example(dataclasses.replace(NO_PENALTY, s=-math.inf, r=math.inf, epsilon=1.0), [(0.0, 1.0, 0.5)])
    @PROPERTY
    def test_every_row_matches_its_literal_formula(self, params, trials):
        """Per BOUNDS row and (mf, calibration, lhs): the rhs is the
        literal formula's float, bit for bit, and the last running value
        of the literal terms; the bound
        is vacuous exactly when it names a cause, the first term after
        which the running value is <= 0; and the row's frequency puts
        every vacuous trial under one cause."""
        assert list(BOUNDS) == list(REFERENCE_BOUNDS)
        for name, (formula, _, _) in REFERENCE_BOUNDS.items():
            evals = []
            for mf, calibration, lhs in trials:
                got = evaluate_bound(lhs, bound_terms(name, mf, calibration, params))
                want = formula(mf, calibration, params)
                terms = rhs_terms(name, mf, calibration, params)
                assert got.rhs.hex() == want.hex() == list(accumulate(terms, operator.sub))[-1].hex()
                assert got.vacuous == (got.cause is not None) == (want <= 0.0)
                assert got.cause == ref_cause(terms)
                assert got.satisfied == (lhs >= want - FLOAT_SLACK)
                evals.append(got)
            row = _bound_frequency(name, evals, params.delta)
            assert list(row.vacuous_by) == list(BOUND_TERMS)
            assert sum(row.vacuous_by.values()) == row.vacuous == sum(e.vacuous for e in evals)
            assert row.vacuous_by == {t: [e.cause for e in evals].count(t) for t in BOUND_TERMS}

    @given(bound_params(), st.integers(0, 2**32 - 1))
    @PROPERTY
    def test_markov_halves_match_their_literal_formulas(self, params, seed):
        """verify_markov_step's two rows against the literal events
        halluc_rate >= missing_mass - mc_adaptive - penalty and
        missing_mass >= mf - gt_width, recounted trial by trial, with a
        quarter of the inputs exactly 0."""
        rng = SeededRng(seed).generator
        values = rng.random((100, 4)) * (rng.random((100, 4)) >= 0.25)
        records = [
            SimpleNamespace(mf=a, missing_mass=b, halluc_rate=c, mc_adaptive=d)
            for a, b, c, d in values.tolist()
        ]
        _, _, penalty, width, _ = rhs_terms("cor1", 0.0, 0.0, params)
        halves = (
            [(r.halluc_rate, (r.missing_mass, r.mc_adaptive, penalty)) for r in records],
            [(r.missing_mass, (r.mf, 0.0, 0.0, width)) for r in records],
        )
        for row, events in zip(verify_markov_step(records, params), halves):
            rhs = [list(accumulate(terms, operator.sub))[-1] for _, terms in events]
            causes = Counter(ref_cause(terms) for _, terms in events)
            assert row.satisfied == sum(lhs >= v - FLOAT_SLACK for (lhs, _), v in zip(events, rhs))
            assert row.vacuous == sum(v <= 0.0 for v in rhs)
            assert row.vacuous_by == {t: causes[t] for t in BOUND_TERMS}
