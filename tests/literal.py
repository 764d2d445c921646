"""One-call metric, draw and builder entry points, kept as test-side
references.

The library measures trials through (p, g) class profiles scored many
at a time, scores the core inequality on one posterior completion,
unranks partitions in blocks, sums subsets through subset tables and
never builds a per-atom view of a distribution. The tests also want the
plain forms: one function per metric taking two distributions, a
subset-by-subset total-variation maximum, a pair's class layout and
hallucination rate built atom by atom, the one-profile calibration and
KL routes the batch scorer replaced, the core inequality's mean over
every posterior completion, distinct draws and posterior completions one
stream at a time, one recursive partition enumeration, a literal
coarsening, the lemma sweep's padded gather of each subset's atoms, and
builders of small test inputs (background distributions, random and
enumerated partitions, enumerated W5 worlds), and one function per
lower-bound right-hand side, each its own formula, where the library
reads one table of terms. They live here, built from the same library
primitives, so a test can compare a fast path with them or state a
property in their terms.
"""

import math
import sys
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping

import numpy as np

from factoidlab.bounds import BoundParams, LemmaMeatViolation
from factoidlab.calibration import (
    EXACT_VALUE_RTOL,
    AdaptiveBinning,
    BinningSpec,
    ExactValueBinning,
    FixedWidthBinning,
    Partition,
    _fixed_width_block_ids,
    _partition_label_rows,
    reliability_rows,
)
from factoidlab.dist import (
    BOTTOM,
    FactoidDist,
    FactoidUniverse,
    ProfileBatch,
    _explicit_at,
    _sorted_items,
    dist_from_arrays,
    dist_from_weights,
    keyed_profile,
)
from factoidlab.errors import (
    DistributionError,
    PartitionError,
    UniverseMismatchError,
    UnsupportedModelError,
)
from factoidlab.rng import SeededRng
from factoidlab.worlds import ExplicitWorld, PermutedPowerLawWorld, W5World, WorldInstance

# -- distributions ---------------------------------------------------------


def background_dist(
    universe: FactoidUniverse, special: Mapping[int, float], background: float
) -> FactoidDist:
    """Distribution with explicit weights on some atoms and a shared
    background weight on all others; normalizes like dist_from_weights."""
    return dist_from_arrays(universe, *_sorted_items(special), background)


def paired_profile(d1: FactoidDist, d2: FactoidDist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The atom classes (w1, w2, count) of two distributions."""
    profile = keyed_profile(d1, d2)
    return profile.w1, profile.w2, profile.counts


def profile_layout(d1: FactoidDist, d2: FactoidDist) -> ProfileBatch:
    """The paired profile of two distributions as a batch of one, built
    atom by atom: one class per atom either holds explicitly, in
    increasing order, with both weights, then one class for the atoms
    neither holds, when any are left; and the hallucination rate of d2
    where the facts are the atoms d1 weights positively and the empty
    fact."""
    if d1.universe != d2.universe:
        raise UniverseMismatchError(f"universe mismatch: {d1.universe.size} vs {d2.universe.size}")
    size = d1.universe.size
    held1 = dict(zip(d1.keys.tolist(), d1.values.tolist()))
    held2 = dict(zip(d2.keys.tolist(), d2.values.tolist()))
    w1, w2, counts = [], [], []
    for y in sorted(held1.keys() | held2.keys()):
        w1.append(held1.get(y, d1.background))
        w2.append(held2.get(y, d2.background))
        counts.append(1.0)
    if len(counts) < size:
        w1.append(d1.background)
        w2.append(d2.background)
        counts.append(float(size - len(counts)))
    facts = {BOTTOM} | {y for y, w in held1.items() if w > 0.0}
    mass = math.fsum(held2[y] for y in facts if y in held2) + d2.background * len(facts - held2.keys())
    return ProfileBatch(
        w1=np.array(w1, dtype=np.float64),
        w2=np.array(w2, dtype=np.float64),
        counts=np.array(counts),
        bounds=np.array([0, len(counts)]),
        halluc_rate=np.array([max(0.0, 1.0 - mass)]),
    )


def mass_of_set(d: FactoidDist, s: Iterable[int]) -> float:
    """Total probability of the atoms in s. Empty set has mass 0.

    s may be any iterable of indices or an int array; repeats count once.
    """
    raw = s if isinstance(s, np.ndarray) else list(s)
    atoms = np.unique(d.universe.atom_array(raw))
    weights, held = _explicit_at(d.keys, d.values, d.background, atoms)
    n_plain = atoms.size - int(np.count_nonzero(held))
    return math.fsum(weights[held].tolist()) + d.background * n_plain


def tv_distance(d1: FactoidDist, d2: FactoidDist) -> float:
    """Total variation distance, computed as half the L1 difference."""
    w1, w2, counts = paired_profile(d1, d2)
    return 0.5 * float(np.sum(counts * np.abs(w1 - w2)))


def subset_tv_max(d1: FactoidDist, d2: FactoidDist) -> float:
    """max |d1(S) - d2(S)| over every subset S of the universe, one member
    list per bitmask and each side summed on its own."""
    size = d1.universe.size
    atoms = np.arange(size)
    v1 = d1.weights_at(atoms)
    v2 = d2.weights_at(atoms)
    subset_max = 0.0
    for mask in range(1, 1 << size):
        members = [y for y in range(size) if mask >> y & 1]
        subset_max = max(subset_max, abs(float(v1[members].sum() - v2[members].sum())))
    return subset_max


def profile_kl(w1: np.ndarray, w2: np.ndarray, counts: np.ndarray) -> float:
    """KL(first || second) in nats over one paired profile; +inf when the
    second misses support of the first."""
    pos = w1 > 0.0
    if np.any(pos & (w2 <= 0.0)):
        return math.inf
    w1p, w2p, cp = w1[pos], w2[pos], counts[pos]
    return float(np.sum(cp * w1p * np.log(w1p / w2p)))


def kl_divergence(d_true: FactoidDist, d_model: FactoidDist) -> float:
    """KL(d_true || d_model) in nats; +inf when the model misses support."""
    return profile_kl(*paired_profile(d_true, d_model))


# -- calibration -----------------------------------------------------------
#
# One profile at a time: sorted by its own stable argsort, binned through
# explicit thresholds and block ids, each sum taken over that profile.


def sort_profile_by_g(
    p_vals: np.ndarray, g_vals: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A paired (p, g) profile stably sorted by ascending g, the order
    every binning scheme groups in."""
    order = np.argsort(g_vals, kind="stable")
    return p_vals[order], g_vals[order], counts[order]


def _exact_group_starts(sorted_vals: np.ndarray) -> np.ndarray:
    """Start offsets of equal-value groups in an ascending value array."""
    if sorted_vals.size == 0:
        return np.zeros(0, dtype=np.intp)
    gaps = np.diff(sorted_vals) > EXACT_VALUE_RTOL * np.abs(sorted_vals[1:])
    return np.concatenate(([0], np.flatnonzero(gaps) + 1))


def _adaptive_thresholds(sorted_vals: np.ndarray, sorted_counts: np.ndarray, b: int) -> np.ndarray:
    """Upper bin edges t_1..t_{b-1} for mass-balanced binning: t_i is the
    smallest distinct value whose cumulative mass strictly exceeds i/b.
    The final edge is always 1 and is left implicit."""
    if b == 1 or sorted_vals.size == 0:
        return np.zeros(0, dtype=np.float64)
    distinct_starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_vals) > 0) + 1))
    masses = np.add.reduceat(sorted_vals * sorted_counts, distinct_starts)
    cum = np.cumsum(masses)
    cum[-1] = max(cum[-1], 1.0)
    ladder = sorted_vals[distinct_starts]
    quantiles = np.arange(1, b) / b
    # first ladder entry with cumulative mass strictly above i/b
    pos = np.searchsorted(cum, quantiles, side="right")
    pos = np.minimum(pos, len(ladder) - 1)
    return ladder[pos]


def _profile_block_starts(
    sorted_vals: np.ndarray, sorted_counts: np.ndarray, spec: BinningSpec
) -> np.ndarray:
    """Group one ascending value array into bin blocks; returns start offsets."""
    if isinstance(spec, ExactValueBinning):
        return _exact_group_starts(sorted_vals)
    if isinstance(spec, AdaptiveBinning):
        thresholds = _adaptive_thresholds(sorted_vals, sorted_counts, spec.b)
        # interval index per value: v <= t_1 -> 0, v in (t_i, t_{i+1}] -> i
        ids = np.searchsorted(thresholds, sorted_vals, side="left")
    elif isinstance(spec, FixedWidthBinning):
        if spec.epsilon == 0.0:
            return _exact_group_starts(sorted_vals)
        if spec.epsilon == 1.0:
            return np.zeros(1, dtype=np.intp) if sorted_vals.size else np.zeros(0, dtype=np.intp)
        ids = _fixed_width_block_ids(sorted_vals, spec.epsilon)
    else:
        raise PartitionError(f"unknown binning spec {spec!r}")
    if ids.size == 0:
        return np.zeros(0, dtype=np.intp)
    changes = np.flatnonzero(np.diff(ids) != 0) + 1
    return np.concatenate(([0], changes))


def profile_calibration(
    p_vals: np.ndarray, g_vals: np.ndarray, counts: np.ndarray, spec: BinningSpec
) -> tuple[float, float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(miscalibration, mass gap, bins) of one (p, g) profile sorted by g,
    over the bins spec builds from g; bins holds the per-bin (g-mass,
    p-mass, size) arrays in ascending g order."""
    starts = _profile_block_starts(g_vals, counts, spec)
    bounds = np.append(starts, counts.size)
    p_mass = np.add.reduceat(p_vals * counts, starts)
    g_mass = np.add.reduceat(g_vals * counts, starts)
    sizes = np.add.reduceat(counts, starts)
    block_of_class = np.repeat(np.arange(starts.size), np.diff(bounds))
    total = float(np.sum(p_vals * counts))
    coarse = (p_mass / sizes) / total
    mis = 0.5 * float(np.sum(counts * np.abs(coarse[block_of_class] - g_vals)))
    gap = 0.5 * float(np.sum(np.abs(p_mass - g_mass)))
    return mis, gap, (g_mass, p_mass, sizes)


def _calibration(p: FactoidDist, g: FactoidDist, spec: BinningSpec):
    return profile_calibration(*sort_profile_by_g(*paired_profile(p, g)), spec)


def miscalibration(p: FactoidDist, g: FactoidDist, spec: BinningSpec) -> float:
    """TV distance between g and the coarsening of p over bins of g."""
    return _calibration(p, g, spec)[0]


def generative_calibration_error(p: FactoidDist, g: FactoidDist, epsilon: float) -> float:
    """Half the summed absolute gap between p-mass and g-mass over the
    fixed-width log-probability bins of g."""
    return _calibration(p, g, FixedWidthBinning(epsilon))[1]


def reliability_curve(
    p: FactoidDist, g: FactoidDist, spec: BinningSpec
) -> list[tuple[float, float, float, int]]:
    """Rows (mean bin g-value, bin g-mass, bin p-mass, bin size), one per
    non-empty bin, ascending by bin value."""
    return reliability_rows(*_calibration(p, g, spec)[2])


def coarsen(p: FactoidDist, pi: Partition) -> FactoidDist:
    """Spread each block's p-mass uniformly over the block's atoms."""
    if pi.universe != p.universe:
        raise UniverseMismatchError(
            f"partition universe size {pi.universe.size} != distribution size {p.universe.size}"
        )
    keys = np.arange(p.universe.size)
    sizes = np.bincount(pi.labels)
    order = np.argsort(pi.labels, kind="stable")
    blocks = np.split(p.weights_at(keys)[order], np.cumsum(sizes)[:-1])
    masses = np.array([math.fsum(block.tolist()) for block in blocks])
    return dist_from_arrays(p.universe, keys, (masses / sizes)[pi.labels])


# -- partitions ------------------------------------------------------------


def iter_all_partitions(universe: FactoidUniverse) -> Iterator[Partition]:
    """Every set partition of a universe, lazily, one per label row."""
    for block in _partition_label_rows(universe.size, 1024):
        yield from (Partition(universe, labels) for labels in block)


def random_partition(universe: FactoidUniverse, rng: SeededRng) -> Partition:
    """Uniformly shuffled indices cut at a random set of split points."""
    gen = rng.generator
    order = gen.permutation(universe.size)
    n_blocks = int(gen.integers(1, universe.size + 1))
    if n_blocks > 1:
        cuts = np.sort(gen.choice(universe.size - 1, size=n_blocks - 1, replace=False)) + 1
    else:
        cuts = np.zeros(0, dtype=np.int64)
    starts = np.append(0, cuts)
    # atom order[j] joins the group holding position j
    labels = np.empty(universe.size, dtype=np.intp)
    labels[order] = np.repeat(np.arange(starts.size), np.diff(np.append(starts, universe.size)))
    return Partition(universe, labels)


def restricted_growth_strings(size: int) -> Iterator[tuple[int, ...]]:
    """Every set partition of `size` atoms as block labels, recursively in
    lexicographic order: atom y joins a block an earlier atom opened, or
    opens the next."""
    labels = [0] * size

    def rec(y: int, opened: int) -> Iterator[tuple[int, ...]]:
        if y == size:
            yield tuple(labels)
            return
        for block in range(opened + 1):
            labels[y] = block
            yield from rec(y + 1, max(opened, block + 1))

    yield from rec(0, 0)


# -- lemma sweep -----------------------------------------------------------


def gather_lemma_sweep(nu: ExplicitWorld, tolerance: float) -> list[LemmaMeatViolation]:
    """verify_lemma_meat_exhaustive by the padded gather: each subset's
    atoms listed in one row of a subsets x |Y| index padded with a zero
    column, p(S) and every coarsened p(S) summed over it, the partitions
    scored in blocks of at most 2^16 gathered cells, screened by one
    matrix-vector product within a rounding margin and the flagged pairs
    re-scored by their lone dot."""
    size = nu.universe.size
    weights = np.array([w for w, _ in nu.instances])
    P = np.array([inst.p.weights_at(np.arange(size)) for _, inst in nu.instances])
    mean_p = weights @ P
    subsets = [tuple(y for y in range(size) if mask >> y & 1) for mask in range(1, 1 << size)]
    rhs = [(size - len(atoms)) * float(mean_p[list(atoms)].max()) for atoms in subsets]
    limits = [r + tolerance for r in rhs]
    gather = np.full((len(subsets), size), size, dtype=np.intp)
    for s, atoms in enumerate(subsets):
        gather[s, : len(atoms)] = atoms
    p_of = np.hstack([P, np.zeros((len(weights), 1))])[:, gather].sum(axis=2)
    limits_arr = np.array(limits, dtype=np.float64)
    rounding = 2.0 * (len(weights) + 1) * sys.float_info.epsilon * float(weights.sum())
    violations = []
    rows = max(1, (1 << 16) // (len(weights) * gather.size))
    for labels in _partition_label_rows(size, rows):
        n = np.arange(len(labels))
        sums = np.zeros((len(labels), len(weights), size))
        for y in range(size):
            sums[n, :, labels[:, y]] += P[:, y]
        counts = (labels[:, :, None] == labels[:, None, :]).sum(axis=2)
        Q = np.zeros((len(labels), len(weights), size + 1))
        Q[..., :size] = (sums[n[:, None], :, labels] / counts[..., None]).transpose(0, 2, 1)
        gaps = np.clip(p_of - Q[..., gather].sum(axis=-1), 0.0, None).transpose(0, 2, 1).copy()
        margin = rounding * gaps.max(axis=(1, 2))
        for b, s in np.argwhere(~(gaps @ weights <= limits_arr - margin[:, None])).tolist():
            lhs = float(weights @ gaps[b, s])
            if lhs > limits[s]:
                blocks = Partition(nu.universe, labels[b]).blocks
                violations.append(
                    LemmaMeatViolation(
                        partition_blocks=tuple(tuple(sorted(block)) for block in blocks),
                        subset=subsets[s],
                        lhs=lhs,
                        rhs=rhs[s],
                    )
                )
    return violations


# -- bound right-hand sides ------------------------------------------------


def _sparsity_penalty(params: BoundParams, *factors: float) -> float:
    """3 k (factors) e^(-s)/delta, multiplied left to right."""
    return math.prod(factors, start=3.0 * params.k_types) * math.exp(-params.s) / params.delta


def _gt_term(params: BoundParams) -> float:
    """One-sided Good-Turing width at failure budget delta/(3k):
    sqrt(6 ln(6k/delta)/n)."""
    return math.sqrt(6.0 * math.log(6.0 * params.k_types / params.delta) / params.n)


def _rhs(mf: float, calibration: float, params: BoundParams, *penalty: float) -> float:
    """The shared skeleton: mf - calibration - 3 k (penalty) e^(-s)/delta
    - sqrt(6 ln(6k/delta)/n)."""
    return mf - calibration - _sparsity_penalty(params, *penalty) - _gt_term(params)


def cor1_rhs(mf: float, mc: float, params: BoundParams) -> float:
    """Lower bound for regular worlds; in a k-type world, the bound on
    each type's own monofact estimate and miscalibration."""
    return _rhs(mf, mc, params)


def cor_balfact_rhs(mf: float, mc: float, params: BoundParams) -> float:
    """Regular facts only; the penalty picks up a factor r*n."""
    return _rhs(mf, mc, params, params.r, params.n)


def cor_general_rhs(mf: float, mc: float, params: BoundParams) -> float:
    """Regular facts and regular probabilities; penalty factor r."""
    return _rhs(mf, mc, params, params.r)


def cor_fixed_mis_rhs(mf: float, mis_eps: float, params: BoundParams) -> float:
    """Fixed-width binning, subtracting the binned mass gap and epsilon.
    (The TV variant is cor1_rhs on the fixed-width mc.)"""
    return _rhs(mf, mis_eps, params) - params.epsilon


#: bound name -> (its right-hand side, its penalty factors' BoundParams
#: names, whether it subtracts epsilon), one literal row per bound
REFERENCE_BOUNDS = {
    "cor1": (cor1_rhs, (), False),
    "cor_general": (cor_general_rhs, ("r",), False),
    "cor_balfact": (cor_balfact_rhs, ("r", "n"), False),
    "cor_fixed_tv": (cor1_rhs, (), False),
    "cor_fixed_mis": (cor_fixed_mis_rhs, (), True),
}


def rhs_terms(name: str, mf: float, calibration: float, params: BoundParams) -> tuple:
    """Bound name's (mf, calibration, penalty, gt_width, epsilon), each
    from the literal formulas above, epsilon 0 where it is not taken."""
    _, factors, takes_epsilon = REFERENCE_BOUNDS[name]
    penalty = _sparsity_penalty(params, *(getattr(params, f) for f in factors))
    return mf, calibration, penalty, _gt_term(params), params.epsilon if takes_epsilon else 0.0


# -- hallucination ---------------------------------------------------------


def hallucination_rate(g: FactoidDist, world: WorldInstance) -> float:
    """Mass the generator puts outside the world's facts, as 1 minus the
    mass on the fact set."""
    if g.universe != world.universe:
        raise UniverseMismatchError(
            f"universe mismatch: {g.universe.size} vs {world.universe.size}"
        )
    return max(0.0, 1.0 - mass_of_set(g, world.fact_keys))


# -- core inequality -------------------------------------------------------


def theorem_main_exhaustive(
    universe: FactoidUniverse,
    fact_count: int,
    observed: Iterable[int],
    g: FactoidDist,
    partition: Partition,
) -> float:
    """The core inequality's left-hand side over the uniform-world
    posterior, completion by completion: the mean over every
    (N - m)-subset of the unobserved atoms of max(0, (N - m)/N -
    TV(coarsen(p, partition), g) - hallucination rate), with p uniform
    on the observed facts and the subset."""
    obs = frozenset(observed) | {BOTTOM}
    facts = sorted(obs - {BOTTOM})
    missing = fact_count - len(facts)
    unobserved = [y for y in range(universe.size) if y not in obs]
    values = []
    for extra in combinations(unobserved, missing):
        p = dist_from_weights(universe, dict.fromkeys([*facts, *extra], 1.0))
        tv = tv_distance(coarsen(p, partition), g)
        values.append(max(0.0, missing / fact_count - tv - hallucination_rate(g, WorldInstance(p))))
    return math.fsum(values) / len(values)


# -- worlds ----------------------------------------------------------------


def enumerate_w5_instances(model: W5World) -> ExplicitWorld:
    """All assignments of one (food, location) per (person, date) pair,
    with uniform prior. Guarded at 200000 instances: the count grows as
    (foods*locations)^(people*dates)."""
    per_pair = model.n_foods * model.n_locations
    count = per_pair ** model.pair_count
    if count > 200_000:
        raise DistributionError(f"{count} instances exceed enumeration limit 200000")
    universe = model.universe
    share = 1.0 / model.pair_count
    pairs = [(p, d) for p in range(model.n_people) for d in range(model.n_dates)]
    choices = [(f, l) for f in range(model.n_foods) for l in range(model.n_locations)]
    prior = 1.0 / count
    instances = []
    for combo in product(choices, repeat=len(pairs)):
        weights = {
            model.index_of(p, d, f, l): share for (p, d), (f, l) in zip(pairs, combo)
        }
        instances.append((prior, WorldInstance(dist_from_weights(universe, weights))))
    return ExplicitWorld(tuple(instances))


# -- draws -----------------------------------------------------------------


def _distinct_rows(
    rngs: Iterable[SeededRng], low: int, high: int, count: int, exclude: frozenset[int]
) -> Iterator[np.ndarray]:
    """Lazily, one int64 row per rng: a uniform ordered sample of `count`
    distinct ints from [low, high) minus `exclude`, drawn from that rng
    alone. The range checks and the eligible array are set up once for
    all rows. Rejection-based when the range dwarfs the request, so no
    O(range) array is built for huge universes."""
    span = high - low
    inside = [y - low for y in exclude if low <= y < high]
    available = span - len(inside)
    if count > available:
        raise DistributionError(f"cannot draw {count} distinct values from {available} available")
    if count == 0:
        return (np.empty(0, dtype=np.int64) for _ in rngs)
    if span <= 4096 or count * 4 > available:
        keep = np.ones(span, dtype=bool)
        keep[inside] = False
        eligible = np.arange(low, high, dtype=np.int64)[keep]
        return (rng.generator.permutation(eligible)[:count] for rng in rngs)
    return (_rejection_row(rng.generator, low, high, count, exclude) for rng in rngs)


def _rejection_row(
    gen: np.random.Generator, low: int, high: int, count: int, exclude: frozenset[int]
) -> np.ndarray:
    seen = set(exclude)
    out: list[int] = []
    while len(out) < count:
        batch = gen.integers(low, high, size=max(64, 2 * (count - len(out))))
        for v in batch.tolist():
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) == count:
                    break
    return np.array(out, dtype=np.int64)


def sample_distinct_excluding(
    rng: SeededRng, low: int, high: int, count: int, exclude: frozenset[int] = frozenset()
) -> list[int]:
    """Uniform ordered sample of `count` distinct ints from [low, high)
    minus `exclude`: one row of the batched draw."""
    return next(_distinct_rows([rng], low, high, count, exclude)).tolist()


def posterior_support_uniform(
    model: PermutedPowerLawWorld, observed: Iterable[int], rng: SeededRng
) -> list[int]:
    """Support draw from the posterior given the observed set: the sorted
    observed facts, then one drawn completion. Only at exponent 0 is the
    posterior uniform over the completions of the observed facts."""
    if model.exponent != 0.0:
        raise UnsupportedModelError("exact posterior sampling requires the uniform world (exponent 0)")
    obs = frozenset(observed) | {BOTTOM}
    obs_facts = sorted(obs - {BOTTOM})
    extra = model.fact_count - len(obs_facts)
    if extra < 0:
        raise DistributionError(f"{len(obs_facts)} observed facts exceed fact budget {model.fact_count}")
    return obs_facts + next(_distinct_rows([rng], 1, model.universe_size, extra, obs)).tolist()


def posterior_sampler_uniform_world(
    model: PermutedPowerLawWorld, observed: Iterable[int], rng: SeededRng
) -> WorldInstance:
    """A posterior world: uniform weight on posterior_support_uniform."""
    support = posterior_support_uniform(model, observed, rng)
    weights = np.full(len(support), 1.0 / len(support))
    return WorldInstance(dist_from_arrays(model.universe, np.sort(support), weights))


def posterior_fact_marginal(model: PermutedPowerLawWorld, observed: Iterable[int]) -> float:
    """Pr[y is a fact | observed] for any unobserved y, at exponent 0: by
    symmetry of the uniform completion, (N - m) / |unobserved| with m the
    number of observed non-bottom facts."""
    if model.exponent != 0.0:
        raise UnsupportedModelError("closed-form posterior marginal requires exponent 0")
    obs = frozenset(observed) | {BOTTOM}
    unobserved = model.universe_size - len(obs)
    if unobserved <= 0:
        return 0.0
    return (model.fact_count - (len(obs) - 1)) / unobserved
