"""World models: priors over fact distributions.

A world draw fixes the fact distribution p; the facts are supp(p) plus
the empty fact, and every other factoid is a hallucination. Built-in
models:

* permuted power law: a uniformly random N-subset of non-bottom factoids
  receives mass proportional to rank^(-k) under a uniformly random rank
  assignment (k=0 uniform, k=1 Zipf);
* W5: factoids are (person, date, food, location) tuples; each
  (person, date) pair contributes exactly one uniformly chosen fact, so
  factoids sharing a pair are anti-correlated;
* multi-type: disjoint index ranges, one component world per range,
  mixed with fixed per-type mass;
* explicit: a finite list of (prior weight, instance) pairs, enumerable
  for exact posterior computations.

Regularity of a world, conditioned on a training sample, measures how
far any single unobserved factoid's chance of being a fact (or expected
mass) can exceed the unobserved average; 1 means perfectly exchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Union

import numpy as np

from .dist import (
    BOTTOM,
    MATERIALIZE_LIMIT,
    FactoidDist,
    FactoidUniverse,
    dist_from_arrays,
    dist_from_weights,
    with_bottom,
)
from .errors import (
    DistributionError,
    UnsupportedModelError,
    UniverseMismatchError,
)
from .estimators import TrainingSample
from .rng import SeededRng

__all__ = [
    "WorldInstance",
    "PermutedPowerLawWorld",
    "W5World",
    "MultiTypeWorld",
    "ExplicitWorld",
    "WorldModel",
    "RegularityReport",
    "sample_world",
    "sample_distinct_excluding",
    "posterior_support_uniform",
    "posterior_sampler_uniform_world",
    "posterior_fact_marginal",
    "analyze_regularity",
    "enumerate_w5_instances",
    "world_sparsity",
]


@dataclass(frozen=True)
class WorldInstance:
    """One realized world: a sparse fact distribution and its fact set."""

    p: FactoidDist

    def __post_init__(self):
        if self.p.background > 0.0:
            raise DistributionError("world fact distributions must be sparse")

    @property
    def universe(self) -> FactoidUniverse:
        return self.p.universe

    @cached_property
    def fact_keys(self) -> np.ndarray:
        """The facts, the empty fact included, in increasing order."""
        return with_bottom(self.p.keys[self.p.values > 0.0])

    @cached_property
    def facts(self) -> frozenset[int]:
        return frozenset(self.fact_keys.tolist())

    @property
    def fact_count(self) -> int:
        return self.fact_keys.size

    @property
    def hallucination_count(self) -> int:
        return self.universe.size - self.fact_count

    @cached_property
    def hallucinations(self) -> frozenset[int]:
        if self.universe.size > MATERIALIZE_LIMIT:
            raise DistributionError(
                f"refusing to materialize hallucination set over universe of size {self.universe.size}"
            )
        return frozenset(self.universe.indices()) - self.facts


@dataclass(frozen=True)
class PermutedPowerLawWorld:
    universe_size: int
    fact_count: int
    exponent: float = 0.0

    def __post_init__(self):
        if self.universe_size < 2:
            raise DistributionError(f"universe size must be >= 2, got {self.universe_size}")
        if not 1 <= self.fact_count <= self.universe_size - 1:
            raise DistributionError(
                f"fact count {self.fact_count} must be in [1, {self.universe_size - 1}]"
            )
        if self.exponent < 0.0:
            raise DistributionError(f"exponent must be >= 0, got {self.exponent}")

    @property
    def universe(self) -> FactoidUniverse:
        return FactoidUniverse(self.universe_size)


@dataclass(frozen=True)
class W5World:
    n_people: int
    n_dates: int
    n_foods: int
    n_locations: int

    def __post_init__(self):
        for name in ("n_people", "n_dates", "n_foods", "n_locations"):
            if getattr(self, name) < 1:
                raise DistributionError(f"{name} must be >= 1")

    @property
    def universe_size(self) -> int:
        return self.n_people * self.n_dates * self.n_foods * self.n_locations + 1

    @property
    def universe(self) -> FactoidUniverse:
        return FactoidUniverse(self.universe_size)

    @property
    def pair_count(self) -> int:
        return self.n_people * self.n_dates

    def index_of(self, person: int, date: int, food: int, location: int) -> int:
        return 1 + ((person * self.n_dates + date) * self.n_foods + food) * self.n_locations + location

    def tuple_of(self, index: int) -> tuple[int, int, int, int]:
        i = index - 1
        i, location = divmod(i, self.n_locations)
        i, food = divmod(i, self.n_foods)
        person, date = divmod(i, self.n_dates)
        return person, date, food, location

    def pair_of(self, index: int) -> tuple[int, int]:
        person, date, _, _ = self.tuple_of(index)
        return person, date

    @property
    def regularity_bound(self) -> float:
        """Worst-case regularity over samples never exceeds the number
        of (person, date) pairs."""
        return float(self.pair_count)


@dataclass(frozen=True)
class MultiTypeWorld:
    """Disjoint per-type index ranges sharing one global empty fact.

    Type i occupies global indices [offset_i, offset_i + local_size_i - 1)
    where local index 0 (the component's empty fact) maps to the shared
    global index 0. Component draws are independent; type i receives
    total mass weights[i].
    """

    components: tuple
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise DistributionError("multi-type world needs at least one component")
        if len(self.weights) != len(self.components):
            raise DistributionError("one weight per component required")
        if any(w <= 0.0 for w in self.weights):
            raise DistributionError("type weights must be positive")
        if abs(math.fsum(self.weights) - 1.0) > 1e-9:
            raise DistributionError("type weights must sum to 1")

    @property
    def k_types(self) -> int:
        return len(self.components)

    @property
    def universe_size(self) -> int:
        return 1 + sum(c.universe_size - 1 for c in self.components)

    @property
    def universe(self) -> FactoidUniverse:
        return FactoidUniverse(self.universe_size)

    def type_offset(self, i: int) -> int:
        return 1 + sum(c.universe_size - 1 for c in self.components[:i])

    def type_range(self, i: int) -> range:
        start = self.type_offset(i)
        return range(start, start + self.components[i].universe_size - 1)

    def to_global(self, i: int, local_y: int) -> int:
        if local_y == BOTTOM:
            return BOTTOM
        return self.type_offset(i) + local_y - 1

    def to_local(self, i: int, global_y: int) -> int:
        if global_y == BOTTOM:
            return BOTTOM
        start = self.type_offset(i)
        if global_y not in self.type_range(i):
            raise DistributionError(f"global index {global_y} not in type {i} range")
        return global_y - start + 1


@dataclass(frozen=True)
class ExplicitWorld:
    """Finite prior over instances; the exact-posterior workhorse."""

    instances: tuple[tuple[float, WorldInstance], ...]

    def __post_init__(self):
        if not self.instances:
            raise DistributionError("explicit world needs at least one instance")
        if any(w <= 0.0 for w, _ in self.instances):
            raise DistributionError("prior weights must be positive")
        if abs(math.fsum(w for w, _ in self.instances) - 1.0) > 1e-9:
            raise DistributionError("prior weights must sum to 1")
        first = self.instances[0][1].universe
        if any(inst.universe != first for _, inst in self.instances):
            raise UniverseMismatchError("explicit instances must share a universe")

    @property
    def universe(self) -> FactoidUniverse:
        return self.instances[0][1].universe

    @property
    def universe_size(self) -> int:
        return self.universe.size


WorldModel = Union[PermutedPowerLawWorld, W5World, MultiTypeWorld, ExplicitWorld]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_distinct_excluding(
    rng: SeededRng, low: int, high: int, count: int, exclude: frozenset[int] = frozenset()
) -> list[int]:
    """Uniform ordered sample of `count` distinct ints from [low, high)
    minus `exclude`. Rejection-based when the range dwarfs the request,
    so no O(range) array is built for huge universes."""
    gen = rng.generator
    span = high - low
    excluded_inside = sum(1 for y in exclude if low <= y < high)
    available = span - excluded_inside
    if count > available:
        raise DistributionError(f"cannot draw {count} distinct values from {available} available")
    if count == 0:
        return []
    if span <= 4096 or count * 4 > available:
        eligible = np.array([y for y in range(low, high) if y not in exclude], dtype=np.int64)
        picked = gen.permutation(eligible)[:count]
        return [int(y) for y in picked]
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
    return out


def _power_law_dist(universe: FactoidUniverse, ranked_atoms: np.ndarray, exponent: float) -> FactoidDist:
    ranks = np.arange(1, ranked_atoms.size + 1, dtype=np.float64)
    raw = ranks ** (-exponent)
    total = math.fsum(raw.tolist())
    order = np.argsort(ranked_atoms)
    return dist_from_arrays(universe, ranked_atoms[order], raw[order] / total)


def sample_world(model: WorldModel, rng: SeededRng) -> WorldInstance:
    """Draw one world instance from the model prior."""
    if isinstance(model, PermutedPowerLawWorld):
        gen = rng.generator
        # random subset in random order: position in the draw is the rank
        ranked = gen.choice(model.universe_size - 1, size=model.fact_count, replace=False) + 1
        return WorldInstance(_power_law_dist(model.universe, ranked, model.exponent))
    if isinstance(model, W5World):
        gen = rng.generator
        # one (food, location) draw per pair, in pair order: the keys come
        # out increasing because index_of orders pairs before food/location
        keys = []
        for person in range(model.n_people):
            for date in range(model.n_dates):
                food = int(gen.integers(model.n_foods))
                location = int(gen.integers(model.n_locations))
                keys.append(model.index_of(person, date, food, location))
        return WorldInstance(
            dist_from_arrays(model.universe, keys, np.full(len(keys), 1.0 / model.pair_count))
        )
    if isinstance(model, MultiTypeWorld):
        # type ranges are disjoint and increasing, so the concatenated
        # keys stay sorted; component mass on the shared empty fact adds up
        keys, values = [], []
        bottom_mass = 0.0
        for i, (component, w) in enumerate(zip(model.components, model.weights)):
            p_i = sample_world(component, rng).p
            real = p_i.keys != BOTTOM
            keys.append(p_i.keys[real] + (model.type_offset(i) - 1))
            values.append(w * p_i.values[real])
            bottom_mass += w * math.fsum(p_i.values[~real].tolist())
        if bottom_mass > 0.0:
            keys.insert(0, [BOTTOM])
            values.insert(0, [bottom_mass])
        return WorldInstance(
            dist_from_arrays(model.universe, np.concatenate(keys), np.concatenate(values))
        )
    if isinstance(model, ExplicitWorld):
        gen = rng.generator
        weights = np.array([w for w, _ in model.instances])
        idx = int(gen.choice(len(model.instances), p=weights / weights.sum()))
        return model.instances[idx][1]
    raise UnsupportedModelError(f"unknown world model {model!r}")


# ---------------------------------------------------------------------------
# Posterior for the uniform-support world (k = 0)
# ---------------------------------------------------------------------------


def posterior_support_uniform(
    model: PermutedPowerLawWorld, observed: Iterable[int], rng: SeededRng
) -> list[int]:
    """Support draw from the posterior given the observed set.

    Valid only at exponent 0: every size-N support containing the
    observed facts has the same likelihood (1/N)^n, so the posterior is
    uniform over completions of the observed set.
    """
    if not isinstance(model, PermutedPowerLawWorld) or model.exponent != 0.0:
        raise UnsupportedModelError("exact posterior sampling requires the uniform world (exponent 0)")
    obs = frozenset(observed) | {BOTTOM}
    obs_facts = sorted(obs - {BOTTOM})
    extra_needed = model.fact_count - len(obs_facts)
    if extra_needed < 0:
        raise DistributionError(
            f"{len(obs_facts)} observed facts exceed fact budget {model.fact_count}"
        )
    extra = sample_distinct_excluding(rng, 1, model.universe_size, extra_needed, exclude=obs)
    return obs_facts + extra


def posterior_sampler_uniform_world(
    model: PermutedPowerLawWorld, observed: Iterable[int], rng: SeededRng
) -> WorldInstance:
    support = posterior_support_uniform(model, observed, rng)
    return WorldInstance(
        dist_from_arrays(model.universe, np.sort(support), np.full(len(support), 1.0 / len(support)))
    )


def posterior_fact_marginal(model: PermutedPowerLawWorld, observed: Iterable[int]) -> float:
    """Pr[y is a fact | observed] for any unobserved y, at exponent 0.

    By symmetry of the uniform completion this is (N - m) / |unobserved|
    with m the number of observed non-bottom facts.
    """
    if model.exponent != 0.0:
        raise UnsupportedModelError("closed-form posterior marginal requires exponent 0")
    obs = frozenset(observed) | {BOTTOM}
    m = len(obs) - 1
    unobserved = model.universe_size - len(obs)
    if unobserved <= 0:
        return 0.0
    return (model.fact_count - m) / unobserved


# ---------------------------------------------------------------------------
# Regularity analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Per-sample regularity of a world model.

    s is the fact sparsity: ln(hallucinations / facts), minimized over
    instances the prior can produce. r_facts (r_probs) is how far the
    most likely unobserved factoid's posterior fact-probability
    (expected mass) exceeds the unobserved average; 1 is exchangeable.
    """

    s: float
    r_facts: float
    r_probs: float
    conditioning_sample: TrainingSample


def _instance_sparsity(inst: WorldInstance) -> float:
    if inst.hallucination_count == 0:
        return -math.inf
    return math.log(inst.hallucination_count / inst.fact_count)


def _posterior_over_instances(model: ExplicitWorld, sample: TrainingSample) -> np.ndarray:
    post = []
    for prior_w, inst in model.instances:
        like = prior_w
        for w in inst.p.weights_at(sample.draws).tolist():
            like *= w
            if like == 0.0:
                break
        post.append(like)
    arr = np.array(post, dtype=np.float64)
    total = arr.sum()
    if total <= 0.0:
        raise DistributionError("sample is inconsistent with every instance of the model")
    return arr / total


def analyze_regularity(model: WorldModel, sample: TrainingSample) -> RegularityReport:
    """Exact regularity given a sample.

    Explicit models are enumerated in full. W5 models use the product
    structure of the posterior (observed pairs are pinned, unobserved
    pairs stay independent and uniform), which is exact without
    enumerating the instance set. Permuted power-law worlds are
    exchangeable over unobserved factoids for every exponent, so both
    ratios are exactly 1.
    """
    if isinstance(model, ExplicitWorld):
        return _analyze_explicit(model, sample)
    if isinstance(model, W5World):
        return _analyze_w5(model, sample)
    if isinstance(model, PermutedPowerLawWorld):
        if sample.universe.size != model.universe_size:
            raise UniverseMismatchError("sample universe does not match the model")
        return RegularityReport(
            s=world_sparsity(model), r_facts=1.0, r_probs=1.0, conditioning_sample=sample
        )
    raise UnsupportedModelError(f"regularity analysis not available for {type(model).__name__}")


def _analyze_explicit(model: ExplicitWorld, sample: TrainingSample) -> RegularityReport:
    if sample.universe != model.universe:
        raise UniverseMismatchError("sample universe does not match the model")
    post = _posterior_over_instances(model, sample)
    unobserved = np.array(sorted(sample.unobserved), dtype=np.int64)
    n_unobs = unobserved.size
    s = min(_instance_sparsity(inst) for _, inst in model.instances)
    if n_unobs == 0:
        return RegularityReport(s=s, r_facts=1.0, r_probs=1.0, conditioning_sample=sample)
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
    return RegularityReport(s=s, r_facts=r_facts, r_probs=r_probs, conditioning_sample=sample)


def _analyze_w5(model: W5World, sample: TrainingSample) -> RegularityReport:
    if sample.universe.size != model.universe_size:
        raise UniverseMismatchError("sample universe does not match the model")
    pinned: dict[tuple[int, int], int] = {}
    for y in sample.draws.tolist():
        if y == BOTTOM:
            continue
        pair = model.pair_of(y)
        if pinned.setdefault(pair, y) != y:
            raise DistributionError(
                f"sample pins two different facts for (person, date) pair {pair}"
            )
    free_pairs = model.pair_count - len(pinned)
    size = model.universe_size
    n_unobs = size - sample.observed_count
    s = world_sparsity(model)
    if n_unobs == 0 or free_pairs == 0:
        return RegularityReport(s=s, r_facts=1.0, r_probs=1.0, conditioning_sample=sample)
    # any unobserved factoid on a free pair is that pair's fact with
    # probability 1/(foods*locations); pinned pairs contribute nothing
    per_pair_choices = model.n_foods * model.n_locations
    max_pr = 1.0 / per_pair_choices
    exp_overlap = float(free_pairs)
    r_facts = max_pr * n_unobs / exp_overlap
    # mass given membership is deterministic (uniform over all facts),
    # so the probability ratio coincides with the fact ratio
    r_probs = r_facts
    return RegularityReport(s=s, r_facts=r_facts, r_probs=r_probs, conditioning_sample=sample)


def enumerate_w5_instances(model: W5World, limit: int = 200_000) -> ExplicitWorld:
    """All assignments of one (food, location) per (person, date) pair,
    with uniform prior. Guarded: the count grows as
    (foods*locations)^(people*dates)."""
    per_pair = model.n_foods * model.n_locations
    count = per_pair ** model.pair_count
    if count > limit:
        raise DistributionError(f"{count} instances exceed enumeration limit {limit}")
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


# ---------------------------------------------------------------------------
# Sparsity
# ---------------------------------------------------------------------------


def world_sparsity(model: WorldModel) -> float:
    """Largest s with |facts| <= e^(-s) |hallucinations| on every draw."""
    if isinstance(model, PermutedPowerLawWorld):
        facts = model.fact_count + 1
        hallucinations = model.universe_size - facts
        if hallucinations <= 0:
            raise DistributionError("world has no hallucinations; sparsity undefined")
        return math.log(hallucinations / facts)
    if isinstance(model, W5World):
        facts = model.pair_count + 1
        hallucinations = model.universe_size - facts
        if hallucinations <= 0:
            raise DistributionError("world has no hallucinations; sparsity undefined")
        return math.log(hallucinations / facts)
    if isinstance(model, ExplicitWorld):
        return min(_instance_sparsity(inst) for _, inst in model.instances)
    if isinstance(model, MultiTypeWorld):
        return min(world_sparsity(c) for c in model.components)
    raise UnsupportedModelError(f"unknown world model {model!r}")
