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

Instances are sparse: a world instance lists its facts and counts its
hallucinations, and the explicit regularity analysis scores only the
unobserved atoms some instance holds, so it runs on any universe size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Union

import numpy as np

from .dist import BOTTOM, FactoidDist, FactoidUniverse, dist_from_arrays, with_bottom
from .errors import DistributionError, UnsupportedModelError, UniverseMismatchError, check_count
from .estimators import TrainingSample
from .rng import SeededRng

__all__ = [
    "FACT_COUNT_LIMIT",
    "WorldInstance",
    "PermutedPowerLawWorld",
    "W5World",
    "MultiTypeWorld",
    "ExplicitWorld",
    "WorldModel",
    "RegularityReport",
    "sample_world",
    "analyze_regularity",
    "world_sparsity",
]


@dataclass(frozen=True)
class WorldInstance:
    """One realized world: a sparse fact distribution and its facts.

    The facts are listed (fact_keys); the hallucinations, every other
    atom of the universe, are only counted.
    """

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

    @property
    def fact_count(self) -> int:
        return self.fact_keys.size

    @property
    def hallucination_count(self) -> int:
        return self.universe.size - self.fact_count


#: Most facts one world may hold: drawing a world allocates arrays of its
#: fact count, so a larger count would exhaust memory rather than run.
FACT_COUNT_LIMIT = 10_000_000


@dataclass(frozen=True)
class PermutedPowerLawWorld:
    universe_size: int
    fact_count: int
    exponent: float = 0.0

    def __post_init__(self):
        # FactoidUniverse checks the universe size
        check_count(self.fact_count, "fact count", 1, self.universe.size - 1)
        check_count(self.fact_count, "fact count", 1, FACT_COUNT_LIMIT, "facts per world")
        if not self.exponent >= 0.0:  # NaN fails this too
            raise DistributionError(f"exponent must be >= 0, got {self.exponent}")

    @property
    def universe(self) -> FactoidUniverse:
        return FactoidUniverse(self.universe_size)

    @cached_property
    def rank_template(self) -> np.ndarray:
        """Every draw's weights in rank order (see _rank_template), built on
        first use and kept with the model: up to 80 MB at FACT_COUNT_LIMIT
        facts."""
        return _rank_template(self)


@dataclass(frozen=True)
class W5World:
    n_people: int
    n_dates: int
    n_foods: int
    n_locations: int

    def __post_init__(self):
        for name in ("n_people", "n_dates", "n_foods", "n_locations"):
            # kept as Python ints, whose products cannot wrap as numpy's do
            object.__setattr__(self, name, check_count(getattr(self, name), name, 1))
        check_count(self.pair_count, "n_people * n_dates", 1, FACT_COUNT_LIMIT, "facts per world")

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
        if not all(w > 0.0 for w in self.weights):
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

    @cached_property
    def rank_template(self) -> tuple[np.ndarray, ...] | None:
        """Per type, every draw's weights in rank order, as for a power-law
        world but scaled by the type's mass and normalized by the one
        total all types share; None unless every component is a permuted
        power law.

        A draw's values are the drawn components' values times their type
        masses, divided by the fsum of them all. fsum does not depend on
        order, so that total is a constant of the model too, and the
        literal route on every type's atoms in rank order yields the
        values of every draw.
        """
        if not all(isinstance(c, PermutedPowerLawWorld) for c in self.components):
            return None
        offsets = [self.type_offset(i) for i in range(self.k_types)]
        keys = [offset + np.arange(c.fact_count) for offset, c in zip(offsets, self.components)]
        scaled = [w * _rank_template(c) for c, w in zip(self.components, self.weights)]
        d = dist_from_arrays(self.universe, np.concatenate(keys), np.concatenate(scaled))
        return tuple(
            _rank_vector(d, offset, c.fact_count) for offset, c in zip(offsets, self.components)
        )


@dataclass(frozen=True)
class ExplicitWorld:
    """Finite prior over instances; the exact-posterior workhorse."""

    instances: tuple[tuple[float, WorldInstance], ...]

    def __post_init__(self):
        if not self.instances:
            raise DistributionError("explicit world needs at least one instance")
        if not all(w > 0.0 for w, _ in self.instances):
            raise DistributionError("prior weights must be positive")
        if abs(math.fsum(w for w, _ in self.instances) - 1.0) > 1e-9:
            raise DistributionError("prior weights must sum to 1")
        if any(abs(inst.p.total_mass() - 1.0) > 1e-9 for _, inst in self.instances):
            raise DistributionError("every instance's fact distribution must sum to 1")
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


def _power_law_dist(universe: FactoidUniverse, ranked_atoms: np.ndarray, exponent: float) -> FactoidDist:
    """The i-th of ranked_atoms gets mass proportional to i^(-exponent)."""
    ranks = np.arange(1, ranked_atoms.size + 1, dtype=np.float64)
    raw = ranks ** (-exponent)
    total = math.fsum(raw.tolist())
    order = np.argsort(ranked_atoms)
    return dist_from_arrays(universe, ranked_atoms[order], raw[order] / total)


def _rank_vector(d: FactoidDist, first: int, count: int) -> np.ndarray:
    """The weights d holds at atoms first .. first + count - 1, in order,
    0 for the atoms it dropped."""
    part = slice(*np.searchsorted(d.keys, (first, first + count)))
    out = np.zeros(count)
    out[d.keys[part] - first] = d.values[part]
    return out


def _rank_template(model: PermutedPowerLawWorld) -> np.ndarray:
    """The weights every draw of a power-law world gives its ranks, in rank
    order, 0 for a rank the draw drops.

    A draw only permutes which atom gets which rank: its values are the
    rank weights divided by their fsum, then by the fsum of those, zeros
    dropped. fsum does not depend on order, so both totals are constants
    of the model, and the literal route on atoms in rank order (atom r at
    rank r) yields every draw's values.
    """
    ranked = np.arange(1, model.fact_count + 1, dtype=np.int64)
    return _rank_vector(_power_law_dist(model.universe, ranked, model.exponent), 1, model.fact_count)


def _template_draw(
    model: PermutedPowerLawWorld, template: np.ndarray, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One draw's facts in increasing order and their weights: the drawn
    atoms sorted, the template's weights gathered in the same order, and
    the atoms of weight 0 dropped, as the literal route drops them."""
    # random subset in random order: position in the draw is the rank
    ranked = gen.choice(model.universe_size - 1, size=model.fact_count, replace=False) + 1
    order = np.argsort(ranked)
    values = template[order]
    kept = values > 0.0
    return ranked[order][kept], values[kept]


def sample_world(model: WorldModel, rng: SeededRng) -> WorldInstance:
    """Draw one world instance from the model prior."""
    if isinstance(model, PermutedPowerLawWorld):
        keys, values = _template_draw(model, model.rank_template, rng.generator)
        return WorldInstance(FactoidDist(model.universe, keys, values))
    if isinstance(model, W5World):
        # checked first: every index below the universe size fits int64
        universe = model.universe
        # one (food, location) draw per pair, in pair order: one integers
        # call over interleaved bounds draws element by element, so it
        # consumes the stream exactly as a per-pair loop of scalar calls.
        # The keys come out increasing because index_of orders pairs before
        # food/location.
        bounds = np.tile(np.array([model.n_foods, model.n_locations]), model.pair_count)
        food, location = rng.generator.integers(bounds).reshape(-1, 2).T
        person, date = np.divmod(np.arange(model.pair_count, dtype=np.int64), model.n_dates)
        keys = model.index_of(person, date, food, location)
        return WorldInstance(
            dist_from_arrays(universe, keys, np.full(keys.size, 1.0 / model.pair_count))
        )
    if isinstance(model, MultiTypeWorld) and model.rank_template is not None:
        # one component draw after another from the same stream, as on the
        # literal route below; type ranges are disjoint and increasing, so
        # the concatenated keys stay sorted
        gen = rng.generator
        keys, values = [], []
        for i, (component, template) in enumerate(zip(model.components, model.rank_template)):
            type_keys, type_values = _template_draw(component, template, gen)
            keys.append(type_keys + (model.type_offset(i) - 1))
            values.append(type_values)
        return WorldInstance(
            FactoidDist(model.universe, np.concatenate(keys), np.concatenate(values))
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
        return RegularityReport(s=world_sparsity(model), r_facts=1.0, r_probs=1.0)
    raise UnsupportedModelError(f"regularity analysis not available for {type(model).__name__}")


def _analyze_explicit(model: ExplicitWorld, sample: TrainingSample) -> RegularityReport:
    if sample.universe != model.universe:
        raise UniverseMismatchError("sample universe does not match the model")
    post = _posterior_over_instances(model, sample)
    n_unobs = sample.unobserved_count
    s = min(_instance_sparsity(inst) for _, inst in model.instances)
    if n_unobs == 0:
        return RegularityReport(s=s, r_facts=1.0, r_probs=1.0)
    # an unobserved atom outside every instance's keys is a fact of none
    # and carries no mass: it adds exactly 0 to every sum below (fsum
    # ignores zeros) and cannot raise a maximum of non-negative terms, so
    # only the keyed atoms are scored and the rest enter through n_unobs
    unobserved = np.setdiff1d(
        np.concatenate([inst.p.keys for _, inst in model.instances]), sample.observed_keys
    )
    pr_fact = np.zeros(unobserved.size)
    exp_mass = np.zeros(unobserved.size)
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
    return RegularityReport(s=s, r_facts=r_facts, r_probs=r_probs)


def _analyze_w5(model: W5World, sample: TrainingSample) -> RegularityReport:
    if sample.universe.size != model.universe_size:
        raise UniverseMismatchError("sample universe does not match the model")
    # the distinct observed facts in increasing order, so the facts of one
    # (person, date) pair are adjacent
    facts = sample.atoms[sample.atoms != BOTTOM]
    pairs = (facts - 1) // (model.n_foods * model.n_locations)
    clash = np.flatnonzero(pairs[1:] == pairs[:-1])
    if clash.size:
        raise DistributionError(
            "sample pins two different facts for (person, date) pair"
            f" {model.pair_of(int(facts[clash[0]]))}"
        )
    free_pairs = model.pair_count - pairs.size
    size = model.universe_size
    n_unobs = size - sample.observed_count
    s = world_sparsity(model)
    if n_unobs == 0 or free_pairs == 0:
        return RegularityReport(s=s, r_facts=1.0, r_probs=1.0)
    # any unobserved factoid on a free pair is that pair's fact with
    # probability 1/(foods*locations); pinned pairs contribute nothing
    per_pair_choices = model.n_foods * model.n_locations
    max_pr = 1.0 / per_pair_choices
    exp_overlap = float(free_pairs)
    r_facts = max_pr * n_unobs / exp_overlap
    # mass given membership is deterministic (uniform over all facts),
    # so the probability ratio coincides with the fact ratio
    r_probs = r_facts
    return RegularityReport(s=s, r_facts=r_facts, r_probs=r_probs)


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
