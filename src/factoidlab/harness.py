"""Seeded experiment orchestration.

One trial is: draw a world, draw training data, train the algorithm,
measure (monofact estimate, missing mass, hallucination rate, the
calibration metrics), and evaluate every bound. Trials are pure
functions of (master seed, trial index), so experiments reproduce
byte-for-byte and can run in any order. Each trial draws its world on
its own stream (_drawn), and dist._counted_samples draws and counts its
training data, a chunk of trials at a time; the harness reads no
sampling table. The (p, g) profiles of consecutive trials are scored
together in batches; every metric of a trial is the same bits in any
chunk and batch as on its own.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, get_args

import numpy as np

from .bounds import (
    BOUNDS,
    BoundEvaluation,
    BoundFrequency,
    BoundParams,
    _bound_frequency,
    bound_terms,
    evaluate_bound,
)
from .calibration import (
    AdaptiveBinning,
    ExactValueBinning,
    FixedWidthBinning,
    SortedProfiles,
    reliability_rows,
)
from .dist import (
    BOTTOM,
    FactoidDist,
    ProfileBatch,
    _normalized,
    _pair_profile,
    _counted_samples,
    _SlotMasses,
    join_profiles,
    keyed_profile,
    kl_divergences,
)
from .errors import (
    ConfigError,
    DistributionError,
    FactoidLabError,
    InsufficientDataError,
    check_count,
)
from .estimators import (
    TrainingSample,
    _gt_estimates,
    good_turing_radius,
    missing_mass_lower_radius,
    monofact_estimate,
)
from .lms import LmAlgorithm, MonofactMemorizer, train
from .rng import SeededRng
from .worlds import MultiTypeWorld, WorldInstance, WorldModel, sample_world, world_sparsity

__all__ = [
    "DRAW_COUNT_LIMIT",
    "TRIAL_COUNT_LIMIT",
    "BoundSettings",
    "ExperimentConfig",
    "TrialRecord",
    "MetricSummary",
    "AggregateReport",
    "run_trial",
    "run_experiment",
    "GtConcentrationReport",
    "run_gt_concentration",
    "UpperBoundReport",
    "run_upper_bound_check",
    "MultiTypeReport",
    "run_multi_type_experiment",
]

METRIC_NAMES = (
    "mf",
    "missing_mass",
    "halluc_rate",
    "mc_exact",
    "mc_adaptive",
    "mc_fixed",
    "mis_eps",
)


@dataclass(frozen=True)
class BoundSettings:
    """Bound parameters as configured; s=None means "use the world's
    exact sparsity". k_types must equal the world's type count."""

    delta: float = 0.1
    b: int = 10
    epsilon: float = 0.1
    s: Optional[float] = None
    r: float = 1.0
    k_types: int = 1


#: Most training draws one trial may take: a trial allocates arrays of n
#: draws and n uniforms, so a larger n would exhaust memory rather than run.
DRAW_COUNT_LIMIT = 10_000_000
#: Most trials one config may ask for: the suites keep per-trial arrays,
#: so a larger count would exhaust memory or time.
TRIAL_COUNT_LIMIT = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldModel
    n: int
    algorithm: LmAlgorithm
    bound: BoundSettings
    trials: int
    master_seed: int
    #: the bound parameters every trial uses, built once from bound and world
    params: BoundParams = field(init=False, compare=False)

    def __post_init__(self):
        # an explicit prior is enumerated by the exact checks, never drawn
        if not isinstance(self.world, get_args(WorldModel)):
            raise ConfigError(f"{type(self.world).__name__} is not a drawable world model")
        check_count(self.trials, "trials", 1, TRIAL_COUNT_LIMIT, "trials", ConfigError)
        check_count(self.n, "n", 1, DRAW_COUNT_LIMIT, "draws per trial", ConfigError)
        check_count(self.master_seed, "seed", 0, error=ConfigError)
        size = self.world.universe.size
        if size <= self.n + 1:
            raise ConfigError(
                f"universe size {size} must exceed n + 1 = {self.n + 1}: U would be empty"
            )
        k = self.world.k_types if isinstance(self.world, MultiTypeWorld) else 1
        if self.bound.k_types != k:
            raise ConfigError(f"k_types {self.bound.k_types} must equal the world's {k} types")
        s = self.bound.s if self.bound.s is not None else world_sparsity(self.world)
        params = BoundParams(
            delta=self.bound.delta,
            b=self.bound.b,
            epsilon=self.bound.epsilon,
            s=s,
            r=self.bound.r,
            n=self.n,
            k_types=k,
        )
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    seed: int
    mf: float
    missing_mass: float
    halluc_rate: float
    mc_exact: float
    mc_adaptive: float
    mc_fixed: float
    mis_eps: float
    kl: float
    cor1: BoundEvaluation
    cor_general: BoundEvaluation
    cor_balfact: BoundEvaluation
    cor_fixed_tv: BoundEvaluation
    cor_fixed_mis: BoundEvaluation
    #: (bin value, g-mass, p-mass, size) per adaptive bin, the bins
    #: mc_adaptive was measured over; not part of trials.csv
    reliability: tuple[tuple[float, float, float, int], ...] = field(repr=False)


def _drawn(
    model: WorldModel, n: int, master_seed: int, indices: Sequence[int]
) -> Iterator[tuple[int, SeededRng, WorldInstance, TrainingSample, np.ndarray]]:
    """(i, rng, world, sample, seen) per stream index i, in order: a world
    and n i.i.d. draws from it on child i of the master seed, and the slots
    of p's sampling table the sample holds (what dist._SlotMasses reads the
    missing mass off). Every suite that trains on a drawn world starts
    here, and so does thm-main's one world. A failing world draw surfaces
    with its index attached.

    Each stream draws its world, and dist._counted_samples draws and counts
    its sample; until its chunk is counted, a world keeps one table slot a
    fact alive (every drawn fact has positive weight).
    """

    def worlds():
        for i, rng in zip(indices, SeededRng(master_seed).children(indices)):
            try:
                world = sample_world(model, rng)
            except FactoidLabError as exc:
                raise type(exc)(f"trial {i}: {exc}") from exc
            yield (i, rng, world), world.p, rng.generator, world.p.keys.size

    for (i, rng, world), atoms, counts, seen in _counted_samples(worlds(), n):
        # a fresh gather at distinct increasing slots, counts >= 1: built unchecked
        yield i, rng, world, TrainingSample._counted(world.universe, atoms, counts), seen


def _train(i: int, algorithm: LmAlgorithm, sample: TrainingSample, p: FactoidDist) -> FactoidDist:
    """g trained on stream i's sample (p as truth); a failing training
    surfaces with the index attached."""
    try:
        return train(algorithm, sample, truth=p)
    except FactoidLabError as exc:
        raise type(exc)(f"trial {i}: {exc}") from exc


def _trained(
    model: WorldModel, n: int, algorithm: LmAlgorithm, master_seed: int, indices: Sequence[int]
) -> Iterator[tuple[WorldInstance, TrainingSample, FactoidDist]]:
    """(world, sample, g) per stream index, in order: _drawn's world and
    sample, and g trained on them."""
    for i, _, world, sample, _ in _drawn(model, n, master_seed, indices):
        yield world, sample, _train(i, algorithm, sample, world.p)


#: Most profile classes one scoring batch holds. Trials join a batch
#: whole, and a trial with more classes than this is a batch of its own.
#: The limit is set by memory: a batch's profiles are kept until it is
#: scored, and its working arrays grow with it. On the README config
#: (about 1,000 classes a trial) the benchmark's peak RSS rose by about
#: 0.6 MB (1.5%) with this limit, 8 trials a batch, and by about 1 MB
#: (2.4%) with 30 trials a batch, while 8 trials already spread most of
#: the fixed cost of each numpy call.
_BATCH_CLASSES = 8192

def _scored_in_batches(
    trials: Iterable[tuple[object, Sequence[ProfileBatch]]],
    score: Callable[[list, ProfileBatch], list],
) -> Iterator:
    """score(trials, joined), item by item, for consecutive batches of
    trials, each trial given with its profiles and a batch joining at most
    _BATCH_CLASSES profile classes. Only one batch is alive at a time: the
    pending list swaps its profiles for their join, and popping that hands
    score the only reference to the joined batch."""
    batch: list = []
    profiles: list = []
    classes = 0
    for trial, own in trials:
        size = sum(int(p.bounds[-1]) for p in own)
        if batch and classes + size > _BATCH_CLASSES:
            profiles[:] = [join_profiles(profiles)]
            yield from score(batch, profiles.pop())
            batch, classes = [], 0
        batch.append(trial)
        profiles.extend(own)
        classes += size
    if batch:
        profiles[:] = [join_profiles(profiles)]
        yield from score(batch, profiles.pop())


def _trial_records(cfg: ExperimentConfig, indices: Sequence[int]) -> Iterator[TrialRecord]:
    """The records of the given trials, in order.

    Each trial draws its world, sample and g on its own stream, child i
    of the master seed, and builds its (p, g) profile once; a failing
    draw surfaces with its trial index attached. The profiles of
    consecutive trials are then scored together in batches: each profile
    carries its hallucination rate, KL sums over the classes in atom
    order, and every calibration metric reads the same classes sorted once
    by g.
    """
    params = cfg.params

    def drawn():
        # a drawn world has no empty fact among its facts, so every
        # unseen slot's weight is missing mass
        masses = _SlotMasses()
        for i, rng, world, sample, seen in _drawn(cfg.world, cfg.n, cfg.master_seed, indices):
            g = _train(i, cfg.algorithm, sample, world.p)
            mf, p_u = monofact_estimate(sample), masses(world.p, seen)
            yield (i, rng.fingerprint(), mf, p_u), (keyed_profile(world.p, g),)

    def score(batch, joined: ProfileBatch) -> list[TrialRecord]:
        halluc, kl = joined.halluc_rate.tolist(), kl_divergences(joined)
        by_g = SortedProfiles(joined.w1, joined.w2, joined.counts, joined.bounds)
        del joined  # the bins read only the sorted copy
        exact = by_g.binned(ExactValueBinning())
        adaptive = by_g.binned(AdaptiveBinning(params.b))
        fixed = by_g.binned(FixedWidthBinning(params.epsilon))
        # the calibration metrics, by the TrialRecord names BOUNDS reads
        columns = dict(
            mc_adaptive=adaptive.miscalibration, mc_fixed=fixed.miscalibration, mis_eps=fixed.mass_gaps()
        )
        records = []
        for t, (i, seed, mf, p_u) in enumerate(batch):
            g_h, mc = halluc[t], {name: column[t] for name, column in columns.items()}
            bounds = {
                name: evaluate_bound(g_h, bound_terms(name, mf, mc[metric], params))
                for name, (metric, _, _) in BOUNDS.items()
            }
            records.append(
                TrialRecord(
                    trial_index=i,
                    seed=seed,
                    mf=mf,
                    missing_mass=p_u,
                    halluc_rate=g_h,
                    mc_exact=exact.miscalibration[t],
                    kl=kl[t],
                    **mc,
                    **bounds,
                    reliability=tuple(reliability_rows(*adaptive.bins(t))),
                )
            )
        return records

    return _scored_in_batches(drawn(), score)


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Execute one seeded trial, scored as a batch of one; identical
    inputs give identical records, the same as run_experiment's."""
    return next(_trial_records(cfg, (trial_index,)))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSummary:
    name: str
    mean: float
    std: float


@dataclass(frozen=True)
class AggregateReport:
    trials: int
    delta: float
    bounds: tuple[BoundFrequency, ...]
    metrics: tuple[MetricSummary, ...]

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.bounds)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "delta": self.delta,
            "passed": self.passed,
            "bounds": {
                b.name: {k: v for k, v in dataclasses.asdict(b).items() if k != "name"}
                for b in self.bounds
            },
            # a non-finite summary (the mean KL of a run with no finite KL) is null
            "metrics": {
                m.name: {k: v if math.isfinite(v) else None for k, v in (("mean", m.mean), ("std", m.std))}
                for m in self.metrics
            },
        }


def _summarize(name: str, values: Sequence[float]) -> MetricSummary:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return MetricSummary(name=name, mean=mean, std=std)


def aggregate_records(records: Sequence[TrialRecord], delta: float) -> AggregateReport:
    m = len(records)
    bounds = [
        _bound_frequency(name, [getattr(r, name) for r in records], delta) for name in BOUNDS
    ]
    metrics = [_summarize(name, [getattr(r, name) for r in records]) for name in METRIC_NAMES]
    kl_values = [r.kl for r in records]
    finite = [v for v in kl_values if math.isfinite(v)]
    metrics.append(_summarize("kl_finite", finite if finite else [math.nan]))
    metrics.append(
        MetricSummary(
            name="kl_inf_fraction",
            mean=sum(1 for v in kl_values if math.isinf(v)) / m,
            std=0.0,
        )
    )
    return AggregateReport(trials=m, delta=delta, bounds=tuple(bounds), metrics=tuple(metrics))


def run_experiment(cfg: ExperimentConfig) -> tuple[AggregateReport, list[TrialRecord]]:
    """Run all trials in index order, scored in batches, and aggregate. A
    failing trial surfaces with its trial index attached."""
    records = list(_trial_records(cfg, range(cfg.trials)))
    return aggregate_records(records, cfg.bound.delta), records


# ---------------------------------------------------------------------------
# Good-Turing concentration suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GtConcentrationReport:
    """Empirical violation frequencies of the two concentration radii
    around a fixed fact distribution."""

    trials: int
    n: int
    delta: float
    two_sided_radius: float
    one_sided_radius: float
    two_sided_violations: int
    one_sided_violations: int
    mean_gap: float
    gap_stderr: float

    @property
    def two_sided_frequency(self) -> float:
        return self.two_sided_violations / self.trials

    @property
    def one_sided_frequency(self) -> float:
        return self.one_sided_violations / self.trials

    @property
    def passed(self) -> bool:
        return (
            self.two_sided_frequency <= self.delta
            and self.one_sided_frequency <= self.delta / 3.0
        )


def run_gt_concentration(
    p: FactoidDist, n: int, delta: float, trials: int, master_seed: int
) -> GtConcentrationReport:
    """Sample repeatedly from a fixed p and count how often the monofact
    estimate strays outside the two-sided radius (level delta) or below
    the one-sided radius (level delta/3, the form bound proofs consume).

    Requires p to put no mass on the empty fact: then the monofact
    estimate coincides exactly with the generic unique-draw fraction the
    concentration statements are about. (With empty-fact mass the two
    can differ by up to 1/n.) p must also be sparse, as every sampled
    distribution: a background that an atom outside p's keys carries is
    refused by the sampler.
    """
    check_count(trials, "trials", 100, error=InsufficientDataError)
    if p.weight(0) > 0.0:
        raise DistributionError(
            "concentration suite needs a distribution with no empty-fact mass"
        )
    two_radius = good_turing_radius(delta, n)
    one_radius = missing_mass_lower_radius(delta / 3.0, n)
    two_sided = 0
    one_sided = 0
    gaps = np.zeros(trials)
    # trial streams start at child 1; child 0 is reserved for callers'
    # setup draws (e.g. the CLI drawing the fixed p from a world model)
    streams = SeededRng(master_seed).children(range(1, trials + 1))
    for t, (mf, miss) in enumerate(_gt_estimates(p, n, streams)):
        gaps[t] = mf - miss
        if abs(mf - miss) > two_radius:
            two_sided += 1
        if miss < mf - one_radius:
            one_sided += 1
    stderr = float(gaps.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return GtConcentrationReport(
        trials=trials,
        n=n,
        delta=delta,
        two_sided_radius=two_radius,
        one_sided_radius=one_radius,
        two_sided_violations=two_sided,
        one_sided_violations=one_sided,
        mean_gap=float(gaps.mean()),
        gap_stderr=stderr,
    )


# ---------------------------------------------------------------------------
# Memorizer upper-bound suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpperBoundReport:
    """Frequencies of the memorizer's two guarantees: hallucination never
    above the monofact estimate (must be certain), near-calibration with
    probability at least 1 - delta."""

    trials: int
    delta: float
    calibration_radius: float
    certainty_hits: int
    calibration_hits: int

    @property
    def calibration_frequency(self) -> float:
        return self.calibration_hits / self.trials

    @property
    def passed(self) -> bool:
        return self.certainty_hits == self.trials and self.calibration_frequency >= 1.0 - self.delta


def run_upper_bound_check(
    world: WorldModel, n: int, delta: float, trials: int, master_seed: int
) -> UpperBoundReport:
    """Count the trials in which the memorizer's hallucination rate stays
    at or below the monofact estimate and its exact-value miscalibration
    within the two-sided radius; both events are read off one profile of
    (p, g) per trial, scored in batches as run_experiment scores its
    trials. A failing draw surfaces with its stream index attached."""
    check_count(trials, "trials", 1, error=InsufficientDataError)
    radius = good_turing_radius(delta, n)
    drawn = (
        (monofact_estimate(sample), (keyed_profile(inst.p, g),))
        for inst, sample, g in _trained(world, n, MonofactMemorizer(), master_seed, range(1, trials + 1))
    )

    def score(batch, joined: ProfileBatch) -> list[tuple[bool, bool]]:
        halluc = joined.halluc_rate.tolist()
        by_g = SortedProfiles(joined.w1, joined.w2, joined.counts, joined.bounds)
        exact = by_g.binned(ExactValueBinning())
        return [
            (g_h <= mf + 1e-12, mc <= radius)
            for mf, g_h, mc in zip(batch, halluc, exact.miscalibration)
        ]

    events = list(_scored_in_batches(drawn, score))
    certainty = sum(certain for certain, _ in events)
    calibration = sum(calibrated for _, calibrated in events)
    return UpperBoundReport(
        trials=trials,
        delta=delta,
        calibration_radius=radius,
        certainty_hits=certainty,
        calibration_hits=calibration,
    )


# ---------------------------------------------------------------------------
# Multi-type experiments
# ---------------------------------------------------------------------------


#: per-type metrics a multi-type report averages, in trial-metric order
TYPE_METRIC_NAMES = ("mf", "halluc_rate", "mc_adaptive")


@dataclass(frozen=True)
class MultiTypeReport:
    """Per-type bound frequencies (named type0, type1, ...) and per-type
    metric summaries (named type0.mf, type0.halluc_rate, ...). Each row
    carries its trial count and 1 - delta verdict; a caller judges the
    rows by its own rule."""

    types: tuple[BoundFrequency, ...]
    metrics: tuple[MetricSummary, ...]


def _in_range(keys: np.ndarray, start: int, stop: int) -> slice:
    """The part of a sorted key array that lies in [start, stop)."""
    lo, hi = np.searchsorted(keys, (start, stop))
    return slice(int(lo), int(hi))


def _local_side(d: FactoidDist, start: int, size: int) -> tuple[np.ndarray, np.ndarray, float]:
    """d projected onto the type of `size` local atoms from global atom
    `start`, as normalized (keys, values, background): in-range atoms keep
    their weight and background, and the local empty fact takes the rest
    of the mass, the shared empty fact's included."""
    part = _in_range(d.keys, start, start + size - 1)
    values = d.values[part]
    rest = size - 1 - values.size
    # accumulated left to right in atom order, like a running sum
    range_mass = (float(np.cumsum(values)[-1]) if values.size else 0.0) + d.background * rest
    keys = np.concatenate(([BOTTOM], d.keys[part] - (start - 1)))
    values = np.concatenate(([max(0.0, 1.0 - range_mass)], values))
    return _normalized(size, keys, values, d.background)


def multi_type_trial_metrics(
    model: MultiTypeWorld,
    trials: Iterable[tuple[WorldInstance, TrainingSample, FactoidDist]],
    params: BoundParams,
) -> list[list[tuple[float, float, float, BoundEvaluation]]]:
    """Per trial, in order, per type (monofact, hallucinated mass,
    miscalibration, evaluation), for each (world, sample, g) in trials.

    Type i's monofact estimate counts the draws whose atom lies in its
    range and occurs once, over all n draws. Its miscalibration and
    hallucination rate are measured on the induced local pair, whose
    empty fact carries all out-of-range mass; each type's profile pairs
    the projections of p and g onto it, and the local profiles of
    consecutive trials are scored in batches. The verdict is cor1 with the
    union-bound inflation k = params.k_types.
    """

    def drawn():
        for world, sample, g in trials:
            mfs, local = [], []
            for i, component in enumerate(model.components):
                span, size = model.type_range(i), component.universe_size
                counts = sample.counts[_in_range(sample.atoms, span.start, span.stop)]
                mfs.append(int(np.count_nonzero(counts == 1)) / sample.n)
                sides = _local_side(world.p, span.start, size), _local_side(g, span.start, size)
                local.append(_pair_profile(size, *sides))
            yield mfs, local

    spec, k = AdaptiveBinning(params.b), model.k_types

    def score(batch, joined: ProfileBatch) -> list[list]:
        halluc = joined.halluc_rate.tolist()
        by_g = SortedProfiles(joined.w1, joined.w2, joined.counts, joined.bounds)
        mis = by_g.binned(spec).miscalibration
        rows = []
        for t, mfs in enumerate(batch):
            row = []
            for i, mf_i in enumerate(mfs):
                g_h_i, mc_i = halluc[t * k + i], mis[t * k + i]
                bound = evaluate_bound(g_h_i, bound_terms("cor1", mf_i, mc_i, params))
                row.append((mf_i, g_h_i, mc_i, bound))
            rows.append(row)
        return rows

    return list(_scored_in_batches(drawn(), score))


def run_multi_type_experiment(cfg: ExperimentConfig) -> MultiTypeReport:
    """Per-type bound check with the union-bound inflated right-hand side.
    A failing draw surfaces with its stream index attached."""
    model = cfg.world
    if not isinstance(model, MultiTypeWorld):
        raise ConfigError("multi-type experiment needs a MultiTypeWorld")
    k, params = model.k_types, cfg.params

    trials = _trained(model, cfg.n, cfg.algorithm, cfg.master_seed, range(cfg.trials))
    rows = multi_type_trial_metrics(model, trials, params)
    types = tuple(
        _bound_frequency(f"type{i}", [row[i][3] for row in rows], params.delta) for i in range(k)
    )
    metrics = tuple(
        _summarize(f"type{i}.{name}", [row[i][j] for row in rows])
        for i in range(k)
        for j, name in enumerate(TYPE_METRIC_NAMES)
    )
    return MultiTypeReport(types=types, metrics=metrics)
