"""Seeded experiment orchestration.

One trial is: draw a world, draw training data, train the algorithm,
measure (monofact estimate, missing mass, hallucination rate, the
calibration metrics), and evaluate every bound. Trials are pure
functions of (master seed, trial index), so experiments reproduce
byte-for-byte and can run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    BoundEvaluation,
    BoundParams,
    clopper_pearson,
    cor1_rhs,
    cor_balfact_rhs,
    cor_fixed_width_rhs,
    cor_general_rhs,
    cor_types_rhs,
    evaluate_bound,
)
from .calibration import (
    AdaptiveBinning,
    ExactValueBinning,
    FixedWidthBinning,
    miscalibration,
    profile_calibration,
    sort_profile_by_g,
)
from .dist import BOTTOM, FactoidDist, dist_from_arrays, paired_profile, profile_kl, sample_iid
from .errors import (
    ConfigError,
    DistributionError,
    FactoidLabError,
    InsufficientDataError,
)
from .estimators import (
    TrainingSample,
    good_turing_radius,
    missing_mass,
    missing_mass_lower_radius,
    monofact_estimate,
)
from .lms import LmAlgorithm, MonofactMemorizer, hallucination_rate, train
from .rng import SeededRng
from .worlds import MultiTypeWorld, WorldModel, sample_world, world_sparsity

__all__ = [
    "BoundSettings",
    "ExperimentConfig",
    "TrialRecord",
    "BoundFrequency",
    "MetricSummary",
    "AggregateReport",
    "run_trial",
    "run_experiment",
    "GtConcentrationReport",
    "run_gt_concentration",
    "UpperBoundReport",
    "run_upper_bound_check",
    "TypeBoundReport",
    "MultiTypeReport",
    "run_multi_type_experiment",
]

BOUND_NAMES = ("cor1", "cor_general", "cor_balfact", "cor_fixed_tv", "cor_fixed_mis")
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
    exact sparsity"."""

    delta: float = 0.1
    b: int = 10
    epsilon: float = 0.1
    s: Optional[float] = None
    r: float = 1.0
    k_types: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldModel
    n: int
    algorithm: LmAlgorithm
    bound: BoundSettings
    trials: int
    master_seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        size = self.world.universe.size
        if size <= self.n + 1:
            raise ConfigError(
                f"universe size {size} must exceed n + 1 = {self.n + 1}: U would be empty"
            )

    def bound_params(self) -> BoundParams:
        s = self.bound.s if self.bound.s is not None else world_sparsity(self.world)
        return BoundParams(
            delta=self.bound.delta,
            b=self.bound.b,
            epsilon=self.bound.epsilon,
            s=s,
            r=self.bound.r,
            n=self.n,
            k_types=self.bound.k_types,
        )


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

    def evaluation(self, name: str) -> BoundEvaluation:
        return getattr(self, name)

    def metric(self, name: str) -> float:
        return getattr(self, name)


def _trial_rng(master_seed: int, trial_index: int) -> SeededRng:
    return SeededRng(master_seed).child(trial_index)


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Execute one seeded trial; identical inputs give identical records.

    The (p, g) profile is built once: KL sums over it in atom order, and
    every calibration metric reads the same profile sorted once by g.
    """
    rng = _trial_rng(cfg.master_seed, trial_index)
    params = cfg.bound_params()
    world = sample_world(cfg.world, rng)
    sample = TrainingSample(world.universe, sample_iid(world.p, cfg.n, rng))
    g = train(cfg.algorithm, sample, truth=world.p)

    mf = monofact_estimate(sample)
    p_u = missing_mass(world.p, sample)
    g_h = hallucination_rate(g, world)
    profile = paired_profile(world.p, g)
    kl = profile_kl(*profile)
    by_g = sort_profile_by_g(*profile)
    mc_exact, _ = profile_calibration(*by_g, ExactValueBinning())
    mc_adaptive, _ = profile_calibration(*by_g, AdaptiveBinning(params.b))
    mc_fixed, mis_eps = profile_calibration(*by_g, FixedWidthBinning(params.epsilon))

    return TrialRecord(
        trial_index=trial_index,
        seed=rng.fingerprint(),
        mf=mf,
        missing_mass=p_u,
        halluc_rate=g_h,
        mc_exact=mc_exact,
        mc_adaptive=mc_adaptive,
        mc_fixed=mc_fixed,
        mis_eps=mis_eps,
        kl=kl,
        cor1=evaluate_bound(g_h, cor1_rhs(mf, mc_adaptive, params)),
        cor_general=evaluate_bound(g_h, cor_general_rhs(mf, mc_adaptive, params)),
        cor_balfact=evaluate_bound(g_h, cor_balfact_rhs(mf, mc_adaptive, params)),
        cor_fixed_tv=evaluate_bound(g_h, cor_fixed_width_rhs(mf, mc_fixed, params, "tv")),
        cor_fixed_mis=evaluate_bound(g_h, cor_fixed_width_rhs(mf, mis_eps, params, "mis")),
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundFrequency:
    name: str
    satisfied: int
    trials: int
    frequency: float
    ci_low: float
    ci_high: float
    vacuous: int
    vacuous_fraction: float
    passed: bool


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

    def bound(self, name: str) -> BoundFrequency:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "delta": self.delta,
            "passed": self.passed,
            "bounds": {
                b.name: {
                    "satisfied": b.satisfied,
                    "trials": b.trials,
                    "frequency": b.frequency,
                    "ci_low": b.ci_low,
                    "ci_high": b.ci_high,
                    "vacuous": b.vacuous,
                    "vacuous_fraction": b.vacuous_fraction,
                    "passed": b.passed,
                }
                for b in self.bounds
            },
            "metrics": {m.name: {"mean": m.mean, "std": m.std} for m in self.metrics},
        }


def _summarize(name: str, values: Sequence[float]) -> MetricSummary:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return MetricSummary(name=name, mean=mean, std=std)


def aggregate_records(records: Sequence[TrialRecord], delta: float) -> AggregateReport:
    m = len(records)
    bounds = []
    for name in BOUND_NAMES:
        evals = [r.evaluation(name) for r in records]
        satisfied = sum(1 for e in evals if e.satisfied)
        vacuous = sum(1 for e in evals if e.vacuous)
        low, high = clopper_pearson(satisfied, m)
        freq = satisfied / m
        bounds.append(
            BoundFrequency(
                name=name,
                satisfied=satisfied,
                trials=m,
                frequency=freq,
                ci_low=low,
                ci_high=high,
                vacuous=vacuous,
                vacuous_fraction=vacuous / m,
                passed=freq >= 1.0 - delta,
            )
        )
    metrics = [_summarize(name, [r.metric(name) for r in records]) for name in METRIC_NAMES]
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
    """Run all trials in index order and aggregate. A failing trial
    surfaces with its trial index attached."""
    records = []
    for i in range(cfg.trials):
        try:
            records.append(run_trial(cfg, i))
        except FactoidLabError as exc:
            raise type(exc)(f"trial {i}: {exc}") from exc
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
    two_sided_frequency: float = field(init=False)
    one_sided_frequency: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "two_sided_frequency", self.two_sided_violations / self.trials)
        object.__setattr__(self, "one_sided_frequency", self.one_sided_violations / self.trials)

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
    can differ by up to 1/n.)
    """
    if trials < 100:
        raise InsufficientDataError(f"need at least 100 trials, got {trials}")
    if p.weight(0) > 0.0:
        raise DistributionError(
            "concentration suite needs a distribution with no empty-fact mass"
        )
    two_radius = good_turing_radius(delta, n)
    one_radius = missing_mass_lower_radius(delta / 3.0, n)
    base = SeededRng(master_seed)
    two_sided = 0
    one_sided = 0
    gaps = np.zeros(trials)
    # trial streams start at child 1; child 0 is reserved for callers'
    # setup draws (e.g. the CLI drawing the fixed p from a world model)
    for t in range(trials):
        rng = base.child(1 + t)
        sample = TrainingSample(p.universe, sample_iid(p, n, rng))
        mf = monofact_estimate(sample)
        miss = missing_mass(p, sample)
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
    def certainty_frequency(self) -> float:
        return self.certainty_hits / self.trials

    @property
    def calibration_frequency(self) -> float:
        return self.calibration_hits / self.trials

    @property
    def passed(self) -> bool:
        return self.certainty_hits == self.trials and self.calibration_frequency >= 1.0 - self.delta


def run_upper_bound_check(
    world: WorldModel, n: int, delta: float, trials: int, master_seed: int
) -> UpperBoundReport:
    if trials < 1:
        raise InsufficientDataError("need at least one trial")
    radius = good_turing_radius(delta, n)
    base = SeededRng(master_seed)
    memorizer = MonofactMemorizer()
    certainty = 0
    calibration = 0
    for t in range(trials):
        rng = base.child(1 + t)
        inst = sample_world(world, rng)
        sample = TrainingSample(inst.universe, sample_iid(inst.p, n, rng))
        g = train(memorizer, sample)
        mf = monofact_estimate(sample)
        if hallucination_rate(g, inst) <= mf + 1e-12:
            certainty += 1
        if miscalibration(inst.p, g, ExactValueBinning()) <= radius:
            calibration += 1
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


@dataclass(frozen=True)
class TypeBoundReport:
    type_index: int
    trials: int
    satisfied: int
    frequency: float
    ci_low: float
    ci_high: float
    vacuous: int
    vacuous_fraction: float
    mean_mf: float
    mean_halluc: float
    mean_mc: float
    passed: bool


@dataclass(frozen=True)
class MultiTypeReport:
    trials: int
    delta: float
    k_types: int
    types: tuple[TypeBoundReport, ...]

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.types)


def _in_range(keys: np.ndarray, start: int, stop: int) -> slice:
    """The part of a sorted key array that lies in [start, stop)."""
    lo, hi = np.searchsorted(keys, (start, stop))
    return slice(int(lo), int(hi))


def _induced_local_dist(model: MultiTypeWorld, i: int, d: FactoidDist) -> FactoidDist:
    """Project a global distribution onto one type's local universe.

    In-range atoms keep their weight (specials mapped, background kept);
    everything else, the shared empty fact included, lands on the local
    empty fact.
    """
    start = model.type_offset(i)
    local_universe = model.components[i].universe
    part = _in_range(d.keys, start, start + local_universe.size - 1)
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


def multi_type_trial_metrics(
    model: MultiTypeWorld, world, draws, g: FactoidDist, params: BoundParams
) -> list[tuple[float, float, float, BoundEvaluation]]:
    """Per-type (monofact, hallucinated mass, miscalibration, evaluation).

    The type-i view maps out-of-range draws to the empty fact, computes
    the type's own monofact estimate and adaptive miscalibration on the
    induced local pair, and takes the generator's mass on in-range
    non-facts as the type's hallucination rate. draws is the global
    sample as an integer sequence or array.
    """
    draws = np.asarray(draws, dtype=np.int64)
    out = []
    for i in range(model.k_types):
        start = model.type_offset(i)
        local_universe = model.components[i].universe
        stop = start + local_universe.size - 1
        in_range = (draws >= start) & (draws < stop)
        local_sample = TrainingSample(local_universe, np.where(in_range, draws - (start - 1), BOTTOM))
        mf_i = monofact_estimate(local_sample)
        p_i = _induced_local_dist(model, i, world.p)
        g_i = _induced_local_dist(model, i, g)
        mc_i = miscalibration(p_i, g_i, AdaptiveBinning(params.b))
        facts_i = world.fact_keys[_in_range(world.fact_keys, start, stop)]
        in_range_special = g.values[_in_range(g.keys, start, stop)]
        range_mass = math.fsum(in_range_special.tolist()) + g.background * (
            local_universe.size - 1 - in_range_special.size
        )
        fact_mass = math.fsum(g.weights_at(facts_i).tolist())
        g_h_i = max(0.0, range_mass - fact_mass)
        out.append((mf_i, g_h_i, mc_i, evaluate_bound(g_h_i, cor_types_rhs(mf_i, mc_i, params))))
    return out


def run_multi_type_experiment(cfg: ExperimentConfig) -> MultiTypeReport:
    """Per-type bound check with the union-bound inflated right-hand side."""
    model = cfg.world
    if not isinstance(model, MultiTypeWorld):
        raise ConfigError("multi-type experiment needs a MultiTypeWorld")
    k = model.k_types
    base_params = cfg.bound_params()
    params = BoundParams(
        delta=base_params.delta,
        b=base_params.b,
        epsilon=base_params.epsilon,
        s=base_params.s,
        r=base_params.r,
        n=base_params.n,
        k_types=k,
    )

    def one_trial(trial_index: int) -> list[tuple[float, float, float, BoundEvaluation]]:
        rng = _trial_rng(cfg.master_seed, trial_index)
        world = sample_world(model, rng)
        sample = TrainingSample(world.universe, sample_iid(world.p, cfg.n, rng))
        g = train(cfg.algorithm, sample, truth=world.p)
        return multi_type_trial_metrics(model, world, sample.draws, g, params)

    rows = [one_trial(i) for i in range(cfg.trials)]

    reports = []
    for i in range(k):
        evals = [row[i][3] for row in rows]
        satisfied = sum(1 for e in evals if e.satisfied)
        vacuous = sum(1 for e in evals if e.vacuous)
        low, high = clopper_pearson(satisfied, cfg.trials)
        freq = satisfied / cfg.trials
        reports.append(
            TypeBoundReport(
                type_index=i,
                trials=cfg.trials,
                satisfied=satisfied,
                frequency=freq,
                ci_low=low,
                ci_high=high,
                vacuous=vacuous,
                vacuous_fraction=vacuous / cfg.trials,
                mean_mf=float(np.mean([row[i][0] for row in rows])),
                mean_halluc=float(np.mean([row[i][1] for row in rows])),
                mean_mc=float(np.mean([row[i][2] for row in rows])),
                passed=freq >= 1.0 - params.delta,
            )
        )
    return MultiTypeReport(trials=cfg.trials, delta=params.delta, k_types=k, types=tuple(reports))
