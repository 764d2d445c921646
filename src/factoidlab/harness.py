"""Seeded experiment orchestration.

One trial is: draw a world, draw training data, train the algorithm,
measure (monofact estimate, missing mass, hallucination rate, the
calibration metrics), and evaluate every bound. Trials are pure
functions of (master seed, trial index), so experiments reproduce
byte-for-byte and can run in any order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    BoundEvaluation,
    BoundFrequency,
    BoundParams,
    _bound_frequency,
    cor1_rhs,
    cor_balfact_rhs,
    cor_fixed_mis_rhs,
    cor_general_rhs,
    evaluate_bound,
)
from .calibration import (
    AdaptiveBinning,
    ExactValueBinning,
    FixedWidthBinning,
    profile_calibration,
    reliability_rows,
    sort_profile_by_g,
)
from .dist import BOTTOM, FactoidDist, KeyedProfile, keyed_profile, profile_kl, sample_iid
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
from .lms import LmAlgorithm, MonofactMemorizer, train
from .rng import SeededRng
from .worlds import MultiTypeWorld, WorldInstance, WorldModel, sample_world, world_sparsity

__all__ = [
    "DRAW_COUNT_LIMIT",
    "TRIAL_COUNT_LIMIT",
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
#: Most trials (or posterior samples) one config may ask for: the suites
#: keep per-trial arrays, so a larger count would exhaust memory or time.
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
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.trials > TRIAL_COUNT_LIMIT:
            raise ConfigError(
                f"trials {self.trials} exceeds the limit of {TRIAL_COUNT_LIMIT} trials"
            )
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.n > DRAW_COUNT_LIMIT:
            raise ConfigError(
                f"n {self.n} exceeds the limit of {DRAW_COUNT_LIMIT} draws per trial"
            )
        if self.master_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.master_seed}")
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


def _draw_trial(model: WorldModel, n: int, rng: SeededRng) -> tuple[WorldInstance, TrainingSample]:
    """Draw a world and n i.i.d. training draws from it, in that order
    from one stream; every suite that trains on a drawn world starts here."""
    world = sample_world(model, rng)
    return world, TrainingSample(world.universe, sample_iid(world.p, n, rng))


def _profile_hallucination_rate(profile: KeyedProfile) -> float:
    """The hallucination rate of g in the world whose fact distribution is
    p: 1 minus the mass g puts on the facts, clamped at 0, read off the
    keyed profile of (p, g).

    The facts are the keys p holds with positive weight, plus the empty
    fact. The mass g puts on them is the fsum of the weights g holds
    explicitly at facts, plus g's background times the other facts.
    """
    facts = profile.in1 & (profile.w1 > 0.0)
    bottom_absent = 1
    if profile.keys.size and profile.keys[0] == BOTTOM:
        facts[0] = True
        bottom_absent = 0
    held = facts & profile.in2
    n_plain = int(np.count_nonzero(facts)) + bottom_absent - int(np.count_nonzero(held))
    mass = math.fsum(profile.w2[held].tolist()) + profile.background2 * n_plain
    return max(0.0, 1.0 - mass)


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Execute one seeded trial; identical inputs give identical records.

    The (p, g) profile is built once: the hallucination rate reads its
    keys, KL sums over its classes in atom order, and every calibration
    metric reads the same classes sorted once by g.
    """
    rng = SeededRng(cfg.master_seed).child(trial_index)
    params = cfg.params
    world, sample = _draw_trial(cfg.world, cfg.n, rng)
    g = train(cfg.algorithm, sample, truth=world.p)

    mf = monofact_estimate(sample)
    p_u = missing_mass(world.p, sample)
    profile = keyed_profile(world.p, g)
    g_h = _profile_hallucination_rate(profile)
    classes = profile.classes()
    kl = profile_kl(*classes)
    by_g = sort_profile_by_g(*classes)
    mc_exact, _, _ = profile_calibration(*by_g, ExactValueBinning())
    mc_adaptive, _, adaptive_bins = profile_calibration(*by_g, AdaptiveBinning(params.b))
    mc_fixed, mis_eps, _ = profile_calibration(*by_g, FixedWidthBinning(params.epsilon))

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
        cor_fixed_tv=evaluate_bound(g_h, cor1_rhs(mf, mc_fixed, params)),
        cor_fixed_mis=evaluate_bound(g_h, cor_fixed_mis_rhs(mf, mis_eps, params)),
        reliability=tuple(reliability_rows(*adaptive_bins)),
    )


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
                b.name: {k: v for k, v in dataclasses.asdict(b).items() if k != "name"}
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
    bounds = [
        _bound_frequency(name, [getattr(r, name) for r in records], delta) for name in BOUND_NAMES
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
    # p is fixed across trials, so its total's exact expansion pays off:
    # each missing_mass below then sums the seen weights only
    p._expand_total()
    # trial streams start at child 1; child 0 is reserved for callers'
    # setup draws (e.g. the CLI drawing the fixed p from a world model)
    for t, rng in enumerate(base.children(range(1, trials + 1))):
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
    within the two-sided radius; both events are read off one keyed
    profile of (p, g) per trial, as run_trial reads its metrics."""
    if trials < 1:
        raise InsufficientDataError("need at least one trial")
    radius = good_turing_radius(delta, n)
    base = SeededRng(master_seed)
    memorizer = MonofactMemorizer()
    certainty = 0
    calibration = 0
    for rng in base.children(range(1, trials + 1)):
        inst, sample = _draw_trial(world, n, rng)
        g = train(memorizer, sample)
        mf = monofact_estimate(sample)
        profile = keyed_profile(inst.p, g)
        if _profile_hallucination_rate(profile) <= mf + 1e-12:
            certainty += 1
        by_g = sort_profile_by_g(*profile.classes())
        if profile_calibration(*by_g, ExactValueBinning())[0] <= radius:
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


#: per-type metrics a multi-type report averages, in trial-metric order
TYPE_METRIC_NAMES = ("mf", "halluc_rate", "mc_adaptive")


@dataclass(frozen=True)
class MultiTypeReport:
    """Per-type bound frequencies (named type0, type1, ...) and per-type
    metric summaries (named type0.mf, type0.halluc_rate, ...)."""

    trials: int
    delta: float
    k_types: int
    types: tuple[BoundFrequency, ...]
    metrics: tuple[MetricSummary, ...]

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.types)


def _in_range(keys: np.ndarray, start: int, stop: int) -> slice:
    """The part of a sorted key array that lies in [start, stop)."""
    lo, hi = np.searchsorted(keys, (start, stop))
    return slice(int(lo), int(hi))


def _local_side(
    weights: np.ndarray, held: np.ndarray, background: float, size: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """One distribution projected onto a type's local universe of `size`
    atoms, from its weights at the type's keys and the mask of those it
    holds explicitly.

    In-range atoms keep their weight and background; the local empty fact
    takes the rest of the mass, the shared empty fact's included. The
    result is normalized as dist_from_arrays would: divided by the fsum
    total, the background kept only where some atom carries it, zeros
    dropped when it is 0. Returns the weights at [empty fact, *keys], the
    mask of those the local distribution holds, and its background.
    """
    explicit = weights[held]
    rest = size - 1 - explicit.size
    # accumulated left to right in atom order, like a running sum
    range_mass = (float(np.cumsum(explicit)[-1]) if explicit.size else 0.0) + background * rest
    bottom = max(0.0, 1.0 - range_mass)
    total = math.fsum([bottom, *explicit.tolist()]) + background * rest
    if total <= 0.0:
        raise DistributionError("weights sum to zero; at least one must be positive")
    if not math.isfinite(total):
        raise DistributionError("weights sum is not finite")
    local_background = background / total if rest else 0.0
    local = np.concatenate(([bottom / total], np.where(held, weights / total, local_background)))
    local_held = np.concatenate(([True], held))
    if local_background == 0.0:
        local_held &= local > 0.0
    return local, local_held, local_background


def _type_profile(profile: KeyedProfile, start: int, size: int) -> KeyedProfile:
    """The keyed profile of one type's induced local pair, read off the
    global keyed profile: the type's keys are a slice of it, in-range
    atoms map to local indices and everything else lands on the local
    empty fact."""
    part = _in_range(profile.keys, start, start + size - 1)
    w1, in1, background1 = _local_side(profile.w1[part], profile.in1[part], profile.background1, size)
    w2, in2, background2 = _local_side(profile.w2[part], profile.in2[part], profile.background2, size)
    member = in1 | in2
    keys = np.concatenate(([BOTTOM], profile.keys[part] - (start - 1)))[member]
    return KeyedProfile(
        keys, w1[member], w2[member], in1[member], in2[member], size - keys.size,
        background1, background2,
    )


def multi_type_trial_metrics(
    model: MultiTypeWorld,
    world: WorldInstance,
    sample: TrainingSample,
    g: FactoidDist,
    params: BoundParams,
) -> list[tuple[float, float, float, BoundEvaluation]]:
    """Per-type (monofact, hallucinated mass, miscalibration, evaluation).

    Type i's monofact estimate counts the draws whose atom lies in its
    range and occurs once, over all n draws. Its miscalibration and
    hallucination rate are measured on the induced local pair, whose
    empty fact carries all out-of-range mass; every type's pair is read
    off one keyed profile of (p, g). The verdict is cor1 with the
    union-bound inflation k = params.k_types.
    """
    profile = keyed_profile(world.p, g)
    out = []
    for i, component in enumerate(model.components):
        span = model.type_range(i)
        counts = sample.counts[_in_range(sample.atoms, span.start, span.stop)]
        mf_i = int(np.count_nonzero(counts == 1)) / sample.n
        local = _type_profile(profile, span.start, component.universe_size)
        mc_i, _, _ = profile_calibration(
            *sort_profile_by_g(*local.classes()), AdaptiveBinning(params.b)
        )
        g_h_i = _profile_hallucination_rate(local)
        out.append((mf_i, g_h_i, mc_i, evaluate_bound(g_h_i, cor1_rhs(mf_i, mc_i, params))))
    return out


def run_multi_type_experiment(cfg: ExperimentConfig) -> MultiTypeReport:
    """Per-type bound check with the union-bound inflated right-hand side."""
    model = cfg.world
    if not isinstance(model, MultiTypeWorld):
        raise ConfigError("multi-type experiment needs a MultiTypeWorld")
    k, params = model.k_types, cfg.params
    rows = []
    for rng in SeededRng(cfg.master_seed).children(range(cfg.trials)):
        world, sample = _draw_trial(model, cfg.n, rng)
        g = train(cfg.algorithm, sample, truth=world.p)
        rows.append(multi_type_trial_metrics(model, world, sample, g, params))
    types = tuple(
        _bound_frequency(f"type{i}", [row[i][3] for row in rows], params.delta) for i in range(k)
    )
    metrics = tuple(
        _summarize(f"type{i}.{name}", [row[i][j] for row in rows])
        for i in range(k)
        for j, name in enumerate(TYPE_METRIC_NAMES)
    )
    return MultiTypeReport(
        trials=cfg.trials, delta=params.delta, k_types=k, types=types, metrics=metrics
    )
