"""Closed-form bound right-hand sides and theorem verifiers.

The hallucination lower bounds all share one skeleton: the monofact
estimate, minus a miscalibration term, minus a sparsity/regularity
penalty scaled by 1/delta, minus a Good-Turing concentration width.
Variants differ in the penalty (regular worlds, regular facts only,
multiple fact types) and in which calibration metric is subtracted.

Two verifiers ground the analysis numerically instead of trusting the
algebra: a Monte Carlo check of the core expectation inequality over
the exact uniform-world posterior, and an exhaustive sweep (every
partition, every subset) of the coarsening-mass lemma on tiny universes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.stats import beta as _beta_dist

from .calibration import Partition
from .dist import BOTTOM, FactoidDist, FactoidUniverse
from .errors import DistributionError, InsufficientDataError
from .rng import SeededRng
from .worlds import ExplicitWorld, PermutedPowerLawWorld, posterior_support_uniform

__all__ = [
    "FLOAT_SLACK",
    "BoundParams",
    "BoundEvaluation",
    "evaluate_bound",
    "cor1_rhs",
    "cor_balfact_rhs",
    "cor_general_rhs",
    "cor_types_rhs",
    "cor_fixed_width_rhs",
    "clopper_pearson",
    "TheoremMainCheck",
    "verify_theorem_main_mc",
    "LemmaMeatViolation",
    "verify_lemma_meat_exhaustive",
    "MarkovStepReport",
    "verify_markov_step",
]

#: Absolute slack for float comparisons of analytically exact inequalities.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class BoundParams:
    """Shared parameters of the lower-bound right-hand sides."""

    delta: float
    b: int
    epsilon: float
    s: float
    r: float
    n: int
    k_types: int = 1

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise DistributionError(f"delta must be in (0,1], got {self.delta}")
        if self.b < 1:
            raise DistributionError(f"b must be >= 1, got {self.b}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise DistributionError(f"epsilon must be in [0,1], got {self.epsilon}")
        if self.r < 1.0:
            raise DistributionError(f"regularity r must be >= 1, got {self.r}")
        if self.n < 1:
            raise DistributionError(f"n must be >= 1, got {self.n}")
        if self.k_types < 1:
            raise DistributionError(f"k_types must be >= 1, got {self.k_types}")


@dataclass(frozen=True)
class BoundEvaluation:
    """One observed hallucination rate against one bound value.

    A vacuous bound (rhs <= 0) is always satisfied and is reported, not
    hidden: at small n or small sparsity the corollaries say nothing.
    """

    lhs: float
    rhs: float
    satisfied: bool
    vacuous: bool


def evaluate_bound(lhs: float, rhs: float) -> BoundEvaluation:
    return BoundEvaluation(
        lhs=lhs, rhs=rhs, satisfied=lhs >= rhs - FLOAT_SLACK, vacuous=rhs <= 0.0
    )


def _gt_term(delta: float, n: int) -> float:
    return math.sqrt(6.0 * math.log(6.0 / delta) / n)


def cor1_rhs(mf: float, mc: float, params: BoundParams) -> float:
    """Lower bound for regular worlds:
    mf - mc - 3 e^(-s)/delta - sqrt(6 ln(6/delta)/n)."""
    return mf - mc - 3.0 * math.exp(-params.s) / params.delta - _gt_term(params.delta, params.n)


def cor_balfact_rhs(mf: float, mc: float, params: BoundParams) -> float:
    """Regular facts only; the penalty picks up a factor r*n because the
    observed count is bounded by n rather than by the fact budget."""
    return (
        mf
        - mc
        - 3.0 * params.r * params.n * math.exp(-params.s) / params.delta
        - _gt_term(params.delta, params.n)
    )


def cor_general_rhs(mf: float, mc: float, params: BoundParams) -> float:
    """Regular facts and regular probabilities; penalty factor r."""
    return (
        mf
        - mc
        - 3.0 * params.r * math.exp(-params.s) / params.delta
        - _gt_term(params.delta, params.n)
    )


def cor_types_rhs(mf_i: float, mc_i: float, params: BoundParams) -> float:
    """Per-type bound with union-bound inflation: the failure budget
    delta is split across k types."""
    k = params.k_types
    return (
        mf_i
        - mc_i
        - 3.0 * k * math.exp(-params.s) / params.delta
        - math.sqrt(6.0 * math.log(6.0 * k / params.delta) / params.n)
    )


def cor_fixed_width_rhs(
    mf: float, calibration_term: float, params: BoundParams, variant: str
) -> float:
    """Fixed-width binning variants.

    variant "tv" subtracts the TV between g and the coarsening of p over
    the log-width bins of g; variant "mis" subtracts the binned mass gap
    and additionally epsilon (the price of the sandwich between the two
    calibration metrics).
    """
    base = (
        mf
        - calibration_term
        - 3.0 * math.exp(-params.s) / params.delta
        - _gt_term(params.delta, params.n)
    )
    if variant == "tv":
        return base
    if variant == "mis":
        return base - params.epsilon
    raise DistributionError(f"unknown fixed-width variant {variant!r}")


# ---------------------------------------------------------------------------
# Frequency intervals
# ---------------------------------------------------------------------------


def clopper_pearson(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval for an empirical frequency."""
    if trials < 1:
        raise InsufficientDataError("interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise DistributionError(f"successes {successes} outside [0, {trials}]")
    alpha = 1.0 - confidence
    low = 0.0 if successes == 0 else float(_beta_dist.ppf(alpha / 2.0, successes, trials - successes + 1))
    high = 1.0 if successes == trials else float(_beta_dist.ppf(1.0 - alpha / 2.0, successes + 1, trials - successes))
    return low, high


# ---------------------------------------------------------------------------
# Core expectation inequality, Monte Carlo over the exact posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremMainCheck:
    """Posterior Monte Carlo estimate of
    E[(missing mass - TV(coarsened p, g) - hallucination rate)_+]
    against its closed-form cap."""

    lhs_estimate: float
    lhs_stderr: float
    rhs_exact: float
    samples: int
    passed: bool
    marginals_ok: bool
    marginal_max_sigma: float


def verify_theorem_main_mc(
    universe: FactoidUniverse,
    fact_count: int,
    observed: Iterable[int],
    g: FactoidDist,
    partition: Partition,
    samples: int,
    rng: SeededRng,
    validate_marginals: bool = True,
) -> TheoremMainCheck:
    """Estimate the expectation over the exact uniform-world posterior and
    compare with the closed-form right-hand side.

    The right-hand side is max Pr[y in F] + |O| * max E[p(y)] over
    unobserved y; for the uniform completion posterior both maxima are
    hypergeometric and reduce to (N-m)/|U| and (N-m)/(N |U|). Before the
    cap is used, the marginal membership frequency of probe atoms is
    checked against the closed form within 3 binomial sigma.
    """
    if samples < 1:
        raise InsufficientDataError("need at least one posterior sample")
    model = PermutedPowerLawWorld(universe.size, fact_count, 0.0)
    obs = frozenset(observed) | {BOTTOM}
    m = len(obs) - 1
    size = universe.size
    u_count = size - len(obs)
    if m > fact_count:
        raise DistributionError("observed facts exceed the fact budget")
    if u_count > 0:
        rhs = (fact_count - m) / u_count + len(obs) * (fact_count - m) / (fact_count * u_count)
    else:
        rhs = 0.0

    g_arr = g.weights_at(np.arange(size))
    block_id = np.empty(size, dtype=np.intp)
    block_len = np.empty(len(partition.blocks), dtype=np.float64)
    for i, block in enumerate(partition.blocks):
        block_len[i] = len(block)
        for y in block:
            block_id[y] = i

    p_missing = (fact_count - m) / fact_count
    obs_fact_list = sorted(obs - {BOTTOM})
    unobserved_atoms = [y for y in range(size) if y not in obs]
    probe_atoms = unobserved_atoms[: min(5, len(unobserved_atoms))]
    probe_hits = np.zeros(len(probe_atoms), dtype=np.int64)

    share = 1.0 / fact_count
    values = np.zeros(samples)
    base_fact_mass = float(g_arr[BOTTOM]) + float(g_arr[obs_fact_list].sum())
    for t in range(samples):
        support = posterior_support_uniform(model, obs, rng.child(t))
        extra = support[m:]
        p_arr = np.zeros(size)
        p_arr[support] = share
        # coarsen p over the fixed partition, then TV against g
        block_mass = np.bincount(block_id, weights=p_arr, minlength=len(block_len))
        coarse = (block_mass / block_len)[block_id]
        tv = 0.5 * float(np.abs(coarse - g_arr).sum())
        g_h = max(0.0, 1.0 - (base_fact_mass + float(g_arr[extra].sum())))
        values[t] = max(0.0, p_missing - tv - g_h)
        if probe_atoms:
            extra_set = set(extra)
            for j, y in enumerate(probe_atoms):
                if y in extra_set:
                    probe_hits[j] += 1

    lhs = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0

    marginals_ok = True
    max_sigma = 0.0
    if validate_marginals and probe_atoms and u_count > 0:
        q = (fact_count - m) / u_count
        sigma = math.sqrt(max(q * (1.0 - q), 0.0) / samples)
        for hits in probe_hits.tolist():
            freq = hits / samples
            dev = abs(freq - q)
            devs = dev / sigma if sigma > 0 else (0.0 if dev == 0.0 else math.inf)
            max_sigma = max(max_sigma, devs)
            if dev > 3.0 * sigma + FLOAT_SLACK:
                marginals_ok = False

    passed = lhs <= rhs + 3.0 * stderr + FLOAT_SLACK
    return TheoremMainCheck(
        lhs_estimate=lhs,
        lhs_stderr=stderr,
        rhs_exact=rhs,
        samples=samples,
        passed=passed and marginals_ok,
        marginals_ok=marginals_ok,
        marginal_max_sigma=max_sigma,
    )


# ---------------------------------------------------------------------------
# Exhaustive lemma sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaMeatViolation:
    partition_blocks: tuple[tuple[int, ...], ...]
    subset: tuple[int, ...]
    lhs: float
    rhs: float


def verify_lemma_meat_exhaustive(
    nu: ExplicitWorld, tolerance: float = 1e-9, max_universe: int = 6
) -> list[LemmaMeatViolation]:
    """Check, for every partition and every non-empty subset S, that

        E[(p(S) - coarsened_p(S))_+] <= |Y \\ S| * max_{y in S} E[p(y)]

    over the explicit prior. Returns the violations found (empty on
    success). Enumeration is the oracle here, so the universe must stay
    tiny: Bell(6) partitions times 2^6 subsets.
    """
    from .calibration import iter_all_partitions

    size = nu.universe.size
    if size > max_universe:
        raise DistributionError(f"universe size {size} exceeds exhaustive limit {max_universe}")
    weights = np.array([w for w, _ in nu.instances])
    P = np.array([inst.p.weights_at(np.arange(size)) for _, inst in nu.instances])
    mean_p = weights @ P

    subsets = []
    for mask in range(1, 1 << size):
        subsets.append(tuple(y for y in range(size) if mask >> y & 1))

    violations: list[LemmaMeatViolation] = []
    for part in iter_all_partitions(nu.universe):
        Q = np.empty_like(P)
        for block in part.blocks:
            atoms = sorted(block)
            Q[:, atoms] = P[:, atoms].sum(axis=1, keepdims=True) / len(atoms)
        for atoms in subsets:
            sel = list(atoms)
            gap = P[:, sel].sum(axis=1) - Q[:, sel].sum(axis=1)
            lhs = float(weights @ np.clip(gap, 0.0, None))
            rhs = (size - len(sel)) * float(mean_p[sel].max())
            if lhs > rhs + tolerance:
                violations.append(
                    LemmaMeatViolation(
                        partition_blocks=tuple(tuple(sorted(b)) for b in part.blocks),
                        subset=atoms,
                        lhs=lhs,
                        rhs=rhs,
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# Markov-step frequency report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovStepReport:
    """Empirical frequencies of the two intermediate proof events.

    Event A: hallucination rate >= missing mass - adaptive miscalibration
    - 3 e^(-s)/delta (must hold with frequency >= 1 - 2 delta/3 for
    regular worlds). Event B: missing mass >= monofact estimate minus the
    one-sided Good-Turing width (frequency >= 1 - delta/3).
    """

    trials: int
    freq_markov: float
    ci_markov: tuple[float, float]
    freq_goodturing: float
    ci_goodturing: tuple[float, float]
    passed_markov: bool
    passed_goodturing: bool

    @property
    def passed(self) -> bool:
        return self.passed_markov and self.passed_goodturing


def verify_markov_step(records: Sequence, params: BoundParams) -> MarkovStepReport:
    """records need attributes mf, missing_mass, halluc_rate, mc_adaptive."""
    m = len(records)
    if m < 100:
        raise InsufficientDataError(f"need at least 100 trials, got {m}")
    delta = params.delta
    penalty = 3.0 * math.exp(-params.s) / delta
    width = _gt_term(delta, params.n)
    hits_a = sum(
        1
        for r in records
        if r.halluc_rate >= r.missing_mass - r.mc_adaptive - penalty - FLOAT_SLACK
    )
    hits_b = sum(1 for r in records if r.missing_mass >= r.mf - width - FLOAT_SLACK)
    freq_a = hits_a / m
    freq_b = hits_b / m
    return MarkovStepReport(
        trials=m,
        freq_markov=freq_a,
        ci_markov=clopper_pearson(hits_a, m),
        freq_goodturing=freq_b,
        ci_goodturing=clopper_pearson(hits_b, m),
        passed_markov=freq_a >= 1.0 - 2.0 * delta / 3.0,
        passed_goodturing=freq_b >= 1.0 - delta / 3.0,
    )
