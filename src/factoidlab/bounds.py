"""Closed-form bound right-hand sides and theorem verifiers.

The hallucination lower bounds all share one skeleton: the monofact
estimate, minus a miscalibration term, minus a sparsity/regularity
penalty scaled by 1/delta, minus a Good-Turing concentration width.
Variants differ in the penalty (regular worlds, regular facts only,
multiple fact types) and in which calibration metric is subtracted.

Two verifiers ground the analysis numerically instead of trusting the
algebra: a check of the core expectation inequality over the exact
uniform-world posterior (exact where every completion scores the same,
Monte Carlo otherwise), and an exhaustive sweep (every partition, every
subset) of the coarsening-mass lemma on tiny universes.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .calibration import BIN_COUNT_LIMIT, Partition, _partition_label_rows
from .dist import BOTTOM, FactoidDist, FactoidUniverse, _subset_table
from .errors import DistributionError, InsufficientDataError, UniverseMismatchError, check_count
from .rng import SeededRng
from .worlds import ExplicitWorld, _distinct_rows

__all__ = [
    "FLOAT_SLACK",
    "BoundParams",
    "BoundEvaluation",
    "evaluate_bound",
    "cor1_rhs",
    "cor_balfact_rhs",
    "cor_general_rhs",
    "cor_fixed_mis_rhs",
    "clopper_pearson",
    "BoundFrequency",
    "TheoremMainCheck",
    "verify_theorem_main_mc",
    "LemmaMeatViolation",
    "verify_lemma_meat_exhaustive",
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
        check_count(self.b, "b", 1, BIN_COUNT_LIMIT, "bins")
        if not 0.0 <= self.epsilon <= 1.0:
            raise DistributionError(f"epsilon must be in [0,1], got {self.epsilon}")
        if self.epsilon > 0.0 and 1.0 - self.epsilon == 1.0:
            raise DistributionError(
                f"epsilon {self.epsilon} is too small: 1 - epsilon rounds to 1"
                " (0 means exact-value bins)"
            )
        try:
            # s = -inf (no hallucinations) gives e^(-s) = inf: vacuous bounds
            math.exp(-self.s)
        except OverflowError:
            raise DistributionError(f"s {self.s} is too negative: e^(-s) overflows") from None
        if math.isnan(self.s):
            raise DistributionError(f"s must not be NaN, got {self.s}")
        if not self.r >= 1.0:
            raise DistributionError(f"regularity r must be >= 1, got {self.r}")
        check_count(self.n, "n", 1)
        check_count(self.k_types, "k_types", 1)


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


def _sparsity_penalty(params: BoundParams, *factors: float) -> float:
    """3 k (factors) e^(-s)/delta, multiplied left to right."""
    return math.prod(factors, start=3.0 * params.k_types) * math.exp(-params.s) / params.delta


def _gt_term(params: BoundParams) -> float:
    """One-sided Good-Turing width at failure budget delta/(3k):
    sqrt(6 ln(6k/delta)/n)."""
    return math.sqrt(6.0 * math.log(6.0 * params.k_types / params.delta) / params.n)


def _rhs(mf: float, calibration: float, params: BoundParams, *penalty: float) -> float:
    """The shared skeleton: mf - calibration - 3 k (penalty) e^(-s)/delta
    - sqrt(6 ln(6k/delta)/n). k = params.k_types is the union-bound
    inflation over fact types; it is 1 for a single-type world."""
    return mf - calibration - _sparsity_penalty(params, *penalty) - _gt_term(params)


def cor1_rhs(mf: float, mc: float, params: BoundParams) -> float:
    """Lower bound for regular worlds; in a k-type world, the bound on
    each type's own monofact estimate and miscalibration."""
    return _rhs(mf, mc, params)


def cor_balfact_rhs(mf: float, mc: float, params: BoundParams) -> float:
    """Regular facts only; the penalty picks up a factor r*n because the
    observed count is bounded by n rather than by the fact budget."""
    return _rhs(mf, mc, params, params.r, params.n)


def cor_general_rhs(mf: float, mc: float, params: BoundParams) -> float:
    """Regular facts and regular probabilities; penalty factor r."""
    return _rhs(mf, mc, params, params.r)


def cor_fixed_mis_rhs(mf: float, mis_eps: float, params: BoundParams) -> float:
    """Fixed-width binning, subtracting the binned mass gap mis_eps and
    epsilon, the price of the sandwich between the two calibration
    metrics. (The TV variant is cor1_rhs on the fixed-width mc.)"""
    return _rhs(mf, mis_eps, params) - params.epsilon


# ---------------------------------------------------------------------------
# Frequency intervals
# ---------------------------------------------------------------------------


_EPS = sys.float_info.epsilon
_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method
    (Numerical Recipes 6.4); it converges fast for x < (a + 1)/(a + b + 2)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h, m = d, 0
    while True:
        m += 1
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h


def _beta_cdf_pdf(a: float, b: float, x: float) -> tuple[float, float]:
    """The regularized incomplete beta I_x(a, b) and the Beta(a, b)
    density at x in (0, 1); past the mean it uses I_x(a, b) = 1 - I_{1-x}(b, a)."""
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        cdf = front * _beta_cf(a, b, x) / a
    else:
        cdf = 1.0 - front * _beta_cf(b, a, 1.0 - x) / b
    return cdf, front / (x * (1.0 - x))


def _beta_ppf(q: float, a: float, b: float) -> float:
    """The x with I_x(a, b) = q: Newton steps from the mean inside a
    bracket [lo, hi] that shrinks every step, bisecting whenever a step
    leaves the bracket or the density underflows to 0."""
    lo, hi = 0.0, 1.0
    x = a / (a + b)
    while True:
        cdf, pdf = _beta_cdf_pdf(a, b, x)
        if cdf < q:
            lo = x
        else:
            hi = x
        step = (cdf - q) / pdf if pdf > 0.0 else math.inf
        if abs(step) <= 4.0 * _EPS * x:
            return x - step
        if hi - lo <= 4.0 * _EPS * hi:
            return x
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact 95% binomial confidence interval for an empirical frequency:
    the 2.5% quantile of Beta(s, n - s + 1) and the 97.5% quantile of
    Beta(s + 1, n - s), with exact ends 0 at s = 0 and 1 at s = n."""
    check_count(trials, "trials", 1, error=InsufficientDataError)
    check_count(successes, "successes", 0, trials)
    alpha = 0.05
    low = 0.0 if successes == 0 else _beta_ppf(alpha / 2.0, successes, trials - successes + 1)
    high = 1.0 if successes == trials else _beta_ppf(1.0 - alpha / 2.0, successes + 1, trials - successes)
    return low, high


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


def _bound_frequency(name: str, evals: Sequence[BoundEvaluation], delta: float) -> BoundFrequency:
    """Satisfaction count, its 95% Clopper-Pearson interval, vacuity and
    the 1 - delta pass verdict of one bound over a run's trials."""
    m = len(evals)
    satisfied = sum(1 for e in evals if e.satisfied)
    vacuous = sum(1 for e in evals if e.vacuous)
    low, high = clopper_pearson(satisfied, m)
    freq = satisfied / m
    return BoundFrequency(
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


# ---------------------------------------------------------------------------
# Core expectation inequality over the exact posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremMainCheck:
    """Estimate of E[(missing mass - TV(coarsened p, g) - hallucination
    rate)_+] over the posterior, against its closed-form cap. samples is
    0 when the expectation was computed exactly rather than sampled."""

    lhs_estimate: float
    lhs_stderr: float
    rhs_exact: float
    samples: int
    passed: bool
    marginals_ok: bool
    marginal_max_sigma: float


#: Most dense cells (rows x |Y|) one chunk of the posterior Monte Carlo
#: holds: 2^13 float64 cells is 64 KiB, so memory stays flat at any |Y|.
_CHUNK_CELLS = 1 << 13
#: Most subset-table float64 cells (512 KiB) one block of the lemma sweep
#: holds: (subset, partition, instance) cells, k 2^|Y| per partition.
_SWEEP_CELLS = 1 << 16
#: Level of the probe-atom marginal check, per call: the normal mass
#: beyond 3 sigma, split evenly over the probe atoms (Bonferroni).
_MARGINAL_LEVEL = math.erfc(3.0 / math.sqrt(2.0))


def _binomial_two_sided_p(k: int, n: int, q: float) -> float:
    """Exact two-sided p-value of k successes in n Binomial(n, q) trials:
    twice the smaller tail, at most 1, with P[X >= j] = I_q(j, n - j + 1)."""

    def upper(j: int, x: float) -> float:
        if j == 0 or x >= 1.0:
            return 1.0
        return 0.0 if x <= 0.0 else _beta_cdf_pdf(j, n - j + 1, x)[0]

    return min(1.0, 2.0 * min(upper(k, q), upper(n - k, 1.0 - q)))


def verify_theorem_main_mc(
    universe: FactoidUniverse,
    fact_count: int,
    observed: Iterable[int],
    g: FactoidDist,
    partition: Partition,
    samples: int,
    rng: SeededRng,
) -> TheoremMainCheck:
    """Compute the expectation over the exact uniform-world posterior,
    exactly where g and the partition make it a constant and by Monte
    Carlo otherwise, and compare with the closed-form right-hand side.

    Every size-N support holding the observed facts is equally likely,
    so a posterior sample is N - m distinct unobserved atoms drawn
    uniformly. The right-hand side is max Pr[y in F] + |O| * max E[p(y)]
    over unobserved y; both maxima are hypergeometric and reduce to
    q = (N-m)/|U| and q/N.

    The inputs are checked before anything else: samples must be an
    integer >= 1 (InsufficientDataError), g and the partition must be
    over `universe` (UniverseMismatchError), and the fact count must be
    an integer in [1, |Y| - 1] and every observed atom an integer in
    [0, |Y|) (DistributionError).

    Exact route, decided before any Monte Carlo set-up. When g gives every
    unobserved atom the same weight and the partition puts all unobserved
    atoms in one block or each in a block of its own (or N = m), every
    completion gives the same per-atom terms, only at other atoms, so
    every sample has the same value. That value, scored once on the first
    N - m unobserved atoms with the arithmetic below (a lone row of it),
    is returned with lhs_stderr 0, samples 0, marginals_ok True and
    marginal_max_sigma 0; no stream is derived and nothing is drawn. A
    per-sample value can differ from it only by the order in which equal
    terms are summed.

    Monte Carlo route, for any other input. Posterior sample t is one
    draw on rng.child(t). The samples are drawn and scored in chunks of
    at most _CHUNK_CELLS // |Y| rows, with each sample's arithmetic kept
    as for a lone sample: block masses are shares added one at a time
    (as np.bincount adds them), and each chunk's TV distances and
    g-masses are row sums of C-contiguous float64 arrays, taken in one
    call per chunk. numpy reduces the last axis of a C-contiguous array
    with the same pairwise sum it applies to a lone 1-D row, so each
    estimate is bit-identical to the per-sample loop; a strided
    (non-contiguous) row could be summed in another order. Before the
    cap is used, the hit count of each probe atom (the first five
    unobserved atoms, or all if fewer) must have an exact
    Binomial(samples, q) two-sided p-value of at least _MARGINAL_LEVEL
    divided by the number of probe atoms (Bonferroni), so a correct
    sampler fails a call with probability at most _MARGINAL_LEVEL =
    0.0027; marginal_max_sigma reports the largest deviation in normal
    sigmas.
    """
    check_count(samples, "posterior samples", 1, error=InsufficientDataError)
    for name, other in (("g", g.universe), ("partition", partition.universe)):
        if other != universe:
            raise UniverseMismatchError(
                f"{name} universe size {other.size} != universe size {universe.size}"
            )
    size = universe.size
    check_count(fact_count, "fact count", 1, size - 1)
    try:
        obs = frozenset(map(operator.index, observed)) | {BOTTOM}
    except TypeError as exc:
        raise DistributionError(f"observed atoms must be integers: {exc}") from None
    low, high = min(obs), max(obs)
    if low < 0 or high >= size:
        raise DistributionError(
            f"observed atoms must lie in [0, {size}), got {low if low < 0 else high}"
        )
    m = len(obs) - 1
    u_count = size - len(obs)
    if m > fact_count:
        raise DistributionError("observed facts exceed the fact budget")
    if u_count > 0:
        rhs = (fact_count - m) / u_count + len(obs) * (fact_count - m) / (fact_count * u_count)
    else:
        rhs = 0.0

    g_arr = g.weights_at(np.arange(size))
    block_id = partition.labels
    block_len = np.bincount(block_id)
    unobserved = np.ones(size, dtype=bool)
    unobserved[list(obs)] = False
    u_atoms = np.flatnonzero(unobserved)
    obs_facts = np.flatnonzero(~unobserved)[1:]  # ascending, without BOTTOM = 0
    u_labels = block_id[u_atoms]
    exact = fact_count == m or (
        (g_arr[u_atoms] == g_arr[u_atoms[0]]).all()
        and ((u_labels == u_labels[0]).all() or (block_len[u_labels] == 1).all())
    )

    p_missing = (fact_count - m) / fact_count
    # acc[k]: k shares added one at a time, from 0.0
    share = 1.0 / fact_count
    acc = np.concatenate(([0.0], np.cumsum(np.full(min(fact_count, int(block_len.max())), share))))
    base_fact_mass = float(g_arr[BOTTOM]) + float(g_arr[obs_facts].sum())

    def score(counts: np.ndarray, extras: np.ndarray) -> np.ndarray:
        """The clipped per-sample value of each completion (last axis of
        extras) from its per-block support counts (last axis of counts)."""
        # coarsened p, then |p - g|; a C-ordered row sums as a lone row would
        gaps = np.take(acc[counts] / block_len, block_id, axis=-1)
        np.abs(np.subtract(gaps, g_arr, out=gaps), out=gaps)
        tv = 0.5 * gaps.sum(axis=-1)
        g_h = np.maximum(1.0 - (base_fact_mass + g_arr[extras].sum(axis=-1)), 0.0)
        return np.maximum(p_missing - tv - g_h, 0.0)

    if exact:
        extras = u_atoms[: fact_count - m]
        support = np.concatenate((obs_facts, extras))
        counts = np.bincount(block_id[support], minlength=len(block_len))
        lhs = float(score(counts, extras))
        return TheoremMainCheck(
            lhs_estimate=lhs,
            lhs_stderr=0.0,
            rhs_exact=rhs,
            samples=0,
            passed=lhs <= rhs + FLOAT_SLACK,
            marginals_ok=True,
            marginal_max_sigma=0.0,
        )

    blocks = len(block_len)
    obs_counts = np.bincount(block_id[obs_facts], minlength=blocks)
    completions = _distinct_rows(rng.children(range(samples)), 1, size, fact_count - m, obs)
    probe_atoms = u_atoms[:5].tolist()
    probe_hits = np.zeros(len(probe_atoms), dtype=np.int64)
    values = np.zeros(samples)
    chunk = max(1, _CHUNK_CELLS // size)
    for start in range(0, samples, chunk):
        extras = np.stack(list(islice(completions, chunk)))
        rows = len(extras)
        # per-row support counts of each block
        cells = (block_id[extras] + blocks * np.arange(rows)[:, None]).ravel()
        counts = np.bincount(cells, minlength=rows * blocks).reshape(rows, blocks)
        counts += obs_counts
        values[start : start + rows] = score(counts, extras)
        for j, y in enumerate(probe_atoms):
            probe_hits[j] += np.count_nonzero(extras == y)

    lhs = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0

    # here N > m, so some atom is unobserved (u_count > 0)
    q = (fact_count - m) / u_count
    sigma = math.sqrt(q * (1.0 - q) / samples)
    hits = probe_hits.tolist()
    devs = [abs(h / samples - q) for h in hits]
    max_sigma = max(d / sigma if sigma > 0 else (0.0 if d == 0.0 else math.inf) for d in devs)
    level = _MARGINAL_LEVEL / len(hits)
    marginals_ok = all(_binomial_two_sided_p(h, samples, q) >= level for h in hits)

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
    success), partition by partition, subsets in bitmask order.
    Enumeration is the oracle here, so the universe must stay tiny: k
    instances cost Bell(|Y|) k 2^|Y| table cells. The tolerance may be
    -inf (every pair is a violation) but not NaN or +inf, which would
    pass every pair (DistributionError). Tolerance 0 flags S = Y (rhs 0)
    from rounding alone, its lhs the residue of p(Y) - coarsened p(Y), up
    to 1.1e-16: 5 of 15 partitions at |Y| = 4, 37 of 52 at 5 and 190 of
    203 at 6 on brute-force's seed-0 prior. That is no lemma failure.

    Every subset is indexed by its bitmask and every per-subset quantity
    is a subset table (_subset_table): its size, max E[p(y)], p(S) and,
    per partition, coarsened p(S), each sum added in atom order from 0.0
    (the order np.sum adds a row of fewer than 8 terms). The partitions
    are scored in blocks of label rows, as many as fit in _SWEEP_CELLS
    table cells (at least one), in one buffer reused block after block:
    the coarsened tables, then in place the clipped gaps, and one
    matrix-vector product per block screens every (partition, subset)
    pair. Only a pair it puts within a proven rounding margin of its
    limit, or past it, is scored again, partition by partition, by its
    own dot product, which decides and is the lhs.
    """
    if math.isnan(tolerance) or tolerance == math.inf:
        raise DistributionError(f"tolerance must not be NaN or +inf, got {tolerance}")
    size = nu.universe.size
    limit = check_count(max_universe, "max_universe", 2)
    check_count(size, "universe size", 2, limit, "atoms to sweep exhaustively")
    weights = np.array([w for w, _ in nu.instances])
    P = np.array([inst.p.weights_at(np.arange(size)) for _, inst in nu.instances])
    mean_p = weights @ P

    # row 0, the empty subset, is never scored
    outside = size - _subset_table(np.add, np.ones(size, dtype=np.intp), 0)
    rhs = outside * _subset_table(np.maximum, mean_p, -math.inf)
    limits = rhs + tolerance
    p_of = _subset_table(np.add, P.T, 0.0)
    # The screen's margin. With k instances every term w_i * gap_i is >= 0,
    # so any float evaluation of the k-term dot (any order, fused
    # multiply-adds or not) lies within gamma_k * S of the exact sum S,
    # gamma_k = k u / (1 - k u), u = eps / 2 (Higham, Accuracy and
    # Stability of Numerical Algorithms, 3.1 and 3.5). The screened value
    # and the lone dot therefore differ by at most 2 gamma_k S, with
    # S <= B = sum(w) * max(gap); B is about 1, as the weights sum to 1
    # and a gap is a difference of masses in [0, 1]. A lone dot above its
    # limit t >= 0 puts t below (1 + gamma_k) B, so rounding t - margin
    # adds at most u (1 + gamma_k) B; a limit t < 0 needs no margin, as
    # both dots are >= 0. A margin of (2 gamma_k + u (1 + gamma_k)) B,
    # about (k + 1/2) eps B, thus keeps every subset the lone dot flags;
    # 2 (k + 1) eps B, computed in floats, covers it for any k < 2^40.
    # B is taken per partition. A subset is dropped only when its value is
    # <= the screened limit, so a NaN on either side is scored again.
    rounding = 2.0 * (len(weights) + 1) * _EPS * float(weights.sum())

    violations: list[LemmaMeatViolation] = []
    rows = max(1, _SWEEP_CELLS // (len(weights) << size))
    table = np.empty((1 << size, rows, len(weights)))
    for labels in _partition_label_rows(size, rows):
        n = np.arange(len(labels))
        # P's columns added into block sums in atom order from 0.0, as P[:, block].sum(axis=1)
        # adds them for under 8 atoms; a row has one label per atom, so no target repeats
        sums = np.zeros((len(labels), len(weights), size))
        for y in range(size):
            sums[n, :, labels[:, y]] += P[:, y]
        counts = (labels[:, :, None] == labels[:, None, :]).sum(axis=2)
        # Q[y, b]: partition b's coarsened p at atom y, per instance
        Q = sums[n, :, labels.T] / counts.T[..., None]
        gaps = _subset_table(np.add, Q, 0.0, out=table[:, : len(labels)])
        np.subtract(p_of[:, None], gaps, out=gaps)
        np.maximum(gaps, 0.0, out=gaps)
        # per partition; over the subset axis first, as numpy is slow to reduce a middle axis
        margin = rounding * gaps.max(axis=0).max(axis=1)
        screened = (gaps[1:] @ weights).T
        for b, s in np.argwhere(~(screened <= limits[1:] - margin[:, None])).tolist():
            mask = s + 1
            # each (subset, partition) row of gaps is contiguous, so this is a lone subset's dot
            lhs = float(weights @ gaps[mask, b])
            if lhs > limits[mask]:
                blocks = Partition(nu.universe, labels[b]).blocks
                violations.append(
                    LemmaMeatViolation(
                        partition_blocks=tuple(tuple(sorted(block)) for block in blocks),
                        subset=tuple(y for y in range(size) if mask >> y & 1),
                        lhs=lhs,
                        rhs=float(rhs[mask]),
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# Markov-step frequency report
# ---------------------------------------------------------------------------


def verify_markov_step(
    records: Sequence, params: BoundParams
) -> tuple[BoundFrequency, BoundFrequency]:
    """Frequencies of the two intermediate proof events, as the rows
    "markov" and "goodturing".

    Event A: hallucination rate >= missing mass - adaptive miscalibration
    - 3 k e^(-s)/delta (must hold with frequency >= 1 - 2 delta/3 for
    regular worlds). Event B: missing mass >= monofact estimate minus the
    one-sided Good-Turing width sqrt(6 ln(6k/delta)/n) (frequency >=
    1 - delta/3). These are the two halves of the cor1 right-hand side;
    k = params.k_types is 1 for a regular world. records need attributes
    mf, missing_mass, halluc_rate, mc_adaptive.
    """
    check_count(len(records), "trials", 100, error=InsufficientDataError)
    penalty = _sparsity_penalty(params)
    width = _gt_term(params)
    markov = [
        evaluate_bound(r.halluc_rate, r.missing_mass - r.mc_adaptive - penalty) for r in records
    ]
    goodturing = [evaluate_bound(r.missing_mass, r.mf - width) for r in records]
    return (
        _bound_frequency("markov", markov, 2.0 * params.delta / 3.0),
        _bound_frequency("goodturing", goodturing, params.delta / 3.0),
    )
