"""Closed-form bound right-hand sides and theorem verifiers.

The hallucination lower bounds all share one skeleton of named terms
(BOUND_TERMS): mf, the monofact estimate, minus calibration, a
miscalibration metric, minus penalty, a sparsity/regularity penalty
scaled by 1/delta, minus gt_width, a Good-Turing concentration width,
minus epsilon. One table (BOUNDS) says which metric, which penalty
factors and whether epsilon each bound takes, and one evaluator names
the term that made a vacuous bound vacuous.

Two verifiers ground the analysis numerically instead of trusting the
algebra: the core expectation inequality over the exact uniform-world
posterior (computed exactly where every completion scores the same, and
refused otherwise), and an exhaustive sweep (every partition, every
subset) of the coarsening-mass lemma on tiny universes.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Optional, Sequence

import numpy as np

from .calibration import BIN_COUNT_LIMIT, Partition, _partition_label_rows
from .dist import BOTTOM, FactoidDist, FactoidUniverse, _dense_weights, _subset_table
from .errors import DistributionError, InsufficientDataError, UniverseMismatchError, check_count
from .rng import SeededRng
from .worlds import ExplicitWorld

__all__ = [
    "FLOAT_SLACK",
    "BoundParams",
    "BoundEvaluation",
    "BOUND_TERMS",
    "BOUNDS",
    "bound_terms",
    "evaluate_bound",
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
        if self.s == math.inf and self.r == math.inf:
            # the penalty r e^(-s) would be inf * 0 = NaN: no verdict
            raise DistributionError("s = inf and r = inf together leave the penalty undefined")
        check_count(self.n, "n", 1)
        check_count(self.k_types, "k_types", 1)


#: The terms of every right-hand side, in order: mf minus each later term.
BOUND_TERMS = ("mf", "calibration", "penalty", "gt_width", "epsilon")

#: Every lower bound, in report order: the TrialRecord metric it subtracts
#: as calibration, the BoundParams factors of its penalty, and whether it
#: also subtracts epsilon. cor_general adds regular probabilities (factor
#: r); cor_balfact bounds the observed count by n rather than by the fact
#: budget (factor r n); the fixed-width bounds take the fixed-width TV, or
#: the binned mass gap plus epsilon, the price of the sandwich between
#: the two calibration metrics. In a k-type world cor1 bounds each type.
BOUNDS = {
    "cor1": ("mc_adaptive", (), False),
    "cor_general": ("mc_adaptive", ("r",), False),
    "cor_balfact": ("mc_adaptive", ("r", "n"), False),
    "cor_fixed_tv": ("mc_fixed", (), False),
    "cor_fixed_mis": ("mis_eps", (), True),
}


def bound_terms(name: str, mf: float, calibration: float, params: BoundParams) -> tuple:
    """Bound `name`'s BOUND_TERMS: mf, calibration, the penalty 3 k
    (factors) e^(-s)/delta multiplied left to right, the one-sided
    Good-Turing width at failure budget delta/(3k), sqrt(6 ln(6k/delta)/n),
    and epsilon (0 where the bound does not subtract it). k =
    params.k_types is the union-bound inflation over fact types."""
    _, factors, subtracts_epsilon = BOUNDS[name]
    k, delta = params.k_types, params.delta
    penalty = math.prod((getattr(params, f) for f in factors), start=3.0 * k) * math.exp(-params.s)
    width = math.sqrt(6.0 * math.log(6.0 * k / delta) / params.n)
    return mf, calibration, penalty / delta, width, params.epsilon if subtracts_epsilon else 0.0


@dataclass(frozen=True)
class BoundEvaluation:
    """One observed hallucination rate against one bound value.

    A vacuous bound (rhs <= 0) is always satisfied and is reported, not
    hidden: at small n or small sparsity the corollaries say nothing. Its
    cause is the term after which the running value first fell to 0 or
    below; a bound that is not vacuous (a NaN rhs included) has none.
    """

    rhs: float
    satisfied: bool
    vacuous: bool
    cause: Optional[str]


def evaluate_bound(lhs: float, terms: Sequence[float]) -> BoundEvaluation:
    """lhs against the first term minus each later one, left to right,
    the terms named by BOUND_TERMS in order."""
    running = list(itertools.accumulate(terms, operator.sub))
    rhs = running[-1]
    vacuous = rhs <= 0.0
    cause = next(t for t, v in zip(BOUND_TERMS, running) if v <= 0.0) if vacuous else None
    return BoundEvaluation(rhs, lhs >= rhs - FLOAT_SLACK, vacuous, cause)


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
    #: how many vacuous trials each of BOUND_TERMS caused (None: not recorded)
    vacuous_by: Optional[dict[str, int]] = field(repr=False)

    @classmethod
    def from_counts(
        cls, name: str, satisfied: int, trials: int, vacuous: int, vacuous_by: Optional[dict], delta: float
    ) -> BoundFrequency:
        """The row of a bound satisfied in `satisfied` and vacuous in
        `vacuous` of `trials` trials, by cause `vacuous_by` (or None): its
        frequency, 95% Clopper-Pearson interval, vacuous fraction and 1 -
        delta verdict. Counts are checked (DistributionError names the row)."""
        satisfied = check_count(satisfied, f"row {name!r} satisfied", 0, trials)
        vacuous = check_count(vacuous, f"row {name!r} vacuous", 0, trials)
        counts = isinstance(vacuous_by, dict) and all(type(c) is int and c >= 0 for c in vacuous_by.values())
        if vacuous_by is not None and not (counts and sum(vacuous_by.values()) == vacuous):
            raise DistributionError(f"row {name!r} vacuous_by {vacuous_by!r} must count {vacuous} by term")
        low, high = clopper_pearson(satisfied, trials)
        freq = satisfied / trials
        passed = freq >= 1.0 - delta
        return cls(name, satisfied, trials, freq, low, high, vacuous, vacuous / trials, passed, vacuous_by)


def _bound_frequency(name: str, evals: Sequence[BoundEvaluation], delta: float) -> BoundFrequency:
    """The row of one bound over a run's evaluations."""
    m, causes = len(evals), Counter(e.cause for e in evals)
    by = {term: causes[term] for term in BOUND_TERMS}
    satisfied = sum(1 for e in evals if e.satisfied)
    return BoundFrequency.from_counts(name, satisfied, m, m - causes[None], by, delta)


# ---------------------------------------------------------------------------
# Core expectation inequality over the exact posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremMainCheck:
    """E[(missing mass - TV(coarsened p, g) - hallucination rate)_+] over
    the posterior against its closed-form cap. Both are exact: lhs is
    the expectation itself, not a Monte Carlo estimate, and rhs the cap."""

    lhs: float
    rhs: float
    passed: bool
    # perfbench's posterior_exhaustive still reads it (ROADMAP item 1)
    marginals_ok: ClassVar[bool] = True


def verify_theorem_main_mc(
    universe: FactoidUniverse,
    fact_count: int,
    observed: Iterable[int],
    g: FactoidDist,
    partition: Partition,
    samples: Optional[int] = None,  # unread; perfbench still passes it (ROADMAP item 1)
    rng: Optional[SeededRng] = None,  # unread; perfbench still passes it (ROADMAP item 1)
) -> TheoremMainCheck:
    """Compute the expectation over the exact uniform-world posterior
    where g and the partition make it a constant, refuse any other input,
    and compare it with the closed-form right-hand side.

    Every size-N support holding the observed facts is equally likely,
    so a posterior draw is N - m distinct unobserved atoms chosen
    uniformly. The right-hand side is max Pr[y in F] + |O| * max E[p(y)]
    over unobserved y; both maxima are hypergeometric and reduce to
    q = (N-m)/|U| and q/N.

    The inputs are checked first: g and the partition must be over
    `universe` (UniverseMismatchError), and the fact count must be an
    integer in [1, |Y| - 1] and every observed atom an integer in [0, |Y|)
    (DistributionError).

    Then the exactness rule decides. When the observed facts fill the
    budget (N = m), or g gives every unobserved atom the same weight and
    the partition puts all unobserved atoms in one block or each in a
    block of its own, every completion gives the same per-atom terms,
    only at other atoms, so the expectation is the value of any one
    completion. That value is scored once, on the first N - m unobserved
    atoms. Any other input raises DistributionError, naming the rule.
    """
    for name, other in (("g", g.universe), ("partition", partition.universe)):
        if other != universe:
            raise UniverseMismatchError(
                f"{name} universe size {other.size} != universe size {universe.size}"
            )
    size = universe.size
    check_count(fact_count, "fact count", 1, size - 1)
    try:
        obs = sorted(frozenset(map(operator.index, observed)) | {BOTTOM})
    except TypeError as exc:
        raise DistributionError(f"observed atoms must be integers: {exc}") from None
    low, high = obs[0], obs[-1]
    if low < 0 or high >= size:
        raise DistributionError(
            f"observed atoms must lie in [0, {size}), got {low if low < 0 else high}"
        )
    m = len(obs) - 1
    u_count = size - len(obs)
    if m > fact_count:
        raise DistributionError("observed facts exceed the fact budget")

    # the observed layout: the observed facts ascending (BOTTOM = 0 is the
    # least atom), the unobserved atoms ascending, and the first N - m of
    # them, which stand in for every completion
    obs_atoms = np.array(obs, dtype=np.intp)
    obs_facts = obs_atoms[1:]
    unobserved = np.ones(size, dtype=bool)
    unobserved[obs_atoms] = False
    u_atoms = np.flatnonzero(unobserved)
    extras = u_atoms[: fact_count - m]
    g_arr = _dense_weights(g)
    block_id = partition.labels
    block_len = np.bincount(block_id)
    u_labels = block_id[u_atoms]
    if not (
        fact_count == m
        or (
            (g_arr[u_atoms] == g_arr[u_atoms[0]]).all()
            and ((u_labels == u_labels[0]).all() or (block_len[u_labels] == 1).all())
        )
    ):
        raise DistributionError(
            "the core inequality is computed exactly only when the observed facts fill"
            " the fact budget, or g has one weight on the unobserved atoms and the"
            " partition puts them all in one block or each in a block of its own"
        )

    if u_count > 0:
        rhs = (fact_count - m) / u_count + len(obs) * (fact_count - m) / (fact_count * u_count)
    else:
        rhs = 0.0
    support = np.concatenate((obs_facts, extras))
    shares = np.full(support.size, 1.0 / fact_count)
    block_mass = np.bincount(block_id[support], weights=shares, minlength=len(block_len))
    tv = 0.5 * np.abs((block_mass / block_len)[block_id] - g_arr).sum()
    base_fact_mass = float(g_arr[BOTTOM]) + float(g_arr[obs_facts].sum())
    g_h = np.maximum(1.0 - (base_fact_mass + g_arr[extras].sum()), 0.0)
    lhs = float(np.maximum((fact_count - m) / fact_count - tv - g_h, 0.0))
    return TheoremMainCheck(lhs=lhs, rhs=rhs, passed=lhs <= rhs + FLOAT_SLACK)


# ---------------------------------------------------------------------------
# Exhaustive lemma sweep
# ---------------------------------------------------------------------------


#: Most subset-table float64 cells (512 KiB) one block of the lemma sweep
#: holds: (subset, partition, instance) cells, k 2^|Y| per partition.
_SWEEP_CELLS = 1 << 16


@dataclass(frozen=True)
class LemmaMeatViolation:
    partition_blocks: tuple[tuple[int, ...], ...]
    subset: tuple[int, ...]
    lhs: float
    rhs: float


def _label_blocks(labels: list[int]) -> tuple[tuple[int, ...], ...]:
    """The blocks of a partition's label row in label order, each block's
    atoms in increasing order."""
    blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for y, label in enumerate(labels):
        blocks[label].append(y)
    return tuple(map(tuple, blocks))


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
    (the order np.sum adds a row of fewer than 8 terms). A block's
    coarsened p is its row of p's table over its size, read by the
    block's bitmask. Before any partition, the trivial bound clears every
    subset whose E[p(S)] is within a proven rounding margin of its limit,
    or below: a gap max(p(S) - coarsened p(S), 0) is never above p(S), so
    no partition can flag it. The partitions are scored in blocks of
    label rows, as many as fit in _SWEEP_CELLS table cells (at least
    one): their coarsened tables go into one buffer reused block after
    block, the clipped gaps of the subsets left are taken from it, and
    one matrix-vector product per block screens every such (partition,
    subset) pair. Only a pair it puts within the same margin of its
    limit, or past it, is scored again, partition by partition, by its
    own dot product, which decides and is the lhs.
    """
    if math.isnan(tolerance) or tolerance == math.inf:
        raise DistributionError(f"tolerance must not be NaN or +inf, got {tolerance}")
    size = nu.universe.size
    limit = check_count(max_universe, "max_universe", 2)
    check_count(size, "universe size", 2, limit, "atoms to sweep exhaustively")
    weights = np.array([w for w, _ in nu.instances])
    P = np.array([_dense_weights(inst.p) for _, inst in nu.instances])
    mean_p = weights @ P

    # row 0, the empty subset, is never scored
    sizes = _subset_table(np.add, np.ones(size, dtype=np.intp), 0)
    rhs = (size - sizes) * _subset_table(np.maximum, mean_p, -math.inf)
    limits = rhs + tolerance
    p_of = _subset_table(np.add, P.T, 0.0)
    # the coarsened p at each atom of a block with this bitmask (row 0,
    # the empty subset, over 1 rather than 0)
    block_p = p_of / np.maximum(sizes, 1)[:, None]
    # The margin. With k instances every term w_i * gap_i is >= 0, so any
    # float evaluation of the k-term dot (any order, fused multiply-adds
    # or not) lies within gamma_k * S of the exact sum S, gamma_k =
    # k u / (1 - k u), u = eps / 2 (Higham, Accuracy and Stability of
    # Numerical Algorithms, 3.1 and 3.5). The screened value and the lone
    # dot of one (partition, subset) pair therefore differ by at most
    # 2 gamma_k S. A float gap max(p(S) - c(S), 0) with c(S) >= 0 is never
    # above p(S), so a lone dot exceeds the float E[p(S)] by at most
    # 2 gamma_k times the exact one. Both are at most B = sum(w) * max p(S)
    # over the instances, about 1 at most, as the weights sum to 1 and
    # p(S) is a mass. A lone dot above its limit t >= 0 puts t below (1 + gamma_k) B,
    # so rounding t - margin adds at most u (1 + gamma_k) B; a limit t < 0
    # needs no margin, as every dot is >= 0. A margin of
    # (2 gamma_k + u (1 + gamma_k)) B, about (k + 1/2) eps B, thus keeps
    # every subset the lone dot flags; 2 (k + 1) eps B, computed in floats,
    # covers it for any k < 2^40. A value is cleared only when it is <= its
    # cleared limit, so a NaN on either side is kept.
    rounding = 2.0 * (len(weights) + 1) * _EPS * float(weights.sum())
    cleared = limits - rounding * p_of.max(axis=1)
    live = np.flatnonzero(~(p_of[1:] @ weights <= cleared[1:])) + 1
    live_p, live_cleared = p_of[live, None], cleared[live]
    # atom y's bit, to name each atom's block by the bitmask of its atoms
    bits = 1 << np.arange(size)

    violations: list[LemmaMeatViolation] = []
    rows = max(1, _SWEEP_CELLS // (len(weights) << size))
    table = np.empty((1 << size, rows, len(weights)))
    for labels in _partition_label_rows(size, rows):
        # (b, blocks) of the partition named last: the pairs come partition
        # by partition, so each violating partition's blocks are read once
        named = None
        # Q[y, b]: partition b's coarsened p at atom y, per instance
        Q = block_p[((labels[:, :, None] == labels[:, None, :]) @ bits).T]
        coarse = _subset_table(np.add, Q, 0.0, out=table[:, : len(labels)])
        gaps = coarse[live]
        np.subtract(live_p, gaps, out=gaps)
        np.maximum(gaps, 0.0, out=gaps)
        screened = (gaps @ weights).T
        for b, s in np.argwhere(~(screened <= live_cleared)).tolist():
            mask = int(live[s])
            # each (subset, partition) row of gaps is contiguous, so this is a lone subset's dot
            lhs = float(weights @ gaps[s, b])
            if lhs > limits[mask]:
                if named is None or named[0] != b:
                    named = b, _label_blocks(labels[b].tolist())
                violations.append(
                    LemmaMeatViolation(
                        partition_blocks=named[1],
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
    1 - delta/3). These are the two halves of cor1's terms (A's "mf" is
    the missing mass; each half takes 0 for the terms it lacks); k =
    params.k_types is 1 for a regular world. records need attributes mf,
    missing_mass, halluc_rate, mc_adaptive.
    """
    check_count(len(records), "trials", 100, error=InsufficientDataError)
    _, _, penalty, width, _ = bound_terms("cor1", 0.0, 0.0, params)
    markov = [
        evaluate_bound(r.halluc_rate, (r.missing_mass, r.mc_adaptive, penalty)) for r in records
    ]
    goodturing = [evaluate_bound(r.missing_mass, (r.mf, 0.0, 0.0, width)) for r in records]
    return (
        _bound_frequency("markov", markov, 2.0 * params.delta / 3.0),
        _bound_frequency("goodturing", goodturing, params.delta / 3.0),
    )
