"""Bound right-hand sides, the posterior Monte Carlo verifier, the
exhaustive coarsening-lemma sweep, and the proof-step frequency report."""

import math
from decimal import Decimal, getcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factoidlab import bounds as bounds_module
from factoidlab.bounds import (
    BoundParams,
    clopper_pearson,
    cor1_rhs,
    cor_balfact_rhs,
    cor_fixed_mis_rhs,
    cor_general_rhs,
    evaluate_bound,
    verify_lemma_meat_exhaustive,
    verify_markov_step,
    verify_theorem_main_mc,
)
from factoidlab.calibration import BIN_COUNT_LIMIT, AdaptiveBinning, Partition, partition_for_spec
from factoidlab.dist import FactoidUniverse, dist_from_weights, random_dist
from factoidlab.errors import DistributionError, InsufficientDataError, UniverseMismatchError
from factoidlab.estimators import TrainingSample
from factoidlab.harness import BoundSettings, ExperimentConfig, run_experiment
from factoidlab.lms import MonofactMemorizer, train
from factoidlab.rng import SeededRng
from factoidlab.worlds import ExplicitWorld, PermutedPowerLawWorld, WorldInstance, sample_world
from literal import background_dist

getcontext().prec = 50


def params(delta=0.1, b=10, epsilon=0.1, s=20.0, r=1.0, n=10**4, k_types=1):
    return BoundParams(delta=delta, b=b, epsilon=epsilon, s=s, r=r, n=n, k_types=k_types)


def dec_rhs(mf, mc, delta, s, n, penalty_factor=1):
    """50-digit recomputation of the shared bound skeleton."""
    d_delta, d_s = Decimal(repr(delta)), Decimal(repr(s))
    term3 = 3 * Decimal(penalty_factor) * (-d_s).exp() / d_delta
    term4 = (6 * (6 / d_delta).ln() / n).sqrt()
    return Decimal(repr(mf)) - Decimal(repr(mc)) - term3 - term4


class TestRightHandSides:
    def test_cor1_against_high_precision(self):
        got = cor1_rhs(0.5, 0.05, params())
        assert got == pytest.approx(float(dec_rhs(0.5, 0.05, 0.1, 20.0, 10**4)), abs=1e-14)

    def test_cor1_limits(self):
        # huge sparsity and sample size leave just the monofact estimate
        p = params(s=500.0, n=10**12)
        assert cor1_rhs(0.7, 0.0, p) == pytest.approx(0.7, abs=1e-5)
        # a zero estimate makes the bound vacuous
        assert cor1_rhs(0.0, 0.0, params()) < 0.0

    def test_balfact_against_high_precision(self):
        got = cor_balfact_rhs(0.5, 0.05, params(r=4.0))
        expected = dec_rhs(0.5, 0.05, 0.1, 20.0, 10**4, penalty_factor=4 * 10**4)
        assert got == pytest.approx(float(expected), abs=1e-14)

    def test_general_reduces_to_cor1_at_r_one(self):
        rng = SeededRng(1).generator
        for _ in range(50):
            p = params(
                delta=float(rng.uniform(0.01, 1.0)),
                s=float(rng.uniform(0.0, 30.0)),
                n=int(rng.integers(10, 10**6)),
            )
            mf, mc = float(rng.random()), float(rng.random())
            assert cor_general_rhs(mf, mc, p) == cor1_rhs(mf, mc, p)

    def test_general_third_term_scale(self):
        # r=10, s=9.2, delta=0.1: penalty 300 * e^(-9.2)
        p = params(s=9.2, r=10.0)
        gap = cor1_rhs(0.5, 0.0, p) - cor_general_rhs(0.5, 0.0, p)
        expected = float(27 * (-Decimal("9.2")).exp() / Decimal("0.1"))
        assert gap == pytest.approx(expected, abs=1e-14)

    def test_types_reduces_to_cor1_at_k_one(self):
        # at k=1 the k-inflated skeleton is the single-type formula, bit
        # for bit, in its own multiplication order
        rng = SeededRng(3).generator
        for _ in range(50):
            delta, s = float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.0, 30.0))
            r, n = float(rng.uniform(1.0, 10.0)), int(rng.integers(10, 10**6))
            p = params(delta=delta, s=s, r=r, n=n)
            mf, mc = float(rng.random()), float(rng.random())
            width = math.sqrt(6.0 * math.log(6.0 / delta) / n)
            assert cor1_rhs(mf, mc, p) == mf - mc - 3.0 * math.exp(-s) / delta - width
            assert cor_general_rhs(mf, mc, p) == mf - mc - 3.0 * r * math.exp(-s) / delta - width
            assert cor_balfact_rhs(mf, mc, p) == (
                mf - mc - 3.0 * r * n * math.exp(-s) / delta - width
            )

    def test_types_width_against_high_precision(self):
        # at k=2 the concentration width becomes sqrt(6 ln(120)/n)
        p2 = params(k_types=2)
        base = cor1_rhs(0.5, 0.05, p2)
        width = float((6 * Decimal(120).ln() / Decimal(10**4)).sqrt())
        penalty = float(6 * (-Decimal(20)).exp() / Decimal("0.1"))
        assert base == pytest.approx(0.45 - penalty - width, abs=1e-14)

    def test_types_penalty_linear_in_k(self):
        p2, p4 = params(s=5.0, k_types=2), params(s=5.0, k_types=4)
        gap2 = 0.5 - cor1_rhs(0.5, 0.0, p2) - math.sqrt(6 * math.log(120) / 10**4)
        gap4 = 0.5 - cor1_rhs(0.5, 0.0, p4) - math.sqrt(6 * math.log(240) / 10**4)
        assert gap4 == pytest.approx(2 * gap2, rel=1e-12)

    def test_fixed_width_variants(self):
        p = params(epsilon=0.05)
        mis_variant = cor_fixed_mis_rhs(0.5, 0.08, p)
        assert mis_variant == pytest.approx(cor1_rhs(0.5, 0.08, p) - 0.05, abs=1e-15)
        p0 = params(epsilon=0.0)
        assert cor_fixed_mis_rhs(0.5, 0.08, p0) == cor1_rhs(0.5, 0.08, p0)

    def test_param_validation(self):
        with pytest.raises(DistributionError):
            params(delta=0.0)
        with pytest.raises(DistributionError):
            params(r=0.5)
        with pytest.raises(DistributionError):
            params(b=0)
        with pytest.raises(DistributionError, match="exceeds the limit"):
            params(b=BIN_COUNT_LIMIT + 1)
        assert params(b=BIN_COUNT_LIMIT).b == BIN_COUNT_LIMIT
        with pytest.raises(DistributionError, match="too small"):
            params(epsilon=1e-17)
        for eps in (1e-16, 2**-53):
            assert params(epsilon=eps).epsilon == eps
        # e^(-s) overflows below s = -ln(max float) = -709.78...
        for s in (-709.8, -1000.0):
            with pytest.raises(DistributionError, match="overflows"):
                params(s=s)
        assert cor1_rhs(0.5, 0.0, params(s=-709.0)) < 0.0
        # a world with no hallucinations has s = -inf: every bound vacuous
        assert cor1_rhs(0.5, 0.0, params(s=-math.inf)) == -math.inf

    def test_nan_s_or_r_refused(self):
        # a NaN s would make every rhs NaN, and a NaN r would fail
        # cor_general and cor_balfact: a bad input read as a violated bound
        with pytest.raises(DistributionError, match="s must not be NaN"):
            params(s=math.nan)
        with pytest.raises(DistributionError, match="regularity r must be >= 1"):
            params(r=math.nan)
        world = PermutedPowerLawWorld(10**5, 100)
        for bound in (BoundSettings(s=math.nan), BoundSettings(r=math.nan)):
            with pytest.raises(DistributionError):
                ExperimentConfig(world, 200, MonofactMemorizer(), bound, 5, 0)
        # +inf stays: s = inf drops the regularity penalty, r = inf makes it
        # infinite and the bounds vacuous
        assert cor1_rhs(0.5, 0.0, params(s=math.inf)) < 0.5
        assert cor_general_rhs(0.5, 0.0, params(r=math.inf)) == -math.inf


class TestBoundEvaluation:
    def test_vacuous_implies_satisfied(self):
        rng = SeededRng(2).generator
        for _ in range(200):
            lhs = float(rng.random())
            rhs = float(rng.uniform(-2.0, 1.0))
            ev = evaluate_bound(lhs, rhs)
            if ev.vacuous:
                assert ev.satisfied
            assert ev.satisfied == (lhs >= rhs - 1e-12)

    def test_float_slack(self):
        assert evaluate_bound(0.5, 0.5 + 1e-13).satisfied


class TestClopperPearson:
    def test_degenerate_ends(self):
        low0, _ = clopper_pearson(0, 50)
        _, high_n = clopper_pearson(50, 50)
        assert low0 == 0.0
        assert high_n == 1.0

    def test_interval_contains_point(self):
        for k, n in [(1, 10), (25, 50), (499, 500)]:
            low, high = clopper_pearson(k, n)
            assert low <= k / n <= high

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_scipy_beta_quantiles(self, data):
        # the literal route: Beta quantiles from scipy, a test-only dependency
        beta = pytest.importorskip("scipy.stats").beta
        n = data.draw(st.integers(1, 10**5), label="n")
        drawn = data.draw(st.integers(0, n), label="s")
        for s in sorted({0, 1, n - 1, n, drawn}):
            low, high = clopper_pearson(s, n)
            ref_low = 0.0 if s == 0 else float(beta.ppf(0.025, s, n - s + 1))
            ref_high = 1.0 if s == n else float(beta.ppf(0.975, s + 1, n - s))
            assert low == pytest.approx(ref_low, rel=0, abs=1e-12), (s, n)
            assert high == pytest.approx(ref_high, rel=0, abs=1e-12), (s, n)


class TestTheoremMainMc:
    def test_closed_form_rhs_example(self):
        # 51 atoms, budget 20, 10 observed facts: (N-m)/|U| + |O|(N-m)/(N|U|)
        u = FactoidUniverse(51)
        observed = set(range(1, 11)) | {0}
        g = random_dist(u, SeededRng(3))
        check = verify_theorem_main_mc(
            u, 20, observed, g, Partition.singletons(u), 500, SeededRng(4)
        )
        assert check.rhs_exact == pytest.approx(0.3875, abs=1e-12)
        assert check.passed and check.marginals_ok

    def test_exhausted_budget_degenerates(self):
        u = FactoidUniverse(12)
        observed = set(range(1, 6)) | {0}
        g = random_dist(u, SeededRng(5))
        check = verify_theorem_main_mc(
            u, 5, observed, g, Partition.singletons(u), 200, SeededRng(6)
        )
        assert check.rhs_exact == 0.0
        assert check.lhs_estimate == 0.0
        assert check.passed

    def test_memorizer_probe_nontrivial_and_passing(self):
        u = FactoidUniverse(41)
        model = PermutedPowerLawWorld(41, 15, 0.0)
        rng = SeededRng(7)
        world = sample_world(model, rng)
        from factoidlab.dist import sample_iid

        draws = sample_iid(world.p, 20, rng)
        sample = TrainingSample(u, tuple(int(y) for y in draws))
        g = train(MonofactMemorizer(), sample)
        partition = partition_for_spec(g, AdaptiveBinning(5))
        check = verify_theorem_main_mc(
            u, 15, sample.observed, g, partition, 800, SeededRng(8)
        )
        assert check.passed and check.marginals_ok

    def test_memory_stays_chunked_on_a_large_universe(self):
        # thm-main runs this at |Y| up to 10^6 with `trials` samples; one
        # samples x |Y| float64 matrix here would be 480 MB, while the
        # chunked check (one row per chunk at this |Y|) holds under six
        # |Y|-long float64 arrays at a time
        import tracemalloc

        size, samples = 200_000, 300
        u = FactoidUniverse(size)
        g = dist_from_weights(u, {y: 1.0 for y in range(0, size, 7)})
        partition = Partition(u, np.arange(size) % 10)
        tracemalloc.start()
        try:
            check = verify_theorem_main_mc(
                u, 100, set(range(1, 51)), g, partition, samples, SeededRng(12)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.samples == samples
        assert peak < 6 * size * 8, f"peak {peak / 2**20:.1f} MiB"


class TestTheoremMainExactRoute:
    """A g with one weight on the unobserved atoms, blocked together or
    apart, is scored once; any other g is sampled."""

    def _run(self, g, partition):
        u = g.universe
        with mock.patch(
            "factoidlab.bounds._distinct_rows", wraps=bounds_module._distinct_rows
        ) as rows, mock.patch.object(
            SeededRng, "children", autospec=True, side_effect=SeededRng.children
        ) as children:
            check = verify_theorem_main_mc(
                u, 20, set(range(30, 47)), g, partition, 100, SeededRng(2)
            )
        return check, rows.call_count, children.call_count

    @pytest.mark.parametrize("blocks", ["singletons", "single_block"])
    def test_exchangeable_g_draws_nothing(self, blocks):
        u = FactoidUniverse(51)
        g = background_dist(u, {y: 2.0 for y in range(30, 47)}, 0.5)
        labels = np.arange(u.size) if blocks == "singletons" else np.zeros(u.size, dtype=np.intp)
        check, rows, children = self._run(g, Partition(u, labels))
        assert (rows, children) == (0, 0)
        assert (check.samples, check.lhs_stderr, check.marginal_max_sigma) == (0, 0.0, 0.0)
        assert check.marginals_ok and check.passed

    def test_random_g_is_sampled(self):
        u = FactoidUniverse(51)
        check, rows, children = self._run(random_dist(u, SeededRng(1)), Partition.singletons(u))
        assert (rows, children) == (1, 1)
        assert check.samples == 100

    def test_unobserved_atoms_split_over_shared_blocks_are_sampled(self):
        # one g value on the unobserved atoms, but two blocks of them
        u = FactoidUniverse(51)
        g = background_dist(u, {y: 2.0 for y in range(30, 47)}, 0.5)
        check, rows, _ = self._run(g, Partition(u, np.arange(51) % 2))
        assert rows == 1 and check.samples == 100


class TestTheoremMainFailsClosed:
    """Inputs that do not match the universe are refused before any
    posterior sample is drawn."""

    SIZE = 11

    def _check(self, g=None, partition=None, observed=frozenset({1, 2}), fact_count=5):
        u = FactoidUniverse(self.SIZE)
        g = random_dist(u, SeededRng(3)) if g is None else g
        partition = Partition.singletons(u) if partition is None else partition
        return verify_theorem_main_mc(u, fact_count, observed, g, partition, 50, SeededRng(4))

    def _refused(self, error, **inputs):
        with mock.patch(
            "factoidlab.bounds._distinct_rows", side_effect=AssertionError("sampled")
        ), pytest.raises(error):
            self._check(**inputs)

    def test_g_over_another_universe(self):
        other = FactoidUniverse(self.SIZE - 1)
        self._refused(UniverseMismatchError, g=random_dist(other, SeededRng(3)))

    def test_partition_over_another_universe(self):
        other = FactoidUniverse(self.SIZE - 1)
        self._refused(UniverseMismatchError, partition=Partition.singletons(other))

    @pytest.mark.parametrize("atom", [-1, SIZE, 2.5, "3"])
    def test_observed_atom_out_of_range_or_not_an_integer(self, atom):
        self._refused(DistributionError, observed={1, atom})

    def test_numpy_integer_atoms_are_accepted(self):
        assert self._check(observed=set(np.array([1, 2]))) == self._check()

    @pytest.mark.parametrize("fact_count", [0, SIZE, SIZE + 1])
    def test_fact_count_outside_the_universe(self, fact_count):
        self._refused(DistributionError, fact_count=fact_count)

    def test_observed_facts_beyond_the_budget(self):
        self._refused(DistributionError, observed=set(range(1, 7)))


class TestTheoremMainMarginals:
    """The probe atoms' hit counts are judged by their exact binomial
    tails, at the level of a 3-sigma normal rule split over the probe
    atoms."""

    def test_one_extra_hit_at_small_q_passes(self):
        # q = 2/2000 over 100 samples: 0.1 expected hits, and this stream
        # gives one probe atom 2 hits, 6 normal sigmas out but with an
        # exact two-sided p-value of 0.0093, above 0.0027 / 5. The draws
        # depend only on the stream and the exclusions; a g that is not
        # the same on every unobserved atom keeps the check on the sampler
        u = FactoidUniverse(2001)
        partition = Partition.singletons(u)
        check = verify_theorem_main_mc(
            u, 2, set(), random_dist(u, SeededRng(3)), partition, 100, SeededRng(11)
        )
        assert check.samples == 100
        assert check.marginal_max_sigma > 6.0
        assert check.marginals_ok and check.passed
        # the partition was read as labels; no block sets were built
        assert "blocks" not in partition.__dict__

    def test_probe_atoms_never_drawn_fail(self):
        # the posterior_exhaustive scale: |Y| = 51, N = 20, 17 observed
        # facts, so q = 3/33 and 1000 samples expect 91 hits per probe atom
        u = FactoidUniverse(51)
        observed = set(range(30, 47))
        g = random_dist(u, SeededRng(1))
        args = (u, 20, observed, g, Partition.singletons(u), 1000)
        assert verify_theorem_main_mc(*args, SeededRng(2)).marginals_ok
        probes = frozenset(range(1, 6))  # the first five unobserved atoms
        draw = bounds_module._distinct_rows

        def avoid_probes(rngs, low, high, count, exclude):
            return draw(rngs, low, high, count, exclude | probes)

        with mock.patch("factoidlab.bounds._distinct_rows", avoid_probes):
            check = verify_theorem_main_mc(*args, SeededRng(2))
        assert not check.marginals_ok and not check.passed


class TestLemmaMeatSweep:
    def test_zero_violations_on_random_priors(self):
        u = FactoidUniverse(4)
        rng = SeededRng(9)
        instances = tuple(
            (0.2, WorldInstance(random_dist(u, rng.child(i)))) for i in range(5)
        )
        assert verify_lemma_meat_exhaustive(ExplicitWorld(instances)) == []

    def test_universe_size_guard(self):
        u = FactoidUniverse(7)
        inst = WorldInstance(dist_from_weights(u, {1: 1}))
        with pytest.raises(DistributionError):
            verify_lemma_meat_exhaustive(ExplicitWorld(((1.0, inst),)))

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_tolerance_that_passes_every_pair_is_refused(self, tolerance):
        # NaN or +inf would make every limit NaN or +inf, so no pair could
        # be a violation and the empty list would read as a pass
        u = FactoidUniverse(4)
        nu = ExplicitWorld(((1.0, WorldInstance(dist_from_weights(u, {1: 1, 2: 3}))),))
        with pytest.raises(DistributionError, match="tolerance"):
            verify_lemma_meat_exhaustive(nu, tolerance=tolerance)

    def test_minus_infinity_tolerance_flags_every_pair(self):
        u = FactoidUniverse(4)
        nu = ExplicitWorld(((1.0, WorldInstance(dist_from_weights(u, {1: 1, 2: 3}))),))
        # Bell(4) = 15 partitions x 15 non-empty subsets
        assert len(verify_lemma_meat_exhaustive(nu, tolerance=-math.inf)) == 15 * 15


class TestMarkovStep:
    @staticmethod
    def _records(trials=150, seed=10):
        cfg = ExperimentConfig(
            world=PermutedPowerLawWorld(20_000, 300, 0.0),
            n=500,
            algorithm=MonofactMemorizer(),
            bound=BoundSettings(delta=0.1, b=10, epsilon=0.1),
            trials=trials,
            master_seed=seed,
        )
        _, records = run_experiment(cfg)
        return cfg, records

    def test_event_frequencies_meet_thresholds(self):
        cfg, records = self._records()
        markov, goodturing = verify_markov_step(records, cfg.params)
        assert (markov.name, goodturing.name) == ("markov", "goodturing")
        assert markov.frequency >= 1.0 - 2 * 0.1 / 3.0
        assert goodturing.frequency >= 1.0 - 0.1 / 3.0
        assert markov.passed and goodturing.passed

    def test_full_confidence_is_trivially_met(self):
        cfg, records = self._records()
        p = cfg.params
        loose = BoundParams(
            delta=1.0, b=p.b, epsilon=p.epsilon, s=p.s, r=p.r, n=p.n, k_types=p.k_types
        )
        assert all(row.passed for row in verify_markov_step(records, loose))

    def test_needs_hundred_trials(self):
        cfg, records = self._records(trials=120)
        with pytest.raises(InsufficientDataError):
            verify_markov_step(records[:50], cfg.params)


    def test_oracle_trials_markov_event_near_certain(self):
        # a perfectly calibrated zero-hallucination model satisfies the
        # expectation event whenever the sparsity penalty covers the
        # missing mass, which it does at this configuration
        cfg = ExperimentConfig(
            world=PermutedPowerLawWorld(20_000, 300, 0.0),
            n=500,
            algorithm=__import__("factoidlab.lms", fromlist=["Oracle"]).Oracle(),
            bound=BoundSettings(delta=0.1, b=10, epsilon=0.1),
            trials=150,
            master_seed=11,
        )
        _, records = run_experiment(cfg)
        markov, _ = verify_markov_step(records, cfg.params)
        assert markov.frequency == 1.0


class TestTheoremMainInternalsAgainstPublicRoute:
    def test_single_draw_matches_coarsen_tv_route(self):
        # with one posterior sample the estimate is a single clamped term;
        # rebuild that term from public operations and the same stream
        from factoidlab.dist import dist_from_weights
        from factoidlab.worlds import WorldInstance
        from literal import coarsen, hallucination_rate, posterior_support_uniform, tv_distance

        u = FactoidUniverse(31)
        fact_count = 12
        observed = {0, 2, 3, 5, 8, 13}
        g = random_dist(u, SeededRng(55))
        partition = partition_for_spec(g, AdaptiveBinning(4))
        seed = SeededRng(56)
        check = verify_theorem_main_mc(
            u, fact_count, observed, g, partition, 1, seed
        )

        model = PermutedPowerLawWorld(31, fact_count, 0.0)
        support = posterior_support_uniform(model, observed, seed.child(0))
        p = dist_from_weights(u, {y: 1.0 / fact_count for y in support})
        world = WorldInstance(p)
        m = len(observed) - 1
        p_missing = (fact_count - m) / fact_count
        direct = max(
            0.0,
            p_missing - tv_distance(coarsen(p, partition), g) - hallucination_rate(g, world),
        )
        assert check.lhs_estimate == pytest.approx(direct, abs=1e-12)
