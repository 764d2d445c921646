"""Acceptance suite: every stated bound, verified at desk scale.

Each test prints one pass/fail line (written straight to the terminal so
it shows under pytest's capture) and asserts the criterion at its stated
tolerance. Monte Carlo criteria are seeded and deterministic.
"""

import math
import time
from decimal import Decimal, getcontext

import pytest

from factoidlab.bounds import (
    BoundParams,
    bound_terms,
    evaluate_bound,
    verify_lemma_meat_exhaustive,
    verify_theorem_main_mc,
)
from factoidlab.calibration import (
    AdaptiveBinning,
    ExactValueBinning,
    FixedWidthBinning,
    Partition,
    partition_for_spec,
)
from factoidlab.cli import cli_main
from factoidlab.dist import (
    FactoidUniverse,
    dist_from_weights,
    random_dist,
    sample_iid,
    uniform_dist,
)
from factoidlab.estimators import TrainingSample
from factoidlab.harness import (
    BoundSettings,
    ExperimentConfig,
    run_experiment,
    run_gt_concentration,
    run_multi_type_experiment,
    run_upper_bound_check,
)
from factoidlab.lms import (
    Empirical,
    Laplace,
    MonofactMemorizer,
    Oracle,
    Uniform,
    YayMixture,
    train,
)
from factoidlab.rng import SeededRng
from factoidlab.worlds import (
    ExplicitWorld,
    MultiTypeWorld,
    PermutedPowerLawWorld,
    W5World,
    WorldInstance,
    analyze_regularity,
    sample_world,
)
from literal import (
    coarsen,
    enumerate_w5_instances,
    generative_calibration_error,
    iter_all_partitions,
    miscalibration,
    random_partition,
    tv_distance,
    tv_distance_forms,
)

getcontext().prec = 50


_started = [0.0]


@pytest.fixture(autouse=True)
def _wall_clock():
    """Start each criterion's wall clock; report() prints the time since."""
    _started[0] = time.perf_counter()


def report(criterion: str, ok: bool, detail: str) -> bool:
    # shows live under the tee-sys capture configured in pyproject
    wall = time.perf_counter() - _started[0]
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}  {detail}; {wall:.2f}s"
    print(line, flush=True)
    return ok


def vacuity(freq) -> str:
    """A bound row's vacuous fraction and the count each vacuity cause made."""
    causes = ", ".join(f"{term} {count}" for term, count in freq.vacuous_by.items() if count)
    return f"vac {freq.vacuous_fraction:.2f}" + (f": {causes}" if causes else "")


def uniform_over(universe_size: int, atoms: int) -> tuple[FactoidUniverse, "dist"]:
    u = FactoidUniverse(universe_size)
    return u, dist_from_weights(u, {y: 1.0 for y in range(1, atoms + 1)})


def zipf_over(universe_size: int, atoms: int):
    u = FactoidUniverse(universe_size)
    return u, dist_from_weights(u, {y: 1.0 / y for y in range(1, atoms + 1)})


AC4_ALGORITHMS = [
    ("empirical", Empirical()),
    ("laplace", Laplace(0.5)),
    ("uniform", Uniform()),
    ("memorizer", MonofactMemorizer()),
    ("oracle", Oracle()),
    ("yay", YayMixture(Empirical(), 0.99)),
]


class TestAc01GoodTuringConcentration:
    def test_two_sided_radius_at_both_worlds(self):
        t0 = time.perf_counter()
        radius = float(3 * (Decimal(20).ln() / Decimal(1000)).sqrt())
        _, p_uniform = uniform_over(201, 200)
        _, p_zipf = zipf_over(10_001, 10_000)
        rep_u = run_gt_concentration(p_uniform, n=1000, delta=0.2, trials=500, master_seed=101)
        rep_z = run_gt_concentration(p_zipf, n=1000, delta=0.2, trials=500, master_seed=102)
        elapsed = time.perf_counter() - t0
        assert rep_u.two_sided_radius == pytest.approx(radius, abs=1e-12)
        ok = (
            rep_u.two_sided_frequency <= 0.2
            and rep_z.two_sided_frequency <= 0.2
            and elapsed <= 10.0
        )
        assert report(
            "AC01",
            ok,
            f"two-sided violations uniform {rep_u.two_sided_violations}/500, "
            f"zipf {rep_z.two_sided_violations}/500 over radius {radius:.5f}",
        )


class TestAc02OneSidedBound:
    def test_one_sided_radius_at_both_worlds(self):
        _, p_uniform = uniform_over(201, 200)
        _, p_zipf = zipf_over(10_001, 10_000)
        radius = float((6 * Decimal(60).ln() / Decimal(1000)).sqrt())
        rep_u = run_gt_concentration(p_uniform, n=1000, delta=0.1, trials=500, master_seed=201)
        rep_z = run_gt_concentration(p_zipf, n=1000, delta=0.1, trials=500, master_seed=202)
        assert rep_u.one_sided_radius == pytest.approx(radius, abs=1e-12)
        ok = rep_u.one_sided_frequency <= 0.1 / 3 and rep_z.one_sided_frequency <= 0.1 / 3
        assert report(
            "AC02",
            ok,
            f"one-sided violations uniform {rep_u.one_sided_violations}/500, "
            f"zipf {rep_z.one_sided_violations}/500 over radius {radius:.5f} (allowed delta/3)",
        )


class TestAc03MemorizerUpperBound:
    def test_certainty_and_calibration_events(self):
        radius = float(3 * (Decimal(40).ln() / Decimal(1000)).sqrt())
        results = {}
        for k in (0, 1):
            world = PermutedPowerLawWorld(10**5, 500, float(k))
            rep = run_upper_bound_check(world, n=1000, delta=0.1, trials=500, master_seed=300 + k)
            assert rep.calibration_radius == pytest.approx(radius, abs=1e-12)
            results[k] = rep
        ok = all(
            rep.certainty_hits == 500 and rep.calibration_frequency >= 0.9
            for rep in results.values()
        )
        assert report(
            "AC03",
            ok,
            "certainty "
            + ", ".join(f"k={k}: {r.certainty_hits}/500" for k, r in results.items())
            + "; calibration "
            + ", ".join(f"k={k}: {r.calibration_frequency:.3f}" for k, r in results.items())
            + f" within {radius:.5f}",
        )


class TestAc04RegularWorldLowerBound:
    def test_all_algorithms_satisfy_cor1(self):
        t0 = time.perf_counter()
        world = PermutedPowerLawWorld(10**7, 1000, 0.0)
        details = []
        ok = True
        for i, (name, alg) in enumerate(AC4_ALGORITHMS):
            cfg = ExperimentConfig(
                world=world,
                n=2000,
                algorithm=alg,
                bound=BoundSettings(delta=0.1, b=10, epsilon=0.1),
                trials=300,
                master_seed=400 + i,
            )
            rep, _ = run_experiment(cfg)
            freq = {b.name: b for b in rep.bounds}["cor1"]
            details.append(f"{name} {freq.frequency:.3f} ({vacuity(freq)})")
            ok = ok and freq.frequency >= 0.9
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed <= 120.0
        assert report("AC04", ok, "; ".join(details))


class TestAc05MultiTypeBound:
    def test_per_type_satisfaction_with_inflated_rhs(self):
        # the union-bound inflation itself, against 50-digit arithmetic
        p2 = BoundParams(delta=0.1, b=10, epsilon=0.1, s=9.2, r=1.0, n=2000, k_types=2)
        expected = (
            Decimal("0.3")
            - Decimal("0.05")
            - 6 * (-Decimal("9.2")).exp() / Decimal("0.1")
            - (6 * Decimal(120).ln() / Decimal(2000)).sqrt()
        )
        rhs = evaluate_bound(0.0, bound_terms("cor1", 0.3, 0.05, p2)).rhs
        inflation_ok = rhs == pytest.approx(float(expected), abs=1e-14)

        model = MultiTypeWorld(
            components=(
                PermutedPowerLawWorld(10**7, 1000, 0.0),
                PermutedPowerLawWorld(10**7, 1000, 0.0),
            ),
            weights=(0.5, 0.5),
        )
        details = []
        ok = inflation_ok
        for i, (name, alg) in enumerate(AC4_ALGORITHMS):
            cfg = ExperimentConfig(
                world=model,
                n=2000,
                algorithm=alg,
                bound=BoundSettings(delta=0.1, b=10, epsilon=0.1, k_types=2),
                trials=300,
                master_seed=500 + i,
            )
            rep = run_multi_type_experiment(cfg)
            freqs = [t.frequency for t in rep.types]
            causes = ", ".join(f"{t.name} {vacuity(t)}" for t in rep.types)
            details.append(f"{name} {min(freqs):.3f} ({causes})")
            ok = ok and all(f >= 0.9 for f in freqs)
        assert report(
            "AC05",
            ok,
            "per-type min freq: " + "; ".join(details) + f"; rhs inflation exact: {inflation_ok}",
        )


class TestAc06TheoremMainExact:
    def test_twenty_probes(self):
        model = PermutedPowerLawWorld(51, 20, 0.0)
        setup = SeededRng(600)
        world = sample_world(model, setup.child(0))
        draws = sample_iid(world.p, 30, setup.child(1))
        sample = TrainingSample(world.universe, tuple(int(y) for y in draws))
        algs = [Empirical(), Laplace(0.5), Uniform(), MonofactMemorizer(), YayMixture(Empirical(), 0.99)]
        specs = [ExactValueBinning(), AdaptiveBinning(10), FixedWidthBinning(0.3), None]
        probes = 0
        worst_gap = -math.inf
        ok = True
        for alg in algs:
            g = train(alg, sample, truth=world.p)
            for spec in specs:
                partition = (
                    Partition.singletons(world.universe)
                    if spec is None
                    else partition_for_spec(g, spec)
                )
                # a probe the exactness rule does not cover raises DistributionError
                check = verify_theorem_main_mc(world.universe, 20, sample.observed, g, partition)
                probes += 1
                worst_gap = max(worst_gap, check.lhs - check.rhs)
                ok = ok and check.passed
        assert probes == 20
        assert report(
            "AC06",
            ok,
            f"20 probes, all exact (g one weight on the unobserved atoms); worst lhs-rhs gap "
            f"{worst_gap:+.4f} (negative means slack)",
        )


class TestAc07CoarseningLemmaExhaustive:
    def test_all_partitions_and_subsets(self):
        t0 = time.perf_counter()
        u = FactoidUniverse(5)
        rng = SeededRng(700)
        instances = tuple(
            (0.1, WorldInstance(random_dist(u, rng.child(i)))) for i in range(10)
        )
        nu = ExplicitWorld(instances)
        n_partitions = sum(1 for _ in iter_all_partitions(u))
        violations = verify_lemma_meat_exhaustive(nu, tolerance=1e-9)
        elapsed = time.perf_counter() - t0
        ok = n_partitions == 52 and not violations and elapsed <= 5.0
        assert report(
            "AC07",
            ok,
            f"{n_partitions} partitions x 31 subsets x 10 instances: "
            f"{len(violations)} violations",
        )


class TestAc08SandwichLemma:
    def test_thousand_random_triples(self):
        rng = SeededRng(800)
        worst_low = worst_high = -math.inf
        for i in range(1000):
            gen = rng.child(i).generator
            size = int(gen.integers(2, 101))
            u = FactoidUniverse(size)
            p = random_dist(u, rng.child(i, 0))
            g = random_dist(u, rng.child(i, 1))
            eps = float(gen.uniform(0.005, 0.995))
            tv_fw = miscalibration(p, g, FixedWidthBinning(eps))
            mis = generative_calibration_error(p, g, eps)
            worst_low = max(worst_low, (tv_fw - eps) - mis)
            worst_high = max(worst_high, mis - tv_fw)
        ok = worst_low <= 1e-9 and worst_high <= 1e-9
        assert report(
            "AC08",
            ok,
            f"1000 triples: max lower-side excess {worst_low:.2e}, "
            f"max upper-side excess {worst_high:.2e} (tolerance 1e-9)",
        )


class TestAc09CalibrationIdentities:
    def test_coarsenings_are_calibrated(self):
        rng = SeededRng(900)
        worst = 0.0
        for i in range(500):
            gen = rng.child(i).generator
            size = int(gen.integers(2, 31))
            u = FactoidUniverse(size)
            p = random_dist(u, rng.child(i, 0))
            pi = random_partition(u, rng.child(i, 1))
            worst = max(worst, miscalibration(p, coarsen(p, pi), ExactValueBinning()))
        ok_a = worst <= 1e-9

        rng2 = SeededRng(901)
        worst_b1 = 0.0
        for i in range(200):
            u = FactoidUniverse(int(rng2.child(i).generator.integers(2, 40)))
            p = random_dist(u, rng2.child(i, 0))
            g = random_dist(u, rng2.child(i, 1))
            gap = abs(
                miscalibration(p, g, AdaptiveBinning(1)) - tv_distance(uniform_dist(u), g)
            )
            worst_b1 = max(worst_b1, gap)
        ok_b = worst_b1 <= 1e-12

        rng3 = SeededRng(902)
        worst_tv = 0.0
        for i in range(30):
            u = FactoidUniverse(12)
            d1 = random_dist(u, rng3.child(i, 0))
            d2 = random_dist(u, rng3.child(i, 1))
            half_l1, pos_part, subset_max = tv_distance_forms(d1, d2)
            worst_tv = max(worst_tv, abs(half_l1 - pos_part), abs(half_l1 - subset_max))
        ok_c = worst_tv <= 1e-12

        ok = ok_a and ok_b and ok_c
        assert report(
            "AC09",
            ok,
            f"coarsening miscal max {worst:.2e} (500 pairs); single-bin vs uniform-TV gap "
            f"{worst_b1:.2e}; tv-form max gap {worst_tv:.2e} at |Y|=12 exhaustive",
        )


class TestAc10MeanSquash:
    def test_means_within_one_over_n(self):
        n = 1000
        _, p_uniform = uniform_over(201, 200)
        _, p_zipf = zipf_over(10_001, 10_000)
        details = []
        ok = True
        for name, p, seed in (("uniform", p_uniform, 1001), ("zipf", p_zipf, 1002)):
            rep = run_gt_concentration(p, n=n, delta=0.1, trials=2000, master_seed=seed)
            lo = -3.0 * rep.gap_stderr
            hi = 1.0 / n + 3.0 * rep.gap_stderr
            ok = ok and lo <= rep.mean_gap <= hi
            details.append(f"{name} gap {rep.mean_gap:+.2e} in [{lo:+.2e},{hi:+.2e}]")
        assert report("AC10", ok, "; ".join(details))


class TestAc11W5Regularity:
    def test_exact_analysis_and_counting(self):
        model = W5World(3, 3, 3, 3)
        s_expected = float((Decimal(72) / Decimal(10)).ln())

        # direct set counting on a sampled instance
        inst = sample_world(model, SeededRng(1100))
        facts = set(inst.fact_keys.tolist())
        hallucinations = set(range(model.universe_size)) - facts
        count_ok = model.universe_size == 82 and len(facts) == 10 and len(hallucinations) == 72
        s_direct = math.log(len(hallucinations) / len(facts))

        # analyzer on a battery of conditioning samples
        samples = [TrainingSample(model.universe, ())]
        rng = SeededRng(1101)
        for i in range(5):
            w = sample_world(model, rng.child(i, 0))
            draws = sample_iid(w.p, int(rng.child(i, 1).generator.integers(1, 20)), rng.child(i, 2))
            samples.append(TrainingSample(model.universe, tuple(int(y) for y in draws)))
        # adversarial: pin 8 of the 9 pairs
        pinned = sorted(facts - {0})[:8]
        samples.append(TrainingSample(model.universe, tuple(pinned)))

        max_r = 0.0
        s_ok = True
        for s in samples:
            rep = analyze_regularity(model, s)
            max_r = max(max_r, rep.r_facts, rep.r_probs)
            s_ok = s_ok and abs(rep.s - s_expected) <= 1e-12
        bound_ok = max_r <= 9.0 + 1e-12

        # cross-check the factorized analyzer against full enumeration at
        # the enumerable scale
        small = W5World(2, 2, 2, 2)
        enumerated = enumerate_w5_instances(small)
        w_small = sample_world(small, SeededRng(1102))
        draws = sample_iid(w_small.p, 3, SeededRng(1103))
        s_small = TrainingSample(small.universe, tuple(int(y) for y in draws))
        fast = analyze_regularity(small, s_small)
        slow = analyze_regularity(enumerated, s_small)
        cross_ok = (
            abs(fast.r_facts - slow.r_facts) <= 1e-9
            and abs(fast.s - slow.s) <= 1e-12
        )

        ok = count_ok and s_ok and bound_ok and cross_ok and abs(s_direct - s_expected) <= 1e-12
        assert report(
            "AC11",
            ok,
            f"s = ln(72/10) = {s_expected:.4f} (direct count {s_direct:.4f}); "
            f"max per-sample r {max_r:.3f} <= 9; enumeration cross-check: {cross_ok}",
        )


class TestAc12Reproducibility:
    def test_byte_identical_runs(self, tmp_path):
        cfg_text = (
            "world.kind = permuted_power_law\n"
            "world.universe_size = 5000\n"
            "world.fact_count = 150\n"
            "world.exponent = 1.0\n"
            "n = 400\n"
            "algorithm.kind = monofact_memorizer\n"
            "bound.delta = 0.1\n"
            "bound.b = 10\n"
            "bound.epsilon = 0.1\n"
            "trials = 40\n"
            "seed = 1200\n"
        )
        import io

        cfg_path = tmp_path / "repro.cfg"
        cfg_path.write_text(cfg_text)
        quiet = io.StringIO()
        code1 = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "r1")], out=quiet, err=quiet)
        code2 = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "r2")], out=quiet, err=quiet)
        t1 = (tmp_path / "r1" / "trials.csv").read_bytes()
        t2 = (tmp_path / "r2" / "trials.csv").read_bytes()
        import json

        m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        import hashlib

        stored_hash = hashlib.sha256((tmp_path / "r1" / "config.cfg").read_bytes()).hexdigest()
        ok = (
            code1 == 0
            and code2 == 0
            and t1 == t2
            and m1["config_hash"] == m2["config_hash"]
            and m1["config_hash"] == stored_hash
        )
        assert report(
            "AC12",
            ok,
            f"trials.csv byte-identical across runs ({len(t1)} bytes); "
            f"manifest hash matches stored config copy",
        )
