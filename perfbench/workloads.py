"""The four benchmark workloads: inputs built from a seed, one pass, checked outputs.

Seed 0 gives the acceptance-test seeds (AC03, AC04, AC05, AC06, AC07, AC10).
Seed s gives each of those seeds plus 1000 * s, so every workload draws new
inputs from one integer while the input sizes stay fixed.

A pass returns the number of Monte Carlo repetitions it completed, the
outputs that decide correctness (verdicts, satisfied and vacuous counts,
hit and violation counts) and, separately, the sha256 of every trials.csv
it wrote. Only the outputs count toward failed passes; the hashes are
reported as their own flag so that a change in float summation order shows
without being counted as a wrong verdict.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from factoidlab import bounds as fl_bounds
from factoidlab import calibration as fl_calibration
from factoidlab import cli as fl_cli
from factoidlab import dist as fl_dist
from factoidlab import estimators as fl_estimators
from factoidlab import harness as fl_harness
from factoidlab import lms as fl_lms
from factoidlab import worlds as fl_worlds
from factoidlab.rng import SeededRng

DEFAULT_SEED = 0
WORKLOADS = ("regular_sweep", "multi_type", "concentration", "posterior_exhaustive")

# Input sizes. "full" is what the benchmark measures; "tiny" exists for the
# smoke test and keeps every code path while running in well under a second.
SIZES = {
    "full": {
        "regular": {"universe": 10**7, "facts": 1000, "n": 2000, "trials": 30},
        "multi_type": {"universe": 10**7, "facts": 1000, "n": 2000, "trials": 8},
        "gt": {"atoms": 10_000, "n": 1000, "trials": 200},
        "upper": {"universe": 10**5, "facts": 500, "n": 1000, "trials": 100},
        "posterior": {"universe": 51, "facts": 20, "draws": 30, "samples": 1000},
        "lemma_universe": 6,
    },
    "tiny": {
        "regular": {"universe": 10**5, "facts": 100, "n": 200, "trials": 2},
        "multi_type": {"universe": 10**5, "facts": 100, "n": 200, "trials": 2},
        "gt": {"atoms": 1000, "n": 100, "trials": 100},
        "upper": {"universe": 10**4, "facts": 100, "n": 200, "trials": 5},
        "posterior": {"universe": 21, "facts": 8, "draws": 10, "samples": 50},
        "lemma_universe": 4,
    },
}

# AC04's six algorithms, as config lines for `factoidlab run` and as objects.
ALGORITHMS = (
    ("empirical", "algorithm.kind = empirical\n", lambda: fl_lms.Empirical()),
    ("laplace", "algorithm.kind = laplace\nalgorithm.alpha = 0.5\n", lambda: fl_lms.Laplace(0.5)),
    ("uniform", "algorithm.kind = uniform\n", lambda: fl_lms.Uniform()),
    ("memorizer", "algorithm.kind = monofact_memorizer\n", lambda: fl_lms.MonofactMemorizer()),
    ("oracle", "algorithm.kind = oracle\n", lambda: fl_lms.Oracle()),
    (
        "yay",
        "algorithm.kind = yay_mixture\nalgorithm.lambda = 0.99\n",
        lambda: fl_lms.YayMixture(fl_lms.Empirical(), 0.99),
    ),
)


def ac_seed(acceptance_seed: int, seed: int) -> int:
    return acceptance_seed + 1000 * seed


@dataclass
class PassResult:
    trials: int
    outputs: dict
    hashes: dict


RunPass = Callable[[Path], PassResult]


# ---------------------------------------------------------------------------
# regular_sweep: `factoidlab run` on the README config, once per algorithm
# ---------------------------------------------------------------------------


def _regular_sweep(seed: int, size: dict, workdir: Path) -> RunPass:
    cfg = size["regular"]
    paths = []
    for i, (name, algo_lines, _) in enumerate(ALGORITHMS):
        text = (
            "world.kind = permuted_power_law\n"
            f"world.universe_size = {cfg['universe']}\n"
            f"world.fact_count = {cfg['facts']}\n"
            "world.exponent = 0.0\n"
            f"n = {cfg['n']}\n"
            f"{algo_lines}"
            "bound.delta = 0.1\n"
            "bound.b = 10\n"
            "bound.epsilon = 0.1\n"
            f"trials = {cfg['trials']}\n"
            f"seed = {ac_seed(400 + i, seed)}\n"
        )
        path = workdir / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        fl_cli.parse_config(path)  # a bad config fails set-up, not a pass
        paths.append((name, path))

    def run_pass(pass_dir: Path) -> PassResult:
        outputs, hashes = {}, {}
        for name, path in paths:
            out_dir = pass_dir / name
            quiet = io.StringIO()
            code = fl_cli.cli_main(["run", str(path), "--out", str(out_dir)], out=quiet, err=quiet)
            if code not in (0, 1):
                raise RuntimeError(f"{name}: exit {code}: {quiet.getvalue().strip()}")
            agg = json.loads((out_dir / "aggregate.json").read_text(encoding="utf-8"))
            outputs[name] = {
                "exit": code,
                "bounds": {
                    b: [row["satisfied"], row["vacuous"], row["passed"]]
                    for b, row in sorted(agg["bounds"].items())
                },
            }
            hashes[name] = hashlib.sha256((out_dir / "trials.csv").read_bytes()).hexdigest()
        return PassResult(trials=len(paths) * cfg["trials"], outputs=outputs, hashes=hashes)

    return run_pass


# ---------------------------------------------------------------------------
# multi_type: AC05's two-type world over the same algorithms
# ---------------------------------------------------------------------------


def _multi_type(seed: int, size: dict, workdir: Path) -> RunPass:
    cfg = size["multi_type"]
    component = fl_worlds.PermutedPowerLawWorld(cfg["universe"], cfg["facts"], 0.0)
    model = fl_worlds.MultiTypeWorld(components=(component, component), weights=(0.5, 0.5))
    configs = [
        (
            name,
            fl_harness.ExperimentConfig(
                world=model,
                n=cfg["n"],
                algorithm=make(),
                bound=fl_harness.BoundSettings(delta=0.1, b=10, epsilon=0.1, k_types=2),
                trials=cfg["trials"],
                master_seed=ac_seed(500 + i, seed),
            ),
        )
        for i, (name, _, make) in enumerate(ALGORITHMS)
    ]

    def run_pass(pass_dir: Path) -> PassResult:
        outputs = {}
        for name, exp in configs:
            rep = fl_harness.run_multi_type_experiment(exp)
            outputs[name] = [[t.satisfied, t.vacuous, t.passed] for t in rep.types]
        return PassResult(trials=len(configs) * cfg["trials"], outputs=outputs, hashes={})

    return run_pass


# ---------------------------------------------------------------------------
# concentration: AC10's Zipf p and AC03's memorizer worlds
# ---------------------------------------------------------------------------


def _concentration(seed: int, size: dict, workdir: Path) -> RunPass:
    gt, ub = size["gt"], size["upper"]
    atoms = gt["atoms"]
    universe = fl_dist.FactoidUniverse(atoms + 1)
    p_zipf = fl_dist.dist_from_weights(universe, {y: 1.0 / y for y in range(1, atoms + 1)})
    worlds = [
        (k, fl_worlds.PermutedPowerLawWorld(ub["universe"], ub["facts"], float(k))) for k in (0, 1)
    ]

    def run_pass(pass_dir: Path) -> PassResult:
        rep = fl_harness.run_gt_concentration(
            p_zipf, n=gt["n"], delta=0.1, trials=gt["trials"], master_seed=ac_seed(1002, seed)
        )
        outputs = {"gt_zipf": [rep.two_sided_violations, rep.one_sided_violations, rep.passed]}
        for k, world in worlds:
            up = fl_harness.run_upper_bound_check(
                world, n=ub["n"], delta=0.1, trials=ub["trials"], master_seed=ac_seed(300 + k, seed)
            )
            outputs[f"upper_k{k}"] = [up.certainty_hits, up.calibration_hits, up.passed]
        return PassResult(trials=gt["trials"] + 2 * ub["trials"], outputs=outputs, hashes={})

    return run_pass


# ---------------------------------------------------------------------------
# posterior_exhaustive: AC06's twenty probes and the |Y|=6 lemma sweep
# ---------------------------------------------------------------------------


def _posterior_exhaustive(seed: int, size: dict, workdir: Path) -> RunPass:
    cfg = size["posterior"]
    model = fl_worlds.PermutedPowerLawWorld(cfg["universe"], cfg["facts"], 0.0)
    setup_rng = SeededRng(ac_seed(600, seed))
    world = fl_worlds.sample_world(model, setup_rng.child(0))
    draws = fl_dist.sample_iid(world.p, cfg["draws"], setup_rng.child(1))
    sample = fl_estimators.TrainingSample(world.universe, tuple(int(y) for y in draws))
    algs = [make() for name, _, make in ALGORITHMS if name != "oracle"]
    specs = [
        fl_calibration.ExactValueBinning(),
        fl_calibration.AdaptiveBinning(10),
        fl_calibration.FixedWidthBinning(0.3),
        None,
    ]
    probes = []
    for a_i, alg in enumerate(algs):
        g = fl_lms.train(alg, sample, truth=world.p)
        for s_i, spec in enumerate(specs):
            partition = (
                fl_calibration.Partition.singletons(world.universe)
                if spec is None
                else fl_calibration.partition_for_spec(g, spec)
            )
            probes.append((g, partition, SeededRng(ac_seed(601, seed)).child(a_i, s_i)))

    lemma_universe = fl_dist.FactoidUniverse(size["lemma_universe"])
    lemma_rng = SeededRng(ac_seed(700, seed))
    nu = fl_worlds.ExplicitWorld(
        tuple(
            (0.1, fl_worlds.WorldInstance(fl_dist.random_dist(lemma_universe, lemma_rng.child(i))))
            for i in range(10)
        )
    )

    def run_pass(pass_dir: Path) -> PassResult:
        flags = []
        for g, partition, rng in probes:
            check = fl_bounds.verify_theorem_main_mc(
                world.universe, cfg["facts"], sample.observed, g, partition, cfg["samples"], rng
            )
            flags.append([check.passed, check.marginals_ok])
        violations = fl_bounds.verify_lemma_meat_exhaustive(
            nu, tolerance=1e-9, max_universe=lemma_universe.size
        )
        outputs = {"probes": flags, "lemma_violations": len(violations)}
        return PassResult(trials=len(probes) * cfg["samples"], outputs=outputs, hashes={})

    return run_pass


_BUILDERS = {
    "regular_sweep": _regular_sweep,
    "multi_type": _multi_type,
    "concentration": _concentration,
    "posterior_exhaustive": _posterior_exhaustive,
}


def setup(name: str, seed: int, size: str, workdir: Path) -> RunPass:
    """Build a workload's inputs and return its pass. Everything here
    counts toward setup_s; the pass writes its files under the directory
    it is given."""
    return _BUILDERS[name](seed, SIZES[size], workdir)
