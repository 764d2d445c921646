"""Golden outputs: `factoidlab run` writes byte-identical result files.

The sha256 of trials.csv and reliability.csv is pinned for three small
worlds (uniform power law, Zipf power law, W5) under four algorithms.
The hashes were recorded before the array-backed distribution refactor
and are the contract that lets internals change freely: a refactor that
moves any 12-significant-digit cell fails here. Never re-pin a hash to
make a change pass; a deliberate output change must show and justify
the diff.

The multi-type report is pinned the same way: the sha256 of its per-type
bound frequencies and the repr of every metric mean and std, for a
two-type and a three-type world under six algorithms, recorded before
per-type metrics were read off one keyed profile.

Every field of the Good-Turing concentration report is pinned on two
worlds, the floats as hex.
"""

import dataclasses
import hashlib
import io
from pathlib import Path

import pytest

from factoidlab.cli import cli_main, parse_config_text
from factoidlab.dist import FactoidUniverse, dist_from_weights
from factoidlab.harness import (
    BoundSettings,
    ExperimentConfig,
    GtConcentrationReport,
    run_gt_concentration,
    run_multi_type_experiment,
)
from factoidlab.lms import Empirical, Laplace, MonofactMemorizer, Oracle, Uniform, YayMixture
from factoidlab.rng import SeededRng
from factoidlab.worlds import MultiTypeWorld, PermutedPowerLawWorld, sample_world

WORLDS = {
    "uniform": (
        "world.kind = permuted_power_law\nworld.universe_size = 20000\n"
        "world.fact_count = 100\nworld.exponent = 0.0\nn = 200\n"
    ),
    "zipf": (
        "world.kind = permuted_power_law\nworld.universe_size = 20000\n"
        "world.fact_count = 200\nworld.exponent = 1.0\nn = 300\n"
    ),
    "w5": (
        "world.kind = w5\nworld.people = 4\nworld.dates = 5\n"
        "world.foods = 10\nworld.locations = 10\nn = 100\n"
    ),
}

ALGORITHMS = {
    "empirical": "algorithm.kind = empirical\n",
    "laplace": "algorithm.kind = laplace\nalgorithm.alpha = 0.5\n",
    "memorizer": "algorithm.kind = monofact_memorizer\n",
    "yay": "algorithm.kind = yay_mixture\nalgorithm.lambda = 0.99\n",
}

BOUND = "bound.delta = 0.1\nbound.b = 10\nbound.epsilon = 0.1\ntrials = 20\n"

# (world, algorithm) -> (trials.csv sha256, reliability.csv sha256)
GOLDEN = {
    ("uniform", "empirical"): (
        "f59139f90be72d0ebc7d259f7d780e4c3cfa4430ee04c5841e3f873da4807469",
        "7522baa0faefc500bf2cfafe48bfbb76f858594f911b0446c88fb5fdffad9fdb",
    ),
    ("uniform", "laplace"): (
        "8622219a00b155930bb1254fa459e80c34d784170e118ac89bedad3c713adb92",
        "8c91e0b82667ee81d1a732547ef931019b08b37b488335d8403e0282765efae4",
    ),
    ("uniform", "memorizer"): (
        "40e7ba47a3816b61eae8c6578845b7a3703264b73f3e04ba5ed128f280566e45",
        "494f25b7e9ac7ea0d9496a6d033a22459dc07e9cb6526256b401e198db920a4c",
    ),
    ("uniform", "yay"): (
        "ac7124d124cb3029832b07958fb702be2e14b8c9b281a61fa24d2c1532e5d769",
        "e7a679abd6cb702025e26b85eb8375a691dacf9e15132d11a09aa0b2adace0cc",
    ),
    ("w5", "empirical"): (
        "0640d5cb295397b516f6da7ed32706d5d4ee19b7548d1adc47f772e15fdb2f00",
        "0d6a013c734b5d41dcd618fa6a271dfefc3b34a774c8c498208887e02575e175",
    ),
    ("w5", "laplace"): (
        "ca52093019806114cb05d7ff28e9a0d9c623c65d3f4b6040dffdc741d6d9ba78",
        "05c983f2a5f8e67b83149e8ee18a9c3de6d523452951fb223627688f5fc0eb0f",
    ),
    ("w5", "memorizer"): (
        "20c00b0676b83ae91eeca9aa56f221167904ebb40538c5a6b0def89f45934ff7",
        "e5137ab59a3117c5edfd1b59cb9caee26feb3b232fe45ffcc9206120ceb94484",
    ),
    ("w5", "yay"): (
        "984c9377f3be258c877afc9fe233de7cba63c9dba45b7bb2acbd8d1c2ad5a6f1",
        "e5137ab59a3117c5edfd1b59cb9caee26feb3b232fe45ffcc9206120ceb94484",
    ),
    ("zipf", "empirical"): (
        "4b615ea4d5dd37648016bba0ad4e0a8ebbd65f8fe5240d081fa381382a9b42a9",
        "5bda09810ff576441b92be25e020863d66b7474d1aa16f8876389ce892fdca1a",
    ),
    ("zipf", "laplace"): (
        "aa44b66b1a27b53445f02d744553aa3a3a57fcb74be74a5cc6d47239aa35f3fe",
        "56c9d26f080f9a4f836958a2d617004c64fdb565b95bf8a79452d5fb0afd69f8",
    ),
    ("zipf", "memorizer"): (
        "68110852bc0063844022914a2c807e18c4591b61376cd5e6a974683d10e979ad",
        "818eae27de105a983785bb8b25d417ad954c23466efb91b51529f40a42f26a6e",
    ),
    ("zipf", "yay"): (
        "a78a10c10f095e6ba8c6252d28611cfbfa135146bfb4c39a10e46215ddea44f1",
        "e7a679abd6cb702025e26b85eb8375a691dacf9e15132d11a09aa0b2adace0cc",
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_run_outputs_match_golden(tmp_path, world, algorithm):
    seed = 9000 + 10 * sorted(WORLDS).index(world) + sorted(ALGORITHMS).index(algorithm)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WORLDS[world] + ALGORITHMS[algorithm] + BOUND + f"seed = {seed}\n")
    out = tmp_path / "out"
    sink = io.StringIO()
    code = cli_main(["run", str(cfg), "--out", str(out)], out=sink, err=sink)
    assert code in (0, 1), sink.getvalue()
    got = (_sha(out / "trials.csv"), _sha(out / "reliability.csv"))
    assert got == GOLDEN[(world, algorithm)]


# ---------------------------------------------------------------------------
# Multi-type reports
# ---------------------------------------------------------------------------

MULTI_TYPE_WORLDS = {
    # two types, uniform and Zipf
    "two_type": MultiTypeWorld(
        components=(PermutedPowerLawWorld(20000, 100, 0.0), PermutedPowerLawWorld(30000, 150, 1.0)),
        weights=(0.4, 0.6),
    ),
    # three types; at exponent 200 the rank weights past rank 34 underflow
    # to 0, so the world keeps fewer facts than the model's fact count
    "three_type": MultiTypeWorld(
        components=(
            PermutedPowerLawWorld(20000, 100, 0.0),
            PermutedPowerLawWorld(10000, 80, 1.0),
            PermutedPowerLawWorld(5000, 50, 200.0),
        ),
        weights=(0.2, 0.3, 0.5),
    ),
}

MULTI_TYPE_ALGORITHMS = {
    "empirical": Empirical(),
    "laplace": Laplace(0.5),
    "uniform": Uniform(),
    "memorizer": MonofactMemorizer(),
    "oracle": Oracle(),
    "yay": YayMixture(Empirical(), 0.99),
}

# (world, algorithm) -> sha256 of multi_type_pin_text(report)
MULTI_TYPE_GOLDEN = {
    ("three_type", "empirical"): "c0dd667859d7822de58f9b2289c2f16332a9bfcaf3bef36af0c668d8729c5a5c",
    ("three_type", "laplace"): "ec67a460ef953d97dc8f1e05f4e39a1d28227d74a246409890526a3e828f4878",
    ("three_type", "memorizer"): "4fef5e8af901dbe7199f5289659eacf7296c1f9ef239dbfd41696aa8caf7ff50",
    ("three_type", "oracle"): "23c28428f6b2711ee10dd5a77b3da630f3a4e4247b60995fc80e0c3f090d625a",
    ("three_type", "uniform"): "4d60454bb9fbdc3983022baf6fd5fa00e1e7a7231c176d0e8d5c7c28a20c4d40",
    ("three_type", "yay"): "0afbd555a58a346e3eb6560df2fa7cba8ed15d2538bc4a4bde4c4c45cd94a6e9",
    ("two_type", "empirical"): "05840474678baa2b13a49388c1bf27c7a5a202cd13e84f9f7aa8c152601de339",
    ("two_type", "laplace"): "a3e660f0722ab3bb4078d2b158439a77e7ef157d3a8c413831275586deac04c4",
    ("two_type", "memorizer"): "68a7f945b087965e120587dadebc57e3b654d8d24661943a5477f1a17057666f",
    ("two_type", "oracle"): "e26d62376d69bf260bed23d7805c7c2cc0362b8b328e95cbc3f3eec5b78a8108",
    ("two_type", "uniform"): "e88ef24cc830cd960ff3572ddde9ad491bf8c71f0169024833fa3662afc39323",
    ("two_type", "yay"): "b2cffa589de324f7177098e1d7191d93807f0c2fe9461a132b8f76cf95a0d8b8",
}


def multi_type_pin_text(report) -> str:
    """The report's per-type bound frequencies and the repr of every
    metric mean and std, one line each."""
    lines = [repr(t) for t in report.types]
    lines += [f"{m.name} {m.mean!r} {m.std!r}" for m in report.metrics]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("algorithm", sorted(MULTI_TYPE_ALGORITHMS))
@pytest.mark.parametrize("world", sorted(MULTI_TYPE_WORLDS))
def test_multi_type_report_matches_golden(world, algorithm):
    model = MULTI_TYPE_WORLDS[world]
    seed = 9100 + 10 * sorted(MULTI_TYPE_WORLDS).index(world)
    seed += sorted(MULTI_TYPE_ALGORITHMS).index(algorithm)
    cfg = ExperimentConfig(
        world=model,
        n=300,
        algorithm=MULTI_TYPE_ALGORITHMS[algorithm],
        bound=BoundSettings(delta=0.1, b=10, epsilon=0.1, k_types=model.k_types),
        trials=20,
        master_seed=seed,
    )
    text = multi_type_pin_text(run_multi_type_experiment(cfg))
    got = hashlib.sha256(text.encode()).hexdigest()
    assert got == MULTI_TYPE_GOLDEN[(world, algorithm)], text


# The concentration report, every field, recorded before the suite counted
# its trials in chunks: AC10's Zipf p, and the world `gt-check` draws from
# the README config. Both runs span many chunks of trials.
GT_GOLDEN = {
    "zipf": dict(
        trials=2000, n=1000, delta="0x1.999999999999ap-4",
        two_sided_radius="0x1.7529b2a5cae87p-3", one_sided_radius="0x1.40fea04ac8373p-3",
        two_sided_violations=0, one_sided_violations=0,
        mean_gap="0x1.a48dd10aa1864p-12", gap_stderr="0x1.ac46c5d006053p-12",
    ),
    "readme": dict(
        trials=300, n=2000, delta="0x1.999999999999ap-4",
        two_sided_radius="0x1.07ddb2785b293p-3", one_sided_radius="0x1.c5f478847dd32p-4",
        two_sided_violations=0, one_sided_violations=0,
        mean_gap="-0x1.434f9953b1e83p-11", gap_stderr="0x1.aa3b54571cab0p-11",
    ),
}


def _gt_report(world: str) -> GtConcentrationReport:
    if world == "zipf":
        universe = FactoidUniverse(10_001)
        p = dist_from_weights(universe, {y: 1.0 / y for y in range(1, 10_001)})
        return run_gt_concentration(p, n=1000, delta=0.1, trials=2000, master_seed=1002)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config_text(block, source="README.md")
    # drawn as `factoidlab gt-check` draws it, on child 0 of the seed
    p = sample_world(cfg.world, SeededRng(cfg.master_seed).child(0)).p
    return run_gt_concentration(p, cfg.n, cfg.bound.delta, cfg.trials, cfg.master_seed)


@pytest.mark.parametrize("world", sorted(GT_GOLDEN))
def test_gt_concentration_report_matches_golden(world):
    got = {
        name: value.hex() if isinstance(value, float) else value
        for name, value in dataclasses.asdict(_gt_report(world)).items()
    }
    assert got == GT_GOLDEN[world]
