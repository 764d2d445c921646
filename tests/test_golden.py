"""Golden outputs: `factoidlab run` writes byte-identical result files.

The sha256 of trials.csv and reliability.csv is pinned for three small
worlds (uniform power law, Zipf power law, W5) under four algorithms.
The hashes were recorded before the array-backed distribution refactor
and are the contract that lets internals change freely: a refactor that
moves any 12-significant-digit cell fails here. Never re-pin a hash to
make a change pass; a deliberate output change must show and justify
the diff.
"""

import hashlib
import io

import pytest

from factoidlab.cli import cli_main

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
