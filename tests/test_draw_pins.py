"""One reproducibility pin per seeded draw kind.

trials.csv rests on three numpy Generator methods: `choice(...,
replace=False)` for a power-law world's facts, `integers` for a W5
world and `random` for every sample. NumPy's RNG policy (NEP 19) keeps
each BitGenerator's stream fixed but lets a Generator method change its
algorithm between releases. Each test pins the sha256 of one seeded
draw's arrays, dtype and bytes, so a numpy upgrade that moves the README
hashes also names the draw that moved.
"""

import hashlib

import numpy as np

from factoidlab.harness import _drawn
from factoidlab.rng import SeededRng
from factoidlab.worlds import MultiTypeWorld, PermutedPowerLawWorld, W5World, sample_world


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _world_digest(model, seed: int) -> str:
    p = sample_world(model, SeededRng(seed)).p
    return _digest(p.keys, p.values)


def test_zipf_power_law_world():
    digest = _world_digest(PermutedPowerLawWorld(20000, 200, 1.0), 11)
    assert digest == "64844b516ec534c2b686a5272e00e08c6be37e0f32a1dd9ba098e3f737c88b35"


def test_uniform_world():
    model = PermutedPowerLawWorld(20000, 100, 0.0)
    # its draws share one inverse-CDF table
    assert model.draw_table is not None
    assert _world_digest(model, 12) == "7ce75bc1b8123682404a04f7235bfef406c5f0b63fd3c7ab6e4f433e237085a4"


def test_two_type_world():
    components = (PermutedPowerLawWorld(3000, 60, 1.0), PermutedPowerLawWorld(2000, 40, 0.0))
    digest = _world_digest(MultiTypeWorld(components, (0.3, 0.7)), 13)
    assert digest == "bcba23dc62c5e5ca80fce23934de17a904f20f01f1ca7c81e58d25ff1d5217fd"


def test_w5_world():
    digest = _world_digest(W5World(4, 5, 10, 10), 14)
    assert digest == "e6cc193ce665bc7fbe5e366932deefa4be4a2936b5ccbd1dc72c88b871901b0b"


def test_drawn_sample():
    # the atoms and counts of trial 0's training sample on a Zipf world
    (_, _, _, sample, _), = _drawn(PermutedPowerLawWorld(20000, 200, 1.0), 300, 15, (0,))
    assert sample.n == 300
    digest = _digest(sample.atoms, sample.counts)
    assert digest == "a8e30f6472572e0e83784fe959aff45f432a1c35362bdc0cd1cc41415e7cc3b4"
