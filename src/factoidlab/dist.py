"""Finite discrete distributions over a factoid universe.

The universe is the index set {0, 1, ..., size-1}; index 0 is the
distinguished "empty fact" (bottom) everywhere in this package. A
distribution stores explicit weights for a sparse set of atoms plus a
single background weight shared by every other atom. The explicit part
is two parallel arrays: `keys`, the atoms in strictly increasing order
(int64), and `values`, their weights (float64). The background makes
huge near-uniform distributions (for example "1/|Y| everywhere" on ten
million atoms) exact and O(sparse) to operate on, which the Monte Carlo
harness relies on: every reader works on the arrays with numpy and no
array ever has the size of the universe.

The constructor fails closed: unsorted or duplicate keys, keys outside
the universe, NaN, infinite or negative weights and a non-finite or
negative background are rejected. The module constructors also
normalize; zero-sum input is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DistributionError, UniverseMismatchError
from .rng import SeededRng

__all__ = [
    "BOTTOM",
    "FactoidUniverse",
    "FactoidDist",
    "dist_from_arrays",
    "dist_from_weights",
    "uniform_dist",
    "point_mass_dist",
    "background_dist",
    "mass_of_set",
    "mass_of_complement",
    "tv_distance",
    "tv_distance_forms",
    "kl_divergence",
    "profile_kl",
    "sample_iid",
    "paired_profile",
    "with_bottom",
    "random_dist",
]

#: Index of the empty fact. Fixed package-wide so nothing needs to thread
#: a per-universe bottom id around.
BOTTOM = 0

#: Constructors accept totals this far from 1 and renormalize silently;
#: Monte Carlo pipelines accumulate rounding and should not be rejected.
NORMALIZATION_ATOL = 1e-9

#: Universes larger than this refuse to materialize per-atom structures
#: (dense weight maps, explicit partition blocks).
MATERIALIZE_LIMIT = 1_000_000

_NO_KEYS = np.zeros(0, dtype=np.int64)
_NO_KEYS.flags.writeable = False


@dataclass(frozen=True)
class FactoidUniverse:
    """The index set of factoids, bottom included.

    size counts every factoid, bottom among them, so the number of
    "real" candidate facts and hallucinations is size - 1.
    """

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise DistributionError(f"universe size must be >= 2, got {self.size}")

    @property
    def bottom_id(self) -> int:
        return BOTTOM

    def indices(self) -> range:
        return range(self.size)

    def atom_array(self, atoms) -> np.ndarray:
        """atoms (a sequence or array of indices) as an int64 array.

        Rejects non-integer input and indices outside the universe.
        """
        raw = np.asarray(atoms)
        if raw.size == 0:
            return _NO_KEYS
        if raw.dtype.kind not in "iu":
            raise DistributionError(f"factoid indices must be integers, got dtype {raw.dtype}")
        # uint64 values beyond the int64 range wrap negative and fail too
        arr = raw.astype(np.int64, copy=False).ravel()
        bad = (arr < 0) | (arr >= self.size)
        if bad.any():
            y = raw.ravel()[int(np.argmax(bad))]
            raise DistributionError(f"factoid index {y} outside universe of size {self.size}")
        return arr


def _check_same_universe(a: "FactoidDist", b: "FactoidDist") -> None:
    if a.universe != b.universe:
        raise UniverseMismatchError(
            f"universe mismatch: size {a.universe.size} vs {b.universe.size}"
        )


def _sorted_unique(atoms: np.ndarray) -> np.ndarray:
    # np.unique without counts takes a hash-based route that is an order
    # of magnitude slower than sorting on a few thousand spread-out atoms
    out = np.sort(atoms)
    if out.size > 1:
        out = out[np.concatenate(([True], out[1:] != out[:-1]))]
    return out


def with_bottom(keys: np.ndarray) -> np.ndarray:
    """A strictly increasing atom array with the empty fact added."""
    if keys.size and keys[0] == BOTTOM:
        return keys
    return np.insert(keys, 0, BOTTOM)


def _lookup(keys: np.ndarray, atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of atoms in the sorted key array and a mask of which are
    present (positions of absent atoms are clipped and meaningless)."""
    if keys.size == 0:
        return np.zeros(atoms.shape, dtype=np.intp), np.zeros(atoms.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(keys, atoms), keys.size - 1)
    return pos, keys[pos] == atoms


@dataclass(frozen=True, eq=False)
class FactoidDist:
    """Probability distribution over one universe.

    keys lists the explicitly weighted atoms in strictly increasing order
    and values their weights; every other atom carries the background
    weight. The arrays are copied and made read-only, so instances are
    immutable and safe to share. Use the module constructors below
    (which also normalize) rather than calling this class directly.
    """

    universe: FactoidUniverse
    keys: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    background: float = 0.0

    def __post_init__(self):
        background = float(self.background)
        if not (math.isfinite(background) and background >= 0.0):
            raise DistributionError(f"background weight must be finite and >= 0, got {background}")
        raw = np.asarray(self.keys)
        if raw.size and raw.dtype.kind not in "iu":
            raise DistributionError(f"factoid indices must be integers, got dtype {raw.dtype}")
        keys = raw.astype(np.int64).ravel()
        values = np.array(self.values, dtype=np.float64).ravel()
        if keys.shape != values.shape:
            raise DistributionError(
                f"{keys.size} keys but {values.size} values; arrays must be parallel"
            )
        if keys.size:
            # uint64 keys beyond the int64 range wrap negative and fail here
            if not (keys[1:] > keys[:-1]).all():
                raise DistributionError("keys must be strictly increasing (sorted, no duplicates)")
            if keys[0] < 0 or keys[-1] >= self.universe.size:
                bad = keys[0] if keys[0] < 0 else keys[-1]
                raise DistributionError(
                    f"factoid index {bad} outside universe of size {self.universe.size}"
                )
            if not (values.min() >= 0.0 and np.isfinite(values).all()):
                i = int(np.argmax(~(np.isfinite(values) & (values >= 0.0))))
                raise DistributionError(f"weight {values[i]} at index {keys[i]} is negative or not finite")
        keys.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "background", background)

    # -- access ---------------------------------------------------------

    def weight(self, y: int) -> float:
        i = int(np.searchsorted(self.keys, y))
        if i < self.keys.size and self.keys[i] == y:
            return float(self.values[i])
        return self.background

    def weights_at(self, atoms: np.ndarray) -> np.ndarray:
        """Weights of an int array of atoms, as a float64 array."""
        if self.keys.size == 0:
            return np.full(atoms.shape, self.background)
        pos, hit = _lookup(self.keys, atoms)
        return np.where(hit, self.values[pos], self.background)

    @property
    def weights(self) -> dict[int, float]:
        """Dense atom -> weight map (sparse form: zero atoms omitted).

        Materializes every positive atom, so it is guarded against huge
        universes; use weight() or mass_of_set() there instead.
        """
        if self.background == 0.0:
            pos = self.values > 0.0
            return dict(zip(self.keys[pos].tolist(), self.values[pos].tolist()))
        if self.universe.size > MATERIALIZE_LIMIT:
            raise DistributionError(
                f"refusing to materialize weights for universe of size {self.universe.size}"
            )
        dense = self.weights_at(np.arange(self.universe.size))
        pos = np.flatnonzero(dense > 0.0)
        return dict(zip(pos.tolist(), dense[pos].tolist()))

    def support_size(self) -> int:
        n_special_pos = int(np.count_nonzero(self.values > 0.0))
        if self.background > 0.0:
            return n_special_pos + (self.universe.size - self.keys.size)
        return n_special_pos

    def total_mass(self) -> float:
        rest = self.universe.size - self.keys.size
        return math.fsum(self.values.tolist()) + self.background * rest


def dist_from_arrays(
    universe: FactoidUniverse, keys, values, background: float = 0.0
) -> FactoidDist:
    """Normalized distribution from strictly increasing keys, their
    non-negative weights and a background weight for every other atom.

    Rejects what the FactoidDist constructor rejects, plus all-zero and
    non-finite totals. With no background, zero-weight keys are dropped.
    """
    raw = FactoidDist(universe, keys, values, background)
    rest = universe.size - raw.keys.size
    total = math.fsum(raw.values.tolist()) + raw.background * rest
    if total <= 0.0:
        raise DistributionError("weights sum to zero; at least one must be positive")
    if not math.isfinite(total):
        raise DistributionError("weights sum is not finite")
    keys, values, background = raw.keys, raw.values / total, raw.background / total
    if background == 0.0:
        pos = values > 0.0
        keys, values = keys[pos], values[pos]
    return FactoidDist(universe, keys, values, background)


def _sorted_items(weights: Mapping[int, float]) -> tuple[list[int], list[float]]:
    items = sorted((int(y), float(w)) for y, w in weights.items())
    return [y for y, _ in items], [w for _, w in items]


def dist_from_weights(universe: FactoidUniverse, weights: Mapping[int, float]) -> FactoidDist:
    """Build a sparse distribution from non-negative weights; normalizes.

    Rejects all-zero input, any negative weight, and out-of-range
    indices. Atoms absent from the map have probability zero.
    """
    return dist_from_arrays(universe, *_sorted_items(weights))


def background_dist(
    universe: FactoidUniverse, special: Mapping[int, float], background: float
) -> FactoidDist:
    """Distribution with explicit weights on some atoms and a shared
    background weight on all others; normalizes like dist_from_weights."""
    return dist_from_arrays(universe, *_sorted_items(special), background)


def uniform_dist(universe: FactoidUniverse) -> FactoidDist:
    return FactoidDist(universe, _NO_KEYS, (), 1.0 / universe.size)


def point_mass_dist(universe: FactoidUniverse, y: int) -> FactoidDist:
    return FactoidDist(universe, [y], [1.0], 0.0)


# -- set mass -------------------------------------------------------------


def mass_of_set(d: FactoidDist, s: Iterable[int]) -> float:
    """Total probability of the atoms in s. Empty set has mass 0.

    s may be any iterable of indices or an int array; repeats count once.
    """
    raw = s if isinstance(s, np.ndarray) else list(s)
    atoms = _sorted_unique(d.universe.atom_array(raw))
    pos, hit = _lookup(d.keys, atoms)
    n_plain = atoms.size - int(np.count_nonzero(hit))
    return math.fsum(d.values[pos[hit]].tolist()) + d.background * n_plain


def mass_of_complement(d: FactoidDist, s: Iterable[int]) -> float:
    """Probability of everything outside s, computed without enumerating
    the complement (exact up to the normalization of d)."""
    return max(0.0, 1.0 - mass_of_set(d, s))


# -- paired atom classes --------------------------------------------------


def paired_profile(d1: FactoidDist, d2: FactoidDist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse two distributions into atom classes (w1, w2, count).

    One class per atom explicit in either distribution, in increasing
    atom order, then one class for the atoms that are background in
    both (they carry identical weight pairs). The profile size is
    O(#explicit atoms) even on huge universes, and every pairwise metric
    in this package is a function of it.
    """
    _check_same_universe(d1, d2)
    keys = _sorted_unique(np.concatenate((d1.keys, d2.keys)))
    w1 = d1.weights_at(keys)
    w2 = d2.weights_at(keys)
    counts = np.ones(keys.size, dtype=np.float64)
    rest = d1.universe.size - keys.size
    if rest > 0:
        w1 = np.append(w1, d1.background)
        w2 = np.append(w2, d2.background)
        counts = np.append(counts, float(rest))
    return w1, w2, counts


# -- metrics ---------------------------------------------------------------


def tv_distance(d1: FactoidDist, d2: FactoidDist) -> float:
    """Total variation distance, computed as half the L1 difference."""
    w1, w2, counts = paired_profile(d1, d2)
    return 0.5 * float(np.sum(counts * np.abs(w1 - w2)))


def tv_distance_forms(
    d1: FactoidDist, d2: FactoidDist, exhaustive_limit: int = 12
) -> tuple[float, float, float]:
    """The three equivalent total-variation formulas, for cross-checking.

    Returns (half_l1, positive_part_sum, subset_max). The subset maximum
    is found by exhaustive enumeration of all 2^|Y| subsets when the
    universe is small enough, otherwise by taking the witness set where
    d1 exceeds d2 (which attains the maximum).
    """
    _check_same_universe(d1, d2)
    w1, w2, counts = paired_profile(d1, d2)
    half_l1 = 0.5 * float(np.sum(counts * np.abs(w1 - w2)))
    pos_part = float(np.sum(counts * np.clip(w1 - w2, 0.0, None)))
    size = d1.universe.size
    if size <= exhaustive_limit:
        atoms = np.arange(size)
        v1 = d1.weights_at(atoms)
        v2 = d2.weights_at(atoms)
        subset_max = 0.0
        for mask in range(1, 1 << size):
            members = [y for y in range(size) if mask >> y & 1]
            gap = abs(float(v1[members].sum() - v2[members].sum()))
            if gap > subset_max:
                subset_max = gap
    else:
        subset_max = pos_part
    return half_l1, pos_part, subset_max


def profile_kl(w1: np.ndarray, w2: np.ndarray, counts: np.ndarray) -> float:
    """KL(first || second) in nats over a paired profile; +inf when the
    second misses support of the first."""
    pos = w1 > 0.0
    if np.any(pos & (w2 <= 0.0)):
        return math.inf
    w1p, w2p, cp = w1[pos], w2[pos], counts[pos]
    return float(np.sum(cp * w1p * np.log(w1p / w2p)))


def kl_divergence(d_true: FactoidDist, d_model: FactoidDist) -> float:
    """KL(d_true || d_model) in nats; +inf when the model misses support."""
    return profile_kl(*paired_profile(d_true, d_model))


# -- sampling --------------------------------------------------------------


def random_dist(
    universe: FactoidUniverse, rng: SeededRng, support_size: int | None = None
) -> FactoidDist:
    """Random sparse distribution: a uniform random support of the given
    size (random size if omitted) with i.i.d. uniform weights, normalized.
    Handy for randomized property sweeps."""
    gen = rng.generator
    if support_size is None:
        support_size = int(gen.integers(1, universe.size + 1))
    if not 1 <= support_size <= universe.size:
        raise DistributionError(f"support size {support_size} out of range")
    atoms = gen.choice(universe.size, size=support_size, replace=False)
    raw = gen.random(support_size) + 1e-9
    order = np.argsort(atoms)
    return dist_from_arrays(universe, atoms[order], raw[order])


def sample_iid(d: FactoidDist, n: int, rng: SeededRng) -> np.ndarray:
    """n independent draws from d, as an int64 array.

    Deterministic given the rng seed. Background mass is drawn by
    inverting into a virtual bucket and then rejection-sampling a
    uniform non-special atom, which is exact.
    """
    if n < 1:
        raise DistributionError(f"sample size must be >= 1, got {n}")
    gen = rng.generator
    pos = d.values > 0.0
    rest = d.universe.size - d.keys.size
    bg_total = d.background * rest
    probs = np.append(d.values[pos], bg_total) if bg_total > 0.0 else d.values[pos]
    if probs.size == 0:
        raise DistributionError("distribution has no positive mass")
    cum = np.cumsum(probs)
    cum[-1] = max(cum[-1], 1.0)
    slots = np.searchsorted(cum, gen.random(n), side="right")
    out = np.append(d.keys[pos], -1)[slots]
    if bg_total > 0.0:
        # Background draws pick a uniform atom outside the special set;
        # zero-weight special atoms must stay unreachable too.
        special_set = set(d.keys.tolist())
        background_positions = np.flatnonzero(out == -1)
        for i in background_positions.tolist():
            cand = int(gen.integers(0, d.universe.size))
            while cand in special_set:
                cand = int(gen.integers(0, d.universe.size))
            out[i] = cand
    return out
