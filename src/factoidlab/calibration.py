"""Partitions, coarsenings, binning schemes, and miscalibration metrics.

A generated distribution g is *calibrated* to a source distribution p
when g equals some block-averaged coarsening of p. Miscalibration is
measured as the total variation distance between g and the coarsening
of p over a partition built from g alone. Three partition builders are
provided:

* exact-value: one block per distinct g-value (zero-probability atoms
  form their own block);
* adaptive(b): at most b bins holding roughly equal g-mass, with
  thresholds taken as the supremum of values whose cumulative g-mass
  stays within i/b. When a single value class carries more mass than a
  bin, several nominal bins collapse into one; this is implemented
  literally (so a uniform g yields the single-block partition);
* fixed-width(epsilon): bins with equal width in log-probability,
  ((1-eps)^(i+1), (1-eps)^i], plus a block for zero-probability atoms.
  eps=0 degenerates to exact-value and eps=1 to the single block.

All metrics are computed on the paired atom-class profile from
dist.paired_profile, so they stay exact and cheap on universes far too
large to enumerate. The explicit Partition objects below materialize
blocks and are intended for small universes (tests, exhaustive sweeps);
both routes are checked against each other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .dist import (
    MATERIALIZE_LIMIT,
    FactoidDist,
    FactoidUniverse,
    dist_from_arrays,
    paired_profile,
)
from .errors import PartitionError, UniverseMismatchError
from .rng import SeededRng

__all__ = [
    "EXACT_VALUE_RTOL",
    "Partition",
    "ExactValueBinning",
    "AdaptiveBinning",
    "FixedWidthBinning",
    "BinningSpec",
    "coarsen",
    "exact_value_partition",
    "adaptive_partition",
    "fixed_width_partition",
    "partition_for_spec",
    "sort_profile_by_g",
    "profile_calibration",
    "miscalibration",
    "generative_calibration_error",
    "reliability_curve",
    "iter_all_partitions",
    "random_partition",
]

#: Two g-values this close (relatively) count as the same bin value;
#: float arithmetic perturbs analytically equal values.
EXACT_VALUE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Explicit partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of a universe by non-empty blocks."""

    universe: FactoidUniverse
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        total = 0
        for block in self.blocks:
            if not block:
                raise PartitionError("empty block")
            total += len(block)
            seen.update(block)
        if total != len(seen):
            raise PartitionError("blocks overlap")
        if len(seen) != self.universe.size or (seen and (min(seen) < 0 or max(seen) >= self.universe.size)):
            raise PartitionError("blocks do not cover the universe exactly")

    @classmethod
    def singletons(cls, universe: FactoidUniverse) -> "Partition":
        return cls(universe, tuple(frozenset((y,)) for y in universe.indices()))

    @classmethod
    def single_block(cls, universe: FactoidUniverse) -> "Partition":
        return cls(universe, (frozenset(universe.indices()),))


# ---------------------------------------------------------------------------
# Binning specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactValueBinning:
    kind: str = "exact_value"


@dataclass(frozen=True)
class AdaptiveBinning:
    b: int
    kind: str = "adaptive"

    def __post_init__(self):
        if self.b < 1:
            raise PartitionError(f"adaptive binning needs b >= 1, got {self.b}")


@dataclass(frozen=True)
class FixedWidthBinning:
    epsilon: float
    kind: str = "fixed_width"

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise PartitionError(f"fixed-width binning needs epsilon in [0,1], got {self.epsilon}")


BinningSpec = Union[ExactValueBinning, AdaptiveBinning, FixedWidthBinning]


# ---------------------------------------------------------------------------
# Grouping primitives (shared by explicit and profile routes)
# ---------------------------------------------------------------------------


def _exact_group_starts(sorted_vals: np.ndarray) -> np.ndarray:
    """Start offsets of equal-value groups in an ascending value array."""
    if sorted_vals.size == 0:
        return np.zeros(0, dtype=np.intp)
    gaps = np.diff(sorted_vals) > EXACT_VALUE_RTOL * np.abs(sorted_vals[1:])
    return np.concatenate(([0], np.flatnonzero(gaps) + 1))


def _adaptive_thresholds(sorted_vals: np.ndarray, sorted_counts: np.ndarray, b: int) -> np.ndarray:
    """Upper bin edges t_1..t_{b-1} for mass-balanced binning.

    t_i is the supremum of values z whose cumulative mass (over atoms
    with value <= z) stays within i/b, i.e. the smallest distinct value
    whose cumulative mass strictly exceeds i/b. The final edge is always
    1 and is left implicit.
    """
    if b == 1 or sorted_vals.size == 0:
        return np.zeros(0, dtype=np.float64)
    distinct_starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_vals) > 0) + 1))
    masses = np.add.reduceat(sorted_vals * sorted_counts, distinct_starts)
    cum = np.cumsum(masses)
    cum[-1] = max(cum[-1], 1.0)
    ladder = sorted_vals[distinct_starts]
    quantiles = np.arange(1, b) / b
    # first ladder entry with cumulative mass strictly above i/b
    pos = np.searchsorted(cum, quantiles, side="right")
    pos = np.minimum(pos, len(ladder) - 1)
    return ladder[pos]


def _adaptive_block_ids(vals: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Interval index per value: v <= t_1 -> 0, v in (t_i, t_{i+1}] -> i."""
    if thresholds.size == 0:
        return np.zeros(vals.shape, dtype=np.intp)
    return np.searchsorted(thresholds, vals, side="left")


def _fixed_width_block_ids(vals: np.ndarray, epsilon: float) -> np.ndarray:
    """Log-width bin index per value; zero values get id -1 (the zero block).

    Value v > 0 belongs to bin i with (1-eps)^(i+1) < v <= (1-eps)^i.
    """
    ids = np.full(vals.shape, -1, dtype=np.int64)
    pos = vals > 0.0
    if not np.any(pos):
        return ids
    base = 1.0 - epsilon
    logbase = math.log(base)
    raw = np.floor(np.log(vals[pos]) / logbase).astype(np.int64)
    raw = np.maximum(raw, 0)
    for _ in range(3):  # float dust puts the raw index within one bin of truth
        too_low = vals[pos] > np.power(base, raw)
        raw = np.where(too_low, raw - 1, raw)
        too_high = vals[pos] <= np.power(base, raw + 1)
        raw = np.where(too_high, raw + 1, raw)
        if not (np.any(too_low) or np.any(too_high)):
            break
    ids[pos] = raw
    return ids


def _block_starts_for_spec(
    sorted_vals: np.ndarray, sorted_counts: np.ndarray, spec: BinningSpec
) -> np.ndarray:
    """Group an ascending value array into bin blocks; returns start offsets."""
    if isinstance(spec, ExactValueBinning):
        return _exact_group_starts(sorted_vals)
    if isinstance(spec, AdaptiveBinning):
        thresholds = _adaptive_thresholds(sorted_vals, sorted_counts, spec.b)
        ids = _adaptive_block_ids(sorted_vals, thresholds)
    elif isinstance(spec, FixedWidthBinning):
        if spec.epsilon == 0.0:
            return _exact_group_starts(sorted_vals)
        if spec.epsilon == 1.0:
            return np.zeros(1, dtype=np.intp) if sorted_vals.size else np.zeros(0, dtype=np.intp)
        ids = _fixed_width_block_ids(sorted_vals, spec.epsilon)
    else:
        raise PartitionError(f"unknown binning spec {spec!r}")
    if ids.size == 0:
        return np.zeros(0, dtype=np.intp)
    changes = np.flatnonzero(np.diff(ids) != 0) + 1
    return np.concatenate(([0], changes))


# ---------------------------------------------------------------------------
# Explicit partition builders
# ---------------------------------------------------------------------------


def _atom_values(g: FactoidDist) -> np.ndarray:
    if g.universe.size > MATERIALIZE_LIMIT:
        raise PartitionError(
            f"refusing to materialize per-atom blocks for universe of size {g.universe.size}"
        )
    return g.weights_at(np.arange(g.universe.size))


def _partition_from_sorted_groups(
    universe: FactoidUniverse, order: np.ndarray, starts: np.ndarray
) -> Partition:
    bounds = np.append(starts, order.size)
    blocks = tuple(
        frozenset(order[bounds[i] : bounds[i + 1]].tolist()) for i in range(len(starts))
    )
    return Partition(universe, blocks)


def exact_value_partition(g: FactoidDist) -> Partition:
    """Blocks of atoms sharing a g-value, ascending by value.

    Values equal within EXACT_VALUE_RTOL share a block; in particular
    all zero-probability atoms form one block.
    """
    vals = _atom_values(g)
    order = np.argsort(vals, kind="stable")
    starts = _exact_group_starts(vals[order])
    return _partition_from_sorted_groups(g.universe, order, starts)


def adaptive_partition(g: FactoidDist, b: int) -> Partition:
    """Mass-balanced interval partition with at most b blocks.

    Empty intervals (produced when one value class spans several mass
    quantiles) are dropped, so fewer than b blocks may come back.
    """
    spec = AdaptiveBinning(b)
    vals = _atom_values(g)
    order = np.argsort(vals, kind="stable")
    starts = _block_starts_for_spec(vals[order], np.ones(vals.size), spec)
    return _partition_from_sorted_groups(g.universe, order, starts)


def fixed_width_partition(g: FactoidDist, epsilon: float) -> Partition:
    """Log-probability bins of multiplicative width (1 - epsilon).

    epsilon=0 falls back to the exact-value partition and epsilon=1 to
    the single-block partition. Enumeration stops below the smallest
    positive g-value; all lower bins are empty and dropped.
    """
    spec = FixedWidthBinning(epsilon)
    vals = _atom_values(g)
    order = np.argsort(vals, kind="stable")
    starts = _block_starts_for_spec(vals[order], np.ones(vals.size), spec)
    return _partition_from_sorted_groups(g.universe, order, starts)


def partition_for_spec(g: FactoidDist, spec: BinningSpec) -> Partition:
    if isinstance(spec, ExactValueBinning):
        return exact_value_partition(g)
    if isinstance(spec, AdaptiveBinning):
        return adaptive_partition(g, spec.b)
    if isinstance(spec, FixedWidthBinning):
        return fixed_width_partition(g, spec.epsilon)
    raise PartitionError(f"unknown binning spec {spec!r}")


# ---------------------------------------------------------------------------
# Coarsening
# ---------------------------------------------------------------------------


def coarsen(p: FactoidDist, pi: Partition) -> FactoidDist:
    """Spread each block's p-mass uniformly over the block's atoms."""
    if pi.universe != p.universe:
        raise UniverseMismatchError(
            f"partition universe size {pi.universe.size} != distribution size {p.universe.size}"
        )
    keys = np.arange(p.universe.size)
    values = np.empty(p.universe.size)
    for block in pi.blocks:
        atoms = np.fromiter(block, dtype=np.int64, count=len(block))
        values[atoms] = math.fsum(p.weights_at(atoms).tolist()) / len(block)
    return dist_from_arrays(p.universe, keys, values)


# ---------------------------------------------------------------------------
# Profile-route metrics
# ---------------------------------------------------------------------------


def sort_profile_by_g(
    p_vals: np.ndarray, g_vals: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A paired (p, g) profile stably sorted by ascending g, the order
    every binning scheme groups in."""
    order = np.argsort(g_vals, kind="stable")
    return p_vals[order], g_vals[order], counts[order]


def _sorted_profile(p: FactoidDist, g: FactoidDist):
    return sort_profile_by_g(*paired_profile(p, g))


def _block_masses(p_vals, g_vals, counts, starts):
    bounds = np.append(starts, counts.size)
    p_mass = np.add.reduceat(p_vals * counts, starts) if starts.size else np.zeros(0)
    g_mass = np.add.reduceat(g_vals * counts, starts) if starts.size else np.zeros(0)
    sizes = np.add.reduceat(counts, starts) if starts.size else np.zeros(0)
    block_of_class = np.repeat(np.arange(starts.size), np.diff(bounds)) if starts.size else np.zeros(0, dtype=np.intp)
    return p_mass, g_mass, sizes, block_of_class


def profile_calibration(
    p_vals: np.ndarray, g_vals: np.ndarray, counts: np.ndarray, spec: BinningSpec
) -> tuple[float, float]:
    """(miscalibration, mass gap) of a (p, g) profile sorted by g, over
    the bins spec builds from g.

    Miscalibration is the TV distance between g and the coarsening of p
    over the bins. The mass gap is half the summed absolute difference
    between bin p-mass and bin g-mass; over fixed-width bins it is the
    generative calibration error.
    """
    starts = _block_starts_for_spec(g_vals, counts, spec)
    p_mass, g_mass, sizes, block_of_class = _block_masses(p_vals, g_vals, counts, starts)
    total = float(np.sum(p_vals * counts))
    coarse = (p_mass / sizes) / total
    mis = 0.5 * float(np.sum(counts * np.abs(coarse[block_of_class] - g_vals)))
    gap = 0.5 * float(np.sum(np.abs(p_mass - g_mass)))
    return mis, gap


def miscalibration(p: FactoidDist, g: FactoidDist, spec: BinningSpec) -> float:
    """TV distance between g and the coarsening of p over bins of g.

    Zero exactly when g is a coarsening of p (for the exact-value and
    adaptive schemes, any number of bins).
    """
    return profile_calibration(*_sorted_profile(p, g), spec)[0]


def generative_calibration_error(p: FactoidDist, g: FactoidDist, epsilon: float) -> float:
    """Half the summed absolute gap between p-mass and g-mass over the
    fixed-width log-probability bins of g."""
    return profile_calibration(*_sorted_profile(p, g), FixedWidthBinning(epsilon))[1]


def reliability_curve(
    p: FactoidDist, g: FactoidDist, spec: BinningSpec
) -> list[tuple[float, float, float, int]]:
    """Rows (mean bin g-value, bin g-mass, bin p-mass, bin size), one per
    non-empty bin, ascending by bin value. The p column sums to 1."""
    p_vals, g_vals, counts = _sorted_profile(p, g)
    starts = _block_starts_for_spec(g_vals, counts, spec)
    p_mass, g_mass, sizes, _ = _block_masses(p_vals, g_vals, counts, starts)
    rows = [
        (float(g_mass[i] / sizes[i]), float(g_mass[i]), float(p_mass[i]), int(sizes[i]))
        for i in range(starts.size)
    ]
    rows.sort(key=lambda r: r[0])
    return rows


# ---------------------------------------------------------------------------
# Partition enumeration and sampling (small universes)
# ---------------------------------------------------------------------------


def iter_all_partitions(universe: FactoidUniverse, max_size: int = 12) -> Iterator[Partition]:
    """Every set partition of the universe (Bell(size) of them)."""
    n = universe.size
    if n > max_size:
        raise PartitionError(f"universe of size {n} too large to enumerate partitions")
    blocks: list[list[int]] = []

    def rec(y: int) -> Iterator[Partition]:
        if y == n:
            yield Partition(universe, tuple(frozenset(b) for b in blocks))
            return
        for b in blocks:
            b.append(y)
            yield from rec(y + 1)
            b.pop()
        blocks.append([y])
        yield from rec(y + 1)
        blocks.pop()

    yield from rec(0)


def random_partition(universe: FactoidUniverse, rng: SeededRng) -> Partition:
    """Uniformly shuffled indices cut at a random set of split points."""
    gen = rng.generator
    order = gen.permutation(universe.size)
    n_blocks = int(gen.integers(1, universe.size + 1))
    cuts = np.sort(gen.choice(universe.size - 1, size=n_blocks - 1, replace=False)) + 1 if n_blocks > 1 else np.zeros(0, dtype=np.int64)
    bounds = np.concatenate(([0], cuts, [universe.size]))
    blocks = tuple(
        frozenset(order[bounds[i] : bounds[i + 1]].tolist()) for i in range(len(bounds) - 1)
    )
    return Partition(universe, blocks)
