"""Partitions, binning schemes, and miscalibration metrics.

A generated distribution g is *calibrated* to a source distribution p
when g equals some block-averaged coarsening of p. Miscalibration is
measured as the total variation distance between g and the coarsening
of p over a partition built from g alone. Three binning schemes are
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

All metrics are computed by profile_calibration on the paired
atom-class profile of (p, g) from dist.keyed_profile, sorted once by g,
so they stay exact and cheap on universes far too large to enumerate.
An explicit Partition holds one block label per atom, so this is the one
module that builds per-atom arrays: its builders (Partition.singletons,
partition_for_spec) refuse universes above MATERIALIZE_LIMIT atoms. The
exhaustive lemma sweep and the posterior verifier read such partitions,
and the test suite checks the profile route against the literal
partition-then-coarsen route on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

import numpy as np

from .dist import FactoidDist, FactoidUniverse
from .errors import PartitionError

__all__ = [
    "EXACT_VALUE_RTOL",
    "BIN_COUNT_LIMIT",
    "Partition",
    "ExactValueBinning",
    "AdaptiveBinning",
    "FixedWidthBinning",
    "BinningSpec",
    "partition_for_spec",
    "sort_profile_by_g",
    "profile_calibration",
    "reliability_rows",
]

#: Two g-values this close (relatively) count as the same bin value;
#: float arithmetic perturbs analytically equal values.
EXACT_VALUE_RTOL = 1e-12
#: Most adaptive bins a spec may ask for: binning allocates b - 1 float64
#: thresholds, 8 MB at this limit, so a larger b would exhaust memory
#: rather than run.
BIN_COUNT_LIMIT = 1_000_000
#: Universes larger than this refuse per-atom arrays: the labels of an
#: explicit partition and the atom values it is built from.
MATERIALIZE_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# Explicit partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cover of a universe by non-empty blocks, as one label per
    atom: labels[y] is the block of atom y, the blocks are numbered 0..k-1
    with every number used, and the labels are a read-only copy."""

    universe: FactoidUniverse
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        size = self.universe.size
        if labels.shape != (size,) or labels.dtype.kind not in "iu":
            raise PartitionError(
                f"labels must be {size} integers, got shape {labels.shape} of {labels.dtype}"
            )
        low, high = int(labels.min()), int(labels.max())
        if low < 0 or high >= size:  # before bincount allocates high + 1 counters
            raise PartitionError(f"block labels must lie in [0, {size}), got {low}..{high}")
        labels = labels.astype(np.intp)  # a copy, so the caller's array may change
        if not np.bincount(labels).all():
            raise PartitionError(f"block labels must use every number in 0..{high}")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @cached_property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The blocks as atom sets in label order, for display and small universes."""
        order = np.argsort(self.labels, kind="stable")
        cuts = np.cumsum(np.bincount(self.labels))[:-1]
        return tuple(frozenset(block.tolist()) for block in np.split(order, cuts))

    @classmethod
    def singletons(cls, universe: FactoidUniverse) -> "Partition":
        _check_materializable(universe)
        return cls(universe, np.arange(universe.size))


def _check_materializable(universe: FactoidUniverse) -> None:
    if universe.size > MATERIALIZE_LIMIT:
        raise PartitionError(
            f"refusing to materialize per-atom blocks for universe of size {universe.size}"
        )


# ---------------------------------------------------------------------------
# Binning specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactValueBinning:
    """One bin per distinct g-value."""


@dataclass(frozen=True)
class AdaptiveBinning:
    b: int

    def __post_init__(self):
        if not 1 <= self.b <= BIN_COUNT_LIMIT:
            raise PartitionError(f"adaptive binning needs b in [1, {BIN_COUNT_LIMIT}], got {self.b}")


@dataclass(frozen=True)
class FixedWidthBinning:
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise PartitionError(f"fixed-width binning needs epsilon in [0,1], got {self.epsilon}")
        if self.epsilon > 0.0 and 1.0 - self.epsilon == 1.0:
            # log(1 - epsilon) would be 0: every positive atom in one bin
            raise PartitionError(
                f"epsilon {self.epsilon} is too small: 1 - epsilon rounds to 1"
                " (0 means exact-value bins)"
            )


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
# Explicit partition builder
# ---------------------------------------------------------------------------


def partition_for_spec(g: FactoidDist, spec: BinningSpec) -> Partition:
    """The bins spec builds from g as an explicit partition of g's atoms,
    for small universes. Empty bins are dropped, so an adaptive or
    fixed-width spec may give fewer blocks than it has nominal bins."""
    _check_materializable(g.universe)
    vals = g.weights_at(np.arange(g.universe.size))
    order = np.argsort(vals, kind="stable")
    starts = _block_starts_for_spec(vals[order], np.ones(vals.size), spec)
    # atom order[j] joins the group holding position j
    labels = np.empty(vals.size, dtype=np.intp)
    labels[order] = np.repeat(np.arange(starts.size), np.diff(np.append(starts, vals.size)))
    return Partition(g.universe, labels)


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


def _block_masses(p_vals, g_vals, counts, starts):
    bounds = np.append(starts, counts.size)
    p_mass = np.add.reduceat(p_vals * counts, starts) if starts.size else np.zeros(0)
    g_mass = np.add.reduceat(g_vals * counts, starts) if starts.size else np.zeros(0)
    sizes = np.add.reduceat(counts, starts) if starts.size else np.zeros(0)
    block_of_class = np.repeat(np.arange(starts.size), np.diff(bounds)) if starts.size else np.zeros(0, dtype=np.intp)
    return p_mass, g_mass, sizes, block_of_class


def profile_calibration(
    p_vals: np.ndarray, g_vals: np.ndarray, counts: np.ndarray, spec: BinningSpec
) -> tuple[float, float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(miscalibration, mass gap, bins) of a (p, g) profile sorted by g,
    over the bins spec builds from g.

    Miscalibration is the TV distance between g and the coarsening of p
    over the bins. The mass gap is half the summed absolute difference
    between bin p-mass and bin g-mass; over fixed-width bins it is the
    generative calibration error. bins holds the per-bin (g-mass,
    p-mass, size) arrays in ascending g order; reliability_rows turns
    them into rows.
    """
    starts = _block_starts_for_spec(g_vals, counts, spec)
    p_mass, g_mass, sizes, block_of_class = _block_masses(p_vals, g_vals, counts, starts)
    total = float(np.sum(p_vals * counts))
    coarse = (p_mass / sizes) / total
    mis = 0.5 * float(np.sum(counts * np.abs(coarse[block_of_class] - g_vals)))
    gap = 0.5 * float(np.sum(np.abs(p_mass - g_mass)))
    return mis, gap, (g_mass, p_mass, sizes)


def reliability_rows(
    g_mass: np.ndarray, p_mass: np.ndarray, sizes: np.ndarray
) -> list[tuple[float, float, float, int]]:
    """Rows (mean bin g-value, bin g-mass, bin p-mass, bin size), one per
    bin, ascending by bin value."""
    rows = [
        (float(g_mass[i] / sizes[i]), float(g_mass[i]), float(p_mass[i]), int(sizes[i]))
        for i in range(sizes.size)
    ]
    rows.sort(key=lambda r: r[0])
    return rows


# ---------------------------------------------------------------------------
# Partition enumeration (small universes)
# ---------------------------------------------------------------------------


#: Largest universe whose set partitions are enumerated (Bell(12) = 4213597).
PARTITION_LIMIT = 12


def _partition_label_rows(size: int, rows: int) -> Iterator[np.ndarray]:
    """Every set partition of `size` <= PARTITION_LIMIT atoms as a row of
    block labels, a restricted growth string (atom y joins a block an
    earlier atom opened, or opens the next), in lexicographic order and in
    blocks of at most `rows` rows, unranked a few thousand rows at a time."""
    if size > PARTITION_LIMIT:
        raise PartitionError(f"universe of size {size} too large to enumerate partitions")
    # ways[r, k]: completions of a prefix that opened k blocks, r atoms left
    ways = np.ones((size + 1, size + 2), dtype=np.int64)
    for r in range(1, size + 1):
        ways[r, :-1] = np.arange(size + 1) * ways[r - 1, :-1] + ways[r - 1, 1:]
    total, step = int(ways[size, 0]), rows * max(1, 4096 // rows)
    for start in range(0, total, step):
        rank = np.arange(start, min(start + step, total))
        labels = np.empty((rank.size, size), dtype=np.intp)
        opened = np.zeros_like(rank)
        for y in range(size):
            join = ways[size - 1 - y, opened]
            labels[:, y] = np.minimum(rank // join, opened)
            rank -= labels[:, y] * join
            np.maximum(opened, labels[:, y] + 1, out=opened)
        for i in range(0, rank.size, rows):
            yield labels[i : i + rows]
