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

All metrics are computed on paired atom-class profiles of (p, g) from
dist.keyed_profile, so they stay exact and cheap on universes far too
large to enumerate. Profiles are scored many at a time: SortedProfiles
takes a batch of them joined end to end and sorts every one by g at
once (one sort ranks the g-values, one stable sort orders the classes by
profile and rank), and each binning spec then marks the bin starts of
the whole batch in one pass over its runs of equal g (a bin starts at
every profile's first class) and sums each bin quantity with one
np.add.reduceat. Every sum that yields one profile's metric is taken
over that profile's slice alone, so a profile's metrics are the same
bits in any batch as on their own.
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

from .dist import FactoidDist, FactoidUniverse, _dense_weights
from .errors import PartitionError, check_count

__all__ = [
    "EXACT_VALUE_RTOL",
    "BIN_COUNT_LIMIT",
    "Partition",
    "ExactValueBinning",
    "AdaptiveBinning",
    "FixedWidthBinning",
    "BinningSpec",
    "partition_for_spec",
    "SortedProfiles",
    "ProfileBins",
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
        check_count(self.b, "adaptive binning b", 1, BIN_COUNT_LIMIT, "bins", PartitionError)


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
# Binning profiles sorted by g, many at a time
# ---------------------------------------------------------------------------


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


class SortedProfiles:
    """Paired (p, g) profiles joined end to end, each stably sorted by
    ascending g, the order every binning scheme groups in.

    Profile t holds classes bounds[t]:bounds[t+1] and has at least one.
    Sorting keeps each profile in its own slice, in the order a stable
    argsort of that profile alone gives it; order maps the sorted classes
    back to the input. The sorted classes fall into runs of one g-value
    within one profile: run_starts are their offsets and run_vals their
    values. p_mass and g_mass hold each class's masses (weight times
    count), and totals[t] is profile t's p-mass.

    Every per-profile sum here is np.add.reduce over that profile's slice
    alone, the pairwise sum np.sum takes of the profile by itself, so a
    profile scores the same bits in any batch.
    """

    def __init__(self, p_vals: np.ndarray, g_vals: np.ndarray, counts: np.ndarray, bounds):
        self.bounds = np.asarray(bounds, dtype=np.intp)
        self.slices = list(zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist()))
        # rank the g-values through one unstable sort, whose order among
        # equal values is never used; the stable sort by (profile, rank)
        # is then a radix sort whenever the keys fit in 16 bits
        by_value = np.argsort(g_vals)
        ascending = g_vals[by_value]
        new_value = np.empty(ascending.size, dtype=bool)
        new_value[0] = True
        np.not_equal(ascending[1:], ascending[:-1], out=new_value[1:])
        del ascending
        ranks = np.cumsum(new_value)
        distinct = int(ranks[-1])
        key = np.repeat(np.arange(len(self.slices)) * distinct, np.diff(self.bounds))
        key[by_value] += ranks
        del by_value, ranks
        if len(self.slices) * distinct <= np.iinfo(np.uint16).max:
            key = key.astype(np.uint16)
        self.order = np.argsort(key, kind="stable")
        key = key[self.order]
        self.run_starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        del key
        self.g_vals = g_vals[self.order]
        self.run_vals = self.g_vals[self.run_starts]
        self.counts = counts[self.order]
        self.p_mass = p_vals[self.order]
        self.p_mass *= self.counts
        self.g_mass = self.g_vals * self.counts
        self.totals = np.array([np.add.reduce(self.p_mass[a:b]) for a, b in self.slices])

    def binned(self, spec: BinningSpec) -> ProfileBins:
        """The bins spec builds from g in every profile, with each
        profile's miscalibration over its own bins."""
        starts = _block_starts_for_spec(self, spec)
        p_mass = np.add.reduceat(self.p_mass, starts)
        g_mass = np.add.reduceat(self.g_mass, starts)
        sizes = np.add.reduceat(self.counts, starts)
        bin_bounds = np.searchsorted(starts, self.bounds)
        owner = np.repeat(np.arange(len(self.slices)), np.diff(bin_bounds))
        coarse = (p_mass / sizes) / self.totals[owner]
        off = np.repeat(coarse, np.diff(np.append(starts, self.counts.size)))
        off -= self.g_vals
        np.abs(off, out=off)
        off *= self.counts
        return ProfileBins(
            miscalibration=[0.5 * float(np.add.reduce(off[a:b])) for a, b in self.slices],
            g_mass=g_mass,
            p_mass=p_mass,
            sizes=sizes,
            bin_bounds=bin_bounds.tolist(),
        )


@dataclass(frozen=True, eq=False)
class ProfileBins:
    """The bins one spec builds from g in every profile of a sorted batch.

    g_mass, p_mass and sizes hold each bin's masses and size, ascending by
    g within each profile; profile t's bins are
    bin_bounds[t]:bin_bounds[t+1]. miscalibration[t] is the TV distance
    between profile t's g and the coarsening of its p over its bins.
    """

    miscalibration: list[float]
    g_mass: np.ndarray
    p_mass: np.ndarray
    sizes: np.ndarray
    bin_bounds: list[int]

    def mass_gaps(self) -> list[float]:
        """Per profile, half the summed absolute difference between bin
        p-mass and bin g-mass; over fixed-width bins, the generative
        calibration error."""
        gaps = np.abs(self.p_mass - self.g_mass)
        cuts = self.bin_bounds
        return [0.5 * float(np.add.reduce(gaps[a:b])) for a, b in zip(cuts[:-1], cuts[1:])]

    def bins(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Profile t's per-bin (g-mass, p-mass, size) arrays, which
        reliability_rows turns into rows."""
        part = slice(self.bin_bounds[t], self.bin_bounds[t + 1])
        return self.g_mass[part], self.p_mass[part], self.sizes[part]


def _block_starts_for_spec(profiles: SortedProfiles, spec: BinningSpec) -> np.ndarray:
    """Start offsets of the bins spec builds from g in every profile of a
    sorted batch, ascending; each profile's first class starts a bin.

    A bin is a range of g-values, so bins start only where runs start:
    each scheme reads one value per run.
    """
    vals = profiles.run_vals
    new = np.zeros(vals.size, dtype=bool)
    new[np.searchsorted(profiles.run_starts, profiles.bounds[:-1])] = True
    if isinstance(spec, AdaptiveBinning):
        _mark_adaptive_starts(profiles, spec.b, new)
    elif isinstance(spec, ExactValueBinning) or (
        isinstance(spec, FixedWidthBinning) and spec.epsilon == 0.0
    ):
        new[1:] |= np.diff(vals) > EXACT_VALUE_RTOL * np.abs(vals[1:])
    elif isinstance(spec, FixedWidthBinning):
        if spec.epsilon < 1.0:
            new[1:] |= np.diff(_fixed_width_block_ids(vals, spec.epsilon)) != 0
    else:
        raise PartitionError(f"unknown binning spec {spec!r}")
    return profiles.run_starts[new]


def _mark_adaptive_starts(profiles: SortedProfiles, b: int, new: np.ndarray) -> None:
    """Mark in new, one flag per run, the runs where the adaptive(b) bins
    of each profile start; new already marks each profile's first run.

    The bin edge t_i is the smallest distinct g-value whose cumulative
    g-mass (over the values up to it) strictly exceeds i/b, and a value
    lies in bin i when t_i < v <= t_{i+1}. So a distinct value v lies
    above t_i exactly when the cumulative mass of the values below v
    already exceeds i/b, and its bin is the number of edges i/b that mass
    exceeds. The cumulative mass is a running sum over each profile's
    runs, restarted for each profile.
    """
    run_mass = np.add.reduceat(profiles.g_mass, profiles.run_starts)
    below = np.zeros(run_mass.size)
    firsts = np.append(np.flatnonzero(new), new.size).tolist()
    for lo, hi in zip(firsts[:-1], firsts[1:]):
        if hi - lo > 1:
            below[lo + 1 : hi] = np.cumsum(run_mass[lo : hi - 1])
    bins = np.searchsorted(np.arange(1, b) / b, below, side="left")
    new[1:] |= bins[1:] != bins[:-1]


# ---------------------------------------------------------------------------
# Explicit partition builder
# ---------------------------------------------------------------------------


def partition_for_spec(g: FactoidDist, spec: BinningSpec) -> Partition:
    """The bins spec builds from g as an explicit partition of g's atoms,
    for small universes. Empty bins are dropped, so an adaptive or
    fixed-width spec may give fewer blocks than it has nominal bins."""
    _check_materializable(g.universe)
    vals = _dense_weights(g)
    profile = SortedProfiles(vals, vals, np.ones(vals.size), (0, vals.size))
    starts = _block_starts_for_spec(profile, spec)
    # atom profile.order[j] joins the group holding position j
    labels = np.empty(vals.size, dtype=np.intp)
    labels[profile.order] = np.repeat(np.arange(starts.size), np.diff(np.append(starts, vals.size)))
    return Partition(g.universe, labels)


# ---------------------------------------------------------------------------
# Reliability rows
# ---------------------------------------------------------------------------


def reliability_rows(
    g_mass: np.ndarray, p_mass: np.ndarray, sizes: np.ndarray
) -> list[tuple[float, float, float, int]]:
    """Rows (mean bin g-value, bin g-mass, bin p-mass, bin size), one per
    bin, ascending by bin value."""
    rows = [
        (g / size, g, p, int(size))
        for g, p, size in zip(g_mass.tolist(), p_mass.tolist(), sizes.tolist())
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
    check_count(size, "universe size", 1, PARTITION_LIMIT, "atoms to partition", PartitionError)
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
