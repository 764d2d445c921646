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
array ever has the size of the universe. There is no per-atom view of a
distribution; weight(y) and weights_at(atoms) read the atoms asked for.

The constructor fails closed: unsorted or duplicate keys, keys outside
the universe, NaN, infinite or negative weights and a non-finite or
negative background are rejected. The module constructors also
normalize; zero-sum input is rejected.

Because a distribution is immutable, it caches two derived tables for
callers that reuse it:

* the inverse-CDF table sample_iid and sample_counts draw through: the
  cumulative weights of the positive atoms (the background as one last
  bucket), the atom of each slot in increasing order, and a guide table
  of m buckets, the least power of two >= |cum| (so a bucket is no
  wider than the mean slot), guide[j] = searchsorted(cum, j/m,
  "right"). A draw u starts at guide[floor(u*m)] and steps forward while
  cum[slot] <= u; the few draws still open after a fixed number of steps
  fall back to searchsorted, so every slot equals plain inversion. It is
  built on the first draw. sample_iid returns the drawn atoms in draw
  order; sample_counts counts the drawn slots instead and returns each
  drawn atom once with its count, so a caller that needs only the counts
  (every training sample in the harness) never builds or sorts the n
  draws.
* an exact expansion of sum(values): a few non-overlapping floats whose
  exact sum is the exact sum of the weights, so the mass of all explicit
  atoms but a few is fsum(expansion - those few), correctly rounded in
  O(few). It is built only on request (_expand_total), by callers that
  take many missing masses of one fixed p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import DistributionError, UniverseMismatchError, check_count
from .rng import SeededRng

__all__ = [
    "BOTTOM",
    "FactoidUniverse",
    "FactoidDist",
    "dist_from_arrays",
    "dist_from_weights",
    "uniform_dist",
    "tv_distance_forms",
    "sample_iid",
    "sample_counts",
    "keyed_profile",
    "ProfileBatch",
    "join_profiles",
    "kl_divergences",
    "with_bottom",
    "random_dist",
]

#: Index of the empty fact. Fixed package-wide so nothing needs to thread
#: a per-universe bottom id around.
BOTTOM = 0

_NO_KEYS = np.zeros(0, dtype=np.int64)
_NO_KEYS.flags.writeable = False

#: Guide-table steps a draw may take before it falls back to searchsorted.
#: Two steps resolve 97% of the draws from a 10^4-atom Zipf p, whose light
#: atoms crowd up to six into one bucket; each step is a pass over all n
#: draws, so more steps cost more than the fallback they save.
_GUIDE_STEPS = 2

#: sample_counts counts the slots of a table of at most
#: _COUNT_BASE_SLOTS + _COUNT_SLOTS_PER_DRAW * n slots with one bincount
#: over the table, and the slots of a larger table by sorting the n slots.
#: Bincount costs O(n + table), with cache misses once the table outgrows
#: the cache; sorting costs O(n log n). Timed on one core (numpy 2.4, Zipf
#: and uniform slots), the two break even at about 10^4 slots for n = 250,
#: 1.4 * 10^4 for n = 1000, 3 * 10^4 for n = 4000 and 6 * 10^5 for
#: n = 1.6 * 10^5, which the affine rule follows.
_COUNT_BASE_SLOTS = 8192
_COUNT_SLOTS_PER_DRAW = 4


@dataclass(frozen=True)
class FactoidUniverse:
    """The index set of factoids, bottom included.

    size counts every factoid, bottom among them, so the number of
    "real" candidate facts and hallucinations is size - 1.
    """

    size: int

    def __post_init__(self):
        # indices are int64 throughout
        check_count(self.size, "universe size", 2, 2**63 - 1)

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


_BOTTOM_KEY = np.array([BOTTOM], dtype=np.int64)
_BOTTOM_KEY.flags.writeable = False


def with_bottom(keys: np.ndarray) -> np.ndarray:
    """A strictly increasing atom array with the empty fact added."""
    if keys.size and keys[0] == BOTTOM:
        return keys
    return np.concatenate((_BOTTOM_KEY, keys))


def _sorted_keys(
    universe: FactoidUniverse, atoms, column: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """atoms as a fresh int64 array, checked to be integers, strictly
    increasing and inside the universe, and column, flattened, checked to
    be parallel to it."""
    raw = np.asarray(atoms)
    if raw.size and raw.dtype.kind not in "iu":
        raise DistributionError(f"factoid indices must be integers, got dtype {raw.dtype}")
    keys = raw.astype(np.int64).ravel()
    column = column.ravel()
    if keys.shape != column.shape:
        raise DistributionError(f"{keys.size} atoms but {column.size} entries; arrays must be parallel")
    # uint64 atoms beyond the int64 range wrap negative and fail here
    if keys.size and not (keys[1:] > keys[:-1]).all():
        raise DistributionError("atoms must be strictly increasing (sorted, no duplicates)")
    if keys.size and (keys[0] < 0 or keys[-1] >= universe.size):
        bad = keys[0] if keys[0] < 0 else keys[-1]
        raise DistributionError(f"factoid index {bad} outside universe of size {universe.size}")
    return keys, column


def _lookup(keys: np.ndarray, atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of atoms in the sorted key array and a mask of which are
    present (positions of absent atoms are clipped and meaningless)."""
    if keys.size == 0:
        return np.zeros(atoms.shape, dtype=np.intp), np.zeros(atoms.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(keys, atoms), keys.size - 1)
    return pos, keys[pos] == atoms


def _explicit_at(keys, values, background: float, atoms) -> tuple[np.ndarray, np.ndarray]:
    """Weights of an int array of atoms under the distribution with these
    keys, values and background, and a mask of the atoms it holds
    explicitly (an explicit weight may equal the background)."""
    if keys.size == 0:
        return np.full(atoms.shape, background), np.zeros(atoms.shape, dtype=bool)
    pos, hit = _lookup(keys, atoms)
    return np.where(hit, values[pos], background), hit


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
    # exact expansion of sum(values); None until _expand_total builds it
    _total_parts: tuple[float, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        background = float(self.background)
        if not (math.isfinite(background) and background >= 0.0):
            raise DistributionError(f"background weight must be finite and >= 0, got {background}")
        keys, values = _sorted_keys(self.universe, self.keys, np.array(self.values, dtype=np.float64))
        if keys.size and not (values.min() >= 0.0 and np.isfinite(values).all()):
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
        return _explicit_at(self.keys, self.values, self.background, atoms)[0]

    def total_mass(self) -> float:
        rest = self.universe.size - self.keys.size
        return math.fsum(self.values.tolist()) + self.background * rest

    # -- cached tables (see the module docstring) --------------------------

    def _expand_total(self) -> tuple[float, ...]:
        """Non-overlapping floats whose exact sum is the exact sum of the
        values, largest first; built once, on the first call.

        Each part is the correctly rounded rest of the exact total after
        the parts before it, so the rest shrinks by about 2^-53 a part and
        reaches 0 (every weight is a multiple of 2^-1074)."""
        if self._total_parts is None:
            values = self.values.tolist()
            parts: list[float] = []
            while (rest := math.fsum([*values, *(-x for x in parts)])) != 0.0:
                parts.append(rest)
            object.__setattr__(self, "_total_parts", tuple(parts))
        return self._total_parts

    @cached_property
    def _inverse_cdf(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cum, atoms, guide) for sample_iid: cumulative weights of the
        positive atoms and of the background bucket, the last raised to at
        least 1 so every u in [0, 1) lands; the atom of each slot (-1 for
        the background bucket); and the guide table.
        """
        pos = self.values > 0.0
        bg_total = self.background * (self.universe.size - self.keys.size)
        probs = np.append(self.values[pos], bg_total) if bg_total > 0.0 else self.values[pos]
        if probs.size == 0:
            raise DistributionError("distribution has no positive mass")
        cum = np.cumsum(probs)
        cum[-1] = max(cum[-1], 1.0)
        atoms = np.append(self.keys[pos], -1) if bg_total > 0.0 else self.keys[pos]
        # guide[j] counts the cum entries <= j/m. With m a power of two,
        # cum*m is exact, and cum[i] <= j/m exactly when j >= ceil(cum[i]*m).
        m = 1 << (cum.size - 1).bit_length()
        first = np.minimum(np.ceil(cum * m), m).astype(np.intp)
        guide = np.cumsum(np.bincount(first, minlength=m + 1)[:m])
        for table in (cum, atoms, guide):
            table.flags.writeable = False
        return cum, atoms, guide


def _normalized(size: int, keys, values, background: float) -> tuple[np.ndarray, np.ndarray, float]:
    """dist_from_arrays's normalization of valid arrays on a universe of
    `size` atoms, as (keys, values, background)."""
    rest = size - keys.size
    total = math.fsum(values.tolist()) + background * rest
    if total <= 0.0:
        raise DistributionError("weights sum to zero; at least one must be positive")
    if not math.isfinite(total):
        raise DistributionError("weights sum is not finite")
    values = values / total
    # a background no atom carries normalizes to 0, even over a subnormal total
    background = background / total if rest else 0.0
    if background == 0.0:
        pos = values > 0.0
        keys, values = keys[pos], values[pos]
    return keys, values, background


def dist_from_arrays(
    universe: FactoidUniverse, keys, values, background: float = 0.0
) -> FactoidDist:
    """Normalized distribution from strictly increasing keys, their
    non-negative weights and a background weight for every other atom.

    Rejects what the FactoidDist constructor rejects, plus all-zero and
    non-finite totals. With no background, zero-weight keys are dropped.
    """
    raw = FactoidDist(universe, keys, values, background)
    return FactoidDist(universe, *_normalized(universe.size, raw.keys, raw.values, raw.background))


def _sorted_items(weights: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    # keys keep their own dtype, so the constructor's integer check
    # rejects a float key
    keys = np.asarray(list(weights.keys()))
    values = np.asarray(list(weights.values()), dtype=np.float64)
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


def dist_from_weights(universe: FactoidUniverse, weights: Mapping[int, float]) -> FactoidDist:
    """Build a sparse distribution from non-negative weights; normalizes.

    Rejects all-zero input, any negative weight, non-integer keys and
    out-of-range indices. Atoms absent from the map have probability zero.
    """
    return dist_from_arrays(universe, *_sorted_items(weights))


def uniform_dist(universe: FactoidUniverse) -> FactoidDist:
    return FactoidDist(universe, _NO_KEYS, (), 1.0 / universe.size)


# -- paired atom classes --------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProfileBatch:
    """Paired atom-class profiles of one or more pairs of distributions,
    joined end to end.

    Profile t holds classes bounds[t]:bounds[t+1]: one class per key of
    the union of the pair's explicit atoms, in increasing order, then one
    rest class for the atoms neither distribution holds, if any are left.
    w1 and w2 are the two weights of each class and counts its number of
    atoms. halluc_rate[t] is 1 minus the mass the second distribution puts
    on the facts, the atoms the first weights positively and the empty
    fact, clamped at 0. A batch has O(#explicit atoms) classes even on
    huge universes.
    """

    w1: np.ndarray
    w2: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray
    halluc_rate: np.ndarray


def _pair_profile(size: int, side1: tuple, side2: tuple) -> ProfileBatch:
    """The paired profile, as a batch of one, of two distributions on a
    universe of `size` atoms, each given as (keys, values, background):
    a class per key of either, then the rest class, keyed by `size` and
    weighted by the backgrounds, unless the keys cover the universe."""
    # the key arrays and the rest key are sorted runs, which the stable
    # sort (timsort on int64) merges in linear time; np.unique without
    # counts would take a hash-based route an order of magnitude slower on
    # spread-out atoms
    keys = np.sort(np.concatenate((side1[0], side2[0], (size,))), kind="stable")
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    w1, in1 = _explicit_at(*side1, keys)
    w2, in2 = _explicit_at(*side2, keys)
    # the mass on the facts: the fsum of the second side's explicit weights
    # there, plus its background times the facts it does not hold (the
    # empty fact among them when neither side holds it)
    facts = in1 & (w1 > 0.0)
    facts[0] |= keys[0] == BOTTOM
    plain = int(np.count_nonzero(facts & ~in2)) + int(keys[0] != BOTTOM)
    rate = max(0.0, 1.0 - (math.fsum(w2[facts & in2].tolist()) + side2[2] * plain))
    counts = np.ones(keys.size)
    counts[-1] = rest = size - (keys.size - 1)
    if not rest:
        w1, w2, counts = w1[:-1], w2[:-1], counts[:-1]
    return ProfileBatch(w1, w2, counts, np.array([0, w1.size]), np.array([rate]))


def keyed_profile(d1: FactoidDist, d2: FactoidDist) -> ProfileBatch:
    """The paired profile of two distributions over one universe, as a
    batch of one: both weights on the union of their explicit atoms, the
    rest class, and the hallucination rate of d2 in the world of d1."""
    if d1.universe != d2.universe:
        raise UniverseMismatchError(
            f"universe mismatch: size {d1.universe.size} vs {d2.universe.size}"
        )
    return _pair_profile(
        d1.universe.size, (d1.keys, d1.values, d1.background), (d2.keys, d2.values, d2.background)
    )


def join_profiles(batches: Sequence[ProfileBatch]) -> ProfileBatch:
    """One or more batches as one, in the order given."""

    def joined(field: str) -> np.ndarray:
        return np.concatenate([getattr(b, field) for b in batches])

    # each batch's bounds, shifted by the classes of the batches before it
    tops = np.array([b.bounds[-1] for b in batches])
    shifts = np.repeat(np.cumsum(tops) - tops, [b.bounds.size - 1 for b in batches])
    bounds = np.concatenate(([0], np.concatenate([b.bounds[1:] for b in batches]) + shifts))
    return ProfileBatch(joined("w1"), joined("w2"), joined("counts"), bounds, joined("halluc_rate"))


# -- metrics ---------------------------------------------------------------


def tv_distance_forms(
    d1: FactoidDist, d2: FactoidDist, exhaustive_limit: int = 12
) -> tuple[float, float, float]:
    """The three equivalent total-variation formulas, for cross-checking.

    Returns (half_l1, positive_part_sum, subset_max). The subset maximum
    is max |d1(S) - d2(S)| over all 2^|Y| subsets S, read off the subset
    table of the atomwise gaps d1 - d2, when the universe is small enough;
    otherwise it is the positive part, the gap of the witness set where
    d1 exceeds d2 (which attains the maximum).
    """
    profile = keyed_profile(d1, d2)
    gaps = profile.w1 - profile.w2
    half_l1 = 0.5 * float(np.sum(profile.counts * np.abs(gaps)))
    pos_part = float(np.sum(profile.counts * np.clip(gaps, 0.0, None)))
    size = d1.universe.size
    if size > check_count(exhaustive_limit, "exhaustive_limit", 0):
        return half_l1, pos_part, pos_part
    atoms = np.arange(size)
    subset_gaps = _subset_table(np.add, d1.weights_at(atoms) - d2.weights_at(atoms), 0.0)
    return half_l1, pos_part, float(np.abs(subset_gaps).max())


def _subset_table(
    op: np.ufunc, values: np.ndarray, start, out: np.ndarray | None = None
) -> np.ndarray:
    """op folded over every subset of the atoms of `values` (axis 0), one
    call per atom: row `mask` of the table is start, then values[y] for
    each bit y of mask in atom order, as T[2^h : 2^(h+1)] = op(T[:2^h],
    values[h]). Written into `out` when given."""
    size = len(values)
    if out is None:
        out = np.empty((1 << size,) + values.shape[1:], dtype=values.dtype)
    out[0] = start
    for h in range(size):
        op(out[: 1 << h], values[h], out=out[1 << h : 2 << h])
    return out


def kl_divergences(batch: ProfileBatch) -> list[float]:
    """KL(first || second) in nats of each profile of a batch; +inf where
    the second misses support of the first. A profile's terms are summed
    alone, over its own classes in order, as np.sum sums one profile."""
    pos = batch.w1 > 0.0
    starts = batch.bounds[:-1]
    missed = np.logical_or.reduceat(pos & (batch.w2 <= 0.0), starts)
    pos &= np.repeat(~missed, np.diff(batch.bounds))
    w1p = batch.w1[pos]
    logs = np.divide(w1p, batch.w2[pos])
    np.log(logs, out=logs)
    terms = batch.counts[pos]
    terms *= w1p
    terms *= logs
    cuts = np.cumsum(np.add.reduceat(pos, starts)).tolist()
    return [
        math.inf if lost else float(np.add.reduce(terms[a:b]))
        for lost, a, b in zip(missed.tolist(), [0, *cuts], cuts)
    ]


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
    check_count(support_size, "support size", 1, universe.size)
    atoms = gen.choice(universe.size, size=support_size, replace=False)
    raw = gen.random(support_size) + 1e-9
    order = np.argsort(atoms)
    return dist_from_arrays(universe, atoms[order], raw[order])


def _guided_slots(cum: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cum, u, side="right") through the guide table: each u
    starts at its bucket's first candidate and steps forward, and the
    draws still open after _GUIDE_STEPS steps fall back to searchsorted."""
    slots = guide[(u * guide.size).astype(np.intp)]
    for _ in range(_GUIDE_STEPS):
        step = cum[slots] <= u
        if not step.any():
            return slots
        slots += step
    still = np.flatnonzero(cum[slots] <= u)
    slots[still] = np.searchsorted(cum, u[still], side="right")
    return slots


def sample_iid(d: FactoidDist, n: int, rng: SeededRng) -> np.ndarray:
    """n independent draws from d, in draw order, as an int64 array.

    Deterministic given the rng seed. Each draw inverts one uniform u
    through d's cached guide table (see the module docstring), which picks
    the same slot as searchsorted(cum, u, "right"). Background mass is drawn
    by inverting into a virtual bucket and then rejection-sampling a
    uniform non-special atom, which is exact. Callers that need only how
    often each atom was drawn use sample_counts, which reads the same
    stream and never builds the n-long array.
    """
    check_count(n, "sample size", 1)
    gen = rng.generator
    cum, atoms, guide = d._inverse_cdf
    out = atoms[_guided_slots(cum, guide, gen.random(n))]
    background_positions = np.flatnonzero(out == -1)
    if background_positions.size:
        out[background_positions] = _background_atoms(d, background_positions.size, gen)
    return out


def _background_atoms(d: FactoidDist, count: int, gen: np.random.Generator) -> np.ndarray:
    """count uniform atoms outside d's explicit keys, one rejection loop per
    atom in turn; zero-weight explicit atoms stay unreachable too."""
    special_set = set(d.keys.tolist())
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        cand = int(gen.integers(0, d.universe.size))
        while cand in special_set:
            cand = int(gen.integers(0, d.universe.size))
        out[i] = cand
    return out


def sample_counts(d: FactoidDist, n: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """The distinct atoms of sample_iid(d, n, rng), in increasing order, and
    how often each was drawn; rng's generator ends in the same state.

    The n uniforms are inverted to slots of d's inverse-CDF table as in
    sample_iid, and the slots are counted, not the atoms: the table's atom
    column is sorted, so the atoms of the counted slots come out in order
    and no n-long atom array is built. A table of at most 8192 + 4n slots
    is counted with one bincount over the table, a larger one by sorting
    the n slots (see _COUNT_BASE_SLOTS for the measured crossover).
    Background draws, whose atoms are outside the table, take their
    rejection loops in draw order as in sample_iid and are merged in.
    """
    check_count(n, "sample size", 1)
    gen = rng.generator
    cum, atoms, guide = d._inverse_cdf
    slots = _guided_slots(cum, guide, gen.random(n))
    if cum.size <= _COUNT_BASE_SLOTS + _COUNT_SLOTS_PER_DRAW * n:
        counts = np.bincount(slots, minlength=cum.size)
        # nonzero of a bool array is several times faster than of an int one
        seen = np.flatnonzero(counts != 0)
        counts = counts[seen]
    else:
        seen, counts = np.unique(slots, return_counts=True)
    keys = atoms[seen]
    if keys[-1] != -1:
        return keys, counts
    # the background bucket is the table's last slot
    bg_keys, bg_counts = np.unique(_background_atoms(d, int(counts[-1]), gen), return_counts=True)
    keys = np.concatenate((keys[:-1], bg_keys))
    counts = np.concatenate((counts[:-1], bg_counts))
    order = np.argsort(keys, kind="stable")
    return keys[order], counts[order]
