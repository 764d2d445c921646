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
array ever has the size of the universe. There is no public per-atom
view of a distribution; weight(y) and weights_at(atoms) read the atoms
asked for, and _dense_weights lays out a |Y|-long table for the few
callers that already bound |Y|: by MATERIALIZE_LIMIT, by a per-atom
Partition they are given, or by an exhaustive enumeration's limit.

The constructor fails closed: unsorted or duplicate keys, keys outside
the universe, NaN, infinite or negative weights and a non-finite or
negative background are rejected. The module constructors also
normalize; zero-sum input and a total that overflows are rejected.
Each distribution is checked once, where its arrays come from outside
the library: dist_from_arrays checks its input and then builds the
normalized result through _valid_dist, which checks nothing, as
_normalized keeps checked arrays valid; a power-law or multi-type world
draw builds its p the same way (worlds._template_world) from distinct
sorted atoms and the model's checked template. Nothing else calls
_valid_dist.

A (p, g) pair is laid out as one paired atom-class profile by one
function, _pair_profile, which takes each side as its keys other than
the empty fact, that fact's weight (None where the side lacks it), its
values and its background. g's keys must lie among p's, bar the empty
fact, as they do for every g trained on a sample from p, so one search
of g's keys in p's finds every class. Any other pair is refused.
keyed_profile splits the empty fact off two whole distributions, and
_type_profiles lays out each type's local pair in a multi-type world
from p's and g's projections onto the type, cut straight out of their
whole-world arrays, with no projection built. Each side is scaled onto
each type (its local empty fact, its total, its values divided, zeros
dropped) by _type_scales, read through a memo a run keeps (_TypeScales)
that returns a side's last scales while consecutive calls pass the same
values array, background, cuts and type sizes. Every draw of a
multi-type model whose rank templates each hold one value holds its
shared table's weights (_shared_table), the templates end to end, as
its values, so a run of them scales p once, and an oracle's g, which is
p, once more; any other input is scaled afresh.

Because a distribution is immutable, it caches the inverse-CDF table
the samplers draw through (_InverseCdf): the cumulative weights of the
positive atoms, the atom and the weight of each slot in increasing atom
order, and a guide table of m buckets, the least power of two >= |cum|
(so a bucket is no wider than the mean slot), guide[j] =
searchsorted(cum, j/m, "right"). A draw u starts at guide[floor(u*m)]
and steps forward while cum[slot] <= u; the few draws still open after
a fixed number of steps fall back to searchsorted, so every slot equals
plain inversion.
Training data are draws from a world's fact distribution, whose facts
are its support, so the table holds explicit atoms only: a distribution
whose background some atom outside its keys carries is refused before
any uniform is drawn. The table is built on the first draw, or shared:
the draws of a world model whose rank template holds one value all have
the same weights in key order, so the model builds one table
(_shared_table) and _share_inverse_cdf, the one place outside
_inverse_cdf that writes a table, hands each draw its cum, guide and
slot weights with the draw's own keys as the atom column; the shared
arrays are read-only like every table. No module but this one reads or
builds a table.

sample_iid returns one stream's draws in order. Every training sample
is drawn and counted by _counted_samples instead, a chunk of streams at
a time (at most _CHUNK_DRAWS draws a chunk, closed early once its
streams keep _CHUNK_SLOTS table slots alive), and never built or sorted
as n draws: each stream fills its own row of n uniforms, and _count_rows
inverts the rows, in one pass when they share one table, and counts them
together, by one bincount over the tables laid end to end or, on tables
much larger than the draws, by sorting each row (see _COUNT_BASE_SLOTS
for the measured crossover). Each sample comes back as its distinct
atoms in increasing order, their counts and their slots in the table,
and _SlotMasses reads its missing mass off those slots.

Every exact sum in the package, here and in worlds, is math.fsum over
the array's buffer, fsum(memoryview(a)), with any extra terms chained in
front. fsum sees the same floats as over a.tolist() and rounds
correctly, so the float is the same, but no Python list is built: at
10^3 weights the sum costs about 50-60% of the list route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    "sample_iid",
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

#: _count_rows counts a chunk of rows of n slots each with one bincount
#: over the rows' tables laid end to end when those hold at most
#: _COUNT_BASE_SLOTS + _COUNT_SLOTS_PER_DRAW * rows * n slots, and by
#: sorting each row's slots otherwise. Bincount costs O(n + size) a row,
#: with cache misses once the tables outgrow the cache, plus a fixed cost
#: a pass; sorting costs O(n log n) a row. Timed on one core of a Xeon
#: (numpy 2.4, Zipf and uniform slots, chunks of _CHUNK_DRAWS draws), the
#: two break even at about 3n slots for n = 500 and 1000, 3.5n for
#: n = 2000 and 4000, and 2.8n-3.5n for one row of n = 64000; one row of
#: n <= 4000 favours bincount up to 3500-35000 slots, where the fixed cost
#: of a pass weighs most. The rule follows both: the Good-Turing suite's
#: 10^4-slot table at n = 1000, 16 rows a pass, is sorted (7 us a row
#: against 14-24 us for bincount), and the README world's 1000-slot table
#: at n = 2000 is counted by bincount.
_COUNT_BASE_SLOTS = 8192
_COUNT_SLOTS_PER_DRAW = 3

#: Most draws one chunk of _counted_samples inverts and counts at once; a
#: stream of more draws is a chunk of its own, so a chunk's working arrays
#: stay at one sample's scale. The limit is set by memory: on a 10^4-atom
#: Zipf p at n = 1000, the concentration suite's peak RSS rose by about
#: 0.4 MB (0.9%) at 2^15 draws a chunk and by under 0.1 MB at 2^14, while
#: its trials/s was the same within its spread.
_CHUNK_DRAWS = 1 << 14
#: Most table slots the streams of one chunk keep alive before it closes.
#: A world drawn for a stream keeps its keys, its weights and, unless its
#: model shares one table, a table of its own until its chunk is counted,
#: about 16-40 bytes a slot, so without this limit a chunk of small-n
#: streams on large worlds would hold thousands of worlds at once. A
#: chunk closes once its streams keep this many slots, so it holds fewer
#: before its last stream, and a stream on a larger world is a chunk of
#: its own. Worlds of no more facts than draws, as every benchmarked
#: config draws, never reach it before _CHUNK_DRAWS.
_CHUNK_SLOTS = 1 << 14


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


def _explicit_at(keys, values, background: float, atoms) -> np.ndarray:
    """Weights of an int array of atoms under the distribution with these
    keys, values and background."""
    if keys.size == 0:
        return np.full(atoms.shape, background)
    pos, hit = _lookup(keys, atoms)
    return np.where(hit, values[pos], background)


def _mass_sum(terms) -> float:
    """math.fsum of non-negative terms, or inf where their sum overflows
    (fsum raises OverflowError on an intermediate overflow instead)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class FactoidDist:
    """Probability distribution over one universe.

    keys lists the explicitly weighted atoms in strictly increasing order
    and values their weights; every other atom carries the background
    weight. The constructor checks the arrays, copies them and makes them
    read-only, so instances are immutable and safe to share; _valid_dist
    builds the same instance on arrays already known valid, unchecked
    and uncopied. Use the module constructors below (which also
    normalize) rather than calling this class directly.
    """

    universe: FactoidUniverse
    keys: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    background: float = 0.0

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
        return _explicit_at(self.keys, self.values, self.background, atoms)

    def total_mass(self) -> float:
        rest = self.universe.size - self.keys.size
        return _mass_sum(memoryview(self.values)) + self.background * rest

    # -- cached table (see the module docstring) ---------------------------

    @cached_property
    def _inverse_cdf(self) -> _InverseCdf:
        """The samplers' table. Refuses a background that an atom outside
        the keys carries."""
        rest = self.universe.size - self.keys.size
        if self.background * rest > 0.0:
            raise DistributionError(
                f"cannot sample a distribution with background weight {self.background} "
                f"on {rest} atoms outside its keys; sampling needs a sparse distribution"
            )
        pos = self.values > 0.0
        if not pos.any():
            raise DistributionError("distribution has no positive mass")
        if pos.all():
            atoms, weights = self.keys, self.values
        else:
            atoms, weights = self.keys[pos], self.values[pos]
        cum = np.cumsum(weights)
        cum[-1] = max(cum[-1], 1.0)
        # guide[j] counts the cum entries <= j/m. With m a power of two,
        # cum*m is exact, and cum[i] <= j/m exactly when j >= ceil(cum[i]*m).
        m = 1 << (cum.size - 1).bit_length()
        first = np.minimum(np.ceil(cum * m), m).astype(np.intp)
        guide = np.cumsum(np.bincount(first, minlength=m + 1)[:m])
        table = _InverseCdf(cum, atoms, guide, weights)
        for column in table:
            column.flags.writeable = False
        return table


def _valid_dist(
    universe: FactoidUniverse, keys: np.ndarray, values: np.ndarray, background: float = 0.0
) -> FactoidDist:
    """The FactoidDist of arrays already known to pass its checks, built
    with none: int64 keys, strictly increasing and inside the universe,
    parallel float64 values, each finite and >= 0, both C-contiguous, and
    a float background, finite and >= 0. The arrays are made read-only,
    not copied, so neither may be an array anyone else can write; one
    already read-only, such as a world model's rank template, may be
    shared."""
    keys.flags.writeable = False
    values.flags.writeable = False
    d = object.__new__(FactoidDist)
    # set one by one in field order, as __init__ does: writing __dict__
    # itself would give d a dict of its own, and every attribute read of d
    # a slower lookup (CPython 3.11)
    object.__setattr__(d, "universe", universe)
    object.__setattr__(d, "keys", keys)
    object.__setattr__(d, "values", values)
    object.__setattr__(d, "background", background)
    return d


class _InverseCdf(NamedTuple):
    """A distribution's inverse-CDF table (see the module docstring); its
    arrays are read-only."""

    #: cumulative weights of the positive atoms, the last raised to at
    #: least 1 so every u in [0, 1) lands
    cum: np.ndarray
    #: the atom of each slot, in increasing order
    atoms: np.ndarray
    #: the guide table
    guide: np.ndarray
    #: the weight of each slot
    weights: np.ndarray


def _share_inverse_cdf(d: FactoidDist, table: _InverseCdf) -> FactoidDist:
    """d, its inverse-CDF table set to table with d's keys as the atoms: a
    table shared by many distributions. table must be what _inverse_cdf
    builds on weights equal to d's values bit for bit, every one positive,
    so that it is the table d would build, and d must carry no background:
    a shared table skips _inverse_cdf's refusal."""
    d.__dict__["_inverse_cdf"] = table._replace(atoms=d.keys)
    return d


def _shared_table(universe: FactoidUniverse, templates: tuple[np.ndarray, ...]) -> _InverseCdf | None:
    """The inverse-CDF table of every world draw whose types' rank
    templates each hold one positive value, else None.

    Such a draw's values are the templates end to end whichever atoms it
    draws, so its table is the one _inverse_cdf builds on those weights,
    here on keys 1, 2, ... in place of the draw's atoms; only the atom
    column differs from draw to draw (_share_inverse_cdf). The table's
    weights are those values, read-only, and a multi-type draw holds
    that one array as its values."""
    if not all(t[0] > 0.0 and (t == t[0]).all() for t in templates):
        return None
    weights = np.concatenate(templates)
    table = FactoidDist(universe, np.arange(1, weights.size + 1), weights)._inverse_cdf
    # each draw's own keys fill the atom column, so keys 1, 2, ... are not kept
    return table._replace(atoms=_NO_KEYS)


def _checked_total(terms, rest_mass: float) -> float:
    """The normalizing total, the fsum of terms plus rest_mass (the
    background's share), refused unless finite and positive."""
    total = _mass_sum(terms) + rest_mass
    if total <= 0.0:
        raise DistributionError("weights sum to zero; at least one must be positive")
    if not math.isfinite(total):
        raise DistributionError("weights sum is not finite")
    return total


def _normalized(size: int, keys, values, background: float) -> tuple[np.ndarray, np.ndarray, float]:
    """dist_from_arrays's normalization of valid arrays on a universe of
    `size` atoms, as (keys, values, background). They stay valid: the
    values are divided by a finite positive total, so each stays finite,
    >= 0 and fresh, and the keys kept stay strictly increasing (fresh
    when masked, else the keys given)."""
    rest = size - keys.size
    total = _checked_total(memoryview(values), background * rest)
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
    The input is checked once; its normalization keeps it valid and is
    not checked again.
    """
    raw = FactoidDist(universe, keys, values, background)
    return _valid_dist(universe, *_normalized(universe.size, raw.keys, raw.values, raw.background))


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


def _dense_weights(d: FactoidDist) -> np.ndarray:
    """Every atom's weight in atom order, a |Y|-long table: the background
    everywhere, then the explicit weights at their keys. The same floats
    weights_at gives for every atom, without a search per atom. Only for
    callers that already bound |Y|: partition_for_spec by
    MATERIALIZE_LIMIT, verify_theorem_main_mc by the per-atom Partition
    it is given, and the lemma sweep by its exhaustive limit."""
    dense = np.full(d.universe.size, d.background)
    dense[d.keys] = d.values
    return dense


# -- paired atom classes --------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProfileBatch:
    """Paired atom-class profiles of one or more pairs of distributions,
    joined end to end.

    Profile t holds classes bounds[t]:bounds[t+1]: one class per explicit
    atom of the pair, in increasing order (the first distribution's keys,
    after the empty fact when only the second holds it), then one rest
    class for the atoms neither distribution holds, if any are left.
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


def _pair_profile(
    size: int, keys1: np.ndarray, side1: tuple, keys2: np.ndarray, side2: tuple, name: Callable[[int], str]
) -> ProfileBatch:
    """The paired profile, as a batch of one, of two distributions on a
    universe of `size` atoms. Each side is given as its keys other than
    the empty fact and (empty, values, background), empty the empty
    fact's weight or None where the side lacks it. The second side's keys
    must lie among the first's, as for a world's p, or its projection onto
    one type, and a g trained on a sample from it; any other pair is
    refused with DistributionError, naming its first such atom y as
    name(y).

    One search of the second side's keys in the first's lays the pair
    out. The classes are the empty fact, when either side holds it, the
    first side's keys, then the rest class, keyed by `size` and weighted
    by the backgrounds, unless the keys cover the universe."""
    empty1, values1, background1 = side1
    empty2, values2, background2 = side2
    pos, hit = _lookup(keys1, keys2)
    if not hit.all():
        raise DistributionError(
            f"{name(int(keys2[int(np.argmin(hit))]))} is a key of the second distribution but not "
            "of the first; a profile lays out only a second side whose keys lie among the first's"
        )
    lead = int(empty1 is not None or empty2 is not None)
    w1 = np.empty(lead + values1.size + 1)
    w1[lead:-1] = values1
    w1[:lead] = background1 if empty1 is None else empty1
    w1[-1] = background1
    slots = pos + lead
    w2 = np.full(w1.size, background2)
    w2[slots] = values2
    if empty2 is not None:
        w2[0] = empty2
    # the second side's mass on the facts, the empty fact and the first
    # side's positive atoms: its weights there and its background on the rest
    facts = int(np.count_nonzero(values1))
    if facts < values1.size:
        values2 = values2[(values1 > 0.0)[pos]]
    held2 = () if empty2 is None else (empty2,)
    plain = 1 + facts - len(held2) - values2.size
    rate = max(0.0, 1.0 - (math.fsum(chain(held2, memoryview(values2))) + background2 * plain))
    counts = np.ones(w1.size)
    counts[-1] = rest = size - (w1.size - 1)
    if not rest:
        w1, w2, counts = w1[:-1], w2[:-1], counts[:-1]
    return ProfileBatch(w1, w2, counts, np.array([0, w1.size]), np.array([rate]))


def keyed_profile(d1: FactoidDist, d2: FactoidDist) -> ProfileBatch:
    """The paired profile of two distributions over one universe, as a
    batch of one: both weights on d1's explicit atoms (after the empty fact
    when only d2 holds it), the rest class, and the hallucination rate of
    d2 in the world of d1. d2's keys must lie among d1's, bar the empty
    fact, as a g trained on a sample from d1 has them; any other pair is
    refused with DistributionError."""
    if d1.universe != d2.universe:
        raise UniverseMismatchError(
            f"universe mismatch: size {d1.universe.size} vs {d2.universe.size}"
        )
    sides = []
    for d in (d1, d2):
        # the empty fact split off, the arrays as views
        cut = int(d.keys.size > 0 and d.keys[0] == BOTTOM)
        sides += [d.keys[cut:], (float(d.values[0]) if cut else None, d.values[cut:], d.background)]
    return _pair_profile(d1.universe.size, *sides, "atom {}".format)


def _local_scale(values: np.ndarray, background: float, size: int) -> tuple[float, float, float]:
    """(empty, total, background) of one side's projection onto a type of
    `size` local atoms, from the side's values in the type's range: its
    local empty fact takes the mass outside the range, and total is
    _normalized's total over that empty fact, the values and the
    background, which divides the other two."""
    rest = size - 1 - values.size
    # accumulated left to right in atom order, like a running sum
    range_mass = (float(np.cumsum(values)[-1]) if values.size else 0.0) + background * rest
    empty = max(0.0, 1.0 - range_mass)
    total = _checked_total(chain((empty,), memoryview(values)), background * rest)
    return empty / total, total, background / total if rest else 0.0


def _type_scales(d: FactoidDist, cuts: list[int], sizes: list[int]) -> list[tuple]:
    """d's projection onto each type, normalized, as ((empty, values,
    background), kept): type i holds d's keys cuts[i] to cuts[i + 1] - 1
    and sizes[i] local atoms, its empty fact included. The first is the
    side _pair_profile takes: the local empty fact's weight, or None
    where _normalized drops it, d's values in range divided by the total
    (_local_scale), read-only, a zero weight dropped as _normalized drops
    it, and the background's weight. kept is the mask of d's keys in
    range that keep theirs, or None for all."""
    scales = []
    for i, size in enumerate(sizes):
        part = d.values[cuts[i] : cuts[i + 1]]
        empty, total, background = _local_scale(part, d.background, size)
        values, kept = part / total, None
        if not background and not values.all():
            kept = values > 0.0
            values = values[kept]
        values.flags.writeable = False
        scales.append(((empty if background or empty else None, values, background), kept))
    return scales


class _TypeScales:
    """The per-type scales (_type_scales) of _type_profiles' two sides,
    kept per side while consecutive calls pass the same values array,
    background, cuts and type sizes, and worked out again on any other
    input. The draws of a model whose rank templates each hold one value
    share one values array and one set of cuts, so a run of them, and an
    oracle's g, which is p, scale each side once. The key is the values
    array, not the distribution, as in _SlotMasses; the background is
    keyed by its bits, since -0.0 == 0.0 yet scales to a background of
    other bits."""

    def __init__(self):
        self._last: list[tuple | None] = [None, None]

    def __call__(self, side: int, d: FactoidDist, cuts: list[int], sizes: list[int]) -> list[tuple]:
        key = (d.background.hex(), cuts, sizes)
        last = self._last[side]
        if last is not None and last[0] is d.values and last[1] == key:
            return last[2]
        scales = _type_scales(d, cuts, sizes)
        self._last[side] = (d.values, key, scales)
        return scales


def _type_profiles(
    p: FactoidDist, g: FactoidDist, edges: Sequence[int], scales: _TypeScales
) -> list[ProfileBatch]:
    """The paired profile of p's and g's projections onto each type, as a
    batch of one per type. Type i holds the global atoms edges[i] to
    edges[i + 1] - 1 as its local atoms 1, 2, ...; a projection keeps the
    weights and background there, and its local empty fact takes the rest
    of the mass, the shared empty fact's included, before it is normalized
    as dist_from_arrays normalizes.

    _pair_profile, keyed_profile's layout, lays out each type's pair from
    the two sides' keys in range and their scales, so each profile is the
    layout of the two projections by construction, and a pair it refuses
    is refused naming the type and the atom, global and local. No
    projection is built: one search of each side's keys finds the edges,
    and each side is scaled through the memo `scales` (a run passes one to
    every trial)."""
    sizes = [stop - start + 1 for start, stop in zip(edges, edges[1:])]
    cuts1 = np.searchsorted(p.keys, edges).tolist()
    cuts2 = np.searchsorted(g.keys, edges).tolist()
    sides1, sides2 = scales(0, p, cuts1, sizes), scales(1, g, cuts2, sizes)
    profiles = []
    for i, (start, size) in enumerate(zip(edges, sizes)):
        (side1, kept1), (side2, kept2) = sides1[i], sides2[i]
        keys1, keys2 = p.keys[cuts1[i] : cuts1[i + 1]], g.keys[cuts2[i] : cuts2[i + 1]]
        if kept1 is not None:
            keys1 = keys1[kept1]
        if kept2 is not None:
            keys2 = keys2[kept2]

        def name(y: int) -> str:
            return f"type {i}: atom {y} (local atom {y - (start - 1)})"

        profiles.append(_pair_profile(size, keys1, side1, keys2, side2, name))
    return profiles


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
    alone, over its own classes in order, as np.sum sums one profile.

    A term's log is log(w1 / w2), or log(w1) - log(w2) where the ratio
    overflows (a subnormal w2), so a second that covers the first's
    support gives a finite KL."""
    pos = batch.w1 > 0.0
    starts = batch.bounds[:-1]
    missed = np.logical_or.reduceat(pos & (batch.w2 <= 0.0), starts)
    pos &= np.repeat(~missed, np.diff(batch.bounds))
    w1p, w2p = batch.w1[pos], batch.w2[pos]
    with np.errstate(over="ignore"):
        logs = np.divide(w1p, w2p)
    np.log(logs, out=logs)
    over = np.isinf(logs)
    if over.any():
        logs[over] = np.log(w1p[over]) - np.log(w2p[over])
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
    the same slot as searchsorted(cum, u, "right"). d must be sparse: a
    background that an atom outside d's keys carries is refused before
    any uniform is drawn. The suites count their training samples
    through _counted_samples instead, which reads the same stream and
    never builds the n-long array.
    """
    check_count(n, "sample size", 1)
    table = d._inverse_cdf
    return table.atoms[_guided_slots(table.cum, table.guide, rng.generator.random(n))]


def _count_rows(tables: Sequence[_InverseCdf], u: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row t of u, uniforms in [0, 1), inverted through tables[t] and
    counted: per row, in order, its distinct slots in increasing order
    and how often each was drawn (each at least 1), as read-only intp
    arrays.

    Rows whose tables all share one cum array are inverted in one pass;
    otherwise each row is inverted through its own table. The rows are
    then counted together. When the tables, laid end to end, hold at most
    _COUNT_BASE_SLOTS + _COUNT_SLOTS_PER_DRAW * u.size slots, one bincount
    counts every row, each row's slots offset by the slots of the tables
    before it; otherwise each row's slots are sorted into runs.
    """
    cum, guide = tables[0].cum, tables[0].guide
    if all(table.cum is cum for table in tables):
        slots = _guided_slots(cum, guide, u.reshape(-1)).reshape(u.shape)
    else:
        slots = np.stack([_guided_slots(table.cum, table.guide, row) for table, row in zip(tables, u)])
    rows, n = slots.shape
    # row t's table holds slots starts[t]:starts[t + 1] of the tables end to end
    starts = np.cumsum([0] + [table.cum.size for table in tables])
    if starts[-1] <= _COUNT_BASE_SLOTS + _COUNT_SLOTS_PER_DRAW * slots.size:
        slots += starts[:-1, None]
        counts = np.bincount(slots.reshape(-1), minlength=starts[-1])
        # nonzero of a bool array is several times faster than of an int one
        seen = np.flatnonzero(counts != 0)
        counts = counts[seen]
        cuts = np.searchsorted(seen, starts).tolist()
        seen -= np.repeat(starts[:-1], np.diff(cuts))
    else:
        slots.sort(axis=1)
        flat = slots.reshape(-1)
        first = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=first[1:])
        first[::n] = True
        runs = np.flatnonzero(first)
        counts = np.diff(runs, append=flat.size)
        seen = flat[runs]
        cuts = np.searchsorted(runs, np.arange(rows + 1) * n).tolist()
    # the rows are views of these two, so no reader can write a row's arrays
    seen.flags.writeable = counts.flags.writeable = False
    for lo, hi in zip(cuts, cuts[1:]):
        yield seen[lo:hi], counts[lo:hi]


def _counted_samples(
    draws: Iterable[tuple[object, FactoidDist, np.random.Generator, int]], n: int
) -> Iterator[tuple[object, np.ndarray, np.ndarray, np.ndarray]]:
    """(item, atoms, counts, seen) per draw (item, p, generator, alive), in
    order: the distinct atoms of n i.i.d. draws from p on the generator, in
    increasing order, how often each was drawn, and their slots in p's table.

    A chunk takes at most _CHUNK_DRAWS // n draws (at least one) and closes
    once they keep _CHUNK_SLOTS slots alive (alive: the slots a draw's p
    keeps until its chunk is counted, 0 for a p that outlives it). Each p's
    table is fetched before its row of n uniforms is filled, so a refused p
    fails before any uniform is drawn; the chunk's rows are then counted
    together (_count_rows)."""
    rows = max(1, _CHUNK_DRAWS // n)
    draws = iter(draws)
    while True:
        items, tables, u, held = [], [], np.empty((rows, n)), 0
        for item, p, generator, alive in draws:
            tables.append(p._inverse_cdf)
            generator.random(out=u[len(items)])
            items.append(item)
            held += alive
            if len(items) == rows or held >= _CHUNK_SLOTS:
                break
        if not items:
            return
        for item, table, (seen, counts) in zip(items, tables, _count_rows(tables, u[: len(items)])):
            yield item, table.atoms[seen], counts, seen


def _expanded_total(values: np.ndarray) -> tuple[float, ...]:
    """Non-overlapping floats whose exact sum is the exact sum of values,
    largest first.

    Each part is the correctly rounded rest of the exact total after the
    parts before it, so the rest shrinks by about 2^-53 a part and reaches
    0 (every weight is a multiple of 2^-1074)."""
    parts: list[float] = []
    while (rest := math.fsum(chain((-x for x in parts), memoryview(values)))) != 0.0:
        parts.append(rest)
    return tuple(parts)


class _SlotMasses:
    """Missing masses read off counted samples (_counted_samples): the fsum
    of the weights of a sample's unseen slots in p's table, for a p with
    no mass on the empty fact, so every unseen slot's weight is missing
    mass.

    The sum is taken over the shorter side: the unseen weights directly,
    or the table's expanded total (_expanded_total) minus the seen
    weights. Both have the exact sum of the unseen weights, which fsum
    rounds correctly, so the float is the same. The expansion and the
    negated weights are worked out when the seen side is the shorter on a
    sample counted against the same weights array as the one before, and
    kept while the samples do so, so a table drawn for one sample never
    pays for them. The key is the weights array, not p: the draws of a
    model that shares one table are each a p of their own.
    """

    def __init__(self):
        self._weights: np.ndarray | None = None
        self._total: tuple[tuple[float, ...], np.ndarray] | None = None

    def __call__(self, p: FactoidDist, seen: np.ndarray) -> float:
        weights = p._inverse_cdf.weights
        repeated, self._weights = weights is self._weights, weights
        if not repeated:
            self._total = None
        elif 2 * seen.size < weights.size:
            if self._total is None:
                self._total = _expanded_total(weights), -weights
            parts, negated = self._total
            return math.fsum(chain(parts, memoryview(negated[seen])))
        unseen = np.ones(weights.size, dtype=bool)
        unseen[seen] = False
        return math.fsum(memoryview(weights[unseen]))
