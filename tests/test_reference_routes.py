"""Array fast paths against literal dict/Counter reference routes.

Every reader of the array-backed distribution and sample has a slow
reference here, written the obvious way over dicts, sets and Counters.
Random small universes cover a nonzero background, zero weights, and the
empty fact (key 0) both present and absent. Equality is exact: the fast
paths keep the reference arithmetic (math.fsum where it sums, elementwise
division, the same atom order), so not even the last bit may move.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factoidlab.dist import (
    BOTTOM,
    FactoidDist,
    FactoidUniverse,
    background_dist,
    mass_of_set,
    paired_profile,
    uniform_dist,
)
from factoidlab.errors import DistributionError
from factoidlab.estimators import TrainingSample, missing_mass, monofact_estimate
from factoidlab.lms import (
    Empirical,
    Laplace,
    MonofactMemorizer,
    Oracle,
    Uniform,
    YayMixture,
    train,
)

PROPERTY = settings(max_examples=100, deadline=None)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def dists(draw, size):
    """A normalized distribution with explicit weights (zeros allowed, key
    0 present or not) and, half the time, a positive background."""
    u = FactoidUniverse(size)
    weights = draw(
        st.dictionaries(
            st.integers(0, size - 1),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.0, 10.0),
            max_size=size,
        )
    )
    background = draw(st.sampled_from([0.0, 0.0, 0.1]) | st.floats(0.0, 1.0))
    background_covers = background > 0.0 and len(weights) < size
    if not background_covers and not any(w > 0.0 for w in weights.values()):
        weights[draw(st.integers(0, size - 1))] = 1.0
    return background_dist(u, weights, background)


@st.composite
def dist_pairs(draw):
    size = draw(st.integers(2, 12))
    return draw(dists(size)), draw(dists(size))


@st.composite
def samples(draw):
    size = draw(st.integers(2, 12))
    draws = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20))
    return FactoidUniverse(size), draws


# ---------------------------------------------------------------------------
# Reference routes
# ---------------------------------------------------------------------------


def special(d: FactoidDist) -> dict[int, float]:
    return dict(zip(d.keys.tolist(), d.values.tolist()))


def ref_weight(d: FactoidDist, y: int) -> float:
    return special(d).get(y, d.background)


def ref_paired_profile(d1, d2):
    keys = sorted(set(special(d1)) | set(special(d2)))
    w1 = [ref_weight(d1, y) for y in keys]
    w2 = [ref_weight(d2, y) for y in keys]
    counts = [1.0] * len(keys)
    rest = d1.universe.size - len(keys)
    if rest > 0:
        w1.append(d1.background)
        w2.append(d2.background)
        counts.append(float(rest))
    return np.array(w1), np.array(w2), np.array(counts)


def ref_mass_of_set(d, s):
    sp = special(d)
    atoms = set(s)
    n_plain = sum(1 for y in atoms if y not in sp)
    return math.fsum(sp[y] for y in atoms if y in sp) + d.background * n_plain


def ref_observed(draws):
    return frozenset(draws) | {BOTTOM}


def ref_monofact(draws):
    singles = sum(1 for y, c in Counter(draws).items() if c == 1 and y != BOTTOM)
    return singles / len(draws)


def ref_missing_mass(p, draws):
    sp = special(p)
    observed = ref_observed(draws)
    special_out = math.fsum(w for y, w in sp.items() if y not in observed)
    if p.background == 0.0:
        return special_out
    n_obs_plain = sum(1 for y in observed if y not in sp)
    return special_out + p.background * ((p.universe.size - len(sp)) - n_obs_plain)


def ref_normalized(universe, sp, background):
    """Normalization as a dict: divide by the exactly rounded total and,
    with no background, drop zero weights. Returns (dict, background)."""
    total = math.fsum(sp.values()) + background * (universe.size - len(sp))
    if total <= 0.0:
        raise DistributionError("weights sum to zero")
    sp = {y: w / total for y, w in sp.items()}
    background = background / total
    if background == 0.0:
        sp = {y: w for y, w in sp.items() if w > 0.0}
    return sp, background


def ref_train(alg, universe, draws, truth):
    n = len(draws)
    mult = Counter(draws)
    if isinstance(alg, Empirical):
        return ref_normalized(universe, {y: c / n for y, c in mult.items()}, 0.0)
    if isinstance(alg, Laplace):
        denom = n + alg.alpha * universe.size
        sp = {y: (c + alg.alpha) / denom for y, c in mult.items()}
        return ref_normalized(universe, sp, alg.alpha / denom)
    if isinstance(alg, Uniform):
        return {}, 1.0 / universe.size
    if isinstance(alg, MonofactMemorizer):
        mf = ref_monofact(draws)
        observed = ref_observed(draws)
        n_unobs = universe.size - len(observed)
        if n_unobs == 0:
            raise DistributionError("no unobserved factoid")
        sp = {y: (1.0 - mf) / len(observed) for y in observed}
        return ref_normalized(universe, sp, mf / n_unobs)
    if isinstance(alg, Oracle):
        return special(truth), truth.background
    if isinstance(alg, YayMixture):
        base_sp, base_bg = ref_train(alg.base, universe, draws, truth)
        lam = alg.lam
        sp = {y: (1.0 - lam) * w for y, w in base_sp.items()}
        sp[BOTTOM] = lam + (1.0 - lam) * base_sp.get(BOTTOM, base_bg)
        return ref_normalized(universe, sp, (1.0 - lam) * base_bg)
    raise AssertionError(alg)


ALGORITHMS = [
    Empirical(),
    Laplace(0.5),
    Laplace(2.0),
    Uniform(),
    MonofactMemorizer(),
    Oracle(),
    YayMixture(Empirical(), 0.99),
    YayMixture(MonofactMemorizer(), 0.3),
    YayMixture(Laplace(0.5), 0.0),
]


# ---------------------------------------------------------------------------
# Fast path == reference
# ---------------------------------------------------------------------------


class TestAgainstReference:
    @given(data=st.data())
    @PROPERTY
    def test_normalization(self, data):
        size = data.draw(st.integers(2, 12))
        weights = data.draw(
            st.dictionaries(st.integers(0, size - 1), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0))
        )
        background = data.draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1.0))
        u = FactoidUniverse(size)
        try:
            want = ref_normalized(u, weights, background)
        except DistributionError:
            with pytest.raises(DistributionError):
                background_dist(u, weights, background)
            return
        d = background_dist(u, weights, background)
        assert (special(d), d.background) == want

    @given(pair=dist_pairs())
    @PROPERTY
    def test_paired_profile(self, pair):
        got = paired_profile(*pair)
        want = ref_paired_profile(*pair)
        for g, w in zip(got, want):
            assert g.dtype == np.float64
            assert np.array_equal(g, w)

    @given(data=st.data())
    @PROPERTY
    def test_mass_of_set(self, data):
        size = data.draw(st.integers(2, 12))
        d = data.draw(dists(size))
        s = data.draw(st.lists(st.integers(0, size - 1), max_size=2 * size))
        assert mass_of_set(d, s) == ref_mass_of_set(d, s)
        assert mass_of_set(d, np.array(s, dtype=np.int64)) == ref_mass_of_set(d, s)

    @given(sample=samples())
    @PROPERTY
    def test_multiplicities_and_monofact(self, sample):
        u, draws = sample
        s = TrainingSample(u, tuple(draws))
        assert dict(zip(s.atoms.tolist(), s.counts.tolist())) == Counter(draws)
        assert s.observed == ref_observed(draws)
        assert s.observed_count == len(ref_observed(draws))
        assert monofact_estimate(s) == ref_monofact(draws)

    @given(data=st.data())
    @PROPERTY
    def test_missing_mass(self, data):
        u, draws = data.draw(samples())
        p = data.draw(dists(u.size))
        s = TrainingSample(u, np.array(draws, dtype=np.int64))
        assert missing_mass(p, s) == ref_missing_mass(p, draws)

    @pytest.mark.parametrize("alg", ALGORITHMS, ids=repr)
    @given(data=st.data())
    @PROPERTY
    def test_train(self, alg, data):
        u, draws = data.draw(samples())
        truth = data.draw(dists(u.size))
        try:
            want = ref_train(alg, u, draws, truth)
        except DistributionError:
            with pytest.raises(DistributionError):
                train(alg, TrainingSample(u, tuple(draws)), truth=truth)
            return
        g = train(alg, TrainingSample(u, tuple(draws)), truth=truth)
        assert g.keys.tolist() == sorted(want[0])
        assert (special(g), g.background) == want


# ---------------------------------------------------------------------------
# The constructor fails closed
# ---------------------------------------------------------------------------


class TestConstructorFailsClosed:
    U = FactoidUniverse(6)

    @pytest.mark.parametrize("background", [math.nan, math.inf, -0.1])
    def test_bad_background(self, background):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1], [0.5], background)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.25])
    def test_bad_value(self, value):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1, 2], [0.5, value], 0.0)

    @pytest.mark.parametrize("key", [6, -1, 10**30])
    def test_key_out_of_range(self, key):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1, key], [0.5, 0.5], 0.0)

    def test_unsorted_keys(self):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [3, 1], [0.5, 0.5], 0.0)

    def test_duplicate_keys(self):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [2, 2], [0.5, 0.5], 0.0)

    def test_non_integer_keys(self):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1.5], [1.0], 0.0)

    def test_mismatched_lengths(self):
        with pytest.raises(DistributionError):
            FactoidDist(self.U, [1, 2], [1.0], 0.0)

    def test_arrays_are_private_and_read_only(self):
        keys, values = np.array([1, 4]), np.array([0.25, 0.75])
        d = FactoidDist(self.U, keys, values, 0.0)
        keys[0], values[0] = 0, 9.0
        assert d.keys.tolist() == [1, 4] and d.values.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            d.values[0] = 1.0

    def test_background_nan_through_module_constructor(self):
        with pytest.raises(DistributionError):
            background_dist(self.U, {1: 1.0}, math.nan)

    def test_valid_input_accepted(self):
        d = FactoidDist(self.U, [0, 3], [0.0, 0.5], 0.125)
        assert d.weight(0) == 0.0 and d.weight(3) == 0.5 and d.weight(5) == 0.125
        assert uniform_dist(self.U).weight(2) == 1.0 / 6


class TestSampleFailsClosed:
    def test_non_integer_draws(self):
        with pytest.raises(DistributionError):
            TrainingSample(FactoidUniverse(4), (1.5, 2.0))

    def test_negative_draw(self):
        with pytest.raises(DistributionError):
            TrainingSample(FactoidUniverse(4), np.array([1, -1]))
