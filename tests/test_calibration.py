"""Partitions, coarsening, and the miscalibration metrics."""

import math
import warnings

import numpy as np
import pytest

from factoidlab.calibration import (
    BIN_COUNT_LIMIT,
    AdaptiveBinning,
    ExactValueBinning,
    FixedWidthBinning,
    MATERIALIZE_LIMIT,
    Partition,
    partition_for_spec,
)
from factoidlab.dist import (
    FactoidUniverse,
    dist_from_weights,
    random_dist,
    uniform_dist,
)
from factoidlab.errors import PartitionError, UniverseMismatchError
from factoidlab.rng import SeededRng
from literal import (
    background_dist,
    coarsen,
    generative_calibration_error,
    iter_all_partitions,
    mass_of_set,
    miscalibration,
    random_partition,
    reliability_curve,
    tv_distance,
)


def blocks_as_sets(partition: Partition) -> set[frozenset[int]]:
    return set(partition.blocks)


class TestPartitionValidation:
    def test_empty_block_rejected(self):
        # labels 1 and 2 with no atom in block 0
        u = FactoidUniverse(3)
        with pytest.raises(PartitionError):
            Partition(u, np.array([1, 2, 2]))

    def test_overlap_rejected(self):
        # one label per atom: an atom listed in two blocks makes too many
        u = FactoidUniverse(3)
        with pytest.raises(PartitionError):
            Partition(u, np.array([0, 0, 1, 1]))

    def test_incomplete_cover_rejected(self):
        u = FactoidUniverse(3)
        with pytest.raises(PartitionError):
            Partition(u, np.array([0, 0]))

    @pytest.mark.parametrize("labels", [[0, -1, 1], [0.0, 1.0, 1.0], [True, False, True], [[0, 1, 2]]])
    def test_negative_non_integer_or_misshapen_labels_rejected(self, labels):
        with pytest.raises(PartitionError):
            Partition(FactoidUniverse(3), np.array(labels))

    def test_huge_label_rejected_before_counting(self):
        # bincount would allocate 8 TB of counters for a label of 10^12
        u = FactoidUniverse(3)
        with pytest.raises(PartitionError, match="must lie in"):
            Partition(u, np.array([0, 10**12, 1]))

    def test_labels_are_a_read_only_copy(self):
        raw = np.array([0, 1, 1])
        pi = Partition(FactoidUniverse(3), raw)
        raw[2] = 0
        assert pi.labels.tolist() == [0, 1, 1]
        with pytest.raises(ValueError):
            pi.labels[0] = 1

    def test_blocks_in_label_order(self):
        pi = Partition(FactoidUniverse(5), np.array([1, 0, 2, 0, 1]))
        assert pi.blocks == (frozenset({1, 3}), frozenset({0, 4}), frozenset({2}))
        assert Partition.singletons(FactoidUniverse(3)).blocks == tuple(frozenset({y}) for y in range(3))
        assert Partition(FactoidUniverse(3), np.zeros(3, dtype=np.intp)).blocks == (frozenset(range(3)),)

    def test_singletons_refused_above_materialize_limit(self):
        # as partition_for_spec refuses: 10^6 + 1 labels would be built
        u = FactoidUniverse(MATERIALIZE_LIMIT + 1)
        with pytest.raises(PartitionError, match="refusing to materialize"):
            Partition.singletons(u)
        with pytest.raises(PartitionError, match="refusing to materialize"):
            partition_for_spec(uniform_dist(u), ExactValueBinning())
        assert Partition.singletons(FactoidUniverse(4)).labels.tolist() == [0, 1, 2, 3]

    def test_bell_numbers(self):
        # Bell(2..6) = 2, 5, 15, 52, 203
        for size, bell in [(2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
            assert sum(1 for _ in iter_all_partitions(FactoidUniverse(size))) == bell


class TestCoarsen:
    def test_block_average(self):
        # p={a:.6,b:.2,c:.2}, blocks {a,b},{c} -> {a:.4,b:.4,c:.2}
        u = FactoidUniverse(3)
        p = dist_from_weights(u, {0: 0.6, 1: 0.2, 2: 0.2})
        pi = Partition(u, np.array([0, 0, 1]))
        c = coarsen(p, pi)
        assert c.weight(0) == pytest.approx(0.4, abs=1e-12)
        assert c.weight(1) == pytest.approx(0.4, abs=1e-12)
        assert c.weight(2) == pytest.approx(0.2, abs=1e-12)

    def test_single_block_gives_uniform(self):
        u = FactoidUniverse(6)
        p = random_dist(u, SeededRng(1))
        c = coarsen(p, Partition(u, np.zeros(u.size, dtype=np.intp)))
        for y in range(u.size):
            assert c.weight(y) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_singletons_identity(self):
        u = FactoidUniverse(6)
        p = random_dist(u, SeededRng(2))
        c = coarsen(p, Partition.singletons(u))
        for y in range(u.size):
            assert c.weight(y) == pytest.approx(p.weight(y), abs=1e-12)

    def test_mass_preserved(self):
        u = FactoidUniverse(9)
        rng = SeededRng(3)
        for i in range(30):
            p = random_dist(u, rng.child(i, 0))
            pi = random_partition(u, rng.child(i, 1))
            assert coarsen(p, pi).total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            coarsen(uniform_dist(FactoidUniverse(4)), Partition.singletons(FactoidUniverse(5)))


class TestExactValuePartition:
    def test_equal_value_grouping(self):
        u = FactoidUniverse(3)
        g = dist_from_weights(u, {0: 0.5, 1: 0.25, 2: 0.25})
        pi = partition_for_spec(g, ExactValueBinning())
        assert blocks_as_sets(pi) == {frozenset({0}), frozenset({1, 2})}

    def test_uniform_collapses(self):
        u = FactoidUniverse(5)
        pi = partition_for_spec(uniform_dist(u), ExactValueBinning())
        assert blocks_as_sets(pi) == {frozenset(range(5))}

    def test_zero_probability_block(self):
        u = FactoidUniverse(3)
        g = dist_from_weights(u, {0: 1})
        pi = partition_for_spec(g, ExactValueBinning())
        assert blocks_as_sets(pi) == {frozenset({0}), frozenset({1, 2})}


class TestAdaptivePartition:
    def test_hand_evaluated_thresholds(self):
        # masses .4/.3/.2/.1: cumulative crosses 1/2 at value .3, so the
        # lower bin keeps values <= .3 and the top bin gets the .4 atom
        u = FactoidUniverse(5)
        g = dist_from_weights(u, {1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1})
        pi = partition_for_spec(g, AdaptiveBinning(2))
        assert blocks_as_sets(pi) == {frozenset({0, 2, 3, 4}), frozenset({1})}

    def test_uniform_mass_jump_collapses_bins(self):
        # all support mass sits on one value, so the first threshold
        # swallows the whole universe into a single block
        u = FactoidUniverse(5)
        g = dist_from_weights(u, {1: 1, 2: 1, 3: 1, 4: 1})
        assert blocks_as_sets(partition_for_spec(g, AdaptiveBinning(2))) == {frozenset(range(5))}

    def test_single_bin(self):
        u = FactoidUniverse(4)
        g = random_dist(u, SeededRng(4))
        assert blocks_as_sets(partition_for_spec(g, AdaptiveBinning(1))) == {frozenset(range(4))}

    def test_saturation_matches_exact_for_full_support(self):
        # with full support and 1/b at most the smallest value, every
        # value class is separated and the adaptive bins equal the
        # exact-value bins. Cumulative masses may not sit exactly on an
        # i/b quantile: the supremum threshold then slides past the
        # boundary class and merges it downward (the same boundary
        # collapse a uniform g exhibits), so the sweep uses generic
        # real-valued masses where coincidences have measure zero.
        u = FactoidUniverse(4)
        g = dist_from_weights(u, {0: 0.37, 1: 0.28, 2: 0.22, 3: 0.13})
        b = 8  # 1/b = 0.125 < 0.13 = min value; cumulatives avoid the quantiles
        assert blocks_as_sets(partition_for_spec(g, AdaptiveBinning(b))) == blocks_as_sets(
            partition_for_spec(g, ExactValueBinning())
        )
        rng = SeededRng(5)
        for i in range(20):
            g_full = random_dist(u, rng.child(i, 0), support_size=4)
            b_i = math.ceil(1.0 / min(g_full.weight(y) for y in range(u.size)))
            p = random_dist(u, rng.child(i, 1))
            assert miscalibration(p, g_full, AdaptiveBinning(b_i)) == pytest.approx(
                miscalibration(p, g_full, ExactValueBinning()), abs=1e-12
            )


class TestFixedWidthPartition:
    def test_hand_evaluated_blocks(self):
        u = FactoidUniverse(5)
        g = dist_from_weights(u, {1: 0.5, 2: 0.25, 3: 0.125, 4: 0.125})
        pi = partition_for_spec(g, FixedWidthBinning(0.5))
        assert blocks_as_sets(pi) == {
            frozenset({0}),  # zero-probability block
            frozenset({3, 4}),  # (0.0625, 0.125]
            frozenset({2}),  # (0.125, 0.25]
            frozenset({1}),  # (0.25, 0.5]
        }

    def test_epsilon_one_single_block(self):
        u = FactoidUniverse(6)
        g = random_dist(u, SeededRng(6))
        assert blocks_as_sets(partition_for_spec(g, FixedWidthBinning(1.0))) == {frozenset(range(6))}

    def test_epsilon_zero_delegates_to_exact(self):
        u = FactoidUniverse(6)
        g = random_dist(u, SeededRng(7))
        assert blocks_as_sets(partition_for_spec(g, FixedWidthBinning(0.0))) == blocks_as_sets(
            partition_for_spec(g, ExactValueBinning())
        )

    def test_adaptive_bin_count_is_capped(self):
        # b - 1 thresholds are allocated: 10^11 bins would take 745 GiB
        assert AdaptiveBinning(BIN_COUNT_LIMIT).b == BIN_COUNT_LIMIT
        for b in (0, BIN_COUNT_LIMIT + 1, 10**11):
            with pytest.raises(PartitionError, match="adaptive binning b"):
                AdaptiveBinning(b)

    def test_epsilon_that_rounds_away_is_refused(self):
        # 1 - 1e-17 == 1.0: log(1 - epsilon) is 0 and every positive atom
        # would share one bin
        with pytest.raises(PartitionError, match="too small"):
            FixedWidthBinning(1e-17)

    @pytest.mark.parametrize("eps", [1e-16, 2**-53])
    def test_smallest_epsilons_equal_exact_value(self, eps):
        u = FactoidUniverse(20)
        rng = SeededRng(23)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for i in range(150):
                p = random_dist(u, rng.child(i, 0))
                g = random_dist(u, rng.child(i, 1))
                assert miscalibration(p, g, FixedWidthBinning(eps)) == miscalibration(
                    p, g, ExactValueBinning()
                )

    def test_zero_atom_isolated(self):
        u = FactoidUniverse(3)
        g = dist_from_weights(u, {1: 0.5, 2: 0.5})
        pi = partition_for_spec(g, FixedWidthBinning(0.3))
        assert frozenset({0}) in blocks_as_sets(pi)

    def test_boundary_value_joins_lower_bin(self):
        # an atom exactly on a bin edge belongs to the bin whose upper
        # endpoint it matches (half-open intervals, closed above)
        u = FactoidUniverse(3)
        g = dist_from_weights(u, {1: 0.5, 2: 0.5})  # 0.5 = (1-eps)^1 at eps=0.5
        pi = partition_for_spec(g, FixedWidthBinning(0.5))
        assert frozenset({1, 2}) in blocks_as_sets(pi)


class TestMiscalibration:
    def test_self_calibration(self):
        p = random_dist(FactoidUniverse(12), SeededRng(8))
        assert miscalibration(p, p, ExactValueBinning()) == pytest.approx(0.0, abs=1e-12)

    def test_any_coarsening_is_calibrated(self):
        u = FactoidUniverse(10)
        rng = SeededRng(9)
        for i in range(40):
            p = random_dist(u, rng.child(i, 0))
            pi = random_partition(u, rng.child(i, 1))
            g = coarsen(p, pi)
            assert miscalibration(p, g, ExactValueBinning()) <= 1e-9

    def test_uncalibrated_pair_measures_positive(self):
        # the zero-iff-calibrated direction: an independent random pair is
        # almost surely not a coarsening relationship
        u = FactoidUniverse(12)
        rng = SeededRng(77)
        for i in range(20):
            p = random_dist(u, rng.child(i, 0))
            g = random_dist(u, rng.child(i, 1))
            assert miscalibration(p, g, ExactValueBinning()) > 1e-6

    def test_single_bin_uniform_target(self):
        u = FactoidUniverse(8)
        p = random_dist(u, SeededRng(10))
        g = uniform_dist(u)
        assert miscalibration(p, g, AdaptiveBinning(1)) == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_equals_tv_to_uniform(self):
        u = FactoidUniverse(8)
        rng = SeededRng(11)
        for i in range(25):
            p = random_dist(u, rng.child(i, 0))
            g = random_dist(u, rng.child(i, 1))
            assert miscalibration(p, g, AdaptiveBinning(1)) == pytest.approx(
                tv_distance(uniform_dist(u), g), abs=1e-12
            )

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            miscalibration(
                uniform_dist(FactoidUniverse(4)),
                uniform_dist(FactoidUniverse(5)),
                ExactValueBinning(),
            )

    @pytest.mark.parametrize(
        "spec",
        [ExactValueBinning(), AdaptiveBinning(3), AdaptiveBinning(7), FixedWidthBinning(0.35)],
    )
    def test_profile_route_matches_explicit_route(self, spec):
        # the fast class-profile computation must agree with literally
        # building the partition, coarsening, and taking the TV distance
        u = FactoidUniverse(17)
        rng = SeededRng(12)
        for i in range(25):
            p = random_dist(u, rng.child(i, 0))
            g = random_dist(u, rng.child(i, 1))
            explicit = tv_distance(coarsen(p, partition_for_spec(g, spec)), g)
            assert miscalibration(p, g, spec) == pytest.approx(explicit, abs=1e-12)

    def test_profile_route_matches_explicit_route_with_background(self):
        u = FactoidUniverse(400)
        rng = SeededRng(13)
        for i in range(10):
            p = random_dist(u, rng.child(i, 0), support_size=25)
            g = background_dist(
                u, {int(y): 0.02 for y in rng.child(i, 1).generator.choice(400, 10, replace=False)}, 0.8 / 390
            )
            for spec in (ExactValueBinning(), AdaptiveBinning(5), FixedWidthBinning(0.4)):
                explicit = tv_distance(coarsen(p, partition_for_spec(g, spec)), g)
                assert miscalibration(p, g, spec) == pytest.approx(explicit, abs=1e-12)


class TestGenerativeCalibrationError:
    def test_identical_distributions(self):
        p = random_dist(FactoidUniverse(10), SeededRng(14))
        for eps in (0.0, 0.25, 0.7, 1.0):
            assert generative_calibration_error(p, p, eps) == pytest.approx(0.0, abs=1e-12)

    def test_epsilon_zero_equals_exact_miscalibration(self):
        u = FactoidUniverse(14)
        rng = SeededRng(15)
        for i in range(25):
            p = random_dist(u, rng.child(i, 0))
            g = random_dist(u, rng.child(i, 1))
            assert generative_calibration_error(p, g, 0.0) == pytest.approx(
                miscalibration(p, g, ExactValueBinning()), abs=1e-12
            )

    def test_hand_evaluated_two_bin_case(self):
        u = FactoidUniverse(2)
        p = dist_from_weights(u, {0: 1, 1: 1})
        g = dist_from_weights(u, {0: 1})
        assert generative_calibration_error(p, g, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_sandwich_between_tv_and_tv_minus_eps(self):
        u = FactoidUniverse(30)
        rng = SeededRng(16)
        for i in range(60):
            p = random_dist(u, rng.child(i, 0))
            g = random_dist(u, rng.child(i, 1))
            eps = float(rng.child(i, 2).generator.uniform(0.01, 0.99))
            tv_fw = miscalibration(p, g, FixedWidthBinning(eps))
            mis = generative_calibration_error(p, g, eps)
            assert tv_fw - eps <= mis + 1e-9
            assert mis <= tv_fw + 1e-9


class TestReliabilityCurve:
    def test_calibrated_diagonal(self):
        u = FactoidUniverse(9)
        p = random_dist(u, SeededRng(17))
        rows = reliability_curve(p, p, ExactValueBinning())
        for _, g_mass, p_mass, _ in rows:
            assert g_mass == pytest.approx(p_mass, abs=1e-9)

    def test_single_block_row(self):
        u = FactoidUniverse(6)
        p = random_dist(u, SeededRng(18))
        g = random_dist(u, SeededRng(19))
        rows = reliability_curve(p, g, AdaptiveBinning(1))
        assert len(rows) == 1
        _, g_mass, p_mass, size = rows[0]
        assert g_mass == pytest.approx(1.0, abs=1e-9)
        assert p_mass == pytest.approx(1.0, abs=1e-9)
        assert size == 6

    def test_p_column_sums_to_one_and_sorted(self):
        u = FactoidUniverse(20)
        rng = SeededRng(20)
        for i in range(10):
            p = random_dist(u, rng.child(i, 0))
            g = random_dist(u, rng.child(i, 1))
            rows = reliability_curve(p, g, FixedWidthBinning(0.4))
            assert sum(r[2] for r in rows) == pytest.approx(1.0, abs=1e-9)
            values = [r[0] for r in rows]
            assert values == sorted(values)


class TestCoarseningMassInequality:
    def test_pointwise_chain_holds_exhaustively(self):
        # for every partition and subset: the positive part of the mass
        # a coarsening moves out of S is at most the within-block
        # leakage sum p(S & B) * |B without S| / |B|
        u = FactoidUniverse(5)
        rng = SeededRng(21)
        subsets = [
            [y for y in range(5) if mask >> y & 1] for mask in range(1, 1 << 5)
        ]
        for i in range(10):
            p = random_dist(u, rng.child(i))
            for pi in iter_all_partitions(u):
                q = coarsen(p, pi)
                for atoms in subsets:
                    s = set(atoms)
                    lhs = max(0.0, mass_of_set(p, s) - mass_of_set(q, s))
                    rhs = sum(
                        mass_of_set(p, s & block) * len(block - s) / len(block)
                        for block in pi.blocks
                    )
                    assert lhs <= rhs + 1e-9


class TestBinningAgainstLiteralReferences:
    @staticmethod
    def _reference_adaptive_blocks(values: list[float], b: int) -> set[frozenset[int]]:
        """Direct transcription of the sup-threshold rule, O(n^2) scan."""
        distinct = sorted(set(values))

        def cumulative(z: float) -> float:
            return sum(v for v in values if v <= z)

        thresholds = []
        for i in range(1, b):
            q = i / b
            t = 1.0
            for v in distinct:
                if cumulative(v) > q:
                    t = v
                    break
            thresholds.append(t)
        edges = [0.0] + thresholds + [1.0]
        blocks = []
        for j in range(len(edges) - 1):
            if j == 0:
                members = [y for y, v in enumerate(values) if v <= edges[1]]
            else:
                members = [y for y, v in enumerate(values) if edges[j] < v <= edges[j + 1]]
            if members:
                blocks.append(frozenset(members))
        return set(blocks)

    def test_adaptive_matches_literal_sup_on_dyadic_ties(self):
        # weights in sixteenths keep every mass and partial sum exactly
        # representable, so cumulative masses land exactly on the
        # quantiles and the boundary-collapse branch is exercised without
        # float-dust ambiguity
        rng = SeededRng(40)
        for i in range(60):
            gen = rng.child(i).generator
            size = int(gen.integers(3, 10))
            u = FactoidUniverse(size)
            raw = gen.multinomial(16, [1.0 / size] * size)
            g = dist_from_weights(u, {y: int(w) for y, w in enumerate(raw) if w > 0})
            values = [g.weight(y) for y in range(size)]
            for b in (1, 2, 3, 4, 8, 16):
                mine = blocks_as_sets(partition_for_spec(g, AdaptiveBinning(b)))
                ref = self._reference_adaptive_blocks(values, b)
                assert mine == ref, (values, b)

    def test_adaptive_matches_literal_sup_on_continuous_values(self):
        rng = SeededRng(41)
        for i in range(40):
            gen = rng.child(i).generator
            size = int(gen.integers(3, 12))
            u = FactoidUniverse(size)
            g = random_dist(u, rng.child(i, 1))
            values = [g.weight(y) for y in range(size)]
            for b in (2, 5, 9):
                mine = blocks_as_sets(partition_for_spec(g, AdaptiveBinning(b)))
                ref = self._reference_adaptive_blocks(values, b)
                assert mine == ref, (values, b)

    def test_fixed_width_index_matches_scan(self):
        # bin edges are IEEE powers as numpy computes them (CPython's pow
        # can differ in the last ulp, which only moves values fabricated
        # to sit exactly on an edge); the reference scan shares that edge
        # convention and the exact-edge probes check the closed-above rule
        import numpy as np

        from factoidlab.calibration import _fixed_width_block_ids

        def scan_index(v: float, eps: float) -> int:
            base = 1.0 - eps
            i = 0
            while not (float(np.power(base, i + 1)) < v <= float(np.power(base, i))):
                i += 1
                assert i < 100_000
            return i

        rng = SeededRng(42)
        for i in range(30):
            gen = rng.child(i).generator
            eps = float(gen.uniform(0.05, 0.95))
            base = 1.0 - eps
            vals = list(gen.uniform(1e-12, 1.0, size=8))
            # values exactly on an edge must join the bin the edge closes
            vals += [float(np.power(base, k)) for k in (0, 1, 2, 7)]
            arr = np.array(vals)
            got = _fixed_width_block_ids(arr, eps)
            for v, idx in zip(vals, got.tolist()):
                assert idx == scan_index(v, eps), (v, eps)

    def test_gce_profile_matches_explicit_partition(self):
        rng = SeededRng(43)
        for i in range(30):
            gen = rng.child(i).generator
            size = int(gen.integers(2, 40))
            u = FactoidUniverse(size)
            p = random_dist(u, rng.child(i, 0))
            g = random_dist(u, rng.child(i, 1))
            eps = float(gen.uniform(0.01, 0.99))
            pi = partition_for_spec(g, FixedWidthBinning(eps))
            explicit = 0.5 * sum(
                abs(mass_of_set(p, block) - mass_of_set(g, block)) for block in pi.blocks
            )
            assert generative_calibration_error(p, g, eps) == pytest.approx(explicit, abs=1e-12)
