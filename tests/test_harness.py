"""Experiment orchestration: determinism, aggregation, the suites."""

import math

import pytest

from factoidlab.dist import FactoidUniverse, dist_from_weights
from factoidlab.errors import ConfigError, InsufficientDataError
from factoidlab.harness import (
    BoundSettings,
    ExperimentConfig,
    aggregate_records,
    run_experiment,
    run_gt_concentration,
    run_multi_type_experiment,
    run_trial,
    run_upper_bound_check,
)
from factoidlab.lms import Empirical, MonofactMemorizer, Oracle, Uniform
from factoidlab.worlds import MultiTypeWorld, PermutedPowerLawWorld


def make_cfg(algorithm=MonofactMemorizer(), trials=20, seed=77, **bound_kwargs):
    return ExperimentConfig(
        world=PermutedPowerLawWorld(5000, 120, 0.0),
        n=300,
        algorithm=algorithm,
        bound=BoundSettings(**bound_kwargs) if bound_kwargs else BoundSettings(),
        trials=trials,
        master_seed=seed,
    )


class TestConfigValidation:
    def test_universe_must_exceed_n_plus_one(self):
        with pytest.raises(ConfigError, match="U would be empty"):
            ExperimentConfig(
                world=PermutedPowerLawWorld(300, 100, 0.0),
                n=299,
                algorithm=Empirical(),
                bound=BoundSettings(),
                trials=1,
                master_seed=1,
            )

    def test_sparsity_resolved_from_world(self):
        cfg = make_cfg()
        expected = math.log((5000 - 121) / 121)
        assert cfg.params.s == pytest.approx(expected, abs=1e-12)

    def test_explicit_sparsity_override(self):
        cfg = make_cfg(s=3.5)
        assert cfg.params.s == 3.5

    def test_single_type_world_has_k_one(self):
        assert make_cfg().params.k_types == 1

    @pytest.mark.parametrize("k_types", [1, 3])
    def test_k_types_must_match_world(self, k_types):
        component = PermutedPowerLawWorld(3001, 80, 0.0)
        with pytest.raises(ConfigError, match="k_types"):
            ExperimentConfig(
                world=MultiTypeWorld(components=(component, component), weights=(0.5, 0.5)),
                n=200,
                algorithm=MonofactMemorizer(),
                bound=BoundSettings(k_types=k_types),
                trials=1,
                master_seed=1,
            )


class TestRunTrial:
    def test_deterministic_records(self):
        cfg = make_cfg()
        assert run_trial(cfg, 4) == run_trial(cfg, 4)

    def test_oracle_record_shape(self):
        cfg = make_cfg(algorithm=Oracle())
        record = run_trial(cfg, 0)
        assert record.halluc_rate == pytest.approx(0.0, abs=1e-12)
        assert record.mc_exact == pytest.approx(0.0, abs=1e-12)

    def test_memorizer_certainty(self):
        cfg = make_cfg()
        for i in range(10):
            record = run_trial(cfg, i)
            assert record.halluc_rate <= record.mf + 1e-12

    def test_probabilities_in_range(self):
        cfg = make_cfg(algorithm=Uniform())
        record = run_trial(cfg, 3)
        for name in ("mf", "missing_mass", "halluc_rate", "mc_exact", "mc_adaptive"):
            assert 0.0 <= getattr(record, name) <= 1.0


class TestRunExperiment:
    def test_single_trial_aggregate_matches_record(self):
        cfg = make_cfg(trials=1)
        report, records = run_experiment(cfg)
        assert len(records) == 1
        assert report.trials == 1
        r = records[0]
        assert report.bound("cor1").frequency == float(r.cor1.satisfied)
        mf_summary = next(m for m in report.metrics if m.name == "mf")
        assert mf_summary.mean == r.mf

    def test_vacuity_fraction_one_at_zero_sparsity(self):
        # s = 0 makes the penalty 3/delta >= 3, dwarfing any estimate
        cfg = make_cfg(trials=10, s=0.0)
        report, _ = run_experiment(cfg)
        assert report.bound("cor1").vacuous_fraction == 1.0
        assert report.bound("cor1").frequency == 1.0

    def test_memorizer_bounds_hold(self):
        cfg = make_cfg(trials=60)
        report, _ = run_experiment(cfg)
        for name in ("cor1", "cor_general", "cor_balfact", "cor_fixed_tv", "cor_fixed_mis"):
            assert report.bound(name).frequency >= 0.9


class TestGtConcentration:
    def test_uniform_world_no_violations(self):
        u = FactoidUniverse(201)
        p = dist_from_weights(u, {y: 1.0 for y in range(1, 201)})
        report = run_gt_concentration(p, n=500, delta=0.2, trials=120, master_seed=5)
        assert report.two_sided_frequency <= 0.2
        assert report.one_sided_frequency <= 0.2 / 3.0
        assert report.passed

    def test_point_mass_never_violates(self):
        u = FactoidUniverse(4)
        p = dist_from_weights(u, {2: 1.0})
        report = run_gt_concentration(p, n=50, delta=0.1, trials=100, master_seed=6)
        assert report.two_sided_violations == 0
        assert report.one_sided_violations == 0

    def test_trial_floor(self):
        u = FactoidUniverse(4)
        with pytest.raises(InsufficientDataError):
            run_gt_concentration(dist_from_weights(u, {1: 1}), 10, 0.1, 50, 7)


class TestUpperBoundCheck:
    def test_certainty_at_full_rate(self):
        report = run_upper_bound_check(
            PermutedPowerLawWorld(2000, 80, 1.0), n=200, delta=0.1, trials=60, master_seed=8
        )
        assert report.certainty_hits == report.trials
        assert report.calibration_frequency >= 0.9
        assert report.passed


class TestMultiType:
    def test_per_type_reports(self):
        model = MultiTypeWorld(
            components=(
                PermutedPowerLawWorld(3001, 80, 0.0),
                PermutedPowerLawWorld(3001, 80, 0.0),
            ),
            weights=(0.5, 0.5),
        )
        cfg = ExperimentConfig(
            world=model,
            n=200,
            algorithm=MonofactMemorizer(),
            bound=BoundSettings(delta=0.1, b=10, epsilon=0.1, k_types=2),
            trials=40,
            master_seed=9,
        )
        report = run_multi_type_experiment(cfg)
        assert report.k_types == 2
        assert len(report.types) == 2
        means = {m.name: m.mean for m in report.metrics}
        for t in report.types:
            assert t.frequency >= 0.9
            assert 0.0 <= means[f"{t.name}.mf"] <= 1.0

    def test_requires_multi_type_world(self):
        cfg = make_cfg()
        with pytest.raises(ConfigError):
            run_multi_type_experiment(cfg)


class TestAggregation:
    def test_interval_contains_frequency(self):
        cfg = make_cfg(trials=30)
        report, records = run_experiment(cfg)
        for b in report.bounds:
            assert b.ci_low <= b.frequency <= b.ci_high

    def test_aggregate_of_permuted_records_identical(self):
        cfg = make_cfg(trials=15)
        _, records = run_experiment(cfg)
        shuffled = list(reversed(records))
        shuffled.sort(key=lambda r: r.trial_index)
        assert aggregate_records(shuffled, 0.1) == aggregate_records(records, 0.1)


class TestGtConcentrationContract:
    def test_empty_fact_mass_rejected(self):
        from factoidlab.dist import dist_from_weights, FactoidUniverse
        u = FactoidUniverse(5)
        p = dist_from_weights(u, {0: 0.5, 1: 0.5})
        with pytest.raises(Exception, match="empty-fact"):
            run_gt_concentration(p, n=50, delta=0.1, trials=100, master_seed=1)

    def test_aggregate_json_round_trips(self):
        import json
        cfg = make_cfg(trials=5)
        report, _ = run_experiment(cfg)
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        assert json.loads(blob) == json.loads(json.dumps(json.loads(blob), sort_keys=True))


class TestTrialErrorContext:
    def test_failing_trial_names_its_index(self, monkeypatch):
        import factoidlab.harness as h
        from factoidlab.errors import DistributionError

        cfg = make_cfg(trials=3)
        original = h.run_trial

        def boom(c, i):
            if i == 1:
                raise DistributionError("synthetic failure")
            return original(c, i)

        monkeypatch.setattr(h, "run_trial", boom)
        with pytest.raises(DistributionError, match="trial 1"):
            run_experiment(cfg)


class TestMultiTypeInducedMetrics:
    """Cross-check the per-type projections against materialized sets."""

    @staticmethod
    def _setup(seed):
        from factoidlab.dist import sample_iid
        from factoidlab.lms import MonofactMemorizer, train
        from factoidlab.rng import SeededRng
        from factoidlab.worlds import sample_world
        from factoidlab.estimators import TrainingSample

        model = MultiTypeWorld(
            components=(PermutedPowerLawWorld(9, 3, 0.0), PermutedPowerLawWorld(13, 4, 1.0)),
            weights=(0.4, 0.6),
        )
        rng = SeededRng(seed)
        world = sample_world(model, rng)
        draws = [int(y) for y in sample_iid(world.p, 12, rng)]
        sample = TrainingSample(world.universe, tuple(draws))
        g = train(MonofactMemorizer(), sample)
        return model, world, draws, sample, g

    def test_induced_dists_match_atomwise_projection(self):
        from test_reference_routes import ref_induced_local_dist as _induced_local_dist

        model, world, _, _, g = self._setup(21)
        for i in range(2):
            rng_i = model.type_range(i)
            for d in (world.p, g):
                local = _induced_local_dist(model, i, d)
                # in-range atoms keep their global weight
                for y in rng_i:
                    assert local.weight(y - model.type_offset(i) + 1) == pytest.approx(
                        d.weight(y), abs=1e-12
                    )
                # the local empty fact absorbs everything else
                outside = sum(d.weight(y) for y in range(model.universe_size) if y not in rng_i)
                assert local.weight(0) == pytest.approx(outside, abs=1e-9)
                assert local.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_per_type_metrics_match_direct_computation(self):
        from collections import Counter

        from factoidlab.bounds import BoundParams
        from factoidlab.harness import multi_type_trial_metrics

        model, world, draws, sample, g = self._setup(22)
        params = BoundParams(delta=0.1, b=5, epsilon=0.1, s=1.0, r=1.0, n=len(draws), k_types=2)
        rows = multi_type_trial_metrics(model, world, sample, g, params)
        for i, (mf_i, g_h_i, _, _) in enumerate(rows):
            rng_i = model.type_range(i)
            in_range = [y for y in draws if y in rng_i]
            counts = Counter(in_range)
            assert mf_i == sum(1 for c in counts.values() if c == 1) / len(draws)
            halluc_atoms = set(rng_i) - set(world.fact_keys.tolist())
            direct = sum(g.weight(y) for y in halluc_atoms)
            assert g_h_i == pytest.approx(direct, abs=1e-12)
