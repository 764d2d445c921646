"""Config parsing, result files, and the command-line surface."""

import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import factoidlab

from factoidlab.bounds import BOUND_TERMS, BOUNDS, BoundFrequency, clopper_pearson
from factoidlab.calibration import BIN_COUNT_LIMIT, MATERIALIZE_LIMIT, AdaptiveBinning
from factoidlab.cli import (
    _ALGORITHMS,
    _BOUND_KEYS,
    _COMMANDS,
    _RUN_KEYS,
    _WORLDS,
    TRIALS_CSV_HEADER,
    cli_main,
    config_hash,
    parse_config,
    parse_config_text,
    serialize_config,
    write_reliability_csv,
    write_trials_csv,
)
from factoidlab.dist import random_dist, sample_iid
from factoidlab.estimators import TrainingSample
from factoidlab.errors import ConfigError, DistributionError
from factoidlab.harness import (
    DRAW_COUNT_LIMIT,
    TRIAL_COUNT_LIMIT,
    BoundSettings,
    ExperimentConfig,
    run_multi_type_experiment,
)
from factoidlab.lms import (
    Empirical,
    Laplace,
    MonofactMemorizer,
    Oracle,
    Uniform,
    YayMixture,
    train,
)
from factoidlab.rng import SeededRng
from factoidlab.worlds import (
    FACT_COUNT_LIMIT,
    MultiTypeWorld,
    PermutedPowerLawWorld,
    W5World,
    sample_world,
)
from literal import reliability_curve

SMALL_CFG = """\
# smallest meaningful experiment
world.kind = permuted_power_law
world.universe_size = 2000
world.fact_count = 50
world.exponent = 0.0
n = 120
algorithm.kind = monofact_memorizer
bound.delta = 0.1
bound.b = 10
bound.epsilon = 0.1
trials = 120
seed = 31415
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParseConfig:
    def test_minimal_power_law(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(SMALL_CFG)
        cfg = parse_config(path)
        assert isinstance(cfg.world, PermutedPowerLawWorld)
        assert cfg.world.fact_count == 50
        assert cfg.n == 120
        assert isinstance(cfg.algorithm, MonofactMemorizer)
        assert cfg.master_seed == 31415

    def test_w5_config(self):
        cfg = parse_config_text(
            "world.kind = w5\nworld.people = 3\nworld.dates = 3\n"
            "world.foods = 3\nworld.locations = 3\n"
            "n = 20\nalgorithm.kind = empirical\ntrials = 5\nseed = 1\n"
        )
        assert isinstance(cfg.world, W5World)
        assert cfg.world.universe_size == 82

    def test_algorithm_parameters(self):
        base = (
            "world.kind = permuted_power_law\nworld.universe_size = 500\n"
            "world.fact_count = 20\nn = 50\ntrials = 3\nseed = 2\n"
        )
        cfg = parse_config_text(base + "algorithm.kind = laplace\nalgorithm.alpha = 1.5\n")
        assert cfg.algorithm == Laplace(1.5)
        cfg = parse_config_text(base + "algorithm.kind = yay_mixture\nalgorithm.lambda = 0.75\n")
        assert isinstance(cfg.algorithm, YayMixture)
        assert cfg.algorithm.lam == 0.75

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="world.colour"):
            parse_config_text(SMALL_CFG + "world.colour = blue\n")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="world.fact_count"):
            parse_config_text(
                "world.kind = permuted_power_law\nworld.universe_size = 100\n"
                "n = 10\nalgorithm.kind = empirical\ntrials = 1\nseed = 0\n"
            )

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config_text(SMALL_CFG.replace("trials = 120", "trials = many"))

    def test_small_universe_refused(self):
        with pytest.raises(ConfigError, match="U would be empty"):
            parse_config_text(SMALL_CFG.replace("world.universe_size = 2000", "world.universe_size = 121"))

    def test_large_zipf_accepted(self):
        cfg = parse_config_text(
            "world.kind = permuted_power_law\nworld.universe_size = 10000000\n"
            "world.fact_count = 1000000\nworld.exponent = 1.0\n"
            "n = 100\nalgorithm.kind = empirical\ntrials = 1\nseed = 0\n"
        )
        assert cfg.world.fact_count == 10**6

    def test_round_trip_identity(self):
        for cfg in (
            parse_config_text(SMALL_CFG),
            ExperimentConfig(
                world=W5World(3, 3, 3, 3),
                n=20,
                algorithm=YayMixture(base=Empirical(), lam=0.9),
                bound=BoundSettings(delta=0.25, b=4, epsilon=0.2, s=2.5, r=3.0),
                trials=7,
                master_seed=99,
            ),
        ):
            assert parse_config_text(serialize_config(cfg)) == cfg

    def test_readme_config_parses_as_written(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config_text(block, source="README.md")
        assert cfg.world == PermutedPowerLawWorld(10**7, 1000, 0.0)
        assert isinstance(cfg.algorithm, MonofactMemorizer)
        assert (cfg.n, cfg.trials, cfg.master_seed) == (2000, 300, 20240811)

    def test_readme_config_record_is_pinned(self, tmp_path):
        # the README run's files, and why each bound was vacuous: the
        # Good-Turing width against MF ~ 0.135, the r n penalty, epsilon
        run_dir = tmp_path / "run"
        code, _, err = run_cli("run", str(_readme_config(tmp_path)), "--out", str(run_dir))
        assert code == 0, err
        assert _digests(run_dir) == README_DIGESTS
        want = {name: dict.fromkeys(BOUND_TERMS, 0) for name in BOUNDS}
        for name in ("cor1", "cor_general", "cor_fixed_tv"):
            want[name]["gt_width"] = 45
        want["cor_balfact"]["penalty"] = 300
        want["cor_fixed_mis"].update(epsilon=255, gt_width=45)
        bounds = json.loads((run_dir / "aggregate.json").read_text(encoding="utf-8"))["bounds"]
        assert {name: row["vacuous_by"] for name, row in bounds.items()} == want
        # report shows each row's causes, by term name
        code, out, _ = run_cli("report", str(run_dir))
        assert code == 0
        causes = {line.split()[0]: line.split("ok", 1)[1].strip() for line in out.splitlines()[3:8]}
        assert causes == {
            "cor1": "gt_width 45",
            "cor_balfact": "penalty 300",
            "cor_fixed_mis": "epsilon 255, gt_width 45",
            "cor_fixed_tv": "gt_width 45",
            "cor_general": "gt_width 45",
        }

    def test_readme_record_holds_with_baseline_simd(self, tmp_path):
        # numpy's SIMD dispatch cut to its baseline, in the subprocess alone:
        # the pinned files depend on no dispatched kernel
        features = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
        # numpy only warns (ImportWarning, silent by default) when it
        # rejects a feature it does not dispatch on this host
        probe = _run_python("-W", "error::ImportWarning", "-c", "import numpy", env=features)
        if probe.returncode != 0:
            pytest.skip(f"numpy rejects {features}: {probe.stderr.strip().splitlines()[-1:]}")
        run_dir = tmp_path / "run"
        cfg = str(_readme_config(tmp_path))
        done = _run_python("-m", "factoidlab", "run", cfg, "--out", str(run_dir), env=features)
        assert done.returncode == 0, done.stderr
        assert _digests(run_dir) == README_DIGESTS

    def test_hash_tracks_content(self):
        a = parse_config_text(SMALL_CFG)
        b = parse_config_text(SMALL_CFG.replace("seed = 31415", "seed = 31416"))
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(parse_config_text(serialize_config(a)))


class TestResultFiles:
    def test_zero_record_csv_is_header_only(self, tmp_path):
        path = tmp_path / "trials.csv"
        write_trials_csv(path, [])
        assert path.read_text() == TRIALS_CSV_HEADER + "\n"

    def test_run_outputs_and_reproducibility(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 25"))
        code1, out1, _ = run_cli("run", str(cfg_path), "--out", str(tmp_path / "r1"))
        code2, _, _ = run_cli("run", str(cfg_path), "--out", str(tmp_path / "r2"))
        assert code1 == code2 == 0
        for name in ("config.cfg", "manifest.json", "trials.csv", "aggregate.json", "reliability.csv"):
            assert (tmp_path / "r1" / name).is_file()
        t1 = (tmp_path / "r1" / "trials.csv").read_bytes()
        t2 = (tmp_path / "r2" / "trials.csv").read_bytes()
        assert t1 == t2
        assert t1.decode().splitlines()[0] == TRIALS_CSV_HEADER
        m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        agg = json.loads((tmp_path / "r1" / "aggregate.json").read_text())
        assert agg["trials"] == 25

    def test_seed_override_changes_rows(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 10"))
        run_cli("run", str(cfg_path), "--out", str(tmp_path / "a"))
        run_cli("run", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "999")
        a = (tmp_path / "a" / "trials.csv").read_bytes()
        b = (tmp_path / "b" / "trials.csv").read_bytes()
        assert a != b

    def test_reliability_header(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 5"))
        run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))
        lines = (tmp_path / "r" / "reliability.csv").read_text().splitlines()
        assert lines[0] == "bin_value,g_mass,p_mass,bin_size"
        assert len(lines) >= 2


class TestSubcommands:
    def test_report_round_trip(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 10"))
        run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))
        code, out, _ = run_cli("report", str(tmp_path / "r"))
        assert code == 0
        assert "cor1" in out

    def test_gt_check(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG)
        code, out, _ = run_cli("gt-check", str(cfg_path))
        assert code == 0
        assert "two-sided" in out

    def test_upper_bound(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 30"))
        code, out, _ = run_cli("upper-bound", str(cfg_path))
        assert code == 0
        assert "certainty" in out

    def test_brute_force(self):
        code, out, _ = run_cli("brute-force", "--max-universe", "4")
        assert code == 0
        assert "0 violations" in out

    THM_MAIN_CFG = (
        "world.kind = permuted_power_law\nworld.universe_size = 41\n"
        "world.fact_count = 15\nworld.exponent = 0.0\n"
        "n = 25\nalgorithm.kind = empirical\ntrials = 200\nseed = 7\n"
    )

    def test_thm_main(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(self.THM_MAIN_CFG)
        code, out, _ = run_cli("thm-main", str(cfg_path))
        assert code == 0
        assert "PASS" in out
        # every algorithm's g is one weight on the unobserved atoms, so
        # each probe is computed exactly and no spread is printed
        rows = out.splitlines()[:-1]
        assert len(rows) == 20 and all(" exact rhs " in row for row in rows)
        assert "+/-" not in out

    def test_thm_main_refuses_a_g_the_exactness_rule_does_not_cover(self, tmp_path, monkeypatch):
        # no built-in algorithm gives such a g; the check cannot run on it,
        # so it is an input error (exit 2), not a failed bound
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(self.THM_MAIN_CFG)
        def train_random(alg, sample, truth):
            return random_dist(sample.universe, SeededRng(3))

        monkeypatch.setattr(factoidlab.cli, "train", train_random)
        code, out, err = run_cli("thm-main", str(cfg_path))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and "computed exactly only when" in err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("algorithm.kind = empirical\ntrials = 200\n", ""),
            ("trials = 200", "trials = 1000000000"),
            ("trials = 200", "trials = x\nbound.delta = 2\nbound.s = -1000\nbound.r = 0.5"),
            ("algorithm.kind = empirical", "algorithm.kind = bogus\nalgorithm.alpha = x"),
        ],
        ids=["no_trials_or_algorithm", "trials_above_cap", "bad_unread_bound_keys", "bad_algorithm"],
    )
    def test_thm_main_neither_requires_nor_checks_keys_it_does_not_read(self, tmp_path, old, new):
        """thm-main reads world.*, n, seed, bound.b and bound.epsilon; any
        other key may be left out or hold any value."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(self.THM_MAIN_CFG)
        want = run_cli("thm-main", str(cfg_path))
        assert want[0] == 0 and len(want[1].splitlines()) == 21
        assert old in self.THM_MAIN_CFG
        cfg_path.write_text(self.THM_MAIN_CFG.replace(old, new))
        assert run_cli("thm-main", str(cfg_path)) == want

    @pytest.mark.parametrize("command", ["gt-check", "upper-bound"])
    def test_suite_neither_requires_nor_checks_keys_it_does_not_read(self, tmp_path, command):
        """gt-check and upper-bound read world.*, n, trials, seed and
        bound.delta; any other key may be left out or hold any value."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG)
        want = run_cli(command, str(cfg_path))
        assert want[0] == 0
        unread = "bound.b = 0\nbound.epsilon = 2\nbound.s = x\nbound.r = 0.5\nalgorithm.lambda = 7"
        text = SMALL_CFG.replace("algorithm.kind = monofact_memorizer\n", "")
        cfg_path.write_text(text.replace("bound.b = 10\nbound.epsilon = 0.1", unread))
        assert run_cli(command, str(cfg_path)) == want

    @pytest.mark.parametrize("command", ["gt-check", "upper-bound", "thm-main"])
    def test_suite_refuses_unknown_and_read_keys(self, tmp_path, command):
        """Unknown keys stay refused, and so does a bad value of a key the
        subcommand reads."""
        cfg_path = tmp_path / "c.cfg"
        for text, reason in (
            (self.THM_MAIN_CFG + "bogus.key = 1\n", "unknown key bogus.key"),
            (self.THM_MAIN_CFG.replace("seed = 7", "seed = -1"), "seed must be >= 0"),
        ):
            cfg_path.write_text(text)
            code, out, err = run_cli(command, str(cfg_path))
            assert (code, out) == (2, "") and reason in err

    @pytest.mark.parametrize("command", ["gt-check", "upper-bound", "thm-main"])
    def test_suite_needs_no_sparsity(self, tmp_path, command):
        """A world whose every atom but the empty one is a fact has no
        sparsity, which only run's bounds read: the single-suite
        subcommands run on it with no bound.s."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            "world.kind = permuted_power_law\nworld.universe_size = 301\n"
            "world.fact_count = 300\nn = 50\ntrials = 100\nseed = 7\n"
        )
        code, out, err = run_cli(command, str(cfg_path))
        assert code == 0, err
        assert out.endswith("PASS\n")

    def test_malformed_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("world.kind = permuted_power_law\nwat\n")
        code, _, err = run_cli("run", str(bad))
        assert code == 2
        assert "wat" in err

    def test_unknown_key_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + "bogus.key = 1\n")
        code, _, err = run_cli("run", str(bad))
        assert code == 2
        assert "bogus.key" in err

    def test_unknown_subcommand_exits_two(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_missing_config_file_exits_two(self, tmp_path):
        code, _, err = run_cli("run", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "not found" in err

    def test_usage_error_goes_to_err(self, tmp_path):
        code, out, err = run_cli("run", str(tmp_path / "c.cfg"), "--bogus")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --bogus" in err

    def test_help_goes_to_out(self):
        code, out, err = run_cli("thm-main", "--help")
        assert code == 0
        assert out.startswith("usage: factoidlab thm-main")
        assert err == ""


class TestSingleTrialRun:
    def test_one_record_row(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 1"))
        code, _, _ = run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))
        assert code == 0
        lines = (tmp_path / "r" / "trials.csv").read_text().splitlines()
        assert len(lines) == 2


class TestFailsClosed:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["bound.s", "bound.delta", "world.exponent", "algorithm.alpha"])
    def test_non_finite_float_exits_two_without_run_dir(self, tmp_path, key, value):
        text = SMALL_CFG.replace("algorithm.kind = monofact_memorizer", "algorithm.kind = laplace")
        lines = [line for line in text.splitlines() if not line.startswith(key)]
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
        code, out, err = run_cli("run", str(bad), "--out", str(tmp_path / "r"))
        assert code == 2
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "old, new, reason",
        [
            ("world.fact_count = 50", "world.fact_count = 0", "fact count 0"),
            ("world.exponent = 0.0", "world.exponent = -1", "exponent must be >= 0"),
            (
                "world.kind = permuted_power_law\nworld.universe_size = 2000\n",
                "world.kind = w5\nworld.people = 0\nworld.dates = 9\nworld.locations = 9\n"
                "world.foods = 9\n",
                "n_people must be >= 1",
            ),
            ("world.universe_size = 2000", f"world.universe_size = {2**63}", "universe size"),
            ("bound.delta = 0.1", "bound.delta = 2", "delta must be in (0,1]"),
            ("bound.b = 10", "bound.b = 0", "b must be >= 1"),
            ("bound.b = 10", "bound.b = 100000000000", f"exceeds the limit of {BIN_COUNT_LIMIT} bins"),
            ("bound.epsilon = 0.1", "bound.epsilon = 1.5", "epsilon must be in [0,1]"),
            ("bound.epsilon = 0.1", "bound.epsilon = 1e-17", "1 - epsilon rounds to 1"),
            ("seed = 31415", "seed = 31415\nbound.r = 0.5", "r must be >= 1"),
            ("seed = 31415", "seed = 31415\nbound.s = -1000", "e^(-s) overflows"),
            ("seed = 31415", "seed = 31415\nbound.k_types = 7", "unknown key bound.k_types"),
            ("seed = 31415", "seed = -1", "seed must be >= 0"),
            (
                "world.universe_size = 2000\nworld.fact_count = 50",
                "world.universe_size = 100000000000000\nworld.fact_count = 1000000000000",
                f"exceeds the limit of {FACT_COUNT_LIMIT} facts",
            ),
            (
                "world.kind = permuted_power_law\nworld.universe_size = 2000\n",
                "world.kind = w5\nworld.people = 10000\nworld.dates = 10000\nworld.locations = 2\n"
                "world.foods = 2\n",
                f"exceeds the limit of {FACT_COUNT_LIMIT} facts",
            ),
        ],
        ids=["fact_count", "exponent", "w5_people", "universe_size", "delta", "b", "b_limit",
             "epsilon", "tiny_epsilon", "r", "s_overflow", "k_types", "seed", "fact_count_limit",
             "w5_pair_limit"],
    )
    def test_bad_value_exits_two_without_run_dir(self, tmp_path, old, new, reason):
        text = SMALL_CFG.replace("trials = 120", "trials = 3")
        assert old in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(old, new))
        code, out, err = run_cli("run", str(bad), "--out", str(tmp_path / "r"))
        assert code == 2
        assert err.startswith("config error:") and reason in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "command, old, new, reason",
        [
            ("run", "n = 120", f"n = {DRAW_COUNT_LIMIT + 1}", "draws per trial"),
            ("gt-check", "trials = 120", f"trials = {TRIAL_COUNT_LIMIT + 1}", "trials"),
            ("upper-bound", "trials = 120", f"trials = {TRIAL_COUNT_LIMIT + 1}", "trials"),
        ],
        ids=["n", "gt_check_trials", "upper_bound_trials"],
    )
    def test_count_above_cap_exits_two_before_running(
        self, tmp_path, monkeypatch, command, old, new, reason
    ):
        # parse only: the run would allocate per-draw or per-trial arrays
        text = SMALL_CFG.replace("world.universe_size = 2000", "world.universe_size = 100000000")
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=f"exceeds the limit of .* {reason}"):
            parse_config(bad)
        for name in ("run_experiment", "run_gt_concentration", "run_upper_bound_check", "_drawn", "sample_world"):
            monkeypatch.setattr(factoidlab.cli, name, _refuse)
        out_dir = ["--out", str(tmp_path / "r")] if command == "run" else []
        code, out, err = run_cli(command, str(bad), *out_dir)
        assert code == 2
        assert err.startswith("config error:") and "exceeds the limit of" in err
        assert not (tmp_path / "r").exists()

    def test_counts_at_cap_parse(self):
        text = SMALL_CFG.replace("world.universe_size = 2000", "world.universe_size = 100000000")
        cfg = parse_config_text(
            text.replace("n = 120", f"n = {DRAW_COUNT_LIMIT}").replace(
                "trials = 120", f"trials = {TRIAL_COUNT_LIMIT}"
            )
        )
        assert (cfg.n, cfg.trials) == (DRAW_COUNT_LIMIT, TRIAL_COUNT_LIMIT)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["thm-main", "{cfg}"], "refusing to materialize per-atom blocks"),
            (["brute-force", "--max-universe", "13"], "too large to enumerate partitions"),
            (["brute-force", "--seed", "-1"], "seed must be >= 0"),
        ],
        ids=["thm_main_readme", "brute_force_universe", "brute_force_seed"],
    )
    def test_library_error_exits_two(self, tmp_path, argv, reason):
        # exit 1 means a check ran and failed; an input it cannot run on is exit 2
        cfg_path = _readme_config(tmp_path)
        code, out, err = run_cli(*(arg.format(cfg=cfg_path) for arg in argv))
        assert code == 2
        assert err.startswith("config error:") and reason in err

    def test_thm_main_refuses_large_universe_before_drawing(self, tmp_path, monkeypatch):
        cfg_path = _readme_config(tmp_path)
        worlds = _count_calls(monkeypatch, "sample_world")
        trainings = _count_calls(monkeypatch, "train")
        code, out, err = run_cli("thm-main", str(cfg_path))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and f"the limit is {MATERIALIZE_LIMIT}" in err
        assert worlds.calls == 0
        assert trainings.calls == 0

    def test_brute_force_refuses_large_universe_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(factoidlab.cli, "random_dist", lambda *args: drawn.append(args))
        code, out, err = run_cli("brute-force", "--max-universe", "1000000")
        assert code == 2
        assert err.startswith("config error:") and "too large to enumerate partitions" in err
        assert drawn == []

    @pytest.mark.parametrize(
        "name, content",
        [
            *(
                (name, content)
                for name in ("aggregate.json", "manifest.json")
                for content in ("{not json", "{}", "[1, 2]")
            ),
            pytest.param(
                "reliability.csv", b"bin_value,g_mass\n\xff\xfe\x80\n", id="reliability.csv-non_utf8"
            ),
            pytest.param(
                "aggregate.json",
                json.dumps({"trials": 3, "delta": 0.1, "passed": True, "bounds": {"cor1": {
                    "frequency": 1.0, "ci_low": 0.3, "ci_high": 1.0, "vacuous_fraction": 0.0,
                    "passed": "no"}}}),
                id="aggregate.json-row_passed_not_bool",
            ),
            pytest.param(
                "aggregate.json",
                json.dumps({"trials": 3, "delta": 0.1, "passed": True, "bounds": {"cor1": {
                    "frequency": 0.0, "ci_low": 0.0, "ci_high": 0.7, "vacuous_fraction": 0.0,
                    "passed": True}}}),
                id="aggregate.json-row_passed_against_its_frequency",
            ),
            pytest.param(
                "aggregate.json",
                json.dumps({"trials": 3, "delta": 0.1, "passed": True, "bounds": {}}),
                id="aggregate.json-no_rows",
            ),
        ],
    )
    def test_report_on_damaged_run_exits_two(self, tmp_path, name, content):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 3"))
        run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))
        raw = content if isinstance(content, bytes) else content.encode()
        (tmp_path / "r" / name).write_bytes(raw)
        code, out, err = run_cli("report", str(tmp_path / "r"))
        assert code == 2
        assert err.startswith("config error:")
        assert out == ""

    def test_run_out_on_existing_file_exits_two(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 3"))
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code, out, err = run_cli("run", str(cfg_path), "--out", str(taken))
        assert code == 2
        assert err.startswith("config error:") and "failed writing results" in err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("module", ["factoidlab", "factoidlab.cli"])
    def test_python_m_without_arguments_prints_usage(self, module):
        done = _run_python("-m", module)
        assert done.returncode == 2
        assert "usage: factoidlab" in done.stderr


class TestRunRecord:
    """A directory that holds aggregate.json is a complete record, and
    report's verdict is the rows'."""

    @staticmethod
    def _config(tmp_path) -> Path:
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 3"))
        return cfg_path

    @pytest.mark.parametrize("chunk", [1, 3], ids=["own_chunk", "mid_chunk"])
    def test_failing_trial_leaves_nothing(self, tmp_path, monkeypatch, chunk):
        # the config's n is 120; trial 1 is alone in its chunk, or the
        # middle of trials 0-2
        sample_world = factoidlab.harness.sample_world

        def second_fails(model, rng):
            if rng.key == (1,):
                raise DistributionError("injected")
            return sample_world(model, rng)

        monkeypatch.setattr(factoidlab.dist, "_CHUNK_DRAWS", chunk * 120)
        monkeypatch.setattr(factoidlab.harness, "sample_world", second_fails)
        code, out, err = run_cli("run", str(self._config(tmp_path)), "--out", str(tmp_path / "r"))
        assert code == 2
        assert "trial 1: injected" in err
        assert not (tmp_path / "r").exists()

    def test_failed_reliability_write_leaves_no_aggregate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(factoidlab.cli, "write_reliability_csv", _fail_write)
        code, _, err = run_cli("run", str(self._config(tmp_path)), "--out", str(tmp_path / "r"))
        assert code == 2
        assert "failed writing results" in err
        assert not (tmp_path / "r" / "aggregate.json").exists()
        code, out, err = run_cli("report", str(tmp_path / "r"))
        assert code == 2
        assert out == ""

    def test_failed_rerun_leaves_no_stale_aggregate(self, tmp_path, monkeypatch):
        cfg_path = self._config(tmp_path)
        assert run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))[0] == 0
        assert (tmp_path / "r" / "aggregate.json").is_file()
        monkeypatch.setattr(factoidlab.cli, "write_trials_csv", _fail_write)
        code, _, _ = run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"), "--seed", "99")
        assert code == 2
        assert not (tmp_path / "r" / "aggregate.json").exists()
        assert run_cli("report", str(tmp_path / "r"))[0] == 2

    def test_report_verdict_comes_from_rows(self, tmp_path):
        assert run_cli("run", str(self._config(tmp_path)), "--out", str(tmp_path / "r"))[0] == 0
        agg_path = tmp_path / "r" / "aggregate.json"
        agg = json.loads(agg_path.read_text())
        assert agg["passed"] is True
        # a failed row that its own counts, frequency and interval agree with
        low, high = clopper_pearson(0, 3)
        agg["bounds"]["cor1"].update(satisfied=0, frequency=0.0, ci_low=low, ci_high=high, passed=False)
        agg_path.write_text(json.dumps(agg))
        code, out, _ = run_cli("report", str(tmp_path / "r"))
        assert code == 1
        assert "FAIL" in out

    def test_report_refuses_an_interval_off_its_counts(self, tmp_path):
        """1 of 1 trials with ci95 [0.05, 1.0] holds its frequency, but the
        Clopper-Pearson interval of its counts starts at 0.025: damaged."""
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        for name, text in RUN_RECORD.items():
            (run_dir / name).write_text(text)
        assert run_cli("report", str(run_dir))[0] == 0
        agg = json.loads(RUN_RECORD["aggregate.json"])
        agg["bounds"]["cor1"]["ci_low"] = 0.05
        (run_dir / "aggregate.json").write_text(json.dumps(agg))
        code, out, err = run_cli("report", str(run_dir))
        assert code == 2
        assert "damaged run record" in err and "cor1" in err and "Clopper-Pearson" in err
        assert out == ""

    def test_report_without_vacuous_by_shows_a_dash(self, tmp_path):
        """A row written before rows carried vacuous_by renders "-"."""
        assert run_cli("run", str(self._config(tmp_path)), "--out", str(tmp_path / "r"))[0] == 0
        agg_path = tmp_path / "r" / "aggregate.json"
        agg = json.loads(agg_path.read_text())
        for row in agg["bounds"].values():
            del row["vacuous_by"]
        agg_path.write_text(json.dumps(agg))
        code, out, _ = run_cli("report", str(tmp_path / "r"))
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line.startswith("cor")]
        assert len(rows) == len(agg["bounds"]) and all(row[-1] == "-" for row in rows)

    @pytest.mark.parametrize(
        "causes", [[1], {"gt_width": -1}, {"gt_width": 1.5}, {"gt_width": True}, "gt_width 3"]
    )
    def test_report_on_damaged_vacuous_by_exits_two(self, tmp_path, causes):
        assert run_cli("run", str(self._config(tmp_path)), "--out", str(tmp_path / "r"))[0] == 0
        agg_path = tmp_path / "r" / "aggregate.json"
        agg = json.loads(agg_path.read_text())
        agg["bounds"]["cor1"]["vacuous_by"] = causes
        agg_path.write_text(json.dumps(agg))
        code, out, err = run_cli("report", str(tmp_path / "r"))
        assert code == 2
        assert "damaged run record" in err and "vacuous_by" in err
        assert out == ""

    @pytest.mark.parametrize(
        "record, rows",
        [
            pytest.param({"delta": math.nan}, {}, id="delta_nan"),
            pytest.param({}, {"frequency": math.nan}, id="every_frequency_nan"),
            pytest.param(
                {}, {"frequency": 0.5, "satisfied": 20, "trials": 20}, id="frequency_against_counts"
            ),
        ],
    )
    def test_report_on_damaged_counts_exits_two(self, tmp_path, record, rows):
        """A record whose rows all say failed, but whose delta or counts do
        not hold, is damaged (exit 2), not a failed bound (exit 1)."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 20"))
        run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))
        agg_path = tmp_path / "r" / "aggregate.json"
        agg = json.loads(agg_path.read_text())
        agg.update(record)
        for row in agg["bounds"].values():
            row.update(passed=False, **rows)
        agg_path.write_text(json.dumps(agg))
        code, out, err = run_cli("report", str(tmp_path / "r"))
        assert code == 2
        assert err.startswith("config error:") and "damaged run record" in err
        assert out == ""

    def test_report_on_contradictory_vacuity_and_interval_exits_two(self, tmp_path):
        """A row whose vacuity and interval contradict its counts is damaged,
        though its satisfied, frequency and passed agree."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 100"))
        assert run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))[0] == 0
        agg_path = tmp_path / "r" / "aggregate.json"
        agg = json.loads(agg_path.read_text())
        agg["bounds"]["cor1"].update(
            vacuous=500, vacuous_fraction=5.0, ci_low=0.99, ci_high=0.20, vacuous_by={"mf": 7}
        )
        agg_path.write_text(json.dumps(agg))
        code, out, err = run_cli("report", str(tmp_path / "r"))
        assert code == 2
        assert "damaged run record" in err and "cor1" in err
        assert out == ""

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param({"vacuous": 4, "vacuous_fraction": 4 / 3}, id="vacuous_above_trials"),
            pytest.param({"vacuous": -1, "vacuous_fraction": -1 / 3}, id="vacuous_negative"),
            pytest.param({"vacuous": 1.0}, id="vacuous_not_an_int"),
            pytest.param({"vacuous_fraction": 0.5}, id="fraction_against_count"),
            pytest.param({"vacuous_by": {"mf": 2}}, id="vacuous_by_sum"),
            pytest.param({"ci_low": 0.7}, id="ci_low_above_frequency"),
            pytest.param({"ci_high": 0.6}, id="ci_high_below_frequency"),
            pytest.param({"ci_low": -0.01}, id="ci_low_below_zero"),
            pytest.param({"ci_high": 1.01}, id="ci_high_above_one"),
            pytest.param({"ci_low": 0.1}, id="ci_low_off_its_counts"),
            pytest.param({"ci_high": 0.99}, id="ci_high_off_its_counts"),
        ],
    )
    def test_report_on_one_contradiction_exits_two(self, tmp_path, damage):
        """Each vacuity or interval rule alone marks a row damaged. The
        rows carry no vacuous_by, which report accepts, unless a case sets
        one."""
        assert run_cli("run", str(self._config(tmp_path)), "--out", str(tmp_path / "r"))[0] == 0
        agg_path = tmp_path / "r" / "aggregate.json"
        agg = json.loads(agg_path.read_text())
        for row in agg["bounds"].values():
            del row["vacuous_by"]
        row = agg["bounds"]["cor_general"]
        # a failed row that agrees with itself: 2 of 3 trials satisfied, 1 vacuous
        row.update(satisfied=2, frequency=2 / 3, passed=False, vacuous=1, vacuous_fraction=1 / 3)
        row.update(zip(("ci_low", "ci_high"), clopper_pearson(2, 3)))
        agg_path.write_text(json.dumps(agg))
        assert run_cli("report", str(tmp_path / "r"))[0] == 1
        row.update(damage)
        agg_path.write_text(json.dumps(agg))
        code, out, err = run_cli("report", str(tmp_path / "r"))
        assert code == 2
        assert "damaged run record" in err and "cor_general" in err
        assert out == ""

    def test_aggregate_is_strict_json(self, tmp_path):
        """With every trial's KL infinite, the finite-KL summary is written as
        null, and the file parses with NaN and infinities refused."""
        cfg_path = tmp_path / "c.cfg"
        text = SMALL_CFG.replace("trials = 120", "trials = 3")
        cfg_path.write_text(text.replace("monofact_memorizer", "empirical"))
        run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))

        def refuse(name):
            raise ValueError(f"non-finite number {name}")

        agg = json.loads((tmp_path / "r" / "aggregate.json").read_text(), parse_constant=refuse)
        assert agg["metrics"]["kl_inf_fraction"] == {"mean": 1.0, "std": 0.0}
        assert agg["metrics"]["kl_finite"] == {"mean": None, "std": 0.0}
        assert run_cli("report", str(tmp_path / "r"))[0] in (0, 1)


@pytest.fixture(scope="module")
def run_record(tmp_path_factory) -> tuple[int, str, dict[str, str]]:
    """run's exit code, its stdout and the files of the record it wrote."""
    cfg_path = tmp_path_factory.mktemp("config") / "c.cfg"
    cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 20"))
    run_dir = tmp_path_factory.mktemp("record")
    code, out, _ = run_cli("run", str(cfg_path), "--out", str(run_dir))
    return code, out, {path.name: path.read_text() for path in run_dir.iterdir()}


@st.composite
def one_changed_field(draw, agg: dict) -> tuple[str, dict]:
    """A bound row's name, and the aggregate with one field of that row
    changed: a count, a fraction, passed, one vacuous_by count, or an
    interval end moved by more than 1e-9. A count or passed may keep its
    value as another type."""
    agg = json.loads(json.dumps(agg))
    name = draw(st.sampled_from(sorted(agg["bounds"])), label="row")
    holder = agg["bounds"][name]
    field = draw(st.sampled_from(sorted(holder)), label="field")
    if field == "vacuous_by":
        holder = holder[field]
        field = draw(st.sampled_from(sorted(holder)), label="term")
    old = holder[field]
    if type(old) is bool:
        new = draw(st.sampled_from([not old, int(old)]))
    elif type(old) is int:
        new = draw(st.just(float(old)) | st.integers(-3, 3).filter(bool).map(old.__add__))
    elif field in ("ci_low", "ci_high"):
        new = old + draw(st.floats(1e-9, 1.0, exclude_min=True) | st.floats(-1.0, -1e-9, exclude_max=True))
        assume(abs(new - old) > 1e-9)
    else:
        # any other float, or one within 1e-9 of it
        new = draw((st.floats() | st.floats(-1e-9, 1e-9).map(old.__add__)).filter(lambda x: x != old))
    holder[field] = new
    return name, agg


class TestReportRowRule:
    """report rebuilds every stored row from its counts; a row that differs
    from its rebuild marks the record damaged."""

    def test_report_prints_the_table_run_printed(self, run_record):
        code, out, files = run_record
        with tempfile.TemporaryDirectory() as scratch:
            for name, text in files.items():
                Path(scratch, name).write_text(text)
            report_code, report_out, _ = run_cli("report", scratch)
        assert report_code == code
        table = out.splitlines()[:-1]
        assert report_out.splitlines()[1 : len(table) + 1] == table

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_changed_field_marks_the_record_damaged(self, run_record, data):
        _, _, files = run_record
        name, agg = data.draw(one_changed_field(json.loads(files["aggregate.json"])))
        with tempfile.TemporaryDirectory() as scratch:
            for file_name, text in files.items():
                Path(scratch, file_name).write_text(text)
            Path(scratch, "aggregate.json").write_text(json.dumps(agg))
            code, out, err = run_cli("report", scratch)
        assert (code, out) == (2, "")
        assert "damaged run record" in err and name in err

    @staticmethod
    def _record(run_dir: Path, trials: int, row: dict) -> Path:
        """A run record of one cor1 row that claims trials trials."""
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(RUN_RECORD["manifest.json"])
        agg = {"trials": trials, "delta": 0.1, "passed": True, "bounds": {"cor1": row}}
        (run_dir / "aggregate.json").write_text(json.dumps(agg))
        return run_dir

    @pytest.mark.parametrize("trials", [TRIAL_COUNT_LIMIT + 1, 10**18])
    def test_more_trials_than_run_writes_mark_the_record_damaged(self, tmp_path, monkeypatch, trials):
        """No run writes more than TRIAL_COUNT_LIMIT trials, and an interval
        at such a count can take minutes: the record is refused before any
        interval is computed."""
        intervals = []
        original = factoidlab.bounds.clopper_pearson
        monkeypatch.setattr(
            factoidlab.bounds, "clopper_pearson", lambda *a: intervals.append(a) or original(*a)
        )
        satisfied = trials // 10 * 9
        row = dict(
            satisfied=satisfied, trials=trials, frequency=satisfied / trials, ci_low=0.89, ci_high=0.91,
            vacuous=0, vacuous_fraction=0.0, passed=False, vacuous_by={term: 0 for term in BOUND_TERMS},
        )
        start = time.perf_counter()
        code, out, err = run_cli("report", str(self._record(tmp_path / "r", trials, row)))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "damaged run record" in err and f"trials {trials}" in err
        assert intervals == []

    def test_a_record_at_the_trial_cap_is_accepted(self, tmp_path):
        by = {term: 0 for term in BOUND_TERMS}
        by["gt_width"] = 10
        row = BoundFrequency.from_counts("cor1", 950_000, TRIAL_COUNT_LIMIT, 10, by, 0.1)
        stored = {k: v for k, v in dataclasses.asdict(row).items() if k != "name"}
        code, out, _ = run_cli("report", str(self._record(tmp_path / "r", TRIAL_COUNT_LIMIT, stored)))
        assert code == 0
        assert "cor1" in out and f"{TRIAL_COUNT_LIMIT}" in out


def _fail_write(path, *args):
    raise OSError(f"injected failure writing {path}")


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        # scipy is a test-only reference; importing it costs about a second
        done = _run_python(
            "-c", "import sys, factoidlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_import_loads_no_numpy_random(self):
        # numpy.random loads with the first stream a command draws from;
        # loading it at import adds a few MB to every process's footprint
        done = _run_python("-c", "import sys, factoidlab.cli; print('numpy.random' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


def _run_python(*argv, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's factoidlab,
    with env's variables added to its environment."""
    src = str(Path(factoidlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


#: sha256 of the README run's trials.csv and reliability.csv
README_DIGESTS = {
    "trials.csv": "91ebb86a872f7a62e0d657da6e55573bf5648a27c9a017bfade6d817646ff717",
    "reliability.csv": "06088718c97d0e8398238ac4fbc67d7fe5db9d6fc11d5b7fa52c360447839dec",
}


def _digests(run_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in README_DIGESTS}


def _readme_config(tmp_path: Path) -> Path:
    """The README's example config, written to a file."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    cfg_path = tmp_path / "readme.cfg"
    cfg_path.write_text(block)
    return cfg_path


def _refuse(*args, **kwargs):
    raise AssertionError("a config above a count cap must not run")


def _count_calls(monkeypatch, name: str, owner=factoidlab.harness) -> types.SimpleNamespace:
    """Wrap the library function `name` of the module `owner` wherever a
    factoidlab module binds it, and count the calls."""
    counter = types.SimpleNamespace(calls=0)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "factoidlab"]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counter.calls += 1
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return counter


class TestRunDoesEachTrialOnce:
    def test_reliability_rows_come_from_trial_zero(self, tmp_path, monkeypatch):
        trials = 4
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            SMALL_CFG.replace("trials = 120", f"trials = {trials}").replace(
                "monofact_memorizer", "laplace"
            )
        )
        worlds = _count_calls(monkeypatch, "sample_world")
        profiles = _count_calls(monkeypatch, "keyed_profile")
        code, _, _ = run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))
        assert code in (0, 1)
        assert worlds.calls == trials
        assert profiles.calls == trials
        monkeypatch.undo()

        # trial 0 redone by hand, its rows taken through the public curve
        cfg = parse_config(cfg_path)
        rng = SeededRng(cfg.master_seed).child(0)
        world = sample_world(cfg.world, rng)
        sample = TrainingSample(world.universe, sample_iid(world.p, cfg.n, rng))
        g = train(cfg.algorithm, sample, truth=world.p)
        rows = reliability_curve(world.p, g, AdaptiveBinning(cfg.bound.b))
        assert len(rows) >= 2
        write_reliability_csv(tmp_path / "expected.csv", rows)
        assert (tmp_path / "r" / "reliability.csv").read_bytes() == (
            tmp_path / "expected.csv"
        ).read_bytes()

    def test_upper_bound_builds_one_profile_per_trial(self, tmp_path, monkeypatch):
        trials = 4
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", f"trials = {trials}"))
        worlds = _count_calls(monkeypatch, "sample_world")
        profiles = _count_calls(monkeypatch, "keyed_profile")
        code, out, _ = run_cli("upper-bound", str(cfg_path))
        assert code in (0, 1)
        assert f"certainty event: {trials}/{trials}" in out
        assert worlds.calls == trials
        assert profiles.calls == trials

    def test_multi_type_builds_one_local_profile_per_type(self, monkeypatch):
        """Each type's profile pairs the projections of p and g onto it;
        no profile of the whole world is built."""
        trials, components = 3, (
            PermutedPowerLawWorld(301, 20, 0.0),
            PermutedPowerLawWorld(401, 30, 1.0),
            PermutedPowerLawWorld(201, 10, 2.0),
        )
        cfg = ExperimentConfig(
            world=MultiTypeWorld(components=components, weights=(0.5, 0.3, 0.2)),
            n=50,
            algorithm=Laplace(),
            bound=BoundSettings(k_types=len(components)),
            trials=trials,
            master_seed=5,
        )
        worlds = _count_calls(monkeypatch, "sample_world")
        profiles = _count_calls(monkeypatch, "keyed_profile")
        pairs = _count_calls(monkeypatch, "_pair_profile")
        run_multi_type_experiment(cfg)
        assert worlds.calls == trials
        assert profiles.calls == 0
        assert pairs.calls == trials * len(components)


#: one of each built-in algorithm
_ALGORITHM_OBJECTS = (
    Empirical(),
    Laplace(),
    Uniform(),
    MonofactMemorizer(),
    Oracle(),
    YayMixture(base=Empirical(), lam=0.99),
)


class TestProfilesTakeOneSearch:
    """Every pair a suite lays out is a world's p, or its projection onto
    one type, against a g trained on a sample from it, so each is laid out
    by the one search; brute-force lays out no pair."""

    @pytest.mark.parametrize("kind", sorted(_ALGORITHMS))
    def test_run_lays_out_each_pair(self, tmp_path, monkeypatch, kind):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            SMALL_CFG.replace("trials = 120", "trials = 3").replace("monofact_memorizer", kind)
        )
        pairs = _count_calls(monkeypatch, "_pair_profile", factoidlab.dist)
        code, _, _ = run_cli("run", str(cfg_path), "--out", str(tmp_path / "r"))
        assert code in (0, 1)
        assert pairs.calls == 3

    def test_upper_bound_lays_out_each_pair(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL_CFG.replace("trials = 120", "trials = 3"))
        pairs = _count_calls(monkeypatch, "_pair_profile", factoidlab.dist)
        code, _, _ = run_cli("upper-bound", str(cfg_path))
        assert code in (0, 1)
        assert pairs.calls == 3

    @pytest.mark.parametrize("algorithm", _ALGORITHM_OBJECTS, ids=lambda a: type(a).__name__)
    def test_multi_type_lays_out_each_pair(self, monkeypatch, algorithm):
        components = (PermutedPowerLawWorld(301, 20, 0.0), PermutedPowerLawWorld(401, 30, 1.0))
        cfg = ExperimentConfig(
            world=MultiTypeWorld(components=components, weights=(0.6, 0.4)),
            n=50,
            algorithm=algorithm,
            bound=BoundSettings(k_types=len(components)),
            trials=3,
            master_seed=5,
        )
        pairs = _count_calls(monkeypatch, "_pair_profile", factoidlab.dist)
        run_multi_type_experiment(cfg)
        assert pairs.calls == 3 * len(components)

    def test_brute_force_lays_out_no_pair(self, monkeypatch):
        pairs = _count_calls(monkeypatch, "_pair_profile", factoidlab.dist)
        code, out, _ = run_cli("brute-force", "--max-universe", "3")
        assert code == 0
        assert pairs.calls == 0
        assert out.splitlines() == ["coarsening-mass lemma sweep (|Y|=3): 0 violations", "PASS"]


# ---------------------------------------------------------------------------
# Property tests over the config table
# ---------------------------------------------------------------------------


VALUE_TEXTS = st.one_of(
    st.integers().map(str),
    st.integers(-3, 3000).map(str),
    st.floats().map(repr),
    st.floats(-2.0, 3.0).map(repr),
    st.sampled_from(["", "nan", "-inf", "1e999", "words", *_WORLDS, *_ALGORITHMS]),
    st.text(max_size=8),
)


@st.composite
def config_texts(draw):
    """Text over the known keys of a random world and algorithm kind,
    with arbitrary value strings and some keys left out."""
    world_kind = draw(st.sampled_from(sorted(_WORLDS)))
    algo_kind = draw(st.sampled_from(sorted(_ALGORITHMS)))
    keys = [*_WORLDS[world_kind][2], *_ALGORITHMS[algo_kind][2], *_BOUND_KEYS, *_RUN_KEYS]
    table = {"world.kind": world_kind, "algorithm.kind": algo_kind}
    table.update((key, draw(VALUE_TEXTS)) for key, *_ in keys)
    dropped = draw(st.sets(st.sampled_from(sorted(table))))
    return "\n".join(f"{key} = {value}" for key, value in table.items() if key not in dropped)


@st.composite
def valid_configs(draw):
    if draw(st.booleans()):
        size = draw(st.integers(3, 10**9))
        # at least one hallucination, so the world's sparsity is defined
        world = PermutedPowerLawWorld(
            size, draw(st.integers(1, min(size - 2, FACT_COUNT_LIMIT))), draw(st.floats(0.0, 5.0))
        )
    else:
        world = W5World(*(draw(st.integers(1, 40)) for _ in range(3)), draw(st.integers(2, 40)))
    algorithm = draw(
        st.sampled_from([Empirical(), Uniform(), MonofactMemorizer(), Oracle()])
        | st.builds(Laplace, st.floats(0.0, 1e6, exclude_min=True))
        | st.builds(YayMixture, st.just(Empirical()), st.floats(0.0, 1.0))
    )
    bound = BoundSettings(
        delta=draw(st.floats(0.0, 1.0, exclude_min=True)),
        b=draw(st.integers(1, 1000)),
        # 0 (exact-value bins) or large enough that 1 - epsilon < 1
        epsilon=draw(st.just(0.0) | st.floats(2**-53, 1.0)),
        s=draw(st.none() | st.floats(-50.0, 50.0)),
        r=draw(st.floats(1.0, 1e6)),
    )
    n = draw(st.integers(1, min(world.universe_size - 2, DRAW_COUNT_LIMIT)))
    return ExperimentConfig(
        world=world,
        n=n,
        algorithm=algorithm,
        bound=bound,
        trials=draw(st.integers(1, TRIAL_COUNT_LIMIT)),
        master_seed=draw(st.integers(0, 2**64)),
    )


class TestConfigProperties:
    @settings(max_examples=300, deadline=None)
    @given(config_texts())
    def test_parse_returns_config_or_raises_config_error(self, text):
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)

    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_valid_configs_round_trip(self, cfg):
        assert parse_config_text(serialize_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# Property tests over the command line
# ---------------------------------------------------------------------------


def _small_if_integer(text: str) -> bool:
    try:
        return int(text) <= 200
    except ValueError:
        return True


#: per config key, valid values that keep a config small enough to run
#: in milliseconds; a key may take no large count that parses, since a
#: config with 10^7 trials is valid
SMALL_VALUES = {
    "world.universe_size": st.integers(60, 200) | st.just(10**13),
    "world.fact_count": st.integers(1, 40),
    "world.exponent": st.sampled_from([0.0, 0.0, 1.0, 2.5]),
    **{f"world.{name}": st.integers(2, 5) for name in ("people", "dates", "foods", "locations")},
    "algorithm.alpha": st.floats(0.01, 3.0),
    "algorithm.lambda": st.floats(0.0, 1.0),
    "bound.delta": st.floats(0.01, 1.0),
    "bound.b": st.integers(1, 20),
    "bound.epsilon": st.floats(0.0, 1.0),
    "bound.s": st.floats(-5.0, 5.0),
    "bound.r": st.floats(1.0, 10.0),
    "n": st.integers(1, 40),
    "trials": st.sampled_from([1, 3, 100, 120]),
    "seed": st.integers(0, 2**64),
}
#: odd values: malformed, out of range for some key, or another key's kind
ODD_TEXTS = st.sampled_from(
    ["", "nan", "-inf", "1e999", "words", "-1", "0", "1.5", "-1000", "100000000000", str(2**63),
     *_WORLDS, *_ALGORITHMS]
) | st.text(max_size=6).filter(_small_if_integer)


@st.composite
def small_config_texts(draw):
    """Mostly valid, small config text: each key of a random world and
    algorithm kind takes a value from SMALL_VALUES, or one time in twenty
    an odd string, and one time in twenty is left out."""
    world_kind = draw(st.sampled_from(sorted(_WORLDS)))
    algo_kind = draw(st.sampled_from(sorted(_ALGORITHMS)))
    keys = [*_WORLDS[world_kind][2], *_ALGORITHMS[algo_kind][2], *_BOUND_KEYS, *_RUN_KEYS]
    lines = [f"world.kind = {world_kind}", f"algorithm.kind = {algo_kind}"]
    for key, *_ in keys:
        roll = draw(st.integers(0, 19))
        if roll == 0:
            continue
        value = draw(ODD_TEXTS) if roll == 1 else str(draw(SMALL_VALUES[key]))
        lines.append(f"{key} = {value}")
    return "\n".join(lines)


JSON_TEXTS = st.one_of(
    st.text(max_size=12),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(
            # the keys report reads, so nested records get that far
            st.sampled_from(
                ["trials", "delta", "bounds", "passed", "config_hash", "master_seed", "tool",
                 "version", "satisfied", "frequency", "ci_low", "ci_high", "vacuous_fraction",
                 "cor1"]
            )
            | st.text(max_size=4),
            inner,
            max_size=6,
        ),
        max_leaves=12,
    ).map(json.dumps),
)
#: a readable run record; report's command lines damage one file of it
RUN_RECORD = {
    "manifest.json": json.dumps(
        {"config_hash": "0" * 12, "master_seed": 0, "tool": "factoidlab", "version": "0"}
    ),
    "aggregate.json": json.dumps({"trials": 1, "delta": 0.1, "passed": True, "bounds": {"cor1": {
        "satisfied": 1, "trials": 1, "frequency": 1.0, "ci_low": clopper_pearson(1, 1)[0],
        "ci_high": clopper_pearson(1, 1)[1], "vacuous": 0, "vacuous_fraction": 0.0, "passed": True}}}),
    "reliability.csv": "bin_value,g_mass,p_mass,bin_size\n",
}
ARG_TEXTS = st.integers(-3, 6).map(str) | st.sampled_from(["13", "1000000", "x", "", "-"])
EXTRA_ARGS = st.sampled_from([["--bogus"], ["extra"], ["--seed", "3"], ["-"], ["--help"]])


@st.composite
def command_lines(draw):
    """(subcommand, argv tail, files) with every file the command reads as
    drawn text; "{dir}" stands for a fresh scratch directory. A subcommand
    other than report and brute-force takes a config file. report reads a
    run record with one file left out or replaced by drawn text or raw
    bytes, so it gets as far as each file."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    files = {}
    if command == "report":
        tail = ["{dir}/rundir"]
        damaged = draw(st.sampled_from(sorted(RUN_RECORD)))
        for name, text in RUN_RECORD.items():
            if name != damaged:
                files[f"rundir/{name}"] = text
            elif draw(st.integers(0, 3)):
                files[f"rundir/{name}"] = draw(JSON_TEXTS | st.binary(min_size=1, max_size=8))
    elif command == "brute-force":
        tail = []
        for flag in ("--max-universe", "--seed"):
            if draw(st.booleans()):
                tail += [flag, draw(ARG_TEXTS)]
    else:
        tail = ["{dir}/c.cfg"]
        if draw(st.integers(0, 9)):
            files["c.cfg"] = draw(small_config_texts())
        if command == "run":
            # always a scratch output directory, never ./runs
            tail += ["--out", "{dir}/out"]
            if draw(st.integers(0, 3)) == 0:
                tail += ["--seed", draw(ARG_TEXTS)]
    # one line in five carries a stray argument
    if draw(st.integers(0, 4)) == 0:
        tail += draw(EXTRA_ARGS)
    return command, tail, files


class TestCommandLineProperties:
    @settings(max_examples=200, deadline=None)
    @given(command_lines())
    def test_every_subcommand_exits_zero_one_or_two(self, line):
        """Whatever the config text and argv, a subcommand returns an exit
        code (0 passed, 1 a check failed, 2 bad usage or config) and never
        escapes with a traceback."""
        command, tail, files = line
        with tempfile.TemporaryDirectory() as scratch:
            for name, text in files.items():
                path = Path(scratch, name)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
            code, out, err = run_cli(command, *(arg.replace("{dir}", scratch) for arg in tail))
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err
        event(f"{command} exit {code}")
