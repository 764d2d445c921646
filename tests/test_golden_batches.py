"""The golden outputs of test_golden.py, with trials scored across batch
boundaries.

A pinned golden config (20 trials of 21 to 254 profile classes) fits in
one scoring batch, so its pins never see a batch boundary. Here the
batch budget is cut to 150 and to 800 classes, so that every world's
trials split into several batches, some of them of different sizes, and
every pinned trials.csv, reliability.csv and multi-type hash must still
come out as pinned.
"""

import hashlib
import io

import pytest

from factoidlab import harness
from factoidlab.cli import cli_main, parse_config_text
from factoidlab.harness import BoundSettings, ExperimentConfig, run_multi_type_experiment
from test_golden import (
    ALGORITHMS,
    BOUND,
    GOLDEN,
    MULTI_TYPE_ALGORITHMS,
    MULTI_TYPE_GOLDEN,
    MULTI_TYPE_WORLDS,
    WORLDS,
    _sha,
    multi_type_pin_text,
)

BUDGETS = (150, 800)


@pytest.fixture(params=BUDGETS, ids=lambda budget: f"budget{budget}")
def split_batches(request, monkeypatch):
    monkeypatch.setattr(harness, "_BATCH_CLASSES", request.param)


@pytest.mark.usefixtures("split_batches")
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_run_outputs_match_golden_across_batches(tmp_path, world, algorithm):
    seed = 9000 + 10 * sorted(WORLDS).index(world) + sorted(ALGORITHMS).index(algorithm)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WORLDS[world] + ALGORITHMS[algorithm] + BOUND + f"seed = {seed}\n")
    out = tmp_path / "out"
    sink = io.StringIO()
    code = cli_main(["run", str(cfg), "--out", str(out)], out=sink, err=sink)
    assert code in (0, 1), sink.getvalue()
    got = (_sha(out / "trials.csv"), _sha(out / "reliability.csv"))
    assert got == GOLDEN[(world, algorithm)]


@pytest.mark.usefixtures("split_batches")
@pytest.mark.parametrize("algorithm", sorted(MULTI_TYPE_ALGORITHMS))
@pytest.mark.parametrize("world", sorted(MULTI_TYPE_WORLDS))
def test_multi_type_report_matches_golden_across_batches(world, algorithm):
    model = MULTI_TYPE_WORLDS[world]
    seed = 9100 + 10 * sorted(MULTI_TYPE_WORLDS).index(world)
    seed += sorted(MULTI_TYPE_ALGORITHMS).index(algorithm)
    cfg = ExperimentConfig(
        world=model,
        n=300,
        algorithm=MULTI_TYPE_ALGORITHMS[algorithm],
        bound=BoundSettings(delta=0.1, b=10, epsilon=0.1, k_types=model.k_types),
        trials=20,
        master_seed=seed,
    )
    text = multi_type_pin_text(run_multi_type_experiment(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == MULTI_TYPE_GOLDEN[(world, algorithm)], text


def test_budgets_split_every_world_into_uneven_batches(monkeypatch):
    """At one budget or the other, each golden world's trials fall into
    several batches of different sizes."""
    sizes: list = []
    scored = harness._scored_in_batches

    def spied(trials, score):
        def spied_score(batch, joined):
            sizes.append(len(batch))
            return score(batch, joined)

        return scored(trials, spied_score)

    monkeypatch.setattr(harness, "_scored_in_batches", spied)
    runs = [
        (harness.run_experiment, parse_config_text(text + ALGORITHMS["empirical"] + BOUND + "seed = 1\n"))
        for text in WORLDS.values()
    ]
    runs += [
        (
            run_multi_type_experiment,
            ExperimentConfig(
                world=model,
                n=300,
                algorithm=MULTI_TYPE_ALGORITHMS["empirical"],
                bound=BoundSettings(k_types=model.k_types),
                trials=20,
                master_seed=1,
            ),
        )
        for model in MULTI_TYPE_WORLDS.values()
    ]
    for run, cfg in runs:
        shapes = []
        for budget in BUDGETS:
            monkeypatch.setattr(harness, "_BATCH_CLASSES", budget)
            sizes.clear()
            run(cfg)
            shapes.append(list(sizes))
        assert all(sum(shape) == 20 for shape in shapes)
        assert any(len(set(shape)) > 1 for shape in shapes), (cfg.world, shapes)
