"""The library API the benchmark calls, run in process at its tiny size.

Each workload in perfbench/workloads.py is set up at seed 0, run for one
pass and compared with the outputs and trials.csv hashes recorded in
perfbench/golden.json. A renamed or removed name the benchmark binds, or a
changed verdict, fails here. Nothing under perfbench/ is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))["tiny"]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    # no __pycache__ under perfbench/: the benchmark's files stay as they are
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_matches_recorded_outputs(tmp_path, name):
    (tmp_path / "setup").mkdir()
    (tmp_path / "pass").mkdir()
    run_pass = workloads.setup(name, 0, "tiny", tmp_path / "setup")
    result = run_pass(tmp_path / "pass")
    # the recorded outputs went through JSON, which turns tuples into lists
    assert json.loads(json.dumps(result.outputs)) == GOLDEN[name]["outputs"]
    assert result.hashes == GOLDEN[name]["hashes"]
