"""Smoke test of the benchmark itself, at the tiny input size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that a wrong recorded count fails a pass, and that the
benchmark refuses to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace=0, seed=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    result = last_json(run_bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_other_seed_runs_clean():
    result = last_json(run_bench("concentration", seed=7))
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("regular_sweep", lambda out: out["memorizer"]["bounds"]["cor1"].__setitem__(0, -1)),
        ("concentration", lambda out: out["gt_zipf"].__setitem__(0, 999)),
    ],
)
def test_wrong_recorded_count_fails_a_pass(tmp_path, workload, corrupt):
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    corrupt(golden["tiny"][workload]["outputs"])
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    result = last_json(run_bench(workload, extra=("--golden", str(path))))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(WORKLOADS[0], cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
