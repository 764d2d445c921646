"""Write golden.json: each workload's outputs on the acceptance-test seeds.

    python3 perfbench/record_golden.py

The record pins the verdicts and counts that every benchmark pass is
checked against. It was written once, at the commit that defined the
benchmark; re-running it after a library change would hide the very
differences the benchmark exists to catch.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    record = {}
    for size in workloads.SIZES:
        record[size] = {}
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=root) as tmp:
                work = Path(tmp)
                run_pass = workloads.setup(name, workloads.DEFAULT_SEED, size, work)
                (work / "pass").mkdir()
                result = run_pass(work / "pass")
            record[size][name] = {"outputs": result.outputs, "hashes": result.hashes}
            print(f"{size}/{name}: {json.dumps(result.outputs)}", flush=True)
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
