"""Build one workload's inputs in a fresh interpreter, then exit.

run.py spawns this script to measure setup_s: interpreter start,
`import factoidlab`, config parsing and the fixed distributions. It prints
one JSON line: the wall-clock time at which the inputs were ready, and the
host's slowdown measured right after, in this same process.

    python3 perfbench/setup_probe.py <workload> <seed> <size> <workdir>
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from reference import Reference  # noqa: E402

if __name__ == "__main__":
    name, seed, size, workdir = sys.argv[1:5]
    workloads.setup(name, int(seed), size, Path(workdir))
    ready = time.time()
    print(json.dumps({"ready": ready, "slowdown": Reference().slowdown()}))
