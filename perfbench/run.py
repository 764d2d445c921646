"""factoidlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload regular_sweep --seed 0 --seconds 15 --trace 0

Each workload runs in this one process as a closed loop with a single
caller: a pass starts when the previous one ends. Before the timed passes,
one untimed pass on the acceptance-test seeds (seed 0) is checked against
the outputs recorded in golden.json, so every run checks correctness
whatever its seed. Timed passes on seed 0 are checked against the same
record; on any other seed every pass must match the first timed pass.

--trace 0 prints the end-to-end metrics: trials_per_s (Monte Carlo
repetitions per second, median over passes), setup_s (median over fresh
interpreters that build the inputs) and peak_rss_mb. The host this runs on
changes speed by up to 2x from one minute to the next, so both times are
rescaled by the slowdown that reference.py measures around each pass and
inside each set-up interpreter; the wall-clock figures are printed too.
--trace 1 spends half the time on traced passes and half on untraced
ones and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; failed counts the failed passes
(failed_ops) out of the attempted ones. The lines before it give the same
metrics with units, whether the trials.csv hashes match the record, and
the environment (git sha, source digest, versions, CPU count, platform).
"""

from __future__ import annotations

import os

# Pin what the program sees before numpy loads: one worker thread, and the
# default `factoidlab run` thread count rather than an inherited one.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FACTOIDLAB_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

END_TO_END = (("trials_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SELF_TIMED = (
    "dist.paired_profile",
    "calibration.miscalibration",
    "calibration.generative_calibration_error",
    "dist.kl_divergence",
    "worlds.sample_world",
    "lms.train",
    "lms.hallucination_rate",
    "bounds.rhs",
    "harness.aggregate_records",
    "bounds.clopper_pearson",
    "cli.cmd_run",
    "cli.write_results",
    "calibration.reliability_curve",
    "harness.multi_type_trial_metrics",
    "dist.sample_iid",
    "estimators.sample_build",
    "estimators.monofact_estimate",
    "estimators.missing_mass",
    "bounds.verify_theorem_main_mc",
    "worlds.posterior_support_uniform",
    "bounds.verify_lemma_meat_exhaustive",
)
PER_PASS_CALLS = ("worlds.MultiTypeWorld.to_local", "calibration.iter_all_partitions")
PER_LAYER = (
    ("dist.paired_profile.calls_per_trial", "calls/trial"),
    *((f"{name}.self_s", "s/pass") for name in SELF_TIMED),
    ("harness.run_trial.p50_ms", "ms"),
    ("harness.run_trial.p95_ms", "ms"),
    ("cli.write_results.bytes", "bytes/pass"),
    *((f"{name}.calls", "calls/pass") for name in PER_PASS_CALLS),
    ("trace.overhead", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 = acceptance-test seeds")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--golden", default=str(BENCH_DIR / "golden.json"))
    return parser.parse_args(argv)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "factoidlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(name: str, seed: int, size: str, work: Path) -> list:
    """(wall seconds, host slowdown) of fresh interpreters that build the inputs.

    Each probe reports the wall-clock time its inputs were ready and the
    slowdown it measured afterwards on its own CPU.
    """
    samples = []
    for i in range(SETUP_REPEATS):
        probe_dir = work / f"setup{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), size, str(probe_dir)]
        start = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"set-up of {name} failed:\n{done.stderr}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((report["ready"] - start, report["slowdown"]))
    return samples


class Checker:
    """Counts attempted and failed passes against a reference.

    Outputs must equal the reference outputs; trials.csv hashes must repeat
    within the run. Whether the hashes equal the recorded ones is tracked
    separately and never fails a pass.
    """

    def __init__(self, recorded: dict, use_recorded: bool):
        self.recorded = recorded
        self.use_recorded = use_recorded
        self.outputs = None
        self.hashes = None
        self.attempted = 0
        self.failed = 0
        self.hash_checks = 0
        self.hash_matches = 0

    def check(self, result) -> bool:
        self.attempted += 1
        if result is None:
            self.failed += 1
            return False
        if self.outputs is None:
            self.outputs = self.recorded["outputs"] if self.use_recorded else result.outputs
            self.hashes = result.hashes
        if self.use_recorded:
            for key, digest in result.hashes.items():
                self.hash_checks += 1
                self.hash_matches += digest == self.recorded["hashes"].get(key)
        ok = result.outputs == self.outputs and result.hashes == self.hashes
        if not ok:
            self.failed += 1
            print(f"perfbench: pass {self.attempted} differs from its reference", file=sys.stderr)
        return ok


def jsonable(result):
    """Outputs as they read after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(result))


def run_one(run_pass, work: Path):
    """One pass in a fresh output directory; (result or None, seconds)."""
    pass_dir = Path(tempfile.mkdtemp(dir=work))
    try:
        start = time.perf_counter()
        result = run_pass(pass_dir)
        elapsed = time.perf_counter() - start
    except Exception as exc:  # a failed pass is counted, the run goes on
        print(f"perfbench: pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, 0.0
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    result.outputs = jsonable(result.outputs)
    return result, elapsed


def closed_loop(run_pass, work: Path, seconds: float, checker: Checker, reference, on_pass=None):
    """Run passes back to back until `seconds` have passed.

    Returns (wall-clock trials/s, host slowdown) for each correct pass.
    """
    samples = []
    passes = 0
    deadline = time.perf_counter() + seconds
    before = reference.slowdown()
    while passes == 0 or time.perf_counter() < deadline:
        passes += 1
        result, elapsed = run_one(run_pass, work)
        after = reference.slowdown()
        if checker.check(result):
            samples.append((result.trials / elapsed, (before + after) / 2))
        before = after
        if on_pass is not None:
            on_pass(result)
    return samples


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def rescaled_rate(samples) -> float:
    """Median over passes of wall-clock trials/s times the host slowdown."""
    return median([rate * slowdown for rate, slowdown in samples])


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(takes, traced_rate: float, untraced_rate: float) -> dict:
    """Per-layer numbers from the per-pass stats of the traced passes."""
    passes = len(takes) or 1
    trials = sum(t for t, _ in takes) or 1

    def total(metric: str, attr: str):
        return sum(getattr(stats[metric], attr) for _, stats in takes)

    durations = [d for _, stats in takes for d in stats["harness.run_trial"].durations]
    values = {"dist.paired_profile.calls_per_trial": total("dist.paired_profile", "calls") / trials}
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = median([stats[name].self_s for _, stats in takes])
    values["harness.run_trial.p50_ms"] = 1000.0 * percentile(durations, 50)
    values["harness.run_trial.p95_ms"] = 1000.0 * percentile(durations, 95)
    values["cli.write_results.bytes"] = total("cli.write_results", "measured") / passes
    for name in PER_PASS_CALLS:
        values[f"{name}.calls"] = total(name, "calls") / passes
    values["trace.overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "factoidlab" / "__init__.py").is_file():
        fail(f"no factoidlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import factoidlab
    import layer_trace
    import workloads
    from reference import Reference

    if Path(factoidlab.__file__).resolve().parent != SRC / "factoidlab":
        fail(f"imported factoidlab from {factoidlab.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    try:
        recorded = json.loads(Path(args.golden).read_text(encoding="utf-8"))[args.size][args.workload]
    except (OSError, ValueError, KeyError) as exc:
        fail(f"no recorded outputs for {args.size}/{args.workload} in {args.golden}: {exc!r}")

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        default = workloads.DEFAULT_SEED
        use_recorded = args.seed == default
        (work / "golden").mkdir()
        golden_pass = workloads.setup(args.workload, default, args.size, work / "golden")
        if use_recorded:
            run_pass = golden_pass
        else:
            (work / "seeded").mkdir()
            run_pass = workloads.setup(args.workload, args.seed, args.size, work / "seeded")

        # untimed pass on the acceptance seeds, checked against the record
        golden = Checker(recorded, use_recorded=True)
        golden_ok = golden.check(run_one(golden_pass, work)[0])
        checker = golden if use_recorded else Checker(recorded, use_recorded=False)
        reference = Reference()

        if args.trace:
            tracer = layer_trace.Tracer(layer_trace.targets())
            takes = []
            try:
                traced = closed_loop(
                    run_pass, work, args.seconds / 2, checker, reference,
                    on_pass=lambda r: takes.append((r.trials if r else 0, tracer.take())),
                )
            finally:
                tracer.close()
            untraced = closed_loop(run_pass, work, args.seconds / 2, checker, reference)
            values = layer_metrics(takes, rescaled_rate(traced), rescaled_rate(untraced))
            units = dict(PER_LAYER)
            wall = {}
        else:
            setup = measure_setup(args.workload, args.seed, args.size, work)
            passes = closed_loop(run_pass, work, args.seconds, checker, reference)
            values = {
                "trials_per_s": rescaled_rate(passes),
                "setup_s": median([sec / slowdown for sec, slowdown in setup]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            wall = {
                "trials_per_s_wall": (median([r for r, _ in passes]), f"1/s, {len(passes)} passes"),
                "setup_s_wall": (median([t for t, _ in setup]), f"s, {len(setup)} interpreters"),
                "host_slowdown": (median([s for _, s in passes + setup]), "x reference kernel"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    attempted = golden.attempted + (0 if checker is golden else checker.attempted)
    failed = golden.failed + (0 if checker is golden else checker.failed)
    hash_checks, hash_matches = golden.hash_checks, golden.hash_matches
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")
    for name, (value, unit) in wall.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(f"  {'failed_ops':<46} {failed:>14d} of {attempted} passes")
    print(f"  {'recorded_outputs_match':<46} {'yes' if golden_ok else 'no':>14}")
    if hash_checks:
        flag = "yes" if hash_matches == hash_checks else "no"
        print(f"  {'trials_csv_sha256_match':<46} {flag:>14} ({hash_matches}/{hash_checks} files)")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
