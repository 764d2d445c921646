"""Command-line surface: config parsing, run orchestration, result files.

Config files are flat key = value text. A run directory is
self-describing: the stored config copy plus manifest reproduce every
output byte-for-byte when re-run with the same tool version. It is
written once, after the trials, with aggregate.json last, so a
directory that holds aggregate.json is a complete record.

Exit codes: 0 all checks passed, 1 a bound check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import __version__
from .bounds import verify_lemma_meat_exhaustive, verify_theorem_main_mc
from .calibration import (
    MATERIALIZE_LIMIT,
    PARTITION_LIMIT,
    AdaptiveBinning,
    ExactValueBinning,
    FixedWidthBinning,
    Partition,
    partition_for_spec,
)
from .dist import FactoidUniverse, random_dist, tv_distance_forms
from .errors import ConfigError, FactoidLabError, check_count
from .harness import (
    BOUND_NAMES,
    AggregateReport,
    BoundSettings,
    ExperimentConfig,
    TrialRecord,
    _draw_trial,
    run_experiment,
    run_gt_concentration,
    run_upper_bound_check,
)
from .lms import (
    Empirical,
    Laplace,
    LmAlgorithm,
    MonofactMemorizer,
    Oracle,
    Uniform,
    YayMixture,
    train,
)
from .rng import SeededRng
from .worlds import (
    ExplicitWorld,
    PermutedPowerLawWorld,
    W5World,
    WorldInstance,
    sample_world,
)

__all__ = ["parse_config", "serialize_config", "write_results", "cli_main", "main"]

RELIABILITY_CSV_HEADER = "bin_value,g_mass,p_mass,bin_size"


def _bound_columns(prefix: str, field: str) -> tuple[tuple[str, str], ...]:
    return tuple(
        (f"{prefix}_{column}", f"{field}.{attr}")
        for column, attr in (("rhs", "rhs"), ("ok", "satisfied"), ("vacuous", "vacuous"))
    )


#: trials.csv, one (header, TrialRecord attribute path) pair per column
_TRIAL_COLUMNS = (
    ("trial", "trial_index"),
    ("seed", "seed"),
    ("mf", "mf"),
    ("missing_mass", "missing_mass"),
    ("halluc_rate", "halluc_rate"),
    ("mc_exact", "mc_exact"),
    ("mc_adaptive_b", "mc_adaptive"),
    ("mis_eps", "mis_eps"),
    ("kl", "kl"),
    *_bound_columns("cor1", "cor1"),
    *_bound_columns("corg", "cor_general"),
    *_bound_columns("corbf", "cor_balfact"),
    ("mc_fixed_eps", "mc_fixed"),
    *_bound_columns("corfw", "cor_fixed_tv"),
    *_bound_columns("cormis", "cor_fixed_mis"),
)
TRIALS_CSV_HEADER = ",".join(header for header, _ in _TRIAL_COLUMNS)
_trial_cells = attrgetter(*(path for _, path in _TRIAL_COLUMNS))


def _fmt(x) -> str:
    """12 significant digits, '.' decimal separator; stable across runs."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

_REQUIRED = object()

# The config format. A key is (config key, field name, type, default or
# _REQUIRED); a kind table maps each kind name to (class, fixed arguments,
# keys). parse_config_text and serialize_config both walk these tables.
_WORLDS = {
    "permuted_power_law": (
        PermutedPowerLawWorld,
        {},
        (
            ("world.universe_size", "universe_size", int, _REQUIRED),
            ("world.fact_count", "fact_count", int, _REQUIRED),
            ("world.exponent", "exponent", float, 0.0),
        ),
    ),
    "w5": (
        W5World,
        {},
        (
            ("world.people", "n_people", int, _REQUIRED),
            ("world.dates", "n_dates", int, _REQUIRED),
            ("world.foods", "n_foods", int, _REQUIRED),
            ("world.locations", "n_locations", int, _REQUIRED),
        ),
    ),
}
_ALGORITHMS = {
    "empirical": (Empirical, {}, ()),
    "laplace": (Laplace, {}, (("algorithm.alpha", "alpha", float, 0.5),)),
    "uniform": (Uniform, {}, ()),
    "monofact_memorizer": (MonofactMemorizer, {}, ()),
    "oracle": (Oracle, {}, ()),
    "yay_mixture": (YayMixture, {"base": Empirical()}, (("algorithm.lambda", "lam", float, 0.99),)),
}
#: (kind key, ExperimentConfig field, kind table)
_KINDS = (("world.kind", "world", _WORLDS), ("algorithm.kind", "algorithm", _ALGORITHMS))
#: a left-out s (None) means the world's exact sparsity
_BOUND_KEYS = (
    ("bound.delta", "delta", float, 0.1),
    ("bound.b", "b", int, 10),
    ("bound.epsilon", "epsilon", float, 0.1),
    ("bound.s", "s", float, None),
    ("bound.r", "r", float, 1.0),
)
_RUN_KEYS = (
    ("n", "n", int, _REQUIRED),
    ("trials", "trials", int, _REQUIRED),
    ("seed", "master_seed", int, _REQUIRED),
)


def _parse_kv_lines(text: str, source: str) -> dict[str, str]:
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()  # no value contains '#'
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in table:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key}")
        table[key] = value
    return table


def _take(table: dict[str, str], key: str, kind, default):
    if key not in table:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key}")
        return default
    raw = table.pop(key)
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected {kind.__name__}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key {key}: expected a finite number, got {raw!r}")
    return value


def _take_fields(table: dict[str, str], keys) -> dict:
    return {field: _take(table, key, kind, default) for key, field, kind, default in keys}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse a config and build every object it names; a bad key or an
    out-of-range value raises ConfigError."""
    table = _parse_kv_lines(text, source)
    try:
        parts = {}
        for kind_key, name, kinds in _KINDS:
            kind = _take(table, kind_key, str, _REQUIRED)
            if kind not in kinds:
                raise ConfigError(f"key {kind_key}: unknown {name} kind {kind!r}")
            cls, fixed, keys = kinds[kind]
            parts[name] = cls(**fixed, **_take_fields(table, keys))
        bound = BoundSettings(**_take_fields(table, _BOUND_KEYS))
        run = _take_fields(table, _RUN_KEYS)
        if table:
            raise ConfigError(f"unknown key {sorted(table)[0]}")
        return ExperimentConfig(**parts, bound=bound, **run)
    except FactoidLabError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"), source=str(p))


def _lines(obj, keys) -> list[str]:
    """One 'key = repr(value)' line per key; a None value is left out."""
    values = ((key, kind, getattr(obj, field)) for key, field, kind, _ in keys)
    return [f"{key} = {kind(value)!r}" for key, kind, value in values if value is not None]


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for kind_key, name, kinds in _KINDS:
        obj = getattr(cfg, name)
        for kind, (cls, fixed, keys) in kinds.items():
            if type(obj) is cls and all(getattr(obj, f) == v for f, v in fixed.items()):
                lines += [f"{kind_key} = {kind}", *_lines(obj, keys)]
                break
        else:
            raise ConfigError(f"{name} {obj!r} is not config-representable")
    # n goes ahead of the bound keys, so configs keep their hashes
    lines += _lines(cfg, _RUN_KEYS[:1]) + _lines(cfg.bound, _BOUND_KEYS) + _lines(cfg, _RUN_KEYS[1:])
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


RUN_OUTPUTS = ("config.cfg", "manifest.json", "trials.csv", "aggregate.json", "reliability.csv")


def _trial_row(r: TrialRecord) -> str:
    return ",".join(_fmt(cell) for cell in _trial_cells(r))


def write_trials_csv(path: Path, records: Sequence[TrialRecord]) -> None:
    body = "\n".join([TRIALS_CSV_HEADER, *(_trial_row(r) for r in records)])
    path.write_text(body + "\n", encoding="utf-8", newline="\n")


def write_reliability_csv(path: Path, rows: Sequence[tuple[float, float, float, int]]) -> None:
    lines = [RELIABILITY_CSV_HEADER]
    lines += [f"{_fmt(v)},{_fmt(g)},{_fmt(p)},{size}" for v, g, p, size in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_json(path: Path, data: dict) -> None:
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


@contextlib.contextmanager
def _writing(out: Path):
    """Raise a failed write under out as a FactoidLabError (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise FactoidLabError(f"failed writing results under {out}: {exc}") from exc


def write_results(
    out_dir: str | Path,
    cfg: ExperimentConfig,
    records: Sequence[TrialRecord],
    aggregate: AggregateReport,
) -> list[Path]:
    """Write the run record. A stale aggregate.json goes first and the new
    one is written last, so a failed write leaves no aggregate.json."""
    out = Path(out_dir)
    manifest = {
        "tool": "factoidlab",
        "version": __version__,
        "config_hash": config_hash(cfg),
        "master_seed": cfg.master_seed,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": RUN_OUTPUTS,
    }
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        (out / "aggregate.json").unlink(missing_ok=True)
        (out / "config.cfg").write_text(serialize_config(cfg), encoding="utf-8", newline="\n")
        _write_json(out / "manifest.json", manifest)
        write_trials_csv(out / "trials.csv", records)
        write_reliability_csv(out / "reliability.csv", records[0].reliability)
        _write_json(out / "aggregate.json", aggregate.to_json_dict())
    return [out / name for name in RUN_OUTPUTS]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _bound_table(agg: dict, names: Iterable[str]) -> str:
    """The bound table of an aggregate.json dict, rows in the given order."""
    lines = [
        f"trials: {agg['trials']}  delta: {_fmt(agg['delta'])}",
        "bound          freq      ci95           vacuous  pass",
    ]
    for name in names:
        row = agg["bounds"][name]
        lines.append(
            f"{name:<13} {row['frequency']:>7.4f}  "
            f"[{row['ci_low']:.4f},{row['ci_high']:.4f}]  "
            f"{row['vacuous_fraction']:>7.4f}  {'ok' if row['passed'] else 'FAIL'}"
        )
    return "\n".join(lines)


def cmd_run(args, out, err) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    out_dir = Path(args.out) if args.out else Path("runs") / f"{config_hash(cfg)[:12]}"
    report, records = run_experiment(cfg)
    write_results(out_dir, cfg, records, report)
    print(_bound_table(report.to_json_dict(), BOUND_NAMES), file=out)
    print(f"results in {out_dir}", file=out)
    return 0 if report.passed else 1


def cmd_gt_check(args, out, err) -> int:
    cfg = parse_config(args.config)
    setup_rng = SeededRng(cfg.master_seed).child(0)
    world = sample_world(cfg.world, setup_rng)
    report = run_gt_concentration(
        world.p, cfg.n, cfg.bound.delta, cfg.trials, cfg.master_seed
    )
    print(
        f"two-sided: {report.two_sided_violations}/{report.trials} over radius "
        f"{_fmt(report.two_sided_radius)} (allowed {_fmt(report.delta)})",
        file=out,
    )
    print(
        f"one-sided: {report.one_sided_violations}/{report.trials} below radius "
        f"{_fmt(report.one_sided_radius)} (allowed {_fmt(report.delta / 3.0)})",
        file=out,
    )
    print(f"mean gap {_fmt(report.mean_gap)} +/- {_fmt(report.gap_stderr)}", file=out)
    print("PASS" if report.passed else "FAIL", file=out)
    return 0 if report.passed else 1


def cmd_upper_bound(args, out, err) -> int:
    cfg = parse_config(args.config)
    report = run_upper_bound_check(
        cfg.world, cfg.n, cfg.bound.delta, cfg.trials, cfg.master_seed
    )
    print(
        f"certainty event: {report.certainty_hits}/{report.trials}"
        f" (needs {report.trials}/{report.trials})",
        file=out,
    )
    print(
        f"calibration event: {report.calibration_hits}/{report.trials} within "
        f"{_fmt(report.calibration_radius)} (needs >= {_fmt(1.0 - report.delta)})",
        file=out,
    )
    print("PASS" if report.passed else "FAIL", file=out)
    return 0 if report.passed else 1


def cmd_brute_force(args, out, err) -> int:
    # checked before the random distributions over the universe are drawn
    too_large = "atoms: universe too large to enumerate partitions"
    size = check_count(args.max_universe, "--max-universe", 2, PARTITION_LIMIT, too_large, ConfigError)
    universe = FactoidUniverse(size)
    rng = SeededRng(args.seed)
    instances = []
    for i in range(10):
        p = random_dist(universe, rng.child(0, i))
        instances.append((0.1, WorldInstance(p)))
    nu = ExplicitWorld(tuple(instances))
    violations = verify_lemma_meat_exhaustive(nu, tolerance=1e-9, max_universe=size)
    print(f"coarsening-mass lemma sweep (|Y|={size}): {len(violations)} violations", file=out)

    tv_size = min(size, 10)
    tv_universe = FactoidUniverse(tv_size)
    worst = 0.0
    for i in range(30):
        d1 = random_dist(tv_universe, rng.child(1, i, 0))
        d2 = random_dist(tv_universe, rng.child(1, i, 1))
        half_l1, pos_part, subset_max = tv_distance_forms(d1, d2, exhaustive_limit=tv_size)
        worst = max(worst, abs(half_l1 - pos_part), abs(half_l1 - subset_max))
    tv_ok = worst <= 1e-12
    print(
        f"tv-equivalence sweep (|Y|={tv_size}, 30 pairs, exhaustive subsets): "
        f"max gap {_fmt(worst)}",
        file=out,
    )
    passed = not violations and tv_ok
    print("PASS" if passed else "FAIL", file=out)
    return 0 if passed else 1


def cmd_thm_main(args, out, err) -> int:
    cfg = parse_config(args.config)
    if not isinstance(cfg.world, PermutedPowerLawWorld) or cfg.world.exponent != 0.0:
        raise ConfigError("thm-main requires a permuted_power_law world with exponent 0")
    if cfg.world.universe_size > MATERIALIZE_LIMIT:
        raise ConfigError(
            f"thm-main: refusing to materialize per-atom blocks for universe of size"
            f" {cfg.world.universe_size}; the limit is {MATERIALIZE_LIMIT}"
        )
    world, sample = _draw_trial(cfg.world, cfg.n, SeededRng(cfg.master_seed).child(0))
    algs: list[tuple[str, LmAlgorithm]] = [
        ("empirical", Empirical()),
        ("laplace", Laplace(0.5)),
        ("uniform", Uniform()),
        ("memorizer", MonofactMemorizer()),
        ("yay", YayMixture(Empirical(), 0.99)),
    ]
    specs = [
        ("exact", ExactValueBinning()),
        ("adaptive", AdaptiveBinning(cfg.bound.b)),
        ("fixed", FixedWidthBinning(cfg.bound.epsilon)),
        ("singletons", None),
    ]
    all_ok = True
    probe_rng = SeededRng(cfg.master_seed).child(1)
    probe = 0
    for alg_name, alg in algs:
        g = train(alg, sample, truth=world.p)
        for spec_name, spec in specs:
            partition = (
                Partition.singletons(world.universe) if spec is None else partition_for_spec(g, spec)
            )
            check = verify_theorem_main_mc(
                world.universe,
                cfg.world.fact_count,
                sample.observed,
                g,
                partition,
                cfg.trials,
                probe_rng.child(probe),
            )
            status = "ok" if check.passed else "FAIL"
            spread = "exact" if check.samples == 0 else f"(+/- {check.lhs_stderr:.6f})"
            print(
                f"{alg_name:<10} {spec_name:<10} lhs {check.lhs_estimate:.6f}"
                f" {spread} rhs {check.rhs_exact:.6f} {status}",
                file=out,
            )
            all_ok = all_ok and check.passed
            probe += 1
    print("PASS" if all_ok else "FAIL", file=out)
    return 0 if all_ok else 1


def _read_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path} is not readable JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return data


def cmd_report(args, out, err) -> int:
    run_dir = Path(args.run_dir)
    agg_path = run_dir / "aggregate.json"
    manifest_path = run_dir / "manifest.json"
    if not agg_path.is_file() or not manifest_path.is_file():
        raise ConfigError(f"{run_dir} is not a run directory (missing aggregate or manifest)")
    manifest = _read_json(manifest_path)
    agg = _read_json(agg_path)
    try:
        header = (
            f"run {manifest['config_hash'][:12]} seed {manifest['master_seed']} "
            f"({manifest['tool']} {manifest['version']})"
        )
        names = sorted(agg["bounds"])
        table = _bound_table(agg, names)
        delta, trials = agg["delta"], agg["trials"]
        if not (type(delta) in (int, float) and 0 < delta <= 1 and type(trials) is int and trials > 0):
            raise ValueError(f"delta {delta!r} must be in (0, 1] and trials {trials!r} a positive int")
        # the verdict is the rows', each judged from its counts at the run's
        # delta, as aggregate_records judges it; the top-level "passed" is not read
        verdicts = [agg["bounds"][name]["passed"] for name in names]
        if not verdicts:
            raise ValueError("no bound rows")
        for name, verdict in zip(names, verdicts):
            row = agg["bounds"][name]
            satisfied, freq = row["satisfied"], row["frequency"]
            if not (type(satisfied) is type(row["trials"]) is int and 0 <= satisfied <= row["trials"]):
                raise ValueError(f"row {name!r} counts {satisfied!r} of {row['trials']!r} trials")
            if row["trials"] != trials or freq != satisfied / trials:
                raise ValueError(f"row {name!r} says {freq!r} for {satisfied} of {row['trials']}")
            if type(verdict) is not bool or verdict != (freq >= 1.0 - delta):
                raise ValueError(f"row {name!r} says passed={verdict!r}, which its frequency contradicts")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{run_dir} holds a damaged run record: {exc!r}") from None
    lines = [header, table]
    rel_path = run_dir / "reliability.csv"
    if rel_path.is_file():
        try:
            text = rel_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{rel_path} is not readable text: {exc}") from None
        n_rows = max(0, len(text.splitlines()) - 1)
        lines.append(f"reliability curve: {n_rows} bins in {rel_path}")
    print("\n".join(lines), file=out)
    return 0 if all(verdicts) else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="factoidlab",
        description="Seeded bound-verification experiments over factoid worlds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")

    p_gt = sub.add_parser("gt-check", help="missing-mass concentration suite")
    p_gt.add_argument("config")

    p_ub = sub.add_parser("upper-bound", help="memorizer guarantee suite")
    p_ub.add_argument("config")

    p_bf = sub.add_parser("brute-force", help="exhaustive lemma and tv-equivalence sweeps")
    p_bf.add_argument("--max-universe", type=int, default=5)
    p_bf.add_argument("--seed", type=int, default=0)

    p_tm = sub.add_parser("thm-main", help="the core inequality over the posterior, exact or Monte Carlo")
    p_tm.add_argument("config")

    p_rep = sub.add_parser("report", help="render tables for a finished run")
    p_rep.add_argument("run_dir")

    return parser


_COMMANDS = {
    "run": cmd_run,
    "gt-check": cmd_gt_check,
    "upper-bound": cmd_upper_bound,
    "brute-force": cmd_brute_force,
    "thm-main": cmd_thm_main,
    "report": cmd_report,
}


def cli_main(argv: Optional[Sequence[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse writes usage errors to sys.stderr and --help to sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out, err)
    except FactoidLabError as exc:
        # exit 1 is reserved for a check that ran and failed
        print(f"config error: {exc}", file=err)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
