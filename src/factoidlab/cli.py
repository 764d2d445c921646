"""Command-line surface: config parsing, run orchestration, result files.

Config files are flat key = value text. A run directory is
self-describing: the stored config copy plus manifest reproduce every
output byte-for-byte when re-run with the same tool version.

Exit codes: 0 all checks passed, 1 a bound check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import __version__
from .bounds import verify_lemma_meat_exhaustive, verify_theorem_main_mc
from .calibration import (
    AdaptiveBinning,
    ExactValueBinning,
    FixedWidthBinning,
    Partition,
    partition_for_spec,
)
from .dist import FactoidUniverse, random_dist, tv_distance_forms
from .errors import ConfigError, FactoidLabError, InsufficientDataError
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
    WorldModel,
    sample_world,
)

__all__ = ["parse_config", "serialize_config", "write_results", "RunManifest", "cli_main", "main"]

TRIALS_CSV_HEADER = (
    "trial,seed,mf,missing_mass,halluc_rate,mc_exact,mc_adaptive_b,mis_eps,kl,"
    "cor1_rhs,cor1_ok,cor1_vacuous,corg_rhs,corg_ok,corg_vacuous,"
    "corbf_rhs,corbf_ok,corbf_vacuous,mc_fixed_eps,"
    "corfw_rhs,corfw_ok,corfw_vacuous,cormis_rhs,cormis_ok,cormis_vacuous"
)

RELIABILITY_CSV_HEADER = "bin_value,g_mass,p_mass,bin_size"

_WORLD_KINDS = {"permuted_power_law", "w5"}
_ALGO_KINDS = {"empirical", "laplace", "uniform", "monofact_memorizer", "oracle", "yay_mixture"}


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


def _parse_kv_lines(text: str, source: str) -> dict[str, str]:
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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


def _take(table: dict[str, str], key: str, kind, required: bool = False, default=None):
    if key not in table:
        if required:
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


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    table = _parse_kv_lines(text, source)

    world_kind = _take(table, "world.kind", str, required=True)
    if world_kind not in _WORLD_KINDS:
        raise ConfigError(f"key world.kind: unknown world kind {world_kind!r}")
    if world_kind == "permuted_power_law":
        world: WorldModel = PermutedPowerLawWorld(
            universe_size=_take(table, "world.universe_size", int, required=True),
            fact_count=_take(table, "world.fact_count", int, required=True),
            exponent=_take(table, "world.exponent", float, default=0.0),
        )
    else:
        world = W5World(
            n_people=_take(table, "world.people", int, required=True),
            n_dates=_take(table, "world.dates", int, required=True),
            n_foods=_take(table, "world.foods", int, required=True),
            n_locations=_take(table, "world.locations", int, required=True),
        )

    algo_kind = _take(table, "algorithm.kind", str, required=True)
    if algo_kind not in _ALGO_KINDS:
        raise ConfigError(f"key algorithm.kind: unknown algorithm {algo_kind!r}")
    if algo_kind == "empirical":
        algorithm: LmAlgorithm = Empirical()
    elif algo_kind == "laplace":
        algorithm = Laplace(alpha=_take(table, "algorithm.alpha", float, default=0.5))
    elif algo_kind == "uniform":
        algorithm = Uniform()
    elif algo_kind == "monofact_memorizer":
        algorithm = MonofactMemorizer()
    elif algo_kind == "oracle":
        algorithm = Oracle()
    else:
        algorithm = YayMixture(base=Empirical(), lam=_take(table, "algorithm.lambda", float, default=0.99))

    bound = BoundSettings(
        delta=_take(table, "bound.delta", float, default=0.1),
        b=_take(table, "bound.b", int, default=10),
        epsilon=_take(table, "bound.epsilon", float, default=0.1),
        s=_take(table, "bound.s", float, default=None),
        r=_take(table, "bound.r", float, default=1.0),
        k_types=_take(table, "bound.k_types", int, default=1),
    )

    n = _take(table, "n", int, required=True)
    trials = _take(table, "trials", int, required=True)
    seed = _take(table, "seed", int, required=True)

    if table:
        raise ConfigError(f"unknown key {sorted(table)[0]}")

    try:
        return ExperimentConfig(
            world=world, n=n, algorithm=algorithm, bound=bound, trials=trials, master_seed=seed
        )
    except FactoidLabError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"), source=str(p))


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    world = cfg.world
    if isinstance(world, PermutedPowerLawWorld):
        lines += [
            "world.kind = permuted_power_law",
            f"world.universe_size = {world.universe_size}",
            f"world.fact_count = {world.fact_count}",
            f"world.exponent = {world.exponent!r}",
        ]
    elif isinstance(world, W5World):
        lines += [
            "world.kind = w5",
            f"world.people = {world.n_people}",
            f"world.dates = {world.n_dates}",
            f"world.foods = {world.n_foods}",
            f"world.locations = {world.n_locations}",
        ]
    else:
        raise ConfigError(f"world model {type(world).__name__} is not config-representable")
    alg = cfg.algorithm
    if isinstance(alg, Empirical):
        lines.append("algorithm.kind = empirical")
    elif isinstance(alg, Laplace):
        lines += ["algorithm.kind = laplace", f"algorithm.alpha = {alg.alpha!r}"]
    elif isinstance(alg, Uniform):
        lines.append("algorithm.kind = uniform")
    elif isinstance(alg, MonofactMemorizer):
        lines.append("algorithm.kind = monofact_memorizer")
    elif isinstance(alg, Oracle):
        lines.append("algorithm.kind = oracle")
    elif isinstance(alg, YayMixture):
        if not isinstance(alg.base, Empirical):
            raise ConfigError("only empirical-based mixtures are config-representable")
        lines += ["algorithm.kind = yay_mixture", f"algorithm.lambda = {alg.lam!r}"]
    else:
        raise ConfigError(f"algorithm {type(alg).__name__} is not config-representable")
    lines += [
        f"n = {cfg.n}",
        f"bound.delta = {cfg.bound.delta!r}",
        f"bound.b = {cfg.bound.b}",
        f"bound.epsilon = {cfg.bound.epsilon!r}",
    ]
    if cfg.bound.s is not None:
        lines.append(f"bound.s = {cfg.bound.s!r}")
    lines += [
        f"bound.r = {cfg.bound.r!r}",
        f"bound.k_types = {cfg.bound.k_types}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.master_seed}",
    ]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    tool: str
    version: str
    config_hash: str
    master_seed: int
    created_utc: str
    outputs: tuple[str, ...]


RUN_OUTPUTS = ("config.cfg", "manifest.json", "trials.csv", "aggregate.json", "reliability.csv")


def make_manifest(cfg: ExperimentConfig) -> RunManifest:
    return RunManifest(
        tool="factoidlab",
        version=__version__,
        config_hash=config_hash(cfg),
        master_seed=cfg.master_seed,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        outputs=RUN_OUTPUTS,
    )


def _trial_row(r: TrialRecord) -> str:
    cells = [
        str(r.trial_index),
        str(r.seed),
        _fmt(r.mf),
        _fmt(r.missing_mass),
        _fmt(r.halluc_rate),
        _fmt(r.mc_exact),
        _fmt(r.mc_adaptive),
        _fmt(r.mis_eps),
        _fmt(r.kl),
        _fmt(r.cor1.rhs),
        _fmt(r.cor1.satisfied),
        _fmt(r.cor1.vacuous),
        _fmt(r.cor_general.rhs),
        _fmt(r.cor_general.satisfied),
        _fmt(r.cor_general.vacuous),
        _fmt(r.cor_balfact.rhs),
        _fmt(r.cor_balfact.satisfied),
        _fmt(r.cor_balfact.vacuous),
        _fmt(r.mc_fixed),
        _fmt(r.cor_fixed_tv.rhs),
        _fmt(r.cor_fixed_tv.satisfied),
        _fmt(r.cor_fixed_tv.vacuous),
        _fmt(r.cor_fixed_mis.rhs),
        _fmt(r.cor_fixed_mis.satisfied),
        _fmt(r.cor_fixed_mis.vacuous),
    ]
    return ",".join(cells)


def write_trials_csv(path: Path, records: Sequence[TrialRecord]) -> None:
    body = "\n".join([TRIALS_CSV_HEADER, *(_trial_row(r) for r in records)])
    path.write_text(body + "\n", encoding="utf-8", newline="\n")


def write_reliability_csv(path: Path, rows: Sequence[tuple[float, float, float, int]]) -> None:
    lines = [RELIABILITY_CSV_HEADER]
    lines += [f"{_fmt(v)},{_fmt(g)},{_fmt(p)},{size}" for v, g, p, size in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_results(
    out_dir: str | Path,
    cfg: ExperimentConfig,
    manifest: RunManifest,
    records: Sequence[TrialRecord],
    aggregate: AggregateReport,
    reliability_rows: Sequence[tuple[float, float, float, int]],
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        (out / "config.cfg").write_text(serialize_config(cfg), encoding="utf-8", newline="\n")
        written.append(out / "config.cfg")
        _write_json(out / "manifest.json", dataclasses.asdict(manifest))
        written.append(out / "manifest.json")
        write_trials_csv(out / "trials.csv", records)
        written.append(out / "trials.csv")
        _write_json(out / "aggregate.json", aggregate.to_json_dict())
        written.append(out / "aggregate.json")
        write_reliability_csv(out / "reliability.csv", reliability_rows)
        written.append(out / "reliability.csv")
    except OSError as exc:
        raise FactoidLabError(f"failed writing results under {out}: {exc}") from exc
    return written


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
    manifest = make_manifest(cfg)
    # the manifest describes the run before it starts
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "manifest.json", dataclasses.asdict(manifest))
    report, records = run_experiment(cfg)
    write_results(out_dir, cfg, manifest, records, report, records[0].reliability)
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
    size = args.max_universe
    if size < 2:
        raise ConfigError("--max-universe must be at least 2")
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
        raise ConfigError("thm-main requires world.kind = permuted_power_law with exponent 0")
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
            print(
                f"{alg_name:<10} {spec_name:<10} lhs {check.lhs_estimate:.6f}"
                f" (+/- {check.lhs_stderr:.6f}) rhs {check.rhs_exact:.6f} {status}",
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
        table = _bound_table(agg, sorted(agg["bounds"]))
        passed = agg["passed"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{run_dir} holds a damaged run record: {exc!r}") from None
    print(header, file=out)
    print(table, file=out)
    rel_path = run_dir / "reliability.csv"
    if rel_path.is_file():
        n_rows = max(0, len(rel_path.read_text(encoding="utf-8").splitlines()) - 1)
        print(f"reliability curve: {n_rows} bins in {rel_path}", file=out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
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

    p_tm = sub.add_parser("thm-main", help="posterior Monte Carlo of the core inequality")
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out, err)
    except (ConfigError, InsufficientDataError) as exc:
        print(f"config error: {exc}", file=err)
        return 2
    except FactoidLabError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
