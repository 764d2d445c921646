"""Per-layer tracing from outside the library.

Each traced name is wrapped where its callers look it up: every module of
the factoidlab package (and every dict at module level, such as the CLI's
command table) that binds the same function object gets the wrapper, and a
method is wrapped on its class. Nothing inside the library changes, and
`Tracer.close` puts every original back.

A span wrapper records calls and self time (its duration minus the time
of the traced spans it caused). A count wrapper records calls only; it is
for functions called thousands of times per trial, so that tracing them
does not distort the spans around them. A name the library no longer has
is skipped and reads as zero calls.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

SPAN = "span"
COUNT = "count"

_MISSING = object()


def _results_bytes(result) -> int:
    """Bytes in the files a result writer reports having written."""
    return sum(path.stat().st_size for path in result or ())


@dataclass(frozen=True)
class Target:
    """A traced layer: `metric` names it, `module` and `qualname` locate
    one function (several targets may share a metric)."""

    metric: str
    module: str
    qualname: str
    kind: str = SPAN
    keep_durations: bool = False
    measure: Optional[Callable[[object], int]] = None


def targets() -> list[Target]:
    from factoidlab import bounds

    # every cor*_rhs the library defines, plus evaluate_bound, is one layer
    rhs = sorted(n for n in vars(bounds) if n.startswith("cor") and n.endswith("_rhs"))
    return [
        Target("dist.paired_profile", "factoidlab.dist", "paired_profile"),
        Target("dist.kl_divergence", "factoidlab.dist", "kl_divergence"),
        Target("dist.sample_iid", "factoidlab.dist", "sample_iid"),
        Target("calibration.miscalibration", "factoidlab.calibration", "miscalibration"),
        Target(
            "calibration.generative_calibration_error",
            "factoidlab.calibration",
            "generative_calibration_error",
        ),
        Target("calibration.reliability_curve", "factoidlab.calibration", "reliability_curve"),
        Target(
            "calibration.iter_all_partitions", "factoidlab.calibration", "iter_all_partitions", COUNT
        ),
        Target("worlds.sample_world", "factoidlab.worlds", "sample_world"),
        Target("worlds.MultiTypeWorld.to_local", "factoidlab.worlds", "MultiTypeWorld.to_local", COUNT),
        Target(
            "worlds.posterior_support_uniform", "factoidlab.worlds", "posterior_support_uniform"
        ),
        Target("lms.train", "factoidlab.lms", "train"),
        Target("lms.hallucination_rate", "factoidlab.lms", "hallucination_rate"),
        Target("estimators.sample_build", "factoidlab.estimators", "TrainingSample.__init__"),
        Target("estimators.monofact_estimate", "factoidlab.estimators", "monofact_estimate"),
        Target("estimators.missing_mass", "factoidlab.estimators", "missing_mass"),
        *(Target("bounds.rhs", "factoidlab.bounds", name) for name in [*rhs, "evaluate_bound"]),
        Target("bounds.clopper_pearson", "factoidlab.bounds", "clopper_pearson"),
        Target("bounds.verify_theorem_main_mc", "factoidlab.bounds", "verify_theorem_main_mc"),
        Target(
            "bounds.verify_lemma_meat_exhaustive", "factoidlab.bounds", "verify_lemma_meat_exhaustive"
        ),
        Target("harness.run_trial", "factoidlab.harness", "run_trial", keep_durations=True),
        Target("harness.aggregate_records", "factoidlab.harness", "aggregate_records"),
        Target(
            "harness.multi_type_trial_metrics", "factoidlab.harness", "multi_type_trial_metrics"
        ),
        Target("cli.cmd_run", "factoidlab.cli", "cmd_run"),
        Target("cli.write_results", "factoidlab.cli", "write_results", measure=_results_bytes),
    ]


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    measured: int = 0
    durations: list = field(default_factory=list)


class Tracer:
    """Installs wrappers on construction and removes them on close()."""

    def __init__(self, target_list: list[Target]):
        self.stats: dict[str, LayerStats] = {t.metric: LayerStats() for t in target_list}
        self._stack: list[list[float]] = []
        self._restore: list[Callable[[], None]] = []
        try:
            for target in target_list:
                self._install(target)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        while self._restore:
            self._restore.pop()()

    def take(self) -> dict[str, LayerStats]:
        """Return the stats gathered since the last take and start afresh."""
        taken = self.stats
        self.stats = {name: LayerStats() for name in taken}
        return taken

    # -- wrapping ---------------------------------------------------------

    def _install(self, target: Target) -> None:
        module = sys.modules.get(target.module)
        if module is None:
            return
        owner_path, _, attr = target.qualname.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
            if owner is None:
                return
        original = getattr(owner, attr, None)
        if not callable(original):
            return
        wrapper = self._wrapper(target, original)
        if owner is module:
            for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "factoidlab"]:
                self._rebind(vars(mod), original, wrapper)
        else:
            self._set(owner, attr, wrapper)

    def _rebind(self, namespace: dict, original, wrapper) -> None:
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
                self._restore.append(lambda ns=namespace, k=key: ns.__setitem__(k, original))
            elif type(value) is dict and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapper
                        self._restore.append(lambda d=value, k=dkey: d.__setitem__(k, original))

    def _set(self, owner, attr: str, wrapper) -> None:
        previous = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, wrapper)
        if previous is _MISSING:
            self._restore.append(lambda: delattr(owner, attr))
        else:
            self._restore.append(lambda: setattr(owner, attr, previous))

    def _wrapper(self, target: Target, fn):
        metric = target.metric

        if target.kind == COUNT:

            def counted(*args, **kwargs):
                self.stats[metric].calls += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        clock = time.perf_counter
        keep = target.keep_durations
        measure = target.measure

        def spanned(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat = self.stats[metric]
                stat.calls += 1
                stat.self_s += elapsed - children[0]
                if keep:
                    stat.durations.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
            if measure is not None:
                stat.measured += measure(result)
            return result

        return spanned
