"""Span tracing of the program's layers, from outside the program.

`Tracer.install` replaces each target function in every `apcval` module
namespace that holds it (so `from .x import f` bindings are caught too)
with a wrapper that records one span: name, start, end and parent span.
Spans stay in flat in-memory arrays until the run ends; self times are
derived from them afterwards. A target that no longer exists is reported
as absent instead of failing the run, so renaming engine internals keeps
the benchmark running.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Wrapped functions, as "module.function". Their self times partition the
# time spent inside any of them, so no second is counted twice.
TARGETS = (
    "apcval.cli.main",
    "apcval.io.load_campaign",
    "apcval.io.save_campaign",
    "apcval.io.emit_report",
    "apcval.domain.validate_record",
    "apcval.classify.classify",
    "apcval.classify.combined_classify",
    "apcval.classify.draw_sample",
    "apcval.classify._sample_mask",
    "apcval.planner.make_plan",
    "apcval.cost.cost_breakdown",
    "apcval.estimator.evaluate_partitioned",
    "apcval.estimator.evaluate_classic",
    "apcval.estimator.stratified_mean",
    "apcval.estimator.pooled_variance",
    "apcval.estimator.confidence_interval",
    "apcval.estimator.equivalence_verdict",
    "apcval.normal.norm_ppf",
    "apcval.simulate.run_simulation",
    "apcval.simulate.user_risk_audit",
    "apcval.simulate.bias_estimates",
    "apcval.simulate._trial_rng",
    "apcval.simulate._draw_strata",
    "apcval.simulate._partitioned_stats",
    "apcval.simulate._classic_pass",
)

_VERDICT = (
    "estimator.stratified_mean",
    "estimator.pooled_variance",
    "estimator.confidence_interval",
    "estimator.equivalence_verdict",
)

# per-layer metric -> (kind, span names); kind "self" sums self times,
# "calls" counts spans. Extra counts come from result hooks below.
LAYER_METRICS = {
    "simulate.seed_s": ("self", ("simulate._trial_rng",)),
    "simulate.rng_streams": ("calls", ("simulate._trial_rng",)),
    "simulate.draw_s": ("self", ("simulate._draw_strata",)),
    "simulate.moments_s": ("self", ("simulate._partitioned_stats", "simulate._classic_pass")),
    "simulate.self_s": (
        "self", ("simulate.run_simulation", "simulate.user_risk_audit", "simulate.bias_estimates"),
    ),
    "classify.sample_mask_calls": ("calls", ("classify._sample_mask",)),
    "classify.sample_mask_s": ("self", ("classify._sample_mask",)),
    "classify.draw_sample_s": ("self", ("classify.draw_sample",)),
    "classify.classify_s": ("self", ("classify.classify",)),
    "classify.combined_classify_s": ("self", ("classify.combined_classify",)),
    "estimator.verdict_calls": ("calls", ("estimator.equivalence_verdict",)),
    "estimator.verdict_s": ("self", _VERDICT),
    "estimator.evaluate_partitioned_s": ("self", ("estimator.evaluate_partitioned",)),
    "estimator.evaluate_classic_s": ("self", ("estimator.evaluate_classic",)),
    "normal.norm_ppf_calls": ("calls", ("normal.norm_ppf",)),
    "normal.norm_ppf_s": ("self", ("normal.norm_ppf",)),
    "io.load_campaign_s": ("self", ("io.load_campaign",)),
    "io.save_campaign_s": ("self", ("io.save_campaign",)),
    "io.emit_report_s": ("self", ("io.emit_report",)),
    "domain.validate_record_s": ("self", ("domain.validate_record",)),
    "domain.validate_record_calls": ("calls", ("domain.validate_record",)),
    "cost.cost_breakdown_s": ("self", ("cost.cost_breakdown",)),
    "planner.make_plan_s": ("self", ("planner.make_plan",)),
    "cli.self_s": ("self", ("cli.main",)),
}
COUNT_METRICS = ("simulate.values_drawn", "simulate.bytes_drawn_computed", "io.records_parsed")


def _count_values(tracer: "Tracer", result) -> None:
    d_s, d_u = result
    tracer.counts["simulate.values_drawn"] += int(d_s.size + d_u.size)


def _count_records(tracer: "Tracer", result) -> None:
    records, _violations = result
    tracer.counts["io.records_parsed"] += len(records)


_RESULT_HOOKS = {
    "apcval.simulate._draw_strata": _count_values,
    "apcval.io.load_campaign": _count_records,
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric; every figure is per cycle except the wrapper count."""
    if metric == "trace.absent_wrappers":
        return "count"
    if metric.endswith("_s"):
        return "s/cycle"
    if metric.startswith("simulate.bytes"):
        return "B/cycle"
    return "count/cycle"


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.absent: list[str] = []
        self.unreadable: list[str] = []  # targets whose result hook failed
        self._patches: list[tuple[object, str, object]] = []

    def _wrapper(self, func, name_id: int, target: str):
        hook = _RESULT_HOOKS.get(target)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, result)
                except (TypeError, ValueError, AttributeError):
                    # the result's shape changed in a refactor: report, don't crash
                    if target not in self.unreadable:
                        self.unreadable.append(target)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "apcval"]
        for target in targets:
            module_name, _, attr = target.rpartition(".")
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            self.names.append(target.removeprefix("apcval."))
            wrapper = self._wrapper(original, len(self.names) - 1, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span-name (self seconds, call count)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_s = duration - child
        size = len(self.names)
        return (
            np.bincount(names, weights=self_s, minlength=size),
            np.bincount(names, minlength=size),
        )

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Every per-layer metric, per cycle of the workload's schedule.

        Metrics whose spans are absent read 0 and are listed in `absent`.
        """
        self_s, calls = self.self_times()
        index = {name: i for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for metric, (kind, spans) in LAYER_METRICS.items():
            source = self_s if kind == "self" else calls
            out[metric] = float(sum(source[index[s]] for s in spans if s in index)) / cycles
        counts = dict(self.counts)
        counts["simulate.bytes_drawn_computed"] = 8 * counts["simulate.values_drawn"]
        for metric in COUNT_METRICS:
            out[metric] = counts[metric] / cycles
        out["trace.spans"] = len(self.start) / cycles
        out["trace.absent_wrappers"] = float(len(self.absent))
        return out

    def write(self, path: Path) -> None:
        """Write every span as CSV: id, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,name,start,end,parent\n")
            names = self.names
            for i, (n, s, e, p) in enumerate(zip(self.span_name, self.start, self.end, self.parent)):
                out.write(f"{i},{names[n]},{s:.9f},{e:.9f},{p}\n")
