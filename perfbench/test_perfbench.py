"""Smoke tests of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from apcval import io as apcval_io  # noqa: E402
from apcval import simulate  # noqa: E402
from apcval.domain import PartitionParams, TestParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generators_are_deterministic(tmp_path):
    assert gen.describe(7, n_rec=300) == gen.describe(7, n_rec=300)
    assert gen.describe(7, n_rec=300) != gen.describe(8, n_rec=300)
    first = gen.write_campaigns(7, tmp_path / "a", n_rec=300)
    second = gen.write_campaigns(7, tmp_path / "b", n_rec=300)
    kinds = {spec["kind"] for spec in first}
    assert kinds == {"first_count", "rule_of_thumb", "combined", "confidence_with_count", "classic"}
    for a, b in zip(first, second):
        assert a["campaign"].read_bytes() == b["campaign"].read_bytes()
        assert a["config"].read_bytes() == b["config"].read_bytes()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    values = [value["value"] for value in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_missing_source_exits_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _one_cycle(name: str, root: Path, **kwargs) -> workloads.Tally:
    with workloads.workspace(root) as workdir:
        workload = workloads.WORKLOADS[name](5, workdir, **kwargs)
        return workloads.run_cycles(workload, None, cycles=1).tally


def test_planted_report_fault_is_caught(tmp_path, monkeypatch):
    assert _one_cycle("campaign_ref", tmp_path, n_rec=400).failed == 0
    emit = apcval_io.emit_report

    def perturbed(report, fmt="json", timestamp=True):
        payload = apcval_io.report_to_dict(report)
        if payload.get("report") == "evaluation":
            payload = {**payload, "d_hat": payload["d_hat"] + 1e-6}
        return emit(payload, fmt, timestamp)

    monkeypatch.setattr(apcval_io, "emit_report", perturbed)
    tally = _one_cycle("campaign_ref", tmp_path, n_rec=400)
    assert tally.failed > 0 and tally.failed / tally.attempted > 0
    assert any("evaluate: d_hat" in p for p in tally.problems)


@pytest.mark.parametrize("name", ["mc_planning", "mc_audit"])
def test_planted_pass_rate_fault_is_caught(name, tmp_path, monkeypatch):
    assert _one_cycle(name, tmp_path).failed == 0
    run_simulation = simulate.run_simulation

    def off_tolerance(config):
        return [
            replace(curve, points=tuple(replace(p, pass_rate=0.5) for p in curve.points))
            for curve in run_simulation(config)
        ]

    monkeypatch.setattr(simulate, "run_simulation", off_tolerance)
    tally = _one_cycle(name, tmp_path)
    assert tally.failed > 0
    assert any(p.startswith(("classic curve", "audit")) for p in tally.problems)


def test_planted_moment_fault_is_caught():
    rng = np.random.default_rng(0)
    estimates = rng.normal(0.0, 1e-3, 20_000)
    assert checks.check_moments(estimates, 0.0, 1e-6) == []
    assert checks.check_moments(estimates, 1e-4, 1e-6)  # mean 14 se off
    assert checks.check_moments(estimates, 0.0, 1.1e-6)  # variance 9 % off


def test_absent_wrapper_is_reported_not_fatal():
    tracer = spans.Tracer()
    tracer.install(("apcval.simulate._trial_rng", "apcval.simulate._renamed_away"))
    try:
        config = simulate.SimConfig(
            error_model=simulate.NormalErrors(), params=TestParams(),
            partition=PartitionParams(), n_values=(20,), trials=30,
        )
        simulate.run_simulation(config)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(cycles=1)
    assert tracer.absent == ["apcval.simulate._renamed_away"]
    assert metrics["trace.absent_wrappers"] == 1
    assert metrics["simulate.rng_streams"] == 30
    assert metrics["simulate.seed_s"] > 0 and metrics["simulate.draw_s"] == 0
    assert simulate._trial_rng.__name__ == "_trial_rng" and not hasattr(simulate._trial_rng, "__wrapped__")
