"""apcval benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload mc_planning --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a separate traced run (see spans.py). The last line
of standard output is the result object; earlier lines and standard
error carry the machine, the unscaled figures, any failed checks and the
span file's path. Exits 2 without a result when ./src/apcval is missing.

End-to-end metrics (a "command" is one call into a public entry point:
a CLI command in campaign_ref, an engine call in the mc_* workloads):
  setup_s        median wall time of a cold `python -m apcval.cli plan`,
                 scaled by a paired cold `import numpy` (see measure_setup)
  peak_rss_mb    peak resident memory of this process
  trials_per_s   equivalence tests per second of command time: Monte
                 Carlo trials, or campaign evaluations in campaign_ref
  records_per_s  records per second of command time: simulated records
                 (trials x n), or campaign records through the workflow
  command_s_p50, command_s_p90
                 command latency percentiles (the run's command count is
                 printed on the line before the result)
Throughput and latency are speed-scaled (see workloads.py). Failed
commands and failed output checks count in `failed`, over `attempted`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# Median cold `python -c "import numpy"` on the 2-core Xeon of the first baseline.
IMPORT_REF_S = 0.205

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trials_per_s": "1/s",
    "records_per_s": "1/s",
    "command_s_p50": "s",
    "command_s_p90": "s",
}


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(workdir: Path) -> tuple[float, float, int, list[str]]:
    """Cold start of `python -m apcval.cli plan`, as (scaled, raw) medians.

    Cold starts drift with the machine by 20-40 % between runs. Each CLI
    start is paired with a cold `python -c "import numpy"`, which is most
    of the CLI's own start-up, and the CLI median is scaled by
    IMPORT_REF_S / (reference median). The in-process calibration kernel
    does not serve here: it reads 1.5-2x slow right after a process exits.
    """
    import checks
    import gen

    config = workdir / "setup.cfg"
    config.write_text(gen.config_text({"sample_seed": 0, "kind": "classic"}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def cold(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=False)
        return time.perf_counter() - start, proc

    times, references, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        references.append(cold(["-c", "import numpy"])[0])
        elapsed, proc = cold(["-m", "apcval.cli", "plan", "--config", str(config)])
        times.append(elapsed)
        if proc.returncode != 0:
            problems.append(f"setup: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            problems += checks.check_plan(checks.parse_json(proc.stdout))
    raw = statistics.median(times)
    return raw * IMPORT_REF_S / statistics.median(references), raw, len(times), problems


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    import workloads

    with workloads.workspace(ROOT) as workdir:
        setup_s, setup_raw, setup_runs, setup_problems = measure_setup(workdir)
        workload = workloads.WORKLOADS[name](seed, workdir)
        result = workloads.run_cycles(workload, seconds)
    tally = result.tally
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trials_per_s": result.rate(tally.trials),
        "records_per_s": result.rate(tally.records),
        "command_s_p50": percentile(result.scaled, 50),
        "command_s_p90": percentile(result.scaled, 90),
    }
    failed = tally.failed + len(setup_problems)
    attempted = tally.attempted + setup_runs
    print(json.dumps({
        "workload": name, "cycles": result.cycles, "commands": len(tally.latencies),
        "setup_runs": setup_runs, "wall_s": result.wall_s, "failed_ratio": failed / attempted,
        "unscaled": {
            "setup_s": setup_raw,
            "trials_per_s": result.rate(tally.trials, scaled=False),
            "records_per_s": result.rate(tally.records, scaled=False),
            "command_s_p50": percentile(tally.latencies, 50),
            "command_s_p90": percentile(tally.latencies, 90),
        },
    }))
    out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return out, attempted, failed, setup_problems + tally.problems


def traced(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Untraced cycles for half the time, then the same cycles again, traced."""
    import spans
    import workloads

    with workloads.workspace(ROOT) as workdir:
        plain = workloads.run_cycles(
            workloads.WORKLOADS[name](seed, workdir), seconds / 2, calibrated=False)
        tracer = spans.Tracer()
        tracer.install()
        try:
            spanned = workloads.run_cycles(
                workloads.WORKLOADS[name](seed, workdir), None, cycles=plain.cycles,
                calibrated=False)
        finally:
            tracer.uninstall()
    cycles = plain.cycles
    metrics = tracer.layer_metrics(cycles)
    metrics["trace.untraced_s"] = plain.wall_s / cycles
    metrics["trace.traced_s"] = spanned.wall_s / cycles
    metrics["trace.overhead_s"] = (spanned.wall_s - plain.wall_s) / cycles
    span_file = ROOT / ".perfbench_out" / f"spans-{name}.csv.gz"
    tracer.write(span_file)
    print(json.dumps({"workload": name, "cycles": cycles, "spans": len(tracer.start),
                      "span_file": str(span_file.relative_to(ROOT)), "absent": tracer.absent,
                      "unreadable_results": tracer.unreadable}))
    for target in tracer.absent:
        print(f"trace: {target} no longer exists, its metrics read 0", file=sys.stderr)
    for target in tracer.unreadable:
        print(f"trace: {target} returned an unexpected shape, its counts read low", file=sys.stderr)
    out = {k: {"value": v, "unit": spans.unit(k)} for k, v in metrics.items()}
    attempted = plain.tally.attempted + spanned.tally.attempted
    failed = plain.tally.failed + spanned.tally.failed
    return out, attempted, failed, plain.tally.problems + spanned.tally.problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("mc_planning", "mc_audit", "campaign_ref"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "apcval" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'apcval'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import apcval

    if Path(apcval.__file__).resolve().parent != (SRC / "apcval").resolve():
        print(f"error: apcval imported from {apcval.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"machine": machine()}))
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, problems = run(args.workload, args.seed, args.seconds)
    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
