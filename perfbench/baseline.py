"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py [WORKLOAD ...] [--seeds 10] [--first-seed 1] [--trace] [--write]

Runs run.py once per workload and seed, one run at a time, from the
checkout root, with BENCHMARK.json's run_seconds. For each metric it
prints the median, the quartiles and the spread (interquartile range over
the median) beside the metric's bound. With --write it stores the machine,
each workload's reason and every figure in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, dict]:
    """(result, run summary, machine) of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2]), json.loads(lines[0])["machine"]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("workloads", nargs="*", help=f"default: all of {names}")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="summarise traced runs instead")
    parser.add_argument("--write", action="store_true", help="store perfbench/baseline.json")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
              "workloads": {}}
    for workload in args.workloads or names:
        results, summaries = [], []
        for seed in report["seeds"]:
            result, summary, report["machine"] = run_once(
                workload, seed, spec["run_seconds"], args.trace)
            results.append(result)
            summaries.append(summary)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
            bound = bounds.get(name)
            ratio = "" if bound is None else f"  spread/bound {metrics[name]['spread'] / bound:.2f}"
            m = metrics[name]
            print(f"  {name:34s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f}{ratio}", flush=True)
        unscaled = {name: summarise([s["unscaled"][name] for s in summaries])
                    for name in summaries[0].get("unscaled", {})}
        for name, m in unscaled.items():
            print(f"  unscaled {name:25s} median {m['median']:<12.6g} spread {m['spread']:.4f}")
        why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
        report["workloads"][workload] = {
            "why": why,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
            "unscaled": unscaled,
        }
    if args.write:
        path = HERE / ("baseline_trace.json" if args.trace else "baseline.json")
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
