"""The three workloads: a closed loop of calls into apcval's public entry points.

One caller issues each call after the previous one returns. Work is
grouped in cycles, a fixed schedule of calls, and a run always ends on a
cycle boundary so every run measures the same mix. Each call's latency
is its wall time; throughput is the work of a cycle over the time its
calls take, so the benchmark's own checks are not counted as program time.

On shared cloud machines (the first baseline ran on a 2-core Xeon) CPU
speed drifts by 10-30 % over tens of seconds, for every process alike.
So each step of a cycle (about 0.3-1 s of calls) is bracketed by
`calibrate`, a fixed kernel of numpy and plain Python that never touches
apcval, and the step's latencies are scaled by
CAL_REF_S / (kernel time around the step). A change to the program moves
the scaled figures as it moves the raw ones; a change in machine speed
cancels. run.py prints the unscaled figures as well.
"""

from __future__ import annotations

import contextlib
import functools
import io
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
from apcval import cli, simulate
from apcval.domain import PartitionParams, TestParams


# Median `calibrate` time on the 2-core Xeon of the first baseline.
CAL_REF_S = 0.0207


def calibrate() -> float:
    """Seconds taken by a fixed numpy and plain-Python kernel."""
    start = time.perf_counter()
    total = 0.0
    for i in range(150):
        x = np.random.default_rng(i).normal(size=2000)
        total += float(x.mean()) + float(x.std())
        total += sum({str(j): j for j in range(200)}.values())
    return time.perf_counter() - start


@dataclass
class Tally:
    """Calls, their latencies, work counts and failures of one run."""

    latencies: list[float] = field(default_factory=list)
    trials: int = 0
    records: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, seconds: float, problems: list[str], trials: int = 0, records: int = 0) -> None:
        self.latencies.append(seconds)
        self.attempted += 1
        self.trials += trials
        self.records += records
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def fail_check(self, problems: list[str]) -> None:
        """A failed end-of-run check counts as one failed operation."""
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Workload:
    """Base: set up inputs, run cycles, check aggregates."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def steps(self, cycle: int) -> list[Callable[[Tally], None]]:
        """The calls of one cycle, in groups timed between calibrations."""
        return [functools.partial(self.run_cycle, cycle)]

    def run_cycle(self, cycle: int, tally: Tally) -> None:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []


def _timed(call):
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # any exception is a failed operation, not a crash
        return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, result, []


# --- mc_planning --------------------------------------------------------------


class McPlanning(Workload):
    """Success curves at the reference plan plus a moment study at n = 10000."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.spec = gen.planning_cycle(seed)
        self.partition = PartitionParams()
        self.params = TestParams(nu=gen.REF_NU, nu_min=gen.NU_MIN)
        self.model = simulate.planning_normal_model(gen.REF_NU, self.partition)
        # analytic_success assumes normal errors. Under the planning mixture
        # (excess kurtosis near 20) the classic pass rate at mu = 0 sits
        # 3.3 MC se below it at 40k trials, so the classic curve draws both
        # strata from N(mu, nu^2), criterion 7's model, whose composite
        # deviation and analytic curve are the same.
        self.classic_model = simulate.NormalErrors(nu_s=gen.REF_NU, nu_u=gen.REF_NU)
        bias = self.spec["bias"]
        self.bias_model = simulate.NormalErrors(
            mu_s=bias["mu_s"], nu_s=self.model.nu_s, mu_u=bias["mu_u"], nu_u=self.model.nu_u
        )
        self.classic_points: dict[float, list[int]] = {}
        self.analytic: dict[float, float] = {}
        self.estimates: list[np.ndarray] = []

    def _curve(self, key: str, seed: int):
        spec = self.spec[key]
        config = simulate.SimConfig(
            error_model=self.classic_model if key == "classic" else self.model,
            params=self.params, partition=self.partition,
            n_values=(spec["n"],), bias_sweep=spec["bias_sweep"], trials=spec["trials"],
            test=spec["test"], seed=seed,
        )
        return simulate.run_simulation(config)

    def run_cycle(self, cycle: int, tally: Tally) -> None:
        for slot, key in enumerate(("partitioned", "classic")):
            spec = self.spec[key]
            elapsed, curves, problems = _timed(
                lambda: self._curve(key, gen.call_seed(self.seed, cycle, slot)))
            if curves is not None:
                points = curves[0].points
                if len(points) != len(spec["bias_sweep"]):
                    problems.append(f"{key} curve: {len(points)} points")
                elif key == "classic":
                    for point in points:
                        tally_point = self.classic_points.setdefault(point.grid_value, [0, 0])
                        tally_point[0] += round(point.pass_rate * spec["trials"])
                        tally_point[1] += spec["trials"]
                        self.analytic[point.grid_value] = point.analytic
            trials = spec["trials"] * len(spec["bias_sweep"])
            tally.record(elapsed, problems, trials=trials, records=trials * spec["n"])

        spec = self.spec["bias"]
        elapsed, estimates, problems = _timed(lambda: simulate.bias_estimates(
            self.bias_model, self.partition, spec["n"], spec["trials"],
            seed=gen.call_seed(self.seed, cycle, 2)))
        if estimates is not None:
            self.estimates.append(np.asarray(estimates, dtype=float))
        tally.record(elapsed, problems, trials=spec["trials"], records=spec["trials"] * spec["n"])

    def final_checks(self) -> list[str]:
        problems = checks.check_classic_curve(self.classic_points, self.analytic)
        if self.estimates:
            p_s, p_u = self.partition.p_s, self.partition.p_u
            m = self.bias_model
            target = p_s * m.mu_s + p_u * m.mu_u
            variance = (p_s * m.nu_s**2 / self.partition.q + p_u * m.nu_u**2
                        + p_s * p_u * (m.mu_s - m.mu_u) ** 2) / self.spec["bias"]["n"]
            problems += checks.check_moments(np.concatenate(self.estimates), target, variance)
        return problems


# --- mc_audit -----------------------------------------------------------------


class McAudit(Workload):
    """Criterion 8's user-risk audit, small n, resampling error model."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.calls = gen.audit_cycle(seed)
        self.model = simulate.ResamplingErrors(pool_s=gen.AUDIT_POOL, pool_u=gen.AUDIT_POOL)
        self.points: dict[tuple[str, int, float], list[int]] = {}

    def run_cycle(self, cycle: int, tally: Tally) -> None:
        for slot, spec in enumerate(self.calls):
            config = simulate.SimConfig(
                error_model=self.model,
                params=TestParams(nu=gen.REF_NU, nu_min=gen.NU_MIN),
                partition=PartitionParams(p_s=spec["p_s"], nu_s_ratio=0.5, q=spec["q"]),
                n_values=spec["n_values"], bias_sweep=(spec["mu"],), trials=spec["trials"],
                test=spec["test"], seed=gen.call_seed(self.seed, cycle, slot),
            )
            elapsed, audit, problems = _timed(lambda: simulate.user_risk_audit(config))
            if audit is not None:
                if [p.n for p in audit] != list(spec["n_values"]):
                    problems.append(f"audit: n grid {[p.n for p in audit]}")
                for point in audit:
                    entry = self.points.setdefault((spec["test"], point.n, spec["mu"]), [0, 0])
                    entry[0] += round(point.pass_rate * spec["trials"])
                    entry[1] += spec["trials"]
            trials = spec["trials"] * len(spec["n_values"])
            tally.record(elapsed, problems, trials=trials,
                         records=spec["trials"] * sum(spec["n_values"]))

    def final_checks(self) -> list[str]:
        return checks.check_audit(self.points)


# --- campaign_ref -------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[float, int, str, str]:
    """Run one CLI command in-process: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments by exiting
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an exception is a failed command
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = -1
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def _config_values(text: str) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


class CampaignRef(Workload):
    """The practitioner workflow through apcval.cli.main on 5256-record campaigns."""

    def __init__(self, seed: int, workdir: Path, n_rec: int = gen.REF_N_REC) -> None:
        super().__init__(seed, workdir)
        self.campaigns = gen.write_campaigns(seed, workdir / "inputs", n_rec)
        for spec in self.campaigns:
            spec["values"] = _config_values(spec["config"].read_text(encoding="utf-8"))
            spec["raw_rows"] = checks.read_rows(spec["campaign"].read_text(encoding="utf-8"))

    def _command(self, tally: Tally, argv: list[str], check, records: int = 0,
                 evaluations: int = 0) -> None:
        elapsed, code, stdout, stderr = run_cli(argv)
        problems = [f"{argv[0]}: exit code {code}: {stderr.strip()[-300:]}"] if code != 0 else []
        if not problems:
            try:
                problems = check(stdout)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems = [f"{argv[0]}: output unreadable: {type(exc).__name__}: {exc}"]
        tally.record(elapsed, problems, trials=evaluations, records=records)

    def _workflow(self, spec: dict, tally: Tally) -> None:
        out = self.workdir / "out" / spec["name"]
        out.mkdir(parents=True, exist_ok=True)
        common = ["--config", str(spec["config"])]
        kind, values, n = spec["kind"], spec["values"], spec["n_rec"]
        report = out / "report.json"
        details = out / "details.csv"

        def read(path: Path) -> str:
            return path.read_text(encoding="utf-8")

        self._command(tally, ["plan", *common],
                      lambda s: checks.check_plan(checks.parse_json(s)))
        evaluate = ["evaluate", *common, "--out", str(report), "--details", str(details)]
        if kind == "classic":
            evaluate += ["--campaign", str(spec["campaign"]), "--mode", "classic"]
            mode = "classic"
        else:
            labeled, sampled = out / "labeled.csv", out / "sampled.csv"
            self._command(
                tally, ["classify", *common, "--campaign", str(spec["campaign"]), "--out", str(labeled)],
                lambda s: checks.check_classify(kind, values, spec["raw_rows"],
                                                checks.read_rows(read(labeled)), checks.parse_json(s)))
            try:
                labeled_rows = checks.read_rows(read(labeled))
            except OSError:  # classify failed and was counted; later checks fail too
                labeled_rows = []
            self._command(
                tally, ["sample", *common, "--campaign", str(labeled), "--out", str(sampled)],
                lambda s: checks.check_sample(values["q"], labeled_rows,
                                              checks.read_rows(read(sampled)), checks.parse_json(s)))
            for command, check in (
                ("cost", lambda s: checks.check_cost(labeled_rows, checks.parse_json(s))),
                ("optimize", lambda s: checks.check_optimize(checks.parse_json(s),
                                                             values["costs.scheme"])),
            ):
                self._command(tally, [command, *common, "--campaign", str(labeled)], check)
            evaluate += ["--campaign", str(sampled)]
            mode = "partitioned"

        evaluated: list[str] = []

        def check_evaluate(_stdout: str) -> list[str]:
            evaluated.append(read(report) + "\0" + read(details))
            return checks.check_evaluate(mode, checks.parse_json(read(report)),
                                         checks.read_rows(read(details)))

        # the workflow's records are carried through once evaluate succeeds
        self._command(tally, evaluate, check_evaluate, records=n, evaluations=1)
        self._command(tally, evaluate, lambda s: check_evaluate(s) + (
            checks.check_repeat(*evaluated) if len(evaluated) == 2 else ["repeat: no first report"]),
            evaluations=1)

    def steps(self, cycle: int) -> list[Callable[[Tally], None]]:
        del cycle  # every cycle replays the same campaigns
        return [functools.partial(self._workflow, spec) for spec in self.campaigns]


WORKLOADS = {"mc_planning": McPlanning, "mc_audit": McAudit, "campaign_ref": CampaignRef}


@dataclass
class RunResult:
    """A run's tally plus the busy time of every step, raw and scaled."""

    tally: Tally
    wall_s: float = 0.0
    scaled: list[float] = field(default_factory=list)  # latencies, speed-scaled
    step_busy: list[list[float]] = field(default_factory=list)  # [cycle][step]
    step_scaled: list[list[float]] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return len(self.step_busy)

    def rate(self, work: int, scaled: bool = True) -> float:
        """Work per second of a median cycle.

        Every cycle does the same work, so a cycle's time is the sum over
        its steps of each step's median busy time across cycles; one slow
        call then moves the figure less than it would a plain total.
        """
        busy = self.step_scaled if scaled else self.step_busy
        cycle_s = sum(statistics.median(step) for step in zip(*busy))
        return work / self.cycles / cycle_s


def run_cycles(workload: Workload, seconds: float | None, cycles: int | None = None,
               calibrated: bool = True) -> RunResult:
    """Run whole cycles until `seconds` have passed, or exactly `cycles`.

    Traced runs pass calibrated=False: their untraced and traced halves
    must do identical work for the overhead to be their difference.
    """
    tally = Tally()
    result = RunResult(tally)
    start = time.perf_counter()
    before = calibrate() if calibrated else CAL_REF_S
    while True:
        busy, scaled_busy = [], []
        for step in workload.steps(result.cycles):
            first = len(tally.latencies)
            step(tally)
            after = calibrate() if calibrated else CAL_REF_S
            scale = CAL_REF_S / ((before + after) / 2)
            before = after
            latencies = tally.latencies[first:]
            result.scaled += [t * scale for t in latencies]
            busy.append(sum(latencies))
            scaled_busy.append(busy[-1] * scale)
        result.step_busy.append(busy)
        result.step_scaled.append(scaled_busy)
        if cycles is not None and result.cycles >= cycles:
            break
        if cycles is None and time.perf_counter() - start >= seconds:
            break
    result.wall_s = time.perf_counter() - start
    tally.fail_check(workload.final_checks())
    return result


@contextlib.contextmanager
def workspace(root: Path):
    """A scratch directory inside the checkout, removed afterwards."""
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
