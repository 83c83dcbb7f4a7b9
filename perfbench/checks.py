"""Output checks. Each returns a list of problems; empty means correct.

Campaign checks recompute the reports independently (numpy and the
standard library, not the program's estimator). Monte Carlo checks are
statistical only: engine changes may change the random stream, so no
pass rate is compared bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from gen import ALPHA, DELTA, NU_MIN, REF_N_E, REF_N_REC, REF_Q

TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def read_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def strip_created(report_text: str) -> str:
    return "".join(
        line for line in report_text.splitlines(keepends=True)
        if not line.lstrip().startswith('"created":')
    )


# --- campaign_ref -------------------------------------------------------------


def check_plan(report: dict) -> list[str]:
    got = (report.get("n_e"), report.get("n_rec"), report.get("q_planned"))
    if got != (REF_N_E, REF_N_REC, REF_Q):
        return [f"plan: (n_e, n_rec, q) = {got}, expected {(REF_N_E, REF_N_REC, REF_Q)}"]
    return []


def check_classify(kind: str, config: dict, raw: list[dict], labeled: list[dict],
                   report: dict) -> list[str]:
    problems = []
    labels = [r["label"] for r in labeled]
    if [r["dop_id"] for r in labeled] != [r["dop_id"] for r in raw]:
        problems.append("classify: record ids or order changed")
    if any(label not in ("s", "u") for label in labels):
        problems.append("classify: unlabeled record in the output")
    n_s = labels.count("s")
    if (report.get("n"), report.get("n_s")) != (len(raw), n_s):
        problems.append(f"classify: report n/n_s {report.get('n')}/{report.get('n_s')} "
                        f"vs file {len(raw)}/{n_s}")
    if kind in ("first_count", "confidence_with_count", "combined"):
        if kind == "first_count":
            safe = [r["k_auto"] == r["m1"] for r in raw]
        elif kind == "confidence_with_count":
            safe = [r["k_auto"] == r["alg_count"] for r in raw]
        else:
            limit = float(config["classifier.threshold"])
            safe = [
                int(r["m1"]) / (float(r["duration_s"]) / 60.0) <= limit or r["m1"] == r["k_auto"]
                for r in raw
            ]
        expected = ["s" if flag else "u" for flag in safe]
        if labels != expected:
            wrong = sum(a != b for a, b in zip(labels, expected))
            problems.append(f"classify: {wrong} labels differ from the {kind} rule")
    else:
        target = float(config["classifier.target_share"]) * len(raw)
        if abs(n_s - target) > 0.5 + TOL:
            problems.append(f"classify: {n_s} safe records for target {target:.1f}")
    return problems


def check_sample(q: str, labeled: list[dict], sampled: list[dict], report: dict) -> list[str]:
    problems = []
    n_s = sum(r["label"] == "s" for r in labeled)
    expected = math.ceil(Fraction(q) * n_s)
    chosen = sum(r["sampled"] == "true" for r in sampled)
    if (report.get("n_s"), report.get("counted"), chosen) != (n_s, expected, expected):
        problems.append(f"sample: n_s/counted/in-file {report.get('n_s')}/{report.get('counted')}/"
                        f"{chosen}, expected {n_s}/{expected}/{expected}")
    for before, after in zip(labeled, sampled):
        want = ("true", "false") if before["label"] == "s" else ("",)
        if after["sampled"] not in want or {**after, "sampled": ""} != {**before, "sampled": ""}:
            problems.append(f"sample: record {before['dop_id']} changed unexpectedly")
            break
    return problems


def recompute_evaluation(details: list[dict], mode: str, alpha: float = ALPHA,
                         nu_min: float = NU_MIN) -> dict[str, float]:
    """d_hat, nu_hat and the interval recomputed from the --details CSV."""
    n = len(details)
    d = np.array([float(r["d_i"]) if r["d_i"] else math.nan for r in details])
    weight = np.array([float(r["weight"]) for r in details])
    if mode == "classic":
        d_hat = float(d.mean())
        sigma = float(d.std(ddof=1)) if n >= 2 else 0.0
        nu_hat = max(sigma, nu_min)
    else:
        stratum = np.array([r["stratum"] for r in details])
        safe = stratum == "s"
        unsafe = stratum == "u"
        d_s = d[safe & (weight > 0)]
        d_u = d[unsafe]
        n_s, n_u = int(safe.sum()), int(unsafe.sum())
        counted = weight > 0
        d_hat = float((weight[counted] * d[counted]).sum()) / n
        var = 0.0
        if n_s:
            sd = float(d_s.std(ddof=1)) if d_s.size >= 2 else 0.0
            var += n_s / n * max(sd, nu_min) ** 2 / (d_s.size / n_s)
        if n_u:
            sd = float(d_u.std(ddof=1)) if d_u.size >= 2 else 0.0
            var += n_u / n * max(sd, nu_min) ** 2
        if n_s and n_u:
            var += n_s * n_u / n**2 * (float(d_s.mean()) - float(d_u.mean())) ** 2
        nu_hat = math.sqrt(var)
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * nu_hat / math.sqrt(n)
    return {"d_hat": d_hat, "nu_hat": nu_hat, "ci_low": d_hat - half, "ci_high": d_hat + half}


def check_evaluate(mode: str, report: dict, details: list[dict]) -> list[str]:
    problems = []
    if report.get("mode") != mode or report.get("n") != len(details):
        problems.append(f"evaluate: mode/n {report.get('mode')}/{report.get('n')}, "
                        f"expected {mode}/{len(details)}")
        return problems
    expected = recompute_evaluation(details, mode)
    for key, value in expected.items():
        got = report.get(key)
        if not isinstance(got, (int, float)) or not _close(got, value):
            problems.append(f"evaluate: {key} = {got}, recomputed {value!r}")
    low, high = report.get("ci_low"), report.get("ci_high")
    if isinstance(low, (int, float)) and isinstance(high, (int, float)):
        verdict = "pass" if -DELTA <= low and high <= DELTA else "fail"
        if report.get("verdict") != verdict:
            problems.append(f"evaluate: verdict {report.get('verdict')} for [{low}, {high}]")
    return problems


def check_cost(labeled: list[dict], report: dict, r_av: float = 0.7, c_labor: float = 20.0,
               r_s: float = 1.2) -> list[str]:
    problems = []
    per_record = report.get("per_record") or []
    duration = np.array([float(r["duration_s"]) for r in labeled])
    cost = duration / 3600.0 * r_av * c_labor
    if len(per_record) != len(labeled):
        return [f"cost: {len(per_record)} per-record costs for {len(labeled)} records"]
    if any(not _close(float(got), float(want)) for (_, got), want in zip(per_record, cost)):
        problems.append("cost: per-record cost differs from duration/3600 * r_av * c_labor")
    unsafe = np.array([r["label"] == "u" for r in labeled])
    if unsafe.any() and not _close(report.get("c_u", math.nan), (1 + r_s) * float(cost[unsafe].mean())):
        problems.append(f"cost: c_u = {report.get('c_u')}")
    return problems


def check_optimize(report: dict, scheme: str) -> list[str]:
    q = report.get("q_planned")
    if (report.get("q_source"), report.get("scheme"), report.get("n_e")) != ("optimized", scheme, REF_N_E):
        return [f"optimize: source/scheme/n_e {report.get('q_source')}/{report.get('scheme')}/"
                f"{report.get('n_e')}"]
    if not (isinstance(q, float) and 0.0 < q <= 1.0) or report.get("n_rec", 0) < REF_N_E:
        return [f"optimize: q_planned {q}, n_rec {report.get('n_rec')}"]
    return []


def check_repeat(first: str, second: str) -> list[str]:
    if strip_created(first) != strip_created(second):
        return ["repeat: report differs apart from 'created'"]
    return []


def parse_json(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return value if isinstance(value, dict) else {}


# --- Monte Carlo --------------------------------------------------------------


def check_classic_curve(points: dict[float, list[int]], analytic: dict[float, float]) -> list[str]:
    """Each classic point within 4 MC standard errors of analytic_success."""
    problems = []
    for mu, (passes, trials) in points.items():
        rate = passes / trials
        a = analytic[mu]
        se = max(math.sqrt(rate * (1 - rate) / trials), math.sqrt(a * (1 - a) / trials), 1 / trials)
        if abs(rate - a) > 4 * se:
            problems.append(f"classic curve: mu={mu} rate {rate:.4f} vs analytic {a:.4f} "
                            f"({abs(rate - a) / se:.1f} se, {trials} trials)")
    return problems


def check_audit(points: dict[tuple[str, int, float], list[int]], alpha: float = ALPHA) -> list[str]:
    """Worst pass rate over the bias sweep, per test and n, <= alpha/2 + 4 se."""
    problems = []
    worst: dict[tuple[str, int], tuple[float, int]] = {}
    for (test, n, _mu), (passes, trials) in points.items():
        rate = passes / trials
        if rate >= worst.get((test, n), (-1.0, 0))[0]:
            worst[(test, n)] = (rate, trials)
    for (test, n), (rate, trials) in sorted(worst.items()):
        se = max(math.sqrt(rate * (1 - rate) / trials), 1 / trials)
        if rate > alpha / 2 + 4 * se:
            problems.append(f"audit: {test} n={n} worst pass rate {rate:.4f} > alpha/2 + 4 se")
    return problems


def check_moments(estimates: np.ndarray, target: float, variance: float) -> list[str]:
    """Mean within 4 se of the target; variance within 5 % of the closed form.

    The 5 % bound is criterion 4's and holds at the standard run length
    (over 12.8k trials, where 5 % is at least 4 standard errors of the
    sample variance). Shorter runs widen it to 4 such standard errors.
    """
    trials = estimates.size
    problems = []
    se = float(estimates.std(ddof=1)) / math.sqrt(trials)
    if abs(float(estimates.mean()) - target) > 4 * se:
        problems.append(f"moments: mean {estimates.mean():.3e} vs target {target:.3e} ({trials} trials)")
    rel = abs(float(estimates.var(ddof=1)) - variance) / variance
    limit = max(0.05, 4 * math.sqrt(2 / (trials - 1)))
    if rel > limit:
        problems.append(f"moments: variance off the closed form by {rel:.1%} > {limit:.1%}")
    return problems
