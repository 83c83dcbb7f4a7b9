"""Point estimates, pooled variance, confidence interval and verdict.

Implements both evaluation pipelines: the classic one, where every record
is comparison-counted, and the partitioned one, where the unsafe partition
is counted in full and the safe partition only at a quota. Both reduce a
campaign to stratum statistics and hand them to `verdict_chain`, the one
implementation of mean, pooled variance, interval and verdict; the Monte
Carlo engine runs the same chain over arrays of trials. The chain takes
its few elementwise operations from `math` for a live campaign's Python
numbers and from numpy for arrays, so evaluating a campaign never imports
numpy. `record_rows` is an evaluation's per-record table (each record's
weight and d_i). All operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

from .domain import SAFE, UNLABELED, UNSAFE, DopRecord, PartitionStats, TestParams, _id_list
from .normal import norm_ppf

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    """Outcome of one equivalence test run; `verdict_chain` decided its verdict.

    `nu_hat` is the pooled relative standard deviation actually used in the
    interval (floors applied); the raw stratum values sit in `stats`. The
    clamped flags record whether nu_min replaced an empirical standard
    deviation in the corresponding stratum (for the classic pipeline the
    whole campaign is carried in the unsafe slot).
    """

    d_hat: float
    nu_hat: float
    n: int
    ci_low: float
    ci_high: float
    delta: float
    verdict: str
    clamped_s: bool
    clamped_u: bool
    q_planned: float | None = None
    stats: PartitionStats = field(kw_only=True)
    warnings: tuple[str, ...] = ()


class Verdicts(NamedTuple):
    """Output of `verdict_chain`: scalars or arrays, like its inputs."""

    d_hat: float
    nu_hat: float
    ci_low: float
    ci_high: float
    passed: bool
    clamped_s: bool
    clamped_u: bool


def _moments(diffs: list[float]) -> tuple[float | None, float | None]:
    """(mean, deviation with the n-1 denominator) of one stratum; None where undefined."""
    if not diffs:
        return None, None
    mean = math.fsum(diffs) / len(diffs)
    if len(diffs) < 2:
        return mean, None
    return mean, math.sqrt(math.fsum((v - mean) * (v - mean) for v in diffs) / (len(diffs) - 1))


def _split(records: list[DopRecord]) -> tuple[list[DopRecord], list[DopRecord], list[DopRecord]]:
    """Split into (unsafe, sampled safe, all safe); rejects unlabeled input."""
    unlabeled = [r.dop_id for r in records if r.label == UNLABELED]
    if unlabeled:
        raise ValueError(f"records are unlabeled: {_id_list(unlabeled)}")
    safe = [r for r in records if r.label == SAFE]
    unsafe = [r for r in records if r.label == UNSAFE]
    undecided = [r.dop_id for r in safe if r.sampled is None]
    if undecided:
        raise ValueError(f"safe records without sampling indicator: {_id_list(undecided)}")
    sampled = [r for r in safe if r.sampled]
    return unsafe, sampled, safe


def _differences(records: list[DopRecord], m_hat: float) -> list[float]:
    """Relative counting error (k_auto - m_final) / m_hat of each record."""
    if m_hat <= 0.0:
        raise ValueError(f"mean count estimate must be > 0, got {m_hat}")
    return [(r.k_auto - r.m_final) / m_hat for r in records]


def record_rows(records: list[DopRecord], report: EvaluationReport) -> Iterator[tuple]:
    """The per-record table of `report`, the evaluation of `records`.

    A one-pass iterator (no list of rows is kept) over a `(dop_id, label,
    weight, d_i)` row per record, in campaign order. The mean count weighs an unsafe
    record 1, a counted safe record 1/q_effective and an uncounted safe
    record 0; the classic test (n_s = 0) weighs every record 1. d_i is the
    relative error at the report's m_hat_q, and None where the weight is 0.
    """
    stats = report.stats
    if len(records) != stats.n:
        raise ValueError(f"the report covers {stats.n} records, got {len(records)}")
    weight_s = 1.0 / stats.q_effective
    weights = [
        1.0 if stats.n_s == 0 or r.label == UNSAFE else weight_s if r.sampled else 0.0
        for r in records
    ]
    d_i = iter(_differences([r for r, w in zip(records, weights) if w], stats.m_hat_q))
    return ((r.dop_id, r.label, w, next(d_i) if w else None) for r, w in zip(records, weights))


# --- the verdict chain ------------------------------------------------------
#
# Elementwise over the stratum statistics (n_s, n_u, q_effective, d_bar_s,
# d_bar_u, nu_hat_s, nu_hat_u): a live campaign passes scalars, a Monte
# Carlo grid point arrays with one entry per trial. An empty stratum is
# carried as size 0 with mean 0.0, an undefined deviation as NaN.

# The numpy operations of the chain, on Python numbers: fmax floors NaN as
# numpy's does, and sqrt is correctly rounded in both, so both give equal bits.
_SCALAR_OPS = SimpleNamespace(fmax=lambda x, floor: x if x >= floor else floor,
                              sqrt=math.sqrt, any=bool, less=lambda a, b: a < b, min=lambda x: x)


def _namespace(*values):
    """numpy for arrays (a Monte Carlo grid point; numpy is loaded), else `_SCALAR_OPS`."""
    np = sys.modules.get("numpy")
    if np is not None and any(isinstance(v, np.ndarray) for v in values):
        return np
    return _SCALAR_OPS


def _inside(low, high, delta):
    return (-delta <= low) & (high <= delta)


def verdict_chain(
    n_s, n_u, q_effective, d_bar_s, d_bar_u, nu_hat_s, nu_hat_u, params: TestParams
) -> Verdicts:
    """Stratified mean, pooled variance, interval and verdict, elementwise.

    The pooled variance has three terms: the safe stratum inflated by
    1/q_effective, the unsafe stratum, and the between-strata spread that
    accounts for the randomness of the classification itself. A stratum
    deviation below nu_min, or undefined, is replaced by nu_min; the
    clamped flags record where that happened in a nonempty stratum.
    """
    xp = _namespace(n_s, n_u, q_effective, d_bar_s, d_bar_u, nu_hat_s, nu_hat_u)
    n = n_s + n_u
    d_hat = (n_s / n) * d_bar_s + (n_u / n) * d_bar_u
    # fmax drops NaN, so an undefined deviation floors like a small one
    eff_s = xp.fmax(nu_hat_s, params.nu_min)
    eff_u = xp.fmax(nu_hat_u, params.nu_min)
    gap = d_bar_s - d_bar_u
    nu_hat = xp.sqrt(
        (n_s / n) * (eff_s * eff_s) / q_effective
        + (n_u / n) * (eff_u * eff_u)
        + (n_s * n_u / n**2) * (gap * gap)
    )
    low, high = confidence_interval(d_hat, nu_hat, n, params.alpha)
    return Verdicts(
        d_hat, nu_hat, low, high, _inside(low, high, params.delta),
        (n_s > 0) & (eff_s != nu_hat_s), (n_u > 0) & (eff_u != nu_hat_u),
    )


def _chain_inputs(stats: PartitionStats) -> tuple:
    """The chain's stratum statistics of one campaign (None made 0.0 or NaN)."""
    return (
        stats.n_s,
        stats.n_u,
        stats.q_effective,
        0.0 if stats.d_bar_s is None else stats.d_bar_s,
        0.0 if stats.d_bar_u is None else stats.d_bar_u,
        math.nan if stats.nu_hat_s is None else stats.nu_hat_s,
        math.nan if stats.nu_hat_u is None else stats.nu_hat_u,
    )


def confidence_interval(d_hat, nu_hat, n, alpha: float) -> tuple:
    """Two-sided confidence interval for the bias estimate, elementwise."""
    xp = _namespace(d_hat, nu_hat, n)
    if xp.any(xp.less(n, 1)):
        raise ValueError(f"n must be >= 1, got {xp.min(n)}")
    if xp.any(xp.less(nu_hat, 0.0)):
        raise ValueError(f"nu_hat must be >= 0, got {xp.min(nu_hat)}")
    half = norm_ppf(1.0 - alpha / 2.0) * nu_hat / xp.sqrt(n)
    return d_hat - half, d_hat + half


def equivalence_verdict(ci: tuple[float, float], delta: float) -> str:
    """Pass iff the interval lies inside [-delta, +delta], bounds inclusive."""
    return PASS if _inside(*ci, delta) else FAIL


def _evaluate(
    unsafe: list[DopRecord],
    counted: list[DopRecord],
    n_s: int,
    params: TestParams,
    warnings: list[str],
    q_planned: float | None = None,
) -> EvaluationReport:
    """The report from the unsafe records, the counted safe records and the safe count.

    The classic test passes every record as unsafe and an empty safe stratum.
    The mean count weighs each record as `record_rows` states, so it
    estimates the full campaign's. `verdict_chain` alone decides the verdict;
    an interval that overflows is an `OverflowError`, never a report.
    """
    missing = [r.dop_id for r in unsafe + counted if r.m_final is None]
    if missing:
        raise ValueError(f"records lack ground truth: {_id_list(missing)}")
    n = n_s + len(unsafe)
    if n == 0:
        raise ValueError("no records to evaluate")
    q_effective = len(counted) / n_s if n_s else 1.0
    total = math.fsum(r.m_final for r in unsafe) + (
        math.fsum(r.m_final for r in counted) / q_effective
    )
    m_hat = total / n
    if m_hat <= 0.0:
        raise ValueError("campaign has no boarding passengers (mean count is 0)")
    d_bar_s, sigma_s = _moments(_differences(counted, m_hat))
    d_bar_u, sigma_u = _moments(_differences(unsafe, m_hat))
    stats = PartitionStats(
        n=n,
        n_s=n_s,
        n_u=len(unsafe),
        q_effective=q_effective,
        d_bar_s=d_bar_s,
        d_bar_u=d_bar_u,
        nu_hat_s=sigma_s,
        nu_hat_u=sigma_u,
        m_hat_q=m_hat,
    )
    v = verdict_chain(*_chain_inputs(stats), params)
    if not (math.isfinite(v.ci_low) and math.isfinite(v.ci_high)):
        raise OverflowError(f"the evaluation is not finite: d_hat {v.d_hat}, nu_hat {v.nu_hat}")
    return EvaluationReport(
        d_hat=v.d_hat,
        nu_hat=v.nu_hat,
        n=n,
        ci_low=v.ci_low,
        ci_high=v.ci_high,
        delta=params.delta,
        verdict=PASS if v.passed else FAIL,
        stats=stats,
        clamped_s=v.clamped_s,
        clamped_u=v.clamped_u,
        q_planned=q_planned,
        warnings=tuple(warnings),
    )


def evaluate_classic(records: list[DopRecord], params: TestParams) -> EvaluationReport:
    """Run the classic equivalence test on a fully counted campaign.

    Labels and sampling indicators are ignored; every record must carry
    ground truth. In the report's stats the whole campaign occupies the
    unsafe slot (fully counted, quota 1).
    """
    warnings = []
    if len(records) < 2:
        warnings.append(
            "single-record campaign: standard deviation undefined, floored at nu_min"
        )
    return _evaluate(records, [], 0, params, warnings)


def evaluate_partitioned(
    records: list[DopRecord],
    params: TestParams,
    q_planned: float | None = None,
) -> EvaluationReport:
    """Run the partitioned equivalence test on a labeled campaign.

    Preconditions: every record is labeled; every unsafe and every sampled
    safe record carries ground truth; every safe record has a definite
    sampling indicator; a nonempty safe partition has at least one sampled
    record. The realized quota is derived from the data; `q_planned` is
    carried into the report for audit only.
    """
    unsafe, sampled, safe = _split(records)
    if safe and not sampled:
        raise ValueError("safe partition is nonempty but no record was sampled")
    warnings = [
        f"{name} stratum has fewer than 2 counted records: "
        "standard deviation floored at nu_min"
        for name, size, counted in (("safe", len(safe), sampled), ("unsafe", len(unsafe), unsafe))
        if size and len(counted) < 2
    ]
    return _evaluate(unsafe, sampled, len(safe), params, warnings, q_planned)
