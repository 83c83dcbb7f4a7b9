"""Monte Carlo and analytic studies of test success and user risk.

Success curves and user-risk audits run on a sufficient-statistic
engine that never draws a record. A trial only needs each stratum's
size, mean and deviation, and these have exact sampling distributions
(Cochran, *Sampling Techniques*, 1977): the safe count is binomial, the
counted safe records are iid draws of the safe model, a normal stratum
has a normal mean and a sum of squares of sigma^2 chi^2(k-1), and a
resampled stratum has multinomial counts over the pool's distinct
values. A study builds its group samplers once, and the verdicts of all
trials of all its grid points are then evaluated at once, over arrays,
by the estimator's `verdict_chain`, the same code that evaluates a live
campaign.

`bias_estimates` runs the record-level trial: stratum values are drawn
per record and the counted subset of the safe stratum comes from the
real sampler. That path is also the small-n oracle the
sufficient-statistic engine is tested against.

Both engines draw each trial from its own stream of a counter-based
Philox generator (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011): the key is derived once per (seed, grid point) and
trial t starts at counter (0, 0, 0, t). A trial therefore reproduces in
any order of the trials and in any longer run, and starting its stream
costs a state reset instead of a seed derivation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classify import _sample_mask
from .domain import PartitionParams, TestParams
from .estimator import verdict_chain
from .normal import norm_cdf, norm_ppf
from .planner import counted_count

TEST_CLASSIC = "classic"
TEST_PARTITIONED = "partitioned"


@dataclass(frozen=True, slots=True)
class NormalErrors:
    """Per-stratum normal error model for relative differences."""

    mu_s: float = 0.0
    nu_s: float = 0.15
    mu_u: float = 0.0
    nu_u: float = 0.15

    def __post_init__(self) -> None:
        if self.nu_s < 0.0 or self.nu_u < 0.0:
            raise ValueError("standard deviations must be >= 0")

    def overall_mean(self, p_s: float) -> float:
        return p_s * self.mu_s + (1.0 - p_s) * self.mu_u


@dataclass(frozen=True, slots=True)
class ResamplingErrors:
    """Per-stratum with-replacement resampling from empirical pools."""

    pool_s: tuple[float, ...] = ()
    pool_u: tuple[float, ...] = ()

    def overall_mean(self, p_s: float) -> float:
        mean_s = float(np.mean(self.pool_s)) if self.pool_s else 0.0
        mean_u = float(np.mean(self.pool_u)) if self.pool_u else 0.0
        return p_s * mean_s + (1.0 - p_s) * mean_u


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One simulation study: grid, error model, test and reproducibility."""

    error_model: NormalErrors | ResamplingErrors
    params: TestParams
    partition: PartitionParams
    n_values: tuple[int, ...]
    bias_sweep: tuple[float, ...] | None = None
    trials: int = 10_000
    test: str = TEST_CLASSIC
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError("every simulated sample size must be >= 2")
        if self.test not in (TEST_CLASSIC, TEST_PARTITIONED):
            raise ValueError(f"unknown test {self.test!r}")
        model = self.error_model
        if isinstance(model, ResamplingErrors):
            if self.partition.p_s > 0.0 and not model.pool_s:
                raise ValueError("resampling model needs a nonempty safe pool")
            if self.partition.p_s < 1.0 and not model.pool_u:
                raise ValueError("resampling model needs a nonempty unsafe pool")


@dataclass(frozen=True, slots=True)
class CurvePoint:
    grid_value: float
    pass_rate: float
    mc_se: float
    analytic: float | None


@dataclass(frozen=True, slots=True)
class SuccessCurve:
    """Pass probability along one grid variable, with MC standard errors."""

    grid_var: str
    test: str
    trials: int
    seed: int
    fixed: dict[str, float] = field(default_factory=dict)
    points: tuple[CurvePoint, ...] = field(kw_only=True)


@dataclass(frozen=True, slots=True)
class AuditPoint:
    n: int
    pass_rate: float
    mc_se: float
    worst_mu: float


def planning_normal_model(nu: float, partition: PartitionParams) -> NormalErrors:
    """Zero-bias normal model whose strata reproduce the planning deviations.

    The safe deviation is nu_s_ratio * nu; the unsafe one absorbs the rest
    so the composite deviation equals nu.
    """
    nu_s = partition.nu_s_ratio * nu
    p_u = partition.p_u
    if p_u > 0.0:
        surplus = nu**2 - partition.p_s * nu_s**2
        if surplus < 0.0:
            raise ValueError("nu_s_ratio too large: composite variance exceeded")
        nu_u = math.sqrt(surplus / p_u)
    else:
        nu_u = nu
    return NormalErrors(mu_s=0.0, nu_s=nu_s, mu_u=0.0, nu_u=nu_u)


def analytic_success(mu: float, nu: float, n: int, alpha: float, delta: float) -> float:
    """Pass probability of the classic test under a normal error model.

    The empirical standard deviation is held at its true value nu, so this
    is the idealized reference curve; a simulated test estimates it and
    deviates slightly at small n. Zero whenever the interval halfwidth
    exceeds the margin (delta * sqrt(n) / nu < z).
    """
    if nu <= 0.0:
        raise ValueError("nu must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    z = norm_ppf(1.0 - alpha / 2.0)
    scale = math.sqrt(n) / nu
    value = norm_cdf((delta - mu) * scale - z) + norm_cdf((delta + mu) * scale - z) - 1.0
    return max(0.0, value)


def _mc_se(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def _safe_count(rng: np.random.Generator, n: int, p_s: float) -> int:
    """Size of a trial's safe stratum: one binomial draw unless p_s is 0 or 1."""
    if p_s >= 1.0:
        return n
    if p_s <= 0.0:
        return 0
    return int(rng.binomial(n, p_s))


def _point_rng(seed: int, point_index: int) -> tuple[np.random.Generator, dict]:
    """A grid point's Philox generator and its initial state, which `_trial_rng` resets.

    Philox takes its key, two 64-bit words of `SeedSequence(seed,
    spawn_key=(point,))`, as the only value derived from the seed: one per
    (seed, grid point), shared by every trial of the point. The initial
    state holds that key, a zero counter and an empty buffer.
    """
    seeds = np.random.SeedSequence(seed, spawn_key=(point_index,))
    rng = np.random.Generator(np.random.Philox(seeds))
    state = rng.bit_generator.state
    # Python ints: the state setter reads the words one by one, and a word
    # of a numpy array costs a scalar conversion each time
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    return rng, state


def _trial_rng(point: tuple[np.random.Generator, dict], trial: int) -> np.random.Generator:
    """Trial `trial`'s stream: the point's generator reset to counter (0, 0, 0, trial).

    The trial sits in the most significant counter word, so the streams of
    two trials never overlap (the counter advances from the least
    significant word). The reset sets the whole state, buffered words
    included, so the stream does not depend on what was drawn before:
    trials reproduce in any order and in any longer run.
    """
    rng, state = point
    state["state"]["counter"][3] = trial
    rng.bit_generator.state = state
    return rng


# --- sufficient-statistic engine ----------------------------------------------


def _group_sampler(
    model: NormalErrors | ResamplingErrors, safe: bool
) -> Callable[[np.random.Generator, int], tuple[float, float]]:
    """Draw of the mean and sum of squared deviations of k >= 1 iid stratum values.

    A normal group has a normal mean and a sum of squares of
    sigma^2 chi^2(k-1). A resampled group draws its k values directly
    while k is below the pool's number of distinct values, and otherwise
    its multinomial counts over them, so a draw costs at most
    min(k, distinct values) in time and memory. The pool of a resampled
    group must not be empty.
    """
    if isinstance(model, NormalErrors):
        mu, sigma = (model.mu_s, model.nu_s) if safe else (model.mu_u, model.nu_u)

        def normal(rng: np.random.Generator, k: int) -> tuple[float, float]:
            mean = mu + sigma * rng.standard_normal() / math.sqrt(k)
            return mean, sigma * sigma * rng.chisquare(k - 1) if k > 1 else 0.0

        return normal
    pool = np.asarray(model.pool_s if safe else model.pool_u, dtype=float)
    centre = float(pool.mean())
    pool = pool - centre  # centred, so the sum of squares loses little to cancellation
    values, counts = np.unique(pool, return_counts=True)
    probs = counts / counts.sum()
    powers = np.stack([values, values * values], axis=1)

    def resampled(rng: np.random.Generator, k: int) -> tuple[float, float]:
        if k < values.size:
            x = pool[rng.integers(0, pool.size, k)]
            s1, s2 = float(x.sum()), float(x @ x)
        else:
            s1, s2 = np.dot(rng.multinomial(k, probs), powers).tolist()
        return centre + s1 / k, max(s2 - s1 * s1 / k, 0.0)

    return resampled


def _group_samplers(
    model: NormalErrors | ResamplingErrors, p_s: float
) -> tuple[Callable | None, Callable | None]:
    """A study's safe and unsafe group samplers; None for a stratum p_s leaves empty."""
    return (_group_sampler(model, True) if p_s > 0.0 else None,
            _group_sampler(model, False) if p_s < 1.0 else None)


def _deviation(squares: np.ndarray, k: np.ndarray) -> np.ndarray:
    """n-1 standard deviation from a sum of squares; NaN under two values."""
    return np.where(k > 1, np.sqrt(squares / np.maximum(k - 1, 1)), np.nan)


def _sufficient_stats(
    samplers: tuple[Callable | None, Callable | None],
    partition: PartitionParams,
    n: int,
    shift: float,
    seed: int,
    point_index: int,
    trials: int,
    classic: bool = False,
) -> np.ndarray:
    """Stratum statistics of every trial of one grid point, in `verdict_chain` order.

    Each trial draws its safe count and then, from their exact
    distributions, the mean and sum of squares of three groups in a fixed
    order: the counted safe records, the unsafe stratum and, for the
    classic test only, the uncounted rest of the safe stratum. The classic
    test pools the groups into its one stratum, which it carries as the
    unsafe one, so at full quota it sees exactly the values the
    partitioned test sees, trial by trial. Empty groups draw nothing.
    `samplers` are the study's `_group_samplers`.
    """
    draw_s, draw_u = samplers
    p_s, q = partition.p_s, partition.q
    counted_of = {0: 0}  # counted_count by safe count, which repeats across trials
    point = _point_rng(seed, point_index)
    rows = array("d")
    for trial in range(trials):
        rng = _trial_rng(point, trial)
        n_s = _safe_count(rng, n, p_s)
        m = counted_of.get(n_s)
        if m is None:
            m = counted_of[n_s] = counted_count(q, n_s)
        n_u, rest = n - n_s, n_s - m
        counted = draw_s(rng, m) if m else (0.0, 0.0)
        unsafe = draw_u(rng, n_u) if n_u else (0.0, 0.0)
        uncounted = draw_s(rng, rest) if classic and rest else (0.0, 0.0)
        rows.extend((n_s, m, n_u, rest, *counted, *unsafe, *uncounted))
    n_s, m, n_u, rest, mean_c, squares_c, mean_u, squares_u, mean_r, squares_r = (
        np.frombuffer(rows).reshape(trials, 10).T
    )
    mean_c = np.where(m > 0, mean_c + shift, 0.0)
    mean_u = np.where(n_u > 0, mean_u + shift, 0.0)
    if not classic:
        q_eff = np.where(n_s > 0, m / np.maximum(n_s, 1), 1.0)
        return np.array([n_s, n_u, q_eff, mean_c, mean_u,
                         _deviation(squares_c, m), _deviation(squares_u, n_u)])
    mean_r = np.where(rest > 0, mean_r + shift, 0.0)
    mean = (m * mean_c + rest * mean_r + n_u * mean_u) / n
    squares = squares_c + squares_r + squares_u + (
        m * (mean_c - mean) ** 2 + rest * (mean_r - mean) ** 2 + n_u * (mean_u - mean) ** 2
    )
    zeros = np.zeros(trials)
    return np.array([zeros, np.full(trials, n), np.ones(trials), zeros, mean,
                     np.full(trials, np.nan), np.sqrt(squares / (n - 1))])


# --- record-level engine ------------------------------------------------------


def _draw_strata(
    rng: np.random.Generator,
    n: int,
    p_s: float,
    model: NormalErrors | ResamplingErrors,
    shift: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one trial's safe and unsafe relative differences.

    The safe count is one binomial draw (the sum of the per-record
    membership indicators); values are iid within a stratum, so only the
    counts matter for everything downstream.
    """
    n_s = _safe_count(rng, n, p_s)
    n_u = n - n_s
    if isinstance(model, NormalErrors):
        d_s = rng.normal(model.mu_s + shift, model.nu_s, n_s)
        d_u = rng.normal(model.mu_u + shift, model.nu_u, n_u)
    else:
        pool_s = np.asarray(model.pool_s, dtype=float)
        pool_u = np.asarray(model.pool_u, dtype=float)
        d_s = (rng.choice(pool_s, n_s, replace=True) + shift) if n_s else np.empty(0)
        d_u = (rng.choice(pool_u, n_u, replace=True) + shift) if n_u else np.empty(0)
    return d_s, d_u


def _stratum_moments(d: np.ndarray, spread: bool) -> tuple[float, float]:
    """Mean (0.0 when empty) and n-1 deviation (NaN when undefined or skipped)."""
    mean = float(d.mean()) if d.size else 0.0
    std = float(d.std(ddof=1)) if spread and d.size >= 2 else math.nan
    return mean, std


def _partitioned_stats(
    d_s: np.ndarray, d_u: np.ndarray, q0: float, rng: np.random.Generator, spread: bool = True
) -> tuple[float, ...]:
    """Reduce one trial to (n_s, n_u, q_effective, d_bar_s, d_bar_u, nu_hat_s, nu_hat_u).

    The counted subset of the safe stratum comes from the real sampler;
    `spread=False` skips the deviations, which the point estimate does
    not need.
    """
    n_s = d_s.size
    if n_s:
        d_s = d_s[_sample_mask(n_s, q0, rng)]
    q_eff = d_s.size / n_s if n_s else 1.0
    mean_s, std_s = _stratum_moments(d_s, spread)
    mean_u, std_u = _stratum_moments(d_u, spread)
    return n_s, d_u.size, q_eff, mean_s, mean_u, std_s, std_u


def _trial_stats(
    model: NormalErrors | ResamplingErrors,
    partition: PartitionParams,
    n: int,
    shift: float,
    seed: int,
    point_index: int,
    trials: int,
    classic: bool = False,
    spread: bool = True,
) -> np.ndarray:
    """`_sufficient_stats` computed record by record, one stream per trial.

    Draws every record and takes the counted subset from the real sampler:
    the engine of `bias_estimates` and the reference the sufficient-statistic
    engine is tested against.
    """
    point = _point_rng(seed, point_index)
    rows = []
    for trial in range(trials):
        rng = _trial_rng(point, trial)
        d_s, d_u = _draw_strata(rng, n, partition.p_s, model, shift)
        if classic:
            d_s, d_u = d_s[:0], np.concatenate([d_s, d_u])
        rows.append(_partitioned_stats(d_s, d_u, partition.q, rng, spread))
    return np.array(rows, dtype=float).reshape(trials, 7).T


def _grid(
    config: SimConfig, base_mean: float
) -> tuple[tuple[float, ...], list[tuple[int, int, float]]]:
    sweep = config.bias_sweep if config.bias_sweep is not None else (base_mean,)
    points = []
    index = 0
    for n in config.n_values:
        for mu in sweep:
            points.append((index, n, mu))
            index += 1
    return sweep, points


def _analytic_for(config: SimConfig, n: int, mu: float) -> float | None:
    if config.test != TEST_CLASSIC or not isinstance(config.error_model, NormalErrors):
        return None
    model = config.error_model
    p_s = config.partition.p_s
    p_u = 1.0 - p_s
    nu2 = (
        p_s * model.nu_s**2
        + p_u * model.nu_u**2
        + p_s * p_u * (model.mu_s - model.mu_u) ** 2
    )
    if nu2 <= 0.0:
        return None
    return analytic_success(mu, math.sqrt(nu2), n, config.params.alpha, config.params.delta)


def run_simulation(config: SimConfig) -> list[SuccessCurve]:
    """Estimate pass probability over the configured (n, bias) grid.

    Returns one curve per grid slice: over n when the bias sweep is a
    single point, otherwise one curve over the bias sweep per sample size.
    Deterministic given the config, including its seed.
    """
    partition, trials = config.partition, config.trials
    base_mean = config.error_model.overall_mean(partition.p_s)
    sweep, points = _grid(config, base_mean)
    samplers = _group_samplers(config.error_model, partition.p_s)
    stats = np.concatenate([
        _sufficient_stats(samplers, partition, n, mu - base_mean, config.seed, index, trials,
                          classic=config.test == TEST_CLASSIC)
        for index, n, mu in points
    ], axis=1)
    passed = verdict_chain(*stats, config.params).passed.reshape(len(points), trials)
    results: dict[tuple[int, float], CurvePoint] = {}
    for (_, n, mu), count in zip(points, np.count_nonzero(passed, axis=1).tolist()):
        rate = count / trials
        results[(n, mu)] = CurvePoint(
            grid_value=float(mu),
            pass_rate=rate,
            mc_se=_mc_se(rate, trials),
            analytic=_analytic_for(config, n, mu),
        )

    context = {
        "alpha": config.params.alpha,
        "delta": config.params.delta,
        "nu_min": config.params.nu_min,
        "p_s": config.partition.p_s,
        "q": config.partition.q,
    }
    curves: list[SuccessCurve] = []
    if len(sweep) == 1:
        mu = sweep[0]
        pts = tuple(
            CurvePoint(float(n), results[(n, mu)].pass_rate, results[(n, mu)].mc_se,
                       results[(n, mu)].analytic)
            for n in config.n_values
        )
        curves.append(
            SuccessCurve(grid_var="n", points=pts, test=config.test, trials=config.trials,
                         seed=config.seed, fixed={"mu": float(mu), **context})
        )
    else:
        for n in config.n_values:
            pts = tuple(results[(n, mu)] for mu in sweep)
            curves.append(
                SuccessCurve(grid_var="mu", points=pts, test=config.test, trials=config.trials,
                             seed=config.seed, fixed={"n": float(n), **context})
            )
    return curves


def user_risk_audit(config: SimConfig) -> tuple[AuditPoint, ...]:
    """Worst-case pass probability per sample size over a null-region sweep.

    The bias sweep must stay in the null region (|mu| >= delta): the
    returned rates are the realized user risk, which the test promises to
    keep at or below alpha/2.
    """
    if config.bias_sweep is None:
        raise ValueError("user risk audit needs an explicit bias sweep")
    off = [mu for mu in config.bias_sweep if abs(mu) < config.params.delta]
    if off:
        raise ValueError(f"bias sweep values inside the equivalence margin: {off}")
    curves = run_simulation(config)
    audit: list[AuditPoint] = []
    if len(config.bias_sweep) == 1:
        (curve,) = curves
        for point in curve.points:
            audit.append(
                AuditPoint(int(point.grid_value), point.pass_rate, point.mc_se,
                           config.bias_sweep[0])
            )
    else:
        for n, curve in zip(config.n_values, curves):
            worst = max(curve.points, key=lambda p: p.pass_rate)
            audit.append(AuditPoint(n, worst.pass_rate, worst.mc_se, worst.grid_value))
    return tuple(audit)


def bias_estimates(
    model: NormalErrors | ResamplingErrors,
    partition: PartitionParams,
    n: int,
    trials: int,
    seed: int = 0,
) -> np.ndarray:
    """Per-trial partitioned bias estimates, for moment studies.

    Runs record-level trials through the real sampler and takes the point
    estimate of the verdict chain, evaluated once over all trials. The
    per-stratum standard deviations are skipped: the estimate only needs
    counts and means, and the chain's floor stands in for them.
    """
    stats = _trial_stats(model, partition, n, 0.0, seed, 0, trials, spread=False)
    return verdict_chain(*stats, TestParams()).d_hat
