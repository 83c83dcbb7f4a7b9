"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
use fixed seeds, so the suite is deterministic.
"""

import math

import numpy as np
import pytest

from conftest import make_record
from apcval.classify import draw_sample
from apcval.cost import SCHEME_NO_FIRST_COUNT, cost_breakdown, counting_cost
from apcval.domain import SAFE, UNSAFE, CostRates, PartitionParams, TestParams
from apcval.estimator import evaluate_classic, evaluate_partitioned
from apcval.planner import counted_count, make_plan, optimal_quota, total_cost
from apcval.simulate import (
    NormalErrors,
    ResamplingErrors,
    SimConfig,
    TEST_CLASSIC,
    TEST_PARTITIONED,
    analytic_success,
    bias_estimates,
    run_simulation,
    user_risk_audit,
)

Z975 = 1.959963984540054
ZSUM2 = (2.0 * Z975) ** 2


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion}: PASS — {message}")


def test_criterion_01_sample_size_reproduction():
    params = TestParams(alpha=0.05, beta=0.05, delta=0.01, nu=0.20)
    n_e = make_plan(params, PartitionParams()).n_e
    assert n_e == 6147
    report(1, f"plan(alpha=beta=5%, delta=1%, nu=20%) yields n_e = {n_e}")


# --- criterion 2: degeneration at full quota ---------------------------------


def _campaign_messy_fail(rng):
    # n <= 34: the clamped halfwidth z*nu_min/sqrt(n) exceeds delta, so both
    # tests fail structurally whatever the data
    n = int(rng.integers(5, 35))
    p_s = rng.uniform(0.2, 0.9)
    records = []
    for i in range(n):
        m = int(rng.poisson(2.5)) if i else int(rng.poisson(2.5)) + 1
        err = int(rng.integers(-2, 3)) if rng.random() < 0.5 else 0
        k = max(0, m + err)
        safe = rng.random() < p_s
        records.append(make_record(i, m, k, SAFE if safe else UNSAFE, sampled=True if safe else None))
    return records


def _campaign_clamped_pass(rng):
    # error-free data: all deviations floor at nu_min in both pipelines and
    # the point estimate is exactly zero
    n = int(rng.integers(50, 401))
    p_s = rng.uniform(0.2, 0.9)
    records = []
    for i in range(n):
        m = int(rng.poisson(3.0)) + 1
        safe = rng.random() < p_s
        records.append(make_record(i, m, m, SAFE if safe else UNSAFE, sampled=True if safe else None))
    return records


def _campaign_deep_fail(rng):
    # heavy errors: the halfwidth is several margins wide for both tests
    n = int(rng.integers(50, 501))
    p_s = rng.uniform(0.3, 0.8)
    records = []
    for i in range(n):
        m = int(rng.poisson(2.0)) + 1
        err = int(rng.choice([-4, -3, -2, 2, 3, 4])) if rng.random() < 0.8 else 0
        k = max(0, m + err)
        safe = rng.random() < p_s
        records.append(make_record(i, m, k, SAFE if safe else UNSAFE, sampled=True if safe else None))
    return records


def _campaign_unclamped_pass(rng):
    # large n, real deviation ~0.05 (above the floor), tiny bias: robust pass
    n = int(rng.integers(2000, 3001))
    p_s = rng.uniform(0.3, 0.9)
    errs = rng.random(n)
    records = []
    for i in range(n):
        m = int(rng.poisson(4.0)) + 1
        err = 0
        if errs[i] < 0.02:
            err = 1
        elif errs[i] < 0.04:
            err = -1
        k = max(0, m + err)
        safe = rng.random() < p_s
        records.append(make_record(i, m, k, SAFE if safe else UNSAFE, sampled=True if safe else None))
    return records


def test_criterion_02_degeneration_property():
    rng = np.random.default_rng(20260810)
    families = (
        [_campaign_messy_fail] * 300
        + [_campaign_clamped_pass] * 300
        + [_campaign_deep_fail] * 200
        + [_campaign_unclamped_pass] * 200
    )
    params = TestParams()
    verdicts = {"pass": 0, "fail": 0}
    worst_gap = 0.0
    for build in families:
        records = build(rng)
        part = evaluate_partitioned(records, params)
        classic = evaluate_classic(records, params)
        assert part.stats.q_effective == 1.0
        gap = abs(part.d_hat - classic.d_hat)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-12
        assert part.verdict == classic.verdict
        verdicts[part.verdict] += 1
    assert verdicts["pass"] >= 400 and verdicts["fail"] >= 400
    report(
        2,
        f"1000 campaigns at full quota: max |d_hat gap| = {worst_gap:.2e}, "
        f"verdicts identical ({verdicts['pass']} pass / {verdicts['fail']} fail)",
    )


# --- criteria 3 and 4: estimator moments --------------------------------------

MOMENT_SETTINGS = [
    # (p_s, mu_s, nu_s, mu_u, nu_u, q)
    (0.90, 0.000, 0.0525, 0.010, 0.20, 0.175),
    (0.90, 0.002, 0.0500, 0.020, 0.30, 0.350),
    (0.70, -0.005, 0.1000, 0.015, 0.25, 0.500),
    (0.50, 0.050, 0.0500, -0.050, 0.05, 1.000),  # between-strata term dominates
    (0.80, 0.010, 0.0800, -0.020, 0.15, 0.100),
]


def test_criterion_03_unbiasedness():
    trials = 100_000
    lines = []
    for idx, (p_s, mu_s, nu_s, mu_u, nu_u, q) in enumerate(MOMENT_SETTINGS):
        part = PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=q)
        model = NormalErrors(mu_s=mu_s, nu_s=nu_s, mu_u=mu_u, nu_u=nu_u)
        estimates = bias_estimates(model, part, n=1000, trials=trials, seed=300 + idx)
        target = p_s * mu_s + (1.0 - p_s) * mu_u
        se = float(estimates.std(ddof=1)) / math.sqrt(trials)
        deviation = abs(float(estimates.mean()) - target)
        assert deviation <= 4.0 * se, (
            f"setting {idx}: |mean - target| = {deviation:.2e} > 4*se = {4 * se:.2e}"
        )
        lines.append(f"{deviation / se:.2f} se")
    report(3, f"bias of the quota estimator over 1e5 reps: {', '.join(lines)}")


def test_criterion_04_variance_law():
    trials = 15_000
    n = 10_000
    lines = []
    heavy_checked = False
    for idx, (p_s, mu_s, nu_s, mu_u, nu_u, q) in enumerate(MOMENT_SETTINGS):
        part = PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=q)
        model = NormalErrors(mu_s=mu_s, nu_s=nu_s, mu_u=mu_u, nu_u=nu_u)
        estimates = bias_estimates(model, part, n=n, trials=trials, seed=400 + idx)
        p_u = 1.0 - p_s
        delta_term = (mu_s - mu_u) ** 2 * p_s * p_u
        closed_form = (p_s * nu_s**2 / q + p_u * nu_u**2 + delta_term) / n
        mc = float(estimates.var(ddof=1))
        rel = abs(mc - closed_form) / closed_form
        assert rel <= 0.05, f"setting {idx}: variance off by {rel:.1%}"
        share = delta_term / (closed_form * n)
        if share > 0.30:
            heavy_checked = True
        lines.append(f"{rel:.1%}")
    assert heavy_checked, "no setting exercised a dominant between-strata term"
    report(4, f"MC variance vs closed form at n=10000: rel errors {', '.join(lines)}")


def test_criterion_05_hypergeometric_sampler():
    n_s = 10_000
    draws = 400
    ids = np.arange(n_s)
    lines = []
    for q in (0.1, 0.35, 0.5):
        masks = np.empty((draws, n_s), dtype=bool)
        for r in range(draws):
            masks[r] = draw_sample(ids, q, seed=50_000 + r)
        assert masks.sum(axis=1).tolist() == [counted_count(q, n_s)] * draws
        per_id_var = (masks / q).var(axis=0, ddof=1)
        empirical = float(per_id_var.mean())
        expected = 1.0 / q - 1.0
        rel = abs(empirical - expected) / expected
        assert rel <= 0.02, f"q={q}: Var(Z/q) off by {rel:.2%}"
        lines.append(f"q={q}: {rel:.4%}")
    report(5, f"empirical Var(Z/q) vs 1/q - 1 at N_s=10000: {', '.join(lines)}")


def test_criterion_06_quota_optimality():
    rng = np.random.default_rng(606)
    grid = np.linspace(0.001, 1.0, 1000)
    step = grid[1] - grid[0]
    checked = 0
    while checked < 100:
        nu = rng.uniform(0.08, 0.3)
        p_s = rng.uniform(0.4, 0.99)
        ratio = rng.uniform(0.15, 0.8)
        c_u = rng.uniform(0.05, 3.0)
        c_s0 = rng.uniform(0.0, 0.5)
        c_sz = rng.uniform(0.05, 3.0)
        nu_s2 = (ratio * nu) ** 2
        b = (nu**2 - p_s * nu_s2) / (p_s * nu_s2)
        if b <= 0:
            continue
        part = PartitionParams(p_s=p_s, nu_s_ratio=ratio, q=0.5)
        from apcval.domain import CostParams

        costs = CostParams(c_u=c_u, c_s0=c_s0, c_sz=c_sz)
        # independent oracle: scan the analytic cost curve Cost(n(q), q)
        n_of_q = ZSUM2 * (p_s * nu_s2 * (1.0 / grid - 1.0) + nu**2) / 0.01**2
        cost_curve = n_of_q * ((1 - p_s) * c_u + p_s * (c_s0 + grid * c_sz))
        q_grid = float(grid[int(np.argmin(cost_curve))])
        q_closed = optimal_quota(part, nu, costs)
        assert abs(q_closed - q_grid) <= step + 1e-12, (
            f"closed form {q_closed:.4f} vs grid {q_grid:.4f}"
        )
        checked += 1
    report(6, f"closed-form quota matched 1000-point grid argmin for {checked} draws")


def test_criterion_07_analytic_vs_simulated_power():
    params = TestParams(nu=0.15)
    single = PartitionParams(p_s=1.0, nu_s_ratio=1.0, q=1.0)
    model = NormalErrors(nu_s=0.15, nu_u=0.15)
    trials = 10_000

    n_grid = (500, 1000, 1500, 2000, 2500, 3000, 3458, 4000, 4500, 5000, 5500, 6000)
    config_n = SimConfig(model, params, single, n_values=n_grid, trials=trials, seed=700)
    (curve_n,) = run_simulation(config_n)

    mu_grid = (0.001, 0.002, 0.004, 0.006, 0.008, 0.01, 0.0125, 0.015)
    config_mu = SimConfig(
        model, params, single, n_values=(3458,), bias_sweep=mu_grid, trials=trials, seed=701
    )
    (curve_mu,) = run_simulation(config_mu)

    points = list(curve_n.points) + list(curve_mu.points)
    assert len(points) == 20
    worst = 0.0
    for point in points:
        pa = point.analytic
        se = max(point.mc_se, math.sqrt(pa * (1 - pa) / trials), 1.0 / trials)
        pull = abs(point.pass_rate - pa) / se
        worst = max(worst, pull)
        assert pull <= 4.0, f"grid point {point.grid_value}: {pull:.1f} se off analytic"

    # zero-success regime: delta*sqrt(n)/nu = 1.33 < 1.96
    assert analytic_success(0.0, 0.075, 100, 0.05, 0.01) == 0.0
    zero_model = NormalErrors(nu_s=0.075, nu_u=0.075)
    config_zero = SimConfig(
        zero_model, params, single, n_values=(100,), trials=trials, seed=702
    )
    (curve_zero,) = run_simulation(config_zero)
    zero_rate = curve_zero.points[0].pass_rate
    assert zero_rate <= 3.0 / trials
    report(
        7,
        f"20-point power grid within 4 MC se of theory (worst {worst:.2f} se); "
        f"zero-success regime rate {zero_rate:.1e}",
    )


def test_criterion_08_user_risk_safeguard():
    # heavy mixture with mean exactly +delta. The frequent small value sits
    # inside the margin but outside every nu_min-floored acceptance
    # threshold on the n grid; the rare error is so large that a single
    # visible occurrence overshoots the margin on its own. Constant-looking
    # samples (empirical deviation 0) are then the only passing channel,
    # and that channel is exactly what the floor closes.
    pool = (-0.009,) * 511 + (9.719,)
    assert float(np.mean(pool)) == pytest.approx(0.01, abs=1e-14)
    n_grid = (50, 100, 200, 350, 500)
    sweep = (0.01, -0.01)
    trials = 10_000

    def audit(test, p_s, q, nu_min):
        partition = PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=q)
        config = SimConfig(
            error_model=ResamplingErrors(pool_s=pool, pool_u=pool),
            params=TestParams(nu=0.15, nu_min=nu_min),
            partition=partition,
            n_values=n_grid,
            bias_sweep=sweep,
            trials=trials,
            test=test,
            seed=800 if test == TEST_CLASSIC else 801,
        )
        return user_risk_audit(config)

    # with the 3% floor the user risk stays bounded for both tests
    for test, p_s, q in ((TEST_CLASSIC, 1.0, 1.0), (TEST_PARTITIONED, 0.9, 0.35)):
        points = audit(test, p_s, q, nu_min=0.03)
        worst = max(points, key=lambda p: p.pass_rate)
        assert worst.pass_rate <= 0.025 + 4.0 * max(worst.mc_se, 1.0 / trials), (
            f"{test}: worst-case pass rate {worst.pass_rate:.4f} at n={worst.n}"
        )

    # without the floor the same error model breaks the bound
    violations = []
    for test, p_s, q in ((TEST_CLASSIC, 1.0, 1.0), (TEST_PARTITIONED, 0.9, 0.35)):
        points = audit(test, p_s, q, nu_min=0.0)
        violations.append(
            max(p.pass_rate - 4.0 * max(p.mc_se, 1.0 / trials) for p in points)
        )
    assert max(violations) > 0.025, "nu_min=0 violation not detected"
    report(
        8,
        "nu_min=3% bounds worst-case pass rate at |mu|=delta by 2.5%+4se; "
        f"nu_min=0 exceeds it (worst lower bound {max(violations):.1%})",
    )


def test_criterion_09_cost_formula():
    value = counting_cost(42.15, CostRates(r_av=0.7, c_labor=20.0, r_s=1.2))
    assert value == pytest.approx(0.1639, abs=0.0005)
    assert value == pytest.approx(0.164, abs=0.001)
    report(9, f"counting_cost(42.15 s) = {value:.5f} (reported average 0.164)")


def test_criterion_10_end_to_end_cost_advantage():
    # synthetic campaign under the suggested planning values; the recorded
    # savings of the source study are dataset-bound and are replaced by this
    # demonstration plus criteria 2-8
    rng = np.random.default_rng(1010)
    records = []
    for i in range(500):
        duration = float(np.clip(rng.normal(42.0, 15.0), 5.0, 120.0))
        label = SAFE if rng.random() < 0.9 else UNSAFE
        records.append(make_record(i, 3, 3, label, duration=duration))
    costs = cost_breakdown(records, CostRates(), SCHEME_NO_FIRST_COUNT).cost_params()

    params = TestParams(nu=0.15)
    partition = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.175)
    plan = make_plan(params, partition)
    n_e, n_rec = plan.n_e, plan.n_rec
    assert (n_e, n_rec) == (3458, 5256)

    cost_classic = total_cost(n_e, 1.0, partition, costs)
    cost_partitioned = total_cost(n_rec, partition.q, partition, costs)
    assert cost_partitioned < cost_classic
    savings = 1.0 - cost_partitioned / cost_classic
    assert savings > 0.3
    report(
        10,
        f"classic {cost_classic:.0f} vs partitioned {cost_partitioned:.0f} "
        f"currency units: {savings:.0%} savings at p_s=90%, nu_s/nu=35%, q=17.5%",
    )
