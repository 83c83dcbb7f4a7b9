import hashlib
import itertools
import math
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest

from test_acceptance import MOMENT_SETTINGS
from apcval import simulate
from apcval.classify import _sample_mask
from apcval.cli import main
from apcval.domain import PartitionParams, TestParams
from apcval.estimator import verdict_chain
from apcval.normal import norm_ppf
from apcval.planner import counted_count
from apcval.simulate import (
    NormalErrors,
    ResamplingErrors,
    SimConfig,
    TEST_CLASSIC,
    TEST_PARTITIONED,
    _group_samplers,
    _point_rng,
    _sufficient_stats,
    _trial_rng,
    analytic_success,
    bias_estimates,
    planning_normal_model,
    run_simulation,
    user_risk_audit,
)

PARAMS = TestParams(nu=0.15)
SINGLE_STRATUM = PartitionParams(p_s=1.0, nu_s_ratio=1.0, q=1.0)
CRITERION_8_POOL = (-0.009,) * 511 + (9.719,)


def _sufficient(model, partition, *args, **kwargs):
    """`_sufficient_stats` with the study's samplers: the record-level oracle's signature."""
    return _sufficient_stats(_group_samplers(model, partition.p_s), partition, *args, **kwargs)


# --- record-level oracle ------------------------------------------------------
# The sufficient-statistic engine computed record by record. It reaches the
# streams and the draw through the `simulate` module, so a test that
# monkeypatches `simulate._trial_rng` reorders the oracle's trials too.


def _stratum_moments(d: np.ndarray) -> tuple[float, float]:
    """Mean (0.0 when empty) and n-1 deviation (NaN under two values)."""
    mean = float(d.mean()) if d.size else 0.0
    std = float(d.std(ddof=1)) if d.size >= 2 else math.nan
    return mean, std


def _partitioned_stats(d_s: np.ndarray, d_u: np.ndarray, q0: float,
                       rng: np.random.Generator) -> tuple[float, ...]:
    """Reduce one trial to (n_s, n_u, q_effective, d_bar_s, d_bar_u, nu_hat_s, nu_hat_u).

    The counted subset of the safe stratum comes from the real sampler.
    """
    n_s = d_s.size
    if n_s:
        d_s = d_s[_sample_mask(n_s, q0, rng)]
    q_eff = d_s.size / n_s if n_s else 1.0
    mean_s, std_s = _stratum_moments(d_s)
    mean_u, std_u = _stratum_moments(d_u)
    return n_s, d_u.size, q_eff, mean_s, mean_u, std_s, std_u


def _trial_stats(model, partition, n, shift, seed, point_index, trials, classic=False):
    """`_sufficient_stats` computed record by record, one stream per trial of `trials`.

    Each trial draws every record with `simulate._draw_strata`, adds the
    bias shift to every value and takes the counted subset from the real
    sampler; the classic test carries the whole trial in its unsafe stratum.
    """
    point = simulate._point_rng(seed, point_index)
    rows = []
    for trial in trials:
        rng = simulate._trial_rng(point, trial)
        d_s, d_u = simulate._draw_strata(rng, n, partition.p_s, model)
        d_s, d_u = d_s + shift, d_u + shift
        if classic:
            d_s, d_u = d_s[:0], np.concatenate([d_s, d_u])
        rows.append(_partitioned_stats(d_s, d_u, partition.q, rng))
    return np.array(rows, dtype=float).reshape(len(trials), 7).T


class TestAnalyticSuccess:
    def test_zero_regime(self):
        # delta*sqrt(n)/nu = 1.333 < 1.960: no interval can fit the margin
        assert analytic_success(0.0, 0.075, 100, 0.05, 0.01) == 0.0

    def test_power_at_planned_size(self):
        # at the planned sample size the power is 1 - beta by construction
        assert analytic_success(0.0, 0.15, 3458, 0.05, 0.01) == pytest.approx(0.95, abs=5e-4)

    def test_null_boundary_tends_to_half_alpha(self):
        assert analytic_success(0.01, 0.03, 200_000, 0.05, 0.01) == pytest.approx(
            0.025, abs=1e-4
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            analytic_success(0.0, 0.0, 100, 0.05, 0.01)
        with pytest.raises(ValueError):
            analytic_success(0.0, 0.1, 0, 0.05, 0.01)


class TestPlanningNormalModel:
    def test_composite_deviation_is_nu(self):
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.175)
        model = planning_normal_model(0.15, part)
        composite = math.sqrt(0.9 * model.nu_s**2 + 0.1 * model.nu_u**2)
        assert composite == pytest.approx(0.15, rel=1e-12)
        assert model.nu_s == pytest.approx(0.0525)

    def test_single_stratum(self):
        model = planning_normal_model(0.2, SINGLE_STRATUM)
        assert model.nu_s == pytest.approx(0.2)

    def test_a_safe_deviation_above_the_composite_is_refused(self):
        # 0.9 * (1.1 * nu)^2 > nu^2 leaves the unsafe stratum a negative variance
        with pytest.raises(ValueError, match="^nu_s_ratio too large: composite variance exceeded$"):
            planning_normal_model(0.15, PartitionParams(p_s=0.9, nu_s_ratio=1.1, q=0.5))

    def test_a_safe_deviation_whose_square_overflows_is_refused(self):
        # nu_s * nu_s is inf, so the unsafe stratum's variance is -inf
        with pytest.raises(ValueError, match="^nu_s_ratio too large: composite variance exceeded$"):
            planning_normal_model(0.15, PartitionParams(p_s=0.9, nu_s_ratio=1e160, q=0.5))


class TestSimConfigValidation:
    def test_bad_trials_and_sizes(self):
        with pytest.raises(ValueError):
            SimConfig(NormalErrors(), PARAMS, SINGLE_STRATUM, n_values=(100,), trials=0)
        with pytest.raises(ValueError):
            SimConfig(NormalErrors(), PARAMS, SINGLE_STRATUM, n_values=(1,))

    def test_resampling_pools_must_cover_strata(self):
        with pytest.raises(ValueError, match="safe pool"):
            SimConfig(ResamplingErrors(pool_u=(0.0,)), PARAMS, SINGLE_STRATUM, n_values=(10,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["mu_s", "nu_s", "mu_u", "nu_u"])
    def test_normal_model_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            NormalErrors(**{name: value})

    @pytest.mark.parametrize("name", ["nu_s", "nu_u"])
    def test_normal_model_deviations_must_not_be_negative(self, name):
        with pytest.raises(ValueError, match="^standard deviations must be >= 0$"):
            NormalErrors(**{name: -0.1})

    def test_unknown_test_is_refused(self):
        with pytest.raises(ValueError, match="^unknown test 'x'$"):
            SimConfig(NormalErrors(), PARAMS, SINGLE_STRATUM, n_values=(100,), test="x")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["pool_s", "pool_u"])
    def test_resampling_pools_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} values must be finite"):
            ResamplingErrors(**{"pool_s": (0.01, 0.02), "pool_u": (0.01, 0.02),
                                name: (0.01, value, 0.02)})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [run_simulation, user_risk_audit])
    def test_bias_sweep_must_be_finite(self, entry, value):
        with pytest.raises(ValueError, match="^bias_sweep values must be finite"):
            entry(SimConfig(NormalErrors(nu_s=0.15, nu_u=0.15), PARAMS, SINGLE_STRATUM,
                            n_values=(50,), bias_sweep=(value, 0.05), trials=20))

    @pytest.mark.parametrize("sweep", [(), []])
    @pytest.mark.parametrize("entry", [run_simulation, user_risk_audit])
    def test_bias_sweep_must_not_be_empty(self, entry, sweep):
        with pytest.raises(ValueError, match="^bias_sweep must hold at least one value"):
            entry(SimConfig(NormalErrors(nu_s=0.15, nu_u=0.15), PARAMS, SINGLE_STRATUM,
                            n_values=(50,), bias_sweep=sweep, trials=20))

    @pytest.mark.parametrize("entry", [run_simulation, user_risk_audit])
    def test_n_values_must_not_be_empty(self, entry):
        with pytest.raises(ValueError, match="^n_values must hold at least one sample size$"):
            entry(SimConfig(NormalErrors(nu_s=0.15, nu_u=0.15), PARAMS, SINGLE_STRATUM,
                            n_values=(), trials=20))

    @pytest.mark.parametrize("n_values", [(1,), (50, 1), (0,)])
    def test_n_values_must_be_at_least_two(self, n_values):
        with pytest.raises(ValueError, match="^every simulated sample size must be >= 2$"):
            SimConfig(NormalErrors(nu_s=0.15, nu_u=0.15), PARAMS, SINGLE_STRATUM,
                      n_values=n_values, trials=20)


class TestRunSimulation:
    def test_single_trial_rate_is_binary(self):
        config = SimConfig(
            NormalErrors(nu_s=0.15, nu_u=0.15),
            PARAMS,
            SINGLE_STRATUM,
            n_values=(100,),
            trials=1,
        )
        (curve,) = run_simulation(config)
        assert curve.points[0].pass_rate in (0.0, 1.0)

    def test_deterministic_given_seed(self):
        config = SimConfig(
            NormalErrors(nu_s=0.15, nu_u=0.15),
            PARAMS,
            SINGLE_STRATUM,
            n_values=(200, 400),
            bias_sweep=(0.0, 0.01),
            trials=50,
            seed=123,
        )
        assert run_simulation(config) == run_simulation(config)

    def test_a_model_without_spread_has_no_analytic_curve(self):
        # the analytic curve needs a positive composite variance
        config = SimConfig(NormalErrors(nu_s=0.0, nu_u=0.0), PARAMS,
                           PartitionParams(p_s=0.9, nu_s_ratio=0.5, q=0.5),
                           n_values=(20, 50), trials=20, seed=2)
        (curve,) = run_simulation(config)
        assert [p.analytic for p in curve.points] == [None, None]

    def test_classic_matches_analytic_small_grid(self):
        config = SimConfig(
            NormalErrors(nu_s=0.15, nu_u=0.15),
            PARAMS,
            SINGLE_STRATUM,
            n_values=(1500, 2500, 3458),
            trials=2000,
            seed=7,
        )
        (curve,) = run_simulation(config)
        assert curve.grid_var == "n"
        for point in curve.points:
            se = max(point.mc_se, 1e-3)
            assert point.pass_rate == pytest.approx(point.analytic, abs=4 * se)

    def test_curves_layout_two_dimensional_grid(self):
        config = SimConfig(
            NormalErrors(nu_s=0.15, nu_u=0.15),
            PARAMS,
            SINGLE_STRATUM,
            n_values=(100, 200),
            bias_sweep=(0.0, 0.02),
            trials=20,
        )
        curves = run_simulation(config)
        assert len(curves) == 2
        assert all(c.grid_var == "mu" for c in curves)
        assert [dict(c.fixed)["n"] for c in curves] == [100.0, 200.0]

    @pytest.mark.parametrize("p_s,pool", [(1.0, "pool_s"), (0.0, "pool_u")])
    def test_one_stratum_study_warns_nothing(self, p_s, pool, capsys):
        # the pool of the stratum that p_s leaves empty is empty, and no sampler is built for it
        model = ResamplingErrors(**{pool: (0.01, 0.02)})
        part = PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=0.5)
        cli = ["simulate", "--n-grid", "2,50", "--trials", "30", "--set", f"p_s={p_s}",
               f"--{pool.replace('_', '-')}", "0.01,0.02"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for test in (TEST_CLASSIC, TEST_PARTITIONED):
                config = SimConfig(model, PARAMS, part, n_values=(2, 50),
                                   bias_sweep=(-0.02, 0.03), trials=30, test=test)
                run_simulation(config)
                user_risk_audit(config)
                for extra in ([], ["--bias-grid", "-0.02,0.03", "--audit"]):
                    assert main([*cli, "--test", test, *extra]) == 0
                    assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("n_values,sweep", [
        ((2, 50), (0.06,)),
        ((2, 50), (-0.05, 0.05, 0.07)),
        ((2, 50, 2), (0.05, -0.05, 0.05)),  # a repeated n and a repeated bias
    ], ids=["sweep0", "sweep1", "repeated"])
    @pytest.mark.parametrize("model_name", ["normal", "many_value_pools"])
    @pytest.mark.parametrize("test", [TEST_CLASSIC, TEST_PARTITIONED])
    def test_each_point_rate_is_its_own_verdict_chain(self, test, model_name, n_values, sweep):
        # a study evaluates all its grid points in one chain; each point's
        # rate must still be that of its own trials (grid points run n-major)
        model = ENGINE_MODELS[model_name]
        part = PartitionParams(p_s=0.7, nu_s_ratio=0.5, q=0.4)
        params = TestParams(alpha=0.5, delta=0.05, nu=0.1, nu_min=0.0)
        config = SimConfig(model, params, part, n_values=n_values, bias_sweep=sweep,
                           trials=200, test=test, seed=11)
        samplers = _group_samplers(model, part.p_s)
        base = model.overall_mean(part.p_s)
        rates = []  # one row per n, one column per bias
        for i, n in enumerate(n_values):
            rates.append([])
            for j, mu in enumerate(sweep):
                stats = _sufficient_stats(samplers, part, n, mu - base, config.seed,
                                          i * len(sweep) + j, range(config.trials),
                                          classic=test == TEST_CLASSIC)
                passed = verdict_chain(*stats, params).passed
                rates[i].append(np.count_nonzero(passed) / config.trials)
        assert len({rate for row in rates for rate in row}) > 1
        curves = run_simulation(config)
        if len(sweep) == 1:
            assert [[p.pass_rate] for p in curves[0].points] == rates
            assert [p.grid_value for p in curves[0].points] == list(n_values)
        else:
            assert [[p.pass_rate for p in c.points] for c in curves] == rates
            assert [c.fixed["n"] for c in curves] == list(n_values)
            assert all([p.grid_value for p in c.points] == list(sweep) for c in curves)
        assert [point.pass_rate for point in user_risk_audit(config)] == [max(r) for r in rates]

    @pytest.mark.parametrize("test", [TEST_CLASSIC, TEST_PARTITIONED])
    def test_chained_in_chunks_of_rows_gives_the_one_chain_table(self, test, monkeypatch):
        model = ENGINE_MODELS["many_value_pools"]
        part = PartitionParams(p_s=0.7, nu_s_ratio=0.5, q=0.4)
        params = TestParams(alpha=0.5, delta=0.05, nu=0.1, nu_min=0.0)
        config = SimConfig(model, params, part, n_values=(2, 50, 9, 50, 30),
                           bias_sweep=(-0.05, 0.05, 0.07), trials=40, test=test, seed=11)
        chained = []  # trials per verdict_chain call
        verdicts = simulate.verdict_chain
        monkeypatch.setattr(simulate, "verdict_chain",
                            lambda *stats: chained.append(stats[0].size) or verdicts(*stats))
        sweep, one_chain = simulate._pass_rates(config)
        assert chained == [600] and len({rate for row in one_chain for rate in row}) > 1
        for limit, calls in ((240, [240, 240, 120]), (239, [200] * 3), (25, [25, 15] * 15),
                             (1, [1] * 600)):
            chained.clear()
            monkeypatch.setattr(simulate, "_CHAIN_TRIALS", limit)
            assert simulate._pass_rates(config) == (sweep, one_chain)
            assert chained == calls

    @pytest.mark.parametrize("test", [TEST_CLASSIC, TEST_PARTITIONED])
    def test_an_overflowing_study_raises(self, test):
        # the squares of an extreme pool overflow: an error, not a warning and a rate
        model = ResamplingErrors(pool_s=(1e300, -1e300), pool_u=(1e300,))
        config = SimConfig(model, PARAMS, PartitionParams(), n_values=(50,), trials=5, test=test)
        with pytest.raises(FloatingPointError, match="^overflow encountered in multiply$"):
            run_simulation(config)

    def test_partitioned_full_quota_equals_classic_when_failing_is_structural(self):
        # at n=80 the clamped halfwidth exceeds the margin: both tests fail
        # every trial, whatever the draws
        part = PartitionParams(p_s=0.7, nu_s_ratio=0.5, q=1.0)
        model = NormalErrors(nu_s=0.08, nu_u=0.12)
        for test in (TEST_CLASSIC, TEST_PARTITIONED):
            config = SimConfig(model, PARAMS, part, n_values=(80,), trials=300, test=test, seed=3)
            (curve,) = run_simulation(config)
            assert curve.points[0].pass_rate == 0.0

    def test_partitioned_full_quota_matches_classic_trial_by_trial(self, monkeypatch):
        """At full quota the classic test pools the partitioned draws, trial by trial.

        Write nu_s, nu_u for a trial's stratum deviations, g = d_bar_s - d_bar_u
        and B = n_s n_u g^2 / n. The classic stratum is the union of the two
        partitioned ones, so both tests share d_hat, and with no deviation
        at the nu_min floor their pooled variances are

            V_c = ((n_s - 1) nu_s^2 + (n_u - 1) nu_u^2 + B) / (n - 1),
            V_p = (n_s nu_s^2 + n_u nu_u^2 + B) / n.

        Subtracting, V_c - V_p = (B - n_u nu_s^2 - n_s nu_u^2) / (n (n - 1)),
        a difference of two non-negative terms, so

            |nu_c - nu_p| = |V_c - V_p| / (nu_c + nu_p) <= G / (nu_c + nu_p),
            G = max(B, n_u nu_s^2 + n_s nu_u^2) / (n (n - 1)),

        and G <= max(g^2 / 4, nu_s^2, nu_u^2) / (n - 1) is O(1/n). The two
        verdicts can then differ only on a trial whose margin delta - |d_hat|
        lies between the half-widths z nu_c / sqrt(n) and z nu_p / sqrt(n),
        about one trial in 4000-8000 here; on every other trial they agree.
        """
        part = PartitionParams(p_s=0.7, nu_s_ratio=1.0, q=1.0)
        model = NormalErrors(nu_s=0.10, nu_u=0.10)
        params = TestParams(nu=0.10)
        n, trials, seed = 1200, 400, 2024
        captured = []

        def capture(*args):
            captured.append(np.array(args[:7]))
            return verdict_chain(*args)

        monkeypatch.setattr(simulate, "verdict_chain", capture)
        config = SimConfig(model, params, part, n_values=(n,), trials=trials, seed=seed)
        run_simulation(config)
        run_simulation(replace(config, test=TEST_PARTITIONED))
        engines = {"run_simulation": captured}
        for engine in (_trial_stats, _sufficient):
            engines[engine.__name__] = [
                engine(model, part, n, 0.0, seed, 0, range(trials), classic=classic)
                for classic in (True, False)
            ]
        for name, (classic, partitioned) in engines.items():
            c, p = verdict_chain(*classic, params), verdict_chain(*partitioned, params)
            assert not (c.clamped_u.any() or p.clamped_s.any() or p.clamped_u.any()), name
            n_s, n_u, _, d_bar_s, d_bar_u, nu_s, nu_u = partitioned
            between = n_s * n_u / n * (d_bar_s - d_bar_u) ** 2
            np.testing.assert_allclose(c.d_hat, p.d_hat, rtol=0, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(
                c.nu_hat**2, ((n_s - 1) * nu_s**2 + (n_u - 1) * nu_u**2 + between) / (n - 1),
                rtol=1e-12, err_msg=name,
            )
            np.testing.assert_allclose(
                p.nu_hat**2, (n_s * nu_s**2 + n_u * nu_u**2 + between) / n,
                rtol=1e-12, err_msg=name,
            )
            gap = np.maximum(between, n_u * nu_s**2 + n_s * nu_u**2) / (n * (n - 1))
            bound = (1 + 1e-9) * gap / (c.nu_hat + p.nu_hat)
            assert np.all(np.abs(c.nu_hat - p.nu_hat) <= bound), name
            z = norm_ppf(1.0 - params.alpha / 2.0)
            half_c, half_p = z * c.nu_hat / math.sqrt(n), z * p.nu_hat / math.sqrt(n)
            margin = params.delta - np.abs(p.d_hat)
            outside = (margin < np.minimum(half_c, half_p) - 1e-12) | (
                margin > np.maximum(half_c, half_p) + 1e-12
            )
            np.testing.assert_array_equal(c.passed[outside], p.passed[outside], err_msg=name)
            assert 0 < np.count_nonzero(c.passed) < trials, name  # both verdicts are exercised


ENGINE_MODELS = {
    "normal": NormalErrors(mu_s=0.004, nu_s=0.05, mu_u=-0.01, nu_u=0.12),
    "one_value_pools": ResamplingErrors(pool_s=(0.004,), pool_u=(-0.01,)),
    "criterion_8_pool": ResamplingErrors(pool_s=CRITERION_8_POOL, pool_u=CRITERION_8_POOL),
    # balanced values, where a wrong sum of squares shows at small counts
    "two_value_pools": ResamplingErrors(pool_s=(-0.05, 0.05), pool_u=(-0.1, 0.2)),
    # more distinct values than some groups have records: both draw paths run
    "many_value_pools": ResamplingErrors(
        pool_s=tuple(np.linspace(-0.06, 0.08, 60)),
        pool_u=tuple(np.linspace(-0.1, 0.2, 120)) + (0.2,) * 30,
    ),
}
ENGINE_PARAMS = TestParams(nu=0.1, delta=0.02, nu_min=0.03)


def _within_4_se(a: np.ndarray, b: np.ndarray) -> bool:
    """Means of two samples agree within 4 MC se of their difference (pooled variance)."""
    if a.size == 0 or b.size == 0:
        return a.size == b.size
    both = np.concatenate([a, b])
    spread = both.var(ddof=1) if both.size > 1 else 0.0
    se = math.sqrt(spread * (1.0 / a.size + 1.0 / b.size))
    return abs(a.mean() - b.mean()) <= 4.0 * se + 1e-12


def _engine_summary(stats: np.ndarray) -> dict[str, np.ndarray]:
    """Per-trial quantities whose means the two engines must share."""
    n_s, _, q_eff, d_bar_s, d_bar_u, nu_hat_s, nu_hat_u = stats
    summary = {
        "pass": verdict_chain(*stats, ENGINE_PARAMS).passed.astype(float),
        "n_s": n_s, "q_effective": q_eff, "d_bar_s": d_bar_s, "d_bar_u": d_bar_u,
    }
    for name, nu_hat in (("s", nu_hat_s), ("u", nu_hat_u)):
        defined = ~np.isnan(nu_hat)
        summary[f"defined_{name}"] = defined.astype(float)
        summary[f"nu_hat_{name}^2"] = nu_hat[defined] ** 2
    return summary


class TestSufficientStatisticEngine:
    @pytest.mark.parametrize("model_name", sorted(ENGINE_MODELS))
    @pytest.mark.parametrize("q", [0.05, 0.35, 1.0])
    @pytest.mark.parametrize("p_s", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 20, 200])
    def test_matches_record_level_oracle(self, n, p_s, q, model_name):
        model = ENGINE_MODELS[model_name]
        part = PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=q)
        for classic in (False, True):
            oracle = _engine_summary(_trial_stats(model, part, n, 0.003, 51, 0, range(400),
                                                  classic))
            drawn = _engine_summary(_sufficient(model, part, n, 0.003, 52, 0, range(1200),
                                                classic))
            off = [k for k in oracle if not _within_4_se(oracle[k], drawn[k])]
            assert off == [], f"classic={classic}: {off} disagree"

    @pytest.mark.parametrize("classic", [False, True])
    def test_a_trial_reproduces_in_a_longer_run(self, classic):
        # each trial draws from its own stream, so a run is a prefix of any longer
        # one, and trial t of a range of trials is trial t of the whole run
        model = ENGINE_MODELS["criterion_8_pool"]
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.5, q=0.35)
        for engine in (_sufficient, _trial_stats):
            short = engine(model, part, 50, 0.0, 8, 3, range(40), classic)
            longer = engine(model, part, 50, 0.0, 8, 3, range(97), classic)
            rest = engine(model, part, 50, 0.0, 8, 3, range(40, 97), classic)
            np.testing.assert_array_equal(short, longer[:, :40], err_msg=engine.__name__)
            np.testing.assert_array_equal(rest, longer[:, 40:], err_msg=engine.__name__)
            assert not np.array_equal(longer[:, :40], longer[:, 40:80], equal_nan=True)

    @pytest.mark.parametrize("model_name", ["normal", "criterion_8_pool", "many_value_pools"])
    def test_full_quota_classic_pools_the_partitioned_draws(self, model_name):
        # same seed, same draws: the classic stratum is the union of the
        # partitioned strata, so its mean is their weighted mean and its sum
        # of squares theirs plus the between-strata term, trial by trial
        model = ENGINE_MODELS[model_name]
        part = PartitionParams(p_s=0.7, nu_s_ratio=1.0, q=1.0)
        n, trials = 300, 2000
        classic = _sufficient(model, part, n, 0.0, 2024, 0, range(trials), classic=True)
        n_s, n_u, _, d_bar_s, d_bar_u, nu_hat_s, nu_hat_u = _sufficient(
            model, part, n, 0.0, 2024, 0, range(trials)
        )
        assert np.all(classic[0] == 0) and np.all(classic[1] == n)
        mean = (n_s * d_bar_s + n_u * d_bar_u) / n
        np.testing.assert_allclose(classic[4], mean, rtol=1e-12, atol=1e-15)
        squares = (
            (n_s - 1) * np.nan_to_num(nu_hat_s) ** 2 + (n_u - 1) * np.nan_to_num(nu_hat_u) ** 2
            + n_s * n_u / n * (d_bar_s - d_bar_u) ** 2
        )
        np.testing.assert_allclose((n - 1) * classic[6] ** 2, squares, rtol=1e-9, atol=1e-15)


def _dirtied(point) -> None:
    """Leave the point's generator mid-block with half a 64-bit word buffered."""
    rng = _trial_rng(point, 5)
    rng.integers(0, 9, 3)  # three 32-bit draws
    assert rng.bit_generator.state["has_uint32"] == 1


TRIAL_DRAWS = {
    "standard_normal": lambda rng: rng.standard_normal(5),
    "binomial": lambda rng: rng.binomial(1000, 0.3, 3),
    "chisquare": lambda rng: rng.chisquare(7.0, 3),
    "multinomial": lambda rng: rng.multinomial(20, [0.2, 0.3, 0.5]),
    "integers": lambda rng: rng.integers(0, 9, 5),
}


class TestTrialStreams:
    @pytest.mark.parametrize("trial", [0, 1, 17, 2**40])
    def test_trial_stream_is_philox_at_counter_trial(self, trial):
        # the point's key comes from (seed, point) alone; the trial is the
        # most significant counter word
        key = np.random.SeedSequence(8, spawn_key=(3,)).generate_state(2, np.uint64)
        point = _point_rng(8, 3)
        for name, draw in TRIAL_DRAWS.items():
            _dirtied(point)
            fresh = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, trial]))
            drawn = draw(_trial_rng(point, trial))
            np.testing.assert_array_equal(drawn, draw(fresh), err_msg=name)

    @pytest.mark.parametrize("trial", [1, 17, 2**40])
    def test_neighbouring_trial_streams_do_not_overlap(self, trial):
        point = _point_rng(8, 3)
        first = _trial_rng(point, trial).bit_generator.random_raw(4)
        previous = _trial_rng(point, trial - 1).bit_generator.random_raw(8)
        assert not np.any(np.isin(first, previous))
        # the trial in the least significant word would shift one stream into the next
        # the state holds Python ints, which np.asarray would round to float64
        key = np.array(point[1]["state"]["key"], dtype=np.uint64)
        low = np.random.Philox(key=key, counter=trial).random_raw(4)
        shifted = np.random.Philox(key=key, counter=trial - 1).random_raw(8)[4:]
        np.testing.assert_array_equal(low, shifted)

    @pytest.mark.parametrize("classic", [False, True])
    def test_trials_in_reverse_order_give_the_same_rows(self, classic, monkeypatch):
        model = ENGINE_MODELS["criterion_8_pool"]
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.5, q=0.35)
        trials = 60
        forward = {e: e(model, part, 50, 0.0, 8, 3, range(trials), classic)
                   for e in (_sufficient, _trial_stats)}
        monkeypatch.setattr(simulate, "_trial_rng",
                            lambda point, trial: _trial_rng(point, trials - 1 - trial))
        for engine, rows in forward.items():
            reverse = engine(model, part, 50, 0.0, 8, 3, range(trials), classic)
            np.testing.assert_array_equal(reverse[:, ::-1], rows, err_msg=engine.__name__)

    def test_one_stream_per_trial_and_one_key_per_grid_point(self, monkeypatch):
        # the seed contract's streams are what the benchmark counts as rng_streams
        streams, keys = [], []
        seed_sequence = np.random.SeedSequence

        def counted_stream(point, trial):
            streams.append(trial)
            return _trial_rng(point, trial)

        def counted_key(*args, **kwargs):
            keys.append(kwargs["spawn_key"])
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(simulate, "_trial_rng", counted_stream)
        monkeypatch.setattr(np.random, "SeedSequence", counted_key)
        model = NormalErrors(nu_s=0.05, nu_u=0.1)
        part = PartitionParams(p_s=0.7, nu_s_ratio=0.5, q=0.3)
        grid = {"n_values": (20, 30), "bias_sweep": (-0.02, 0.02), "trials": 7}
        for study in (
            lambda: run_simulation(SimConfig(model, PARAMS, part, test=TEST_CLASSIC, **grid)),
            lambda: run_simulation(SimConfig(model, PARAMS, part, test=TEST_PARTITIONED, **grid)),
            lambda: user_risk_audit(SimConfig(model, PARAMS, part, **grid)),
        ):
            streams.clear()
            keys.clear()
            study()
            assert streams == list(range(7)) * 4
            assert keys == [(0,), (1,), (2,), (3,)]
        streams.clear()
        keys.clear()
        bias_estimates(model, part, n=40, trials=9, seed=2)
        assert streams == list(range(9)) and keys == [(0,)]


TWO_VALUE_POOLS = {
    "p0_near_0": (-1.0,) + (0.5,) * 999,
    "p0_near_half": (0.1,) * 49 + (0.3,) * 51,
    "p0_near_1": CRITERION_8_POOL,
}


class TestTwoValuedSampler:
    @pytest.mark.parametrize("k", [1, 2, 50, 5000])
    @pytest.mark.parametrize("pool_name", sorted(TWO_VALUE_POOLS))
    def test_counts_are_the_multinomial_counts_on_the_same_stream(self, pool_name, k):
        # numpy's multinomial over two categories is one binomial draw, so
        # the two-valued sampler reads the general path's counts off the
        # same stream; a single value is drawn as a value, as in the general path
        pool = np.asarray(TWO_VALUE_POOLS[pool_name])
        centre = float(pool.mean())
        values, counts = np.unique(pool - centre, return_counts=True)
        probs = counts / counts.sum()
        sampler, _ = _group_samplers(ResamplingErrors(pool_s=tuple(pool)), 1.0)
        point = _point_rng(5, 0)
        for trial in range(100):
            mean, squares = sampler(_trial_rng(point, trial), k)
            after = point[0].bit_generator.random_raw(4)
            rng = _trial_rng(point, trial)
            if k == 1:
                drawn = pool[rng.integers(0, pool.size, 1)] - centre
                expected = np.array([np.count_nonzero(drawn == v) for v in values])
            else:
                expected = rng.multinomial(k, probs)
            np.testing.assert_array_equal(point[0].bit_generator.random_raw(4), after)
            count = round(k * (mean - centre - values[1]) / (values[0] - values[1]))
            assert count == expected[0], f"trial {trial}"
            s1, s2 = expected @ values, expected @ values**2
            np.testing.assert_allclose(mean, centre + s1 / k, rtol=1e-12)
            # relative to the sum of squares before the mean's share is taken out
            np.testing.assert_allclose(squares, max(s2 - s1 * s1 / k, 0.0), rtol=1e-12,
                                       atol=1e-12 * k * float(values @ values))


class TestTrialEngineMatchesRecordPipeline:
    def test_classic_trial_verdict_equals_evaluate_classic(self):
        # same campaign through the array path and the record path
        from conftest import fully_counted_campaign
        from apcval.estimator import PASS, evaluate_classic

        rng = np.random.default_rng(21)
        for _ in range(20):
            records = fully_counted_campaign(rng, int(rng.integers(40, 400)))
            m_bar = float(np.mean([r.m_final for r in records]))
            d = np.array([(r.k_auto - r.m_final) / m_bar for r in records])
            report = evaluate_classic(records, PARAMS)
            # the classic trial carries its whole campaign in the unsafe stratum
            stats = _partitioned_stats(d[:0], d, 1.0, rng)
            assert verdict_chain(*stats, PARAMS).passed == (report.verdict == PASS)


class TestUserRiskAudit:
    def test_rejects_a_config_without_a_sweep(self):
        config = SimConfig(NormalErrors(nu_s=0.15, nu_u=0.15), PARAMS, SINGLE_STRATUM,
                           n_values=(100,), trials=10)
        assert config.bias_sweep is None
        with pytest.raises(ValueError, match="^user risk audit needs an explicit bias sweep$"):
            user_risk_audit(config)

    def test_rejects_sweep_inside_margin(self):
        config = SimConfig(
            NormalErrors(nu_s=0.15, nu_u=0.15),
            PARAMS,
            SINGLE_STRATUM,
            n_values=(100,),
            bias_sweep=(0.005,),
            trials=10,
        )
        with pytest.raises(ValueError, match="inside the equivalence margin"):
            user_risk_audit(config)

    def test_deep_null_never_passes(self):
        config = SimConfig(
            NormalErrors(nu_s=0.15, nu_u=0.15),
            PARAMS,
            SINGLE_STRATUM,
            n_values=(500,),
            bias_sweep=(0.05,),  # five margins out
            trials=500,
            seed=11,
        )
        (point,) = user_risk_audit(config)
        assert point.pass_rate == 0.0
        assert point.worst_mu == 0.05

    def test_worst_case_is_max_over_sweep(self):
        config = SimConfig(
            NormalErrors(nu_s=0.03, nu_u=0.03),
            TestParams(nu=0.03),
            SINGLE_STRATUM,
            n_values=(200, 400),
            bias_sweep=(-0.01, 0.01),
            trials=400,
            seed=5,
        )
        audit = user_risk_audit(config)
        assert len(audit) == 2
        for point in audit:
            assert 0.0 <= point.pass_rate <= 1.0
            assert point.worst_mu in (-0.01, 0.01)

    @pytest.mark.parametrize("sweep", [(0.05, -0.06, 0.07), (-0.06, 0.05)])
    def test_tie_goes_to_the_first_bias_in_sweep_order(self, sweep):
        # five margins out every trial fails: every rate is 0, a tie over the whole sweep
        config = SimConfig(NormalErrors(nu_s=0.15, nu_u=0.15), PARAMS, SINGLE_STRATUM,
                           n_values=(500, 800), bias_sweep=sweep, trials=50, seed=4)
        audit = user_risk_audit(config)
        assert [point.pass_rate for point in audit] == [0.0, 0.0]
        assert [point.worst_mu for point in audit] == [sweep[0], sweep[0]]


    @pytest.mark.parametrize("n_values,sweep", [((60, 90, 60), (0.05,)),
                                                ((60, 90, 60), (0.05, -0.06, 0.05))])
    def test_audit_reads_the_rates_of_run_simulation(self, monkeypatch, n_values, sweep):
        # the benchmark plants its pass-rate fault in run_simulation and
        # expects the audit workload's check to see it
        run_simulation = simulate.run_simulation
        planted = [[(7 * i + 3 * j) % 5 / 10 for j in range(len(sweep))]
                   for i in range(len(n_values))]

        def table_rates(config):
            rates = iter(rate for row in planted for rate in row)
            return [replace(curve, points=tuple(replace(p, pass_rate=next(rates))
                                                for p in curve.points))
                    for curve in run_simulation(config)]

        monkeypatch.setattr(simulate, "run_simulation", table_rates)
        config = SimConfig(NormalErrors(nu_s=0.15, nu_u=0.15), PARAMS, SINGLE_STRATUM,
                           n_values=n_values, bias_sweep=sweep, trials=10, seed=4)
        audit = user_risk_audit(config)
        assert [point.n for point in audit] == list(n_values)
        assert [point.pass_rate for point in audit] == [max(row) for row in planted]
        assert [point.worst_mu for point in audit] == [sweep[row.index(max(row))]
                                                       for row in planted]


# (model, p_s, q, n, trials, seed) -> SHA-256 of the estimates' bytes. The
# digests were taken on the record-level engine that `bias_estimates` ran
# before it got its own trial loop, so they pin its stream and draw order.
BIAS_STREAM_DIGESTS = [
    ("normal", 0.9, 0.175, 10000, 12, 3,
     "97f7f02cee11d3a022588871723d7eafeaead2ced44df24f0e7d2331381003fe"),
    ("normal", 0.0, 0.05, 1, 50, 4,
     "3c44f43055ca88cbcd5e8839222bb302bff49fc9b3b94b1f103366c934221a41"),
    ("normal", 1.0, 0.05, 2, 50, 5,
     "3fca7ac9a0b7ded30b6011aa1014e8c82415cbed26039227e0614a8303a9fc31"),
    ("one_value_pools", 0.5, 1.0, 2, 50, 6,
     "6fa79fdc683b44ed736df5fa0053a97e564f222537a9cfd9dc379d890c7a34b7"),
    ("two_value_pools", 0.5, 0.05, 40, 60, 7,
     "987a3d1f5f0fb6466a73e7263433e93814b7aa9202cf0a598a892a7f37e66bb4"),
    ("two_value_pools", 0.0, 1.0, 10000, 6, 8,
     "7eba38eb96c6d934360ae4f846f42a3f1815a789c08c00a362cfe2518a047edd"),
    ("criterion_8_pool", 0.9, 0.175, 40, 60, 9,
     "a5a87249317f36c4a4b176a3d5315c64379643fa1cac5f6a83c0066bf207a6f9"),
    ("safe_pool_only", 1.0, 0.175, 40, 60, 10,
     "335c1871960012643e1a1dd09fbe6f2b5c338a375511a045bd3474bb670d6ba7"),
    ("evenly_spaced_pools", 0.5, 0.05, 1, 60, 11,
     "36f639ad399a952b4874fc40d160a2f26494b05ccdc4ff9aea6f45f1e5cbfcd3"),
]
BIAS_MODELS = {
    **ENGINE_MODELS,
    # the unsafe pool may be empty where p_s = 1 leaves the unsafe stratum empty
    "safe_pool_only": ResamplingErrors(pool_s=ENGINE_MODELS["many_value_pools"].pool_s),
    "evenly_spaced_pools": ResamplingErrors(pool_s=tuple(np.linspace(-0.06, 0.08, 60)),
                                            pool_u=tuple(np.linspace(-0.1, 0.2, 120))),
}


class TestBiasEstimates:
    @pytest.mark.parametrize("model_name,p_s,q,n,trials,seed,digest", BIAS_STREAM_DIGESTS)
    def test_estimates_are_pinned(self, model_name, p_s, q, n, trials, seed, digest):
        part = PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=q)
        estimates = bias_estimates(BIAS_MODELS[model_name], part, n=n, trials=trials, seed=seed)
        assert estimates.shape == (trials,)
        assert hashlib.sha256(estimates.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("model_name,p_s,q,n,trials,seed",
                             [case[:-1] for case in BIAS_STREAM_DIGESTS])
    def test_estimates_are_the_oracles_point_estimates(self, model_name, p_s, q, n, trials, seed):
        # the oracle's deviations do not enter the point estimate
        model, part = BIAS_MODELS[model_name], PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=q)
        oracle = _trial_stats(model, part, n, 0.0, seed, 0, range(trials))
        assert (verdict_chain(*oracle, TestParams()).d_hat.tobytes()
                == bias_estimates(model, part, n, trials, seed).tobytes())

    @pytest.mark.parametrize("n", [0, -3])
    def test_refuses_a_sample_size_below_one(self, n):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            bias_estimates(NormalErrors(), PartitionParams(), n=n, trials=10)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_refuses_fewer_than_one_trial(self, trials):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            bias_estimates(NormalErrors(), PartitionParams(), n=10, trials=trials)

    @pytest.mark.parametrize("pools,p_s,stratum", [
        ({"pool_u": (0.01,)}, 1.0, "safe"),
        ({"pool_u": (0.01,)}, 0.5, "safe"),
        ({"pool_s": (0.01,)}, 0.5, "unsafe"),
        ({"pool_s": (0.01,)}, 0.0, "unsafe"),
        ({}, 0.5, "safe"),
    ])
    def test_refuses_a_missing_pool_as_sim_config_does(self, pools, p_s, stratum):
        model, part = ResamplingErrors(**pools), PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=0.5)
        message = f"^resampling model needs a nonempty {stratum} pool$"
        with pytest.raises(ValueError, match=message):
            SimConfig(model, PARAMS, part, n_values=(10,))
        with pytest.raises(ValueError, match=message):
            bias_estimates(model, part, n=10, trials=5)

    def test_unbiased_smoke(self):
        part = PartitionParams(p_s=0.8, nu_s_ratio=0.4, q=0.3)
        model = NormalErrors(mu_s=0.004, nu_s=0.05, mu_u=0.02, nu_u=0.2)
        estimates = bias_estimates(model, part, n=400, trials=4000, seed=9)
        target = 0.8 * 0.004 + 0.2 * 0.02
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - target) <= 4 * se

    def test_empirical_model_resamples_pool(self):
        pool = (-0.1, 0.0, 0.1)
        model = ResamplingErrors(pool_s=pool, pool_u=pool)
        part = PartitionParams(p_s=0.5, nu_s_ratio=0.5, q=1.0)
        estimates = bias_estimates(model, part, n=200, trials=500, seed=1)
        assert abs(estimates.mean()) < 0.01


# --- exact moments of `bias_estimates` ----------------------------------------


def _value_moments(model, safe: bool) -> tuple[float, float]:
    """Mean and variance of one drawn value of a stratum; a pool's variance is ddof 0."""
    if isinstance(model, NormalErrors):
        mu, nu = (model.mu_s, model.nu_s) if safe else (model.mu_u, model.nu_u)
        return mu, nu * nu
    pool = model.pool_s if safe else model.pool_u
    return (statistics.fmean(pool), statistics.pvariance(pool)) if pool else (0.0, 0.0)


def _binomial_terms(n: int, p: float) -> list[tuple[int, float]]:
    """(k, P[K = k]) of K ~ Bin(n, p), without the terms below 1e-18."""
    if p in (0.0, 1.0):
        return [(round(p * n), 1.0)]
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    terms = ((k, math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                          + k * log_p + (n - k) * log_q)) for k in range(n + 1))
    return [(k, w) for k, w in terms if w >= 1e-18]


def exact_moments(model, partition: PartitionParams, n: int) -> tuple[float, float]:
    """The exact mean and variance of `bias_estimates(model, partition, n, ...)`.

    Given the safe count n_s ~ Bin(n, p_s), the estimate is
    (n_s * d_bar_s + n_u * d_bar_u) / n, where d_bar_s averages the
    m = counted_count(q, n_s) counted safe values and d_bar_u the n_u unsafe
    ones; an empty stratum weighs 0. The conditional means and variances are
    summed over n_s by the law of total variance.
    """
    mean_s, var_s = _value_moments(model, safe=True)
    mean_u, var_u = _value_moments(model, safe=False)
    terms = []
    for n_s, weight in _binomial_terms(n, partition.p_s):
        n_u = n - n_s
        var_s_term = (n_s / n) ** 2 * var_s / counted_count(partition.q, n_s) if n_s else 0.0
        terms.append((weight, (n_s * mean_s + n_u * mean_u) / n, var_s_term + n_u * var_u / n**2))
    total = math.fsum(w for w, _, _ in terms)  # 1 up to the rounding of lgamma
    mean = math.fsum(w * m for w, m, _ in terms) / total
    return mean, math.fsum(w * (v + (m - mean) ** 2) for w, m, v in terms) / total


# (exact - closed form) / closed form of the variance at criteria 3/4's
# settings: below 0, since m = ceil(q * n_s) counts at least q * n_s records,
# and 0 at q = 1, where m = n_s
EXACT_VARIANCE_GAPS = {
    1000: (-0.0024434484, -0.0006256583, -0.0003041277, 0.0, -0.0051167449),
    10000: (-0.0002411825, -0.0000626992, -0.0000304519, 0.0, -0.0005153144),
}


@pytest.mark.parametrize("n", EXACT_VARIANCE_GAPS)
def test_exact_moments_against_the_closed_form(n):
    for setting, gap in zip(MOMENT_SETTINGS, EXACT_VARIANCE_GAPS[n], strict=True):
        p_s, mu_s, nu_s, mu_u, nu_u, q = setting
        model = NormalErrors(mu_s=mu_s, nu_s=nu_s, mu_u=mu_u, nu_u=nu_u)
        mean, var = exact_moments(model, PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=q), n)
        p_u = 1.0 - p_s
        closed_form = (p_s * nu_s**2 / q + p_u * nu_u**2 + (mu_s - mu_u) ** 2 * p_s * p_u) / n
        assert abs(mean - (p_s * mu_s + p_u * mu_u)) <= 1e-12, setting
        assert (var - closed_form) / closed_form == pytest.approx(gap, abs=1e-9), setting


@pytest.mark.parametrize("model_name,p_s,q,n,seed", [
    ("normal", 0.9, 0.175, 300, 21),
    ("normal", 0.0, 0.3, 200, 22),
    ("normal", 1.0, 0.3, 200, 23),
    ("two_value_pools", 0.5, 0.05, 40, 24),
    ("many_value_pools", 0.7, 0.2, 150, 25),
    ("safe_pool_only", 1.0, 0.175, 100, 26),
])
def test_bias_estimates_meet_the_exact_moments(model_name, p_s, q, n, seed):
    trials = 3000
    model, part = BIAS_MODELS[model_name], PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=q)
    mean, var = exact_moments(model, part, n)
    estimates = bias_estimates(model, part, n=n, trials=trials, seed=seed)
    fourth = float(np.mean((estimates - estimates.mean()) ** 4))
    assert abs(float(estimates.mean()) - mean) <= 4 * math.sqrt(var / trials)
    assert abs(float(estimates.var(ddof=1)) - var) <= 4 * math.sqrt((fourth - var**2) / trials)


@pytest.mark.parametrize("c", [0.01, -0.037, 0.0])
@pytest.mark.parametrize("p_s", [0.0, 0.9, 1.0])
def test_bias_estimates_of_a_one_value_pool_are_that_value(p_s, c):
    # exact variance 0, so every estimate is c up to the rounding of the two
    # stratum means and their weighted sum: a few ulp of c
    model, part = ResamplingErrors((c,), (c,)), PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=0.05)
    mean, var = exact_moments(model, part, 40)  # c and 0, up to rounding
    assert abs(mean - c) <= 1e-17 and var <= 1e-33
    estimates = bias_estimates(model, part, n=40, trials=3000, seed=5)
    assert float(np.max(np.abs(estimates - c))) <= 4 * math.ulp(c)


# (study, model, test, p_s, q, n_values, bias_sweep, trials, seed) -> SHA-256
# of the study's table: the curves' pass rates in order, or each audit
# point's pass rate and worst bias. Every rate lies strictly between 0 and 1,
# so the digests pin the engine's streams and draw order, not only a verdict.
STUDY_PARAMS = TestParams(alpha=0.2, delta=0.05, nu=0.1, nu_min=0.0)
STUDY_STREAM_DIGESTS = [
    ("curve", "normal", TEST_CLASSIC, 0.9, 0.175, (6, 20), None, 200, 3,
     "c0a644a7bdaa15473df64f033926d64757bd5b110028400182f8e27f8d89a860"),
    ("curve", "normal", TEST_PARTITIONED, 0.9, 0.3, (40,), (-0.03, 0.0, 0.03), 200, 4,
     "bfc16aae095985145a0a9d3a3ae154d90e80d82e6a577251b7a553d18580b510"),
    ("curve", "two_value_pools", TEST_PARTITIONED, 0.0, 0.5, (30, 80), None, 150, 5,
     "53ed7991946333735dfea170d13b7624187c1b614e95fc09e93c8a15504b5e8c"),
    ("curve", "many_value_pools", TEST_PARTITIONED, 1.0, 0.4, (50,), (-0.045, 0.04), 150, 6,
     "6083b28c86afeebf45023480e993e751661a459fc0db557d87404b8a0ff5fd23"),
    ("curve", "many_value_pools", TEST_CLASSIC, 0.5, 0.2, (25, 90), None, 150, 7,
     "9900787e4f3029f92bd34466ceef1e46d3e6171a9c3cd9fb8fff05f6766d1673"),
    ("audit", "normal", TEST_CLASSIC, 0.9, 0.175, (20, 50), (0.05, -0.05), 200, 8,
     "f843f64d6a699685a3e6707b1397b691f59816ac78f2199b69d2e6e3e3bd9eb4"),
    ("audit", "two_value_pools", TEST_PARTITIONED, 1.0, 0.5, (30, 60), (0.05, -0.05), 150, 9,
     "d5c7473c55d830aae9f39e840401f3fd6b6d1b5813436f302cb5fae1bf889833"),
    ("audit", "many_value_pools", TEST_PARTITIONED, 0.0, 0.3, (40,), (-0.06, 0.05, 0.07), 150,
     10, "6961848b0bb41d4f980d17b2c91dc7412288dfde7089936f681ab690ff9ad0d2"),
]


@pytest.mark.parametrize("study,model_name,test,p_s,q,n_values,sweep,trials,seed,digest",
                         STUDY_STREAM_DIGESTS)
def test_study_tables_are_pinned(study, model_name, test, p_s, q, n_values, sweep, trials,
                                 seed, digest):
    config = SimConfig(ENGINE_MODELS[model_name], STUDY_PARAMS,
                       PartitionParams(p_s=p_s, nu_s_ratio=0.5, q=q), n_values=n_values,
                       bias_sweep=sweep, trials=trials, test=test, seed=seed)
    if study == "curve":
        points = [p for curve in run_simulation(config) for p in curve.points]
        table = [p.pass_rate for p in points]
    else:
        points = user_risk_audit(config)
        table = [value for p in points for value in (p.pass_rate, p.worst_mu)]
    assert all(0.0 < p.pass_rate < 1.0 for p in points)
    assert hashlib.sha256(np.array(table).tobytes()).hexdigest() == digest


# User risk at mu = +delta when the classifier does its job: the strata's
# mean errors differ (the audit shifts both by one amount, to the overall
# mean +delta, and keeps the gap). The pooled variance's between-strata term is estimated
# from the same stratum means as d_hat, so the interval narrows exactly when
# d_hat falls short of the true bias. Each model: (errors, partition, the
# between-strata share of the estimator's variance).
GAP_PARAMS = TestParams(alpha=0.05, delta=0.05)
_REFERENCE_DEVIATIONS = planning_normal_model(0.15, PartitionParams())
GAP_MODELS = {
    "probe_gap": (NormalErrors(mu_s=0.0, nu_s=0.0, mu_u=0.222, nu_u=0.409),
                  PartitionParams(p_s=0.775, q=0.175), 0.19),
    "reference_gap": (NormalErrors(mu_s=0.0, nu_s=_REFERENCE_DEVIATIONS.nu_s, mu_u=0.1,
                                   nu_u=_REFERENCE_DEVIATIONS.nu_u),
                      PartitionParams(), 0.026),
    "no_gap": (NormalErrors(mu_s=0.05, nu_s=0.0, mu_u=0.05, nu_u=0.453),
               PartitionParams(p_s=0.775, q=0.175), 0.0),
}
# (model, nu_min, n) whose pass rate exceeds alpha/2 + 4 mc_se: findings
# against the nu_min guarantee, which the README states
GAP_AUDIT_FLAGGED = {("probe_gap", 0.0, 100), ("probe_gap", 0.0, 500),
                     ("probe_gap", 0.0, 2000), ("probe_gap", 0.03, 100)}
# the 18 pass rates in GAP_MODELS order, nu_min 0 then 0.03, n ascending
GAP_AUDIT_DIGEST = "c052d5be6692b1ffbd791f39a9e9dfde715493ad9050c5fd2ef4a756dc7ff49a"


def test_user_risk_audit_with_a_between_strata_gap():
    table, flagged = [], set()
    for name, (model, partition, share) in GAP_MODELS.items():
        p_s, p_u, q = partition.p_s, partition.p_u, partition.q
        between = p_s * p_u * (model.mu_u - model.mu_s) ** 2
        total = p_s * model.nu_s**2 / q + p_u * model.nu_u**2 + between
        assert between / total == pytest.approx(share, abs=0.005)
        for nu_min in (0.0, 0.03):
            config = SimConfig(model, replace(GAP_PARAMS, nu_min=nu_min), partition,
                               n_values=(100, 500, 2000), bias_sweep=(GAP_PARAMS.delta,),
                               trials=20_000, test=TEST_PARTITIONED, seed=3)
            for point in user_risk_audit(config):
                table.append(point.pass_rate)
                if point.pass_rate > GAP_PARAMS.alpha / 2 + 4 * point.mc_se:
                    flagged.add((name, nu_min, point.n))
    assert flagged == GAP_AUDIT_FLAGGED
    assert hashlib.sha256(np.array(table).tobytes()).hexdigest() == GAP_AUDIT_DIGEST
