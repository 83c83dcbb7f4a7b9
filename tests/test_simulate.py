import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from apcval import simulate
from apcval.cli import main
from apcval.domain import PartitionParams, TestParams
from apcval.estimator import verdict_chain
from apcval.normal import norm_ppf
from apcval.simulate import (
    NormalErrors,
    ResamplingErrors,
    SimConfig,
    TEST_CLASSIC,
    TEST_PARTITIONED,
    _group_samplers,
    _partitioned_stats,
    _point_rng,
    _sufficient_stats,
    _trial_rng,
    _trial_stats,
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
    """`_sufficient_stats` with the study's samplers: the record-level engine's signature."""
    return _sufficient_stats(_group_samplers(model, partition.p_s), partition, *args, **kwargs)


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


class TestSimConfigValidation:
    def test_bad_trials_and_sizes(self):
        with pytest.raises(ValueError):
            SimConfig(NormalErrors(), PARAMS, SINGLE_STRATUM, n_values=(100,), trials=0)
        with pytest.raises(ValueError):
            SimConfig(NormalErrors(), PARAMS, SINGLE_STRATUM, n_values=(1,))

    def test_resampling_pools_must_cover_strata(self):
        with pytest.raises(ValueError, match="safe pool"):
            SimConfig(ResamplingErrors(pool_u=(0.0,)), PARAMS, SINGLE_STRATUM, n_values=(10,))


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

    @pytest.mark.parametrize("sweep", [(0.06,), (-0.05, 0.05, 0.07)])
    @pytest.mark.parametrize("model_name", ["normal", "many_value_pools"])
    @pytest.mark.parametrize("test", [TEST_CLASSIC, TEST_PARTITIONED])
    def test_each_point_rate_is_its_own_verdict_chain(self, test, model_name, sweep):
        # a study evaluates all its grid points in one chain; each point's
        # rate must still be that of its own trials (grid points run n-major)
        model = ENGINE_MODELS[model_name]
        part = PartitionParams(p_s=0.7, nu_s_ratio=0.5, q=0.4)
        params = TestParams(alpha=0.5, delta=0.05, nu=0.1, nu_min=0.0)
        config = SimConfig(model, params, part, n_values=(2, 50), bias_sweep=sweep,
                           trials=200, test=test, seed=11)
        samplers = _group_samplers(model, part.p_s)
        base = model.overall_mean(part.p_s)
        rates = {}
        for index, (n, mu) in enumerate(itertools.product(config.n_values, sweep)):
            stats = _sufficient_stats(samplers, part, n, mu - base, config.seed, index,
                                      config.trials, classic=test == TEST_CLASSIC)
            rates[(n, mu)] = np.count_nonzero(verdict_chain(*stats, params).passed) / config.trials
        assert len(set(rates.values())) > 1
        curves = run_simulation(config)
        if len(sweep) == 1:
            got = {(int(p.grid_value), sweep[0]): p.pass_rate for p in curves[0].points}
        else:
            got = {(int(c.fixed["n"]), p.grid_value): p.pass_rate for c in curves for p in c.points}
        assert got == rates
        worst = [max(rates[(n, mu)] for mu in sweep) for n in config.n_values]
        assert [point.pass_rate for point in user_risk_audit(config)] == worst

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
                engine(model, part, n, 0.0, seed, 0, trials, classic=classic)
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
            oracle = _engine_summary(_trial_stats(model, part, n, 0.003, 51, 0, 400, classic))
            drawn = _engine_summary(_sufficient(model, part, n, 0.003, 52, 0, 1200, classic))
            off = [k for k in oracle if not _within_4_se(oracle[k], drawn[k])]
            assert off == [], f"classic={classic}: {off} disagree"

    @pytest.mark.parametrize("classic", [False, True])
    def test_a_trial_reproduces_in_a_longer_run(self, classic):
        # each trial draws from its own stream, so a run is a prefix of any longer one
        model = ENGINE_MODELS["criterion_8_pool"]
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.5, q=0.35)
        for engine in (_sufficient, _trial_stats):
            short = engine(model, part, 50, 0.0, 8, 3, 40, classic)
            longer = engine(model, part, 50, 0.0, 8, 3, 97, classic)
            np.testing.assert_array_equal(short, longer[:, :40], err_msg=engine.__name__)
            assert not np.array_equal(longer[:, :40], longer[:, 40:80], equal_nan=True)

    @pytest.mark.parametrize("model_name", ["normal", "criterion_8_pool", "many_value_pools"])
    def test_full_quota_classic_pools_the_partitioned_draws(self, model_name):
        # same seed, same draws: the classic stratum is the union of the
        # partitioned strata, so its mean is their weighted mean and its sum
        # of squares theirs plus the between-strata term, trial by trial
        model = ENGINE_MODELS[model_name]
        part = PartitionParams(p_s=0.7, nu_s_ratio=1.0, q=1.0)
        n, trials = 300, 2000
        classic = _sufficient(model, part, n, 0.0, 2024, 0, trials, classic=True)
        n_s, n_u, _, d_bar_s, d_bar_u, nu_hat_s, nu_hat_u = _sufficient(
            model, part, n, 0.0, 2024, 0, trials
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
        forward = {e: e(model, part, 50, 0.0, 8, 3, trials, classic)
                   for e in (_sufficient, _trial_stats)}
        monkeypatch.setattr(simulate, "_trial_rng",
                            lambda point, trial: _trial_rng(point, trials - 1 - trial))
        for engine, rows in forward.items():
            reverse = engine(model, part, 50, 0.0, 8, 3, trials, classic)
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


class TestBiasEstimates:
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
