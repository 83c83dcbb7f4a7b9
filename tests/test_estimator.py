import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OVERFLOWING_CAMPAIGNS, fully_counted_campaign, make_record, subsample_safe
from apcval.domain import SAFE, UNSAFE, DopRecord, PartitionStats, TestParams
from apcval.estimator import (
    FAIL,
    PASS,
    _chain_inputs,
    confidence_interval,
    equivalence_verdict,
    evaluate_classic,
    evaluate_partitioned,
    record_rows,
    verdict_chain,
)

Z975 = 1.959963984540054


def three_record_campaign() -> list[DopRecord]:
    # safe M=[2,4] with sampled=[True,False], unsafe M=[3], errors all zero
    return [
        make_record(0, 2, 2, SAFE, sampled=True),
        make_record(1, 4, 4, SAFE, sampled=False),
        make_record(2, 3, 3, UNSAFE),
    ]


class TestMeanCountEstimate:
    # the inverse-quota mean count m_hat_q in the report's stats
    def test_hand_example(self):
        # (3 + 2/0.5) / 3 = 7/3
        report = evaluate_partitioned(three_record_campaign(), TestParams())
        assert report.stats.m_hat_q == pytest.approx(7 / 3, abs=1e-15)

    def test_all_unsafe_reduces_to_plain_mean(self):
        records = [make_record(i, m, m, UNSAFE) for i, m in enumerate([1, 2, 3])]
        report = evaluate_partitioned(records, TestParams())
        assert report.stats.m_hat_q == pytest.approx(2.0, abs=1e-15)

    def test_full_quota_equals_plain_mean(self):
        records = [
            make_record(0, 2, 2, SAFE, sampled=True),
            make_record(1, 4, 4, SAFE, sampled=True),
            make_record(2, 3, 3, UNSAFE),
        ]
        report = evaluate_partitioned(records, TestParams())
        assert report.stats.m_hat_q == pytest.approx(3.0, abs=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError, match="no records to evaluate"):
            evaluate_partitioned([], TestParams())
        # no counted safe record: the quota would be 0
        none_counted = [make_record(0, 2, 2, SAFE, sampled=False), make_record(1, 3, 3, UNSAFE)]
        with pytest.raises(ValueError, match="no record was sampled"):
            evaluate_partitioned(none_counted, TestParams())
        broken = [make_record(0, 2, 2, UNSAFE)._replace(m_final=None)]
        with pytest.raises(ValueError, match="ground truth"):
            evaluate_partitioned(broken, TestParams())


def stats(
    n, n_s, n_u, q=1.0, d_s=None, d_u=None, nu_s=None, nu_u=None, m_hat=1.0
) -> PartitionStats:
    return PartitionStats(
        n=n, n_s=n_s, n_u=n_u, q_effective=q,
        d_bar_s=d_s, d_bar_u=d_u, nu_hat_s=nu_s, nu_hat_u=nu_u, m_hat_q=m_hat,
    )


def chain(s: PartitionStats, nu_min: float = 0.03):
    return verdict_chain(*_chain_inputs(s), TestParams(nu_min=nu_min))


class TestStratifiedMean:
    # the chain's d_hat recombines the two partitions by their shares
    def test_all_unsafe(self):
        assert chain(stats(3, 0, 3, d_u=-0.2)).d_hat == pytest.approx(-0.2)

    def test_weighted_recombination(self):
        s = stats(3, 2, 1, q=1.0, d_s=0.1, d_u=-0.2)
        assert chain(s).d_hat == pytest.approx(0.0, abs=1e-15)

    def test_full_quota_equals_plain_mean(self):
        d = [0.3, -0.1, 0.2, 0.4, -0.5]
        s = stats(
            5, 3, 2, q=1.0,
            d_s=float(np.mean(d[:3])), d_u=float(np.mean(d[3:])),
        )
        assert chain(s).d_hat == pytest.approx(float(np.mean(d)), abs=1e-15)


class TestPooledVariance:
    # the chain's nu_hat ** 2 and its clamped flags
    def test_hand_example(self):
        # 0.9*0.0025/0.5 + 0.1*0.09 + 0.09*0.0004 = 0.013536
        s = stats(1000, 900, 100, q=0.5, d_s=0.0, d_u=0.02, nu_s=0.05, nu_u=0.3)
        v = chain(s)
        assert v.nu_hat**2 == pytest.approx(0.013536, abs=1e-15)
        assert not v.clamped_s and not v.clamped_u

    def test_clamping_flags(self):
        s = stats(100, 50, 50, q=1.0, d_s=0.0, d_u=0.0, nu_s=0.01, nu_u=0.3)
        v = chain(s)
        assert v.clamped_s and not v.clamped_u
        assert v.nu_hat**2 == pytest.approx(0.5 * 0.03**2 + 0.5 * 0.3**2, abs=1e-15)

    def test_single_stratum_collapse(self):
        s = stats(100, 100, 0, q=0.5, d_s=0.0, nu_s=0.1)
        assert chain(s).nu_hat**2 == pytest.approx(0.1**2 / 0.5, abs=1e-15)

    def test_undefined_sigma_uses_floor(self):
        s = stats(2, 1, 1, q=1.0, d_s=0.0, d_u=0.0, nu_s=None, nu_u=None)
        v = chain(s)
        assert v.clamped_s and v.clamped_u
        assert v.nu_hat**2 == pytest.approx(0.03**2, abs=1e-18)

    @settings(max_examples=100)
    @given(
        nu_min_a=st.floats(min_value=0, max_value=0.5),
        nu_min_b=st.floats(min_value=0, max_value=0.5),
        nu_s=st.floats(min_value=0, max_value=0.5),
        nu_u=st.floats(min_value=0, max_value=0.5),
        q=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_monotone_in_nu_min(self, nu_min_a, nu_min_b, nu_s, nu_u, q):
        s = stats(10, 6, 4, q=q, d_s=0.01, d_u=-0.02, nu_s=nu_s, nu_u=nu_u)
        lo, hi = sorted([nu_min_a, nu_min_b])
        assert chain(s, lo).nu_hat**2 <= chain(s, hi).nu_hat**2 + 1e-18


def pilot_nu(s: PartitionStats) -> float:
    """The composite deviation of a pilot: the chain's pooled nu at quota 1, no floor.

    An empty stratum enters with mean 0.0 and an undefined deviation as NaN,
    which the unfloored chain counts as no spread.
    """
    zero = lambda x: 0.0 if x is None else x
    nan = lambda x: math.nan if x is None else x
    return float(verdict_chain(
        s.n_s, s.n_u, 1.0, zero(s.d_bar_s), zero(s.d_bar_u), nan(s.nu_hat_s),
        nan(s.nu_hat_u), TestParams(nu_min=0.0),
    ).nu_hat)


def pilot_stats(records: list[DopRecord]) -> PartitionStats:
    return evaluate_partitioned(records, TestParams(nu_min=0.0)).stats


class TestPilotRecipe:
    # p_s, the stratum moments and the composite nu of a counted pilot campaign
    def test_single_stratum(self):
        records = [make_record(i, 3, 3 + (i % 3) - 1, SAFE, sampled=True) for i in range(30)]
        s = pilot_stats(records)
        assert s.n_s / s.n == 1.0
        assert pilot_nu(s) == pytest.approx(s.nu_hat_s, rel=1e-15)
        assert s.d_bar_u is None

    def test_composite_identity_hand_values(self):
        # 0.9*0.05^2 + 0.1*0.3^2 + 0.09*0.02^2 = 0.011286
        s = stats(1000, 900, 100, q=1.0, d_s=0.02, d_u=0.0, nu_s=0.05, nu_u=0.3)
        assert pilot_nu(s) ** 2 == pytest.approx(0.011286, abs=1e-15)

    def test_single_counted_record_adds_no_spread(self):
        s = stats(10, 1, 9, q=1.0, d_s=0.1, d_u=0.0, nu_s=None, nu_u=0.2)
        assert pilot_nu(s) ** 2 == pytest.approx(0.9 * 0.2**2 + 0.09 * 0.1**2, abs=1e-15)

    def test_composite_matches_total_variance(self):
        # law of total variance: composite deviation vs plain deviation of all
        rng = np.random.default_rng(5)
        records = fully_counted_campaign(rng, 4000, p_s=0.7, error_rate=0.5)
        m = np.array([r.m_final for r in records], dtype=float)
        k = np.array([r.k_auto for r in records], dtype=float)
        d = (k - m) / m.mean()
        assert pilot_nu(pilot_stats(records)) == pytest.approx(float(d.std(ddof=1)), rel=0.01)

    def test_uncounted_nonempty_stratum_is_an_error(self):
        records = [
            make_record(0, 3, 3, SAFE, sampled=True),
            DopRecord(dop_id="u1", k_auto=2, label=UNSAFE),
        ]
        with pytest.raises(ValueError, match="lack ground truth: u1"):
            pilot_stats(records)

    def test_nu_s_ratio_property(self):
        # the scale-free ratio nu_s / nu against numpy on the raw differences
        rng = np.random.default_rng(6)
        records = fully_counted_campaign(rng, 500, p_s=0.6, error_rate=0.4)
        s = pilot_stats(records)
        m = np.array([r.m_final for r in records], dtype=float)
        d = (np.array([r.k_auto for r in records], dtype=float) - m) / m.mean()
        safe = np.array([r.label == SAFE for r in records])
        p_s = safe.mean()
        d_s, d_u = d[safe], d[~safe]
        nu2 = (p_s * d_s.var(ddof=1) + (1 - p_s) * d_u.var(ddof=1)
               + p_s * (1 - p_s) * (d_s.mean() - d_u.mean()) ** 2)
        assert s.n_s / s.n == p_s
        assert s.nu_hat_s / pilot_nu(s) == pytest.approx(d_s.std(ddof=1) / math.sqrt(nu2),
                                                         rel=1e-12)

    def test_quota_sampled_means_are_relative_to_m_hat_q(self):
        # the safe records board fewer passengers, so the unweighted mean
        # count of the counted records is far from the campaign's m_hat_q
        rng = np.random.default_rng(12)
        records = []
        for i in range(400):
            safe = rng.random() < 0.8
            m = max(1, int(rng.poisson(3.0 if safe else 12.0)))
            k = max(0, m + int(rng.integers(-2, 3)))
            records.append(make_record(i, m, k, SAFE if safe else UNSAFE,
                                       sampled=True if safe else None))
        records = subsample_safe(records, rng, 0.2)
        s = pilot_stats(records)
        counted_s = [r for r in records if r.label == SAFE and r.sampled]
        unsafe = [r for r in records if r.label == UNSAFE]
        m_hat = (math.fsum(r.m_final for r in unsafe)
                 + math.fsum(r.m_final for r in counted_s) * s.n_s / len(counted_s)) / s.n
        m_bar = np.mean([r.m_final for r in counted_s + unsafe])
        assert s.m_hat_q == pytest.approx(m_hat, rel=1e-12)
        assert m_bar / m_hat > 1.3
        for d_bar, nu_hat, stratum in ((s.d_bar_s, s.nu_hat_s, counted_s),
                                       (s.d_bar_u, s.nu_hat_u, unsafe)):
            d = np.array([(r.k_auto - r.m_final) / m_hat for r in stratum])
            assert d_bar == pytest.approx(d.mean(), rel=1e-12, abs=1e-15)
            assert nu_hat == pytest.approx(d.std(ddof=1), rel=1e-12)


class TestConfidenceInterval:
    def test_zero_width(self):
        assert confidence_interval(0.0, 0.0, 10, 0.05) == (0.0, 0.0)

    def test_quantile_evaluation(self):
        low, high = confidence_interval(0.0, 0.15, 3458, 0.05)
        assert high == pytest.approx(Z975 * 0.15 / math.sqrt(3458), abs=1e-12)
        assert high == pytest.approx(0.005, abs=5e-7)
        assert low == -high

    def test_offset_interval(self):
        low, high = confidence_interval(0.002, 0.2, 6147, 0.05)
        half = Z975 * 0.2 / math.sqrt(6147)
        assert low == pytest.approx(0.002 - half, abs=1e-12)
        assert high == pytest.approx(0.002 + half, abs=1e-12)
        assert half == pytest.approx(0.005, abs=5e-7)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            confidence_interval(0.0, 0.1, 0, 0.05)
        with pytest.raises(ValueError):
            confidence_interval(0.0, -0.1, 10, 0.05)


class TestVerdict:
    def test_containment(self):
        assert equivalence_verdict((-0.003, 0.007), 0.01) == PASS

    def test_upper_breach(self):
        assert equivalence_verdict((-0.003, 0.011), 0.01) == FAIL

    def test_boundary_inclusive(self):
        assert equivalence_verdict((-0.01, 0.01), 0.01) == PASS


class TestVerdictChain:
    def test_array_equals_scalar_evaluation_elementwise(self):
        # rows of (n_s, n_u, q_effective, d_bar_s, d_bar_u, nu_hat_s, nu_hat_u);
        # an empty stratum has mean 0.0, an undefined deviation is NaN
        nan = math.nan
        rows = [
            (0, 50, 1.0, 0.0, 0.002, nan, 0.1),  # empty safe stratum
            (40, 0, 0.5, 0.001, 0.0, 0.05, nan),  # empty unsafe stratum
            (1, 30, 1.0, 0.02, -0.001, nan, 0.2),  # single safe record
            (30, 1, 0.3, 0.0, 0.01, 0.1, nan),  # single unsafe record
            (100, 100, 0.2, 0.0, 0.0, 0.01, 0.2),  # safe side clamped
            (100, 100, 0.2, 0.0, 0.0, 0.2, 0.001),  # unsafe side clamped
            (1000, 1000, 1.0, 0.0, 0.0, 0.03, 0.03),  # exactly at the floor
            (5000, 500, 0.2, 0.001, -0.002, 0.02, 0.1),  # passing
        ]
        rng = np.random.default_rng(4)
        for _ in range(200):
            n_s, n_u = (int(v) for v in rng.integers(0, 3000, 2))
            n_s = max(n_s, 1 - n_u)
            rows.append((
                n_s, n_u, float(rng.uniform(0.05, 1.0)),
                float(rng.normal(0.0, 0.005)) if n_s else 0.0,
                float(rng.normal(0.0, 0.005)) if n_u else 0.0,
                float(rng.uniform(0.0, 0.1)) if n_s >= 2 else nan,
                float(rng.uniform(0.0, 0.3)) if n_u >= 2 else nan,
            ))
        params = TestParams()
        arrays = verdict_chain(*np.array(rows, dtype=float).T, params)
        for i, row in enumerate(rows):
            scalar = verdict_chain(*row, params)
            for field, value in zip(arrays._fields, arrays):
                assert value[i] == scalar._asdict()[field], (row, field)
        clamped_s, clamped_u = arrays.clamped_s, arrays.clamped_u
        assert list(clamped_s[:7]) == [False, False, True, False, True, False, False]
        assert list(clamped_u[:7]) == [False, False, False, True, False, True, False]
        assert arrays.passed[7] and not arrays.passed[0]
        assert 0 < np.count_nonzero(arrays.passed[8:]) < 200

    def test_scalars_give_python_numbers(self):
        # a live campaign's chain runs on math, so no numpy scalar reaches its report
        nan = math.nan
        for row in ((0, 50, 1.0, 0.0, 0.002, nan, 0.1), (40, 0, 0.5, 0.001, 0.0, 0.05, nan),
                    (5000, 500, 0.2, 0.001, -0.002, 0.02, 0.1)):
            verdicts = verdict_chain(*row, TestParams())
            assert [type(v) for v in verdicts] == [float] * 4 + [bool] * 3, row
        assert [type(v) for v in confidence_interval(0.0, 0.15, 3458, 0.05)] == [float, float]


class TestEvaluateClassic:
    def test_all_zero_errors(self):
        records = [make_record(i, 3, 3, UNSAFE) for i in range(100)]
        report = evaluate_classic(records, TestParams())
        assert report.d_hat == 0.0
        assert report.nu_hat == 0.03  # clamped
        assert report.clamped_u
        # halfwidth 1.96*0.03/10 = 0.00588 <= 0.01
        assert report.verdict == PASS

    def test_single_record_degenerate(self):
        report = evaluate_classic([make_record(0, 2, 2, UNSAFE)], TestParams())
        assert report.nu_hat == 0.03
        assert report.warnings

    def test_missing_ground_truth(self):
        r = DopRecord(dop_id="x", k_auto=1)
        with pytest.raises(ValueError, match="ground truth"):
            evaluate_classic([r], TestParams())

    def test_all_zero_counts_rejected(self):
        records = [make_record(i, 0, 0, UNSAFE) for i in range(5)]
        with pytest.raises(ValueError, match="no boarding passengers"):
            evaluate_classic(records, TestParams())
        # the partitioned test fails with the same text
        records.append(make_record(5, 0, 0, SAFE, sampled=True))
        with pytest.raises(ValueError, match=r"no boarding passengers \(mean count is 0\)"):
            evaluate_partitioned(records, TestParams())

    def test_labels_ignored(self):
        records = [make_record(i, 3, 3 + (i % 2), SAFE, sampled=False) for i in range(40)]
        report = evaluate_classic(records, TestParams())
        assert report.stats.n_u == 40  # whole campaign in the fully counted slot
        assert report.stats.q_effective == 1.0


class TestEvaluatePartitioned:
    def test_worked_three_record_example(self):
        report = evaluate_partitioned(three_record_campaign(), TestParams(), q_planned=0.5)
        assert report.stats.m_hat_q == pytest.approx(7 / 3, abs=1e-15)
        assert report.stats.q_effective == 0.5
        assert report.d_hat == 0.0
        # both strata have a single counted record: sigma floors at nu_min
        assert report.clamped_s and report.clamped_u
        expected_var = (2 / 3) * 0.03**2 / 0.5 + (1 / 3) * 0.03**2
        assert report.nu_hat == pytest.approx(math.sqrt(expected_var), abs=1e-15)
        half = Z975 * report.nu_hat / math.sqrt(3)
        assert report.verdict == (PASS if half <= 0.01 else FAIL)
        assert report.verdict == FAIL
        assert report.q_planned == 0.5
        assert len(report.warnings) == 2

    def test_all_unsafe_equals_classic(self):
        rng = np.random.default_rng(7)
        records = fully_counted_campaign(rng, 80, p_s=0.0)
        part = evaluate_partitioned(records, TestParams())
        classic = evaluate_classic(records, TestParams())
        assert part.d_hat == pytest.approx(classic.d_hat, abs=1e-15)
        assert part.nu_hat == pytest.approx(classic.nu_hat, abs=1e-15)
        assert part.verdict == classic.verdict

    def test_precondition_errors(self):
        records = three_record_campaign()
        with pytest.raises(ValueError, match="unlabeled"):
            evaluate_partitioned(records + [DopRecord(dop_id="u", k_auto=1)], TestParams())
        unsampled = [make_record(0, 2, 2, SAFE, sampled=None)]
        with pytest.raises(ValueError, match="sampling indicator"):
            evaluate_partitioned(unsampled, TestParams())
        none_sampled = [
            make_record(0, 2, 2, SAFE, sampled=False),
            make_record(1, 3, 3, UNSAFE),
        ]
        with pytest.raises(ValueError, match="no record was sampled"):
            evaluate_partitioned(none_sampled, TestParams())

    def test_error_names_ten_records_and_counts_the_rest(self):
        unsampled = [make_record(i, 2, 2, SAFE, sampled=None) for i in range(5256)]
        with pytest.raises(ValueError) as error:
            evaluate_partitioned(unsampled, TestParams())
        shown = ", ".join(f"d{i:05d}" for i in range(10))
        assert str(error.value) == (
            f"safe records without sampling indicator: {shown}, … and 5246 more"
        )

    def test_clamped_pass_case(self):
        # zero errors everywhere: both strata floor at nu_min; pooled equals
        # nu_min exactly at full quota, so the verdict matches the classic one
        records = [
            make_record(i, 3, 3, SAFE if i % 2 else UNSAFE, sampled=True if i % 2 else None)
            for i in range(100)
        ]
        report = evaluate_partitioned(records, TestParams())
        classic = evaluate_classic(records, TestParams())
        assert report.nu_hat == pytest.approx(0.03, abs=1e-15)
        assert report.verdict == classic.verdict == PASS

    def test_weighted_mean_identity(self):
        # explicit indicator/quota weights equal the sampled-subset mean
        rng = np.random.default_rng(11)
        records = fully_counted_campaign(rng, 200, p_s=0.8)
        from conftest import subsample_safe

        records = subsample_safe(records, rng, 0.4)
        report = evaluate_partitioned(records, TestParams())
        m_hat = report.stats.m_hat_q
        q_eff = report.stats.q_effective
        safe = [r for r in records if r.label == SAFE]
        explicit = math.fsum(
            ((r.k_auto - r.m_final) / m_hat) * (1.0 if r.sampled else 0.0) / q_eff
            for r in safe
        ) / len(safe)
        assert explicit == pytest.approx(report.stats.d_bar_s, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_degeneration_small_campaigns(self, data):
        # at full quota the partitioned estimate equals the classic one; for
        # n <= 30 the interval halfwidth exceeds the margin for both tests
        # (nu floors at 0.03), so the verdicts agree structurally
        n = data.draw(st.integers(min_value=2, max_value=30))
        ms = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        errs = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if not any(ms):
            ms[0] = 1
        records = [
            make_record(
                i, m, max(0, m + e), SAFE if safe else UNSAFE,
                sampled=True if safe else None,
            )
            for i, (m, e, safe) in enumerate(zip(ms, errs, labels))
        ]
        part = evaluate_partitioned(records, TestParams())
        classic = evaluate_classic(records, TestParams())
        assert part.stats.q_effective == 1.0
        assert abs(part.d_hat - classic.d_hat) <= 1e-12
        assert part.verdict == classic.verdict == FAIL

    def test_report_invariants(self):
        rng = np.random.default_rng(3)
        records = fully_counted_campaign(rng, 50)
        report = evaluate_partitioned(records, TestParams())
        assert report.ci_low <= report.d_hat <= report.ci_high
        assert report.n == 50
        assert report.stats.n == report.stats.n_s + report.stats.n_u

    @pytest.mark.parametrize("case", OVERFLOWING_CAMPAIGNS)
    def test_an_interval_that_overflows_is_an_overflow_error(self, case):
        mode, records, numbers = OVERFLOWING_CAMPAIGNS[case]
        evaluate = {"classic": evaluate_classic, "partitioned": evaluate_partitioned}[mode]
        with pytest.raises(OverflowError) as exc:
            evaluate(records, TestParams())
        assert str(exc.value) == f"the evaluation is not finite: {numbers}"


class TestRecordRows:
    # safe d00000 counted (M 2, K 1), safe d00001 not counted, unsafe d00002
    # (M 3, K 4): partitioned m_hat = (3 + 2 / 0.5) / 3 = 7/3, classic 9/3
    RECORDS = [
        make_record(0, 2, 1, SAFE, sampled=True),
        make_record(1, 4, 4, SAFE, sampled=False),
        make_record(2, 3, 4, UNSAFE),
    ]

    @staticmethod
    def random_campaign():
        rng = np.random.default_rng(5)
        return subsample_safe(fully_counted_campaign(rng, 300, p_s=0.85), rng, 0.2)

    def test_partitioned_hand_example(self):
        rows = list(record_rows(self.RECORDS, evaluate_partitioned(self.RECORDS, TestParams())))
        assert rows == [
            ("d00000", SAFE, 2.0, pytest.approx(-3 / 7, rel=1e-15)),
            ("d00001", SAFE, 0.0, None),
            ("d00002", UNSAFE, 1.0, pytest.approx(3 / 7, rel=1e-15)),
        ]

    def test_classic_weighs_every_record_1(self):
        rows = record_rows(self.RECORDS, evaluate_classic(self.RECORDS, TestParams()))
        assert [(w, d) for _, _, w, d in rows] == [(1.0, -1 / 3), (1.0, 0.0), (1.0, 1 / 3)]

    @pytest.mark.parametrize("evaluate", [evaluate_partitioned, evaluate_classic])
    @pytest.mark.parametrize("campaign", ["hand", "random"])
    def test_weighted_differences_average_to_d_hat(self, evaluate, campaign):
        records = self.RECORDS if campaign == "hand" else self.random_campaign()
        report = evaluate(records, TestParams())
        rows = record_rows(records, report)
        total = math.fsum(w * d for _, _, w, d in rows if d is not None)
        assert total / report.n == pytest.approx(report.d_hat, rel=1e-12)

    def test_d_i_is_the_error_at_the_reports_mean_count(self):
        records = self.random_campaign()
        report = evaluate_partitioned(records, TestParams())
        m_hat = report.stats.m_hat_q
        for r, (dop_id, label, weight, d_i) in zip(records, record_rows(records, report)):
            assert (dop_id, label) == (r.dop_id, r.label)
            assert d_i == (None if weight == 0.0 else (r.k_auto - r.m_final) / m_hat)

    def test_a_full_quota_weighs_each_sampled_safe_record_1(self):
        records = [r._replace(sampled=True) if r.label == SAFE else r for r in self.RECORDS]
        report = evaluate_partitioned(records, TestParams())
        assert report.stats.q_effective == 1.0
        assert [w for _, _, w, _ in record_rows(records, report)] == [1.0, 1.0, 1.0]

    def test_an_uncounted_safe_record_has_no_d_i(self):
        rows = list(record_rows(self.RECORDS, evaluate_partitioned(self.RECORDS, TestParams())))
        assert rows[1][2] == 0.0 and rows[1][3] is None

    def test_records_of_another_size_are_refused(self):
        report = evaluate_partitioned(self.RECORDS, TestParams())
        with pytest.raises(ValueError, match="the report covers 3 records, got 2"):
            record_rows(self.RECORDS[:2], report)

    def test_a_report_without_a_positive_mean_count_is_refused(self):
        report = evaluate_partitioned(self.RECORDS, TestParams())
        report = replace(report, stats=replace(report.stats, m_hat_q=0.0))
        with pytest.raises(ValueError, match="^mean count estimate must be > 0, got 0.0$"):
            record_rows(self.RECORDS, report)


# --- the exact design-based bias of the live estimator -----------------------
#
# Counting m of the n_s safe records, every subset equally likely, makes d_hat
# the ratio Y_hat / X_hat of the inverse-quota totals of y = k_auto - m_final
# and of x = m_final. Both totals are unbiased; their ratio is not. With
# e = (X_hat - X) / X and D = Y / X, exactly
#   d_hat - D = (Y_hat - D X_hat) / X * (1 - e) + (d_hat - D) * e**2,
# so the bias is the first-order ratio bias (Cochran, Sampling Techniques,
# 1977, 6.8) in its stratified inverse-quota form,
#   B1 = n_s**2 (1 - f) / m * (D S2_x - S_xy) / X**2,   f = m / n_s,
# plus E[(d_hat - D) e**2]. d_hat is a weighted mean of the records' y / x, so
# |d_hat - D| <= rho = max |y / x - D|, and the remainder is at most
#   rho * E[e**2] = rho * n_s**2 (1 - f) / m * S2_x / X**2.

# (m_final, k_auto - m_final) of each safe record, then of each unsafe record;
# drawn once from a seeded generator and written out
DESIGN_CAMPAIGNS = {
    "d_positive": ([(3, 0), (4, 0), (5, -1), (6, -1), (1, 1), (1, 0), (5, 1), (6, 0), (2, 1),
                    (2, 0), (6, 0), (3, 0)],
                   [(2, -1), (5, 1), (2, -1), (3, 1)]),
    "d_zero": ([(6, 0), (2, -1), (1, 0), (2, 0), (3, 0), (5, 0), (3, 1), (1, -1), (3, 0),
                (4, -1), (5, 0), (5, 0), (6, 1), (2, 1), (6, 0), (1, 0)],
               [(4, 2), (2, -2), (2, 1), (4, -1)]),
}
# m -> (exact bias / B1, exact coverage of D), measured once; the exact bias
# falls strictly in |.| over `DESIGN_COUNTED` and is 0 at m = n_s
DESIGN_COUNTED = {"d_positive": range(1, 13), "d_zero": (4, 8, 12, 16)}
DESIGN_PINS = {
    "d_positive": {2: (1.2331, Fraction(62, 66)), 5: (1.0603, 1), 8: (1.0177, 1)},
    "d_zero": {4: (1.1097, Fraction(1800, 1820)), 8: (1.0349, 1), 12: (1.0126, 1)},
}


def design_campaign(name: str) -> list[DopRecord]:
    safe, unsafe = DESIGN_CAMPAIGNS[name]
    return [make_record(i, m, m + e, label, sampled=True if label == SAFE else None)
            for i, ((m, e), label) in enumerate([*((c, SAFE) for c in safe),
                                                 *((c, UNSAFE) for c in unsafe)])]


def exact_design(records: list[DopRecord], m: int) -> tuple[float, float, Fraction]:
    """(D, exact E[d_hat], exact coverage of D) over all C(n_s, m) counted subsets.

    Each subset runs through `evaluate_partitioned` at nu_min 0; D is the
    campaign's sum(k_auto - m_final) / sum(m_final).
    """
    d = math.fsum(r.k_auto - r.m_final for r in records) / math.fsum(r.m_final for r in records)
    safe = [i for i, r in enumerate(records) if r.label == SAFE]
    estimates, covered = [], 0
    for subset in itertools.combinations(safe, m):
        counted = set(subset)
        report = evaluate_partitioned(
            [r._replace(sampled=i in counted) if r.label == SAFE else r
             for i, r in enumerate(records)], TestParams(nu_min=0.0))
        estimates.append(report.d_hat)
        covered += report.ci_low <= d <= report.ci_high
    return d, math.fsum(estimates) / len(estimates), Fraction(covered, len(estimates))


def first_order_bias(records: list[DopRecord], m: int) -> tuple[float, float]:
    """(B1, the bound rho * E[e**2] on the remainder) at m counted safe records."""
    xs = [r.m_final for r in records if r.label == SAFE]
    ys = [r.k_auto - r.m_final for r in records if r.label == SAFE]
    n_s, x_bar, y_bar = len(xs), math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    s2_x = math.fsum((x - x_bar) ** 2 for x in xs) / (n_s - 1)
    s_xy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / (n_s - 1)
    total = math.fsum(r.m_final for r in records)
    d = math.fsum(r.k_auto - r.m_final for r in records) / total
    rho = max(abs((r.k_auto - r.m_final) / r.m_final - d) for r in records)
    scale = n_s**2 * (1 - m / n_s) / m / total**2
    return scale * (d * s2_x - s_xy), rho * scale * s2_x


@pytest.mark.parametrize("name", DESIGN_CAMPAIGNS)
def test_the_exact_design_bias_of_the_live_estimator(name):
    records = design_campaign(name)
    results = {m: exact_design(records, m) for m in DESIGN_COUNTED[name]}
    d, full, coverage = results[len(DESIGN_CAMPAIGNS[name][0])]
    assert (d == 0.0) == (name == "d_zero")
    assert abs(full - d) <= 1e-12 and coverage == 1  # a full count is the ratio of totals
    biases = [mean - d for _, mean, _ in results.values()]
    assert all(abs(a) > abs(b) for a, b in zip(biases, biases[1:]))
    for m, (ratio, coverage) in DESIGN_PINS[name].items():
        b1, bound = first_order_bias(records, m)
        _, mean, exact_coverage = results[m]
        assert abs(mean - d - b1) <= bound
        assert (mean - d) / b1 == pytest.approx(ratio, abs=5e-5)
        assert exact_coverage == coverage
