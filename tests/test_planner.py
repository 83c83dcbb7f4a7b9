import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcval.domain import CostParams, PartitionParams, TestParams
from apcval.planner import (
    apply_buffer,
    counted_count,
    make_plan,
    optimal_quota,
    recorded_size,
    total_cost,
)

Z975 = 1.959963984540054
ZSUM2 = (2 * Z975) ** 2


def classic_size(params: TestParams) -> int:
    return make_plan(params, PartitionParams()).n_e


def budget_quota(n_rec: int, params: TestParams, partition: PartitionParams) -> float:
    return make_plan(params, partition, n_rec_budget=n_rec).q_planned


class TestSampleSize:
    def test_reference_plan(self):
        assert classic_size(TestParams()) == 6147

    def test_nu_15(self):
        # (2*1.959964)^2 * 225 = 3457.3, rounded up
        assert classic_size(TestParams(nu=0.15)) == 3458

    def test_degenerate_nu_floors_at_one(self):
        plan = make_plan(TestParams(nu=0.0, nu_min=0.0), PartitionParams())
        assert plan.n_e == 1
        assert plan.notes == ("degenerate plan (nu is 0): sample size floored at 1",)

    def test_plan_notes_the_substituted_nu_once(self):
        note = "planning nu=0.01 below nu_min=0.03: substituted nu_min"
        plan = make_plan(TestParams(nu=0.01), PartitionParams())
        assert plan.notes == (note,)
        # the budget path solves its quota at the same substituted nu
        plan = make_plan(TestParams(nu=0.01), PartitionParams(), n_rec_budget=500)
        assert plan.notes.count(note) == 1 and plan.notes[0] == note
        assert plan.q_source == "fixed"

    def test_nu_below_floor_is_substituted(self):
        plan = make_plan(TestParams(nu=0.001, nu_min=0.03), PartitionParams())
        assert plan.notes == ("planning nu=0.001 below nu_min=0.03: substituted nu_min",)
        assert plan.n_e == math.ceil(ZSUM2 * 0.03**2 / 0.01**2)


class TestRecordedSize:
    def test_full_quota_identity(self):
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=1.0)
        assert recorded_size(3458, part) == 3458

    def test_suggested_parameters(self):
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.175)
        assert recorded_size(3458, part) == 5256

    def test_no_safe_stratum(self):
        part = PartitionParams(p_s=0.0, nu_s_ratio=0.35, q=0.2)
        assert recorded_size(3458, part) == 3458

    @given(
        n_e=st.integers(min_value=1, max_value=20000),
        p_s=st.floats(min_value=0, max_value=1),
        ratio=st.floats(min_value=0, max_value=1),
        q1=st.floats(min_value=0.01, max_value=1.0),
        q2=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_at_least_n_e_and_nonincreasing_in_q(self, n_e, p_s, ratio, q1, q2):
        lo, hi = sorted([q1, q2])
        small = recorded_size(n_e, PartitionParams(p_s=p_s, nu_s_ratio=ratio, q=hi))
        large = recorded_size(n_e, PartitionParams(p_s=p_s, nu_s_ratio=ratio, q=lo))
        assert n_e <= small <= large


class TestQuotaForFixedRecord:
    def test_budget_equal_to_classic_size(self):
        # with the ceiled n_e as budget the recovered quota sits a hair under
        # the exact-inverse value 1 (the ceiling frees ~0.7 records to spend)
        params = TestParams(nu=0.15)
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.5)
        q0 = budget_quota(3458, params, part)
        assert q0 == pytest.approx(1.0, abs=3e-3)
        assert q0 <= 1.0

    def test_budget_below_next_integer_keeps_quota_capped(self):
        params = TestParams(nu=0.15)
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.5)
        for budget in (3458, 3459, 4000):
            assert 0.0 < budget_quota(budget, params, part) <= 1.0

    def test_round_trip_of_recorded_size_example(self):
        params = TestParams(nu=0.15)
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.175)
        q0 = budget_quota(5256, params, part)
        assert q0 == pytest.approx(0.175, abs=2e-3)

    def test_degenerate_partition_clamps_to_full_count(self):
        params = TestParams(nu=0.15)
        part = PartitionParams(p_s=0.0, nu_s_ratio=0.35, q=0.5)
        assert budget_quota(5000, params, part) == 1.0

    def test_infeasible_budget(self):
        params = TestParams(nu=0.15)
        part = PartitionParams()
        message = "recording budget 3000 below classic requirement 3458: no feasible quota"
        with pytest.raises(ValueError, match=message):
            budget_quota(3000, params, part)

    @settings(max_examples=100, deadline=None)
    @given(
        nu=st.floats(min_value=0.05, max_value=0.4),
        p_s=st.floats(min_value=0.3, max_value=1.0),
        ratio=st.floats(min_value=0.1, max_value=0.9),
        q=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_inverse_pair(self, nu, p_s, ratio, q):
        # recovering the quota from the recorded size it produced lands within
        # the slack of the two integer ceilings
        params = TestParams(nu=nu)
        part = PartitionParams(p_s=p_s, nu_s_ratio=ratio, q=q)
        plan = make_plan(params, part)
        n_e, n_rec = plan.n_e, plan.n_rec
        recovered = budget_quota(n_rec, params, part)
        # sensitivity of q to a one-unit budget change (evaluated at the
        # larger quota endpoint, where it peaks); the n_e ceiling inflates
        # the budget by up to n_rec/n_e units, the n_rec one by 1 more
        dq = max(q, recovered) ** 2 * params.delta**2 / (ZSUM2 * p_s * (ratio * nu) ** 2)
        slack = dq * (n_rec / n_e + 1.0) + 1e-9
        assert q - slack <= recovered <= min(1.0, q + slack)


class TestOptimalQuota:
    def test_no_variance_penalty(self):
        # nu^2 == p_s * nu_s^2 makes b = 0: counting less costs nothing in power
        part = PartitionParams(p_s=1.0, nu_s_ratio=1.0, q=0.5)
        costs = CostParams(c_u=1.0, c_s0=0.0, c_sz=1.0)
        assert optimal_quota(part, 0.2, costs) == 1.0

    def test_a_equals_b_boundary(self):
        # pick costs so a == b exactly; sqrt(1) caps at the full count
        nu = 0.2
        part = PartitionParams(p_s=0.5, nu_s_ratio=0.5, q=0.5)
        nu_s2 = (0.5 * nu) ** 2
        b = (nu**2 - 0.5 * nu_s2) / (0.5 * nu_s2)
        costs = CostParams(c_u=b * 0.5 / 0.5, c_s0=0.0, c_sz=1.0)
        assert optimal_quota(part, nu, costs) == pytest.approx(1.0, abs=1e-12)

    def test_default_rate_instantiation(self):
        # c_u = c_sz = reviewing surcharge times the mean review cost
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.175)
        c = 0.164 * 2.2
        q0 = optimal_quota(part, 0.15, CostParams(c_u=c, c_s0=0.0, c_sz=c))
        a = 0.1 / 0.9
        b = (0.15**2 - 0.9 * 0.0525**2) / (0.9 * 0.0525**2)
        assert q0 == pytest.approx(math.sqrt(a / b), abs=1e-15)

    def test_preconditions(self):
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.5)
        with pytest.raises(ValueError):
            optimal_quota(part, 0.15, CostParams(c_u=1.0, c_s0=0.0, c_sz=0.0))
        with pytest.raises(ValueError):
            optimal_quota(PartitionParams(p_s=0.0), 0.15, CostParams(c_u=1, c_s0=0, c_sz=1))

    def test_zero_mandatory_cost_has_no_optimum(self):
        # p_u*c_u + p_s*c_s0 == 0: every smaller quota is cheaper
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.5)
        free = CostParams(c_u=0.0, c_s0=0.0, c_sz=1.0)
        with pytest.raises(ValueError, match="mandatory cost p_u\\*c_u \\+ p_s\\*c_s0 is 0"):
            optimal_quota(part, 0.15, free)
        # without a variance surplus the full count stays optimal
        assert optimal_quota(PartitionParams(p_s=1.0, nu_s_ratio=1.0, q=0.5), 0.2, free) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        nu=st.floats(min_value=0.08, max_value=0.3),
        p_s=st.floats(min_value=0.4, max_value=0.99),
        ratio=st.floats(min_value=0.15, max_value=0.8),
        c_u=st.floats(min_value=0.05, max_value=3.0),
        c_s0=st.floats(min_value=0.0, max_value=0.5),
        c_sz=st.floats(min_value=0.05, max_value=3.0),
    )
    def test_matches_grid_search(self, nu, p_s, ratio, c_u, c_s0, c_sz):
        # independent oracle: 1000-point scan of the analytic cost curve
        part = PartitionParams(p_s=p_s, nu_s_ratio=ratio, q=0.5)
        costs = CostParams(c_u=c_u, c_s0=c_s0, c_sz=c_sz)
        nu_s2 = (ratio * nu) ** 2
        b = (nu**2 - p_s * nu_s2) / (p_s * nu_s2)
        if b <= 0:
            assert optimal_quota(part, nu, costs) == 1.0
            return
        grid = np.linspace(0.001, 1.0, 1000)
        n_of_q = ZSUM2 * (p_s * nu_s2 * (1.0 / grid - 1.0) + nu**2) / 0.01**2
        cost_of_q = n_of_q * ((1 - p_s) * c_u + p_s * (c_s0 + grid * c_sz))
        q_grid = grid[int(np.argmin(cost_of_q))]
        q0 = optimal_quota(part, nu, costs)
        assert abs(q0 - q_grid) <= (grid[1] - grid[0]) + 1e-12


class TestTotalCost:
    def test_only_unsafe_costs(self):
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.5)
        costs = CostParams(c_u=2.0, c_s0=0.0, c_sz=1.0)
        assert total_cost(100, 0.0, part, costs) == pytest.approx(100 * 0.1 * 2.0)

    def test_hand_example(self):
        part = PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.5)
        costs = CostParams(c_u=1.0, c_s0=0.1, c_sz=0.4)
        assert total_cost(1000, 0.5, part, costs) == pytest.approx(370.0)

    def test_all_safe_full_count(self):
        part = PartitionParams(p_s=1.0, nu_s_ratio=0.35, q=1.0)
        costs = CostParams(c_u=9.0, c_s0=0.0, c_sz=0.7)
        assert total_cost(500, 1.0, part, costs) == pytest.approx(500 * 0.7)


class TestBufferAndQuotaRounding:
    def test_reference_buffer(self):
        assert apply_buffer(6147, 1.15) == 7070

    def test_identity_buffer(self):
        assert apply_buffer(100, 1.0) == 100

    def test_ceiling(self):
        assert apply_buffer(1, 1.15) == 2

    def test_counted_count_examples(self):
        assert counted_count(0.5, 7) == 4
        assert counted_count(0.5, 8) == 4
        assert counted_count(0.01, 3) == 1

    def test_float_noise_does_not_overshoot(self):
        # 0.07 * 100 is 7.000000000000001 in binary floating point
        assert counted_count(0.07, 100) == 7
        assert counted_count(0.175, 1000) == 175

    @given(q=st.floats(min_value=1e-6, max_value=1.0), n=st.integers(min_value=1, max_value=100000))
    def test_counted_count_covers_the_quota(self, q, n):
        count = counted_count(q, n)
        assert isinstance(count, int)
        assert 1 <= count <= n
        assert count / n >= q - 1e-9


class TestMakePlan:
    def test_given_quota(self):
        plan = make_plan(TestParams(nu=0.15), PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.175))
        assert plan.n_e == 3458
        assert plan.n_rec == 5256
        assert plan.q_source == "given"
        assert plan.buffered_n_rec == apply_buffer(5256, 1.15)
        assert plan.buffered_n_e == apply_buffer(3458, 1.15)

    def test_optimized_quota(self):
        costs = CostParams(c_u=0.3608, c_s0=0.0, c_sz=0.3608)
        plan = make_plan(TestParams(nu=0.15), PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.5), costs=costs)
        assert plan.q_source == "optimized"
        assert plan.q_planned == pytest.approx(0.1173, abs=1e-3)
        assert plan.partition.q == plan.q_planned

    def test_fixed_budget(self):
        plan = make_plan(
            TestParams(nu=0.15),
            PartitionParams(p_s=0.9, nu_s_ratio=0.35, q=0.5),
            n_rec_budget=5256,
        )
        assert plan.q_source == "fixed"
        assert plan.q_planned == pytest.approx(0.175, abs=2e-3)
        assert plan.n_rec >= plan.n_e
