import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_record
from apcval.cost import (
    SCHEME_COMBINED,
    SCHEME_NO_FIRST_COUNT,
    SCHEME_WITH_FIRST_COUNT,
    cost_breakdown,
    counting_cost,
)
from apcval.domain import SAFE, UNSAFE, CostRates

RATES = CostRates()  # r_av=0.7, c_labor=20, r_s=1.2


class TestCountingCost:
    def test_reported_average(self):
        # 42.15 s of video at the default rates costs ~0.164 per review pass
        assert counting_cost(42.15, RATES) == pytest.approx(0.1639, abs=0.0005)

    def test_zero_video(self):
        assert counting_cost(0.0, RATES) == 0.0

    def test_unit_hour(self):
        assert counting_cost(3600.0, RATES) == pytest.approx(14.0)

    @given(
        d=st.floats(min_value=0, max_value=1e5),
        scale=st.floats(min_value=0.1, max_value=10),
    )
    def test_linear_in_duration_and_labor(self, d, scale):
        base = counting_cost(d, RATES)
        assert counting_cost(d * scale, RATES) == pytest.approx(base * scale, rel=1e-12)
        scaled_rates = CostRates(r_av=0.7, c_labor=20.0 * scale, r_s=1.2)
        assert counting_cost(d, scaled_rates) == pytest.approx(base * scale, rel=1e-12)


def mixed_campaign():
    # safe durations 30/60/90 s, unsafe durations 45/45 s
    return [
        make_record(0, 2, 2, SAFE, duration=30.0),
        make_record(1, 2, 2, SAFE, duration=60.0),
        make_record(2, 2, 2, SAFE, duration=90.0),
        make_record(3, 2, 2, UNSAFE, duration=45.0),
        make_record(4, 2, 2, UNSAFE, duration=45.0),
    ]


MEAN_SAFE = (30 + 60 + 90) / 3 / 3600 * 0.7 * 20  # 0.2333...
MEAN_UNSAFE = 45 / 3600 * 0.7 * 20  # 0.175


NO_FIRST, WITH_FIRST, COMBINED = SCHEME_NO_FIRST_COUNT, SCHEME_WITH_FIRST_COUNT, SCHEME_COMBINED


class TestSchemes:
    def test_no_first_count_constant_durations(self):
        records = [make_record(i, 1, 1, SAFE, duration=50.0) for i in range(4)]
        c = counting_cost(50.0, RATES)
        params = cost_breakdown(records, RATES, NO_FIRST)
        assert params.warnings == ("no unsafe records: stratum cost set to 0",)
        assert params.c_sz == pytest.approx(2.2 * c, rel=1e-12)
        assert params.c_s0 == 0.0

    def test_no_first_count_empty_stratum_warns(self):
        records = [make_record(0, 1, 1, UNSAFE, duration=50.0)]
        params = cost_breakdown(records, RATES, NO_FIRST)
        assert params.warnings == ("no safe records: stratum cost set to 0",)
        assert params.c_s0 == 0.0 and params.c_sz == 0.0
        assert params.c_u == pytest.approx(2.2 * counting_cost(50.0, RATES))

    def test_no_first_count_mixed_durations(self):
        params = cost_breakdown(mixed_campaign(), RATES, NO_FIRST)
        assert params.warnings == ()
        assert params.c_sz == pytest.approx(2.2 * MEAN_SAFE, rel=1e-12)
        assert params.c_u == pytest.approx(2.2 * MEAN_UNSAFE, rel=1e-12)

    def test_with_first_count_constant_duration(self):
        records = [make_record(i, 1, 1, SAFE, duration=50.0) for i in range(3)]
        c = counting_cost(50.0, RATES)
        params = cost_breakdown(records + [make_record(9, 1, 1, UNSAFE, duration=50.0)], RATES, WITH_FIRST)
        assert params.c_s0 == pytest.approx(c, rel=1e-12)
        assert params.c_sz == pytest.approx(1.2 * c, rel=1e-12)

    def test_with_first_count_total_matches_no_first_count(self):
        records = mixed_campaign()
        with_first = cost_breakdown(records, RATES, WITH_FIRST)
        without = cost_breakdown(records, RATES, NO_FIRST)
        assert with_first.c_s0 + with_first.c_sz == pytest.approx(without.c_sz, rel=1e-12)

    def test_no_supervisor_surcharge(self):
        rates = CostRates(r_av=0.7, c_labor=20.0, r_s=0.0)
        records = mixed_campaign()
        params = cost_breakdown(records, rates, WITH_FIRST)
        assert params.c_sz == 0.0


class TestCombined:
    def test_all_flags_zero_reduces_to_no_first_count(self):
        records = mixed_campaign()
        flags = {r.dop_id: 0 for r in records if r.label == SAFE}
        combined = cost_breakdown(records, RATES, COMBINED, flags)
        base = cost_breakdown(records, RATES, NO_FIRST)
        assert combined.c_s0 == pytest.approx(base.c_s0, abs=1e-15)
        assert combined.c_sz == pytest.approx(base.c_sz, rel=1e-12)
        assert combined.c_u == base.c_u

    def test_all_flags_one_reduces_to_with_first_count(self):
        records = mixed_campaign()
        flags = {r.dop_id: 1 for r in records if r.label == SAFE}
        combined = cost_breakdown(records, RATES, COMBINED, flags)
        base = cost_breakdown(records, RATES, WITH_FIRST)
        assert combined.c_s0 == pytest.approx(base.c_s0, rel=1e-12)
        assert combined.c_sz == pytest.approx(base.c_sz, rel=1e-12)
        assert combined.c_u == base.c_u

    def test_hand_case_mixed_flags(self):
        records = mixed_campaign()
        flags = {"d00000": 1, "d00001": 0, "d00002": 1}
        combined = cost_breakdown(records, RATES, COMBINED, flags)
        c = [counting_cost(d, RATES) for d in (30.0, 60.0, 90.0)]
        assert combined.c_s0 == pytest.approx((c[0] + c[2]) / 3, rel=1e-12)
        expected_sz = (1.2 * c[0] + 2.2 * c[1] + 1.2 * c[2]) / 3
        assert combined.c_sz == pytest.approx(expected_sz, rel=1e-12)
        assert combined.c_u == pytest.approx(2.2 * MEAN_UNSAFE, rel=1e-12)

    def test_missing_flag(self):
        records = mixed_campaign()
        with pytest.raises(ValueError, match="safe records lack reclassification flags: d00001, d00002"):
            cost_breakdown(records, RATES, COMBINED, {"d00000": 1})

    @given(
        flags=st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=3),
        scheme=st.sampled_from([NO_FIRST, WITH_FIRST, COMBINED]),
    )
    def test_total_counting_effort_is_conserved(self, flags, scheme):
        # c_s0 + c_sz always totals (1 + r_s) * mean safe review cost,
        # whatever the scheme or flags: attribution moves cost, never creates it
        records = mixed_campaign()
        mapping = dict(zip(["d00000", "d00001", "d00002"], flags))
        params = cost_breakdown(records, RATES, scheme, mapping)
        assert params.c_s0 + params.c_sz == pytest.approx(2.2 * MEAN_SAFE, rel=1e-12)
        assert params.c_u == pytest.approx(2.2 * MEAN_UNSAFE, rel=1e-12)


class TestBreakdownAndHooks:
    def test_breakdown_carries_per_record_costs(self):
        breakdown = cost_breakdown(mixed_campaign(), RATES, SCHEME_NO_FIRST_COUNT)
        assert len(breakdown.per_record) == 5
        assert dict(breakdown.per_record)["d00002"] == pytest.approx(
            counting_cost(90.0, RATES)
        )
        assert breakdown.scheme == SCHEME_NO_FIRST_COUNT
        assert breakdown.cost_params().c_sz == pytest.approx(2.2 * MEAN_SAFE, rel=1e-12)

    def test_combined_scheme_needs_flags(self):
        with pytest.raises(ValueError, match="combined scheme requires reclassification flags"):
            cost_breakdown(mixed_campaign(), RATES, SCHEME_COMBINED)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown cost scheme 'bogus'"):
            cost_breakdown(mixed_campaign(), RATES, "bogus")

    def test_with_first_count_scheme_via_breakdown(self):
        breakdown = cost_breakdown(mixed_campaign(), RATES, SCHEME_WITH_FIRST_COUNT)
        assert breakdown.c_s0 == pytest.approx(MEAN_SAFE, rel=1e-12)
