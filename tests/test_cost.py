import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from apcval.classify import KIND_COMBINED, KIND_RULE_OF_THUMB, ClassifierSpec, classify
from apcval.cost import (
    SCHEME_COMBINED,
    SCHEME_NO_FIRST_COUNT,
    SCHEME_WITH_FIRST_COUNT,
    cost_breakdown,
    counting_cost,
)
from apcval.domain import SAFE, UNLABELED, UNSAFE, CostRates, DopRecord, relabel

RATES = CostRates()  # r_av=0.7, c_labor=20, r_s=1.2


class TestCountingCost:
    def test_reported_average(self):
        # 42.15 s of video at the default rates costs ~0.164 per review pass
        assert counting_cost(42.15, RATES) == pytest.approx(0.1639, abs=0.0005)

    def test_zero_video(self):
        assert counting_cost(0.0, RATES) == 0.0

    def test_unit_hour(self):
        assert counting_cost(3600.0, RATES) == pytest.approx(14.0)

    def test_refuses_a_negative_duration(self):
        with pytest.raises(ValueError, match=r"^duration_s must be >= 0, got -1\.0$"):
            counting_cost(-1.0, CostRates())

    @settings(max_examples=100)
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


def combined(threshold: float) -> ClassifierSpec:
    return ClassifierSpec(kind=KIND_COMBINED, threshold=threshold)


def reference_breakdown(
    records: list[DopRecord], rates: CostRates, scheme: str, classifier: ClassifierSpec
) -> tuple[float, float, float]:
    """(c_u, c_s0, c_sz) by the two routes of dop_id-keyed reclassification flags.

    An unlabeled campaign is classified in two calls: the first stage gives
    each of its safe records flag 0, and a record it marks unsafe whose first
    manual count equals k_auto is relabeled safe with flag 1. A labeled
    campaign keeps its labels and takes flag 1 wherever the first stage
    marks a record unsafe. The safe records' flags are their sunk shares.
    """
    first = classify(records, ClassifierSpec(KIND_RULE_OF_THUMB, classifier.threshold,
                                             classifier.target_share))
    if all(r.label == UNLABELED for r in records):
        flags = {r.dop_id: 0 for r in first if r.label == SAFE}
        flags.update({r.dop_id: 1 for r in first if r.label == UNSAFE and r.m1 == r.k_auto})
        records = [relabel(r, SAFE if r.dop_id in flags else UNSAFE, r.sampled)
                   for r in records]
    else:
        flags = {r.dop_id: int(f.label == UNSAFE) for r, f in zip(records, first)}
    share = {SCHEME_NO_FIRST_COUNT: lambda r: 0, SCHEME_WITH_FIRST_COUNT: lambda r: 1,
             SCHEME_COMBINED: lambda r: flags[r.dop_id]}[scheme]
    safe = [(counting_cost(r.duration_s, rates), share(r)) for r in records if r.label == SAFE]
    unsafe = [counting_cost(r.duration_s, rates) for r in records if r.label == UNSAFE]
    n_s = len(safe) or 1
    return (
        (1.0 + rates.r_s) * (sum(unsafe) / len(unsafe) if unsafe else 0.0),
        sum(c * w for c, w in safe) / n_s,
        sum(c * (1.0 - w + rates.r_s) for c, w in safe) / n_s,
    )


class TestCombined:
    def test_first_stage_all_safe_reduces_to_no_first_count(self):
        records = mixed_campaign()  # at most 4 passengers per minute
        breakdown = cost_breakdown(records, RATES, COMBINED, combined(threshold=10.0))
        base = cost_breakdown(records, RATES, NO_FIRST)
        assert breakdown.c_s0 == pytest.approx(base.c_s0, abs=1e-15)
        assert breakdown.c_sz == pytest.approx(base.c_sz, rel=1e-12)
        assert breakdown.c_u == base.c_u

    def test_first_stage_all_unsafe_reduces_to_with_first_count(self):
        records = mixed_campaign()  # at least 4/3 passengers per minute
        breakdown = cost_breakdown(records, RATES, COMBINED, combined(threshold=1.0))
        base = cost_breakdown(records, RATES, WITH_FIRST)
        assert breakdown.c_s0 == pytest.approx(base.c_s0, rel=1e-12)
        assert breakdown.c_sz == pytest.approx(base.c_sz, rel=1e-12)
        assert breakdown.c_u == base.c_u

    def test_hand_case_mixed_first_stage(self):
        # 8, 2 and 6 passengers per minute: at threshold 5 the first stage
        # marks d00000 and d00002 unsafe, so their first pass is sunk
        records = mixed_campaign()
        for i, m in ((0, 4), (1, 2), (2, 9)):
            records[i] = records[i]._replace(m1=m)
        breakdown = cost_breakdown(records, RATES, COMBINED, combined(threshold=5.0))
        c = [counting_cost(d, RATES) for d in (30.0, 60.0, 90.0)]
        assert breakdown.c_s0 == pytest.approx((c[0] + c[2]) / 3, rel=1e-12)
        expected_sz = (1.2 * c[0] + 2.2 * c[1] + 1.2 * c[2]) / 3
        assert breakdown.c_sz == pytest.approx(expected_sz, rel=1e-12)
        assert breakdown.c_u == pytest.approx(2.2 * MEAN_UNSAFE, rel=1e-12)

    @pytest.mark.parametrize("classifier", [
        None,
        ClassifierSpec(kind=KIND_RULE_OF_THUMB, threshold=5.0),
    ])
    def test_needs_a_combined_classifier(self, classifier):
        with pytest.raises(ValueError, match="^combined scheme needs a combined classifier$"):
            cost_breakdown(mixed_campaign(), RATES, COMBINED, classifier)

    @settings(max_examples=100)
    @given(
        m1=st.lists(st.integers(min_value=0, max_value=10), min_size=3, max_size=3),
        threshold=st.floats(min_value=-1.0, max_value=25.0),
        scheme=st.sampled_from([NO_FIRST, WITH_FIRST, COMBINED]),
    )
    def test_total_counting_effort_is_conserved(self, m1, threshold, scheme):
        # c_s0 + c_sz always totals (1 + r_s) * mean safe review cost,
        # whatever the scheme or first stage: attribution moves cost, never creates it
        records = [r._replace(m1=m) for r, m in zip(mixed_campaign(), m1 + [2, 2])]
        params = cost_breakdown(records, RATES, scheme, combined(threshold))
        assert params.c_s0 + params.c_sz == pytest.approx(2.2 * MEAN_SAFE, rel=1e-12)
        assert params.c_u == pytest.approx(2.2 * MEAN_UNSAFE, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_flag_routes(self, data):
        n = data.draw(st.integers(min_value=0, max_value=20))
        labels = st.just(UNLABELED) if data.draw(st.booleans()) else st.sampled_from([SAFE, UNSAFE])
        records = []
        for i in range(n):
            k = data.draw(st.integers(0, 12))
            records.append(DopRecord(
                dop_id=f"r{i:02d}",
                duration_s=data.draw(st.sampled_from([0.0, 5.0, 30.0, 42.15, 60.0, 600.0])),
                m1=data.draw(st.integers(max(0, k - 1), k + 1)),
                k_auto=k,
                label=data.draw(labels),
            ))
        if data.draw(st.booleans()):
            spec = ClassifierSpec(KIND_COMBINED, threshold=data.draw(st.floats(-1.0, 30.0)))
        else:
            spec = ClassifierSpec(KIND_COMBINED, target_share=data.draw(st.floats(0.0, 1.0)))
        scheme = data.draw(st.sampled_from([NO_FIRST, WITH_FIRST, COMBINED]))
        expected = reference_breakdown(records, RATES, scheme, spec)
        if records and records[0].label == UNLABELED:
            records = classify(records, spec)
        got = cost_breakdown(records, RATES, scheme, spec)
        assert (got.c_u, got.c_s0, got.c_sz) == expected


class TestBreakdownAndHooks:
    def test_breakdown_carries_per_record_costs(self):
        breakdown = cost_breakdown(mixed_campaign(), RATES, SCHEME_NO_FIRST_COUNT)
        assert len(breakdown.per_record) == 5
        assert dict(breakdown.per_record)["d00002"] == pytest.approx(
            counting_cost(90.0, RATES)
        )
        assert breakdown.scheme == SCHEME_NO_FIRST_COUNT
        assert breakdown.cost_params().c_sz == pytest.approx(2.2 * MEAN_SAFE, rel=1e-12)

    @pytest.mark.parametrize("scheme", [NO_FIRST, WITH_FIRST, COMBINED])
    def test_unlabeled_records_are_refused_by_name(self, scheme):
        # an unlabeled record belongs to no stratum, so pricing it is an error
        records = mixed_campaign()
        records[1] = relabel(records[1], UNLABELED, None)
        records[3] = relabel(records[3], UNLABELED, None)
        with pytest.raises(ValueError, match=r"^records are unlabeled: d00001, d00003$"):
            cost_breakdown(records, RATES, scheme, combined(threshold=5.0))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown cost scheme 'bogus'"):
            cost_breakdown(mixed_campaign(), RATES, "bogus")

    def test_with_first_count_scheme_via_breakdown(self):
        breakdown = cost_breakdown(mixed_campaign(), RATES, SCHEME_WITH_FIRST_COUNT)
        assert breakdown.c_s0 == pytest.approx(MEAN_SAFE, rel=1e-12)
