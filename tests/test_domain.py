import math
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import every_field_set, fully_counted_campaign, loadable_campaigns, loadable_records
from apcval.domain import (
    LABELS,
    SAFE,
    UNLABELED,
    UNSAFE,
    CostParams,
    CostRates,
    DopRecord,
    PartitionParams,
    TestParams,
    _id_list,
    campaign_violations,
    ground_truth,
    relabel,
    validate_record,
)


def rec(**kwargs) -> DopRecord:
    base = dict(dop_id="d1", k_auto=3)
    base.update(kwargs)
    return DopRecord(**base)


class TestRelabel:
    def test_equals_replace_on_every_field(self):
        record = every_field_set()
        for name in DopRecord._fields:
            assert getattr(record, name) not in (DopRecord._field_defaults.get(name), None)
        for label in (*LABELS, "other"):
            for sampled in (True, False, None):
                result = relabel(record, label, sampled)
                assert type(result) is DopRecord  # tuple equality ignores the type
                assert result == record._replace(label=label, sampled=sampled)


class TestRecordContract:
    """The tuple layout that `io.load_campaign` and `relabel` build and
    `io.save_campaign` unpacks, by position."""

    def test_field_order_and_annotations(self):
        assert typing.get_type_hints(DopRecord) == {
            "dop_id": str,
            "k_auto": int,
            "duration_s": float,
            "m1": int | None,
            "m2": int | None,
            "m_sup": int | None,
            "m_final": int | None,
            "alg_count": int | None,
            "alg_confidence": float | None,
            "label": str,
            "sampled": bool | None,
        }
        assert DopRecord._fields == tuple(typing.get_type_hints(DopRecord))

    def test_defaults(self):
        assert DopRecord._field_defaults == {
            "duration_s": 0.0, "m1": None, "m2": None, "m_sup": None, "m_final": None,
            "alg_count": None, "alg_confidence": None, "label": UNLABELED, "sampled": None,
        }
        assert DopRecord("d1", 3) == DopRecord(
            "d1", 3, 0.0, None, None, None, None, None, None, UNLABELED, None
        )

    def test_fields_cannot_be_assigned(self):
        record = every_field_set()
        for name in DopRecord._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1  # no per-instance dictionary either
        assert record == every_field_set()

    def test_repr_is_the_dataclass_repr(self):
        # pinned from the frozen dataclass that `DopRecord` was before
        assert repr(every_field_set()) == (
            "DopRecord(dop_id='dop_id-0', k_auto=11, duration_s=0.53125, m1=13, m2=14, "
            "m_sup=15, m_final=16, alg_count=17, alg_confidence=0.625, label='label-9', "
            "sampled=True)"
        )

    def test_tuple_semantics(self):
        record = every_field_set()
        assert len(record) == len(DopRecord._fields)
        assert record == tuple(record) and type(tuple(record)) is tuple
        dop_id, k_auto, *_, label, sampled = record
        assert (dop_id, k_auto, label, sampled) == (record.dop_id, 11, "label-9", True)


class TestValidateRecord:
    def test_unsafe_without_ground_truth(self):
        violations = validate_record(rec(label=UNSAFE))
        assert any("lacks ground truth" in v for v in violations)

    def test_fully_valid(self):
        assert validate_record(rec(m1=3, m_final=3, label=UNSAFE)) == []
        assert validate_record(rec()) == []

    def test_sampled_safe_without_ground_truth(self):
        violations = validate_record(rec(label=SAFE, sampled=True))
        assert any("sampled safe" in v and "ground truth" in v for v in violations)

    def test_m_final_requires_m1(self):
        violations = validate_record(rec(m_final=3))
        assert any("first manual count" in v for v in violations)

    def test_m_final_must_be_the_resolved_ground_truth(self):
        assert validate_record(rec(m1=4, m2=4, m_final=9)) == [
            "d1: m_final must equal the ground truth 4 of m1=4, m2=4, m_sup=None, got 9"
        ]
        assert validate_record(rec(m1=4, m2=5, m_sup=4, m_final=5)) == [
            "d1: m_final must equal the ground truth 4 of m1=4, m2=5, m_sup=4, got 5"
        ]
        assert validate_record(rec(m1=4, m2=5, m_sup=5, m_final=5)) == []
        assert validate_record(rec(m1=4, m2=4)) == [
            "d1: m_final must equal the ground truth 4 of m1=4, m2=4, m_sup=None, got None"
        ]

    def test_unresolved_conflict_leaves_m_final_absent(self):
        assert validate_record(rec(m1=2, m2=3, m_final=2)) == [
            "d1: m_final must be absent while m1=2 and m2=3 disagree without m_sup, got 2"
        ]
        assert validate_record(rec(m1=2, m2=3)) == []

    def test_without_second_count_m_final_is_kept(self):
        assert validate_record(rec(m1=2, m_final=5)) == []

    @given(
        st.integers(min_value=0, max_value=3) | st.none(),
        st.integers(min_value=0, max_value=3) | st.none(),
        st.integers(min_value=0, max_value=3) | st.none(),
        st.integers(min_value=0, max_value=3) | st.none(),
    )
    def test_ground_truth_violation_iff_both_counts_and_a_mismatch(self, m1, m2, m_sup, m_final):
        violations = validate_record(rec(m1=m1, m2=m2, m_sup=m_sup, m_final=m_final))
        flagged = any("ground truth" in v or "disagree" in v for v in violations)
        assert flagged == (m1 is not None and m2 is not None
                           and m_final != ground_truth(m1, m2, m_sup))

    def test_negative_counts_flagged(self):
        violations = validate_record(rec(k_auto=-1, m1=-2))
        assert len(violations) >= 2

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_duration_flagged(self, duration):
        violations = validate_record(rec(duration_s=duration))
        assert violations == [f"d1: duration_s must be finite, got {duration}"]

    def test_bad_confidence(self):
        assert validate_record(rec(alg_confidence=1.5))

    @given(
        st.integers(min_value=-3, max_value=5) | st.none(),
        st.integers(min_value=-3, max_value=5) | st.none(),
        st.sampled_from([SAFE, UNSAFE, UNLABELED, "junk"]),
        st.booleans() | st.none(),
        st.floats(allow_nan=False, min_value=-1, max_value=2) | st.none(),
    )
    def test_total_never_raises(self, m1, m_final, label, sampled, conf):
        r = rec(m1=m1, m_final=m_final, label=label, sampled=sampled, alg_confidence=conf)
        assert validate_record(r) == reference_validate_record(r)


def reference_validate_record(record: DopRecord) -> list[str]:
    """The record-by-record `validate_record` that `campaign_violations` replaced."""
    violations: list[str] = []
    r = record
    if not math.isfinite(r.duration_s):
        violations.append(f"{r.dop_id}: duration_s must be finite, got {r.duration_s}")
    elif r.duration_s < 0:
        violations.append(f"{r.dop_id}: duration_s must be >= 0, got {r.duration_s}")
    for name in ("m1", "m2", "m_sup", "m_final", "k_auto", "alg_count"):
        value = getattr(r, name)
        if value is not None and value < 0:
            violations.append(f"{r.dop_id}: {name} must be >= 0, got {value}")
    if r.alg_confidence is not None and not 0.0 <= r.alg_confidence <= 1.0:
        violations.append(
            f"{r.dop_id}: alg_confidence must be in [0, 1], got {r.alg_confidence}"
        )
    if r.label not in LABELS:
        violations.append(f"{r.dop_id}: unknown label {r.label!r}")
    if r.m_final is not None and r.m1 is None:
        violations.append(f"{r.dop_id}: m_final present without a first manual count")
    if r.m2 is not None and r.m1 is not None and not r.m_final == r.m1 == r.m2:
        truth = ground_truth(r.m1, r.m2, r.m_sup)
        if r.m_final != truth:
            violations.append(
                f"{r.dop_id}: m_final must be absent while m1={r.m1} and m2={r.m2} "
                f"disagree without m_sup, got {r.m_final}" if truth is None else
                f"{r.dop_id}: m_final must equal the ground truth {truth} of m1={r.m1}, "
                f"m2={r.m2}, m_sup={r.m_sup}, got {r.m_final}"
            )
    if r.label == UNSAFE and r.m_final is None:
        violations.append(f"{r.dop_id}: unsafe record lacks ground truth")
    if r.label == SAFE and r.sampled is True and r.m_final is None:
        violations.append(f"{r.dop_id}: sampled safe record lacks ground truth")
    return violations


def _reference_violations(records: list[DopRecord]) -> list[str]:
    return [v for r in records for v in reference_validate_record(r)]


# One record per kind of violation, each refused by `reference_validate_record`.
VIOLATION_KINDS = [
    dict(duration_s=-0.5), dict(duration_s=float("nan")), dict(duration_s=float("inf")),
    dict(k_auto=-1), dict(m1=-1), dict(m1=2, m2=-1), dict(m_sup=-1), dict(m1=0, m_final=-1),
    dict(alg_count=-1), dict(alg_confidence=1.5), dict(alg_confidence=-0.1),
    dict(alg_confidence=float("nan")), dict(label="junk"), dict(m_final=3),
    dict(m1=4, m2=4, m_final=9), dict(m1=4, m2=4), dict(m1=4, m2=5, m_sup=4, m_final=5),
    dict(m1=2, m2=3, m_final=2), dict(label=UNSAFE), dict(label=SAFE, sampled=True),
]


class TestCampaignViolations:
    """`campaign_violations` gives the reference's messages, record by record."""

    def test_an_empty_campaign_has_none(self):
        assert campaign_violations([]) == []

    def test_a_consistent_campaign_has_none(self):
        records = fully_counted_campaign(np.random.default_rng(3), 200)
        records += [rec(), rec(m1=2, m_final=5), rec(m1=2, m2=3), rec(m1=4, m2=5, m_sup=5, m_final=5)]
        assert _reference_violations(records) == []
        assert campaign_violations(records) == []

    @pytest.mark.parametrize("fields", VIOLATION_KINDS)
    def test_each_violation_first_and_last_among_clean_records(self, fields):
        first, last = rec(dop_id="first", **fields), rec(dop_id="last", **fields)
        assert reference_validate_record(first) != []
        clean = [r._replace(alg_confidence=0.5, alg_count=r.k_auto)
                 for r in fully_counted_campaign(np.random.default_rng(4), 50)]
        campaign = [first, *clean, last]
        assert campaign_violations(campaign) == _reference_violations(campaign)
        assert validate_record(first) == reference_validate_record(first)

    def test_messages_go_by_record_then_by_check(self):
        records = [rec(dop_id="a", m1=-1, label=UNSAFE), rec(dop_id="b", duration_s=-1.0),
                   rec(dop_id="c", k_auto=-2, m1=4, m2=4, label="junk")]
        assert campaign_violations(records) == [
            "a: m1 must be >= 0, got -1",
            "a: unsafe record lacks ground truth",
            "b: duration_s must be >= 0, got -1.0",
            "c: k_auto must be >= 0, got -2",
            "c: unknown label 'junk'",
            "c: m_final must equal the ground truth 4 of m1=4, m2=4, m_sup=None, got None",
        ]

    @settings(max_examples=500, deadline=None)
    @given(records=loadable_campaigns(8))
    @example(records=[rec(m1=0, m_final=-1)])
    @example(records=[rec(m1=-1, m2=-1, m_final=-1)])
    @example(records=[rec(alg_confidence=0.0), rec(dop_id="d2", alg_confidence=1.0)])
    @example(records=[rec(dop_id=f"d{i}", **fields) for i, fields in enumerate(VIOLATION_KINDS)])
    def test_equals_the_reference_in_record_order(self, records):
        assert campaign_violations(records) == _reference_violations(records)
        assert [validate_record(r) for r in records] == list(map(reference_validate_record, records))


class TestGroundTruth:
    def test_agreement(self):
        assert ground_truth(4, 4, None) == 4

    def test_supervisor_breaks_tie(self):
        assert ground_truth(4, 5, 5) == 5

    def test_unresolved_conflict(self):
        assert ground_truth(4, 5, None) is None

    def test_incomplete_counts(self):
        assert ground_truth(None, 4, 2) is None
        assert ground_truth(4, None, 2) is None

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50) | st.none())
    def test_agreement_wins_over_supervisor(self, a, sup):
        assert ground_truth(a, a, sup) == a


class TestParamContainers:
    def test_test_params_defaults(self):
        p = TestParams()
        assert (p.alpha, p.beta, p.delta) == (0.05, 0.05, 0.01)
        assert (p.nu, p.nu_min, p.buffer) == (0.20, 0.03, 1.15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"beta": -0.1},
            {"delta": 0.0},
            {"nu": -0.5},
            {"nu_min": -0.01},
            {"buffer": 0.9},
        ],
    )
    def test_test_params_invariants(self, kwargs):
        with pytest.raises(ValueError):
            TestParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"p_s": -0.1}, {"p_s": 1.1}, {"q": 0.0}, {"q": 1.5}, {"nu_s_ratio": -1}]
    )
    def test_partition_params_invariants(self, kwargs):
        with pytest.raises(ValueError):
            PartitionParams(**kwargs)

    def test_partition_p_u(self):
        assert PartitionParams(p_s=0.9).p_u == pytest.approx(0.1)

    def test_cost_params_nonnegative(self):
        with pytest.raises(ValueError):
            CostParams(c_u=-1.0, c_s0=0.0, c_sz=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["c_u", "c_s0", "c_sz"])
    def test_cost_params_finite(self, field, value):
        # as its sibling containers: a NaN passes every ">= 0" check and an
        # infinite cost would make the quota optimum meaningless
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            CostParams(**{"c_u": 1.0, "c_s0": 0.0, "c_sz": 1.0, field: value})

    def test_cost_rates_defaults(self):
        r = CostRates()
        assert (r.r_av, r.c_labor, r.r_s) == (0.7, 20.0, 1.2)
        with pytest.raises(ValueError):
            CostRates(r_av=0.0)

    def test_records_are_immutable(self):
        r = rec()
        with pytest.raises(AttributeError):
            r.k_auto = 5


class TestIdList:
    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_up_to_ten_ids_are_joined_in_full(self, n):
        ids = [f"d{i}" for i in range(n)]
        assert _id_list(ids) == ", ".join(ids)

    @pytest.mark.parametrize("n", [11, 5256])
    def test_more_than_ten_ids_show_ten_and_count_the_rest(self, n):
        ids = [f"d{i}" for i in range(n)]
        assert _id_list(ids) == ", ".join(ids[:10]) + f", … and {n - 10} more"
