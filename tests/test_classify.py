import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from apcval.classify import (
    KIND_ALL_SAFE,
    KIND_ALL_UNSAFE,
    KIND_COMBINED,
    KIND_CONFIDENCE_ONLY,
    KIND_CONFIDENCE_WITH_COUNT,
    KIND_FIRST_COUNT,
    KIND_RULE_OF_THUMB,
    ClassifierSpec,
    classify,
    draw_sample,
    first_stage_unsafe,
)
from apcval.domain import SAFE, UNSAFE, DopRecord, relabel


def safe_share(labeled: list[DopRecord]) -> float:
    return sum(r.label == SAFE for r in labeled) / len(labeled)


def reference_combined_classify(
    records: list[DopRecord], first: ClassifierSpec
) -> tuple[list[DopRecord], list[int | None]]:
    """The combined classifier as two calls: the first stage, then reclassification.

    Returns the final records and a flag per record: 0 for safe at the first
    stage, 1 for reclassified safe, None for unsafe.
    """
    provisional = classify(records, first)
    missing = [
        r.dop_id for r in provisional if r.label == UNSAFE and r.m1 is None
    ]
    if missing:
        more = f", … and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise ValueError(
            f"provisionally unsafe records lack a first manual count: "
            f"{', '.join(missing[:10])}{more}"
        )
    final: list[DopRecord] = []
    flags: list[int | None] = []
    for r in provisional:
        if r.label == SAFE:
            final.append(r)
            flags.append(0)
        elif r.m1 == r.k_auto:
            final.append(relabel(r, SAFE, r.sampled))
            flags.append(1)
        else:
            final.append(r)
            flags.append(None)
    return final, flags


class TestClassifierSpec:
    def test_threshold_and_share_are_exclusive(self):
        with pytest.raises(ValueError):
            ClassifierSpec(kind=KIND_FIRST_COUNT, threshold=0.0, target_share=0.5)
        with pytest.raises(ValueError):
            ClassifierSpec(kind=KIND_FIRST_COUNT)

    def test_degenerate_kinds_take_no_rule(self):
        with pytest.raises(ValueError):
            ClassifierSpec(kind=KIND_ALL_SAFE, threshold=1.0)
        ClassifierSpec(kind=KIND_ALL_SAFE)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ClassifierSpec(kind="oracle")

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_threshold_must_be_finite(self, threshold):
        with pytest.raises(ValueError, match="classifier.threshold must be finite"):
            ClassifierSpec(kind=KIND_FIRST_COUNT, threshold=threshold)


class TestClassify:
    def test_all_safe(self):
        records = [make_record(i, 2, 2, UNSAFE) for i in range(5)]
        spec = ClassifierSpec(kind=KIND_ALL_SAFE)
        labeled = classify(records, spec)
        assert first_stage_unsafe(records, spec) == [False] * 5
        assert safe_share(labeled) == 1.0

    def test_all_unsafe(self):
        records = [make_record(i, 2, 2, SAFE) for i in range(5)]
        spec = ClassifierSpec(kind=KIND_ALL_UNSAFE)
        labeled = classify(records, spec)
        assert first_stage_unsafe(records, spec) == [False] * 5  # no first stage
        assert safe_share(labeled) == 0.0

    def test_first_count_exact_match_rule(self):
        records = [
            make_record(0, 3, 3, UNSAFE),
            make_record(1, 4, 4, UNSAFE),
            make_record(2, 3, 5, UNSAFE),
        ]
        labeled = classify(records, ClassifierSpec(kind=KIND_FIRST_COUNT, threshold=0.0))
        assert [r.label for r in labeled] == [SAFE, SAFE, UNSAFE]
        assert safe_share(labeled) == pytest.approx(2 / 3)

    def test_confidence_with_count_lexicographic(self):
        records = [
            DopRecord(dop_id="a", k_auto=5, alg_count=5, alg_confidence=0.9),
            DopRecord(dop_id="b", k_auto=5, alg_count=5, alg_confidence=0.2),
            DopRecord(dop_id="c", k_auto=5, alg_count=6, alg_confidence=0.99),
        ]
        spec = ClassifierSpec(kind=KIND_CONFIDENCE_WITH_COUNT, target_share=2 / 3)
        labeled = classify(records, spec)
        assert [r.label for r in labeled] == [SAFE, SAFE, UNSAFE]
        assert safe_share(labeled) == pytest.approx(2 / 3)

    def test_confidence_only_threshold(self):
        records = [
            DopRecord(dop_id="a", k_auto=1, alg_confidence=0.95),
            DopRecord(dop_id="b", k_auto=1, alg_confidence=0.50),
        ]
        spec = ClassifierSpec(kind=KIND_CONFIDENCE_ONLY, threshold=0.1)
        labeled = classify(records, spec)
        assert [r.label for r in labeled] == [SAFE, UNSAFE]

    def test_rule_of_thumb_rate_and_zero_duration(self):
        records = [
            DopRecord(dop_id="a", k_auto=2, m1=2, duration_s=60.0),   # 2/min
            DopRecord(dop_id="b", k_auto=30, m1=30, duration_s=60.0),  # 30/min
            DopRecord(dop_id="c", k_auto=0, m1=0, duration_s=0.0),    # unscorable
        ]
        spec = ClassifierSpec(kind=KIND_RULE_OF_THUMB, threshold=10.0)
        labeled = classify(records, spec)
        assert [r.label for r in labeled] == [SAFE, UNSAFE, UNSAFE]

    def test_rule_of_thumb_count_source_switch(self):
        # the first manual count when present, the automatic count otherwise
        spec = ClassifierSpec(kind=KIND_RULE_OF_THUMB, threshold=10.0)
        with_m1 = DopRecord(dop_id="a", k_auto=30, m1=2, duration_s=60.0)
        without_m1 = DopRecord(dop_id="a", k_auto=30, duration_s=60.0)
        assert classify([with_m1], spec)[0].label == SAFE
        assert classify([without_m1], spec)[0].label == UNSAFE

    def test_missing_required_field(self):
        records = [DopRecord(dop_id="a", k_auto=1, m1=1, alg_count=1, alg_confidence=0.5),
                   DopRecord(dop_id="b", k_auto=1, alg_count=1),
                   DopRecord(dop_id="c", k_auto=1)]
        for kind, message in (
            (KIND_FIRST_COUNT, "b: first manual count required for first_count"),
            (KIND_CONFIDENCE_ONLY, "b: alg_confidence required for confidence_only"),
            (KIND_CONFIDENCE_WITH_COUNT,
             "b: alg_count and alg_confidence required for confidence_with_count"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                classify(records, ClassifierSpec(kind=kind, threshold=0.5))

    def test_empty_campaign(self):
        for spec in (ClassifierSpec(kind=KIND_ALL_SAFE),
                     ClassifierSpec(kind=KIND_COMBINED, threshold=1.0)):
            assert classify([], spec) == []
            assert first_stage_unsafe([], spec) == []

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_permutation_invariance(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        deltas = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        records = [
            DopRecord(dop_id=f"r{i:03d}", k_auto=4, m1=4 + d) for i, d in enumerate(deltas)
        ]
        share = data.draw(st.floats(min_value=0, max_value=1))
        spec = ClassifierSpec(kind=KIND_FIRST_COUNT, target_share=share)
        labeled = classify(records, spec)
        by_id = {r.dop_id: r.label for r in labeled}

        perm = data.draw(st.permutations(records))
        labeled_perm = classify(list(perm), spec)
        assert {r.dop_id: r.label for r in labeled_perm} == by_id
        assert abs(safe_share(labeled) - share) <= 1.0 / n + 1e-12


class TestCombinedClassify:
    def combined(self, threshold=10.0):
        return ClassifierSpec(kind=KIND_COMBINED, threshold=threshold)

    def test_first_marks_all_safe(self):
        records = [DopRecord(dop_id=f"r{i}", k_auto=1, m1=1, duration_s=600.0) for i in range(3)]
        assert all(r.label == SAFE for r in classify(records, self.combined()))
        assert first_stage_unsafe(records, self.combined()) == [False] * 3

    def test_reclassification_on_count_agreement(self):
        r = DopRecord(dop_id="x", k_auto=25, m1=25, duration_s=60.0)  # 25/min: unsafe
        assert classify([r], self.combined())[0].label == SAFE
        assert first_stage_unsafe([r], self.combined()) == [True]

    def test_four_record_hand_case(self):
        records = [
            DopRecord(dop_id="a", k_auto=2, m1=2, duration_s=60.0),    # 2/min safe
            DopRecord(dop_id="b", k_auto=20, m1=20, duration_s=60.0),  # unsafe, counts agree
            DopRecord(dop_id="c", k_auto=30, m1=28, duration_s=60.0),  # unsafe, disagree
            DopRecord(dop_id="d", k_auto=1, m1=1, duration_s=600.0),   # 0.1/min safe
        ]
        labeled = classify(records, self.combined())
        assert [r.label for r in labeled] == [SAFE, SAFE, UNSAFE, SAFE]
        assert first_stage_unsafe(records, self.combined()) == [False, True, True, False]
        assert safe_share(labeled) == 0.75

    def test_missing_first_count_on_provisional_unsafe(self):
        r = DopRecord(dop_id="x", k_auto=25, duration_s=60.0)
        with pytest.raises(ValueError, match="first manual count"):
            classify([r], self.combined())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_two_stage_reference(self, data):
        n = data.draw(st.integers(min_value=0, max_value=25))
        # a campaign without missing m1 takes the reclassification path
        may_lack_m1 = data.draw(st.booleans())
        records = [
            DopRecord(
                dop_id=f"r{data.draw(st.integers(0, 30)):02d}",  # ids may repeat
                k_auto=k,
                m1=data.draw(st.integers(max(0, k - 2), k + 2)
                             | (st.none() if may_lack_m1 else st.nothing())),
                m2=data.draw(st.none() | st.integers(max(0, k - 1), k + 1)),
                duration_s=data.draw(st.sampled_from([0.0, 5.0, 30.0, 60.0, 600.0])),
            )
            for k in data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
        ]
        if data.draw(st.booleans()):
            rule = {"threshold": data.draw(st.floats(-1.0, 200.0))}
        else:
            rule = {"target_share": data.draw(st.floats(0.0, 1.0))}
        spec = ClassifierSpec(kind=KIND_COMBINED, **rule)
        try:
            expected, flags = reference_combined_classify(
                records, ClassifierSpec(kind=KIND_RULE_OF_THUMB, **rule)
            )
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                classify(records, spec)
            assert str(got.value) == str(exc)
            return
        assert classify(records, spec) == expected
        # the first stage marks unsafe exactly the reclassified and the still unsafe records
        assert first_stage_unsafe(records, spec) == [flag != 0 for flag in flags]


class TestDrawSample:
    def test_full_quota(self):
        mask = draw_sample([f"id{i}" for i in range(7)], 1.0, seed=1)
        assert mask.all()

    def test_exact_ceiling(self):
        mask = draw_sample([f"id{i}" for i in range(7)], 0.5, seed=1)
        assert int(mask.sum()) == 4

    def test_deterministic_and_order_free(self):
        ids = [f"id{i:02d}" for i in range(20)]
        mask1 = draw_sample(ids, 0.3, seed=42)
        mask2 = draw_sample(ids, 0.3, seed=42)
        assert (mask1 == mask2).all()
        shuffled = list(reversed(ids))
        mask3 = draw_sample(shuffled, 0.3, seed=42)
        chosen1 = {i for i, m in zip(ids, mask1) if m}
        chosen3 = {i for i, m in zip(shuffled, mask3) if m}
        assert chosen1 == chosen3

    def test_different_seeds_differ(self):
        ids = [f"id{i:02d}" for i in range(50)]
        assert (draw_sample(ids, 0.5, 1) != draw_sample(ids, 0.5, 2)).any()

    def test_empty_safe_set(self):
        with pytest.raises(ValueError, match="empty"):
            draw_sample([], 0.5, seed=1)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=500),
        q=st.floats(min_value=1e-3, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_selection_count_is_exact(self, n, q, seed):
        from apcval.planner import counted_count

        mask = draw_sample(list(range(n)), q, seed)
        assert int(mask.sum()) == counted_count(q, n)

    def test_selection_frequency_uniform(self):
        # each of 10 ids should be drawn about half the time over many seeds
        ids = list(range(10))
        reps = 40_000
        counts = np.zeros(10)
        for seed in range(reps):
            counts += draw_sample(ids, 0.5, seed)
        freq = counts / reps
        assert np.all(np.abs(freq - 0.5) < 0.01)
