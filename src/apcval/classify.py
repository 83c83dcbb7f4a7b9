"""Safe/unsafe partitioners and the seeded counting sampler.

Every classifier reduces to an unsafety score (higher = less safe) plus a
decision rule: either an inclusive threshold (safe iff score <= threshold)
or a target share (the lowest-scoring share of records becomes safe, ties
broken by ascending dop_id). The sampler draws the counted subset of the
safe partition uniformly without replacement, reproducibly from a seed and
independently of every measured value; only the sampler imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

from .domain import SAFE, UNSAFE, DopRecord, _id_list, relabel
from .planner import counted_count

if TYPE_CHECKING:
    import numpy as np

KIND_ALL_SAFE = "all_safe"
KIND_ALL_UNSAFE = "all_unsafe"
KIND_RULE_OF_THUMB = "rule_of_thumb"
KIND_FIRST_COUNT = "first_count"
KIND_CONFIDENCE_ONLY = "confidence_only"
KIND_CONFIDENCE_WITH_COUNT = "confidence_with_count"
KIND_COMBINED = "combined"


def _rule_of_thumb(r: DopRecord) -> tuple[float, float]:
    if r.duration_s <= 0.0:
        return (math.inf, 0.0)
    return ((r.k_auto if r.m1 is None else r.m1) / (r.duration_s / 60.0), 0.0)


# Each scored kind: the fields its score needs, their name in the error text, and the
# (primary, tiebreak) unsafety score of a record that has them. combined is scored as
# the rule of thumb, which is its first stage.
_SCORES = {
    KIND_RULE_OF_THUMB: ((), "", _rule_of_thumb),
    KIND_FIRST_COUNT: (
        ("m1",), "first manual count", lambda r: (float(abs(r.k_auto - r.m1)), 0.0)),
    KIND_CONFIDENCE_ONLY: (
        ("alg_confidence",), "alg_confidence", lambda r: (1.0 - r.alg_confidence, 0.0)),
    KIND_CONFIDENCE_WITH_COUNT: (
        ("alg_count", "alg_confidence"), "alg_count and alg_confidence",
        lambda r: (float(abs(r.k_auto - r.alg_count)), 1.0 - r.alg_confidence)),
    KIND_COMBINED: ((), "", _rule_of_thumb),
}
KINDS = (KIND_ALL_SAFE, KIND_ALL_UNSAFE, *_SCORES)


@dataclass(frozen=True, slots=True)
class ClassifierSpec:
    """Choice of partitioner plus its decision rule.

    Score-based kinds need exactly one of `threshold` (inclusive on the
    safe side; applied to the primary score component) or `target_share`
    (desired safe share). The rule of thumb rates passengers per minute
    from `m1`, or from `k_auto` where `m1` is absent. For `combined` the
    threshold or target share is that of its first stage, the rule of
    thumb.
    """

    kind: str
    threshold: float | None = None
    target_share: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        scored = self.kind in _SCORES
        given = (self.threshold is not None) + (self.target_share is not None)
        if scored and given != 1:
            raise ValueError(
                f"{self.kind} needs exactly one of threshold/target_share"
            )
        if not scored and given:
            raise ValueError(f"{self.kind} takes neither threshold nor target_share")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError(f"classifier.threshold must be finite, got {self.threshold}")
        if self.target_share is not None and not 0.0 <= self.target_share <= 1.0:
            raise ValueError(f"target_share must be in [0, 1], got {self.target_share}")


def classify(records: list[DopRecord], spec: ClassifierSpec) -> list[DopRecord]:
    """Assign safe/unsafe labels; returns the relabeled records.

    Deterministic and independent of input order up to the dop_id
    tie-break in target-share mode. `combined` classifies in two stages:
    records its first stage (the rule of thumb) marks safe are safe; the
    ones it marks unsafe (`first_stage_unsafe`) are reclassified safe when
    their first manual count equals the automatic count, else stay unsafe.
    Every provisionally unsafe record must carry a first manual count.
    """
    safe_flags = _safe_flags(records, spec)
    if spec.kind == KIND_COMBINED:
        missing = [r.dop_id for r, safe in zip(records, safe_flags) if not safe and r.m1 is None]
        if missing:
            raise ValueError(
                f"provisionally unsafe records lack a first manual count: {_id_list(missing)}"
            )
        safe_flags = [safe or r.m1 == r.k_auto for r, safe in zip(records, safe_flags)]
    return [relabel(r, SAFE if safe else UNSAFE, r.sampled)
            for r, safe in zip(records, safe_flags)]


def first_stage_unsafe(records: list[DopRecord], spec: ClassifierSpec) -> list[bool]:
    """Whether the first stage of a `combined` classifier marks each record unsafe.

    A safe record marked so was reclassified: its first manual count was
    paid before classification, which the combined cost scheme sinks. All
    False for every other kind, which has no first stage.
    """
    if spec.kind != KIND_COMBINED:
        return [False] * len(records)
    return [not safe for safe in _safe_flags(records, spec)]


def _safe_flags(records: list[DopRecord], spec: ClassifierSpec) -> list[bool]:
    """Whether the classifier, for combined its first stage, marks each record safe."""
    if spec.kind in (KIND_ALL_SAFE, KIND_ALL_UNSAFE):
        return [spec.kind == KIND_ALL_SAFE] * len(records)
    needs, name, score = _SCORES[spec.kind]
    if any(None in map(attrgetter(field), records) for field in needs):
        r = next(r for r in records if None in [getattr(r, field) for field in needs])
        raise ValueError(f"{r.dop_id}: {name} required for {spec.kind}")
    scores = list(map(score, records))
    if spec.threshold is not None:
        return [s[0] <= spec.threshold for s in scores]
    n = len(records)
    n_safe = min(n, max(0, round(spec.target_share * n)))
    order = sorted(range(n), key=lambda i: (scores[i], records[i].dop_id))
    safe_flags = [False] * n
    for i in order[:n_safe]:
        safe_flags[i] = True
    return safe_flags


def _sample_mask(n: int, q0: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement mask with exactly ceil(q0*n) entries set."""
    import numpy as np  # only the samplers need numpy, so labeling runs without it
    m = counted_count(q0, n)
    chosen = rng.choice(n, size=m, replace=False, shuffle=False)
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    return mask


def draw_sample(safe_ids: Sequence, q0: float, seed: int) -> np.ndarray:
    """Draw the counted subset of the safe partition.

    Returns a boolean mask aligned with `safe_ids` with exactly
    ceil(q0 * len(safe_ids)) entries set, drawn uniformly without
    replacement. Deterministic given the seed and the set of ids (the ids
    are ranked canonically, so input order does not matter); independent
    of all count fields by construction.
    """
    n = len(safe_ids)
    if n == 0:
        raise ValueError("safe partition is empty")
    import numpy as np
    rank_mask = _sample_mask(n, q0, np.random.default_rng(seed))
    order = np.argsort(np.asarray(safe_ids), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[rank_mask]] = True
    return mask
