"""Safe/unsafe partitioners and the seeded counting sampler.

Every classifier reduces to an unsafety score (higher = less safe) plus a
decision rule: either an inclusive threshold (safe iff score <= threshold)
or a target share (the lowest-scoring share of records becomes safe, ties
broken by ascending dop_id). The sampler draws the counted subset of the
safe partition uniformly without replacement, reproducibly from a seed and
independently of every measured value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import SAFE, UNSAFE, DopRecord, relabel
from .estimator import _differences, _fmean, _moments
from .planner import counted_count

KIND_ALL_SAFE = "all_safe"
KIND_ALL_UNSAFE = "all_unsafe"
KIND_RULE_OF_THUMB = "rule_of_thumb"
KIND_FIRST_COUNT = "first_count"
KIND_CONFIDENCE_ONLY = "confidence_only"
KIND_CONFIDENCE_WITH_COUNT = "confidence_with_count"
KIND_COMBINED = "combined"

KINDS = (
    KIND_ALL_SAFE,
    KIND_ALL_UNSAFE,
    KIND_RULE_OF_THUMB,
    KIND_FIRST_COUNT,
    KIND_CONFIDENCE_ONLY,
    KIND_CONFIDENCE_WITH_COUNT,
    KIND_COMBINED,
)
# combined is scored too: its first stage runs a score-based classifier
_SCORED_KINDS = (
    KIND_RULE_OF_THUMB,
    KIND_FIRST_COUNT,
    KIND_CONFIDENCE_ONLY,
    KIND_CONFIDENCE_WITH_COUNT,
    KIND_COMBINED,
)

RATE_MANUAL_FIRST = "m1_fallback"
RATE_AUTO = "k_auto"


@dataclass(frozen=True, slots=True)
class ClassifierSpec:
    """Choice of partitioner plus its decision rule.

    Score-based kinds need exactly one of `threshold` (inclusive on the
    safe side; applied to the primary score component) or `target_share`
    (desired safe share). `rate_counts` selects the count source of the
    passengers-per-minute rule: first manual count with automatic-count
    fallback, or automatic counts only.
    """

    kind: str
    threshold: float | None = None
    target_share: float | None = None
    rate_counts: str = RATE_MANUAL_FIRST

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        scored = self.kind in _SCORED_KINDS
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
        if self.rate_counts not in (RATE_MANUAL_FIRST, RATE_AUTO):
            raise ValueError(f"unknown rate_counts {self.rate_counts!r}")


def _unsafety_score(record: DopRecord, spec: ClassifierSpec) -> tuple[float, float]:
    """(primary, tiebreak) unsafety score; raises on missing inputs."""
    r = record
    if spec.kind == KIND_RULE_OF_THUMB:
        if spec.rate_counts == RATE_MANUAL_FIRST and r.m1 is not None:
            count = r.m1
        else:
            count = r.k_auto
        if r.duration_s <= 0.0:
            return (math.inf, 0.0)
        return (count / (r.duration_s / 60.0), 0.0)
    if spec.kind == KIND_FIRST_COUNT:
        if r.m1 is None:
            raise ValueError(f"{r.dop_id}: first manual count required for {spec.kind}")
        return (float(abs(r.k_auto - r.m1)), 0.0)
    if spec.kind == KIND_CONFIDENCE_ONLY:
        if r.alg_confidence is None:
            raise ValueError(f"{r.dop_id}: alg_confidence required for {spec.kind}")
        return (1.0 - r.alg_confidence, 0.0)
    if spec.kind == KIND_CONFIDENCE_WITH_COUNT:
        if r.alg_count is None or r.alg_confidence is None:
            raise ValueError(
                f"{r.dop_id}: alg_count and alg_confidence required for {spec.kind}"
            )
        return (float(abs(r.k_auto - r.alg_count)), 1.0 - r.alg_confidence)
    raise ValueError(f"{spec.kind} does not produce scores")


def classify(
    records: list[DopRecord], spec: ClassifierSpec
) -> tuple[list[DopRecord], float]:
    """Assign safe/unsafe labels; returns the new records and the safe share.

    Deterministic and independent of input order up to the dop_id
    tie-break in target-share mode.
    """
    if spec.kind == KIND_COMBINED:
        raise ValueError("combined classification is performed by combined_classify")
    if not records:
        return [], 0.0
    if spec.kind == KIND_ALL_SAFE:
        return [relabel(r, SAFE, r.sampled) for r in records], 1.0
    if spec.kind == KIND_ALL_UNSAFE:
        return [relabel(r, UNSAFE, r.sampled) for r in records], 0.0

    safe_flags = _safe_flags(records, spec)
    labeled = [
        relabel(r, SAFE if flag else UNSAFE, r.sampled)
        for r, flag in zip(records, safe_flags)
    ]
    return labeled, sum(safe_flags) / len(records)


def _safe_flags(records: list[DopRecord], spec: ClassifierSpec) -> list[bool]:
    """Whether a score-based classifier marks each record safe."""
    scores = [_unsafety_score(r, spec) for r in records]
    if spec.threshold is not None:
        return [s[0] <= spec.threshold for s in scores]
    n = len(records)
    n_safe = min(n, max(0, round(spec.target_share * n)))
    order = sorted(range(n), key=lambda i: (scores[i], records[i].dop_id))
    safe_flags = [False] * n
    for i in order[:n_safe]:
        safe_flags[i] = True
    return safe_flags


def combined_classify(
    records: list[DopRecord], first: ClassifierSpec
) -> tuple[list[DopRecord], dict[str, int]]:
    """Two-stage classification: a first classifier, then reclassification.

    Records the first classifier marks safe stay safe (flag 0).
    Provisionally unsafe records become safe with flag 1 when their first
    manual count equals the automatic count, else stay unsafe. The flags
    feed the combined cost attribution. Every provisionally unsafe record
    must carry a first manual count.
    """
    provisional, _ = classify(records, first)
    missing = [
        r.dop_id for r in provisional if r.label == UNSAFE and r.m1 is None
    ]
    if missing:
        raise ValueError(
            f"provisionally unsafe records lack a first manual count: {', '.join(missing)}"
        )
    final: list[DopRecord] = []
    flags: dict[str, int] = {}
    for r in provisional:
        if r.label == SAFE:
            final.append(r)
            flags[r.dop_id] = 0
        elif r.m1 == r.k_auto:
            final.append(relabel(r, SAFE, r.sampled))
            flags[r.dop_id] = 1
        else:
            final.append(r)
    return final, flags


def _sample_mask(n: int, q0: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement mask with exactly ceil(q0*n) entries set."""
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
    rank_mask = _sample_mask(n, q0, np.random.default_rng(seed))
    order = np.argsort(np.asarray(safe_ids), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[rank_mask]] = True
    return mask


@dataclass(frozen=True, slots=True)
class PartitionEstimate:
    """Plug-in partition parameters estimated from counted pilot data."""

    p_s: float
    mu_s: float | None
    mu_u: float | None
    nu_s: float | None
    nu_u: float | None
    nu: float

    @property
    def nu_s_ratio(self) -> float | None:
        if self.nu_s is None or self.nu == 0.0:
            return None
        return self.nu_s / self.nu


def partition_stats_estimate(records: list[DopRecord]) -> PartitionEstimate:
    """Estimate per-stratum means/deviations and the composite deviation.

    Input must be labeled; each nonempty stratum needs at least one
    counted record. The composite variance recombines the strata:
    p_s*nu_s^2 + p_u*nu_u^2 + p_s*p_u*(mu_s - mu_u)^2.
    """
    if not records:
        raise ValueError("no records")
    unlabeled = [r.dop_id for r in records if r.label not in (SAFE, UNSAFE)]
    if unlabeled:
        raise ValueError(f"records are unlabeled: {', '.join(unlabeled)}")
    n = len(records)
    safe = [r for r in records if r.label == SAFE]
    unsafe = [r for r in records if r.label == UNSAFE]
    counted_s = [r for r in safe if r.m_final is not None]
    counted_u = [r for r in unsafe if r.m_final is not None]
    if safe and not counted_s:
        raise ValueError("safe stratum has no counted records")
    if unsafe and not counted_u:
        raise ValueError("unsafe stratum has no counted records")

    m_bar = _fmean([r.m_final for r in counted_s + counted_u])
    if m_bar <= 0.0:
        raise ValueError("campaign has no boarding passengers (mean count is 0)")

    mu_s, nu_s = _moments(_differences(counted_s, m_bar))
    mu_u, nu_u = _moments(_differences(counted_u, m_bar))
    # a single counted record reports no spread rather than an undefined one
    nu_s = 0.0 if len(counted_s) == 1 else nu_s
    nu_u = 0.0 if len(counted_u) == 1 else nu_u
    p_s = len(safe) / n
    p_u = 1.0 - p_s
    nu2 = 0.0
    if counted_s:
        nu2 += p_s * nu_s**2
    if counted_u:
        nu2 += p_u * nu_u**2
    if counted_s and counted_u:
        nu2 += p_s * p_u * (mu_s - mu_u) ** 2
    return PartitionEstimate(
        p_s=p_s, mu_s=mu_s, mu_u=mu_u, nu_s=nu_s, nu_u=nu_u, nu=math.sqrt(nu2)
    )
