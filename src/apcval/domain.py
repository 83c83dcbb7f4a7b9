"""Core value types shared by every other module.

Every container is immutable. Parameter containers are frozen dataclasses
that check their fields when built; a result is a plain record that the
one function building it guarantees. `DopRecord`, of which a campaign
holds thousands, is a `NamedTuple`, the cheapest immutable record to
build; it stays permissive (labels and sampling indicators are legal
transient states) and is checked by `validate_record` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import NamedTuple

SAFE = "safe"
UNSAFE = "unsafe"
UNLABELED = "unlabeled"

LABELS = (SAFE, UNSAFE, UNLABELED)

TEST_CLASSIC = "classic"
TEST_PARTITIONED = "partitioned"

# The cost attribution schemes (see `cost.cost_breakdown`)
SCHEME_NO_FIRST_COUNT = "no_first_count"
SCHEME_WITH_FIRST_COUNT = "with_first_count"
SCHEME_COMBINED = "combined"
SCHEMES = (SCHEME_NO_FIRST_COUNT, SCHEME_WITH_FIRST_COUNT, SCHEME_COMBINED)


def _id_list(ids: list[str]) -> str:
    """Record ids for an error message: the first ten, then how many more."""
    head = ", ".join(ids[:10])
    return head if len(ids) <= 10 else f"{head}, … and {len(ids) - 10} more"


def _require_finite(params) -> None:
    """Reject NaN and infinite fields of a parameter container, naming the field."""
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


class DopRecord(NamedTuple):
    """One door opening phase with its counts and workflow state.

    `m1`, `m2` and `m_sup` are the first, second and supervisor manual
    counts; `m_final` is the agreed ground truth and is absent while the
    record has not been comparison-counted. `k_auto` is the count reported
    by the system under validation, `alg_count`/`alg_confidence` come from
    an optional second algorithm. `sampled` is the random counting
    indicator on the safe partition (None = not yet drawn).

    A record is a tuple of its fields in this order: assigning a field
    raises AttributeError, and `r._replace(label=...)` gives a changed
    copy. Like any tuple it iterates, unpacks and has a length, and it
    compares equal to a plain tuple of the same values, so check
    `type(r) is DopRecord` where the type matters.
    """

    dop_id: str
    k_auto: int
    duration_s: float = 0.0
    m1: int | None = None
    m2: int | None = None
    m_sup: int | None = None
    m_final: int | None = None
    alg_count: int | None = None
    alg_confidence: float | None = None
    label: str = UNLABELED
    sampled: bool | None = None


def relabel(r: DopRecord, label: str, sampled: bool | None) -> DopRecord:
    """`r` with the given label and sampling indicator, all else kept.

    Equals `r._replace(label=label, sampled=sampled)` at a fraction of its
    cost: the first nine fields and the two new ones go into one tuple.
    """
    return tuple.__new__(DopRecord, (*r[:9], label, sampled))


def _nonnegative(name: str):
    return lambda v: [] if v is None or v >= 0 else [f"{name} must be >= 0, got {v}"]


def _workflow_state(values) -> list[str]:
    """The label, and the manual counts that the label and sampling indicator need."""
    label, sampled, m1, m2, m_sup, m_final = values
    violations = [] if label in LABELS else [f"unknown label {label!r}"]
    if m_final is not None and m1 is None:
        violations.append("m_final present without a first manual count")
    if m2 is not None and m1 is not None:
        truth = ground_truth(m1, m2, m_sup)
        if m_final != truth:
            violations.append(
                f"m_final must be absent while m1={m1} and m2={m2} disagree without m_sup, "
                f"got {m_final}" if truth is None else
                f"m_final must equal the ground truth {truth} of m1={m1}, m2={m2}, "
                f"m_sup={m_sup}, got {m_final}"
            )
    if label == UNSAFE and m_final is None:
        violations.append("unsafe record lacks ground truth")
    if label == SAFE and sampled is True and m_final is None:
        violations.append("sampled safe record lacks ground truth")
    return violations


# The invariants of a record, in the order of their messages: the field (or tuple of
# fields) a check reads, and the check, which takes its value (or tuple of values) and
# returns the texts of its violations. The workflow state's six fields take few
# combinations, so its checks share one entry.
_INVARIANTS = (
    ("duration_s", lambda d: [f"duration_s must be finite, got {d}"] if not math.isfinite(d)
        else [f"duration_s must be >= 0, got {d}"] if d < 0 else []),
    *((name, _nonnegative(name))
      for name in ("m1", "m2", "m_sup", "m_final", "k_auto", "alg_count")),
    ("alg_confidence", lambda conf: [] if conf is None or 0.0 <= conf <= 1.0
        else [f"alg_confidence must be in [0, 1], got {conf}"]),
    (("label", "sampled", "m1", "m2", "m_sup", "m_final"), _workflow_state),
)


def _keys(columns: dict, names):
    """A check's keys, record by record, made anew each time: live tuples cost the collector."""
    return columns[names] if isinstance(names, str) else zip(*map(columns.get, names))


def column_violations(columns: dict) -> list[str]:
    """The invariant violations of a campaign given by columns, by record and then in check order.

    `columns` maps every field of `DopRecord` to the campaign's values of it,
    in record order. Each check of `_INVARIANTS` runs once per distinct value
    of what it reads, so values that compare equal (1 and 1.0) share the text
    of their check.
    """
    found = []  # (record index, text), check by check
    for names, check in _INVARIANTS:
        table = {key: check(key) for key in set(_keys(columns, names))}
        if any(table.values()):
            keys = _keys(columns, names)
            found += [(i, text) for i, key in enumerate(keys) for text in table[key]]
    found.sort(key=itemgetter(0))  # a stable sort: each record's texts stay in check order
    dop_ids = columns["dop_id"]
    return [f"{dop_ids[i]}: {text}" for i, text in found]


def campaign_violations(records: list[DopRecord]) -> list[str]:
    """The invariant violations of `records`: `column_violations` of their columns."""
    if not records:
        return []
    return column_violations(dict(zip(DopRecord._fields, zip(*records))))


def validate_record(record: DopRecord) -> list[str]:
    """Return human-readable invariant violations for `record`.

    Total: never raises, an empty list means the record is consistent.
    Where both counters counted, `m_final` must be their `ground_truth`;
    a record without a second count keeps its `m_final` as given.
    """
    return campaign_violations([record])


def ground_truth(m1: int | None, m2: int | None, m_sup: int | None) -> int | None:
    """Resolve the final manual count from two counters plus a supervisor.

    Two agreeing counters settle the value; on disagreement the supervisor
    count decides. Returns None when the count is still unresolved (this is
    an incomplete count, not an error).
    """
    if m1 is None or m2 is None:
        return None
    if m1 == m2:
        return m1
    return m_sup


@dataclass(frozen=True, slots=True)
class TestParams:
    """Equivalence-test parameters.

    alpha is the total user risk of the two-sided interval (the quantile
    used everywhere is z_{1-alpha/2}), beta the manufacturer risk, delta
    the equivalence margin, nu the planning relative standard deviation,
    nu_min the floor applied to empirical standard deviations, and buffer
    the sample-size safety factor.
    """

    alpha: float = 0.05
    beta: float = 0.05
    delta: float = 0.01
    nu: float = 0.20
    nu_min: float = 0.03
    buffer: float = 1.15

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if self.nu_min < 0.0:
            raise ValueError(f"nu_min must be >= 0, got {self.nu_min}")
        if self.buffer < 1.0:
            raise ValueError(f"buffer must be >= 1, got {self.buffer}")


@dataclass(frozen=True, slots=True)
class PartitionParams:
    """Planning parameters of the safe/unsafe partition.

    p_s is the expected safe share, nu_s_ratio the ratio of the safe
    stratum's standard deviation to the overall one, q the counted quota
    of the safe partition.
    """

    p_s: float = 0.90
    nu_s_ratio: float = 0.35
    q: float = 0.175

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 <= self.p_s <= 1.0:
            raise ValueError(f"p_s must be in [0, 1], got {self.p_s}")
        if self.nu_s_ratio < 0.0:
            raise ValueError(f"nu_s_ratio must be >= 0, got {self.nu_s_ratio}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {self.q}")

    @property
    def p_u(self) -> float:
        return 1.0 - self.p_s


@dataclass(frozen=True, slots=True)
class CostParams:
    """Per-record cost components of a validation campaign.

    c_u: mean combined cost of an unsafe record (always fully counted).
    c_s0: basic cost of a safe record, incurred whether or not it is counted.
    c_sz: manual counting cost of a safe record, incurred only at quota q.
    """

    c_u: float
    c_s0: float
    c_sz: float

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in ("c_u", "c_s0", "c_sz"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True, slots=True)
class CostRates:
    """Raw rates that generate per-record counting costs.

    r_av is the ratio of manual review time to video duration, c_labor the
    hourly labor cost, r_s the surcharge factor for the second count and
    the supervisor.
    """

    r_av: float = 0.7
    c_labor: float = 20.0
    r_s: float = 1.2

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.r_av <= 0.0:
            raise ValueError(f"r_av must be > 0, got {self.r_av}")
        if self.c_labor < 0.0:
            raise ValueError(f"c_labor must be >= 0, got {self.c_labor}")
        if self.r_s < 0.0:
            raise ValueError(f"r_s must be >= 0, got {self.r_s}")


@dataclass(frozen=True, slots=True)
class PartitionStats:
    """Aggregates of one campaign by partition, as `estimator._evaluate` builds them.

    Stratum statistics are None when the stratum is empty. `nu_hat_s` and
    `nu_hat_u` are the raw empirical standard deviations (None when fewer
    than two counted records exist in a nonempty stratum); the nu_min floor
    is applied later, in the pooled variance.
    """

    n: int
    n_s: int
    n_u: int
    q_effective: float
    d_bar_s: float | None
    d_bar_u: float | None
    nu_hat_s: float | None
    nu_hat_u: float | None
    m_hat_q: float
