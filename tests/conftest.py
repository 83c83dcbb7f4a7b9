"""Shared campaign builders for the test suite."""

from __future__ import annotations

import os
import typing
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from apcval.domain import LABELS, SAFE, UNSAFE, DopRecord, ground_truth


def make_record(i: int, m: int, k: int, label: str, sampled=None, duration: float = 30.0) -> DopRecord:
    return DopRecord(
        dop_id=f"d{i:05d}",
        duration_s=duration,
        m1=m,
        m2=m,
        m_final=m,
        k_auto=k,
        label=label,
        sampled=sampled,
    )


# Campaigns whose interval overflows: (evaluation mode, records, the numbers the
# error names) by case. Classic: one error of 1e308 passengers makes d_bar_u inf
# and its deviation NaN. Partitioned: two counted safe records off by 1e160 make
# the squared between-strata gap overflow. The classic test of that campaign
# squares deviations of 5e159 to inf, and its between-strata term 0 * inf is NaN.
_OFF_BY_1E160 = [make_record(0, 1, 10**160, SAFE, sampled=True),
                 make_record(1, 1, 10**160, SAFE, sampled=True),
                 make_record(2, 1, 1, UNSAFE), make_record(3, 1, 1, UNSAFE)]
OVERFLOWING_CAMPAIGNS = {
    "classic": ("classic", [make_record(0, 0, 10**308, UNSAFE), make_record(1, 1, 1, UNSAFE),
                            *(make_record(i, 0, 0, UNSAFE) for i in (2, 3, 4))],
                "d_hat inf, nu_hat nan"),
    "partitioned": ("partitioned", _OFF_BY_1E160, "d_hat 5e+159, nu_hat inf"),
    "partitioned_as_classic": ("classic", _OFF_BY_1E160, "d_hat 5e+159, nu_hat nan"),
}


def every_field_set() -> DopRecord:
    """A record whose fields all differ from their defaults and from each other.

    Built from the annotations of `DopRecord`, so a field added later gets a
    value here too, and code that lists the fields by hand and misses it
    returns a different record. The label is not one of `LABELS`.
    """
    values = {}
    for i, (name, hint) in enumerate(typing.get_type_hints(DopRecord).items()):
        kind = (typing.get_args(hint) or (hint,))[0]  # `int | None` -> int
        values[name] = {str: f"{name}-{i}", int: 10 + i, float: 0.5 + i / 64,
                        bool: True}[kind]
    return DopRecord(**values)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SMALL = st.integers(min_value=0, max_value=4)
# mostly what a consistent record holds, so that whole campaigns pass the screen too
_COUNT = st.one_of(st.none(), _SMALL, _SMALL, st.none(), st.integers())


@st.composite
def loadable_records(draw) -> DopRecord:
    """A record as `io.load_campaign` can return it, its dop_id "r0".

    Numbers are finite (a duration never -0.0) and counts any integers or
    absent. `m2` often agrees with `m1`, and `m_final` is often the count
    that resolves `m1`, `m2` and `m_sup`, or one of them.
    """
    m1, m_sup = draw(_COUNT), draw(_COUNT)
    m2 = draw(_COUNT | st.just(m1))
    resolved = ground_truth(m1, m2, m_sup) if m2 is not None else m1
    return DopRecord(
        dop_id="r0",
        k_auto=draw(st.one_of(_SMALL, _SMALL, st.integers())),
        duration_s=draw(st.floats(min_value=0.0, max_value=120.0) | _FINITE) or 0.0,
        m1=m1,
        m2=m2,
        m_sup=m_sup,
        m_final=draw(st.sampled_from((resolved, m1, m2, m_sup)) | _COUNT),
        alg_count=draw(_COUNT),
        alg_confidence=draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0), _FINITE)),
        label=draw(st.sampled_from(LABELS)),
        sampled=draw(st.sampled_from((True, False, None))),
    )


def loadable_campaigns(max_size: int = 6):
    """Lists of `loadable_records` with the distinct dop_ids r0, r1, …"""
    return st.lists(loadable_records(), max_size=max_size).map(
        lambda records: [r._replace(dop_id=f"r{i}") for i, r in enumerate(records)]
    )


def fully_counted_campaign(
    rng: np.random.Generator,
    n: int,
    p_s: float = 0.7,
    error_rate: float = 0.3,
    mean_count: float = 3.0,
) -> list[DopRecord]:
    """Random labeled campaign, fully counted, every safe record sampled.

    Ensures at least one boarding passenger so the mean count stays
    positive.
    """
    records = []
    for i in range(n):
        m = int(rng.poisson(mean_count))
        if i == 0:
            m = max(m, 1)
        err = 0
        if rng.random() < error_rate:
            err = int(rng.integers(-2, 3))
        k = max(0, m + err)
        label = SAFE if rng.random() < p_s else UNSAFE
        records.append(make_record(i, m, k, label, sampled=True if label == SAFE else None))
    return records


def subsample_safe(
    records: list[DopRecord], rng: np.random.Generator, q: float
) -> list[DopRecord]:
    """Mark a random q-quota of the safe records as sampled (rest False)."""
    from apcval.planner import counted_count

    safe_idx = [i for i, r in enumerate(records) if r.label == SAFE]
    m = counted_count(q, len(safe_idx)) if safe_idx else 0
    chosen = set(rng.choice(len(safe_idx), size=m, replace=False).tolist())
    out = list(records)
    for rank, i in enumerate(safe_idx):
        out[i] = records[i]._replace(sampled=rank in chosen)
    return out


def source_env() -> dict[str, str]:
    """This process's environment with the tested source first on PYTHONPATH, for a child."""
    import apcval

    paths = [str(Path(apcval.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
