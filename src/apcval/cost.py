"""Cost parameter construction from raw campaign data.

Per-record counting cost is video duration times the review acceleration
factor times the hourly labor rate. Three attribution schemes build the
per-stratum cost parameters from it, depending on whether a first manual
count already happened before classification and on reclassification;
they differ only in the share of a safe record's first review pass that
is sunk into its basic cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import SAFE, UNSAFE, CostParams, CostRates, DopRecord

SCHEME_NO_FIRST_COUNT = "no_first_count"
SCHEME_WITH_FIRST_COUNT = "with_first_count"
SCHEME_COMBINED = "combined"

SCHEMES = (SCHEME_NO_FIRST_COUNT, SCHEME_WITH_FIRST_COUNT, SCHEME_COMBINED)

# Sunk share of a safe record's first review pass where the scheme fixes it;
# under `combined` it is the record's reclassification flag.
_SUNK_SHARE = {SCHEME_NO_FIRST_COUNT: 0, SCHEME_WITH_FIRST_COUNT: 1}


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Cost parameters, the per-record counting costs they came from, and warnings."""

    scheme: str
    c_u: float
    c_s0: float
    c_sz: float
    per_record: tuple[tuple[str, float], ...]
    warnings: tuple[str, ...] = ()

    def cost_params(self) -> CostParams:
        return CostParams(c_u=self.c_u, c_s0=self.c_s0, c_sz=self.c_sz)


def counting_cost(duration_s: float, rates: CostRates) -> float:
    """Cost of one manual review pass over a recording of given duration."""
    if duration_s < 0.0:
        raise ValueError(f"duration_s must be >= 0, got {duration_s}")
    return duration_s / 3600.0 * rates.r_av * rates.c_labor


def cost_breakdown(
    records: list[DopRecord],
    rates: CostRates,
    scheme: str,
    reclass_flags: dict[str, int] | None = None,
) -> CostBreakdown:
    """Build cost parameters under `scheme` with the per-record trail.

    One attribution serves every scheme. Unsafe records always incur the
    full counting cost: c_u is (1 + r_s) times their mean review cost c.
    Each safe record has a sunk share w of its first review pass, already
    paid before classification: 0 for `no_first_count`, 1 for
    `with_first_count`, and under `combined` its reclassification flag
    from `reclass_flags`: 1 when the first stage of the combined classifier
    marked it unsafe, so that a first manual count was paid and reclassified
    it safe. The records' own labels are priced; the flags come from
    `classify` or, for a labeled campaign, from its first stage.
    Then c_s0 = mean(w * c) and c_sz = mean((1 - w + r_s) * c) over the
    safe stratum, so attribution moves cost between the two and never
    creates it. An empty stratum costs 0, and the breakdown's `warnings`
    name it.
    """
    if scheme == SCHEME_COMBINED:
        if reclass_flags is None:
            raise ValueError("combined scheme requires reclassification flags")
        missing = [r.dop_id for r in records if r.label == SAFE and r.dop_id not in reclass_flags]
        if missing:
            raise ValueError(f"safe records lack reclassification flags: {', '.join(missing)}")
        sunk = lambda r: reclass_flags[r.dop_id]
    elif scheme in _SUNK_SHARE:
        sunk = lambda r: _SUNK_SHARE[scheme]
    else:
        raise ValueError(f"unknown cost scheme {scheme!r}")
    per_record = tuple((r.dop_id, counting_cost(r.duration_s, rates)) for r in records)
    safe = [(c, sunk(r)) for r, (_, c) in zip(records, per_record) if r.label == SAFE]
    unsafe = [c for r, (_, c) in zip(records, per_record) if r.label == UNSAFE]
    n_s = len(safe) or 1  # an empty stratum costs 0
    mean_u = sum(unsafe) / len(unsafe) if unsafe else 0.0
    return CostBreakdown(
        scheme=scheme,
        c_u=(1.0 + rates.r_s) * mean_u,
        c_s0=sum(c * w for c, w in safe) / n_s,
        c_sz=sum(c * (1.0 - w + rates.r_s) for c, w in safe) / n_s,
        per_record=per_record,
        warnings=tuple(f"no {label} records: stratum cost set to 0"
                       for label, group in ((SAFE, safe), (UNSAFE, unsafe)) if not group),
    )
