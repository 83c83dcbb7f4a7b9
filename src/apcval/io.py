"""Campaign files, configuration files and report emission.

Campaign files are UTF-8 comma-delimited text with a mandatory header and
one row per door opening phase; empty cells mean absent. Labels use the
one-letter values 's' and 'u'. Configuration files are flat `key = value`
text with a closed key set; unknown keys are rejected and every value is
validated against the domain invariants on load.
"""

from __future__ import annotations

import csv
import io as _stringio
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path

from ._version import VERSION
from .classify import ClassifierSpec
from .cost import SCHEME_NO_FIRST_COUNT, SCHEMES, CostBreakdown
from .domain import (
    SAFE,
    UNLABELED,
    UNSAFE,
    CostRates,
    DopRecord,
    PartitionParams,
    TestParams,
    validate_record,
)
from .estimator import EvaluationReport
from .planner import Plan
from .simulate import SuccessCurve

CAMPAIGN_COLUMNS = (
    "dop_id",
    "duration_s",
    "m1",
    "m2",
    "m_sup",
    "m_final",
    "k_auto",
    "alg_count",
    "alg_confidence",
    "label",
    "sampled",
)

_LABEL_TO_CSV = {SAFE: "s", UNSAFE: "u", UNLABELED: ""}
_CSV_TO_LABEL = {"s": SAFE, "u": UNSAFE, "": UNLABELED}
_CSV_TO_SAMPLED = {"true": True, "false": False, "": None}


class CampaignError(ValueError):
    """Raised for unreadable, malformed or inconsistent campaign files."""


def _opt_int(cell: str, row: int, column: str) -> int | None:
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        raise CampaignError(f"row {row}: {column} is not an integer: {cell!r}") from None


def _opt_float(cell: str, row: int, column: str) -> float | None:
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        raise CampaignError(f"row {row}: {column} is not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise CampaignError(f"row {row}: {column} must be finite, got {cell!r}")
    return value


def _checked_record(cells: tuple[str, ...], row_no: int) -> DopRecord:
    """The record of stripped `cells` (in `DopRecord` field order), cell by cell.

    Raises the CampaignError of the first bad number, in the order k_auto,
    duration_s, m1, m2, m_sup, m_final, alg_count, alg_confidence.
    """
    dop_id, k_cell, duration, m1, m2, m_sup, m_final, alg_count, conf, label, sampled = cells
    k_auto = _opt_int(k_cell, row_no, "k_auto")
    if k_auto is None:
        raise CampaignError(f"row {row_no}: k_auto is mandatory")
    return tuple.__new__(DopRecord, (
        dop_id,
        k_auto,
        _opt_float(duration, row_no, "duration_s") or 0.0,
        _opt_int(m1, row_no, "m1"),
        _opt_int(m2, row_no, "m2"),
        _opt_int(m_sup, row_no, "m_sup"),
        _opt_int(m_final, row_no, "m_final"),
        _opt_int(alg_count, row_no, "alg_count"),
        _opt_float(conf, row_no, "alg_confidence"),
        _CSV_TO_LABEL[label],
        _CSV_TO_SAMPLED[sampled],
    ))


def load_campaign(path: str | Path, strict: bool = False) -> tuple[list[DopRecord], list[str]]:
    """Read a campaign file into records plus a validation report.

    Parse problems (bad header, unparseable cells, duplicate ids) are hard
    errors. Domain invariant violations are returned as a list; with
    strict=True any violation is promoted to a CampaignError.

    Each row is read in one pass: one getter takes its cells in
    `DopRecord` field order, the numbers are parsed inline and the record
    is built from one tuple, without a constructor call. Only a row whose
    numbers do not parse or are not finite goes through the per-cell
    checks of `_checked_record`, which name the bad cell.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CampaignError(f"cannot read campaign file {path}: {exc}") from exc

    reader = csv.reader(_stringio.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CampaignError(f"{path}: empty file, header row is mandatory") from None
    if sorted(header) != sorted(CAMPAIGN_COLUMNS):
        raise CampaignError(
            f"{path}: malformed header {header!r}, expected columns {list(CAMPAIGN_COLUMNS)}"
        )
    width = len(header)
    pick = itemgetter(*map(header.index, DopRecord._fields))
    strip = str.strip
    isfinite = math.isfinite
    new = tuple.__new__

    records: list[DopRecord] = []
    violations: list[str] = []
    seen: set[str] = set()
    for row_no, row in enumerate(reader, start=2):
        if len(row) != width:
            if not any(row):
                continue
            raise CampaignError(f"row {row_no}: expected {width} cells, got {len(row)}")
        cells = tuple(map(strip, pick(row)))
        dop_id, k_auto, duration, m1, m2, m_sup, m_final, alg_count, conf, label, sampled = cells
        if not dop_id:
            if not any(row):
                continue
            raise CampaignError(f"row {row_no}: empty dop_id")
        if dop_id in seen:
            raise CampaignError(f"duplicate dop_id {dop_id!r}")
        seen.add(dop_id)
        if label not in _CSV_TO_LABEL:
            raise CampaignError(f"row {row_no}: unknown label {label!r} (use s/u or empty)")
        if sampled not in _CSV_TO_SAMPLED:
            raise CampaignError(
                f"row {row_no}: sampled must be true/false or empty, got {sampled!r}"
            )
        try:
            duration_s = float(duration) if duration else 0.0
            confidence = float(conf) if conf else None
            if not isfinite(duration_s) or not (confidence is None or isfinite(confidence)):
                raise ValueError  # _checked_record names the cell
            record = new(DopRecord, (
                dop_id,
                int(k_auto),
                duration_s or 0.0,
                int(m1) if m1 else None,
                int(m2) if m2 else None,
                int(m_sup) if m_sup else None,
                int(m_final) if m_final else None,
                int(alg_count) if alg_count else None,
                confidence,
                _CSV_TO_LABEL[label],
                _CSV_TO_SAMPLED[sampled],
            ))
        except ValueError:
            record = _checked_record(cells, row_no)
        records.append(record)
        violations.extend(validate_record(record))

    if strict and violations:
        raise CampaignError("validation failed:\n" + "\n".join(violations))
    return records, violations


def save_campaign(records: list[DopRecord], path: str | Path) -> None:
    """Write records back out; load_campaign(save_campaign(x)) is identity."""
    buf = _stringio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CAMPAIGN_COLUMNS)
    # csv writes None as an empty cell; floats go through repr to round-trip
    for dop_id, k_auto, duration_s, m1, m2, m_sup, m_final, alg_count, conf, label, sampled in records:
        writer.writerow((
            dop_id, repr(duration_s), m1, m2, m_sup, m_final, k_auto, alg_count,
            "" if conf is None else repr(conf),
            _LABEL_TO_CSV[label],
            "" if sampled is None else ("true" if sampled else "false"),
        ))
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


# --- configuration ----------------------------------------------------------

# The numeric config keys are the fields of these domain types, under each
# type's key prefix; a key left out keeps the field's default.
_NUMERIC_SECTIONS = ((TestParams, ""), (PartitionParams, ""), (CostRates, "costs."))

_CONFIG_KEYS = (
    *(prefix + f.name for cls, prefix in _NUMERIC_SECTIONS for f in fields(cls)),
    "seed",
    "classifier.kind",
    "classifier.threshold",
    "classifier.target_share",
    "costs.scheme",
)


@dataclass(frozen=True, slots=True)
class Config:
    """Validated configuration for the command line workflows."""

    params: TestParams
    partition: PartitionParams
    rates: CostRates
    scheme: str = SCHEME_NO_FIRST_COUNT
    seed: int = 0
    classifier: ClassifierSpec | None = None


class ConfigError(ValueError):
    """Raised for unknown keys or invalid values in a configuration."""


def _parse_config_text(text: str, source: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def config_from_raw(raw: dict[str, str]) -> Config:
    """Build and validate a Config from raw string key-values."""
    unknown = [k for k in raw if k not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")

    def number(key: str) -> float:
        try:
            return float(raw[key])
        except ValueError:
            raise ConfigError(f"{key} is not a number: {raw[key]!r}") from None

    def build(cls, prefix: str, names, **given):
        """`cls` from the given values plus the configured keys among `names`."""
        numbers = {name: number(prefix + name) for name in names if prefix + name in raw}
        return cls(**given, **numbers)

    try:
        params, partition, rates = (
            build(cls, prefix, [f.name for f in fields(cls)])
            for cls, prefix in _NUMERIC_SECTIONS
        )
        classifier = None
        if "classifier.kind" in raw:
            classifier = build(
                ClassifierSpec,
                "classifier.",
                ("threshold", "target_share"),
                kind=raw["classifier.kind"],
            )
        elif "classifier.threshold" in raw or "classifier.target_share" in raw:
            raise ConfigError("classifier.threshold/target_share need classifier.kind")
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    scheme = raw.get("costs.scheme", SCHEME_NO_FIRST_COUNT)
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown costs.scheme {scheme!r}, expected one of {list(SCHEMES)}")
    try:
        seed = int(raw.get("seed", "0"))
    except ValueError:
        raise ConfigError(f"seed is not an integer: {raw['seed']!r}") from None
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return Config(
        params=params,
        partition=partition,
        rates=rates,
        scheme=scheme,
        seed=seed,
        classifier=classifier,
    )


def merge_overrides(raw: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply `key=value` override strings on top of raw config pairs."""
    merged = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        merged[key] = value.strip()
    return merged


def load_config_with_overrides(path: str | Path | None, overrides: list[str]) -> Config:
    raw: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        raw = _parse_config_text(text, str(p))
    return config_from_raw(merge_overrides(raw, overrides))


# --- report emission --------------------------------------------------------


# Result type -> report name. A report is its name and the toolkit version
# followed by the result's fields in declaration order; `_clean` turns nested
# dataclasses into dictionaries of their fields the same way.
_REPORT_NAMES = {
    EvaluationReport: "evaluation",
    Plan: "plan",
    SuccessCurve: "success_curve",
    CostBreakdown: "cost",
}


def _clean(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    names = getattr(obj, "__dataclass_fields__", None)
    if names is not None:
        return {name: _clean(getattr(obj, name)) for name in names}
    return obj


def report_to_dict(report) -> dict:
    """Name, version and top-level fields of a result; dicts pass through.

    Nested values stay as they are; `emit_report` turns dataclasses into
    dictionaries and floats into 12-digit numbers.
    """
    if isinstance(report, dict):
        return report
    name = _REPORT_NAMES.get(type(report))
    if name is None:
        raise TypeError(f"cannot emit report for {type(report).__name__}")
    fields = {field: getattr(report, field) for field in report.__dataclass_fields__}
    return {"report": name, "version": VERSION, **fields}


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    """Append the `(key, value)` rows of a cleaned report; a non-finite value is an error."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"report value {prefix} is not finite: {value}")
    else:
        rows.append((prefix, "" if value is None else str(value)))


def _curves_csv(curves: list[dict]) -> str:
    buf = _stringio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["grid_var", "grid_value", "pass_rate", "mc_se", "analytic", "n"])
    for curve in curves:
        for p in curve["points"]:
            n = p.grid_value if curve["grid_var"] == "n" else curve["fixed"].get("n")
            writer.writerow(
                [
                    curve["grid_var"],
                    f"{p.grid_value:.12g}",
                    f"{p.pass_rate:.12g}",
                    f"{p.mc_se:.12g}",
                    "" if p.analytic is None else f"{p.analytic:.12g}",
                    "" if n is None else f"{n:.12g}",
                ]
            )
    return buf.getvalue()


def emit_report(report, fmt: str = "json", timestamp: bool = True) -> str:
    """Serialize a result with stable field names.

    JSON carries floats at 12 significant digits. CSV emits the success
    curve table (grid_var, grid_value, pass_rate, mc_se, analytic, n; one
    header, then the rows of every curve of a `success_curves` report) and
    a flat key,value table for every other report type. The `created` field
    is informational and excluded from reproducibility comparisons. A
    non-finite number is a ValueError that names its key as the flat table
    does (`per_record[2][1]`).
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    payload = report_to_dict(report)
    if fmt == "csv" and payload.get("report") in ("success_curve", "success_curves"):
        return _curves_csv(payload.get("curves", [payload]))
    payload = _clean(payload)
    if timestamp:
        payload["created"] = datetime.now(timezone.utc).isoformat()
    if fmt == "json":
        try:
            return json.dumps(payload, indent=2, allow_nan=False) + "\n"
        except ValueError:
            _flatten("", payload, [])  # raises naming the non-finite value
            raise
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    buf = _stringio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()
