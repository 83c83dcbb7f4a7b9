"""Campaign files, configuration files and report emission.

Campaign files are UTF-8 comma-delimited text with a mandatory header and
one row per door opening phase; empty cells mean absent. Labels use the
one-letter values 's' and 'u'. Configuration files are flat `key = value`
text with a closed key set; unknown keys are rejected and every value is
validated against the domain invariants on load. Both kinds of file may
start with a UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes them.
"""

from __future__ import annotations

import csv
import io as _stringio
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import NoReturn

from ._version import VERSION
from .classify import ClassifierSpec
from .cost import SCHEME_NO_FIRST_COUNT, SCHEMES
from .domain import (
    SAFE,
    UNLABELED,
    UNSAFE,
    CostRates,
    DopRecord,
    PartitionParams,
    TestParams,
    screen_records,
    validate_record,
)

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


def _bad_cell(cells: tuple[str, ...], row_no: int) -> str | None:
    """The error naming a row's first bad number, or None if its numbers parse.

    `cells` are stripped, in `DopRecord` field order; the numbers are checked
    from k_auto (which must be given) to alg_confidence.
    """
    if not cells[1]:
        return f"row {row_no}: k_auto is mandatory"
    for column, cell in zip(DopRecord._fields[1:9], cells[1:9]):
        number = column in ("duration_s", "alg_confidence")
        try:
            value = (float if number else int)(cell) if cell else 0
        except ValueError:
            kind = "a number" if number else "an integer"
            return f"row {row_no}: {column} is not {kind}: {cell!r}"
        if number and not math.isfinite(value):
            return f"row {row_no}: {column} must be finite, got {cell!r}"
    return None


def _numbered_rows(path: Path, reader) -> Iterator[tuple[int, list[str]]]:
    """The rows after the header with their row numbers, from 2.

    A row the csv reader cannot read, such as one with a field over
    `csv.field_size_limit()`, is a CampaignError naming the file and the row.
    """
    row_no = 1
    try:
        for row_no, row in enumerate(reader, start=2):
            yield row_no, row
    except csv.Error as exc:
        raise CampaignError(f"{path}: row {row_no + 1}: {exc}") from None


def _raise_first_error(path: Path, text: str, pick: itemgetter, width: int) -> NoReturn:
    """Raise the CampaignError of the first bad row of a campaign's text.

    The rows are read one by one and checked in order: blank rows are
    skipped, then width, dop_id (empty, duplicate), label, sampled and the
    numbers (`_bad_cell`). A row the reader cannot read is an error of that
    row (`_numbered_rows`), after the rows before it.
    """
    reader = csv.reader(_stringio.StringIO(text))
    next(reader)  # the header, already checked
    seen: set[str] = set()
    for row_no, row in _numbered_rows(path, reader):
        if not any(row):
            continue
        if len(row) != width:
            raise CampaignError(f"row {row_no}: expected {width} cells, got {len(row)}")
        cells = tuple(map(str.strip, pick(row)))
        dop_id, label, sampled = cells[0], cells[9], cells[10]
        if not dop_id:
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
        message = _bad_cell(cells, row_no)
        if message:
            raise CampaignError(message)
    raise AssertionError("the column checks refused a campaign whose rows all pass")


def _count(cell: str) -> int | None:
    return int(cell) if cell else None


def _number(cell: str) -> float | None:
    """The finite float of a cell, None for an empty one; ValueError otherwise."""
    if not cell:
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def _duration(cell: str) -> float:
    return _number(cell) or 0.0  # an empty cell and -0.0 read as 0.0


def _convert(convert, cells: tuple[str, ...]) -> list:
    """`convert` of each stripped cell, through a table of the column's distinct cells."""
    table = {cell: convert(cell.strip()) for cell in set(cells)}
    return list(map(table.__getitem__, cells))


def _parse_columns(columns: list[tuple[str, ...]], pick: itemgetter) -> list[list] | None:
    """The values of a campaign's columns, in `DopRecord` field order.

    Each column is stripped and converted in one pass. None means that some
    cell is bad, and `_raise_first_error` names it.
    """
    ids, k_auto, duration, *counts, confidence, label, sampled = pick(columns)
    ids = list(map(str.strip, ids))
    if not all(ids) or len(set(ids)) < len(ids):
        return None
    try:
        return [
            ids,
            _convert(int, k_auto),
            _convert(_duration, duration),
            *(_convert(_count, column) for column in counts),
            _convert(_number, confidence),
            _convert(_CSV_TO_LABEL.__getitem__, label),
            _convert(_CSV_TO_SAMPLED.__getitem__, sampled),
        ]
    except (KeyError, ValueError):
        return None


def load_campaign(path: str | Path, strict: bool = False) -> tuple[list[DopRecord], list[str]]:
    """Read a campaign file into records plus a validation report.

    Parse problems (bad header, unparseable cells, duplicate ids) are hard
    errors. Domain invariant violations are returned as a list; with
    strict=True any violation is promoted to a CampaignError.

    The rows are parsed by columns: each column is stripped and converted
    in one pass, and the records are built from the columns without a
    constructor call. A campaign with a bad cell is read again row by row
    (`_raise_first_error`) to name its first bad row. The records are
    validated by one `screen_records` pass; only when it fails does
    `validate_record` build the messages, record by record.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CampaignError(f"cannot read campaign file {path}: {exc}") from exc

    reader = csv.reader(_stringio.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CampaignError(f"{path}: empty file, header row is mandatory") from None
    except csv.Error as exc:
        raise CampaignError(f"{path}: row 1: {exc}") from None
    if sorted(header) != sorted(CAMPAIGN_COLUMNS):
        raise CampaignError(
            f"{path}: malformed header {header!r}, expected columns {list(CAMPAIGN_COLUMNS)}"
        )
    width = len(header)
    pick = itemgetter(*map(header.index, DopRecord._fields))
    try:
        columns = list(zip(*filter(any, reader), strict=True))  # of the non-blank rows
    except (csv.Error, ValueError):  # an unreadable row, or rows of different lengths
        _raise_first_error(path, text, pick, width)
    if not columns:
        return [], []
    values = _parse_columns(columns, pick) if len(columns) == width else None
    if values is None:
        _raise_first_error(path, text, pick, width)
    records = list(map(tuple.__new__, repeat(DopRecord), zip(*values)))
    violations = [] if screen_records(records) else [
        violation for record in records for violation in validate_record(record)
    ]
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
    """Apply `key=value` override strings on top of raw config pairs.

    The classifier's threshold and target share exclude each other, so an
    override of either one drops both from `raw`.
    """
    given: dict[str, str] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        given[key] = value.strip()
    rules = ("classifier.threshold", "classifier.target_share")
    if not given.keys().isdisjoint(rules):
        raw = {key: value for key, value in raw.items() if key not in rules}
    return {**raw, **given}


def load_config_with_overrides(path: str | Path | None, overrides: list[str]) -> Config:
    raw: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        raw = _parse_config_text(text, str(p))
    return config_from_raw(merge_overrides(raw, overrides))


# --- report emission --------------------------------------------------------


# Result class name -> report name (by name: emitting imports no result's module).
# A report is its name, the toolkit version and the result's fields in declaration
# order; `_clean` turns nested dataclasses into dictionaries the same way.
_REPORT_NAMES = {
    "EvaluationReport": "evaluation",
    "Plan": "plan",
    "SuccessCurve": "success_curve",
    "CostBreakdown": "cost",
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
    name = _REPORT_NAMES.get(type(report).__name__)
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


def save_details(rows, path: str | Path) -> None:
    """Write `estimator.record_rows` as the details CSV (dop_id, d_i, stratum, weight).

    Numbers carry 12 significant digits, and an absent d_i is an empty cell.
    """
    weights: dict[float, str] = {}  # the text of each distinct weight (at most three)
    buf = _stringio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dop_id", "d_i", "stratum", "weight"])
    writer.writerows(
        (dop_id, "" if d_i is None else f"{d_i:.12g}", _LABEL_TO_CSV[label],
         weights.get(weight) or weights.setdefault(weight, f"{weight:.12g}"))
        for dop_id, label, weight, d_i in rows
    )
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


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
