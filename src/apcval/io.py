"""Campaign files, configuration files and report emission.

Campaign files are UTF-8 comma-delimited text with a mandatory header and
one row per door opening phase; empty cells mean absent. Labels use the
one-letter values 's' and 'u'. Configuration files are flat `key = value`
text with a closed key set; unknown keys are rejected and every value is
validated against the domain invariants on load. Both kinds of file may
start with a UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes them.

A campaign file is read without newline translation, so a quoted cell
keeps its carriage return. A plain file (no `"`, carriage return or NUL,
a header line that is not blank, every row of the header's width and none
all empty, no line over `csv.field_size_limit()`) is split at its commas
and newlines into the columns `csv.reader` would read; `csv.reader` reads
any other file. Every CSV written here (campaign, details, curve and flat
tables) is written by columns: a cell holding a comma, a quote, a newline
or a carriage return is quoted, its quotes doubled, on every interpreter.
"""

from __future__ import annotations

import csv
import io as _stringio
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from ._version import VERSION
from .domain import (
    SAFE,
    SCHEME_NO_FIRST_COUNT,
    SCHEMES,
    UNLABELED,
    UNSAFE,
    CostRates,
    DopRecord,
    PartitionParams,
    TestParams,
    column_violations,
)

if TYPE_CHECKING:
    from .classify import ClassifierSpec

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
_QUOTED_CHARS = (",", '"', "\n", "\r")  # a CSV cell holding one is quoted


class CampaignError(ValueError):
    """Raised for unreadable, malformed or inconsistent campaign files."""


def _check_cells(convert):
    """The column check that calls `convert(field, cell)` once per distinct stripped cell."""
    def check(field: str, cells: tuple[str, ...], row_nos: list[int]) -> list:
        table, bad = {}, {}
        for cell in set(cells):
            try:
                table[cell] = convert(field, cell.strip())
            except ValueError as exc:
                bad[cell] = exc
        if bad:
            index = next(i for i, cell in enumerate(cells) if cell in bad)
            raise ValueError(index, f"row {row_nos[index]}: {bad[cells[index]]}")
        return list(map(table.__getitem__, cells))

    return check


def _ids(field: str, cells: tuple[str, ...], row_nos: list[int]) -> list[str]:
    """The stripped ids; a row's id is an error if it is empty, else if an earlier row has it."""
    ids = list(map(str.strip, cells))
    if not all(ids) or len(set(ids)) < len(ids):
        seen = set()
        for index, dop_id in enumerate(ids):
            if not dop_id:
                raise ValueError(index, f"row {row_nos[index]}: empty {field}")
            if dop_id in seen:
                raise ValueError(index, f"duplicate {field} {dop_id!r}")
            seen.add(dop_id)
    return ids


def _label(field: str, cell: str) -> str:
    if cell not in _CSV_TO_LABEL:
        raise ValueError(f"unknown label {cell!r} (use s/u or empty)")
    return _CSV_TO_LABEL[cell]


def _sampled(field: str, cell: str) -> bool | None:
    if cell not in _CSV_TO_SAMPLED:
        raise ValueError(f"sampled must be true/false or empty, got {cell!r}")
    return _CSV_TO_SAMPLED[cell]


def _integer(field: str, cell: str, mandatory: bool = False) -> int | None:
    if mandatory and not cell:
        raise ValueError(f"{field} is mandatory")
    try:
        return int(cell) if cell else None
    except ValueError:
        raise ValueError(f"{field} is not an integer: {cell!r}") from None


def _number(field: str, cell: str) -> float | None:
    try:
        value = float(cell) if cell else None
    except ValueError:
        raise ValueError(f"{field} is not a number: {cell!r}") from None
    if value is None or math.isfinite(value):
        return value
    raise ValueError(f"{field} must be finite, got {cell!r}")


def _duration(field: str, cell: str) -> float:
    return _number(field, cell) or 0.0  # an empty cell and -0.0 read as 0.0


# The checks of a campaign row, in the order a row is checked. Each takes a field, its
# column's cells and their row numbers, and returns the field's values or raises
# ValueError(index, message) for the first bad cell.
_CELL_CHECKS = (
    ("dop_id", _ids),
    ("label", _check_cells(_label)),
    ("sampled", _check_cells(_sampled)),
    ("k_auto", _check_cells(partial(_integer, mandatory=True))),
    ("duration_s", _check_cells(_duration)),
    *((field, _check_cells(_integer)) for field in ("m1", "m2", "m_sup", "m_final", "alg_count")),
    ("alg_confidence", _check_cells(_number)),
)


def _plain_columns(text: str) -> tuple[list[str], list[list[str]]] | None:
    """The header and columns that `csv.reader` reads from `text`, by one split; None if unsure.

    Applies to a text with no `"`, `\\r` or NUL whose header line is not
    blank, whose other lines all have the header's width and are not all
    empty, and none of whose lines is over `csv.field_size_limit()`. In such
    a text a row is a line and a cell is what lies between its commas.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":  # the final newline
        lines.pop()
    if not lines or not lines[0] or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    width = len(header)
    body = lines[1:]
    if body.count("," * (width - 1)) or set(map(str.count, body, repeat(","))) - {width - 1}:
        return None
    cells = ",".join(body).split(",") if body else []
    return header, [cells[i::width] for i in range(width)]


def _read_columns(text: str, path: Path) -> tuple[list[str], dict, range | list[int], str | None]:
    """The header, the columns by header cell, the row numbers and the error that ends the rows.

    A text `_plain_columns` declines goes through `csv.reader`: blank rows are
    skipped but counted, and a row of another width, or one the reader
    cannot read, ends the rows.
    """
    plain = _plain_columns(text)
    if plain is not None:
        header, columns = plain
        return header, dict(zip(header, columns)), range(2, len(columns[0]) + 2), None
    rows: list[list[str]] = []
    last = None  # the error of the row that ends the rows
    try:
        rows.extend(csv.reader(_stringio.StringIO(text, newline="")))
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        last = f"{path}: row {len(rows) + 1}: {exc}"
    if not rows:
        raise CampaignError(last or f"{path}: empty file, header row is mandatory")
    header, *rows = rows
    row_nos = range(2, len(rows) + 2)
    if not all(map(any, rows)):  # blank rows are skipped but counted
        row_nos = [row_no for row_no, row in zip(row_nos, rows) if any(row)]
        rows = list(filter(any, rows))
    if set(map(len, rows)) - {len(header)}:
        cut = next(i for i, row in enumerate(rows) if len(row) != len(header))
        last = f"row {row_nos[cut]}: expected {len(header)} cells, got {len(rows[cut])}"
        del rows[cut:]
    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    return header, columns, row_nos, last


def load_campaign(path: str | Path, strict: bool = False) -> tuple[list[DopRecord], list[str]]:
    """Read a campaign file into records plus a validation report.

    Parse problems (bad header, unparseable cells, duplicate ids) are hard
    errors. Domain invariant violations are returned as a list; with
    strict=True any violation is promoted to a CampaignError.

    The rows are read once (`_read_columns`) and checked by columns
    (`_CELL_CHECKS`): the error is the first bad row's, and within the row
    the first check's. A row of another width, or one the csv reader cannot
    read, ends the rows. The invariants are checked on the same columns.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig", newline="") as file:  # a quoted "\r" stays
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CampaignError(f"cannot read campaign file {path}: {exc}") from exc

    header, columns, row_nos, last = _read_columns(text, path)
    del text
    if sorted(header) != sorted(CAMPAIGN_COLUMNS):
        raise CampaignError(
            f"{path}: malformed header {header!r}, expected columns {list(CAMPAIGN_COLUMNS)}"
        )
    values, errors = {}, []
    for check, (field, convert) in enumerate(_CELL_CHECKS):
        try:
            values[field] = convert(field, columns[field], row_nos)
        except ValueError as exc:
            index, message = exc.args
            errors.append((index, check, message))
    if errors or last:
        raise CampaignError(min(errors)[2] if errors else last)
    records = list(map(tuple.__new__, repeat(DopRecord), zip(*map(values.get, DopRecord._fields))))
    violations = column_violations(values)
    if strict and violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise CampaignError(f"validation failed: {violations[0]}{more}")
    return records, violations


def _quoted(cells: Sequence[str]) -> Sequence[str]:
    """CSV fields of str cells: a cell holding `,`, `"`, `\\n` or `\\r` is quoted, its quotes doubled.

    The column is scanned once; only a column that holds such a cell is
    walked cell by cell.
    """
    joined = "".join(cells)
    if not any(char in joined for char in _QUOTED_CHARS):
        return cells
    return ['"' + cell.replace('"', '""') + '"' if any(char in cell for char in _QUOTED_CHARS)
            else cell for cell in cells]


def _csv_text(header, columns) -> str:
    """A header row and its columns of str cells as CSV text, one line per row."""
    rows = map(",".join, zip(*map(_quoted, columns)))
    return "\n".join([",".join(_quoted(header)), *rows]) + "\n"


def _cell(value) -> str:
    """A value as a CSV cell: None empty, a str as it is, anything else by str."""
    if value is None or isinstance(value, str):
        return value or ""
    return str(value)


def _by_value(values, text) -> list[str]:
    """`text` of each value, called once per distinct value: for a text that equal values share."""
    table = {value: text(value) for value in set(values)}
    return list(map(table.__getitem__, values))


def _cells(values: Sequence) -> Sequence[str]:
    """The `_cell` of each value: a column of str as it is, one of ints and None by value."""
    types = set(map(type, values))
    if types <= {str}:
        return values
    if types <= {int, type(None)}:  # not 1, 1.0 and True, which are equal
        return _by_value(values, _cell)
    return list(map(_cell, values))


def save_campaign(records: list[DopRecord], path: str | Path) -> None:
    """Write records back out, floats by repr; load_campaign(save_campaign(x)) is identity."""
    columns = dict(zip(DopRecord._fields, zip(*records) if records else repeat(())))
    Path(path).write_text(_csv_text(CAMPAIGN_COLUMNS, (
        _cells(columns["dop_id"]),
        list(map(repr, columns["duration_s"])),
        *map(_cells, map(columns.get, ("m1", "m2", "m_sup", "m_final", "k_auto", "alg_count"))),
        ["" if conf is None else repr(conf) for conf in columns["alg_confidence"]],
        list(map(_LABEL_TO_CSV.__getitem__, columns["label"])),
        _by_value(columns["sampled"], lambda s: "" if s is None else ("true" if s else "false")),
    )), encoding="utf-8")


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


def _pair(text: str, where: str) -> tuple[str, str]:
    """The key and value of a `key = value` file line or `--set` item, checking the key.

    `where` prefixes an error: `"<file>:<line>: "` or `"--set: "`.
    """
    key, eq, value = text.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}expected 'key = value', got {text!r}")
    if key not in _CONFIG_KEYS:
        raise ConfigError(f"{where}unknown key {key!r}")
    return key, value.strip()


def config_from_raw(raw: dict[str, str]) -> Config:
    """Build and validate a Config from raw string values of config keys."""
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
            from .classify import ClassifierSpec  # a config without a classifier never loads it
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


def load_config_with_overrides(path: str | Path | None, overrides: list[str]) -> Config:
    """The config file's pairs, then the `--set` items, as a validated Config.

    On a file line `#` starts a comment, and a key may appear once. The last
    `--set` item for a key wins. The classifier's threshold and target share
    exclude each other, so an item for either one drops both of the file's.
    """
    raw: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.partition("#")[0]
            if line.strip():
                key, value = _pair(line, f"{p}:{line_no}: ")
                if key in raw:
                    raise ConfigError(f"{p}:{line_no}: duplicate key {key!r}")
                raw[key] = value
    given = dict(_pair(item, "--set: ") for item in overrides)
    rules = ("classifier.threshold", "classifier.target_share")
    if not given.keys().isdisjoint(rules):
        raw = {key: value for key, value in raw.items() if key not in rules}
    return config_from_raw({**raw, **given})


# --- report emission --------------------------------------------------------


# Result class name -> report name (by name: emitting imports no result's module).
# A report is its name, the toolkit version and the result's fields in declaration
# order; a nested dataclass is emitted the same way, as the object of its fields.
_REPORT_NAMES = {
    "EvaluationReport": "evaluation",
    "Plan": "plan",
    "SuccessCurve": "success_curve",
    "CostBreakdown": "cost",
}


def report_to_dict(report) -> dict:
    """Name, version and top-level fields of a result; dicts pass through.

    Nested values stay as they are; `emit_report` writes dataclasses as
    objects and floats as 12-digit numbers.
    """
    if isinstance(report, dict):
        return report
    name = _REPORT_NAMES.get(type(report).__name__)
    if name is None:
        raise TypeError(f"cannot emit report for {type(report).__name__}")
    fields = {field: getattr(report, field) for field in report.__dataclass_fields__}
    return {"report": name, "version": VERSION, **fields}


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    """Append the `(key, value)` rows of a report read as JSON; a non-finite value is an error."""
    if isinstance(value, float):
        value = float(f"{value:.12g}")
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif hasattr(value, "__dataclass_fields__"):
        _flatten(prefix, {name: getattr(value, name) for name in value.__dataclass_fields__}, rows)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"report value {prefix} is not finite: {value}")
    else:
        rows.append((prefix, "" if value is None else str(value)))


def _json_scalar(value, floats: dict) -> str | None:
    """The JSON of a str, number, bool or None, else None; `floats` memoizes floats but 0."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not isinstance(value, float):
        return json.dumps(value) if value is None or isinstance(value, int) else None
    text = floats.get(value)
    if text is None:
        rounded = float(f"{value:.12g}")
        if not math.isfinite(rounded):
            raise ValueError("Out of range float values are not JSON compliant")
        text = float.__repr__(rounded)
        if rounded:  # -0.0 == 0.0 would share a key and lose its sign
            floats[value] = text
    return text


def _json_table(rows, indent: str, floats: dict) -> list[str] | None:
    """The items of rows of one width with scalar cells, built by columns; else None."""
    if not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) != 1:
        return None
    try:
        columns = [list(map(_json_scalar, column, repeat(floats))) for column in zip(*rows)]
    except ValueError:
        return None  # walked row by row, the first bad cell in json's order raises
    if not columns or any(None in column for column in columns):
        return None
    row = "[" + ",".join([f"\n{indent}  {{}}"] * len(columns)) + f"\n{indent}]"
    return list(map(row.format, *columns))


def _json_text(value, indent: str, floats: dict) -> str:
    """The JSON of a payload in one walk (see `emit_report`); `indent` starts its last line."""
    if (done := _json_scalar(value, floats)) is not None:
        return done
    if not isinstance(value, (dict, list, tuple)):
        if not hasattr(value, "__dataclass_fields__"):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        value = {name: getattr(value, name) for name in value.__dataclass_fields__}
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner, floats)}"
                 for k, v in value.items()]
        brackets = "{}"
    else:
        items = _json_table(value, inner, floats) or [_json_text(v, inner, floats) for v in value]
        brackets = "[]"
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _curves_csv(curves: list[dict]) -> str:
    def row(curve: dict, p) -> list[str]:
        n = p.grid_value if curve["grid_var"] == "n" else curve["fixed"].get("n")
        return [curve["grid_var"], f"{p.grid_value:.12g}", f"{p.pass_rate:.12g}",
                f"{p.mc_se:.12g}", "" if p.analytic is None else f"{p.analytic:.12g}",
                "" if n is None else f"{n:.12g}"]

    return _csv_text(["grid_var", "grid_value", "pass_rate", "mc_se", "analytic", "n"],
                     zip(*(row(curve, p) for curve in curves for p in curve["points"])))


def save_details(rows, path: str | Path) -> None:
    """Write `estimator.record_rows` as the details CSV (dop_id, d_i, stratum, weight).

    Numbers carry 12 significant digits, and an absent d_i is an empty cell.
    """
    dop_ids, labels, weights, d_i = list(zip(*rows)) or [()] * 4
    Path(path).write_text(_csv_text(["dop_id", "d_i", "stratum", "weight"], (
        _cells(dop_ids),
        ["" if d is None else format(d, ".12g") for d in d_i],
        list(map(_LABEL_TO_CSV.__getitem__, labels)),
        list(map("{:.12g}".format, weights)),
    )), encoding="utf-8")


def emit_report(report, fmt: str = "json", timestamp: bool = True) -> str:
    """Serialize a result with stable field names.

    JSON carries floats at 12 significant digits: its bytes are those of
    `json.dumps(payload, indent=2, allow_nan=False)` with every float so
    rounded and every nested dataclass made the dict of its fields (keys
    are strings). CSV emits the success curve table (grid_var, grid_value,
    pass_rate, mc_se, analytic, n; one header, then the rows of every curve
    of a `success_curves` report) and a flat key,value table for every
    other report type. The `created` field is informational and excluded
    from reproducibility comparisons. A non-finite number is a ValueError
    that names its key as the flat table does (`per_record[2][1]`).
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    payload = report_to_dict(report)
    if fmt == "csv" and payload.get("report") in ("success_curve", "success_curves"):
        return _curves_csv(payload.get("curves", [payload]))
    if timestamp:
        payload = {**payload, "created": datetime.now(timezone.utc).isoformat()}
    if fmt == "json":
        try:
            return _json_text(payload, "", {}) + "\n"
        except ValueError:
            _flatten("", payload, [])  # raises naming the non-finite value
            raise
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    return _csv_text(["key", "value"], zip(*rows))
