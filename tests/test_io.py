import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import every_field_set, fully_counted_campaign, make_record
import apcval.io as aio
from apcval.classify import KIND_FIRST_COUNT, KINDS
from apcval.cost import SCHEME_NO_FIRST_COUNT, SCHEMES, cost_breakdown
from apcval.domain import (
    SAFE,
    UNLABELED,
    UNSAFE,
    CostRates,
    DopRecord,
    PartitionParams,
    TestParams,
    relabel,
    validate_record,
)
from apcval.estimator import evaluate_partitioned
from apcval.planner import make_plan
from apcval.simulate import CurvePoint, SuccessCurve

GOLDEN = """dop_id,duration_s,m1,m2,m_sup,m_final,k_auto,alg_count,alg_confidence,label,sampled
a1,42.15,4,4,,4,4,4,0.97,s,true
a2,30.0,2,3,3,3,4,3,0.5,s,false
a3,55.5,7,7,,7,6,,,u,
"""


class TestLoadCampaign:
    def test_golden_file(self, tmp_path):
        path = tmp_path / "campaign.csv"
        path.write_text(GOLDEN, encoding="utf-8")
        records, violations = aio.load_campaign(path)
        assert len(records) == 3
        assert violations == []
        assert records[0].label == SAFE and records[0].sampled is True
        assert records[1].sampled is False
        assert records[2].label == UNSAFE and records[2].sampled is None
        assert records[2].alg_count is None
        assert records[0].alg_confidence == 0.97

    def test_unsafe_without_ground_truth_is_a_violation_not_an_error(self, tmp_path):
        text = GOLDEN.replace("7,7,,7,6,,,u,", "7,7,,,6,,,u,")
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        records, violations = aio.load_campaign(path)
        assert len(records) == 3
        assert any("ground truth" in v for v in violations)

    def test_strict_mode_promotes_violations(self, tmp_path):
        text = GOLDEN.replace("7,7,,7,6,,,u,", "7,7,,,6,,,u,")
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(aio.CampaignError, match="validation failed"):
            aio.load_campaign(path, strict=True)

    def test_duplicate_dop_id(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(GOLDEN + "a1,1.0,1,1,,1,1,,,s,true\n", encoding="utf-8")
        with pytest.raises(aio.CampaignError, match="duplicate dop_id 'a1'"):
            aio.load_campaign(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("dop_id,k_auto\na,1\n", encoding="utf-8")
        with pytest.raises(aio.CampaignError, match="malformed header"):
            aio.load_campaign(path)

    def test_header_order_is_free(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "k_auto,dop_id,duration_s,m1,m2,m_sup,m_final,alg_count,alg_confidence,label,sampled\n"
            "5,x1,10.0,5,5,,5,,,u,\n",
            encoding="utf-8",
        )
        records, violations = aio.load_campaign(path)
        assert records[0].k_auto == 5 and records[0].dop_id == "x1"

    def test_bad_cells(self, tmp_path):
        for mutation, message in [
            (GOLDEN.replace("a1,42.15", "a1,abc"), "not a number"),
            (GOLDEN.replace(",s,true", ",weird,true", 1), "unknown label"),
            (GOLDEN.replace(",s,true", ",s,yes", 1), "sampled must be"),
        ]:
            path = tmp_path / "bad.csv"
            path.write_text(mutation, encoding="utf-8")
            with pytest.raises(aio.CampaignError, match=message):
                aio.load_campaign(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(aio.CampaignError, match="cannot read"):
            aio.load_campaign(tmp_path / "nope.csv")

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        records = fully_counted_campaign(rng, 50)
        records.append(
            DopRecord(
                dop_id="special",
                duration_s=1.23456789012345,
                k_auto=3,
                alg_confidence=0.333333333333333314,
                label=UNLABELED,
            )
        )
        # every field set and distinct: a column read into the wrong field shows
        records.append(relabel(every_field_set(), SAFE, True))
        path = tmp_path / "out.csv"
        aio.save_campaign(records, path)
        loaded, _ = aio.load_campaign(path)
        assert loaded == records


class TestConfig:
    def test_defaults_without_file(self):
        config = aio.config_from_raw({})
        for loaded, default in (
            (config.params, TestParams()),
            (config.partition, PartitionParams()),
            (config.rates, CostRates()),
        ):
            for field in fields(default):
                assert getattr(loaded, field.name) == getattr(default, field.name), field.name
        assert config.partition.p_s == 0.90
        assert config.seed == 0
        assert config.classifier is None
        assert config.scheme == "no_first_count"

    def test_full_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            """
            # campaign configuration
            alpha = 0.05
            beta = 0.05
            delta = 0.01
            nu = 0.15
            nu_min = 0.03
            buffer = 1.15
            p_s = 0.9
            nu_s_ratio = 0.35
            q = 0.175
            seed = 99
            classifier.kind = first_count
            classifier.threshold = 0
            costs.r_av = 0.7
            costs.c_labor = 20
            costs.r_s = 1.2
            costs.scheme = with_first_count
            """,
            encoding="utf-8",
        )
        config = aio.load_config_with_overrides(path, [])
        assert config.params.nu == 0.15
        assert config.partition.q == 0.175
        assert config.seed == 99
        assert config.classifier.kind == KIND_FIRST_COUNT
        assert config.classifier.threshold == 0.0
        assert config.scheme == "with_first_count"

    def test_key_set(self):
        assert sorted(aio._CONFIG_KEYS) == sorted(
            ["alpha", "beta", "delta", "nu", "nu_min", "buffer", "p_s", "nu_s_ratio", "q",
             "seed", "classifier.kind", "classifier.threshold", "classifier.target_share",
             "costs.r_av", "costs.c_labor", "costs.r_s", "costs.scheme"]
        )

    @pytest.mark.parametrize("key", ["classifier.threshold", "classifier.target_share"])
    def test_classifier_number_names_the_key(self, key):
        with pytest.raises(aio.ConfigError) as exc:
            aio.config_from_raw({"classifier.kind": "rule_of_thumb", key: "abc"})
        assert str(exc.value) == f"{key} is not a number: 'abc'"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("gamma = 0.1\n", encoding="utf-8")
        with pytest.raises(aio.ConfigError, match="unknown key 'gamma'"):
            aio.load_config_with_overrides(path, [])

    def test_invalid_value_rejected(self):
        with pytest.raises(aio.ConfigError):
            aio.config_from_raw({"alpha": "1.5"})
        with pytest.raises(aio.ConfigError):
            aio.config_from_raw({"q": "0"})
        with pytest.raises(aio.ConfigError):
            aio.config_from_raw({"nu": "fast"})
        with pytest.raises(aio.ConfigError):
            aio.config_from_raw({"costs.scheme": "bogus"})

    def test_threshold_requires_kind(self):
        with pytest.raises(aio.ConfigError, match="classifier.kind"):
            aio.config_from_raw({"classifier.threshold": "1"})

    def test_overrides_win(self):
        raw = {"nu": "0.2"}
        merged = aio.merge_overrides(raw, ["nu=0.15", "seed=7"])
        config = aio.config_from_raw(merged)
        assert config.params.nu == 0.15
        assert config.seed == 7

    def test_override_unknown_key(self):
        with pytest.raises(aio.ConfigError, match="unknown override"):
            aio.merge_overrides({}, ["volume=11"])

    def test_duplicate_key_in_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nu = 0.2\nnu = 0.3\n", encoding="utf-8")
        with pytest.raises(aio.ConfigError, match="duplicate key"):
            aio.load_config_with_overrides(path, [])


@pytest.mark.parametrize(
    "key,value", [("nu_min", "nan"), ("nu", "nan"), ("delta", "inf"), ("costs.c_labor", "nan")]
)
def test_non_finite_values_rejected(key, value, capsys):
    from apcval.cli import main

    name = key.rpartition(".")[2]
    with pytest.raises(aio.ConfigError, match=f"{name} must be finite"):
        aio.config_from_raw({key: value})
    assert main(["plan", "--set", f"{key}={value}"]) == 1
    assert f"{name} must be finite" in capsys.readouterr().err


_FUZZ_KEYS = st.one_of(st.sampled_from(aio._CONFIG_KEYS), st.text(max_size=12))
_FUZZ_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=2.0).map(repr),
    st.floats().map(repr),
    st.integers(min_value=-5, max_value=10**6).map(str),
    st.sampled_from([*KINDS, *SCHEMES]),
    st.text(max_size=12),
)
_FUZZ_LINES = st.one_of(
    st.tuples(_FUZZ_KEYS, _FUZZ_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)
config_texts = st.lists(_FUZZ_LINES, max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=config_texts)
def test_any_config_text_loads_or_raises_config_error(text):
    try:
        config = aio.config_from_raw(aio._parse_config_text(text, "fuzz.cfg"))
    except aio.ConfigError:
        return
    assert isinstance(config, aio.Config)


@settings(max_examples=150, deadline=None)
@given(text=config_texts)
@example(text="delta = 1e-200")
@example(text="alpha = 1e-300")
@example(text="buffer = 1e308")
@example(text="nu_s_ratio = 1e200")
def test_plan_on_any_config_exits_0_or_1(text):
    from apcval.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["plan", "--config", str(path)])
    assert code in (0, 1)
    if code == 0:
        plan = json.loads(out.getvalue())
        assert all(isinstance(plan[k], int) for k in ("n_e", "n_rec", "buffered_n_rec"))
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


class TestEmitReport:
    def evaluation_report(self):
        records = [
            make_record(0, 2, 2, SAFE, sampled=True),
            make_record(1, 4, 4, SAFE, sampled=False),
            make_record(2, 3, 4, UNSAFE),
        ]
        return evaluate_partitioned(records, TestParams(), q_planned=0.5)

    def test_evaluation_roundtrip_12_digits(self):
        report = self.evaluation_report()
        payload = json.loads(aio.emit_report(report, "json"))
        assert payload["report"] == "evaluation"
        assert payload["version"] == aio.VERSION
        assert "created" in payload
        for name in ("d_hat", "nu_hat", "ci_low", "ci_high"):
            assert payload[name] == pytest.approx(getattr(report, name), rel=1e-11)
        assert payload["stats"]["m_hat_q"] == pytest.approx(report.stats.m_hat_q, rel=1e-11)
        assert payload["verdict"] == report.verdict
        assert payload["q_planned"] == 0.5

    def test_plan_serializes_reference_size_literally(self):
        plan = make_plan(TestParams(), PartitionParams(q=1.0))
        text = aio.emit_report(plan, "json")
        payload = json.loads(text)
        assert payload["n_e"] == 6147
        assert '"n_e": 6147' in text

    def test_success_curve_csv_column_order(self):
        curve = SuccessCurve(
            grid_var="n",
            points=(
                CurvePoint(100.0, 0.5, 0.05, 0.49),
                CurvePoint(200.0, 0.9, 0.03, None),
            ),
            test="classic",
            trials=100,
            seed=1,
        )
        text = aio.emit_report(curve, "csv")
        lines = text.splitlines()
        assert lines[0] == "grid_var,grid_value,pass_rate,mc_se,analytic,n"
        assert lines[1] == "n,100,0.5,0.05,0.49,100"
        assert lines[2] == "n,200,0.9,0.03,,200"

    def test_success_curve_csv_n_on_a_curve_over_mu(self):
        points = (CurvePoint(0.01, 0.5, 0.05, None),)
        over_mu = SuccessCurve(grid_var="mu", points=points, test="classic", trials=10, seed=1,
                               fixed={"n": 300.0})
        assert aio.emit_report(over_mu, "csv").splitlines()[1] == "mu,0.01,0.5,0.05,,300"
        no_n = SuccessCurve(grid_var="mu", points=points, test="classic", trials=10, seed=1)
        assert aio.emit_report(no_n, "csv").splitlines()[1] == "mu,0.01,0.5,0.05,,"

    def test_top_level_key_order(self):
        # a report is its name and version, then the result's fields in
        # declaration order; consumers and byte-for-byte comparisons rely on it
        def keys(report):
            return list(json.loads(aio.emit_report(report, "json", timestamp=False)))

        head = ["report", "version"]
        assert keys(self.evaluation_report()) == head + [
            "d_hat", "nu_hat", "n", "ci_low", "ci_high", "delta", "verdict",
            "clamped_s", "clamped_u", "q_planned", "stats", "warnings",
        ]
        assert keys(make_plan(TestParams(), PartitionParams())) == head + [
            "n_e", "n_rec", "q_planned", "q_source", "buffered_n_rec", "buffered_n_e",
            "params", "partition", "costs", "notes",
        ]
        records = [make_record(0, 2, 2, SAFE), make_record(1, 3, 3, UNSAFE)]
        assert keys(cost_breakdown(records, CostRates(), SCHEME_NO_FIRST_COUNT)) == head + [
            "scheme", "c_u", "c_s0", "c_sz", "per_record", "warnings",
        ]
        curve = SuccessCurve(grid_var="n", points=(CurvePoint(100.0, 0.5, 0.05, None),),
                             test="classic", trials=10, seed=1, fixed={"mu": 0.0})
        assert keys(curve) == head + ["grid_var", "test", "trials", "seed", "fixed", "points"]
        payload = json.loads(aio.emit_report(curve, "json"))
        assert payload["fixed"] == {"mu": 0.0}
        assert list(payload["points"][0]) == ["grid_value", "pass_rate", "mc_se", "analytic"]
        assert list(payload)[-1] == "created"

    def test_floats_are_12_significant_digits(self):
        report = self.evaluation_report()
        payload = json.loads(aio.emit_report(report, "json"))
        value = payload["stats"]["m_hat_q"]
        assert value == float(f"{report.stats.m_hat_q:.12g}")

    def test_csv_flat_table_for_other_reports(self):
        report = self.evaluation_report()
        text = aio.emit_report(report, "csv")
        lines = text.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("d_hat,") for line in lines)

    @pytest.mark.parametrize("key,value", [("stats.m_hat_q", math.nan),
                                           ("per_record[1][1]", -math.inf)])
    def test_non_finite_value_is_refused_by_its_csv_key(self, key, value):
        report = self.evaluation_report()
        records = [make_record(0, 2, 2, SAFE), make_record(1, 3, 3, UNSAFE)]
        breakdown = cost_breakdown(records, CostRates(), SCHEME_NO_FIRST_COUNT)
        if key.startswith("stats"):
            bad = replace(report, stats=replace(report.stats, m_hat_q=value))
        else:
            report = breakdown
            bad = replace(report, per_record=(report.per_record[0], ("r1", value)))
        assert f"\n{key}," in aio.emit_report(report, "csv")
        for fmt in ("json", "csv"):
            with pytest.raises(ValueError) as excinfo:
                aio.emit_report(bad, fmt)
            assert str(excinfo.value) == f"report value {key} is not finite: {value}"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            aio.emit_report(self.evaluation_report(), "xml")

    def test_timestamp_can_be_suppressed(self):
        a = aio.emit_report(self.evaluation_report(), "json", timestamp=False)
        b = aio.emit_report(self.evaluation_report(), "json", timestamp=False)
        assert a == b


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_classifier_threshold_rejected(value, capsys, tmp_path):
    from apcval.cli import main

    raw = {"classifier.kind": KIND_FIRST_COUNT, "classifier.threshold": value}
    with pytest.raises(aio.ConfigError, match="classifier.threshold must be finite"):
        aio.config_from_raw(raw)
    records = [make_record(i, 3, 3 + i % 2, UNLABELED) for i in range(4)]
    campaign = tmp_path / "campaign.csv"
    aio.save_campaign(records, campaign)
    argv = ["classify", "--campaign", str(campaign), "--out", str(tmp_path / "out.csv"),
            "--set", f"classifier.kind={KIND_FIRST_COUNT}",
            "--set", f"classifier.threshold={value}"]
    assert main(argv) == 1
    assert "classifier.threshold must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


# --- campaign CSV fuzzing ---------------------------------------------------

_COUNT_CELL = st.integers(min_value=0, max_value=40).map(str)
_PLAUSIBLE_CELLS = {
    "duration_s": st.floats(min_value=0.0, max_value=120.0).map(lambda x: f"{x:.1f}"),
    "m1": _COUNT_CELL,
    "m2": _COUNT_CELL,
    "m_sup": st.one_of(st.just(""), _COUNT_CELL),
    "m_final": _COUNT_CELL,
    "k_auto": _COUNT_CELL,
    "alg_count": st.one_of(st.just(""), _COUNT_CELL),
    "alg_confidence": st.floats(min_value=0.0, max_value=1.0).map(lambda x: f"{x:.3f}"),
}
_WILD_CELL = st.one_of(
    st.sampled_from(
        ["", "s", "u", "true", "false", "-1", "0", "nan", "inf", "-inf", "1e308",
         "9" * 40, "-" + "9" * 40, "0.5", " 3 ", "r0"]
    ),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)


@st.composite
def campaign_texts(draw):
    """CSV text over the campaign columns: mostly plausible, some cells arbitrary."""
    columns = list(aio.CAMPAIGN_COLUMNS)
    header = draw(st.one_of(
        st.just(columns),
        st.permutations(columns),
        st.lists(st.sampled_from(columns + ["extra"]), max_size=12),
    ))
    wild = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))  # share of arbitrary cells
    # unlabeled, fully labeled or mixed campaigns, as the CLI tells them apart
    plausible = dict(_PLAUSIBLE_CELLS)
    plausible["label"] = st.sampled_from(draw(st.sampled_from([[""], ["s", "u"], ["", "s", "u"]])))
    plausible["sampled"] = st.sampled_from(draw(st.sampled_from([["true", "false"], ["", "true", "false"]])))
    rows = []
    for i in range(draw(st.integers(min_value=0, max_value=10))):
        row = []
        for name in header:
            if draw(st.floats(min_value=0.0, max_value=1.0)) < wild:
                row.append(draw(_WILD_CELL))
            elif name == "dop_id":
                row.append(f"r{i}")
            else:
                row.append(draw(plausible.get(name, _WILD_CELL)))
        if draw(st.integers(min_value=0, max_value=39)) == 0:
            row = row[:-1] if row else ["x"]  # a ragged row
        rows.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _finite_numbers(payload: dict, names, optional=()) -> list[str]:
    """Names among `names` (required) and `optional` (None allowed) that are no finite number."""
    bad = []
    for name in (*names, *optional):
        value = payload.get(name)
        if value is None and name in optional:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(f"{name}={value!r}")
    return bad


@settings(max_examples=300, deadline=None)
@given(text=campaign_texts())
def test_any_campaign_text_loads_or_raises_campaign_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.csv"
        path.write_text(text, encoding="utf-8")
        try:
            records, violations = aio.load_campaign(path)
        except aio.CampaignError:
            return
    assert all(isinstance(r, DopRecord) for r in records)
    assert all(isinstance(v, str) for v in violations)


_FUZZ_COMMANDS = (
    ["evaluate"],
    ["evaluate", "--mode", "classic"],
    ["classify", "--set", "classifier.kind=first_count", "--set", "classifier.threshold=0"],
    ["classify", "--set", "classifier.kind=combined", "--set", "classifier.threshold=8"],
    ["cost", "--set", "costs.scheme=combined",
     "--set", "classifier.kind=combined", "--set", "classifier.threshold=8"],
    ["optimize"],
)
_HEADER = ",".join(aio.CAMPAIGN_COLUMNS)
_SAFE_ROWS = "a1,42.15,4,4,,4,4,4,0.97,s,true\na2,30.0,2,3,3,3,4,3,0.5,s,false\n"


@settings(max_examples=200, deadline=None)
@given(text=campaign_texts(), command=st.sampled_from(_FUZZ_COMMANDS))
@example(text=f"{_HEADER}\nr0,10.0,2,2,,2,2,,,u,\n", command=["evaluate"])
# an overflowing counting cost or unsafe stratum cost sum
@example(text=f"{_HEADER}\n{_SAFE_ROWS}a3,1e308,7,7,,7,6,,,u,\n",
         command=["cost", "--set", "costs.c_labor=1e300"])
@example(text=f"{_HEADER}\n{_SAFE_ROWS}r0,1e308,4,4,,4,4,,,u,\nr1,1e308,3,3,,3,3,,,u,\n"
              "r2,1e308,5,5,,5,5,,,u,\n", command=["optimize"])
def test_classify_and_evaluate_on_any_campaign_exit_0_or_1(text, command):
    from apcval.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.csv"
        path.write_text(text, encoding="utf-8")
        argv = [*command[:1], "--campaign", str(path), *command[1:]]
        if command[0] == "classify":
            argv += ["--out", str(Path(tmp) / "labeled.csv")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == "" and "error: " in err.getvalue()
        return
    payload = json.loads(out.getvalue())
    if command[0] == "classify":
        assert _finite_numbers(payload, ("n", "n_s", "n_u", "p_hat_s")) == []
        return
    if command[0] == "cost":
        assert _finite_numbers(payload, ("c_u", "c_s0", "c_sz")) == []
        per_record = dict(payload["per_record"])
        assert _finite_numbers(per_record, list(per_record)) == []
        return
    if command[0] == "optimize":
        assert _finite_numbers(payload, ("total_cost_classic", "total_cost_partitioned")) == []
        return
    assert _finite_numbers(payload, ("d_hat", "nu_hat", "n", "ci_low", "ci_high", "delta")) == []
    assert _finite_numbers(
        payload["stats"], ("n", "n_s", "n_u", "q_effective", "m_hat_q"),
        optional=("d_bar_s", "d_bar_u", "nu_hat_s", "nu_hat_u"),
    ) == []


# --- one-pass loader against the per-cell reference -------------------------


def _ref_int(cell: str, row: int, column: str) -> int | None:
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        raise aio.CampaignError(f"row {row}: {column} is not an integer: {cell!r}") from None


def _ref_float(cell: str, row: int, column: str) -> float | None:
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        raise aio.CampaignError(f"row {row}: {column} is not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise aio.CampaignError(f"row {row}: {column} must be finite, got {cell!r}")
    return value


def reference_load_campaign(path, strict: bool = False):
    """The per-cell loader `aio.load_campaign` replaced: one lookup, strip and check per cell."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise aio.CampaignError(f"cannot read campaign file {path}: {exc}") from exc

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise aio.CampaignError(f"{path}: empty file, header row is mandatory") from None
    columns = aio.CAMPAIGN_COLUMNS
    if sorted(header) != sorted(columns):
        raise aio.CampaignError(
            f"{path}: malformed header {header!r}, expected columns {list(columns)}"
        )
    col = {name: header.index(name) for name in columns}
    labels = {"s": SAFE, "u": UNSAFE, "": UNLABELED}

    records: list[DopRecord] = []
    violations: list[str] = []
    seen: set[str] = set()
    for row_no, row in enumerate(reader, start=2):
        if not row or all(cell == "" for cell in row):
            continue
        if len(row) != len(header):
            raise aio.CampaignError(f"row {row_no}: expected {len(header)} cells, got {len(row)}")
        cell = lambda name: row[col[name]].strip()  # noqa: E731
        dop_id = cell("dop_id")
        if not dop_id:
            raise aio.CampaignError(f"row {row_no}: empty dop_id")
        if dop_id in seen:
            raise aio.CampaignError(f"duplicate dop_id {dop_id!r}")
        seen.add(dop_id)

        label_cell = cell("label")
        if label_cell not in labels:
            raise aio.CampaignError(
                f"row {row_no}: unknown label {label_cell!r} (use s/u or empty)"
            )
        sampled_cell = cell("sampled")
        if sampled_cell not in ("", "true", "false"):
            raise aio.CampaignError(
                f"row {row_no}: sampled must be true/false or empty, got {sampled_cell!r}"
            )
        k_auto = _ref_int(cell("k_auto"), row_no, "k_auto")
        if k_auto is None:
            raise aio.CampaignError(f"row {row_no}: k_auto is mandatory")
        record = DopRecord(
            dop_id=dop_id,
            duration_s=_ref_float(cell("duration_s"), row_no, "duration_s") or 0.0,
            m1=_ref_int(cell("m1"), row_no, "m1"),
            m2=_ref_int(cell("m2"), row_no, "m2"),
            m_sup=_ref_int(cell("m_sup"), row_no, "m_sup"),
            m_final=_ref_int(cell("m_final"), row_no, "m_final"),
            k_auto=k_auto,
            alg_count=_ref_int(cell("alg_count"), row_no, "alg_count"),
            alg_confidence=_ref_float(cell("alg_confidence"), row_no, "alg_confidence"),
            label=labels[label_cell],
            sampled={"true": True, "false": False, "": None}[sampled_cell],
        )
        records.append(record)
        violations.extend(validate_record(record))

    if strict and violations:
        raise aio.CampaignError("validation failed:\n" + "\n".join(violations))
    return records, violations


def _load_outcome(load, path: Path, strict: bool) -> str:
    """`repr` of the records and violations (so -0.0 shows), or the CampaignError's text."""
    try:
        return repr(load(path, strict=strict))
    except aio.CampaignError as exc:
        return f"CampaignError: {exc}"


def _rows(*rows: str) -> str:
    return "\n".join((_HEADER, *rows)) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=campaign_texts(), strict=st.booleans())
@example(text=_rows("r0,-0.0,2,2,,2,2,,,u,"), strict=False)
@example(text=_rows("r0,nan,2,2,,2,2,,,u,"), strict=False)
@example(text=_rows("r0,inf,2,2,,2,2,,,u,"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,2,nan,u,"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,2,-inf,u,"), strict=False)
@example(text=_rows("r0,1_000.5,1_000,1_000,,1_000,1_000,,,u,"), strict=False)
@example(text=_rows(" r0 , 10.0 , 2 ,2,, 2,\t2 ,, 0.5 , u , "), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", " , ,,,,,,,,,"), strict=False)  # not skipped
@example(text=_rows("", ",,,", "r0,10.0,2,2,,2,2,,,u,", ",,,,,,,,,,"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,,,,u,"), strict=False)  # empty k_auto
@example(text=_rows("r0,abc,2,2,,2,x,,,u,"), strict=False)  # the k_auto message wins
@example(text="k_auto,sampled,dop_id,label,m_final,duration_s,m1,alg_confidence,m2,m_sup,"
              "alg_count\n5,,x1,u,5,10.0,5,,5,,\n6,true,x2,s,,,1,0.4,y,,\n", strict=False)
@example(text=_rows("r0,10.0,-1,2,,2,2,,,u,"), strict=True)
def test_load_campaign_matches_the_per_cell_reference(text, strict):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.csv"
        path.write_text(text, encoding="utf-8")
        expected = _load_outcome(reference_load_campaign, path, strict)
        assert _load_outcome(aio.load_campaign, path, strict) == expected


# --- tuple-unpacking writer against the attribute-based reference -----------


def reference_save_campaign(records, path) -> None:
    """The writer `aio.save_campaign` replaced: eleven attribute loads per record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(aio.CAMPAIGN_COLUMNS)
    labels = {SAFE: "s", UNSAFE: "u", UNLABELED: ""}
    for r in records:
        writer.writerow(
            [
                r.dop_id,
                repr(r.duration_s),
                "" if r.m1 is None else r.m1,
                "" if r.m2 is None else r.m2,
                "" if r.m_sup is None else r.m_sup,
                "" if r.m_final is None else r.m_final,
                r.k_auto,
                "" if r.alg_count is None else r.alg_count,
                "" if r.alg_confidence is None else repr(r.alg_confidence),
                labels[r.label],
                "" if r.sampled is None else ("true" if r.sampled else "false"),
            ]
        )
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


_OPT_COUNT = st.none() | st.integers(min_value=-3, max_value=10**20)
_ANY_FLOAT = st.floats() | st.sampled_from([-0.0, 0.0, 0.1, 1e-310, 1e308, 42.15])
_RECORDS = st.lists(st.builds(
    DopRecord,
    dop_id=st.text(min_size=1, max_size=6),
    k_auto=st.integers(min_value=-3, max_value=50),
    duration_s=_ANY_FLOAT,
    m1=_OPT_COUNT,
    m2=_OPT_COUNT,
    m_sup=_OPT_COUNT,
    m_final=_OPT_COUNT,
    alg_count=_OPT_COUNT,
    alg_confidence=st.none() | _ANY_FLOAT,
    label=st.sampled_from([SAFE, UNSAFE, UNLABELED]),
    sampled=st.sampled_from([True, False, None]),
), max_size=6)


@settings(max_examples=200, deadline=None)
@given(text=campaign_texts(), extra=_RECORDS)
@example(text=_rows("r0,-0.0,,,,,2,,-0.0,,"), extra=[])
@example(text=_rows(), extra=[DopRecord("z", 0, duration_s=-0.0, alg_confidence=-0.0)])
def test_save_campaign_matches_the_attribute_reference(text, extra):
    """Byte-identical files for loaded campaigns, drawn records and the every-field record."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.csv"
        path.write_text(text, encoding="utf-8")
        try:
            records, _ = aio.load_campaign(path)
        except aio.CampaignError:
            records = []
        records += [*extra, relabel(every_field_set(), UNSAFE, None)]
        ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        aio.save_campaign(records, ours)
        reference_save_campaign(records, reference)
        assert ours.read_bytes() == reference.read_bytes()
