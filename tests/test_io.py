import contextlib
import copy
import csv
import io
import json
import math
import re
import tempfile
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (every_field_set, fully_counted_campaign, loadable_campaigns, make_record,
                      subsample_safe)
from test_domain import reference_validate_record
import apcval.io as aio
from apcval.classify import KIND_FIRST_COUNT, KINDS, ClassifierSpec
from apcval.cost import SCHEME_NO_FIRST_COUNT, SCHEMES, cost_breakdown
from apcval.domain import (
    SAFE,
    UNLABELED,
    UNSAFE,
    CostRates,
    DopRecord,
    PartitionParams,
    TestParams,
    campaign_violations,
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

    def test_byte_order_mark_is_ignored(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(GOLDEN, encoding="utf-8")
        marked.write_text(GOLDEN, encoding="utf-8-sig")  # what Excel's "CSV UTF-8" writes
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert aio.load_campaign(marked) == aio.load_campaign(plain)

    @pytest.mark.parametrize("where,row_no", [("header", 1), ("first", 2), ("last", 5)])
    def test_a_field_over_the_csv_limit_names_the_file_and_row(self, tmp_path, capsys,
                                                               where, row_no):
        from apcval.cli import main

        long = '"' + "x" * (csv.field_size_limit() + 10) + '"'
        header, *rows = GOLDEN.splitlines()
        if where == "header":
            header = f"{long},{header}"
        elif where == "first":
            rows.insert(0, f"{long},1.0,1,1,,1,1,,,u,")
        else:
            rows.append(f"{long},1.0,1,1,,1,1,,,u,")
        path = tmp_path / "long.csv"
        path.write_text("\n".join([header, "", *rows]) + "\n", encoding="utf-8")
        if where != "header":
            row_no += 1  # the blank row counts
        message = f"{path}: row {row_no}: field larger than field limit"
        with pytest.raises(aio.CampaignError, match=f"^{re.escape(message)}"):
            aio.load_campaign(path)
        assert main(["evaluate", "--campaign", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_a_bad_row_before_a_field_over_the_csv_limit_is_named_first(self, tmp_path):
        path = tmp_path / "long.csv"
        long = '"' + "x" * (csv.field_size_limit() + 10) + '"'
        path.write_text(GOLDEN.replace("a2,30.0", "a2,abc") + f"{long},1.0,1,1,,1,1,,,u,\n",
                        encoding="utf-8")
        with pytest.raises(aio.CampaignError, match="^row 3: duration_s is not a number: 'abc'$"):
            aio.load_campaign(path)

    def test_a_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        from apcval.cli import main

        path = tmp_path / "latin1.csv"
        path.write_bytes(GOLDEN.replace("a3", "a\u00e9").encode("latin-1"))
        position = path.read_bytes().index(b"\xe9")
        message = (f"cannot read campaign file {path}: 'utf-8' codec can't decode "
                   f"byte 0xe9 in position {position}: invalid continuation byte")
        with pytest.raises(aio.CampaignError, match=f"^{re.escape(message)}$"):
            aio.load_campaign(path)
        assert main(["evaluate", "--campaign", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_clean_campaign_is_not_validated_record_by_record(self, tmp_path):
        records = fully_counted_campaign(np.random.default_rng(5), 5256)
        path = tmp_path / "clean.csv"
        aio.save_campaign(records, path)
        assert aio.load_campaign(path) == (records, [])

        bad = records[-1]._replace(m_final=records[-1].m1 + 1)
        assert validate_record(bad) != []
        aio.save_campaign([*records[:-1], bad], path)
        loaded, violations = aio.load_campaign(path)
        assert loaded[-1] == bad and violations == validate_record(bad)

    @settings(max_examples=300, deadline=None)
    @given(records=loadable_campaigns(8))
    def test_violations_are_those_of_validate_record(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "campaign.csv"
            aio.save_campaign(records, path)
            loaded, violations = aio.load_campaign(path)
        assert loaded == records
        assert violations == [v for r in loaded for v in reference_validate_record(r)]


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

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "marked.cfg"
        path.write_text("nu = 0.15\nseed = 7\n", encoding="utf-8-sig")
        cfg = aio.load_config_with_overrides(path, [])
        assert cfg.params.nu == 0.15 and cfg.seed == 7

    def test_a_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        from apcval.cli import main

        path = tmp_path / "latin1.cfg"
        path.write_bytes("# r\u00e9glage\nnu = 0.15\n".encode("latin-1"))
        message = (f"cannot read config file {path}: 'utf-8' codec can't decode "
                   "byte 0xe9 in position 3: invalid continuation byte")
        with pytest.raises(aio.ConfigError, match=f"^{re.escape(message)}$"):
            aio.load_config_with_overrides(path, [])
        assert main(["plan", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("gamma = 0.1\n", encoding="utf-8")
        with pytest.raises(aio.ConfigError, match=f"^{re.escape(str(path))}:1: unknown key 'gamma'$"):
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

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nu = 0.2\n", encoding="utf-8")
        config = aio.load_config_with_overrides(path, ["nu=0.15", "seed=7"])
        assert config.params.nu == 0.15
        assert config.seed == 7
        assert aio.load_config_with_overrides(path, ["nu=0.1", "nu = 0.15"]).params.nu == 0.15

    @pytest.mark.parametrize("override, kept", [
        ("classifier.threshold=5", "threshold"),
        ("classifier.target_share=0.5", "target_share"),
    ])
    def test_an_overridden_rule_drops_the_files_rules(self, tmp_path, override, kept):
        path = tmp_path / "cfg.txt"
        path.write_text("classifier.kind = rule_of_thumb\nclassifier.target_share = 0.9\n"
                        "nu = 0.2\n", encoding="utf-8")
        config = aio.load_config_with_overrides(path, [override])
        assert config.params.nu == 0.2
        assert config.classifier == ClassifierSpec(
            "rule_of_thumb", **{kept: float(override.split("=")[1])})
        config = aio.load_config_with_overrides(path, ["nu=0.15"])
        assert config.classifier == ClassifierSpec("rule_of_thumb", target_share=0.9)

    def test_both_rules_overridden_stay_an_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("classifier.kind = first_count\nclassifier.threshold = 0\n",
                        encoding="utf-8")
        with pytest.raises(aio.ConfigError, match="exactly one of threshold/target_share"):
            aio.load_config_with_overrides(
                path, ["classifier.threshold=1", "classifier.target_share=0.5"])

    def test_override_unknown_key(self):
        with pytest.raises(aio.ConfigError, match="^--set: unknown key 'volume'$"):
            aio.load_config_with_overrides(None, ["volume=11"])
        with pytest.raises(aio.ConfigError, match="^--set: expected 'key = value', got 'nu'$"):
            aio.load_config_with_overrides(None, ["nu"])

    def test_a_comment_may_follow_a_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nu = 0.15   # planning deviation\n  # seed = 3\nseed = 7#\n",
                        encoding="utf-8")
        config = aio.load_config_with_overrides(path, [])
        assert (config.params.nu, config.seed) == (0.15, 7)
        path.write_text("nu 0.15 # no equals sign\n", encoding="utf-8")
        message = f"{path}:1: expected 'key = value', got 'nu 0.15 '"
        with pytest.raises(aio.ConfigError, match=f"^{re.escape(message)}$"):
            aio.load_config_with_overrides(path, [])

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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            config = aio.load_config_with_overrides(path, [])
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

    def test_unknown_report_type(self):
        with pytest.raises(TypeError, match="^cannot emit report for PartitionParams$"):
            aio.emit_report(PartitionParams())

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
        with open(path, encoding="utf-8-sig", newline="") as file:  # a quoted "\r" stays
            text = file.read()
    except OSError as exc:
        raise aio.CampaignError(f"cannot read campaign file {path}: {exc}") from exc

    reader = csv.reader(io.StringIO(text, newline=""))
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
        violations.extend(reference_validate_record(record))

    if strict and violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise aio.CampaignError(f"validation failed: {violations[0]}{more}")
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
# the edges of the column-wise parse: row numbers past blank rows, a bad last row,
# padding in every column, durations that read as 0.0, an empty column, a BOM
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", "", ",,,,,,,,,,", "r1,abc,2,2,,2,2,,,u,"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u,", "r2,10.0,2"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u,,"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u,", "r0,8.0,3,3,,3,3,,,u,"),
         strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,1.5,,u,"), strict=False)
@example(text=_rows(" r0 , 10.0 , 2 , 3 , 3 , 3 , 2 , 1 , 0.5 , s , true ",
                    "\tr1\t,\t9.5\t,\t1\t,\t1\t,\t\t,\t1\t,\t1\t,\t1\t,\t0.9\t,\tu\t,\t\t"),
         strict=False)
@example(text=_rows("r0,5.0,2,2,,2,2,,,u,", "r1,-0.0,2,2,,2,2,,,u,", "r2,0.0,2,2,,2,2,,,u,",
                    "r3,,2,2,,2,2,,,u,", "r4,-0,2,2,,2,2,,,u,"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,1,,u,", "r1,9.0,1,1,,1,1,1,,u,"), strict=True)
@example(text="\ufeff" + _rows("r0,10.0,2,2,,2,2,,,u,"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", " ,9.0,1,1,,1,1,,,u,"), strict=False)  # empty dop_id
# the first error is the first bad row's, and within it the first check's, whatever
# column each check reads: a later row's earlier check, a duplicate before an empty
# id, ragged and unreadable rows among bad cells, two bad cells in one row or column
@example(text=_rows("r0,10.0,2,2,,2,x,,,u,", "r1,9.0,1,1,,1,1,,,u,yes"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u,", "r0,8.0,3,3,,3,3,,,u,",
                    " ,7.0,1,1,,1,1,,,u,"), strict=False)
@example(text=_rows("r0,abc,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u", "r1,abc,1,1,,1,1,,,u,"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", "r1,abc,1,1,,1,1,,,u,",
                    '"' + "x" * (csv.field_size_limit() + 10) + '",9.0,1,1,,1,1,,,u,'),
         strict=False)
@example(text=_rows("r0,abc,x,2,,2,2,,,u,yes"), strict=False)
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", "r1,abc,1,1,,1,1,,,u,", "r2,xyz,1,1,,1,1,,,u,"),
         strict=False)
def test_load_campaign_matches_the_per_cell_reference(text, strict):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.csv"
        path.write_text(text, encoding="utf-8")
        expected = _load_outcome(reference_load_campaign, path, strict)
        assert _load_outcome(aio.load_campaign, path, strict) == expected


# --- split reading against the csv.reader loader ----------------------------


def reference_reader_load_campaign(path, strict: bool = False):
    """`aio.load_campaign` as it read every file: through `csv.reader`, then by rows.

    It reads the file with `newline=""`, as the loader now does, so a quoted
    `\\r` stays in its cell.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig", newline="") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise aio.CampaignError(f"cannot read campaign file {path}: {exc}") from exc

    rows: list[list[str]] = []
    last = None  # the error of the row that ends the rows
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        last = f"{path}: row {len(rows) + 1}: {exc}"
    if not rows:
        raise aio.CampaignError(last or f"{path}: empty file, header row is mandatory")
    header, *rows = rows
    if sorted(header) != sorted(aio.CAMPAIGN_COLUMNS):
        raise aio.CampaignError(
            f"{path}: malformed header {header!r}, expected columns {list(aio.CAMPAIGN_COLUMNS)}"
        )
    row_nos = range(2, len(rows) + 2)
    if not all(map(any, rows)):
        row_nos = [row_no for row_no, row in zip(row_nos, rows) if any(row)]
        rows = list(filter(any, rows))
    if set(map(len, rows)) - {len(header)}:
        cut = next(i for i, row in enumerate(rows) if len(row) != len(header))
        last = f"row {row_nos[cut]}: expected {len(header)} cells, got {len(rows[cut])}"
        del rows[cut:]
    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    values, errors = {}, []
    for check, (field, convert) in enumerate(aio._CELL_CHECKS):
        try:
            values[field] = convert(field, columns[field], row_nos)
        except ValueError as exc:
            index, message = exc.args
            errors.append((index, check, message))
    if errors or last:
        raise aio.CampaignError(min(errors)[2] if errors else last)
    records = [DopRecord(**{field: values[field][i] for field in DopRecord._fields})
               for i in range(len(row_nos))]
    violations = campaign_violations(records)
    if strict and violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise aio.CampaignError(f"validation failed: {violations[0]}{more}")
    return records, violations


@st.composite
def edited_campaign_texts(draw):
    """`campaign_texts` with line ends, blank lines, quotes and odd characters spliced in."""
    lines = draw(campaign_texts()).split("\n")[:-1]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        edit = draw(st.sampled_from(["blank", "commas", "char", "quote"]))
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        if edit == "blank" or edit == "commas":
            lines.insert(at, "" if edit == "blank" else "," * draw(st.integers(0, 12)))
        elif lines and at < len(lines):
            line = lines[at]
            cut = draw(st.integers(min_value=0, max_value=len(line)))
            char = draw(st.sampled_from(["\r", "\0", '"', "\ufeff", "\x0c", "\u2028"]))
            lines[at] = line[:cut] + char + line[cut:] if edit == "char" else f'"{line}"'
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    final = draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + (final if lines else "")


_LONG = "x" * (csv.field_size_limit() + 1)
# the files the split must decline, and those at its edges
_READER_CASES = {
    "blank_header": "\n" + _rows("r0,10.0,2,2,,2,2,,,u,"),
    "blank_first_line": "\nx\n",
    "blank_rows": _rows("r0,10.0,2,2,,2,2,,,u,", "", "r1,9.0,1,1,,1,1,,,u,"),
    "comma_rows": _rows("r0,10.0,2,2,,2,2,,,u,", ",,,,,,,,,,", "r1,9.0,1,1,,1,1,,,u,"),
    "blank_last_row": _rows("r0,10.0,2,2,,2,2,,,u,") + "\n",
    "no_final_newline": _rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u,")[:-1],
    "header_only": _HEADER + "\n",
    "header_only_no_newline": _HEADER,
    "empty": "",
    "crlf": _rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u,").replace("\n", "\r\n"),
    "cr": _rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u,").replace("\n", "\r"),
    "quoted": _rows('"r0",10.0,2,2,,2,2,,,u,', '"r,1",9.0,1,1,,1,1,,,u,', '"r""2",1,1,1,,1,1,,,u,'),
    "quoted_of_the_width": _rows('"r0",10.0,2,2,,2,2,,,u,', 'r1,"9.0",1,1,,1,1,,"",u,',
                                 'r"2,9.0,1,1,,1,1,,,u,'),
    "quoted_newlines": _rows('"r\r0",10.0,2,2,,2,2,,,u,', '"r\n1",9.0,1,1,,1,1,,,u,',
                             '"r\r\n2",9.0,1,1,,1,1,,,u,'),
    "bare_cr_in_a_cell": _rows("r\r0,10.0,2,2,,2,2,,,u,"),
    "nul": _rows("r\x000,10.0,2,2,,2,2,,,u,"),
    "bom": "\ufeff" + _rows("r0,10.0,2,2,,2,2,,,u,"),
    "bom_blank_header": "\ufeff\n" + _rows("r0,10.0,2,2,,2,2,,,u,"),
    "long_field": _rows("r0,10.0,2,2,,2,2,,,u,", f"{_LONG},9.0,1,1,,1,1,,,u,"),
    "long_line": _rows("r0,10.0,2,2,,2,2,,,u," + " " * csv.field_size_limit()),
    "long_header": f"{_LONG},{_HEADER}\n",
    "short_row": _rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u"),
    "long_row": _rows("r0,10.0,2,2,,2,2,,,u,,", "r1,9.0,1,1,,1,1,,,u,"),
    "ragged_but_same_commas": _rows("r0,10.0,2,2,,2,2,,,u,,", "r1,9.0,1,1,,1,1,,,u"),
    "one_column": "dop_id\nr0\n\nr1\n",
    "odd_line_breaks": _rows("r\x0c0,10.0,2,2,,2,2,,,u,", "r\u20281,9.0,1,1,,1,1,,,u,"),
}


@settings(max_examples=300, deadline=None)
@given(text=campaign_texts() | edited_campaign_texts(), strict=st.booleans())
@example(text=_rows("r0,10.0,2,2,,2,2,,,u,", "r1,9.0,1,1,,1,1,,,u,"), strict=False)
def test_load_campaign_matches_the_csv_reader_loader(text, strict):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _load_outcome(reference_reader_load_campaign, path, strict)
        assert _load_outcome(aio.load_campaign, path, strict) == expected


@pytest.mark.parametrize("case", sorted(_READER_CASES))
@pytest.mark.parametrize("strict", [False, True])
def test_load_campaign_reads_every_edge_as_the_csv_reader_loader(case, strict, tmp_path):
    path = tmp_path / "campaign.csv"
    path.write_bytes(_READER_CASES[case].encode("utf-8"))
    expected = _load_outcome(reference_reader_load_campaign, path, strict)
    assert _load_outcome(aio.load_campaign, path, strict) == expected


@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_only_a_plain_text_is_split(case):
    """The split takes the plain texts and declines the rest, which `csv.reader` reads."""
    text = _READER_CASES[case].removeprefix("\ufeff")  # the file is read as utf-8-sig
    plain = case in ("bom", "no_final_newline", "header_only",
                     "header_only_no_newline", "odd_line_breaks")
    assert (aio._plain_columns(text) is not None) == plain
    if plain:
        header, columns = aio._plain_columns(text)
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [header, *zip(*columns)] == [rows[0], *map(tuple, filter(any, rows[1:]))]


def test_a_saved_campaign_is_split(tmp_path):
    records = fully_counted_campaign(np.random.default_rng(2), 300)
    aio.save_campaign(records, tmp_path / "c.csv")
    text = (tmp_path / "c.csv").read_text(encoding="utf-8")
    assert aio._plain_columns(text) is not None
    assert aio.load_campaign(tmp_path / "c.csv") == (records, [])


# --- tuple-unpacking writer against the attribute-based reference -----------


def reference_csv_text(rows) -> str:
    """The rows as `csv.writer(..., lineterminator="\\n")` writes them, but a cell holding
    `\\r` is quoted on every interpreter (CPython 3.11 and 3.12 leave it bare).

    `csv.writer` quotes a cell that holds a character of its line terminator, so
    each row is written with the terminator `"\\r\\n"`, which then becomes `"\\n"`.
    """
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n"))
    return "".join(line + "\n" for line in lines)


def reference_save_campaign(records, path) -> None:
    """The writer `aio.save_campaign` replaced: eleven attribute loads per record."""
    labels = {SAFE: "s", UNSAFE: "u", UNLABELED: ""}
    rows = [aio.CAMPAIGN_COLUMNS]
    for r in records:
        rows.append(
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
    Path(path).write_text(reference_csv_text(rows), encoding="utf-8")


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


# --- columnar writers against the csv.writer writers -------------------------


def reference_save_details(rows, path) -> None:
    """The writer `aio.save_details` replaced: one row at a time through `csv.writer`."""
    weights: dict[float, str] = {}
    Path(path).write_text(reference_csv_text([["dop_id", "d_i", "stratum", "weight"], *(
        (dop_id, "" if d_i is None else f"{d_i:.12g}", aio._LABEL_TO_CSV[label],
         weights.get(weight) or weights.setdefault(weight, f"{weight:.12g}"))
        for dop_id, label, weight, d_i in rows
    )]), encoding="utf-8")


def reference_curves_csv(curves) -> str:
    """The curve table `aio.emit_report` wrote one row at a time through `csv.writer`."""
    def row(curve: dict, p) -> list[str]:
        n = p.grid_value if curve["grid_var"] == "n" else curve["fixed"].get("n")
        return [curve["grid_var"], f"{p.grid_value:.12g}", f"{p.pass_rate:.12g}",
                f"{p.mc_se:.12g}", "" if p.analytic is None else f"{p.analytic:.12g}",
                "" if n is None else f"{n:.12g}"]

    return reference_csv_text([["grid_var", "grid_value", "pass_rate", "mc_se", "analytic", "n"],
                               *(row(curve, p) for curve in curves for p in curve["points"])])


# cells that a writer must quote, or write as they are
_CELL_TEXTS = st.text(max_size=6) | st.sampled_from(
    [",", '"', "\n", "\0", "\r", "a\rb", "a,b", 'say "hi"', "\r\n", "Zürich", "北京", "😀", " ", ""])
_ODD_COUNTS = st.none() | st.integers(min_value=-3, max_value=10**20) | st.sampled_from(
    [True, False, 1, 1.0, 0, -0.0, 0.0, np.float64(2.0), np.int64(3)])
_ODD_FLOATS = _ANY_FLOAT | st.sampled_from([True, 1, np.float64(-0.0)])
_ODD_RECORDS = st.lists(st.builds(
    DopRecord,
    dop_id=_CELL_TEXTS,
    k_auto=_ODD_COUNTS,
    duration_s=_ODD_FLOATS,
    m1=_ODD_COUNTS,
    m2=_ODD_COUNTS,
    m_sup=_ODD_COUNTS,
    m_final=_ODD_COUNTS,
    alg_count=_ODD_COUNTS,
    alg_confidence=st.none() | _ODD_FLOATS,
    label=st.sampled_from([SAFE, UNSAFE, UNLABELED]),
    sampled=st.sampled_from([True, False, None, 1, 0]),
), max_size=6)


@settings(max_examples=300, deadline=None)
@given(records=_ODD_RECORDS)
@example(records=[])
@example(records=[DopRecord("a\rb", 1, m1=True, m2=1, m_sup=1.0, m_final=-0.0),
                  DopRecord('"x",\n', 1, m1=1, m2=True, m_sup=1, m_final=0.0, duration_s=-0.0)])
def test_save_campaign_writes_any_cell_as_the_csv_writer_reference(records):
    with tempfile.TemporaryDirectory() as tmp:
        ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        aio.save_campaign(records, ours)
        reference_save_campaign(records, reference)
        assert ours.read_bytes() == reference.read_bytes()


_DETAIL_NUMBERS = st.floats() | st.sampled_from([0.0, -0.0, 1.0, 1, True, 1 / 0.175, np.float64(-0.0)])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_CELL_TEXTS, st.sampled_from([SAFE, UNSAFE, UNLABELED]),
                               _DETAIL_NUMBERS, st.none() | _DETAIL_NUMBERS), max_size=6))
@example(rows=[])
@example(rows=[("a\rb", SAFE, 1, -0.0), ("c", UNSAFE, True, 0.0), ("d", SAFE, 1.0, None)])
def test_save_details_writes_any_cell_as_the_csv_writer_reference(rows):
    with tempfile.TemporaryDirectory() as tmp:
        ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        aio.save_details(iter(rows), ours)
        reference_save_details(iter(rows), reference)
        assert ours.read_bytes() == reference.read_bytes()


_CURVE_POINTS = st.builds(SimpleNamespace, grid_value=_DETAIL_NUMBERS, pass_rate=_DETAIL_NUMBERS,
                          mc_se=_DETAIL_NUMBERS, analytic=st.none() | _DETAIL_NUMBERS)
_CURVES = st.lists(st.fixed_dictionaries({
    "grid_var": st.sampled_from(["n", "mu"]) | _CELL_TEXTS,
    "fixed": st.fixed_dictionaries({}, optional={"n": _DETAIL_NUMBERS}),
    "points": st.lists(_CURVE_POINTS, max_size=4),
}), max_size=3)


@settings(max_examples=300, deadline=None)
@given(curves=_CURVES)
@example(curves=[])
@example(curves=[{"grid_var": "a\rb,", "fixed": {"n": True}, "points": [
    SimpleNamespace(grid_value=-0.0, pass_rate=1, mc_se=True, analytic=None)]}])
def test_curve_csv_writes_any_cell_as_the_csv_writer_reference(curves):
    payload = {"report": "success_curves", "curves": curves}
    assert aio.emit_report(payload, "csv") == reference_curves_csv(curves)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_CELL_TEXTS, min_size=2, max_size=4), max_size=5))
def test_the_csv_writer_reference_is_csv_writer_but_for_carriage_returns(rows):
    """Where no cell holds `\\r` it is `csv.writer`'s text; it always reads back as the rows."""
    text = reference_csv_text(rows)
    assert list(csv.reader(io.StringIO(text, newline=""))) == rows
    if not any("\r" in cell for row in rows for cell in row):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert text == buf.getvalue()


# quoted ids that hold the characters a writer must quote
_QUOTED_IDS = ["a\rb", "c,d", 'say "e"', "f\r\ng", "h\ni"]


def test_a_quoted_carriage_return_round_trips(tmp_path):
    records = [make_record(i, 3, 3, UNSAFE)._replace(dop_id=dop_id)
               for i, dop_id in enumerate(_QUOTED_IDS)]
    path = tmp_path / "campaign.csv"
    aio.save_campaign(records, path)
    assert b'"a\rb",' in path.read_bytes()
    assert aio.load_campaign(path) == (records, [])


def test_a_quoted_carriage_return_round_trips_through_classify(tmp_path, capsys):
    from apcval.cli import main

    records = [make_record(i, 3 + i, 3, UNLABELED)._replace(dop_id=dop_id)
               for i, dop_id in enumerate(_QUOTED_IDS)]
    path, out = tmp_path / "campaign.csv", tmp_path / "labeled.csv"
    aio.save_campaign(records, path)
    assert main(["classify", "--campaign", str(path), "--out", str(out),
                 "--set", "classifier.kind=rule_of_thumb", "--set", "classifier.threshold=5"]) == 0
    capsys.readouterr()
    labeled, _ = aio.load_campaign(out)
    assert [r.dop_id for r in labeled] == _QUOTED_IDS


def test_a_flat_csv_key_with_a_carriage_return_reads_back():
    text = aio.emit_report({"\r": None, "a\rb": "c\r"}, "csv", timestamp=False)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows == [["key", "value"], ["\r", ""], ["a\rb", "c\r"]]


# --- one-walk JSON emitter against `_clean` and `json.dumps` -----------------


def reference_clean(obj):
    """The payload `emit_report` once handed `json.dumps`: floats at 12 digits, dataclasses dicts."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: reference_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_clean(v) for v in obj]
    names = getattr(obj, "__dataclass_fields__", None)
    if names is not None:
        return {name: reference_clean(getattr(obj, name)) for name in names}
    return obj


def reference_flatten(prefix: str, value, rows: list) -> None:
    """The flat table of a cleaned payload, as `emit_report` once wrote it."""
    if isinstance(value, dict):
        for k, v in value.items():
            reference_flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            reference_flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"report value {prefix} is not finite: {value}")
    else:
        rows.append((prefix, "" if value is None else str(value)))


def reference_emit_report(report, fmt: str) -> str:
    """`emit_report(report, fmt, timestamp=False)` as `_clean` and `json.dumps` wrote it."""
    payload = aio.report_to_dict(report)
    if fmt == "csv" and payload.get("report") in ("success_curve", "success_curves"):
        return aio.emit_report(report, fmt)  # the curve table is not the emitter's
    payload = reference_clean(payload)
    if fmt == "json":
        try:
            return json.dumps(payload, indent=2, allow_nan=False) + "\n"
        except ValueError:
            reference_flatten("", payload, [])
            raise
    rows: list = []
    reference_flatten("", payload, rows)
    return reference_csv_text([["key", "value"], *rows])


def _emitted(emit, report, fmt: str):
    """The text an emitter writes, or the type and text of the error it raises."""
    try:
        return emit(report, fmt)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@dataclass(frozen=True)
class _Nested:
    a: object
    b: object = ()


class _Opaque:
    """An object that json cannot write."""


_TEXTS = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", 'say "hi"\\n', "\x00\x1f\t\n\r\x7f", "Zürich", "北京", "😀", " "])
_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, 123456789012.5, np.float64(0.1),
                   np.float64(-0.0), 1.7976931348623157e308, 2.5, 1234567.0]
_FLOATS = (st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_SPECIAL_FLOATS)
           | st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXTS
_BAD = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), _Opaque(), 1j])


def _tables(cells):
    """Lists of rows (lists or tuples) of one drawn width, or of any widths."""
    def rows(width):
        row = st.lists(cells, min_size=width, max_size=width)
        return st.lists(row | row.map(tuple), max_size=6)

    return st.integers(min_value=0, max_value=3).flatmap(rows) | st.lists(st.lists(cells), max_size=4)


def _payloads(scalars):
    values = st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXTS, inner, max_size=4),
        st.builds(_Nested, inner, inner),
        _tables(scalars),
        _tables(inner),
    ), max_leaves=24)
    return st.dictionaries(_TEXTS, values, max_size=6)


@settings(max_examples=400, deadline=None)
@given(payload=_payloads(_SCALARS), fmt=st.sampled_from(["json", "csv"]))
@example(payload={"z": [0.0, -0.0, [-0.0, 0.0]], "t": [(0.0, "a"), (-0.0, "b"), (-0.0, "a")]},
         fmt="json")
@example(payload={"per_record": [["d1", 0.1 + 0.2], ["d2", 2.0], ["d3", 0.1 + 0.2]]}, fmt="json")
@example(payload={"rows": [[1, None, True, "x", 1.5], [False, 2, None, "y", -0.0]]}, fmt="json")
@example(payload={"ragged": [[1, 2], [3], []], "empty": [[], []], "e": {}, "l": [], "t": ()},
         fmt="json")
def test_emit_report_writes_the_bytes_of_json_dumps(payload, fmt):
    expected = reference_emit_report(payload, fmt)
    assert aio.emit_report(payload, fmt, timestamp=False) == expected


@settings(max_examples=300, deadline=None)
@given(payload=_payloads(_SCALARS | _BAD), fmt=st.sampled_from(["json", "csv"]))
@example(payload={"per_record": [["d0", 1.0], ["d1", 2.0], ["d2", math.nan]]}, fmt="json")
@example(payload={"t": [[1.0, math.inf], [_Opaque(), 2.0]]}, fmt="json")
@example(payload={"t": [[1.0, _Opaque()], [math.nan, 2.0]]}, fmt="json")
def test_emit_report_raises_as_json_dumps(payload, fmt):
    """A non-finite value names its key, an object json cannot write is a TypeError."""
    emit = partial(aio.emit_report, timestamp=False)
    assert _emitted(emit, payload, fmt) == _emitted(reference_emit_report, payload, fmt)


def test_emit_report_refuses_what_json_refuses():
    payload = {"per_record": [["d0", 1.0], ["d1", 2.0], ["d2", -math.inf]]}
    with pytest.raises(ValueError, match=r"^report value per_record\[2\]\[1\] is not finite: -inf$"):
        aio.emit_report(payload)
    with pytest.raises(TypeError, match="^Object of type _Opaque is not JSON serializable$"):
        aio.emit_report({"per_record": [["d0", 1.0], ["d1", _Opaque()]]})
    with pytest.raises(TypeError):
        aio.emit_report({"counts": [np.int64(3)]})


def _campaign_files(tmp_path: Path, seed: int, n: int) -> dict[str, Path]:
    """A raw, a labeled and a sampled campaign of n records, durations drawn."""
    rng = np.random.default_rng(seed)
    labeled = [r._replace(duration_s=round(float(rng.uniform(5.0, 90.0)), 1),
                          alg_confidence=round(float(rng.uniform()), 3))
               for r in fully_counted_campaign(rng, n)]
    files = {"labeled": labeled, "sampled": subsample_safe(labeled, rng, 0.3),
             "raw": [relabel(r, UNLABELED, None) for r in labeled]}
    for name, records in files.items():
        aio.save_campaign(records, tmp_path / f"{name}.csv")
    return {name: tmp_path / f"{name}.csv" for name in files}


_RULE = ["--set", "classifier.kind=combined", "--set", "classifier.threshold=5"]
_EVERY_COMMAND = {
    "plan": ["plan"],
    "classify": ["classify", "--campaign", "{raw}", "--out", "{out}", *_RULE],
    "sample": ["sample", "--campaign", "{labeled}", "--out", "{out}"],
    "evaluate": ["evaluate", "--campaign", "{sampled}"],
    "evaluate_classic": ["evaluate", "--campaign", "{sampled}", "--mode", "classic"],
    **{f"cost_{scheme}": ["cost", "--campaign", "{labeled}", "--set", f"costs.scheme={scheme}",
                          *_RULE] for scheme in SCHEMES},
    "cost_raw": ["cost", "--campaign", "{raw}", *_RULE],
    "optimize": ["optimize", "--campaign", "{labeled}", "--set", "nu_s_ratio=0.35"],
    "simulate": ["simulate", "--n-grid", "60,120", "--trials", "20"],
    "simulate_audit": ["simulate", "--audit", "--n-grid", "60", "--bias-grid", "0.08,-0.08",
                       "--trials", "20", "--pool-s", "-0.05,0.05", "--pool-u", "-0.2,0,0.2"],
}


@pytest.mark.parametrize("seed,n", [(3, 60), (11, 900)])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
def test_every_commands_report_is_emitted_as_json_dumps_wrote_it(
        command, fmt, seed, n, tmp_path, monkeypatch, capsys):
    from apcval.cli import main

    files = _campaign_files(tmp_path, seed, n)
    emit, reports = aio.emit_report, []

    def recording(report, fmt="json", timestamp=True):
        reports.append((copy.deepcopy(report), report))
        return emit(report, fmt, timestamp)

    monkeypatch.setattr(aio, "emit_report", recording)
    argv = [a.format(out=tmp_path / "out.csv", **files) for a in _EVERY_COMMAND[command]]
    assert main([*argv, "--format", fmt]) == 0
    capsys.readouterr()
    (before, report), = reports
    assert emit(report, fmt, timestamp=False) == reference_emit_report(report, fmt)
    assert report == before  # the timestamp is added to a copy
