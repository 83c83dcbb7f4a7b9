import argparse
import ast
import gc
import io
import json
import math
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (OVERFLOWING_CAMPAIGNS, fully_counted_campaign, make_record, source_env,
                      subsample_safe)
from golden_cases import (COMBINED, GOLDEN, GOLDEN_CASES, GOLDEN_FILE, GOLDEN_UNLABELED,
                          golden_output)
import apcval.cli
import apcval.io as aio
from apcval.cli import build_parser, main
from apcval.domain import SAFE, UNSAFE, TestParams
from apcval.estimator import evaluate_partitioned


def run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_created(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"created"' not in line)


@pytest.fixture
def golden_campaign(tmp_path):
    path = tmp_path / "campaign.csv"
    path.write_text(GOLDEN, encoding="utf-8")
    return path


class TestPlan:
    def test_default_plan_reproduces_reference_numbers(self, capsys):
        code, out, _ = run(capsys, ["plan", "--set", "q=1.0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_e"] == 6147
        assert payload["buffered_n_e"] == 7070
        assert payload["n_rec"] == 6147

    def test_partitioned_plan(self, capsys):
        code, out, _ = run(
            capsys,
            ["plan", "--set", "nu=0.15", "--set", "p_s=0.9",
             "--set", "nu_s_ratio=0.35", "--set", "q=0.175"],
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["n_e"] == 3458
        assert payload["n_rec"] == 5256
        assert payload["q_source"] == "given"

    def test_plan_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, out, _ = run(capsys, ["plan", "--out", str(out_path)])
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["n_e"] == 6147

    def test_invalid_override_fails(self, capsys):
        code, _, err = run(capsys, ["plan", "--set", "alpha=2"])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("item, message", [
        ("nu", "expected 'key = value', got 'nu'"),
        ("volume=11", "unknown key 'volume'"),
    ])
    def test_a_bad_set_item_is_one_error_line(self, capsys, item, message):
        assert run(capsys, ["plan", "--set", item]) == (1, "", f"error: --set: {message}\n")

    def test_the_readme_example_config_plans_the_reference_numbers(self, capsys, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        path = tmp_path / "readme.cfg"
        path.write_text(readme.split("```ini\n")[1].split("```")[0], encoding="utf-8")
        code, out, err = run(capsys, ["plan", "--config", str(path)])
        plan = json.loads(out)
        assert (code, err, plan["n_e"], plan["n_rec"]) == (0, "", 3458, 5256)

    def test_a_classic_size_that_is_not_finite_is_one_error_line(self, capsys):
        assert run(capsys, ["plan", "--set", "delta=1e-300"]) == (
            1, "", "error: the classic sample size is not finite: delta 1e-300, nu 0.2\n")

    def test_substituted_nu_is_one_warning_line(self, capsys):
        code, out, err = run(capsys, ["plan", "--set", "nu=0.01"])
        note = "planning nu=0.01 below nu_min=0.03: substituted nu_min"
        assert code == 0 and json.loads(out)["notes"] == [note]
        assert err == f"warning: {note}\n"


class TestClassifierRuleOverride:
    """`--set` of one classifier rule replaces the config file's other rule."""

    @pytest.fixture
    def share_config(self, tmp_path):
        path = tmp_path / "rule.cfg"
        path.write_text("classifier.kind = rule_of_thumb\nclassifier.target_share = 0.9\n",
                        encoding="utf-8")
        return path

    def test_plan_takes_the_overriding_threshold(self, capsys, share_config):
        code, out, err = run(capsys, ["plan", "--config", str(share_config),
                                      "--set", "classifier.threshold=5"])
        assert (code, err) == (0, "")
        assert without_created(out) == without_created(run(capsys, ["plan"])[1])

    @pytest.mark.parametrize("file_rule, override", [
        ("classifier.target_share = 0.9", "classifier.threshold=5"),
        ("classifier.threshold = 99", "classifier.target_share=0.5"),
    ])
    def test_classify_labels_as_the_overriding_rule_alone(self, capsys, tmp_path,
                                                           golden_campaign, file_rule, override):
        config = tmp_path / "rule.cfg"
        config.write_text(f"classifier.kind = rule_of_thumb\n{file_rule}\n", encoding="utf-8")
        by_file, alone = tmp_path / "by_file.csv", tmp_path / "alone.csv"
        code, _, err = run(capsys, ["classify", "--config", str(config), "--campaign",
                                    str(golden_campaign), "--out", str(by_file), "--set", override])
        assert (code, err) == (0, "")
        run(capsys, ["classify", "--campaign", str(golden_campaign), "--out", str(alone),
                     "--set", "classifier.kind=rule_of_thumb", "--set", override])
        assert by_file.read_text() == alone.read_text()

    @pytest.mark.parametrize("command", ["plan", "classify"])
    def test_both_rules_overridden_is_an_error(self, capsys, tmp_path, share_config,
                                               golden_campaign, command):
        argv = [command, "--config", str(share_config), "--set", "classifier.threshold=5",
                "--set", "classifier.target_share=0.5"]
        if command == "classify":
            argv += ["--campaign", str(golden_campaign), "--out", str(tmp_path / "l.csv")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: rule_of_thumb needs exactly one of threshold/target_share\n"


class TestEvaluate:
    def test_report_warnings_are_warning_lines(self, capsys, golden_campaign):
        code, out, err = run(capsys, ["evaluate", "--campaign", str(golden_campaign)])
        warnings = json.loads(out)["warnings"]
        assert code == 0 and len(warnings) == 2
        assert all("standard deviation floored at nu_min" in w for w in warnings)
        assert err == "".join(f"warning: {w}\n" for w in warnings)

    def test_partitioned_auto_mode(self, capsys, golden_campaign, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            ["evaluate", "--campaign", str(golden_campaign), "--out", str(out_path),
             "--set", "q=0.5"],
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        records, _ = aio.load_campaign(golden_campaign)
        expected = evaluate_partitioned(records, TestParams(), q_planned=0.5)
        assert payload["mode"] == "partitioned"
        assert payload["d_hat"] == pytest.approx(expected.d_hat, rel=1e-11)
        assert payload["verdict"] == expected.verdict
        assert payload["stats"]["q_effective"] == 0.5
        # spreadsheet companion file: dop_id, d_i, stratum, weight
        details = (tmp_path / "report.json.details.csv").read_text().splitlines()
        assert details[0] == "dop_id,d_i,stratum,weight"
        assert len(details) == 4
        rows = {line.split(",")[0]: line.split(",") for line in details[1:]}
        assert rows["a2"][1] == "" and rows["a2"][3] == "0"
        assert rows["a1"][3] == "2"  # 1/q_effective
        # the weighted sum over n reproduces the point estimate
        total = sum(
            float(r[1]) * float(r[3]) for r in rows.values() if r[1] != ""
        )
        assert total / 3 == pytest.approx(payload["d_hat"], rel=1e-9)

    def test_classic_mode_on_unlabeled_campaign(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        records = [
            make_record(i, int(m), int(k), "unlabeled")
            for i, (m, k) in enumerate(
                zip(rng.integers(1, 6, 60), rng.integers(1, 6, 60))
            )
        ]
        records = [r._replace(label="unlabeled") for r in records]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        code, out, _ = run(capsys, ["evaluate", "--campaign", str(path)])
        assert code == 0
        assert json.loads(out)["mode"] == "classic"

    def test_partially_labeled_campaign_is_an_error(self, capsys, tmp_path):
        records = [
            make_record(0, 3, 3, SAFE, sampled=True),
            make_record(1, 3, 3, "unlabeled"),
        ]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        code, _, err = run(capsys, ["evaluate", "--campaign", str(path)])
        assert code == 1
        assert "d00001" in err

    def test_error_line_names_ten_records_of_many(self, capsys, tmp_path):
        records = [make_record(0, 3, 3, SAFE, sampled=True)] + [
            make_record(i, 3, 3, "unlabeled") for i in range(1, 5257)
        ]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        code, _, err = run(capsys, ["evaluate", "--campaign", str(path)])
        shown = ", ".join(f"d{i:05d}" for i in range(1, 11))
        assert code == 1
        assert err == f"error: records are unlabeled: {shown}, … and 5246 more\n"

    def test_failed_verdict_is_still_exit_zero(self, capsys, tmp_path):
        records = [make_record(i, 2, 2 + (i % 2), UNSAFE) for i in range(10)]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        code, out, _ = run(capsys, ["evaluate", "--campaign", str(path)])
        assert code == 0
        assert json.loads(out)["verdict"] == "fail"

    @pytest.mark.parametrize("case", OVERFLOWING_CAMPAIGNS)
    def test_an_interval_that_overflows_is_one_error_line(self, capsys, tmp_path, case):
        mode, records, numbers = OVERFLOWING_CAMPAIGNS[case]
        path, details, report = tmp_path / "c.csv", tmp_path / "d.csv", tmp_path / "r.json"
        aio.save_campaign(records, path)
        argv = ["evaluate", "--campaign", str(path), "--mode", mode, "--details", str(details)]
        for out in ([], ["--out", str(report)]):
            assert run(capsys, [*argv, *out]) == (1, "", (
                "error: a result is out of range for these settings "
                f"(the evaluation is not finite: {numbers})\n"))
        assert not details.exists() and not report.exists()

    def test_strict_mode_rejects_violations(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(GOLDEN.replace("7,7,,7,6,,,u,", "7,7,,,6,,,u,"), encoding="utf-8")
        code, _, err = run(capsys, ["evaluate", "--campaign", str(path), "--strict"])
        assert code == 1
        assert "validation failed" in err

    def test_m_final_off_the_ground_truth_is_a_violation(self, capsys, tmp_path):
        # counters agree on 4 but m_final says 9; counters disagree with no
        # supervisor count, yet m_final is set
        path = tmp_path / "c.csv"
        path.write_text(GOLDEN + "b1,30.0,4,4,,9,9,,,u,\nb2,30.0,2,3,,2,2,,,u,\n",
                        encoding="utf-8")
        messages = [
            "b1: m_final must equal the ground truth 4 of m1=4, m2=4, m_sup=None, got 9",
            "b2: m_final must be absent while m1=2 and m2=3 disagree without m_sup, got 2",
        ]
        argv = ["evaluate", "--campaign", str(path), "--mode", "classic"]
        code, out, err = run(capsys, argv)
        assert code == 0 and json.loads(out)["n"] == 5
        assert err == "".join(f"warning: {m}\n" for m in messages)
        code, out, err = run(capsys, [*argv, "--strict"])
        assert code == 1 and out == ""
        assert err == f"error: validation failed: {messages[0]} (and 1 more)\n"

    def test_full_quota_matches_classic_mode(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        records = fully_counted_campaign(rng, 120, p_s=0.6)
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        _, out_part, _ = run(capsys, ["evaluate", "--campaign", str(path), "--mode", "partitioned"])
        _, out_classic, _ = run(capsys, ["evaluate", "--campaign", str(path), "--mode", "classic"])
        part, classic = json.loads(out_part), json.loads(out_classic)
        assert part["stats"]["q_effective"] == 1.0
        assert part["verdict"] == classic["verdict"]
        assert part["d_hat"] == pytest.approx(classic["d_hat"], abs=1e-12)

    def test_reproducible_output(self, capsys, golden_campaign, tmp_path):
        # the same bytes, written files too, from one process's shared parser
        report, details = tmp_path / "report.json", tmp_path / "details.csv"
        argv = ["evaluate", "--campaign", str(golden_campaign), "--out", str(report),
                "--details", str(details)]
        outputs = []
        for _ in range(2):
            code, out, err = run(capsys, argv)
            outputs.append((code, out, err, without_created(report.read_text(encoding="utf-8")),
                            details.read_text(encoding="utf-8")))
        assert outputs[0] == outputs[1]
        assert outputs[0][:2] == (0, "") and outputs[0][2].startswith("warning: ")


class TestDetailsCsv:
    # safe d00000 counted (M 2, K 1), safe d00001 not counted, unsafe d00002
    # (M 3, K 4): m_hat = (3 + 2 / 0.5) / 3 = 7/3
    RECORDS = [
        make_record(0, 2, 1, SAFE, sampled=True),
        make_record(1, 4, 4, SAFE, sampled=False),
        make_record(2, 3, 4, UNSAFE),
    ]

    def details(self, capsys, tmp_path, records, *argv):
        path, details = tmp_path / "c.csv", tmp_path / "details.csv"
        aio.save_campaign(records, path)
        code, _, err = run(capsys, ["evaluate", "--campaign", str(path), "--details",
                                    str(details), *argv])
        rows = details.read_text().splitlines() if details.exists() else None
        return code, err, rows

    def test_partitioned_hand_example(self, capsys, tmp_path):
        code, _, rows = self.details(capsys, tmp_path, self.RECORDS)
        assert code == 0
        assert rows == [
            "dop_id,d_i,stratum,weight",
            "d00000,-0.428571428571,s,2",  # -1 / (7/3), weight 1 / q_effective
            "d00001,,s,0",  # uncounted safe record: no d_i
            "d00002,0.428571428571,u,1",
        ]
        assert float(rows[1].split(",")[1]) == pytest.approx(-3 / 7, rel=1e-11)

    def test_classic_mode_weights_every_record_1(self, capsys, tmp_path):
        # m_hat = (2 + 4 + 3) / 3 = 3 over all records, labels ignored
        code, _, rows = self.details(capsys, tmp_path, self.RECORDS, "--mode", "classic")
        assert code == 0
        assert rows == [
            "dop_id,d_i,stratum,weight",
            "d00000,-0.333333333333,s,1",
            "d00001,0,s,1",
            "d00002,0.333333333333,u,1",
        ]

    @pytest.mark.parametrize("mode", ["auto", "classic"])
    def test_zero_mean_count_exits_1(self, capsys, tmp_path, mode):
        records = [make_record(0, 0, 1, SAFE, sampled=True), make_record(1, 0, 0, UNSAFE)]
        code, err, rows = self.details(capsys, tmp_path, records, "--mode", mode)
        assert code == 1 and rows is None
        assert err == "error: campaign has no boarding passengers (mean count is 0)\n"


class TestClassifyAndSample:
    def test_classify_writes_labeled_campaign(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        records = [
            make_record(i, int(m), int(m) + (1 if rng.random() < 0.3 else 0), "unlabeled")
            for i, m in enumerate(rng.integers(1, 6, 40))
        ]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        out_path = tmp_path / "labeled.csv"
        code, out, _ = run(
            capsys,
            ["classify", "--campaign", str(path), "--out", str(out_path),
             "--set", "classifier.kind=first_count", "--set", "classifier.threshold=0"],
        )
        assert code == 0
        payload = json.loads(out)
        labeled, _ = aio.load_campaign(out_path)
        n_s = sum(1 for r in labeled if r.label == SAFE)
        assert payload["n_s"] == n_s
        assert payload["p_hat_s"] == pytest.approx(n_s / 40)
        assert all(r.label in (SAFE, UNSAFE) for r in labeled)

    def test_classify_combined_reports_reclassified(self, capsys, tmp_path):
        records = [
            make_record(0, 2, 2, "unlabeled", duration=60.0),
            make_record(1, 20, 20, "unlabeled", duration=60.0),
            make_record(2, 30, 28, "unlabeled", duration=60.0),
        ]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        out_path = tmp_path / "labeled.csv"
        code, out, _ = run(
            capsys,
            ["classify", "--campaign", str(path), "--out", str(out_path),
             "--set", "classifier.kind=combined", "--set", "classifier.threshold=10"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reclassified"] == 1
        assert payload["n_s"] == 2

    def test_sample_sets_exact_quota(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        records = fully_counted_campaign(rng, 60, p_s=0.8)
        records = [r._replace(sampled=None) for r in records]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        out_path = tmp_path / "sampled.csv"
        code, out, _ = run(
            capsys,
            ["sample", "--campaign", str(path), "--out", str(out_path),
             "--set", "q=0.35", "--seed", "77"],
        )
        assert code == 0
        payload = json.loads(out)
        sampled, _ = aio.load_campaign(out_path)
        safe = [r for r in sampled if r.label == SAFE]
        import math

        expected = math.ceil(0.35 * len(safe) - 1e-9)
        assert sum(1 for r in safe if r.sampled) == expected == payload["counted"]
        assert all(r.sampled is not None for r in safe)
        assert all(r.sampled is None for r in sampled if r.label == UNSAFE)

    def test_sample_is_seed_reproducible(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        records = fully_counted_campaign(rng, 30, p_s=1.0)
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run(capsys, ["sample", "--campaign", str(path), "--out", str(out1), "--seed", "5"])
        run(capsys, ["sample", "--campaign", str(path), "--out", str(out2), "--seed", "5"])
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("command,message", [
        ("classify", "classify needs --out to write the labeled campaign"),
        ("sample", "sample needs --out to write the updated campaign"),
    ])
    def test_missing_out_is_reported_before_the_work(self, capsys, tmp_path, command,
                                                     message):
        # first_count cannot score a record without m1, and no record is safe
        path = tmp_path / "c.csv"
        path.write_text(GOLDEN.splitlines()[0] + "\nb1,30.0,,,,,4,,,u,\n", encoding="utf-8")
        code, out, err = run(capsys, [command, "--campaign", str(path),
                                      "--set", "classifier.kind=first_count",
                                      "--set", "classifier.threshold=0"])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_sample_without_safe_rows(self, capsys, tmp_path):
        records = [make_record(0, 2, 2, UNSAFE)]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        code, out, err = run(capsys, ["sample", "--campaign", str(path),
                                      "--out", str(tmp_path / "o.csv")])
        assert (code, out, err) == (1, "", "error: safe partition is empty\n")
        assert not (tmp_path / "o.csv").exists()


class TestSimulateCostOptimize:
    def test_simulate_csv_columns(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--n-grid", "100,200", "--trials", "50", "--format", "csv",
             "--set", "nu=0.15"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "grid_var,grid_value,pass_rate,mc_se,analytic,n"
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["100", "200"]

    def test_simulate_multi_curve_csv_is_one_table(self, capsys):
        argv = ["simulate", "--n-grid", "50,120", "--bias-grid", "0,0.02", "--trials", "20",
                "--set", "nu=0.15"]
        code, out, err = run(capsys, [*argv, "--format", "csv"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "grid_var,grid_value,pass_rate,mc_se,analytic,n"
        assert lines.count(lines[0]) == 1
        code, js, _ = run(capsys, argv)
        curves = json.loads(js)["curves"]
        expected = [
            f"mu,{p['grid_value']:.12g},{p['pass_rate']:.12g},{p['mc_se']:.12g},"
            f"{p['analytic']:.12g},{c['fixed']['n']:.12g}"
            for c in curves for p in c["points"]
        ]
        assert lines[1:] == expected and len(expected) == 4
        # each row names its curve's n, in --n-grid order
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["50", "50", "120", "120"]

    @pytest.mark.parametrize(
        "flag,value",
        [("--pool-s", "0,nan"), ("--pool-u", "inf,0.1"), ("--bias-grid", "nan,0.02"),
         ("--pool-u", "-inf,0.1")],
    )
    def test_simulate_rejects_non_finite_lists(self, capsys, flag, value):
        # the list parses; the study's own check names the field and the value
        argv = ["simulate", "--n-grid", "50", "--trials", "10", flag, value]
        if flag == "--bias-grid":
            argv.append("--audit")
        code, out, err = run(capsys, argv)
        field = {"--pool-s": "pool_s", "--pool-u": "pool_u", "--bias-grid": "bias_sweep"}[flag]
        bad = next(float(v) for v in value.split(",") if not math.isfinite(float(v)))
        assert (code, out, err) == (1, "", f"error: {field} values must be finite, got {bad}\n")

    @pytest.mark.parametrize(
        "flag,value,other",
        [("--bias-grid", "-0.01,0,0.01", ()),
         ("--pool-s", "-0.009,0.01,0.02", ("--pool-u", "0,0.2")),
         ("--pool-u", "-0.1,0,0.2", ("--pool-s", "0,0.05"))],
    )
    def test_simulate_list_may_start_negative(self, capsys, flag, value, other):
        argv = ["simulate", "--n-grid", "50,80", "--trials", "40", *other]
        code, out, err = run(capsys, [*argv, flag, value])
        assert (code, err) == (0, "")
        attached = run(capsys, [*argv, f"{flag}={value}"])
        assert (code, without_created(out), err) == (
            attached[0], without_created(attached[1]), attached[2]
        )

    @pytest.mark.parametrize("audit", [[], ["--audit"]])
    def test_simulate_refuses_an_empty_bias_grid(self, capsys, audit):
        for value in (",", ""):  # a given list without an item is not an absent one
            code, out, err = run(capsys, ["simulate", "--n-grid", "100", "--bias-grid", value,
                                          *audit])
            assert code == 1 and out == ""
            assert err == "error: bias_sweep must hold at least one value, or be None\n"

    @pytest.mark.parametrize("flag", ["--pool-s", "--pool-u"])
    def test_simulate_refuses_an_empty_pool(self, capsys, flag):
        # a given pool selects the resampling model, whose own check refuses it empty
        for value in (",", ""):
            code, out, err = run(capsys, ["simulate", "--n-grid", "100", flag, value])
            assert (code, out, err) == (
                1, "", "error: resampling model needs a nonempty safe pool\n")

    @pytest.mark.parametrize("audit", [[], ["--audit"]])
    def test_simulate_refuses_an_empty_n_grid(self, capsys, audit):
        code, out, err = run(capsys, ["simulate", "--n-grid", ",", *audit])
        assert code == 1 and out == ""
        assert err == "error: n_values must hold at least one sample size\n"

    @pytest.mark.parametrize("value", ["1.5", "abc", "nan"])
    def test_simulate_n_grid_must_be_integers(self, capsys, value):
        # a usage error: the parser converts the list
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n-grid", f"100,{value}", "--trials", "10"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: apcval simulate ")
        assert err.endswith("apcval simulate: error: argument --n-grid: "
                            f"invalid comma-separated int value: '100,{value}'\n")

    def test_simulate_audit(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--n-grid", "100", "--trials", "50", "--bias-grid", "0.01,-0.01",
             "--audit", "--set", "nu=0.15"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"] == "user_risk_audit"
        assert len(payload["points"]) == 1

    def test_simulate_resampling_pool(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--n-grid", "50", "--trials", "20", "--test", "partitioned",
             "--pool-s", "0,0,0.1", "--pool-u", "0,0.2", "--set", "q=0.5"],
        )
        assert code == 0
        assert json.loads(out)["report"] == "success_curve"

    def test_cost_breakdown(self, capsys, golden_campaign):
        code, out, _ = run(capsys, ["cost", "--campaign", str(golden_campaign)])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"] == "cost"
        assert payload["scheme"] == "no_first_count"
        assert len(payload["per_record"]) == 3

    def test_optimize_produces_cheaper_partitioned_plan(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        records = fully_counted_campaign(rng, 200, p_s=0.9)
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        code, out, _ = run(
            capsys,
            ["optimize", "--campaign", str(path), "--set", "nu=0.15",
             "--set", "nu_s_ratio=0.35"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["q_source"] == "optimized"
        assert payload["total_cost_partitioned"] < payload["total_cost_classic"]

    def test_optimize_without_mandatory_cost_names_the_cause(self, capsys, tmp_path):
        # all safe under no_first_count: c_u = c_s0 = 0, so no quota is optimal
        path = tmp_path / "c.csv"
        path.write_text("\n".join(GOLDEN.splitlines()[:3]) + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["optimize", "--campaign", str(path)])
        assert code == 1 and out == ""
        # a failed command writes only its error, not the warnings of its partial result
        assert err == (
            "error: optimal quota undefined: the mandatory cost p_u*c_u + p_s*c_s0 is 0, "
            "so every smaller quota is cheaper\n"
        )
        code, _, err = run(capsys, ["cost", "--campaign", str(path)])
        assert code == 0 and err == "warning: no unsafe records: stratum cost set to 0\n"

    def test_optimize_with_an_underflowing_safe_variance_is_one_error_line(self, capsys,
                                                                           tmp_path):
        # (nu_s_ratio * nu)^2 underflows to 0 although nu_s_ratio > 0
        path = tmp_path / "c.csv"
        aio.save_campaign(fully_counted_campaign(np.random.default_rng(8), 200, p_s=0.9), path)
        code, out, err = run(capsys, ["optimize", "--campaign", str(path),
                                      "--set", "nu_s_ratio=1e-300"])
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: optimal quota requires p_s\*nu_s\^2 > 0 and p_s\*c_sz > 0, "
                            r"got p_s 0\.9, nu_s\^2 0\.0, c_sz [0-9.e-]+\n", err)

    def test_repeated_cost_warns_every_time(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("\n".join(GOLDEN.splitlines()[:3]) + "\n", encoding="utf-8")
        for _ in range(2):
            code, out, err = run(capsys, ["cost", "--campaign", str(path)])
            assert code == 0
            assert err == "warning: no unsafe records: stratum cost set to 0\n"
            assert json.loads(out)["warnings"] == ["no unsafe records: stratum cost set to 0"]

    def test_cost_classifies_unlabeled_campaign_when_configured(self, capsys, tmp_path):
        records = [make_record(i, 3, 3 + (i % 2), "unlabeled") for i in range(20)]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        code, out, err = run(capsys, ["cost", "--campaign", str(path)])
        assert (code, out, err) == (1, "", "error: classifier.kind is not configured\n")
        code, out, _ = run(
            capsys,
            ["cost", "--campaign", str(path),
             "--set", "classifier.kind=first_count", "--set", "classifier.threshold=0"],
        )
        assert code == 0
        assert json.loads(out)["report"] == "cost"

    @pytest.mark.parametrize("command", ["cost", "optimize"])
    def test_a_partially_labeled_campaign_is_refused(self, capsys, tmp_path, command):
        # classifying the whole file would price a1, labeled safe, as unsafe
        path = tmp_path / "c.csv"
        path.write_text(GOLDEN.replace("0.5,s,false", "0.5,,false"), encoding="utf-8")
        code, out, err = run(capsys, [command, "--campaign", str(path),
                                      "--set", "classifier.kind=all_unsafe"])
        assert (code, out, err) == (1, "", "error: records are unlabeled: a2\n")

    def test_an_empty_campaign_is_costed_as_it_is(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(GOLDEN.splitlines()[0] + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["cost", "--campaign", str(path)])
        assert code == 0 and json.loads(out)["per_record"] == []
        assert err == ("warning: no safe records: stratum cost set to 0\n"
                       "warning: no unsafe records: stratum cost set to 0\n")

    def test_combined_scheme_prices_the_file_labels(self, capsys, tmp_path):
        # the combined classifier would label a2 safe; the file says unsafe
        path = tmp_path / "c.csv"
        path.write_text(GOLDEN.replace("0.5,s,false", "0.5,u,"), encoding="utf-8")
        code, out, err = run(capsys, ["cost", "--campaign", str(path),
                                      "--set", "costs.scheme=combined", *COMBINED])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        c = dict(payload["per_record"])
        assert payload["c_u"] == pytest.approx(2.2 * (c["a2"] + c["a3"]) / 2, rel=1e-11)
        # a1, the one safe record, was unsafe at the first stage: its first pass was paid
        assert payload["c_s0"] == pytest.approx(c["a1"], rel=1e-11)
        assert payload["c_sz"] == pytest.approx(1.2 * c["a1"], rel=1e-11)

    @pytest.mark.parametrize("scheme", ["no_first_count", "with_first_count", "combined"])
    @pytest.mark.parametrize("rule", ["classifier.threshold=4", "classifier.target_share=0.6"])
    def test_raw_campaign_costs_as_its_classified_file(self, capsys, tmp_path, scheme, rule):
        rng = np.random.default_rng(5)
        records = [
            make_record(i, int(m), max(0, int(m + e)), "unlabeled", duration=float(d))
            for i, (m, e, d) in enumerate(zip(rng.integers(0, 8, 40), rng.integers(-1, 2, 40),
                                              rng.integers(10, 120, 40)))
        ]
        raw, labeled = tmp_path / "raw.csv", tmp_path / "labeled.csv"
        aio.save_campaign(records, raw)
        settings = ["--set", "classifier.kind=combined", "--set", rule,
                    "--set", f"costs.scheme={scheme}"]
        assert run(capsys, ["classify", "--campaign", str(raw), "--out", str(labeled),
                            *settings])[0] == 0
        (code, by_raw, err), (_, by_file, _) = (
            run(capsys, ["cost", "--campaign", str(path), *settings]) for path in (raw, labeled))
        assert (code, err) == (0, "")
        assert without_created(by_raw) == without_created(by_file)

    @pytest.mark.parametrize("command", ["cost", "optimize"])
    def test_combined_scheme_needs_combined_classifier(self, capsys, golden_campaign, command):
        code, out, err = run(
            capsys,
            [command, "--campaign", str(golden_campaign), "--set", "costs.scheme=combined",
             "--set", "classifier.kind=first_count", "--set", "classifier.threshold=0"],
        )
        assert code == 1 and out == ""
        assert err == "error: combined scheme needs a combined classifier\n"

    @pytest.mark.parametrize("column,cell", [("duration_s", "nan"), ("duration_s", "inf"),
                                             ("alg_confidence", "-inf")])
    def test_cost_rejects_non_finite_campaign_numbers(self, capsys, tmp_path, column, cell):
        header, *rows = GOLDEN.splitlines()
        cells = rows[1].split(",")
        cells[header.split(",").index(column)] = cell
        path = tmp_path / "c.csv"
        path.write_text("\n".join([header, rows[0], ",".join(cells), rows[2]]) + "\n")
        code, out, err = run(capsys, ["cost", "--campaign", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: row 3: {column} must be finite, got {cell!r}\n"

    @pytest.mark.parametrize("command,rows,extra,key", [
        ("cost", ["a3,1e308,7,7,,7,6,,,u,"], ["--set", "costs.c_labor=1e300"], "c_u"),
        ("optimize", [f"r{i},1e308,4,4,,4,4,,,u," for i in range(3)], [], "total_cost_classic"),
    ], ids=["cost", "optimize"])
    def test_overflowing_cost_is_an_error_not_null(self, capsys, tmp_path, command, rows, extra,
                                                   key):
        # the per-record cost or the unsafe stratum's cost sum overflows to inf
        path = tmp_path / "c.csv"
        path.write_text("\n".join([*GOLDEN.splitlines()[:3], *rows]) + "\n")
        out_path = tmp_path / "report.json"
        for out in ([], ["--out", str(out_path)]):
            code, stdout, err = run(capsys, [command, "--campaign", str(path), *extra, *out])
            assert code == 1 and stdout == ""
            assert err == f"error: report value {key} is not finite: inf\n"
        assert not out_path.exists()

    def test_optimize_refuses_a_non_finite_cost_parameter(self, capsys, tmp_path):
        # an infinite per-record cost times a sunk share of 0 makes c_s0 NaN,
        # which the plan's CostParams refuses before any report is built
        header, safe, _, unsafe = GOLDEN.splitlines()
        path = tmp_path / "c.csv"
        path.write_text("\n".join([header, safe.replace("42.15", "1e308"), unsafe]) + "\n")
        code, out, err = run(capsys, ["optimize", "--campaign", str(path),
                                      "--set", "costs.c_labor=1e300"])
        assert (code, out, err) == (1, "", "error: c_s0 must be finite, got nan\n")

    def test_negative_seed_flag_is_a_config_error(self, capsys):
        code, out, err = run(capsys, ["plan", "--seed", "-3"])
        assert code == 1 and out == ""
        assert err == "error: seed must be >= 0, got -3\n"
        code, out, _ = run(capsys, ["plan", "--set", "seed=-1", "--seed", "4"])
        assert code == 0 and json.loads(out)["seed"] == 4

    @pytest.mark.parametrize("overrides,message", [
        (["costs.c_labor=-1"], "c_labor must be >= 0, got -1.0"),
        (["costs.r_s=-0.5"], "r_s must be >= 0, got -0.5"),
        (["classifier.kind=rule_of_thumb", "classifier.target_share=1.5"],
         "target_share must be in [0, 1], got 1.5"),
    ], ids=["c_labor", "r_s", "target_share"])
    def test_an_out_of_range_config_value_is_one_error_line(self, capsys, overrides, message):
        code, out, err = run(capsys, ["plan", *(arg for o in overrides for arg in ("--set", o))])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("extreme,operation", [
        (["--pool-s", "1e300,-1e300", "--pool-u", "1e300"], "multiply"),
        (["--bias-grid", "1e300,0"], "square"),
    ], ids=["pool", "bias"])
    def test_an_overflowing_study_is_one_error_line(self, capsys, extreme, operation):
        code, out, err = run(capsys, ["simulate", "--n-grid", "50", "--trials", "5", *extreme])
        assert (code, out) == (1, "")
        assert err == ("error: a result is out of range for these settings "
                       f"(overflow encountered in {operation})\n")

    def test_an_audit_without_a_bias_sweep_is_an_error(self, capsys):
        code, out, err = run(capsys, ["simulate", "--audit", "--n-grid", "100", "--trials", "10"])
        assert code == 1 and out == ""
        assert err == "error: user risk audit needs an explicit bias sweep\n"

    @pytest.mark.parametrize("argv", [
        ["cost"],
        ["simulate", "--trials", "abc", "--n-grid", "100"],
        ["plan", "--format", "xml"],
        ["evaluate"],
        ["simulate"],
    ], ids=["cost", "trials-abc", "format-xml", "evaluate", "simulate"])
    def test_missing_required_campaign_flag(self, capsys, argv):
        # an argparse usage error: exit code 2 and a usage text, nothing on stdout
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: apcval {argv[0]} ")


@pytest.mark.parametrize(
    "argv",
    [["plan", "--out", "{missing}/p.json"],
     ["evaluate", "--campaign", "{campaign}", "--details", "{missing}/d.csv"],
     ["evaluate", "--campaign", "{campaign}", "--out", "{tmp}/r.json",
      "--details", "{missing}/d.csv"],
     ["classify", "--campaign", "{campaign}", "--out", "{missing}/x.csv", *COMBINED]],
)
def test_unwritable_output_is_an_error(capsys, golden_campaign, tmp_path, argv):
    # a command that ends in an error writes only its error line: no report
    missing = tmp_path / "no_such_dir"
    code, out, err = run(capsys, [a.format(campaign=golden_campaign, missing=missing,
                                           tmp=tmp_path) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "no_such_dir" in err
    assert err.count("\n") == 1  # one line, no traceback
    assert not (tmp_path / "r.json").exists()


# --- any command line ---------------------------------------------------------
#
# Command lines drawn from the parser itself: a command, some of its options
# with good values, and at most one fault, a required option left out or an
# option given a bad value. Paths are written `{campaign}`, `{out}` and so on,
# and the `argv_paths` files stand behind them.

_NUMBERS = st.lists(st.sampled_from(["0", "0.01", "-0.02", "0.5", "1e-3", "2"]),
                    min_size=1, max_size=3).map(",".join)
_BAD_NUMBERS = st.sampled_from(["", "x", "inf", "0,nan", "1e999", "1e300,-1e300"])
_OPTION_VALUES = {  # dest: (good values, bad values)
    "config": (st.just("{config}"), st.sampled_from(["{bad_config}", "{missing}/c.txt"])),
    "overrides": (
        st.sampled_from(["nu=0.2", "q=0.5", "p_s=0.8", "delta=0.05", "nu_min=0", "seed=4",
                         "classifier.threshold=3", "costs.scheme=with_first_count"]),
        st.sampled_from(["nu", "nu=abc", "bogus=1", "q=2", "alpha=-1", "seed=-1", "p_s=nan",
                         "costs.scheme=x", "classifier.kind=all_safe",
                         "classifier.target_share=2", "costs.scheme=combined"]),
    ),
    "out": (st.just("{out}"), st.just("{missing}/out")),
    "details": (st.just("{details}"), st.just("{missing}/d.csv")),
    "seed": (st.integers(0, 50).map(str), st.sampled_from(["-1", "x", "1.5", str(2**64)])),
    "campaign": (st.sampled_from(["{campaign}", "{unlabeled}", "{empty}"]),
                 st.just("{missing}/c.csv")),
    "trials": (st.integers(1, 50).map(str), st.sampled_from(["0", "-2", "x", "1e3"])),
    "n_grid": (st.lists(st.integers(2, 200).map(str), min_size=1, max_size=3).map(",".join),
               st.sampled_from(["", "x", "1", "-1", "1.5", "nan", "10**9"])),
    **{dest: (_NUMBERS, _BAD_NUMBERS) for dest in ("bias_grid", "pool_s", "pool_u")},
}
_SUBPARSERS = next(action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))


@st.composite
def command_lines(draw) -> list[str]:
    name = draw(st.sampled_from(sorted(_SUBPARSERS)))
    actions = [action for action in _SUBPARSERS[name]._actions
               if action.dest != "help" and (action.required or draw(st.booleans()))]
    faulty = draw(st.sampled_from(actions)) if actions and draw(st.booleans()) else None
    argv = [name]
    for action in actions:
        if action is faulty and action.required and draw(st.booleans()):
            continue  # left out
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
            continue
        good, bad = ((st.sampled_from(action.choices), st.just("bad")) if action.choices
                     else _OPTION_VALUES[action.dest])
        for _ in range(draw(st.integers(1, 2))):
            argv += [flag, draw(bad if action is faulty else good)]
    return argv


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory) -> dict[str, Path]:
    path = tmp_path_factory.mktemp("argv")
    texts = {"campaign": GOLDEN, "unlabeled": GOLDEN_UNLABELED,
             "empty": GOLDEN.splitlines()[0] + "\n",
             "config": "nu = 0.15\nseed = 3\nclassifier.kind = combined\n"
                       "classifier.threshold = 5\n",
             "bad_config": "nu = 0.15\nnu = 0.2\n"}
    for name, text in texts.items():
        (path / name).write_text(text, encoding="utf-8")
    return {**{name: path / name for name in texts}, "missing": path / "no_such_dir",
            "out": path / "out", "details": path / "details"}


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["plan", "--strict"])
# sums of squares that overflow: one error line, not numpy warnings and a rate
@example(argv=["simulate", "--n-grid", "50", "--trials", "5", "--pool-s", "1e300,-1e300",
               "--pool-u", "1e300"])
@example(argv=["simulate", "--n-grid", "50", "--trials", "5", "--bias-grid", "1e300,0"])
def test_any_command_line_exits_0_1_or_2(argv_paths, argv):
    # a failed command writes its error or usage text and nothing else: no
    # traceback, nothing on stdout and no report file
    for written in ("out", "details"):
        argv_paths[written].unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([a.format(**argv_paths) for a in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue() or argv_paths["out"].exists()
        return
    assert out.getvalue() == "" and not argv_paths["out"].exists()
    assert err.getvalue().startswith("error: " if code == 1 else "usage: apcval")


# --- the paused collector and the shared parser -----------------------------


@pytest.fixture
def collector_enabled():
    """Leave the cyclic collector enabled after the test, whatever it set."""
    yield
    gc.enable()


def _stub_command(seen: list[bool], raises: bool):
    def command(args, config, records) -> tuple[dict, list[str]]:
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("an unexpected failure")
        return {"report": "stub"}, []
    return command


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", ["exit-0", "exit-1", "exit-2", "raises"])
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, tmp_path, collector_enabled,
                                                  enabled, path):
    seen: list[bool] = []
    if path in ("exit-0", "raises"):
        monkeypatch.setitem(apcval.cli._COMMANDS, "plan", apcval.cli._COMMANDS["plan"]._replace(
            run=_stub_command(seen, path == "raises")))
    argv = {"exit-0": ["plan"],
            "exit-1": ["evaluate", "--campaign", str(tmp_path / "missing.csv")],
            "exit-2": ["plan", "--format", "xml"],
            "raises": ["plan"]}[path]
    if enabled:
        gc.enable()
    else:
        gc.disable()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        if path == "exit-2":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        elif path == "raises":
            with pytest.raises(RuntimeError, match="an unexpected failure"):
                main(argv)
        else:
            assert main(argv) == int(path[-1])
    assert gc.isenabled() is enabled
    assert seen == ([False] if path in ("exit-0", "raises") else [])  # paused in the command
    if path == "exit-1":
        assert err.getvalue().startswith("error: cannot read campaign file ")


_GARBAGE_COMMANDS = {
    "classify": ["classify", "--out", "{out}", "--set", "classifier.kind=first_count",
                 "--set", "classifier.threshold=0"],
    "cost": ["cost"],
    "evaluate": ["evaluate", "--out", "{out}"],
}


@pytest.mark.parametrize("command", _GARBAGE_COMMANDS)
def test_a_commands_cyclic_garbage_does_not_grow_with_the_campaign(tmp_path, collector_enabled,
                                                                   command):
    # what makes the pause safe for memory: records, columns and reports are
    # freed by reference counting, so a command leaves the collector the same
    # few objects whatever the size of its campaign
    left = {}
    for size in (100, 2000):
        rng = np.random.default_rng(size)
        campaign = tmp_path / f"campaign_{size}.csv"
        aio.save_campaign(subsample_safe(fully_counted_campaign(rng, size), rng, 0.5), campaign)
        argv = [a.format(out=tmp_path / "out") for a in _GARBAGE_COMMANDS[command]]
        argv += ["--campaign", str(campaign)]
        counts = []
        for _ in range(2):  # the first run may leave what a first use sets up
            gc.collect()
            gc.disable()
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv) == 0
            counts.append(gc.collect())
            gc.enable()
        left[size] = counts[-1]
    assert left[100] == left[2000] < 100


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    bare = run(capsys, ["plan"])
    changed = run(capsys, ["plan", "--set", "nu=0.2", "--seed", "5"])
    assert changed[0] == bare[0] == 0
    assert without_created(changed[1]) != without_created(bare[1])
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--format", "xml"])
    assert exc.value.code == 2
    capsys.readouterr()
    again = run(capsys, ["plan"])
    assert (again[0], without_created(again[1]), again[2]) == (
        bare[0], without_created(bare[1]), bare[2])
    # the shared parser's defaults are a fresh parser's
    assert vars(build_parser().parse_args(["plan"])) == vars(
        build_parser.__wrapped__().parse_args(["plan"]))


# --- golden bytes -------------------------------------------------------------
#
# The cases, and how to regenerate cli_golden.json, are in golden_cases.py.


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_output_matches_the_golden_bytes(tmp_path, case):
    expected = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))[case]
    assert golden_output(case, tmp_path) == expected


def test_the_numpy_free_cases_replay_without_numpy():
    # the replay script runs on any supported interpreter; here it runs on this one
    script = Path(__file__).with_name("replay_golden.py")
    proc = subprocess.run([sys.executable, str(script)], env=source_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith(": 40 replayed, 0 differ, 5 skipped for numpy\n")


def test_the_readme_command_lines_exit_0(tmp_path, monkeypatch):
    # the `sh` block under "## Command line", each line in order and without
    # `apcval`, on the README's config and a seeded, wholly unlabeled campaign
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n")[1].split("```sh\n")[1].split("```")[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    (tmp_path / "config.txt").write_text(readme.split("```ini\n")[1].split("```")[0],
                                         encoding="utf-8")
    rng = np.random.default_rng(27)
    counts = rng.poisson(3.0, 400) + 1
    offsets = rng.choice([-1, 0, 0, 0, 0, 0, 1], 400)  # first_count marks these unsafe
    aio.save_campaign([make_record(i, int(m), int(m + e), "unlabeled")
                       for i, (m, e) in enumerate(zip(counts, offsets))], tmp_path / "c.csv")
    monkeypatch.chdir(tmp_path)
    assert {argv[0] for argv in lines} == {"apcval"}
    codes = [(argv[1], main(argv[1:])) for argv in lines]
    assert codes == [(command, 0) for command in
                     ("plan", "classify", "sample", "evaluate", "cost", "optimize", "simulate")]
    stats = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["stats"]
    assert stats["n_s"] > 0 and stats["n_u"] > 0


# --- cold start ---------------------------------------------------------------

_CHILD = """import json, sys
from apcval.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""
_COLD_CASES = {
    "plan": (["plan"], False),
    "classify": (["classify", "--campaign", "{campaign}", "--out", "{out}", *COMBINED], False),
    "cost": (["cost", "--campaign", "{campaign}", "--set", "costs.scheme=combined",
              *COMBINED], False),
    "optimize": (["optimize", "--campaign", "{campaign}"], False),
    "evaluate": (["evaluate", "--campaign", "{campaign}", "--details", "{out}"], False),
    "sample": (["sample", "--campaign", "{campaign}", "--out", "{out}"], True),
    "simulate": (["simulate", "--n-grid", "50", "--trials", "20"], True),
}


@pytest.mark.parametrize("case", _COLD_CASES)
def test_only_the_random_draws_import_numpy(golden_campaign, tmp_path, case):
    # a command runs as its own process, and numpy is most of its start-up
    argv, loads_numpy = _COLD_CASES[case]
    argv = [a.format(campaign=golden_campaign, out=tmp_path / "out.csv") for a in argv]
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)], env=source_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "numpy": loads_numpy}


# --- module boundaries --------------------------------------------------------


def test_cli_reads_no_private_name_of_an_apcval_module():
    # each rule has one owner: the weights in `estimator.record_rows`, the label
    # letters in `io`, the first stage in `classify.first_stage_unsafe`, so the
    # CLI cannot work any of them out again by itself
    import apcval.cli

    tree = ast.parse(Path(apcval.cli.__file__).read_text(encoding="utf-8"))
    own = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
           and (node.level > 0 or (node.module or "").split(".")[0] == "apcval")]
    aliases = {alias.asname or alias.name for node in own if node.module is None
               for alias in node.names}
    imported = [f"{node.module}.{alias.name}" for node in own
                for alias in node.names if alias.name.startswith("_")]
    read = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases and node.attr.startswith("_")
    ]
    assert {"cost_mod", "io_mod"} <= aliases
    assert imported == [] and read == []


def test_only_run_writes_a_report():
    # each command returns its report and `_run` alone writes it, so a command
    # that raises has written no report
    import apcval.cli

    tree = ast.parse(Path(apcval.cli.__file__).read_text(encoding="utf-8"))

    def writes(function: ast.FunctionDef) -> set[str]:
        used = {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)}
        used |= {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
        return used & {"emit_report", "stdout", "print"}

    writers = {node.name: writes(node) for node in tree.body
               if isinstance(node, ast.FunctionDef) and writes(node)}
    assert writers == {"_run": {"emit_report", "stdout", "print"}}


def test_only_verdict_chain_decides_a_verdict():
    # a report carries the verdict of `verdict_chain`; `equivalence_verdict`
    # stays public, but nothing in the package decides a verdict again
    import apcval

    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(apcval.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "equivalence_verdict" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))
    ]
    assert calls == []


def test_only_input_containers_check_themselves():
    # a parameter container checks its fields when built; a result is a plain
    # record that the one function building it guarantees
    import apcval

    checked = {
        node.name
        for path in Path(apcval.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                for item in node.body)
    }
    assert checked == {"TestParams", "PartitionParams", "CostParams", "CostRates",
                       "ClassifierSpec", "NormalErrors", "ResamplingErrors", "SimConfig"}


def test_only_run_reads_a_commands_inputs():
    # `_run` loads the config and the campaign that `_COMMANDS` declares for a
    # command, so no handler reads either by itself
    import apcval.cli

    tree = ast.parse(Path(apcval.cli.__file__).read_text(encoding="utf-8"))

    def names(function: ast.FunctionDef) -> set[str]:
        used = {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)}
        return used | {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}

    readers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and names(node) & {"load_campaign", "load_config_with_overrides"}}
    assert readers == {"_run"}


def test_only_classifier_and_run_raise():
    # a command states no rule of its own: each library call checks its inputs
    # and raises, and `cli` raises only for a missing classifier and a missing --out
    tree = ast.parse(Path(apcval.cli.__file__).read_text(encoding="utf-8"))
    raisers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and any(isinstance(child, ast.Raise) for child in ast.walk(node))}
    assert raisers == {"_classifier", "_run"}


def test_only_pair_checks_a_config_key():
    # file lines and `--set` items meet one key check, so `config_from_raw`
    # sees only config keys
    tree = ast.parse(Path(aio.__file__).read_text(encoding="utf-8"))
    checkers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and any(isinstance(name, ast.Name) and name.id == "_CONFIG_KEYS"
                        for name in ast.walk(node))}
    assert checkers == {"_pair"}
