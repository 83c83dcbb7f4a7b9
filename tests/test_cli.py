import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conftest import fully_counted_campaign, make_record, subsample_safe
import apcval.io as aio
from apcval.cli import main
from apcval.domain import SAFE, UNSAFE, TestParams
from apcval.estimator import evaluate_partitioned

GOLDEN = """dop_id,duration_s,m1,m2,m_sup,m_final,k_auto,alg_count,alg_confidence,label,sampled
a1,42.15,4,4,,4,4,4,0.97,s,true
a2,30.0,2,3,3,3,4,3,0.5,s,false
a3,55.5,7,7,,7,6,,,u,
"""
# At threshold 5 the combined classifier gives the golden campaign's labels:
# a2 is safe at the first stage, a1 is reclassified safe, a3 stays unsafe.
_COMBINED = ["--set", "classifier.kind=combined", "--set", "classifier.threshold=5"]


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

    def test_substituted_nu_is_one_warning_line(self, capsys):
        code, out, err = run(capsys, ["plan", "--set", "nu=0.01"])
        note = "planning nu=0.01 below nu_min=0.03: substituted nu_min"
        assert code == 0 and json.loads(out)["notes"] == [note]
        assert err == f"warning: {note}\n"


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

    def test_failed_verdict_is_still_exit_zero(self, capsys, tmp_path):
        records = [make_record(i, 2, 2 + (i % 2), UNSAFE) for i in range(10)]
        path = tmp_path / "c.csv"
        aio.save_campaign(records, path)
        code, out, _ = run(capsys, ["evaluate", "--campaign", str(path)])
        assert code == 0
        assert json.loads(out)["verdict"] == "fail"

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
        assert err == "error: validation failed:\n" + "\n".join(messages) + "\n"

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

    def test_reproducible_output(self, capsys, golden_campaign):
        code1, out1, _ = run(capsys, ["evaluate", "--campaign", str(golden_campaign)])
        code2, out2, _ = run(capsys, ["evaluate", "--campaign", str(golden_campaign)])
        assert code1 == code2 == 0
        assert without_created(out1) == without_created(out2)


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
        code, _, err = run(capsys, ["sample", "--campaign", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "no safe records" in err


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
        argv = ["simulate", "--n-grid", "50", "--trials", "10", flag, value]
        if flag == "--bias-grid":
            argv.append("--audit")
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert f"error: {flag} values must be finite" in err

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
        code, out, err = run(capsys, ["simulate", "--n-grid", "100", "--bias-grid", ",", *audit])
        assert code == 1 and out == ""
        assert err == "error: bias_sweep must hold at least one value, or be None\n"

    @pytest.mark.parametrize("audit", [[], ["--audit"]])
    def test_simulate_refuses_an_empty_n_grid(self, capsys, audit):
        code, out, err = run(capsys, ["simulate", "--n-grid", ",", *audit])
        assert code == 1 and out == ""
        assert err == "error: n_values must hold at least one sample size\n"

    @pytest.mark.parametrize("value", ["1.5", "abc", "nan"])
    def test_simulate_n_grid_must_be_integers(self, capsys, value):
        code, out, err = run(capsys, ["simulate", "--n-grid", f"100,{value}", "--trials", "10"])
        assert code == 1 and out == ""
        assert err == "error: --n-grid must be a comma-separated integer list\n"

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
        code, _, err = run(capsys, ["cost", "--campaign", str(path)])
        assert code == 1 and "no classifier" in err
        code, out, _ = run(
            capsys,
            ["cost", "--campaign", str(path),
             "--set", "classifier.kind=first_count", "--set", "classifier.threshold=0"],
        )
        assert code == 0
        assert json.loads(out)["report"] == "cost"

    def test_combined_scheme_prices_the_file_labels(self, capsys, tmp_path):
        # the combined classifier would label a2 safe; the file says unsafe
        path = tmp_path / "c.csv"
        path.write_text(GOLDEN.replace("0.5,s,false", "0.5,u,"), encoding="utf-8")
        code, out, err = run(capsys, ["cost", "--campaign", str(path),
                                      "--set", "costs.scheme=combined", *_COMBINED])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        c = dict(payload["per_record"])
        assert payload["c_u"] == pytest.approx(2.2 * (c["a2"] + c["a3"]) / 2, rel=1e-11)
        # a1, the one safe record, was unsafe at the first stage: its first pass was paid
        assert payload["c_s0"] == pytest.approx(c["a1"], rel=1e-11)
        assert payload["c_sz"] == pytest.approx(1.2 * c["a1"], rel=1e-11)

    @pytest.mark.parametrize("command", ["cost", "optimize"])
    def test_combined_scheme_needs_combined_classifier(self, capsys, golden_campaign, command):
        code, out, err = run(
            capsys,
            [command, "--campaign", str(golden_campaign), "--set", "costs.scheme=combined",
             "--set", "classifier.kind=first_count", "--set", "classifier.threshold=0"],
        )
        assert code == 1 and out == ""
        assert err == "error: costs.scheme=combined needs classifier.kind=combined\n"

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

    def test_negative_seed_flag_is_a_config_error(self, capsys):
        code, out, err = run(capsys, ["plan", "--seed", "-3"])
        assert code == 1 and out == ""
        assert err == "error: seed must be >= 0, got -3\n"
        code, out, _ = run(capsys, ["plan", "--set", "seed=-1", "--seed", "4"])
        assert code == 0 and json.loads(out)["seed"] == 4

    def test_missing_required_campaign_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cost"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["plan", "--out", "{missing}/p.json"],
     ["evaluate", "--campaign", "{campaign}", "--details", "{missing}/d.csv"],
     ["classify", "--campaign", "{campaign}", "--out", "{missing}/x.csv", *_COMBINED]],
)
def test_unwritable_output_is_an_error(capsys, golden_campaign, tmp_path, argv):
    missing = tmp_path / "no_such_dir"
    code, _, err = run(capsys, [a.format(campaign=golden_campaign, missing=missing)
                                for a in argv])
    assert code == 1
    assert err.startswith("error: ") and "no_such_dir" in err
    assert err.count("\n") == 1  # one line, no traceback


# --- golden bytes -------------------------------------------------------------
#
# Each case runs one command on the golden campaign; `{campaign}`, `{details}`
# and `{out}` stand for the campaign file, a details CSV path and an --out path.
# The expected exit code, stdout (without the `created` line and with the --out
# path written `{out}`), stderr and details CSV of every case, and the --out
# file of every case that names one, are in cli_golden.json. Regenerate that
# file, after checking that a change to the outputs is intended, with
#   PYTHONPATH=src:tests python -c "import test_cli; test_cli.write_golden()"
GOLDEN_CASES = {
    "plan": ["plan"],
    "evaluate_auto": ["evaluate", "--campaign", "{campaign}", "--details", "{details}"],
    "evaluate_auto_csv": ["evaluate", "--campaign", "{campaign}", "--format", "csv",
                          "--details", "{details}"],
    "evaluate_classic": ["evaluate", "--campaign", "{campaign}", "--mode", "classic",
                         "--details", "{details}"],
    "cost_no_first_count": ["cost", "--campaign", "{campaign}"],
    "cost_with_first_count": ["cost", "--campaign", "{campaign}",
                              "--set", "costs.scheme=with_first_count"],
    "cost_combined": ["cost", "--campaign", "{campaign}", "--set", "costs.scheme=combined",
                      *_COMBINED],
    "optimize_no_first_count": ["optimize", "--campaign", "{campaign}"],
    "optimize_with_first_count": ["optimize", "--campaign", "{campaign}",
                                  "--set", "costs.scheme=with_first_count"],
    "optimize_combined": ["optimize", "--campaign", "{campaign}",
                          "--set", "costs.scheme=combined", *_COMBINED],
}
# classify runs every kind in both formats. The confidence kinds end in an
# error at a3, which carries no algorithm output.
_CLASSIFY_RULES = {
    "all_safe": [],
    "all_unsafe": [],
    "rule_of_thumb": ["--set", "classifier.threshold=5"],
    "first_count": ["--set", "classifier.threshold=0"],
    "confidence_only": ["--set", "classifier.threshold=0.1"],
    "confidence_with_count": ["--set", "classifier.target_share=0.5"],
    "combined": ["--set", "classifier.threshold=5"],
}
GOLDEN_CASES.update({
    f"classify_{kind}{suffix}": ["classify", "--campaign", "{campaign}", "--out", "{out}",
                                 "--set", f"classifier.kind={kind}", *rule, *fmt]
    for kind, rule in _CLASSIFY_RULES.items()
    for suffix, fmt in (("", []), ("_csv", ["--format", "csv"]))
})
GOLDEN_CASES.update({
    "classify_rule_of_thumb_share": ["classify", "--campaign", "{campaign}", "--out", "{out}",
                                     "--set", "classifier.kind=rule_of_thumb",
                                     "--set", "classifier.target_share=0.5"],
    "classify_combined_share": ["classify", "--campaign", "{campaign}", "--out", "{out}",
                                "--set", "classifier.kind=combined",
                                "--set", "classifier.target_share=0.5"],
    "classify_no_out": ["classify", "--campaign", "{campaign}", *_COMBINED],
    "classify_no_kind": ["classify", "--campaign", "{campaign}", "--out", "{out}"],
    "sample": ["sample", "--campaign", "{campaign}", "--out", "{out}"],
    "sample_csv": ["sample", "--campaign", "{campaign}", "--out", "{out}",
                   "--set", "q=0.5", "--seed", "7", "--format", "csv"],
})
GOLDEN_FILE = Path(__file__).with_name("cli_golden.json")
_CREATED = re.compile(r'^(  "created": .*|created,.*)\n', re.MULTILINE)


def golden_output(case: str, workdir: Path) -> dict:
    """Exit code, stdout without `created`, stderr, details CSV and --out file of one case."""
    campaign = workdir / "campaign.csv"
    campaign.write_text(GOLDEN, encoding="utf-8")
    details = workdir / f"{case}.details.csv"
    out_file = workdir / f"{case}.out.csv"
    argv = [a.format(campaign=campaign, details=details, out=out_file)
            for a in GOLDEN_CASES[case]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    result = {
        "code": code,
        "stdout": _CREATED.sub("", out.getvalue()).replace(str(out_file), "{out}"),
        "stderr": err.getvalue(),
        "details": details.read_text(encoding="utf-8") if details.exists() else None,
    }
    if "{out}" in GOLDEN_CASES[case]:
        result["out"] = out_file.read_text(encoding="utf-8") if out_file.exists() else None
    return result


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {case: golden_output(case, Path(tmp)) for case in GOLDEN_CASES}
    GOLDEN_FILE.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_output_matches_the_golden_bytes(tmp_path, case):
    expected = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))[case]
    assert golden_output(case, tmp_path) == expected
