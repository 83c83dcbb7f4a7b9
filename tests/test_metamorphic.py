"""Metamorphic checks: transformations of a campaign with a known effect on the result.

Permuting a campaign's rows changes nothing that `evaluate` or `sample`
computes: the evaluation sums with `math.fsum`, which is exactly rounded
and so independent of the order, and `draw_sample` ranks the safe ids
canonically. `cost` and `optimize` add with plain `sum`, so their last
digits may follow the row order; they are not claimed order-invariant.

Multiplying every count by an integer c multiplies the mean count by c and
leaves every relative error, and so the interval and the verdict, as it is.
"""

import json

import numpy as np
import pytest

from conftest import fully_counted_campaign, subsample_safe
import apcval.io as aio
from apcval.cli import main
from apcval.domain import SAFE, TestParams
from apcval.estimator import evaluate_partitioned

COUNTS = ("m1", "m2", "m_sup", "m_final", "k_auto", "alg_count")


def campaign(sampled: bool = True):
    rng = np.random.default_rng(17)
    records = fully_counted_campaign(rng, 400, p_s=0.8, error_rate=0.4)
    if sampled:
        return subsample_safe(records, rng, 0.3)
    return [r._replace(sampled=None) if r.label == SAFE else r for r in records]


def run_cli(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def without_created(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"created"' not in line)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuted_rows_give_the_same_evaluation(capsys, tmp_path, seed):
    records = campaign()
    permuted = [records[i] for i in np.random.default_rng(seed).permutation(len(records))]
    texts = {}
    for name, rows in (("original", records), ("permuted", permuted)):
        directory = tmp_path / name
        directory.mkdir()
        aio.save_campaign(rows, directory / "c.csv")
        report = directory / "report.json"
        run_cli(capsys, ["evaluate", "--campaign", str(directory / "c.csv"), "--out", str(report)])
        details = (directory / "report.json.details.csv").read_text().splitlines()
        texts[name] = without_created(report.read_text()), details
    (report, details), (report_p, details_p) = texts["original"], texts["permuted"]
    assert report_p == report
    assert details_p[0] == details[0]
    by_id = {line.split(",")[0]: line for line in details[1:]}
    assert details_p[1:] == [by_id[r.dop_id] for r in permuted]


@pytest.mark.parametrize("seed", [1, 2])
def test_permuted_rows_sample_the_same_ids(capsys, tmp_path, seed):
    records = campaign(sampled=False)
    permuted = [records[i] for i in np.random.default_rng(seed).permutation(len(records))]
    chosen = []
    for name, rows in (("original", records), ("permuted", permuted)):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.sampled.csv"
        aio.save_campaign(rows, path)
        report = json.loads(run_cli(capsys, ["sample", "--campaign", str(path), "--out", str(out),
                                             "--set", "q=0.3", "--seed", "11"]))
        sampled, _ = aio.load_campaign(out)
        chosen.append({r.dop_id for r in sampled if r.sampled})
        assert report["counted"] == len(chosen[-1])
    assert chosen[0] == chosen[1]


@pytest.mark.parametrize("c", [2, 3, 7])
def test_scaled_counts_keep_the_relative_results(c):
    records = campaign()
    scaled = [
        r._replace(**{name: getattr(r, name) * c for name in COUNTS if getattr(r, name) is not None})
        for r in records
    ]
    base = evaluate_partitioned(records, TestParams(), q_planned=0.3)
    report = evaluate_partitioned(scaled, TestParams(), q_planned=0.3)
    for name in ("d_hat", "nu_hat", "ci_low", "ci_high"):
        assert getattr(report, name) == pytest.approx(getattr(base, name), rel=1e-12), name
    assert report.verdict == base.verdict
    assert report.stats.m_hat_q == pytest.approx(c * base.stats.m_hat_q, rel=1e-12)
