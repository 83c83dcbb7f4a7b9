"""The golden command lines of the CLI and their recorded outputs.

Stdlib only: `test_cli.py` checks every case against `cli_golden.json`, and
`replay_golden.py` replays the cases that need no numpy on any interpreter.
"""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from apcval.cli import main

GOLDEN = """dop_id,duration_s,m1,m2,m_sup,m_final,k_auto,alg_count,alg_confidence,label,sampled
a1,42.15,4,4,,4,4,4,0.97,s,true
a2,30.0,2,3,3,3,4,3,0.5,s,false
a3,55.5,7,7,,7,6,,,u,
"""
# The golden campaign with `label` and `sampled` blanked.
GOLDEN_UNLABELED = "\n".join(line.rsplit(",", 2)[0] + ",," if i else line
                             for i, line in enumerate(GOLDEN.splitlines())) + "\n"
# Two counted safe records off by 1e160 passengers: the interval overflows.
OVERFLOW = f"""{GOLDEN.splitlines()[0]}
b1,30.0,1,1,,1,{10**160},,,s,true
b2,30.0,1,1,,1,{10**160},,,s,true
b3,30.0,1,1,,1,1,,,u,
b4,30.0,1,1,,1,1,,,u,
"""
# The unlabeled golden campaign with ids that hold a comma, a quote and a carriage
# return, each quoted.
QUOTED = (GOLDEN_UNLABELED.replace("\na1,", '\n"a,1",').replace("\na2,", '\n"a""2",')
          .replace("\na3,", '\n"a\r3",'))
# At threshold 5 the combined classifier gives the golden campaign's labels:
# a2 is safe at the first stage, a1 is reclassified safe, a3 stays unsafe.
COMBINED = ["--set", "classifier.kind=combined", "--set", "classifier.threshold=5"]

# Each case runs one command on the golden campaign; `{campaign}`, `{details}`
# and `{out}` stand for the campaign file, a details CSV path and an --out path,
# `{unlabeled}` for the golden campaign without labels, `{overflow}` for
# `OVERFLOW` and `{quoted}` for `QUOTED`.
# The expected exit code, stdout (without the `created` line and with the --out
# path written `{out}`), stderr and details CSV of every case, and the --out
# file (without `created`) of every case that names one, are in cli_golden.json. Regenerate that
# file, after checking that a change to the outputs is intended, with
#   PYTHONPATH=src:tests python -c "import golden_cases; golden_cases.write_golden()"
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
                      *COMBINED],
    "optimize_no_first_count": ["optimize", "--campaign", "{campaign}"],
    "optimize_with_first_count": ["optimize", "--campaign", "{campaign}",
                                  "--set", "costs.scheme=with_first_count"],
    "optimize_combined": ["optimize", "--campaign", "{campaign}",
                          "--set", "costs.scheme=combined", *COMBINED],
    "cost_combined_unlabeled": ["cost", "--campaign", "{unlabeled}",
                                "--set", "costs.scheme=combined", *COMBINED],
    "optimize_combined_unlabeled": ["optimize", "--campaign", "{unlabeled}",
                                    "--set", "costs.scheme=combined", *COMBINED],
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
    "classify_no_out": ["classify", "--campaign", "{campaign}", *COMBINED],
    "classify_no_kind": ["classify", "--campaign", "{campaign}", "--out", "{out}"],
    "sample": ["sample", "--campaign", "{campaign}", "--out", "{out}"],
    "sample_csv": ["sample", "--campaign", "{campaign}", "--out", "{out}",
                   "--set", "q=0.5", "--seed", "7", "--format", "csv"],
})
# reports written to --out, and simulate's curves and audit, whose pass
# rates lie strictly between 0 and 1 and so pin the draws as well
GOLDEN_CASES.update({
    "plan_out": ["plan", "--out", "{out}"],
    "evaluate_out": ["evaluate", "--campaign", "{campaign}", "--out", "{out}",
                     "--details", "{details}"],
    "simulate_n_grid": ["simulate", "--n-grid", "60,120", "--trials", "50",
                        "--set", "delta=0.08"],
    "simulate_bias_grid_csv": ["simulate", "--n-grid", "60", "--bias-grid", "-0.02,0.02",
                               "--trials", "50", "--format", "csv", "--set", "delta=0.08"],
    "simulate_audit": ["simulate", "--audit", "--n-grid", "60,120", "--bias-grid", "0.08,-0.08",
                       "--trials", "50", "--set", "delta=0.08", "--pool-s", "-0.05,0.05",
                       "--pool-u", "-0.2,0,0.2"],
})
# failures whose line is the library's or, for a malformed list, argparse's
_FIRST_COUNT = ["--set", "classifier.kind=first_count", "--set", "classifier.threshold=0"]
GOLDEN_CASES.update({
    "simulate_n_grid_not_int": ["simulate", "--n-grid", "100,1.5"],
    "cost_unlabeled_no_kind": ["cost", "--campaign", "{unlabeled}"],
    "optimize_unlabeled_no_kind": ["optimize", "--campaign", "{unlabeled}"],
    "cost_combined_first_count": ["cost", "--campaign", "{campaign}",
                                  "--set", "costs.scheme=combined", *_FIRST_COUNT],
    "optimize_combined_first_count": ["optimize", "--campaign", "{campaign}",
                                      "--set", "costs.scheme=combined", *_FIRST_COUNT],
    "sample_no_safe": ["sample", "--campaign", "{unlabeled}", "--out", "{out}"],
    "evaluate_not_finite": ["evaluate", "--campaign", "{overflow}", "--details", "{details}"],
    "evaluate_not_finite_classic": ["evaluate", "--campaign", "{overflow}", "--mode", "classic",
                                    "--details", "{details}"],
})
# a written campaign whose ids must be quoted, one of them for its carriage return
GOLDEN_CASES.update({
    "classify_quoted_ids": ["classify", "--campaign", "{quoted}", "--out", "{out}", *COMBINED],
})
GOLDEN_FILE = Path(__file__).with_name("cli_golden.json")
_CREATED = re.compile(r'^(  "created": .*|created,.*)\n', re.MULTILINE)


def golden_output(case: str, workdir: Path) -> dict:
    """Exit code, stdout without `created`, stderr, details CSV and --out file of one case."""
    campaign = workdir / "campaign.csv"
    campaign.write_text(GOLDEN, encoding="utf-8")
    unlabeled = workdir / "unlabeled.csv"
    unlabeled.write_text(GOLDEN_UNLABELED, encoding="utf-8")
    overflow = workdir / "overflow.csv"
    overflow.write_text(OVERFLOW, encoding="utf-8")
    quoted = workdir / "quoted.csv"
    quoted.write_bytes(QUOTED.encode("utf-8"))
    details = workdir / f"{case}.details.csv"
    out_file = workdir / f"{case}.out.csv"
    argv = [a.format(campaign=campaign, unlabeled=unlabeled, overflow=overflow, quoted=quoted,
                     details=details, out=out_file)
            for a in GOLDEN_CASES[case]]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal, which COLUMNS fixes
    with redirect_stdout(out), redirect_stderr(err), patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    result = {
        "code": code,
        "stdout": _CREATED.sub("", out.getvalue()).replace(str(out_file), "{out}"),
        "stderr": err.getvalue(),
        "details": details.read_text(encoding="utf-8") if details.exists() else None,
    }
    if "{out}" in GOLDEN_CASES[case]:
        result["out"] = (_CREATED.sub("", out_file.read_bytes().decode("utf-8"))
                         if out_file.exists() else None)  # the bytes, a "\r" too
    return result


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {case: golden_output(case, Path(tmp)) for case in GOLDEN_CASES}
    GOLDEN_FILE.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
