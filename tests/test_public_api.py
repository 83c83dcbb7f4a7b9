import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fully_counted_campaign, make_record, source_env, subsample_safe
import apcval
from apcval.domain import SAFE

# Every public name of the package. A name added or removed shows up here as
# a reviewed edit.
PUBLIC_NAMES = [
    "AuditPoint", "ClassifierSpec", "CostBreakdown", "CostParams", "CostRates",
    "CurvePoint", "DopRecord", "EvaluationReport", "NormalErrors", "PartitionParams",
    "PartitionStats", "Plan", "ResamplingErrors", "SAFE", "SimConfig", "SuccessCurve",
    "TestParams", "UNLABELED", "UNSAFE", "analytic_success", "apply_buffer",
    "bias_estimates", "classify", "confidence_interval", "cost",
    "cost_breakdown", "counting_cost", "domain", "draw_sample", "equivalence_verdict",
    "estimator", "evaluate_classic", "evaluate_partitioned", "ground_truth", "make_plan",
    "norm_cdf", "norm_ppf", "normal", "optimal_quota", "planner", "planning_normal_model",
    "recorded_size", "run_simulation", "simulate", "total_cost", "user_risk_audit",
    "validate_record",
]


def test_public_names_are_pinned():
    assert sorted(apcval.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 47


def test_simulate_names_load_on_first_use():
    # in a fresh process: numpy stays out until a simulate name is asked for
    code = (
        "import sys, apcval; assert 'numpy' not in sys.modules; "
        "apcval.simulate; apcval.run_simulation; assert 'numpy' in sys.modules; "
        "from apcval import simulate, SuccessCurve; "
        "assert SuccessCurve is simulate.SuccessCurve is apcval.SuccessCurve; "
        "print(sorted(apcval.__all__))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == f"{PUBLIC_NAMES}\n"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        apcval.no_such_name


def _pilot(rng: np.random.Generator, counted_safe: int) -> list:
    """A labeled pilot campaign of 12 safe and 6 unsafe records, `counted_safe` safe counted."""
    records = fully_counted_campaign(rng, 18, p_s=0.0)
    return [r._replace(label=SAFE, sampled=i < counted_safe) if i < 12 else r
            for i, r in enumerate(records)]


@pytest.mark.parametrize("counted_safe", [12, 1])
def test_the_readme_library_snippets_run(capsys, counted_safe):
    # the two `python` blocks under "## Library", in order and in one namespace,
    # with `raw`, `records` and `pilot` seeded in-memory campaigns; a pilot with
    # one counted safe record has no safe deviation (None), which the snippet
    # passes to the chain as NaN
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library\n")[1].split("\n## ")[0]
    blocks = [block.split("```")[0] for block in library.split("```python\n")[1:]]
    assert len(blocks) == 2
    rng = np.random.default_rng(28)
    namespace = {
        "raw": [make_record(i, int(m), int(m + e), "unlabeled")
                for i, (m, e) in enumerate(zip(rng.poisson(3.0, 60) + 1,
                                               rng.choice([-1, 0, 0, 1], 60)))],
        "records": subsample_safe(fully_counted_campaign(rng, 200), rng, 0.175),
        "pilot": _pilot(rng, counted_safe),
    }
    exec(blocks[0], namespace)
    assert capsys.readouterr().out.startswith("3458 5256\n")
    exec(blocks[1], namespace)
    s, nu = namespace["s"], namespace["nu"]
    assert (s.nu_hat_s is None) == (counted_safe == 1)
    # the composite p_s*nu_s^2 + p_u*nu_u^2 + p_s*p_u*(mu_s - mu_u)^2 the README
    # states, a None deviation counted as no spread
    p_s = s.n_s / s.n
    composite = (p_s * (s.nu_hat_s or 0.0) ** 2 + (1 - p_s) * s.nu_hat_u**2
                 + p_s * (1 - p_s) * (s.d_bar_s - s.d_bar_u) ** 2)
    assert nu == pytest.approx(math.sqrt(composite), rel=1e-12)
