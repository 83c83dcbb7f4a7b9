import subprocess
import sys

import pytest

from conftest import source_env
import apcval

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
