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
