"""Toolkit for planning, running and stress-testing partitioned
equivalence tests in automatic passenger counting validation."""

from ._version import VERSION as __version__
from .classify import ClassifierSpec, classify, draw_sample
from .cost import (
    CostBreakdown,
    cost_breakdown,
    counting_cost,
)
from .domain import (
    SAFE,
    UNLABELED,
    UNSAFE,
    CostParams,
    CostRates,
    DopRecord,
    PartitionParams,
    PartitionStats,
    TestParams,
    ground_truth,
    validate_record,
)
from .estimator import (
    EvaluationReport,
    confidence_interval,
    equivalence_verdict,
    evaluate_classic,
    evaluate_partitioned,
)
from .normal import norm_cdf, norm_ppf
from .planner import (
    Plan,
    apply_buffer,
    make_plan,
    optimal_quota,
    recorded_size,
    total_cost,
)
from .simulate import (
    AuditPoint,
    CurvePoint,
    NormalErrors,
    ResamplingErrors,
    SimConfig,
    SuccessCurve,
    analytic_success,
    bias_estimates,
    planning_normal_model,
    run_simulation,
    user_risk_audit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
