"""Toolkit for planning, running and stress-testing partitioned
equivalence tests in automatic passenger counting validation."""

from importlib import import_module as _import_module

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

# The simulation imports numpy, so it and its names load on first use (PEP 562).
_SIMULATE_NAMES = (
    "AuditPoint", "CurvePoint", "NormalErrors", "ResamplingErrors", "SimConfig", "SuccessCurve",
    "analytic_success", "bias_estimates", "planning_normal_model", "run_simulation",
    "user_risk_audit",
)


def __getattr__(name: str):
    if name != "simulate" and name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import simulate`: that looks the name up here first and recurses
    simulate = _import_module(".simulate", __name__)
    return simulate if name == "simulate" else getattr(simulate, name)


__all__ = [name for name in dir() if not name.startswith("_")] + ["simulate", *_SIMULATE_NAMES]
