"""Toolkit for planning, running and stress-testing partitioned
equivalence tests in automatic passenger counting validation.

Each public name loads its module on first use (PEP 562), so `import
apcval` loads neither a library module nor numpy, while `dir(apcval)`
lists every name; `apcval.classify` stays the function after its module
`apcval.classify` has loaded.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from ._version import VERSION as __version__

# Each module's public names; the modules themselves are public too, but for classify.
_NAMES = {
    "classify": "ClassifierSpec classify draw_sample",
    "cost": "CostBreakdown cost_breakdown counting_cost",
    "domain": "SAFE UNLABELED UNSAFE CostParams CostRates DopRecord PartitionParams "
              "PartitionStats TestParams ground_truth validate_record",
    "estimator": "EvaluationReport confidence_interval equivalence_verdict evaluate_classic "
                 "evaluate_partitioned",
    "normal": "norm_cdf norm_ppf",
    "planner": "Plan apply_buffer make_plan optimal_quota recorded_size total_cost",
    "simulate": "AuditPoint CurvePoint NormalErrors ResamplingErrors SimConfig SuccessCurve "
                "analytic_success bias_estimates planning_normal_model run_simulation "
                "user_risk_audit",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}
_MODULES = [module for module in _NAMES if module not in _MODULE_OF]


def __getattr__(name: str):
    if name in _MODULES:
        # not `from . import ...`: that looks the name up here first and recurses
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # the import system binds each submodule here as it loads; `classify` keeps the function
        if name not in _MODULE_OF or not isinstance(value, _ModuleType):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
__all__ = [*_MODULE_OF, *_MODULES]
