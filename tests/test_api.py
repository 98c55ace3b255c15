"""Package-wide contracts: export lists resolve, every ``r`` and law entry point validates alike, scripts start."""

import ast
import importlib
import json
import math
import pickle
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from child_env import child_env
from compresslaw import laws
from compresslaw.documents import LawRegistry, candidates_from_registry, law_to_dict, registry_from_json
from compresslaw.documents import registry_to_json, report_from_json, report_to_json
from compresslaw.errors import DomainError
from compresslaw.frontier import emit_frontier_grid
from compresslaw.io import build_fit_report
from compresslaw.laws import CompressionLaw, MetricKind, RuntimeLaw, check_feasibility, evaluate, evaluate_runtime
from compresslaw.planner import CandidateModel, PlanRequest, plan, predict_speedup, required_ratio
from compresslaw.recovery import (
    RecoveryQuery, analyze, classify_regime, critical_ratio, min_rft_size, recoverable, recovery_margin
)
from compresslaw.regression import ExperimentRecord, build_design, fit_law, ols_fit
from compresslaw.synth import SyntheticConfig, generate

ROOT = Path(__file__).resolve().parents[1]
GRID_AXES = ("l0_values", "r_values", "d_values")
ACCURACY = CompressionLaw(0.98, -1.03, -0.14, MetricKind.ACCURACY)
RUNTIME = RuntimeLaw(c=1.0, beta=-0.67)

R_ENTRY_POINTS = {
    "evaluate": lambda r: evaluate(ACCURACY, 0.6, r, 0.0),
    "evaluate_runtime": lambda r: evaluate_runtime(RUNTIME, r),
    "ExperimentRecord": lambda r: ExperimentRecord("m", MetricKind.LOSS, 2.0, r, 0.0, 3.0),
    "RecoveryQuery": lambda r: RecoveryQuery(ACCURACY, sigma=0.8, r=r),
    "recoverable": lambda r: recoverable(ACCURACY, 0.8, r, 10.0),
    "predict_speedup": lambda r: predict_speedup(RUNTIME, r),
    "SyntheticConfig": lambda r: SyntheticConfig(
        truth=ACCURACY, l0_values=(0.5, 0.6), r_values=(0.1, r), d_values=(0.0, 1.0)
    ),
}


@pytest.mark.parametrize("r", [-0.1, 1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(R_ENTRY_POINTS))
def test_every_r_entry_point_rejects_out_of_domain_ratios(entry, r):
    with pytest.raises(DomainError):
        R_ENTRY_POINTS[entry](r)


@pytest.mark.parametrize("entry", sorted(R_ENTRY_POINTS))
def test_every_r_entry_point_accepts_zero(entry):
    R_ENTRY_POINTS[entry](0.0)


# A value that float() refuses, and the end of the message of every check that takes a float: an int too large for a
# float is out of its range, and anything else with no float is not a number.
NO_FLOAT = {"huge int": (10**400, r"be within the float range, got 10000000+\.\.\.0000000+$"),
            "None": (None, "be a number, got None$"), "text": ("half", "be a number, got 'half'$"),
            "list": ([0.5], r"be a number, got \[0\.5\]$")}
FLOAT_CHECKS = {"require_finite": laws.require_finite, "require_positive": laws.require_positive,
                "require_nonnegative": laws.require_nonnegative, "require_ratio": laws.require_ratio,
                "_require_that": laws._require_not_negative, "_require_at_most_one": laws._require_at_most_one}


@pytest.mark.parametrize("value", sorted(NO_FLOAT))
@pytest.mark.parametrize("check", sorted(FLOAT_CHECKS))
def test_every_float_check_names_a_value_with_no_float(check, value):
    bad, ending = NO_FLOAT[value]
    with pytest.raises(DomainError, match=f"^x must {ending}"):
        FLOAT_CHECKS[check]("x", bad)


@pytest.mark.parametrize("value", sorted(NO_FLOAT))
@pytest.mark.parametrize("entry", sorted(R_ENTRY_POINTS))
def test_every_r_entry_point_names_a_ratio_with_no_float(entry, value):
    bad, ending = NO_FLOAT[value]
    with pytest.raises(DomainError, match=f"^r must {ending}"):
        R_ENTRY_POINTS[entry](bad)


# The four public validators: each is one range of laws._require_between, yet keeps its own name and docstring.
PUBLIC_FLOAT_CHECKS = [name for name in sorted(FLOAT_CHECKS) if name in laws.__all__]


@pytest.mark.parametrize("check", PUBLIC_FLOAT_CHECKS)
def test_each_public_float_check_keeps_its_name_and_docstring_and_pickles_as_itself(check):
    function = FLOAT_CHECKS[check]
    assert len(PUBLIC_FLOAT_CHECKS) == 4
    assert function.__name__ == function.__qualname__ == check and function.__module__ == "compresslaw.laws"
    assert function.__doc__ and repr(function).startswith(f"<function {check} at ")
    assert pickle.loads(pickle.dumps(function)) is function


# Each public validator's edges: the least float it takes and the float below it, the greatest and the one above.
EDGES = {"require_finite": (-sys.float_info.max, -math.inf, sys.float_info.max, math.inf),
         "require_positive": (math.ulp(0.0), 0.0, sys.float_info.max, math.inf),
         "require_nonnegative": (0.0, -math.ulp(0.0), sys.float_info.max, math.inf),
         "require_ratio": (0.0, -math.ulp(0.0), math.nextafter(1.0, 0.0), 1.0)}


@pytest.mark.parametrize("check", PUBLIC_FLOAT_CHECKS)
def test_each_public_float_check_takes_its_range_to_the_last_float(check):
    least, below, greatest, above = EDGES[check]
    assert FLOAT_CHECKS[check]("x", least) == least and FLOAT_CHECKS[check]("x", greatest) == greatest
    for bad in (below, above, math.nan):
        with pytest.raises(DomainError, match=f"^x must (be finite|be > 0|be >= 0|lie in \\[0, 1\\)), got {bad}$"):
            FLOAT_CHECKS[check]("x", bad)


@pytest.mark.parametrize("check", PUBLIC_FLOAT_CHECKS)
def test_each_public_float_check_keeps_the_range_it_takes_as_its_bounds(check):
    # The CSV reader tests a chunk's columns against these bounds in bulk, so they must be exactly the range.
    low, high = FLOAT_CHECKS[check].bounds
    top = math.nextafter(high, -math.inf)
    assert FLOAT_CHECKS[check]("x", low) == low and FLOAT_CHECKS[check]("x", top) == top
    for bad in (math.nextafter(low, -math.inf), high):
        with pytest.raises(DomainError, match="^x must "):
            FLOAT_CHECKS[check]("x", bad)


def test_an_int_too_large_for_a_float_is_a_domain_error_wherever_it_is_given():
    with pytest.raises(DomainError, match="^l0 must be within the float range, got 1000"):
        evaluate(ACCURACY, 10**400, 0.5, 0.0)
    with pytest.raises(DomainError, match="^alpha must be within the float range, got 1000"):
        CompressionLaw(10**400, 1, 1, MetricKind.LOSS)
    with pytest.raises(DomainError, match="^d must be within the float range, got 1000"):
        ExperimentRecord("m", MetricKind.LOSS, 1.0, 0.1, 10**400, 1.0)


# Each public entry point that takes a law: the call, the law's argument name and the kind it takes.  A law of the
# other kind is a DomainError that names the argument, not an AttributeError or a number computed from its fields.
LAW_ENTRY_POINTS = {
    "evaluate": (lambda law: evaluate(law, 0.6, 0.1, 0.0), "law", ACCURACY),
    "check_feasibility": (check_feasibility, "law", ACCURACY),
    "recoverable": (lambda law: recoverable(law, 0.8, 0.1, 10.0), "law", ACCURACY),
    "RecoveryQuery": (lambda law: RecoveryQuery(law, sigma=0.8, r=0.1), "law", ACCURACY),
    "SyntheticConfig": (lambda law: SyntheticConfig(law, (0.5, 0.6), (0.1, 0.3), (0.0, 1.0)), "truth", ACCURACY),
    "emit_frontier_grid": (lambda law: emit_frontier_grid(law, [0.5], [0.1], [0.0]), "law", ACCURACY),
    "CandidateModel": (lambda law: CandidateModel("m", 1e9, 0.6, law), "law", ACCURACY),
    "evaluate_runtime": (lambda law: evaluate_runtime(law, 0.1), "law", RUNTIME),
    "predict_speedup": (lambda law: predict_speedup(law, 0.5), "runtime_law", RUNTIME),
}


@pytest.mark.parametrize("entry", sorted(LAW_ENTRY_POINTS))
def test_every_law_entry_point_rejects_a_law_of_the_other_kind(entry):
    call, name, law = LAW_ENTRY_POINTS[entry]
    call(law)
    other = RUNTIME if law is ACCURACY else CompressionLaw(0.9, -1.2, -0.1, MetricKind.ACCURACY)
    with pytest.raises(DomainError) as info:
        call(other)
    assert str(info.value) == f"{name} must be a {type(law).__name__}, got {other!r}"


def _frontier_with(axis, bad):
    """``emit_frontier_grid`` with ``bad`` as its axis ``axis`` and a valid value on each other axis."""
    return emit_frontier_grid(ACCURACY, *{**dict.fromkeys(GRID_AXES, [0.5]), axis: bad}.values())


RECORDS = [ExperimentRecord("m", MetricKind.ACCURACY, 0.6, r, d, 0.5) for r in (0.1, 0.5) for d in (0.0, 10.0)]
CANDIDATE = CandidateModel("m", 8e9, 0.6, ACCURACY)
REQUEST = PlanRequest(budget=4e9, metric=MetricKind.ACCURACY)


# Calls whose bad argument escaped as a TypeError, an AttributeError, a KeyError, a ValueError or a
# ZeroDivisionError, was taken silently, or whose text, bytes, set or mapping was read as numbers in an order the
# caller did not write, and the DomainError each raises instead.
BAD_ARGUMENTS = {
    **{f"emit_frontier_grid {axis} {bad!r}": (partial(_frontier_with, axis, bad),
                                              f"{axis} must be a sequence of numbers, got {bad!r}")
       for axis in GRID_AXES for bad in ("123", b"\x01", 5, None, {0.5}, frozenset({0.5}), {0.5: "a"})},
    "SyntheticConfig keyed and unordered axes": (
        lambda: SyntheticConfig(ACCURACY, {0.7: "a", 0.5: "b"}, {0.5, 0.1, 0.3}, (0, 10)),
        "l0_values must be a sequence of numbers, got {0.5: 'b', 0.7: 'a'}"),  # reprlib sorts a mapping's keys
    "SyntheticConfig unordered axis": (lambda: SyntheticConfig(ACCURACY, (0.5, 0.7), {0.5, 0.1, 0.3}, (0, 10)),
                                       "r_values must be a sequence of numbers, got {0.1, 0.3, 0.5}"),
    "recovery_margin gamma 0": (lambda: recovery_margin(2.02, 0.0, 1.2, 0.3),
                                "gamma must be finite and nonzero, got 0.0"),
    "recovery_margin gamma inf": (lambda: recovery_margin(2.02, math.inf, 1.2, 0.3),
                                  "gamma must be finite and nonzero, got inf"),
    "recovery_margin beta nan": (lambda: recovery_margin(math.nan, 1.16, 1.2, 0.3), "beta must be finite, got nan"),
    "recovery_margin sigma -1": (lambda: recovery_margin(1.72, 1.16, -1.0, 0.3), "sigma must be > 0, got -1.0"),
    "recovery_margin r -2": (lambda: recovery_margin(1.72, 1.16, 1.5, -2), "r must lie in [0, 1), got -2.0"),
    "recovery_margin r 5": (lambda: recovery_margin(1.72, 1.16, 1.5, 5), "r must lie in [0, 1), got 5.0"),
    "law_to_dict int": (lambda: law_to_dict(5), "cannot serialize int"),
    "report_to_json None": (lambda: report_to_json(None), "report must be a FitReport, got None"),
    "registry_to_json None": (lambda: registry_to_json(None), "registry must be a LawRegistry, got None"),
    "LawRegistry int": (lambda: LawRegistry(5), "entries must be a sequence of RegistryEntries, got 5"),
    "LawRegistry list of int": (lambda: LawRegistry([1]), "entry must be a RegistryEntry, got 1"),
    "LawRegistry.add law": (lambda: LawRegistry().add(ACCURACY), f"entry must be a RegistryEntry, got {ACCURACY!r}"),
    "build_design form": (lambda: build_design(RECORDS, form="full"), "form must be a DesignForm, got 'full'"),
    "fit_law form": (lambda: fit_law(RECORDS, form="full"), "form must be a DesignForm, got 'full'"),
    "build_fit_report form": (lambda: build_fit_report(RECORDS, form="full"), "form must be a DesignForm, got 'full'"),
    "build_design int": (lambda: build_design(5), "records must be a sequence of ExperimentRecords, got 5"),
    "fit_law list of int": (lambda: fit_law([1, 2, 3, 4]),
                            "records must be a sequence of ExperimentRecords, got [1, 2, 3, 4]"),
    "build_fit_report None": (lambda: build_fit_report(None),
                              "records must be a sequence of ExperimentRecords, got None"),
    "generate law": (lambda: generate(ACCURACY), f"config must be a SyntheticConfig, got {ACCURACY!r}"),
    "candidates_from_registry None": (lambda: candidates_from_registry(None, MetricKind.ACCURACY),
                                      "registry must be a LawRegistry, got None"),
    "candidates_from_registry metric": (lambda: candidates_from_registry(LawRegistry(), "accuracy"),
                                        "metric must be a MetricKind, got 'accuracy'"),
    "report_from_json int": (lambda: report_from_json(5), "text must be str, bytes or bytearray, got 5"),
    "registry_from_json None": (lambda: registry_from_json(None), "text must be str, bytes or bytearray, got None"),
    "ols_fit form": (lambda: ols_fit([[1.0], [2.0]], [1.0, 2.0], "full"), "form must be a DesignForm, got 'full'"),
    "ols_fit x text": (lambda: ols_fit("x", [1, 2, 3]), "x must be an array of numbers, got 'x'"),
    "ols_fit x with text": (lambda: ols_fit([[1, "a"], [2, 3], [4, 5]], [1, 2, 3]),
                            "x must be an array of numbers, got [[1, 'a'], [2, 3], [4, 5]]"),
    "ols_fit x ragged": (lambda: ols_fit([[1, 2], [3]], [1, 2, 3]), "x must be an array of numbers, got [[1, 2], [3]]"),
    "ols_fit x complex": (lambda: ols_fit([[1j], [2], [3]], [1, 2, 3]),
                          "x must be an array of numbers, got [[1j], [2], [3]]"),
    "ols_fit y with text": (lambda: ols_fit([[1], [2], [3]], [1, 2, "a"]),
                            "y must be an array of numbers, got [1, 2, 'a']"),
    "ols_fit x None": (lambda: ols_fit(None, [1, 2, 3]), "x must be an array of numbers, got None"),
    "ols_fit y None": (lambda: ols_fit([[1], [2], [3]], None), "y must be an array of numbers, got None"),
    "plan int": (lambda: plan(5, REQUEST), "candidates must be a sequence of CandidateModels, got 5"),
    "plan list of int": (lambda: plan([1], REQUEST), "candidate must be a CandidateModel, got 1"),
    "plan request None": (lambda: plan([CANDIDATE], None), "request must be a PlanRequest, got None"),
    "required_ratio max_ratio text": (lambda: required_ratio(1e9, 5e8, "x"), "max_ratio must be a number, got 'x'"),
    "required_ratio max_ratio above 1": (lambda: required_ratio(1e9, 5e8, 1.5),
                                         "max_ratio must lie in (0, 1], got 1.5"),
    "classify_regime metric": (lambda: classify_regime(1.72, 1.5, "loss"), "metric must be a MetricKind, got 'loss'"),
    "critical_ratio metric": (lambda: critical_ratio(-1.03, 0.8, "accuracy"),
                              "metric must be a MetricKind, got 'accuracy'"),
    "analyze None": (lambda: analyze(None), "query must be a RecoveryQuery, got None"),
    "analyze law": (lambda: analyze(ACCURACY), f"query must be a RecoveryQuery, got {ACCURACY!r}"),
    "min_rft_size None": (lambda: min_rft_size(None), "query must be a RecoveryQuery, got None"),
}


@pytest.mark.parametrize("call", sorted(BAD_ARGUMENTS))
def test_a_bad_argument_is_a_domain_error_that_names_it(call):
    run, message = BAD_ARGUMENTS[call]
    with pytest.raises(DomainError) as info:
        run()
    assert str(info.value) == message


SUBMODULES = ("cli", "documents", "frontier", "io", "laws", "planner", "recovery", "regression", "synth")


@pytest.mark.parametrize("module", ["compresslaw", *(f"compresslaw.{name}" for name in SUBMODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


# The package's star-export list: written once in the package, so pinned here.
PACKAGE_EXPORTS = {
    "cli", "errors", "io", "laws", "planner", "recovery", "regression", "synth",
    "CompressLawError", "DataFormatError", "DomainError", "InfeasibleBudgetError", "RegimeError",
    "SingularDesignError",
    "CompressionLaw", "DesignForm", "ExperimentRecord", "FeasibilityWarning", "FitStatistics", "MetricKind",
    "RuntimeLaw", "SignViolation", "check_feasibility", "evaluate", "evaluate_runtime",
    "CandidateModel", "PlanEntry", "PlanRequest", "PlanResult", "SkippedCandidate", "plan", "predict_speedup",
    "required_ratio",
    "RecoveryAnalysis", "RecoveryQuery", "Regime", "analyze", "classify_regime", "critical_ratio", "min_rft_size",
    "recoverable", "recovery_margin",
    "build_design", "fit_law", "ols_fit",
    "SyntheticConfig", "generate",
}


def test_package_exports_exactly_its_names():
    import compresslaw

    assert len(PACKAGE_EXPORTS) == 47
    assert set(compresslaw.__all__) == PACKAGE_EXPORTS


def test_moved_names_are_the_same_objects():
    from compresslaw import documents, frontier, io, laws, planner, regression

    for name in ("DesignForm", "ExperimentRecord", "FitStatistics", "FeasibilityWarning"):
        assert getattr(regression, name) is getattr(laws, name)
        assert name not in regression.__all__ and name in laws.__all__
    assert set(documents.__all__) <= set(io.__all__)
    for name in documents.__all__:
        assert getattr(io, name) is getattr(documents, name)
    for name in ("FrontierPoint", "emit_frontier_grid", "write_frontier"):
        assert getattr(io, name) is getattr(frontier, name) and name in io.__all__
    assert documents.SCHEMA_VERSION is laws.SCHEMA_VERSION
    assert planner.OBSERVED_RATIO_MAX is laws.OBSERVED_RATIO_MAX


def _python(*args):
    """``python *args`` with the source tree importable, its output captured as text."""
    return subprocess.run([sys.executable, *args], env=child_env(), capture_output=True, text=True, timeout=60)


def test_importing_the_package_loads_no_numpy():
    done = _python("-c", "import sys, compresslaw; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Names the package loads on first access, and the module that defines each.
LAZY = {
    "documents": "compresslaw.documents",
    "frontier": "compresslaw.frontier",
    "io": "compresslaw.io",
    "planner": "compresslaw.planner",
    "recovery": "compresslaw.recovery",
    "regression": "compresslaw.regression",
    "synth": "compresslaw.synth",
    **dict.fromkeys(("CandidateModel", "PlanEntry", "PlanRequest", "PlanResult", "SkippedCandidate", "plan",
                     "predict_speedup", "required_ratio"), "compresslaw.planner"),
    **dict.fromkeys(("RecoveryAnalysis", "RecoveryQuery", "Regime", "analyze", "classify_regime", "critical_ratio",
                     "min_rft_size", "recoverable", "recovery_margin"), "compresslaw.recovery"),
    "build_design": "compresslaw.regression",
    "fit_law": "compresslaw.regression",
    "ols_fit": "compresslaw.regression",
    "SyntheticConfig": "compresslaw.synth",
    "generate": "compresslaw.synth",
}

LAZY_CHECK = """
import json, sys
import compresslaw

lazy = json.loads(sys.argv[1])
# Only cli, errors and laws load with the package; every lazy name and module waits for its first access.
assert "numpy" not in sys.modules
assert [name for name in lazy if name in vars(compresslaw)] == []
assert {module for module in lazy.values() if module in sys.modules} == set()
for name, module in lazy.items():
    value = getattr(compresslaw, name)
    module = sys.modules[module]
    assert value is (module if module.__name__.endswith("." + name) else getattr(module, name)), name
    assert vars(compresslaw)[name] is value, name  # cached: the next lookup does not reach __getattr__
assert not hasattr(compresslaw, "no_such_name")
print("ok")
"""


def test_each_lazy_name_resolves_and_is_cached():
    import compresslaw

    assert set(LAZY) <= set(compresslaw.__all__) | {"documents", "frontier"}
    done = _python("-c", LAZY_CHECK, json.dumps(LAZY))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help_runs(script):
    done = _python(str(ROOT / "scripts" / script), "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_no_source_line_is_longer_than_120_characters():
    """A line count says how big the package is only while no line packs in more than its share."""
    long_lines = [f"{path.name}:{number}" for path in sorted((ROOT / "src" / "compresslaw").glob("*.py"))
                  for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 120]
    assert long_lines == []


def test_the_cli_and_the_readers_leave_each_rule_to_the_library():
    """Only ``laws`` imports reprlib: every reader quotes a bad value with ``laws._quote``.  No command handler
    returns a value, since ``run`` owns the exit code, or checks a law against ``CompressionLaw``, which the value
    type or function it calls checks."""
    source = ROOT / "src" / "compresslaw"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(source.glob("*.py"))}
    importers = [name for name, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.Import) and "reprlib" in [alias.name for alias in node.names]
                 or isinstance(node, ast.ImportFrom) and node.module == "reprlib"]
    assert importers == ["laws.py"]
    handlers = [node for node in trees["cli.py"].body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    assert len(handlers) == 7
    offenders = [
        (handler.name, node.lineno) for handler in handlers for node in ast.walk(handler)
        if isinstance(node, ast.Return) and node.value is not None
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and "CompressionLaw" in [name.id for name in ast.walk(node.args[1]) if isinstance(name, ast.Name)]
    ]
    assert offenders == []
