"""Package-wide contracts: export lists resolve, every ``r`` entry point validates alike, scripts start."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from compresslaw.errors import DomainError
from compresslaw.laws import CompressionLaw, MetricKind, RuntimeLaw, evaluate, evaluate_runtime
from compresslaw.planner import predict_speedup
from compresslaw.recovery import RecoveryQuery, recoverable
from compresslaw.regression import ExperimentRecord
from compresslaw.synth import SyntheticConfig

ROOT = Path(__file__).resolve().parents[1]
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


SUBMODULES = ("cli", "documents", "io", "laws", "planner", "recovery", "regression", "synth")


@pytest.mark.parametrize("module", ["compresslaw", *(f"compresslaw.{name}" for name in SUBMODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_moved_names_are_the_same_objects():
    from compresslaw import documents, io, laws, regression

    for name in ("DesignForm", "ExperimentRecord", "FitStatistics", "FeasibilityWarning"):
        assert getattr(regression, name) is getattr(laws, name)
        assert name in regression.__all__ and name in laws.__all__
    assert set(documents.__all__) <= set(io.__all__)
    for name in documents.__all__:
        assert getattr(io, name) is getattr(documents, name)


def _python(*args):
    """``python *args`` with the source tree importable, its output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_importing_the_package_loads_no_numpy():
    done = _python("-c", "import sys, compresslaw; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Names the package loads on first access, and the module that defines each.
LAZY = {
    "documents": "compresslaw.documents",
    "io": "compresslaw.io",
    "regression": "compresslaw.regression",
    "synth": "compresslaw.synth",
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
# documents comes with cli, which the package imports eagerly; the numpy-backed names wait for their first access.
assert "numpy" not in sys.modules
assert [name for name in lazy if name in vars(compresslaw)] == ["documents"]
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

    assert set(LAZY) <= set(compresslaw.__all__) | {"documents"}
    done = _python("-c", LAZY_CHECK, json.dumps(LAZY))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help_runs(script):
    done = _python(str(ROOT / "scripts" / script), "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
