"""Package-wide contracts: export lists resolve, every ``r`` entry point validates alike, scripts start."""

import importlib
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


SUBMODULES = ("cli", "io", "laws", "planner", "recovery", "regression", "synth")


@pytest.mark.parametrize("module", ["compresslaw", *(f"compresslaw.{name}" for name in SUBMODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
