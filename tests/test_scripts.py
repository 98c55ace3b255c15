"""The study scripts under ``scripts/`` run as the README shows them, against the package in ``src/``."""

import subprocess
import sys
from pathlib import Path

from child_env import child_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_noise_sweep_recovers_the_truth_without_noise():
    lines = run_script("noise_sweep.py", "--seeds", "2", "--noise", "0,0.05")
    assert lines[0].startswith("truth (alpha, beta, gamma) = (0.63, 1.72, 1.16), n = 500, seeds = 2")
    levels = {float(fields[0]): fields[1:] for fields in map(str.split, lines[2:])}
    assert sorted(levels) == [0.0, 0.05]
    assert float(levels[0.0][0]) < 1e-12  # mean absolute coefficient error
    assert levels[0.0][2] == "2/2"


def test_recovery_frontier_study_tabulates_every_table2_model():
    lines = run_script("recovery_frontier_study.py")
    assert lines[0] == "metric=accuracy, probe ratio r=0.19"
    assert lines[1].split()[:3] == ["model", "beta", "2^beta"]
    rows = lines[3:]
    assert rows and all(len(row.split()) == 3 + 2 * 3 for row in rows)
