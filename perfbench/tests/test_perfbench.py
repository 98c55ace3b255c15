"""Tests of the benchmark itself: failure counting, seeded inputs, repeatable counts."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    """Short runs: no set-up time budget, one start-up sample, a short call mix.

    A run pins its process to one CPU; the pin is undone after each test.
    """
    monkeypatch.setattr(bench, "SETUP_BUDGET_S", 0.0)
    monkeypatch.setattr(bench, "FLOOR_REPEATS", 1)
    monkeypatch.setitem(
        workloads.WORKLOADS, "interactive", lambda root, seed: workloads.InteractiveWorkload(root, seed, mix_iterations=8)
    )
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


def result_of(capsys, argv: list[str]) -> dict:
    assert bench.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_or_unparseable_stdout_and_nonzero_exit_are_failures(capsys, monkeypatch):
    real_argv = workloads.cli_argv

    def broken_argv(args):
        if args[0] == "critical":
            return [sys.executable, "-c", "print('{\"regime\": \"wrong\"}')"]
        if args[0] == "predict":
            return [sys.executable, "-c", "print('not json')"]
        if args[0] == "plan":
            return [sys.executable, "-c", "import sys; sys.exit(3)"]
        return real_argv(args)

    monkeypatch.setattr(workloads, "cli_argv", broken_argv)
    result = result_of(capsys, ["--workload", "interactive", "--seed", "3", "--seconds", "0"])
    ops = 2 * len(workloads.CLI_KINDS)
    assert result["attempted"] == ops + 1  # one pass, plus the set-up determinism check
    assert result["failed"] == 4  # critical, both predicts and plan
    assert result["correct"] is False


@pytest.mark.parametrize(
    "make",
    [
        lambda seed, out: gen.fit_inputs(seed, out),
        lambda seed, out: gen.write_inputs(seed, out),
        lambda seed, out: gen.interactive_inputs(seed, out, ROOT / "src" / "compresslaw" / "data" / "fixtures.json"),
    ],
    ids=["fit_100k", "write_100k", "interactive"],
)
def test_generator_is_deterministic(tmp_path, make):
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        out = tmp_path / name
        out.mkdir()
        make(seed, out)
        digests.append(bench.tree_digest(out))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_fit_inputs_have_the_requested_size_and_corruption(tmp_path):
    inputs = gen.fit_inputs(1, tmp_path)
    assert inputs.n == 100_000 and inputs.corrupted == 100
    lines = inputs.corrupt.read_bytes().split(b"\r\n")
    assert len(lines) == inputs.n + 2


def test_count_metrics_repeat_exactly(capsys):
    argv = ["--workload", "interactive", "--seed", "4", "--seconds", "0", "--trace", "1"]
    first, second = result_of(capsys, argv), result_of(capsys, argv)
    counts = [m for m, unit in bench.PER_LAYER.items() if unit in ("rows", "bytes", "lines")]
    assert first["correct"] and second["correct"]
    for metric in counts:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric
        assert first["metrics"][metric]["value"] > 0, metric
    assert set(first["metrics"]) == set(bench.PER_LAYER)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_100k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
