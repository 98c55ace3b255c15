"""End-to-end CLI behavior: outputs, pipelines, exit codes, help."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compresslaw.cli import build_parser, run
from compresslaw.io import SkippedRowWarning, builtin_registry, load_registry, registry_to_json, save_law, write_records
from compresslaw.laws import CompressionLaw, MetricKind, RuntimeLaw
from compresslaw.io import LawRegistry, RegistryEntry
from compresslaw.synth import SyntheticConfig, generate

ROOT = Path(__file__).resolve().parents[1]

EXTRINSIC = CompressionLaw(0.98, -1.03, -0.14, MetricKind.ACCURACY)
LLAMA8B = CompressionLaw(0.98, -1.18, -0.14, MetricKind.ACCURACY)

GOLDEN_FLAGS = json.loads((Path(__file__).parent / "data" / "cli_help_flags.json").read_text())


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCritical:
    def test_worked_example(self, capsys):
        code, doc = run_json(capsys, ["critical", "--beta", "-1.18", "--sigma", "0.8", "--metric", "accuracy"])
        assert code == 0
        assert doc["regime"] == "conditionally-recoverable"
        assert doc["r_critical"] == pytest.approx(0.208, abs=0.002)
        assert doc["boundary"] == pytest.approx(0.441, abs=0.002)

    def test_always_recoverable(self, capsys):
        code, doc = run_json(capsys, ["critical", "--beta", "-1.18", "--sigma", "0.3", "--metric", "accuracy"])
        assert code == 0
        assert doc["regime"] == "always-recoverable"
        assert doc["r_critical"] is None


class TestPredict:
    def test_identity_law_echoes_l0(self, capsys, tmp_path):
        law_path = tmp_path / "identity.json"
        save_law(CompressionLaw(1.0, 0.0, 0.0, MetricKind.LOSS), law_path)
        code, doc = run_json(capsys, ["predict", "--law", str(law_path), "--l0", "3.7", "--r", "0.4", "--d", "10"])
        assert code == 0
        assert doc["prediction"] == pytest.approx(3.7, rel=1e-12)

    def test_runtime_law(self, capsys, tmp_path):
        law_path = tmp_path / "runtime.json"
        save_law(RuntimeLaw(c=100.0, beta=-0.67), law_path)
        code, doc = run_json(capsys, ["predict", "--law", str(law_path), "--r", "0.5"])
        assert code == 0
        assert doc["prediction"] == pytest.approx(76.21, abs=0.05)

    def test_runtime_law_rejects_l0(self, capsys, tmp_path):
        law_path = tmp_path / "runtime.json"
        save_law(RuntimeLaw(c=100.0, beta=-0.67), law_path)
        code, doc = run_json(capsys, ["predict", "--law", str(law_path), "--r", "0.5", "--l0", "1.0"])
        assert code == 1
        assert "error" in doc

    def test_compression_law_requires_l0(self, capsys, tmp_path):
        law_path = tmp_path / "law.json"
        save_law(EXTRINSIC, law_path)
        code, doc = run_json(capsys, ["predict", "--law", str(law_path), "--r", "0.5"])
        assert code == 1
        assert "--l0" in doc["error"]["message"]


class TestMinRft:
    @pytest.fixture()
    def law_path(self, tmp_path):
        path = tmp_path / "llama8b.json"
        save_law(LLAMA8B, path)
        return str(path)

    def test_recoverable_point(self, capsys, law_path):
        code, doc = run_json(capsys, ["min-rft", "--law", law_path, "--sigma", "0.8", "--r", "0.19"])
        assert code == 0
        assert doc["min_rft_size"] == pytest.approx(6.341, abs=0.01)

    def test_unrecoverable_point(self, capsys, law_path):
        code, doc = run_json(capsys, ["min-rft", "--law", law_path, "--sigma", "0.8", "--r", "0.25"])
        assert code == 0
        assert doc["min_rft_size"] == "unrecoverable"
        assert doc["r_critical"] == pytest.approx(0.208, abs=0.002)


class TestSynthFitPipeline:
    def test_noiseless_round_trip(self, capsys, tmp_path):
        law_path = tmp_path / "truth.json"
        save_law(EXTRINSIC, law_path)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps(
                {
                    "l0_values": [0.4, 0.55, 0.7],
                    "r_values": [0.1, 0.3, 0.5, 0.7, 0.9],
                    "d_values": [0, 10, 1000, 25000],
                }
            )
        )
        out_path = tmp_path / "records.csv"
        code, doc = run_json(
            capsys,
            ["synth", "--truth", str(law_path), "--grid", str(grid_path), "--seed", "0", "--out", str(out_path)],
        )
        assert code == 0
        assert doc["records_written"] == 60

        code = run(["fit", "--input", str(out_path), "--form", "full"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["law"]["alpha"] == pytest.approx(0.98, abs=1e-8)
        assert report["law"]["beta"] == pytest.approx(-1.03, abs=1e-8)
        assert report["law"]["gamma"] == pytest.approx(-0.14, abs=1e-8)
        assert report["warnings"] == []

    def test_synth_to_stdout(self, capsys, tmp_path):
        law_path = tmp_path / "truth.json"
        save_law(EXTRINSIC, law_path)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"l0_values": [0.5], "r_values": [0.1, 0.5], "d_values": [0, 10]}))
        code = run(["synth", "--truth", str(law_path), "--grid", str(grid_path), "--seed", "1", "--out", "-"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("model_id,metric,l0,r,d,l")
        assert len(out.strip().splitlines()) == 5

    def test_fit_reads_stdin(self, capsys, monkeypatch, tmp_path):
        import io as stdio

        csv_text = "model_id,metric,l0,r,d,l\n" + "".join(
            f"m,loss,{l0},{r},{d},{l0}\n" for l0 in (1.5, 2.0, 4.0) for r in (0.1, 0.5) for d in (0, 10)
        )
        monkeypatch.setattr("sys.stdin", stdio.StringIO(csv_text))
        code = run(["fit", "--input", "-"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["law"]["alpha"] == pytest.approx(1.0, abs=1e-10)


class TestPlan:
    @pytest.fixture()
    def registry_path(self, tmp_path):
        registry = LawRegistry(
            [
                RegistryEntry("qwen-2.5-3b", MetricKind.ACCURACY, "t",
                              CompressionLaw(0.91, -1.19, -0.11, MetricKind.ACCURACY),
                              param_count=3e9, l0=0.6),
                RegistryEntry("qwen-2.5-7b", MetricKind.ACCURACY, "t",
                              CompressionLaw(0.64, -1.34, -0.11, MetricKind.ACCURACY),
                              param_count=7e9, l0=0.6),
            ]
        )
        path = tmp_path / "registry.json"
        path.write_text(registry_to_json(registry))
        return str(path)

    def test_ranking(self, capsys, registry_path):
        code, doc = run_json(
            capsys,
            ["plan", "--registry", registry_path, "--budget", "1.5e9", "--d", "0", "--metric", "accuracy"],
        )
        assert code == 0
        assert [e["model_id"] for e in doc["entries"]] == ["qwen-2.5-3b", "qwen-2.5-7b"]
        assert doc["entries"][0]["predicted_performance"] == pytest.approx(0.3592987779, abs=1e-3)
        assert doc["skipped"] == []

    def test_builtin_registry_needs_l0(self, capsys, tmp_path):
        path = tmp_path / "builtin.json"
        path.write_text(registry_to_json(builtin_registry()))
        code, doc = run_json(capsys, ["plan", "--registry", str(path), "--budget", "1e9", "--metric", "accuracy"])
        assert code == 1
        assert "l0" in doc["error"]["message"]


class TestFrontier:
    @pytest.fixture()
    def law_path(self, tmp_path):
        path = tmp_path / "law.json"
        save_law(EXTRINSIC, path)
        return str(path)

    def test_json_rows(self, capsys, law_path):
        code, doc = run_json(
            capsys,
            ["frontier", "--law", law_path, "--l0-list", "0.6", "--r-grid", "0.1,0.5", "--d-grid", "0,100"],
        )
        assert code == 0
        assert len(doc["rows"]) == 4
        assert doc["rows"][0]["predicted"] == pytest.approx(0.6**0.98 * 1.1**-1.03 * 2**-0.14, rel=1e-9)

    def test_csv_format(self, capsys, law_path):
        code = run(
            ["frontier", "--law", law_path, "--l0-list", "0.6", "--r-grid", "0.1", "--d-grid", "0", "--format", "csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "l0,r,d,predicted"


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(["critical", "--beta", "-1", "--sigma", "0.5", "--metric", "accuracy", "--bogus"]) == 1

    def test_missing_subcommand(self, capsys):
        assert run([]) == 1

    def test_domain_error_is_single_line_object(self, capsys):
        code = run(["critical", "--beta", "-1.18", "--sigma", "1.5", "--metric", "accuracy"])
        assert code == 1
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "DomainError"

    def test_missing_input_file_is_io_error(self, capsys, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_invalid_csv_content_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("model_id,metric,l0,r,d,l\nm,loss,2.0,1.4,0,3\n")
        code = run(["fit", "--input", str(path)])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert "row 2" in doc["error"]["message"]

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["fit", "--help"]) == 0


class TestHelpGolden:
    @pytest.mark.parametrize("command", sorted(GOLDEN_FLAGS))
    def test_help_lists_every_flag(self, command, capsys):
        assert run([command, "--help"]) == 0
        help_text = capsys.readouterr().out
        listed = sorted(set(re.findall(r"--[a-z0-9-]+", help_text)))
        assert listed == GOLDEN_FLAGS[command]

    def test_golden_covers_all_subcommands(self, capsys):
        assert run(["--help"]) == 0
        top = capsys.readouterr().out
        for command in GOLDEN_FLAGS:
            assert command in top


class TestFixtureReproduction:
    def test_fit_reproduces_every_fixture_law_from_synth(self, capsys, tmp_path):
        """synth -> fit round trips every shipped compression law, form included."""
        grid = {"l0_values": [0.4, 0.9, 2.0, 4.5], "r_values": [0.1, 0.4, 0.8], "d_values": [0, 10, 1000]}
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        exponents = {"full": ("alpha", "beta", "gamma"), "ratio": ("alpha", "beta"), "data": ("alpha", "gamma")}
        for entry in builtin_registry():
            if isinstance(entry.law, RuntimeLaw):
                continue
            law_path = tmp_path / "law.json"
            save_law(entry.law, law_path)
            out_path = tmp_path / "records.csv"
            assert run(["synth", "--truth", str(law_path), "--grid", str(grid_path),
                        "--seed", "0", "--out", str(out_path)]) == 0
            capsys.readouterr()
            assert run(["fit", "--input", str(out_path), "--form", entry.form.value]) == 0
            report = json.loads(capsys.readouterr().out)
            for name in exponents[entry.form.value]:
                assert report["law"][name] == pytest.approx(getattr(entry.law, name), abs=1e-8), entry.key


class TestDeterminism:
    def test_same_invocation_same_bytes(self, capsys, tmp_path):
        law_path = tmp_path / "law.json"
        save_law(EXTRINSIC, law_path)
        argv = ["frontier", "--law", str(law_path), "--l0-list", "0.6,0.7", "--r-grid", "0.1,0.2", "--d-grid", "0,10"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# malformed input documents: every run ends with exit 0, 1 or 2 and one stdout document
# ---------------------------------------------------------------------------

STATS = {"n": 10, "p": 3, "r_squared": 0.9, "adj_r_squared": 0.8, "f_statistic": 5.0,
         "residual_std": 0.1, "condition_number": 2.0}
LAW = {"schema_version": "compresslaw/v1", "kind": "compression", "metric": "accuracy",
       "alpha": 0.98, "beta": -1.18, "gamma": -0.14, "epsilon": 1.0, "stats": STATS}
REGISTRY = {"schema_version": "compresslaw/v1", "kind": "law_registry", "entries": [
    {"model_id": "a", "metric": "accuracy", "method_tag": "t", "form": "full", "provenance": "",
     "param_count": 3e9, "l0": 0.6, "reported": {"adj_r_squared": 0.9},
     "law": {"kind": "compression", "metric": "accuracy", "alpha": 0.91, "beta": -1.19, "gamma": -0.11}},
    {"model_id": "b", "metric": "accuracy", "method_tag": "t", "form": "full", "provenance": "",
     "param_count": 7e9, "l0": 0.6,
     "law": {"kind": "compression", "metric": "accuracy", "alpha": 0.64, "beta": -1.34, "gamma": -0.11}},
]}
GRID = {"l0_values": [0.4, 0.7], "r_values": [0.1, 0.5], "d_values": [0, 10], "model_id": "m"}
CSV_ROWS = [["model_id", "metric", "l0", "r", "d", "l"]] + [
    ["m", "loss", str(l0), str(r), str(d), str(l0 * (1 + r) * (1 + 1 / (d + 1)))]
    for l0 in (1.5, 2.0, 4.0) for r in (0.1, 0.5) for d in (0, 10)
]
# Deeper than any JSON parser recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


def _changed(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _with_raw(doc, path, raw):
    """``doc`` as JSON text with the value at ``path`` spelled as ``raw``, however deep it nests."""
    return json.dumps(_changed(doc, path, "@RAW@")).replace('"@RAW@"', raw)


def _csv_text(rows):
    out = io.StringIO()
    writer = csv.writer(out)
    for row in rows:
        writer.writerow(row if isinstance(row, list) else [row])
    return out.getvalue()


def _argv(command, path, directory):
    """The CLI call that reads ``path`` as its main input document."""
    directory = Path(directory)
    if command == "predict":
        return ["predict", "--law", str(path), "--l0", "0.6", "--r", "0.19"]
    if command == "min-rft":
        return ["min-rft", "--law", str(path), "--sigma", "0.8", "--r", "0.19"]
    if command == "plan":
        return ["plan", "--registry", str(path), "--budget", "1.5e9", "--metric", "accuracy"]
    if command == "synth":
        truth = directory / "truth.json"
        if not truth.exists():
            truth.write_text(json.dumps(LAW))
        return ["synth", "--truth", str(truth), "--grid", str(path), "--seed", "0", "--out",
                str(directory / "out.csv")]
    return ["fit", "--input", str(path)] + (["--lenient"] if command == "fit-lenient" else [])


def _run_captured(argv):
    """``run(argv)`` with stdout captured; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


HUGE_FIELD_CSV = _csv_text(CSV_ROWS[:4] + [["x" * 200_000, "loss", "2", "0.1", "0", "2"]] + CSV_ROWS[4:])

MALFORMED = {
    "400-digit exponent": ("predict", json.dumps(_changed(LAW, ["alpha"], 10**400))),
    "n null": ("predict", json.dumps(_changed(LAW, ["stats", "n"], None))),
    "n list": ("predict", json.dumps(_changed(LAW, ["stats", "n"], [1]))),
    "n fractional": ("predict", json.dumps(_changed(LAW, ["stats", "n"], 16.7))),
    "deep law": ("predict", _with_raw(LAW, ["alpha"], DEEP)),
    "deep registry": ("plan", _with_raw(REGISTRY, ["entries"], DEEP)),
    "registry reported 0": ("plan", json.dumps(_changed(REGISTRY, ["entries", 0, "reported"], 0))),
    "grid null value": ("synth", json.dumps(_changed(GRID, ["l0_values"], [None]))),
    "grid nested value": ("synth", json.dumps(_changed(GRID, ["l0_values"], [[1]]))),
    "grid model_id null": ("synth", json.dumps(_changed(GRID, ["model_id"], None))),
    "csv field over the size limit": ("fit", HUGE_FIELD_CSV),
}
# A number is read only as it is written: a JSON number, or one of the strings "inf", "-inf" and "nan".
NUMBER_FIELDS = {"predict": (LAW, ["alpha"]), "synth": (GRID, ["d_values", 0]), "plan": (REGISTRY, ["entries", 0, "l0"])}
MALFORMED.update(
    (f"{command} number as {text!r}", (command, json.dumps(_changed(doc, path, text))))
    for command, (doc, path) in NUMBER_FIELDS.items()
    for text in ("0.63", " 1_720e-3 ", "1_0")
)
# Nor is a bare NaN, Infinity or -Infinity token a number: it is not JSON, and no writer emits it.
BARE_STATS = _changed(_changed(LAW, ["stats", "adj_r_squared"], "@NAN@"), ["stats", "f_statistic"], "@INF@")
MALFORMED["predict bare NaN and Infinity stats"] = (
    "predict", json.dumps(BARE_STATS).replace('"@NAN@"', "NaN").replace('"@INF@"', "Infinity"))
MALFORMED.update(
    (f"plan bare {token} reported", ("plan", _with_raw(REGISTRY, ["entries", 0, "reported", "adj_r_squared"], token)))
    for token in ("NaN", "Infinity", "-Infinity")
)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_one_data_format_error(case, tmp_path):
    command, text = MALFORMED[case]
    path = tmp_path / "input"
    path.write_text(text)
    code, out = _run_captured(_argv(command, path, tmp_path))
    assert code == 1
    assert len(out.splitlines()) == 1
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == "DataFormatError"


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return env


LIGHT = {
    "critical": ["critical", "--beta", "-1.18", "--sigma", "0.8", "--metric", "accuracy"],
    "predict": ["predict", "--law", "{law}", "--l0", "0.6", "--r", "0.19", "--d", "10"],
    "predict-runtime": ["predict", "--law", "{runtime}", "--r", "0.5"],
    "min-rft": ["min-rft", "--law", "{law}", "--sigma", "0.8", "--r", "0.19"],
    "plan": ["plan", "--registry", "{registry}", "--budget", "1.5e9", "--metric", "accuracy"],
}


@pytest.mark.parametrize("command", sorted(LIGHT))
def test_light_commands_start_without_numpy(command, tmp_path):
    """The commands that are scalar math over laws, run as ``python -m compresslaw.cli``, import no numpy and
    print what ``run`` prints in process.  Their stderr holds only the import times and runpy's warning that the
    package imported ``compresslaw.cli`` before running it as ``__main__``."""
    paths = {"law": tmp_path / "law.json", "runtime": tmp_path / "runtime.json", "registry": tmp_path / "registry.json"}
    paths["law"].write_text(json.dumps(LAW))
    save_law(RuntimeLaw(c=100.0, beta=-0.67), paths["runtime"])
    paths["registry"].write_text(json.dumps(REGISTRY))
    argv = [arg.format(**paths) for arg in LIGHT[command]]
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "compresslaw.cli", *argv],
                          env=_cli_env(), capture_output=True, timeout=60)
    stderr = done.stderr.decode()
    assert done.returncode == 0, stderr
    imports = [line for line in stderr.splitlines() if line.startswith("import time:")]
    assert any(line.endswith("compresslaw.laws") for line in imports)
    assert [line for line in imports if "numpy" in line] == []
    others = [line for line in stderr.splitlines() if not line.startswith("import time:")]
    assert len(others) == 1 and "RuntimeWarning: 'compresslaw.cli' found in sys.modules" in others[0], others
    code, out = _run_captured(argv)
    assert code == 0
    assert done.stdout == out.encode()


def test_fit_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    """OpenBLAS splits a long dot product between its threads and sums the parts in another order.  On these
    20,000 rows, sums of squares taken that way print a ``residual_std`` that differs between 1 and 2 threads."""
    axes = (np.linspace(1.5, 6.0, 20), np.linspace(0.0, 0.9, 50), np.geomspace(1.0, 1e6, 100))
    config = SyntheticConfig(CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS), *(a.tolist() for a in axes),
                             noise_std=0.05, seed=3)
    path = tmp_path / "records.csv"
    write_records(generate(config)[:20_000], path)
    stdout = []
    for threads in ("1", "2"):
        env = dict(_cli_env(), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "compresslaw.cli", "fit", "--input", str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        stdout.append(done.stdout)
    assert stdout[0] == stdout[1]


OVERFLOW_TRUTH = dict(LAW, alpha=900.0)  # 100**900 overflows a float
UNDERFLOW_TRUTH = dict(LAW, alpha=-900.0)  # and 100**-900 underflows to zero
OVERFLOW_REGISTRY = dict(REGISTRY, entries=REGISTRY["entries"] + [
    {"model_id": "b", "metric": "runtime", "method_tag": "t", "form": "runtime",
     "law": {"kind": "runtime", "c": 1.0, "beta": 5000.0}},
])
OVERFLOW = {
    "synth": ["synth", "--truth", "{truth}", "--grid", "{grid}", "--seed", "0", "--out", "{out}"],
    "plan": ["plan", "--registry", "{registry}", "--budget", "3e9", "--metric", "accuracy"],
    "frontier": ["frontier", "--law", "{truth}", "--l0-list", "100", "--r-grid", "0.1,0.5", "--d-grid", "0,10"],
    "predict": ["predict", "--law", "{truth}", "--l0", "100", "--r", "0.1"],
}
UNDERFLOW = ("frontier", "predict", "synth")


@pytest.mark.parametrize("command", sorted(OVERFLOW) + [f"{command}-underflow" for command in UNDERFLOW])
def test_an_overflowing_prediction_is_one_domain_error(command, tmp_path):
    command, _, underflow = command.partition("-")
    paths = {"truth": tmp_path / "truth.json", "grid": tmp_path / "grid.json",
             "registry": tmp_path / "registry.json", "out": tmp_path / "out.csv"}
    paths["truth"].write_text(json.dumps(UNDERFLOW_TRUTH if underflow else OVERFLOW_TRUTH))
    paths["grid"].write_text(json.dumps(dict(GRID, l0_values=[100.0])))
    paths["registry"].write_text(json.dumps(OVERFLOW_REGISTRY))
    code, out = _run_captured([arg.format(**paths) for arg in OVERFLOW[command]])
    assert code == 1
    assert len(out.splitlines()) == 1
    assert list(json.loads(out)) == ["error"]
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert ("underflowed to zero" if underflow else "overflowed") in error["message"]


GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_FRONTIER = ["frontier", "--law", str(GOLDEN / "truth.json"),
                   "--l0-list", "2.5,4", "--r-grid", "0,0.1,0.5,0.9", "--d-grid", "0,-0.0,10,1e6"]


class TestGoldenBytes:
    """Outputs pinned byte for byte to files written by the per-row writers that the columnar ones replaced:
    a 45-row noisy ``synth`` CSV whose ``model_id`` needs quoting and whose ``d`` axis holds ``-0.0``, the
    ``fit`` report of that CSV, and a ``frontier`` table as CSV and JSON."""

    def test_synth_csv(self, tmp_path):
        out = tmp_path / "synth.csv"
        argv = ["synth", "--truth", str(GOLDEN / "truth.json"), "--grid", str(GOLDEN / "grid.json"),
                "--noise-std", "0.05", "--seed", "7", "--out", str(out)]
        assert _run_captured(argv)[0] == 0
        assert out.read_bytes() == (GOLDEN / "synth.csv").read_bytes()

    @pytest.mark.parametrize("argv, golden", [
        (["fit", "--input", str(GOLDEN / "synth.csv")], "fit.json"),
        (["fit", "--lenient", "--input", str(GOLDEN / "synth.csv")], "fit.json"),
        (GOLDEN_FRONTIER + ["--format", "csv"], "frontier.csv"),
        (GOLDEN_FRONTIER + ["--format", "json"], "frontier.json"),
    ], ids=["fit", "fit-lenient", "frontier-csv", "frontier-json"])
    def test_stdout(self, argv, golden):
        code, out = _run_captured(argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()


def test_lenient_fit_skips_a_row_over_the_csv_field_limit(tmp_path):
    path = tmp_path / "input.csv"
    path.write_text(HUGE_FIELD_CSV)
    with pytest.warns(SkippedRowWarning, match="row 5: field larger than field limit"):
        code, out = _run_captured(_argv("fit-lenient", path, tmp_path))
    assert code == 0
    assert json.loads(out)["stats"]["n"] == len(CSV_ROWS) - 1


@pytest.mark.parametrize("field", ["metric", "l0"])
def test_an_overlong_bad_csv_field_is_quoted_short(field, tmp_path):
    # 100k chars stays under the csv module's field limit, so the row reaches the record parser.
    row = dict(zip(CSV_ROWS[0], CSV_ROWS[1]), **{field: "x" * 100_000})
    path = tmp_path / "input.csv"
    path.write_text(_csv_text([CSV_ROWS[0], list(row.values())]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(_argv("fit", path, tmp_path))
    assert code == 1
    assert len(out.getvalue().splitlines()) == 1 and len(out.getvalue()) < 1024
    assert json.loads(out.getvalue())["error"]["type"] == "DataFormatError"
    assert f"row 2: field '{field}'" in out.getvalue()
    assert len(err.getvalue()) < 1024


FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([10**400, -(10**400), 2**64, 0, -1, 16.7, 1e4, -1e4, math.inf, -math.inf, math.nan]),
    st.sampled_from(["", "inf", "nan", "loss", "runtime", "1e999", "x" * 200_000]),
    st.text(max_size=4),
    st.recursive(st.integers(-2, 2), lambda children: st.lists(children, max_size=2), max_leaves=3),
)
FUZZ_TARGETS = {"predict": LAW, "min-rft": LAW, "plan": REGISTRY, "synth": GRID, "fit": CSV_ROWS,
                "fit-lenient": CSV_ROWS}


def _mutate(data, doc):
    """Replace, delete or insert one value at a drawn place in the JSON-like tree ``doc``."""
    node = json.loads(json.dumps(doc))
    root = node
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys)) if keys else None
        child = node[key] if keys else None
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        break
    action = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    if key is None or action == "insert":
        value = data.draw(FUZZ_VALUES)
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(["kind", "stats", "reported", "model_id", "epsilon", "extra"]))] = value
        else:
            node.insert(data.draw(st.integers(0, len(node))), value)
    elif action == "delete":
        del node[key]
    else:
        node[key] = data.draw(FUZZ_VALUES)
    return root


@pytest.mark.filterwarnings("ignore::compresslaw.io.SkippedRowWarning")
@pytest.mark.parametrize("command", sorted(FUZZ_TARGETS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_contract_holds_for_mutated_documents(command, data):
    doc = _mutate(data, FUZZ_TARGETS[command])
    text = _csv_text(doc) if command.startswith("fit") else json.dumps(doc)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input"
        path.write_text(text)
        code, out = _run_captured(_argv(command, path, directory))
    assert code in (0, 1, 2)
    result = json.loads(out)
    assert isinstance(result, dict)
    if code:
        assert len(out.splitlines()) == 1 and "error" in result
