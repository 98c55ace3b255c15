"""End-to-end CLI behavior: outputs, pipelines, exit codes, help."""

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from child_env import child_env
from compresslaw.cli import build_parser, run
from compresslaw.documents import LawRegistry, RegistryEntry, builtin_registry, load_law, load_registry
from compresslaw.documents import registry_to_json, report_to_json, save_law
from compresslaw.errors import CompressLawError
from compresslaw.frontier import _CHUNK_ROWS, emit_frontier_grid
from compresslaw.io import SkippedRowWarning, build_fit_report, write_records
from compresslaw.laws import SCHEMA_VERSION, CompressionLaw, FeasibilityWarning, MetricKind, RuntimeLaw, evaluate
from compresslaw.recovery import RecoveryQuery, analyze
from compresslaw.regression import fit_law
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
    def test_fit_report_predicts_as_its_law(self, tmp_path):
        outputs = []
        for name, doc in (("law", LAW), ("report", REPORT)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            outputs.append(_run_captured(["predict", "--law", str(path), "--l0", "0.6", "--r", "0.19", "--d", "10"]))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

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


def _library_doc(kind, fields):
    """The exit code and stdout document of a command whose ``fields()`` the library computes in process."""
    try:
        return 0, {"schema_version": SCHEMA_VERSION, "kind": kind, **fields()}
    except CompressLawError as exc:
        return 1, {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _cli_doc(argv):
    code, out = _run_captured([str(arg) for arg in argv])
    return code, json.loads(out)


CHAIN_GRID = {"l0_values": [0.5, 0.7, 2.0], "r_values": [0.1, 0.3, 0.5, 0.8], "d_values": [0.0, 10.0, 1000.0]}


class TestFitReportChain:
    """``synth`` -> ``fit`` -> ``predict`` / ``min-rft`` / ``frontier`` / ``synth`` on the report print, bit for
    bit, what ``evaluate``, ``analyze``, ``emit_frontier_grid`` and ``generate`` give for
    ``fit_law(generate(config))``."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        truth=st.sampled_from([e.law for e in builtin_registry() if isinstance(e.law, CompressionLaw)]),
        noise_std=st.sampled_from([0.0, 0.01, 0.05]),
        seed=st.integers(0, 2**16),
        sigma=st.floats(0.05, 0.95),
        r=st.floats(0.0, 0.9),
        d=st.sampled_from([0.0, 3.0, 1e4]),
    )
    def test_commands_on_a_fit_report_match_the_library(self, truth, noise_std, seed, sigma, r, d):
        config = SyntheticConfig(truth, *CHAIN_GRID.values(), noise_std=noise_std, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FeasibilityWarning)
            law = fit_law(generate(config))
        if law.metric is MetricKind.LOSS:
            sigma = 1.0 / sigma  # a loss threshold lies above 1
        with tempfile.TemporaryDirectory() as directory:
            truth_path, grid_path, records_path, report_path = (
                Path(directory) / name for name in ("truth.json", "grid.json", "records.csv", "report.json"))
            save_law(truth, truth_path)
            grid_path.write_text(json.dumps(CHAIN_GRID))
            argv = ["synth", "--truth", truth_path, "--grid", grid_path, "--noise-std", repr(noise_std),
                    "--seed", seed, "--out", records_path]
            assert _cli_doc(argv)[0] == 0
            code, report = _run_captured(["fit", "--input", str(records_path)])
            assert code == 0
            report_path.write_text(report)
            assert load_law(report_path) == law

            predict = _cli_doc(["predict", "--law", report_path, "--l0", "0.6", "--r", repr(r), "--d", repr(d)])
            assert predict == _library_doc(
                "prediction", lambda: {"l0": 0.6, "r": r, "d": d, "prediction": evaluate(law, 0.6, r, d)})

            def recovery_fields():
                result = analyze(RecoveryQuery(law=law, sigma=sigma, r=r))
                min_d = "unrecoverable" if result.min_d == math.inf else result.min_d
                return {"metric": law.metric.value, "sigma": sigma, "r": r, "regime": result.regime.value,
                        "boundary": result.boundary, "r_critical": result.r_critical, "min_rft_size": min_d}

            min_rft = _cli_doc(["min-rft", "--law", report_path, "--sigma", repr(sigma), "--r", repr(r)])
            assert min_rft == _library_doc("min_rft", recovery_fields)

            axes = ([0.5, 0.7], [0.0, r], [0.0, d])
            argv = ["frontier", "--law", report_path]
            for flag, axis in zip(("--l0-list", "--r-grid", "--d-grid"), axes):
                argv += [flag, ",".join(map(repr, axis))]
            points = emit_frontier_grid(law, *axes)
            assert _cli_doc(argv) == (0, {"schema_version": SCHEMA_VERSION, "kind": "frontier",
                                          "rows": [point._asdict() for point in points]})

            resynth, expected = Path(directory) / "resynth.csv", Path(directory) / "expected.csv"
            argv = ["synth", "--truth", report_path, "--grid", grid_path, "--seed", seed, "--out", resynth]
            assert _cli_doc(argv)[0] == 0
            write_records(generate(SyntheticConfig(law, *CHAIN_GRID.values(), seed=seed)), expected)
            assert resynth.read_bytes() == expected.read_bytes()


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

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_undecodable_input_is_one_validation_error(self, command, capsys, tmp_path):
        path = tmp_path / "input"
        if command == "fit":
            path.write_bytes(b"model_id,metric,l0,r,d,l\nm\xff,loss,2.0,0.4,0,3\n")
            argv, context = ["fit", "--input", str(path)], "records"
        else:
            path.write_bytes(b'{"\xff": 1}')
            argv, context = ["predict", "--law", str(path), "--r", "0.5", "--l0", "1", "--d", "0"], "law document"
        assert run(argv) == 1
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        message = f"{context}: not utf-8 text: invalid start byte"
        assert json.loads(out) == {"error": {"type": "DataFormatError", "message": message}}

    FLAG_ERRORS = {
        "min-rft on a runtime law": (["min-rft", "--law", "{runtime}", "--sigma", "0.8", "--r", "0.19"],
                                     "law must be a CompressionLaw, got RuntimeLaw(c=1.0, beta=-0.5, stats=None)"),
        "synth on a runtime truth": (["synth", "--truth", "{runtime}", "--grid", "{grid}", "--seed", "0",
                                      "--out", "{out}"],
                                     "truth must be a CompressionLaw, got RuntimeLaw(c=1.0, beta=-0.5, stats=None)"),
        "frontier on a runtime law": (["frontier", "--law", "{runtime}", "--l0-list", "0.6", "--r-grid", "0.1",
                                       "--d-grid", "0"],
                                      "law must be a CompressionLaw, got RuntimeLaw(c=1.0, beta=-0.5, stats=None)"),
        # The law is quoted whole, its statistics included, on one line of bounded length.
        "min-rft on a runtime fit report": (
            ["min-rft", "--law", "{runtime_report}", "--sigma", "0.8", "--r", "0.19"],
            "law must be a CompressionLaw, got RuntimeLaw(c=1.0, beta=-0.5, stats=FitStatistics(n=12, p=2, "
            "r_squared=0.9876543210987654, adj_r_squared=0.986419753208642, f_statistic=799.9999999999998, "
            "residual_std=0.012345678901234568, condition_number=3.456789012345679))"),
        "frontier with an empty --l0-list": (["frontier", "--law", "{law}", "--l0-list", " , ", "--r-grid", "0.1",
                                              "--d-grid", "0"], "--l0-list must list at least one number"),
        "frontier with a non-numeric --l0-list": (
            ["frontier", "--law", "{law}", "--l0-list", "0.6,x", "--r-grid", "0.1", "--d-grid", "0"],
            "--l0-list must be a comma-separated list of numbers, got '0.6,x'"),
        # A compression form may fit runtime records, as the registry allows, but not the other way round.
        "fit in the runtime form on loss records": (["fit", "--input", "{records}", "--form", "runtime"],
                                                    "the runtime form fits runtime records, got loss records"),
    }

    @pytest.mark.parametrize("case", sorted(FLAG_ERRORS))
    def test_a_command_given_what_it_cannot_use_is_one_domain_error(self, case, capsys, tmp_path):
        paths = {name: tmp_path / f"{name}.json" for name in ("runtime", "runtime_report", "law", "grid")}
        paths["records"] = tmp_path / "records.csv"
        paths["records"].write_text("model_id,metric,l0,r,d,l\n" + "".join(
            f"m,loss,{l0},{r},0,{l0 * (1 + r)}\n" for l0 in (2.0, 3.0) for r in (0.1, 0.5)))
        paths["runtime"].write_text(json.dumps({"schema_version": SCHEMA_VERSION, "kind": "runtime", "c": 1.0,
                                                "beta": -0.5}))
        paths["runtime_report"].write_text(json.dumps(RUNTIME_REPORT))
        paths["law"].write_text(json.dumps(LAW))
        paths["grid"].write_text(json.dumps(GRID))
        argv, message = self.FLAG_ERRORS[case]
        assert run([arg.format(out=tmp_path / "out.csv", **paths) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 and len(out) < 512
        assert json.loads(out) == {"error": {"type": "DomainError", "message": message}}
        assert err == f"error: {message}\n"

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["fit", "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: compresslaw [-h]") and "usage: compresslaw fit [-h]" in out and err == ""

    USAGE_ERRORS = {
        "unknown flag": (["critical", "--beta", "-1", "--sigma", "0.5", "--metric", "accuracy", "--bogus"],
                         "unrecognized arguments: --bogus"),
        "missing subcommand": ([], "the following arguments are required: command"),
        "unknown subcommand": (["fly"], "argument command: invalid choice: 'fly'"),
        "missing value": (["critical", "--sigma", "0.5", "--metric", "accuracy", "--beta"],
                          "argument --beta: expected one argument"),
        "missing flag": (["critical", "--beta", "-1"], "the following arguments are required: --sigma, --metric"),
        "not a number": (["critical", "--beta", "x", "--sigma", "0.5", "--metric", "accuracy"],
                         "argument --beta: invalid float value: 'x'"),
        "not a choice": (["critical", "--beta", "-1", "--sigma", "0.5", "--metric", "runtime"],
                         "argument --metric: invalid choice: 'runtime'"),
    }

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_a_usage_error_is_one_argument_error(self, case, capsys):
        """argparse's message (how it lists the choices varies across Python versions) as one error document."""
        argv, start = self.USAGE_ERRORS[case]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        message = json.loads(out)["error"]["message"]
        assert message.startswith(start)
        assert out == json.dumps({"error": {"type": "ArgumentError", "message": message}}) + "\n"
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("beta", ["-1e-3", "-1E+300", "-.5e1", "-inf", "-Infinity", "-nan"])
    def test_a_negative_number_after_a_numeric_flag_is_its_value(self, beta, capsys):
        """As one token or two: ``--beta -1e-3`` is ``--beta=-1e-3``, not an unknown option."""
        streams = []
        for argv in (["--beta", beta], [f"--beta={beta}"]):
            code = run(["critical", *argv, "--sigma", "0.5", "--metric", "accuracy"])
            streams.append((code, *capsys.readouterr()))
        assert streams[0] == streams[1]
        code, out, err = streams[0]
        if math.isfinite(float(beta)):
            assert (code, err) == (0, "") and json.loads(out)["beta"] == float(beta)
        else:
            message = f"beta must be finite, got {float(beta)!r}"
            assert code == 1 and json.loads(out) == {"error": {"type": "DomainError", "message": message}}


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
REPORT = {"schema_version": "compresslaw/v1", "kind": "fit_report",
          "law": {name: value for name, value in LAW.items() if name != "schema_version"},
          "stats": STATS, "warnings": [], "residuals": [0.0] * STATS["n"]}
RUNTIME_STATS = {"n": 12, "p": 2, "r_squared": 0.9876543210987654, "adj_r_squared": 0.986419753208642,
                 "f_statistic": 799.9999999999998, "residual_std": 0.012345678901234568,
                 "condition_number": 3.456789012345679}
RUNTIME_REPORT = {"schema_version": "compresslaw/v1", "kind": "fit_report",
                  "law": {"kind": "runtime", "c": 1.0, "beta": -0.5, "stats": RUNTIME_STATS},
                  "stats": RUNTIME_STATS, "warnings": [], "residuals": [0.0] * RUNTIME_STATS["n"]}
GRID = {"l0_values": [0.4, 0.7], "r_values": [0.1, 0.5], "d_values": [0, 10], "model_id": "m"}
CSV_ROWS = [["model_id", "metric", "l0", "r", "d", "l"]] + [
    ["m", "loss", str(l0), str(r), str(d), str(l0 * (1 + r) * (1 + 1 / (d + 1)))]
    for l0 in (1.5, 2.0, 4.0) for r in (0.1, 0.5) for d in (0, 10)
]
# Deeper than any JSON parser recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000
NO_SAMPLES = {**STATS, "n": 0, "p": -1}


def _changed(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _without(doc, path):
    """A copy of ``doc`` without the key at ``path``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
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


def _run_streams(argv):
    """``run(argv)`` with stdout and stderr captured; returns the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _run_captured(argv):
    """``run(argv)`` with stdout captured; returns the exit code and stdout."""
    return _run_streams(argv)[:2]


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
    # At n = 0 the report has no residuals, and n > p holds.
    "report stats n 0 and p -1": ("predict", json.dumps({**REPORT, "stats": NO_SAMPLES, "residuals": [],
                                                         "law": {**REPORT["law"], "stats": NO_SAMPLES}})),
    "registry model_id a number": ("plan", json.dumps(_changed(REGISTRY, ["entries", 0, "model_id"], 5))),
    "registry method_tag null": ("plan", json.dumps(_changed(REGISTRY, ["entries", 1, "method_tag"], None))),
    "registry provenance a list": ("plan", json.dumps(_changed(REGISTRY, ["entries", 0, "provenance"], ["x"]))),
    "registry law not an object": ("plan", json.dumps(_changed(REGISTRY, ["entries", 0, "law"], [1]))),
    # The planner reads an entry's numbers only after the whole registry is read, so each names its entry.
    "registry param_count negative": ("plan", json.dumps(_changed(REGISTRY, ["entries", 1, "param_count"], -3e9))),
    "registry l0 0": ("plan", json.dumps(_changed(REGISTRY, ["entries", 0, "l0"], 0))),
    "registry reported adj_r_squared 7.5": (
        "plan", json.dumps(_changed(REGISTRY, ["entries", 0, "reported", "adj_r_squared"], 7.5))),
    "registry reported f_statistic negative": (
        "plan", json.dumps(_changed(REGISTRY, ["entries", 0, "reported", "f_statistic"], -1))),
    "csv field over the size limit": ("fit", HUGE_FIELD_CSV),
    # A fit report is read as its law only if the whole report is valid.
    "report stats disagree with its law's": ("predict", json.dumps(_changed(REPORT, ["stats", "r_squared"], 0.5))),
    "report residual count off": ("predict", json.dumps(_changed(REPORT, ["residuals"], [0.0] * 9))),
    "report unknown field": ("predict", json.dumps(_changed(REPORT, ["note"], ""))),
    "report residual not a number": ("min-rft", json.dumps(_changed(REPORT, ["residuals", 0], "0.0"))),
    # A --law flag reads a law or a fit report, not a registry.
    "predict on a law registry": ("predict", json.dumps(REGISTRY)),
    "top level not an object": ("predict", json.dumps([LAW])),
    "byte order mark": ("predict", "\ufeff" + json.dumps(LAW)),
    "report warnings not a list": ("predict", json.dumps(_changed(REPORT, ["warnings"], "w"))),
    "report warning not a string": ("predict", json.dumps(_changed(REPORT, ["warnings"], ["w", 1]))),
    "report residuals not a list": ("predict", json.dumps(_changed(REPORT, ["residuals"], 0.0))),
    "registry compression law with the runtime form": (
        "plan", json.dumps(_changed(REGISTRY, ["entries", 0, "form"], "runtime"))),
    # An entry's law has 0 for each exponent its form does not fit.
    "registry ratio form with a gamma": ("plan", json.dumps(_changed(REGISTRY, ["entries", 1, "form"], "ratio"))),
    "registry form unknown": ("plan", json.dumps(_changed(REGISTRY, ["entries", 0, "form"], "x"))),
    "registry law metric unknown": ("plan", json.dumps(_changed(REGISTRY, ["entries", 0, "law", "metric"], "x"))),
    "registry law without alpha": ("plan", json.dumps(_without(REGISTRY, ["entries", 0, "law", "alpha"]))),
    "registry reported not a number": (
        "plan", json.dumps(_changed(REGISTRY, ["entries", 0, "reported", "adj_r_squared"], "x"))),
}
# What the error message of a case says, where a test names it.
MALFORMED_MESSAGES = {
    "n fractional": "law.stats: n must be an integer >= 0, got 16.7",
    "grid model_id null": "grid: model_id must be text, got None",
    "report stats n 0 and p -1": "fit report.law.stats: p must be an integer >= 0, got -1",
    "registry model_id a number": "entry 0: model_id must be text, got 5",
    "registry method_tag null": "entry 1: method_tag must be text, got None",
    "registry provenance a list": "entry 0: provenance must be text, got ['x']",
    "registry law not an object": "entry 0.law: expected an object, got list",
    "registry param_count negative": "entry 1: param_count must be > 0, got -3000000000.0",
    "registry l0 0": "entry 0: l0 must be > 0, got 0.0",
    "registry reported adj_r_squared 7.5": "entry 0: reported_adj_r_squared must be at most 1, got 7.5",
    "registry reported f_statistic negative": "entry 0: reported_f_statistic must be nonnegative",
    "top level not an object": "law document: expected a JSON object, got list",
    "byte order mark": "law document: invalid JSON: Unexpected UTF-8 BOM",
    "report warnings not a list": "fit report: warnings must be a list",
    "report warning not a string": "fit report: warnings must be text, got 1",
    "report residuals not a list": "fit report: residuals must be a list",
    "registry compression law with the runtime form": "entry 0: a compression law cannot carry the runtime form",
    "registry ratio form with a gamma": "entry 1: the ratio form pins gamma to 0, got -0.11",
    "registry form unknown": "entry 0: unknown form 'x'",
    "registry law metric unknown": "entry 0.law: unknown metric 'x'",
    "registry law without alpha": "entry 0.law: missing field(s) ['alpha']",
    "registry reported not a number": "entry 0.reported.adj_r_squared: expected a number, got 'x'",
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
    assert MALFORMED_MESSAGES.get(case, "") in doc["error"]["message"]


def test_a_law_of_the_wrong_kind_is_told_every_kind_a_law_flag_reads(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(MALFORMED["predict on a law registry"][1])
    code, out = _run_captured(_argv("predict", path, tmp_path))
    assert code == 1
    message = json.loads(out)["error"]["message"]
    assert all(f"'{kind}'" in message for kind in ("compression", "runtime", "fit_report", "law_registry")), message


def _cli_process(argv) -> subprocess.CompletedProcess:
    """``python -m compresslaw.cli *argv``, finished, with its stdout and stderr as text."""
    return subprocess.run([sys.executable, "-m", "compresslaw.cli", *argv], env=child_env(), capture_output=True,
                          text=True, timeout=120)


RUNPY_WARNING = "RuntimeWarning: 'compresslaw.cli' found in sys.modules"


def _without_runpy_warning(stderr: str) -> list[str]:
    """The lines of a ``python -m compresslaw.cli`` process's stderr, without runpy's warning that the package
    imported ``compresslaw.cli`` before running it as ``__main__``."""
    return [line for line in stderr.splitlines() if RUNPY_WARNING not in line]


LIGHT = {
    "critical": ["critical", "--beta", "-1.18", "--sigma", "0.8", "--metric", "accuracy"],
    "predict": ["predict", "--law", "{law}", "--l0", "0.6", "--r", "0.19", "--d", "10"],
    "predict-runtime": ["predict", "--law", "{runtime}", "--r", "0.5"],
    "predict-report": ["predict", "--law", "{report}", "--l0", "0.6", "--r", "0.19", "--d", "10"],
    "min-rft": ["min-rft", "--law", "{law}", "--sigma", "0.8", "--r", "0.19"],
    "plan": ["plan", "--registry", "{registry}", "--budget", "1.5e9", "--metric", "accuracy"],
    **{f"frontier-{fmt}": ["frontier", "--law", "{law}", "--l0-list", "0.5,0.6", "--r-grid", "0,0.19,0.5",
                           "--d-grid", "0,-0.0,10", "--format", fmt] for fmt in ("csv", "json")},
}


def _run_importtime(argv, tmp_path, python=sys.executable):
    """``python -X importtime -m compresslaw.cli *argv`` on input files made in ``tmp_path``; returns the
    finished process, the names of the modules it imported, in order, and ``argv`` with the paths filled in."""
    paths = {name: tmp_path / f"{name}.{ext}" for name, ext in
             (("law", "json"), ("runtime", "json"), ("registry", "json"), ("records", "csv"), ("report", "json"))}
    paths["law"].write_text(json.dumps(LAW))
    save_law(RuntimeLaw(c=100.0, beta=-0.67), paths["runtime"])
    paths["registry"].write_text(json.dumps(REGISTRY))
    config = SyntheticConfig(LLAMA8B, (0.5, 0.6, 0.7), (0.1, 0.3, 0.5), (0.0, 10.0, 1e2, 1e3, 1e4), 0.01, 5)
    write_records(generate(config), paths["records"])
    paths["report"].write_text(report_to_json(build_fit_report(generate(config))))
    argv = [arg.format(**paths) for arg in argv]
    done = subprocess.run([python, "-X", "importtime", "-m", "compresslaw.cli", *argv],
                          env=child_env(), capture_output=True, timeout=60)
    lines = done.stderr.decode().splitlines()
    imports = [line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")]
    return done, imports[1:], argv  # the first line is the column header


@pytest.mark.parametrize("command", sorted(LIGHT))
def test_light_commands_start_without_numpy(command, tmp_path):
    """The commands that only evaluate laws, ``frontier`` tables included, run as ``python -m compresslaw.cli``,
    import no numpy and print what ``run`` prints in process.  Their stderr holds only the import times and
    runpy's warning that the package imported ``compresslaw.cli`` before running it as ``__main__``."""
    done, imports, argv = _run_importtime(LIGHT[command], tmp_path)
    stderr = done.stderr.decode()
    assert done.returncode == 0, stderr
    assert "compresslaw.laws" in imports
    assert [name for name in imports if "numpy" in name] == []
    others = [line for line in stderr.splitlines() if not line.startswith("import time:")]
    assert len(others) == 1 and RUNPY_WARNING in others[0], others
    code, out = _run_captured(argv)
    assert code == 0
    assert done.stdout == out.encode()


# The compresslaw submodules each command loads: the package's eager ones and those its handler calls.
EAGER = {"cli", "errors", "laws"}
COMMAND_MODULES = {
    "critical": EAGER | {"recovery"},
    "predict": EAGER | {"documents"},
    "predict-runtime": EAGER | {"documents"},
    "predict-report": EAGER | {"documents"},
    "min-rft": EAGER | {"documents", "recovery"},
    "plan": EAGER | {"documents", "planner"},
    "fit": EAGER | {"documents", "io", "regression"},
    "frontier-csv": EAGER | {"documents", "frontier"},
    "frontier-json": EAGER | {"documents", "frontier"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    argv = LIGHT.get(command, ["fit", "--input", "{records}"])
    done, imports, _ = _run_importtime(argv, tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    loaded = {name.split(".", 1)[1] for name in imports if name.startswith("compresslaw.")}
    assert loaded == COMMAND_MODULES[command]
    # laws._value_type builds the value types, so no command imports dataclasses, nor a light one inspect (fit
    # still imports inspect, through numpy).
    assert "dataclasses" not in imports
    assert command not in LIGHT or "inspect" not in imports
    if command == "fit":
        assert len(json.loads(done.stdout)["residuals"]) == 45


@pytest.fixture(scope="module")
def python310():
    """A Python 3.10 interpreter, the oldest that pyproject.toml allows.  Each candidate is probed first: a
    version manager's ``python3.10`` shim can be on PATH and still refuse to run."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    for candidate in [shutil.which("python3.10"), *map(str, sorted(versions.glob("3.10*/bin/python")))]:
        if candidate is None:
            continue
        probe = subprocess.run([candidate, "-c", "import sys; print(sys.version_info[:2])"], env=child_env(),
                               capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == "(3, 10)":
            return candidate
    pytest.skip(f"no runnable Python 3.10: neither python3.10 on PATH nor {versions}/3.10*/bin/python")


@pytest.mark.parametrize("command", sorted(LIGHT))
def test_light_commands_run_on_python_3_10(command, python310, tmp_path):
    """The numpy-free commands print on Python 3.10 what ``run`` prints in process."""
    done, _, argv = _run_importtime(LIGHT[command], tmp_path, python310)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == _run_captured(argv)[1].encode()


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
        env = dict(child_env(), OPENBLAS_NUM_THREADS=threads)
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
# A loss law whose regime boundary 2**beta overflows a float.
OVERFLOW_BOUNDARY = dict(LAW, metric="loss", beta=1024.0, gamma=0.14)
OVERFLOW = {
    "synth": ["synth", "--truth", "{truth}", "--grid", "{grid}", "--seed", "0", "--out", "{out}"],
    "plan": ["plan", "--registry", "{registry}", "--budget", "3e9", "--metric", "accuracy"],
    "frontier": ["frontier", "--law", "{truth}", "--l0-list", "100", "--r-grid", "0.1,0.5", "--d-grid", "0,10"],
    "predict": ["predict", "--law", "{truth}", "--l0", "100", "--r", "0.1"],
    "critical": ["critical", "--beta", "2000", "--sigma", "1.5", "--metric", "loss"],
    "min-rft": ["min-rft", "--law", "{boundary}", "--sigma", "1.5", "--r", "0.5"],
}
UNDERFLOW = ("frontier", "predict", "synth")


@pytest.mark.parametrize("command", sorted(OVERFLOW) + [f"{command}-underflow" for command in UNDERFLOW])
def test_an_overflowing_prediction_is_one_domain_error(command, tmp_path):
    underflow = command.endswith("-underflow")
    command = command.removesuffix("-underflow")
    paths = {"truth": tmp_path / "truth.json", "grid": tmp_path / "grid.json", "registry": tmp_path / "registry.json",
             "out": tmp_path / "out.csv", "boundary": tmp_path / "boundary.json"}
    paths["truth"].write_text(json.dumps(UNDERFLOW_TRUTH if underflow else OVERFLOW_TRUTH))
    paths["grid"].write_text(json.dumps(dict(GRID, l0_values=[100.0])))
    paths["registry"].write_text(json.dumps(OVERFLOW_REGISTRY))
    paths["boundary"].write_text(json.dumps(OVERFLOW_BOUNDARY))
    code, out, err = _run_streams([arg.format(**paths) for arg in OVERFLOW[command]])
    assert code == 1
    assert len(out.splitlines()) == 1
    assert list(json.loads(out)) == ["error"]
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert ("underflowed to zero" if underflow else "overflowed") in error["message"]
    assert err == f"error: {error['message']}\n"


def test_synth_on_a_subnormal_epsilon_reports_predicts_error(tmp_path):
    """At d = 0 a subnormal epsilon makes the RFT feature inf: ``synth`` reports the point out of range, with the
    message ``predict`` gives there, and not a rank-deficient grid."""
    truth, grid = tmp_path / "truth.json", tmp_path / "grid.json"
    truth.write_text(json.dumps({"schema_version": "compresslaw/v1", "kind": "compression", "metric": "loss",
                                 "alpha": 0.63, "beta": 1.72, "gamma": 1.16, "epsilon": 1e-320, "stats": None}))
    grid.write_text(json.dumps({"l0_values": [2, 3], "r_values": [0.1, 0.5], "d_values": [0, 5]}))
    code, out, _ = _run_streams(["synth", "--truth", str(truth), "--grid", str(grid), "--seed", "0",
                                 "--out", str(tmp_path / "out.csv")])
    predicted = _run_captured(["predict", "--law", str(truth), "--l0", "2", "--r", "0.1", "--d", "0"])
    assert code == predicted[0] == 1
    assert len(out.splitlines()) == 1 and list(json.loads(out)) == ["error"]
    assert json.loads(out)["error"] == json.loads(predicted[1])["error"]
    assert json.loads(out)["error"]["type"] == "DomainError"


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


def _reject_bare_constant(token):
    raise ValueError(f"stdout holds a bare {token}, which is not JSON")


def _assert_one_document(code, out, codes=(0, 1, 2)):
    """The CLI contract: an exit code in ``codes`` and one JSON object on stdout, with no bare ``NaN`` or
    ``Infinity``; an error is one ``{"error": ...}`` line."""
    assert code in codes
    result = json.loads(out, parse_constant=_reject_bare_constant)
    assert isinstance(result, dict)
    if code:
        assert len(out.splitlines()) == 1 and list(result) == ["error"]


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
    _assert_one_document(code, out)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["critical", "predict", "min-rft"]), metric=st.sampled_from(["accuracy", "loss"]),
       x=FINITE, y=FINITE, z=FINITE, split=st.booleans())
@example(command="critical", metric="loss", x=1024.0, y=1.5, z=0.0, split=False)  # 2**1024 overflows a float
@example(command="predict", metric="loss", x=math.nan, y=math.inf, z=-math.inf, split=False)
@example(command="min-rft", metric="loss", x=math.inf, y=math.nan, z=0.0, split=False)
@example(command="critical", metric="accuracy", x=-1e-3, y=0.5, z=0.0, split=True)  # argparse reads -1e-3 as a flag
@example(command="predict", metric="loss", x=-1e300, y=-math.inf, z=-5e-324, split=True)
def test_cli_contract_holds_for_numeric_flags(command, metric, x, y, z, split):
    """``critical`` with drawn ``--beta`` and ``--sigma`` for either metric, and ``predict`` and ``min-rft`` on
    one fixture law with drawn numbers, each given as ``--flag=value`` or as the two tokens ``--flag value``:
    exit 0 or 1 and one stdout line."""
    law = f"--law={GOLDEN / 'truth.json'}"
    flags = {
        "critical": [("beta", x), ("sigma", y)],
        "predict": [("l0", x), ("r", y), ("d", z)],
        "min-rft": [("sigma", x), ("r", y)],
    }[command]
    numbers = [token for flag, value in flags for token in ([f"--{flag}", repr(value)] if split
                                                            else [f"--{flag}={value!r}"])]
    code, out = _run_captured([command, f"--metric={metric}" if command == "critical" else law, *numbers])
    _assert_one_document(code, out, codes=(0, 1))
    assert len(out.splitlines()) == 1


MAIN_EXITS = {
    0: ["critical", "--beta", "-1.18", "--sigma", "0.8", "--metric", "accuracy"],
    1: ["critical", "--beta", "-1.18", "--sigma", "-0.5", "--metric", "accuracy"],
    2: ["fit", "--input", "{missing}"],
}


@pytest.mark.parametrize("code", sorted(MAIN_EXITS))
def test_main_exits_with_the_code_of_run_and_prints_what_run_prints(code, tmp_path):
    """``main`` ends the process with ``os._exit``, after flushing what ``run`` printed: the process exits with
    the code ``run`` returns, its stdout is what ``run`` prints in process, and so are its stderr lines."""
    argv = [arg.format(missing=tmp_path / "missing.csv") for arg in MAIN_EXITS[code]]
    in_process, out, err = _run_streams(argv)
    assert in_process == code
    done = _cli_process(argv)
    assert done.returncode == code
    assert done.stdout == out
    assert _without_runpy_warning(done.stderr) == err.splitlines()


def _read_slowly(argv, tmp_path) -> tuple[int, bytes, str]:
    """``python -m compresslaw.cli *argv`` with its stdout read 16 KiB at a time, with a pause after each read, so
    that the process still has output to write when its command returns; returns the exit code, every byte read
    and stderr."""
    with open(tmp_path / "stderr.txt", "w+") as stderr:
        child = subprocess.Popen([sys.executable, "-m", "compresslaw.cli", *argv], env=child_env(),
                                 stdout=subprocess.PIPE, stderr=stderr)
        chunks = []
        while chunk := os.read(child.stdout.fileno(), 16384):
            chunks.append(chunk)
            time.sleep(0.001)
        child.stdout.close()
        code = child.wait(timeout=60)
        stderr.seek(0)
        return code, b"".join(chunks), stderr.read()


# A 10 x 87 x 113 grid: 98,310 rows, written _CHUNK_ROWS at a time, so the last write is 6 rows, few enough to
# wait in stdout's buffer until main flushes it.
AXES_100K = {"l0_values": [1.5 + i / 4 for i in range(10)], "r_values": [i / 100 for i in range(87)],
             "d_values": [10.0 * i for i in range(113)]}
ROWS_100K = math.prod(map(len, AXES_100K.values()))
FRONTIER_100K = ["frontier", "--law", str(GOLDEN / "truth.json"), "--format", "csv",
                 *(arg for flag, values in zip(("--l0-list", "--r-grid", "--d-grid"), AXES_100K.values())
                   for arg in (flag, ",".join(map(repr, values))))]


def test_a_slow_reader_gets_every_byte_of_a_100k_row_synth(tmp_path):
    assert 0 < ROWS_100K % _CHUNK_ROWS <= 10
    (tmp_path / "grid.json").write_text(json.dumps(AXES_100K))
    argv = ["synth", "--truth", str(GOLDEN / "truth.json"), "--grid", str(tmp_path / "grid.json"),
            "--noise-std", "0.05", "--seed", "3", "--out", "-"]
    code, out, stderr = _read_slowly(argv, tmp_path)
    assert code == 0, stderr
    config = SyntheticConfig(load_law(GOLDEN / "truth.json"), **AXES_100K, noise_std=0.05, seed=3)
    write_records(generate(config), tmp_path / "expected.csv")
    assert out == (tmp_path / "expected.csv").read_bytes()
    assert len(out.splitlines()) == 1 + ROWS_100K


def test_a_slow_reader_gets_every_byte_of_a_100k_point_frontier(tmp_path):
    assert 0 < ROWS_100K % _CHUNK_ROWS <= 10
    code, out, stderr = _read_slowly(FRONTIER_100K, tmp_path)
    assert code == 0, stderr
    assert out == _run_captured(FRONTIER_100K)[1].encode()
    assert len(out.splitlines()) == 1 + ROWS_100K


def test_no_atexit_callback_waits_for_the_exit_main_skips():
    """``os._exit`` runs no ``atexit`` callback, so none may be registered by the time ``main`` exits: an
    interpreter that imports numpy and every compresslaw submodule and then runs ``main`` holds as many
    callbacks as it held at start, and prints what ``run`` prints."""
    script = (
        "import atexit, importlib, pkgutil, sys\n"
        "before = atexit._ncallbacks()\n"
        "import numpy, compresslaw\n"
        "for module in pkgutil.iter_modules(compresslaw.__path__):\n"
        "    importlib.import_module(f'compresslaw.{module.name}')\n"
        "print(before, atexit._ncallbacks(), file=sys.stderr)\n"
        "from compresslaw.cli import main\n"
        "main()\n"
    )
    done = subprocess.run([sys.executable, "-c", script, *MAIN_EXITS[0]], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = map(int, done.stderr.split())
    assert after == before
    assert done.stdout == _run_captured(MAIN_EXITS[0])[1]


def test_a_file_written_by_one_process_is_complete_for_the_next(tmp_path):
    """``main`` ends the process with ``os._exit`` once ``run`` returns, so ``synth`` must have closed its CSV by
    then: a ``fit`` process reads all of it and prints what ``run`` prints in process."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"l0_values": [1.5 + i / 4 for i in range(10)], "r_values": [i / 40 for i in range(30)],
                                "d_values": [10.0 * i for i in range(30)], "model_id": "m"}))
    synth = ["synth", "--truth", str(GOLDEN / "truth.json"), "--grid", str(grid), "--noise-std", "0.05",
             "--seed", "3", "--out"]
    assert _run_captured(synth + [str(tmp_path / "expected.csv")])[0] == 0
    path = tmp_path / "records.csv"
    for argv in (synth + [str(path)], ["fit", "--input", str(path)]):
        done = _cli_process(argv)
        assert done.returncode == 0, done.stderr
        assert done.stdout == _run_captured(argv)[1]
    assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert len(path.read_bytes().splitlines()) == 1 + 10 * 30 * 30


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_pipe_exits_2_without_a_traceback(unbuffered, tmp_path):
    """A reader that stops after a few bytes of a 100k-point frontier CSV leaves an I/O error: exit 2, and one
    ``error:`` line on stderr beside runpy's warning, whether the failed write is the one that ``run`` reports or,
    with stdout buffered, also the flush in ``main`` that follows it."""
    env = dict(child_env(), PYTHONUNBUFFERED="1") if unbuffered else child_env()
    with open(tmp_path / "stderr.txt", "w+") as stderr:
        child = subprocess.Popen([sys.executable, "-m", "compresslaw.cli", *FRONTIER_100K], env=env,
                                 stdout=subprocess.PIPE, stderr=stderr)
        assert child.stdout.read(100).startswith(b"l0,r,d,predicted\r\n")
        child.stdout.close()
        assert child.wait(timeout=60) == 2
        stderr.seek(0)
        text = stderr.read()
    assert _without_runpy_warning(text) == ["error: [Errno 32] Broken pipe"], text


def test_each_skipped_row_is_one_warning_line(tmp_path):
    """``fit --lenient`` as a process prints one ``warning:`` line per skipped row and no source line; the
    stdout document is what ``run`` prints in process."""
    rows = [f"m,loss,{l0},{r},{d},{l0 * (1 + r) * (1 + 1 / (d + 1))!r}" for l0 in (1.5, 2.0, 3.0)
            for r in (0.1, 0.3, 0.5) for d in (0.0, 10.0, 100.0)]
    rows[2], rows[5], rows[9] = "m,loss,x,0.1,0,1.0", "m,bogus,2,0.1,0,1.0", "m,loss,-1,0.1,0,1.0"
    path = tmp_path / "records.csv"
    path.write_text("model_id,metric,l0,r,d,l\n" + "\n".join(rows) + "\n")
    argv = ["fit", "--lenient", "--input", str(path)]
    done = _cli_process(argv)
    assert done.returncode == 0, done.stderr
    assert _without_runpy_warning(done.stderr) == ["warning: row 4: field 'l0' is not a number: 'x'",
                                                   "warning: row 7: field 'metric' has unknown value 'bogus'",
                                                   "warning: row 11: l0 must be > 0, got -1.0"], done.stderr
    with pytest.warns(SkippedRowWarning):
        assert done.stdout == _run_captured(argv)[1]
