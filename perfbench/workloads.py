"""The benchmark's workloads: each drives compresslaw through its CLI and its library.

A workload generates its inputs with :mod:`gen` (``setup``), builds the
in-process objects its library calls need (``prepare``) and lists its
operations (``cycle``).  The driver runs the cycle over and over, one
operation at a time: a closed loop with a single client and at most one CLI
subprocess alive.  Every operation checks its own output and raises on a
mismatch, which the driver counts as a failed operation.

An operation is called as ``fn(call, breakdown)``.  ``call`` is either
:func:`harness.untraced_call` or :meth:`harness.Tracer.call`, so the traced
and untraced runs make exactly the same calls.  ``breakdown`` asks a traced
library operation to also time, after its timed pipeline, the public calls
that the pipeline makes internally.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import gen
from compresslaw import io as lawio
from compresslaw.laws import CompressionLaw, MetricKind, RuntimeLaw, evaluate, evaluate_runtime
from compresslaw.planner import PlanRequest, plan, predict_speedup
from compresslaw.recovery import Regime, RecoveryQuery, analyze, classify_regime
from compresslaw.regression import build_design, fit_law, ols_fit
from compresslaw.synth import SyntheticConfig, generate
from harness import CheckFailed, CliRun, check, cli_argv, cli_env, close, run_process

REL_TOL = 1e-12  # predictions against an independent numpy evaluation
EXPONENT_TOL = 0.01  # fitted exponents against the truth law, on 100k rows
SAMPLED_ROWS = 64  # rows of each bulk output checked against numpy


@dataclass
class Sample:
    """One completed operation: its wall time and the work it did."""

    wall_s: float
    rows: int
    calls: int = 0
    maxrss_kb: int = 0
    stdout_bytes: int = 0
    stderr_lines: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    scale: float = 1.0  # see harness.SpeedScale

    @property
    def time_s(self) -> float:
        """Wall time scaled to the reference machine."""
        return self.wall_s * self.scale


@dataclass
class Op:
    name: str
    side: str  # "cli" or "lib"
    fn: Callable[..., Sample]


def cli_sample(run: CliRun, rows: int) -> Sample:
    return Sample(
        run.wall_s,
        rows,
        maxrss_kb=run.maxrss_kb,
        stdout_bytes=len(run.stdout),
        stderr_lines=run.stderr.count(b"\n"),
    )


def _sample_indices(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, 99])
    return sorted(set(rng.integers(0, n, size=min(n, SAMPLED_ROWS)).tolist()) | {0, n - 1})


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int) -> None:
        self.root, self.seed = root, seed
        self.env = cli_env(root)
        self.dir = root

    def setup(self, out: Path) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def cli(self, call, name: str, args: list[str]) -> CliRun:
        run = call(name, run_process, cli_argv(args), self.dir, self.env)
        check(run.code == 0, f"exit code {run.code}: {run.stderr[-400:]!r}")
        return run


def _csv_rows(data: bytes, n: int, columns: int) -> list[bytes]:
    lines = data.split(b"\r\n")
    check(len(lines) == n + 2 and lines[-1] == b"", f"expected {n} CSV rows, got {len(lines) - 2}")
    check(all(line.count(b",") == columns - 1 for line in (lines[1], lines[n])), "malformed CSV row")
    return lines[1:-1]


def _check_points(rows: list, indices: list[int], expected: tuple, numeric) -> None:
    """Sampled rows carry the grid point exactly and the numpy value to ``REL_TOL``."""
    l0, r, d, value = expected
    for i in indices:
        got = numeric(rows[i])
        check(got[:3] == (l0[i], r[i], d[i]), f"row {i}: grid point {got[:3]} != {(l0[i], r[i], d[i])}")
        check(close(got[3], value[i], REL_TOL), f"row {i}: {got[3]!r} != numpy {value[i]!r}")


# ---------------------------------------------------------------------------
# fit_100k
# ---------------------------------------------------------------------------


class FitWorkload(Workload):
    """``fit`` on a records CSV and on a copy with corrupted rows (``--lenient``)."""

    name = "fit_100k"

    def __init__(self, root: Path, seed: int, grid=gen.FIT_GRID, corrupt: int | None = None, exponent_tol=EXPONENT_TOL):
        super().__init__(root, seed)
        self.grid, self.corrupt, self.exponent_tol = grid, corrupt, exponent_tol

    def setup(self, out: Path) -> None:
        self.dir = out
        self.inputs = gen.fit_inputs(self.seed, out, self.grid, self.corrupt)

    def prepare(self) -> None:
        self.reference: dict[bool, str] = {}

    def cycle(self) -> list[Op]:
        return [
            Op("lib.fit", "lib", partial(self.lib_fit, False)),
            Op("cli.fit", "cli", partial(self.cli_fit, False)),
            Op("lib.fit_lenient", "lib", partial(self.lib_fit, True)),
            Op("cli.fit_lenient", "cli", partial(self.cli_fit, True)),
        ]

    def _expected_n(self, lenient: bool) -> int:
        return self.inputs.n - (self.inputs.corrupted if lenient else 0)

    def _check_report(self, text: str, lenient: bool) -> None:
        doc = json.loads(text)
        n = self._expected_n(lenient)
        check(doc["stats"]["n"] == n, f"n = {doc['stats']['n']}, expected {n}")
        check(len(doc["residuals"]) == n, f"{len(doc['residuals'])} residuals for n = {n}")
        law = doc["law"]
        fitted = (law["alpha"], law["beta"], law["gamma"])
        if self.exponent_tol is not None:
            check(
                all(abs(f - t) <= self.exponent_tol for f, t in zip(fitted, self.inputs.truth)),
                f"exponents {fitted} not within {self.exponent_tol} of {self.inputs.truth}",
            )

    def lib_fit(self, lenient: bool, call, breakdown: bool) -> Sample:
        path = self.inputs.corrupt if lenient else self.inputs.records
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as skipped:
            warnings.simplefilter("always", lawio.SkippedRowWarning)
            records = call("io.read_records", lawio.read_records, path, strict=not lenient)
        report = call("io.build_fit_report", lawio.build_fit_report, records)
        text = call("io.report_to_json", lawio.report_to_json, report)
        wall = time.perf_counter() - start
        if breakdown:
            x, y = call("regression.build_design", build_design, records)
            call("regression.ols_fit", ols_fit, x, y)
            call("regression.fit_law", fit_law, records)
        self._check_report(text, lenient)
        check(len(skipped) == self.inputs.n - len(records), f"{len(skipped)} skip warnings for {len(records)} rows")
        check(self.reference.setdefault(lenient, text) == text, "report differs from the previous in-process run")
        counts = {"rows": len(records), "skipped": len(skipped), "json_bytes": len(text.encode())}
        return Sample(wall, self.inputs.n, calls=3, counts=counts)

    def cli_fit(self, lenient: bool, call, breakdown: bool) -> Sample:
        path = self.inputs.corrupt if lenient else self.inputs.records
        args = ["fit", "--input", str(path)] + (["--lenient"] if lenient else [])
        run = self.cli(call, "cli.fit_lenient" if lenient else "cli.fit", args)
        text = run.stdout.decode("utf-8")
        self._check_report(text, lenient)
        check(text == self.reference.get(lenient), "stdout differs from the in-process report")
        return cli_sample(run, self.inputs.n)


# ---------------------------------------------------------------------------
# write_100k
# ---------------------------------------------------------------------------


def _list_arg(values: list[float]) -> str:
    return ",".join(repr(v) for v in values)


class WriteWorkload(Workload):
    """``synth`` to a CSV file, and ``frontier`` as CSV and as JSON."""

    name = "write_100k"
    EVALUATE_BATCH = 1000

    def __init__(self, root: Path, seed: int, synth_grid=gen.WRITE_SYNTH_GRID, frontier_grid=gen.WRITE_FRONTIER_GRID):
        super().__init__(root, seed)
        self.synth_grid, self.frontier_grid = synth_grid, frontier_grid

    def setup(self, out: Path) -> None:
        self.dir = out
        self.inputs = gen.write_inputs(self.seed, out, self.synth_grid, self.frontier_grid)

    def prepare(self) -> None:
        inp = self.inputs
        self.law = CompressionLaw(*inp.truth, MetricKind.LOSS)
        self.config = SyntheticConfig(
            truth=self.law,
            l0_values=inp.synth_axes[0],
            r_values=inp.synth_axes[1],
            d_values=inp.synth_axes[2],
            noise_std=inp.noise_std,
            seed=inp.synth_seed,
            model_id="bench",
        )
        l0, r, d = gen.mesh(*inp.synth_axes)
        noise = np.random.default_rng(inp.synth_seed).normal(0.0, inp.noise_std, l0.size)
        self.synth_expected = (l0, r, d, np.exp(gen.log_prediction(inp.truth, l0, r, d) + noise))
        l0, r, d = gen.mesh(*inp.frontier_axes)
        self.frontier_expected = (l0, r, d, np.exp(gen.log_prediction(inp.truth, l0, r, d)))
        self.synth_indices = _sample_indices(self.seed, inp.synth_rows)
        self.frontier_indices = _sample_indices(self.seed, inp.frontier_rows)
        picks = self.frontier_indices * (self.EVALUATE_BATCH // len(self.frontier_indices) + 1)
        self.evaluate_points = [(l0[i], r[i], d[i]) for i in picks[: self.EVALUATE_BATCH]]
        self.frontier_args = [
            "frontier",
            "--law",
            str(inp.truth_path),
            "--l0-list",
            _list_arg(inp.frontier_axes[0]),
            "--r-grid",
            _list_arg(inp.frontier_axes[1]),
            "--d-grid",
            _list_arg(inp.frontier_axes[2]),
        ]
        self.reference: dict[str, bytes] = {}

    def cycle(self) -> list[Op]:
        return [
            Op("lib.synth", "lib", self.lib_synth),
            Op("cli.synth", "cli", self.cli_synth),
            Op("lib.frontier", "lib", self.lib_frontier),
            Op("cli.frontier_csv", "cli", self.cli_frontier_csv),
            Op("cli.frontier_json", "cli", self.cli_frontier_json),
        ]

    def _check_records(self, data: bytes) -> None:
        rows = _csv_rows(data, self.inputs.synth_rows, 6)

        def numeric(row: bytes) -> tuple:
            fields = row.split(b",")
            check(fields[:2] == [b"bench", b"loss"], f"row model/metric {fields[:2]}")
            return tuple(float(v) for v in fields[2:])

        _check_points(rows, self.synth_indices, self.synth_expected, numeric)

    def _check_frontier_csv(self, data: bytes) -> None:
        rows = _csv_rows(data, self.inputs.frontier_rows, 4)
        _check_points(rows, self.frontier_indices, self.frontier_expected, lambda row: tuple(map(float, row.split(b","))))

    def _remember(self, key: str, data: bytes) -> None:
        check(self.reference.setdefault(key, data) == data, f"{key} output differs from the previous in-process run")

    def lib_synth(self, call, breakdown: bool) -> Sample:
        path = self.dir / "synth_lib.csv"
        start = time.perf_counter()
        records = call("synth.generate", generate, self.config)
        call("io.write_records", lawio.write_records, records, path)
        wall = time.perf_counter() - start
        data = path.read_bytes()
        self._check_records(data)
        self._remember("synth", data)
        return Sample(wall, len(records), calls=2)

    def cli_synth(self, call, breakdown: bool) -> Sample:
        inp = self.inputs
        path = self.dir / "synth_cli.csv"
        args = ["synth", "--truth", str(inp.truth_path), "--grid", str(inp.grid_path)]
        args += ["--noise-std", repr(inp.noise_std), "--seed", str(inp.synth_seed), "--out", str(path)]
        run = self.cli(call, "cli.synth", args)
        doc = json.loads(run.stdout)
        check(doc["records_written"] == inp.synth_rows, f"records_written = {doc['records_written']}")
        data = path.read_bytes()
        check(data == self.reference.get("synth"), "synth file differs from in-process write_records(generate(...))")
        self._check_records(data)
        return cli_sample(run, inp.synth_rows)

    def _evaluate_batch(self) -> None:
        for l0, r, d in self.evaluate_points:
            evaluate(self.law, l0, r, d)

    def lib_frontier(self, call, breakdown: bool) -> Sample:
        axes = self.inputs.frontier_axes
        path = self.dir / "frontier_lib.csv"
        start = time.perf_counter()
        points = call("io.emit_frontier_grid", lawio.emit_frontier_grid, self.law, *axes)
        call("io.write_frontier", lawio.write_frontier, points, path)
        wall = time.perf_counter() - start
        if breakdown:
            call("laws.evaluate", self._evaluate_batch, count=len(self.evaluate_points))
        data = path.read_bytes()
        self._check_frontier_csv(data)
        self._remember("frontier", data)
        return Sample(wall, len(points), calls=2)

    def cli_frontier_csv(self, call, breakdown: bool) -> Sample:
        run = self.cli(call, "cli.frontier_csv", self.frontier_args + ["--format", "csv"])
        check(run.stdout == self.reference.get("frontier"), "frontier CSV differs from in-process write_frontier")
        self._check_frontier_csv(run.stdout)
        return cli_sample(run, self.inputs.frontier_rows)

    def cli_frontier_json(self, call, breakdown: bool) -> Sample:
        run = self.cli(call, "cli.frontier_json", self.frontier_args + ["--format", "json"])
        rows = json.loads(run.stdout)["rows"]
        check(len(rows) == self.inputs.frontier_rows, f"{len(rows)} frontier rows")
        _check_points(rows, self.frontier_indices, self.frontier_expected, lambda p: (p["l0"], p["r"], p["d"], p["predicted"]))
        return cli_sample(run, self.inputs.frontier_rows)


# ---------------------------------------------------------------------------
# interactive
# ---------------------------------------------------------------------------

CLI_KINDS = ("critical", "min_rft", "predict", "predict_runtime", "plan", "fit")


@dataclass
class MixCase:
    """Arguments of one iteration of the in-process call mix."""

    query: RecoveryQuery
    law: CompressionLaw
    point: tuple[float, float, float]
    candidates: list
    request: PlanRequest
    runtime: RuntimeLaw
    runtime_r: float
    law_path: Path


class InteractiveWorkload(Workload):
    """Cold CLI processes answering one question each, and a fixed in-process call mix."""

    name = "interactive"

    def __init__(self, root: Path, seed: int, mix_iterations: int = 100):
        super().__init__(root, seed)
        self.mix_iterations = mix_iterations

    def setup(self, out: Path) -> None:
        self.dir = out
        fixtures = self.root / "src" / "compresslaw" / "data" / "fixtures.json"
        self.inputs = gen.interactive_inputs(self.seed, out, fixtures)

    def prepare(self) -> None:
        inp = self.inputs
        self.laws = {m: [lawio.load_law(p) for p in paths] for m, paths in inp.laws.items()}
        self.records = lawio.read_records(inp.fit.records)
        self.fit_reference = lawio.report_to_json(lawio.build_fit_report(self.records))
        registry = lawio.load_registry(inp.registry)
        self.candidates = {m: lawio.candidates_from_registry(registry, MetricKind(m)) for m in ("loss", "accuracy")}
        self.expected: dict[int, dict] = {}
        self.issued = [0] * len(CLI_KINDS)
        self.mix = []
        for v in range(gen.VARIANTS):
            _, rft, pred, runtime, plan_op, _ = inp.ops[v * len(CLI_KINDS) : (v + 1) * len(CLI_KINDS)]
            self.mix.append(
                MixCase(
                    query=RecoveryQuery(self.laws[rft["metric"]][rft["law"]], rft["sigma"], rft["r"]),
                    law=self.laws[pred["metric"]][pred["law"]],
                    point=(pred["l0"], pred["r"], pred["d"]),
                    candidates=self.candidates[plan_op["metric"]],
                    request=self._plan_request(plan_op),
                    runtime=self.laws["runtime"][runtime["law"]],
                    runtime_r=runtime["r"],
                    law_path=inp.laws[pred["metric"]][pred["law"]],
                )
            )
        self.mix_reference: list[tuple | None] = [None] * len(self.mix)

    def cycle(self) -> list[Op]:
        ops = []
        for j, kind in enumerate(CLI_KINDS):
            ops.append(Op(f"cli.{kind}", "cli", partial(self.cli_op, j)))
            ops.append(Op("lib.mix", "lib", self.lib_mix))
        return ops

    @staticmethod
    def _plan_request(op: dict) -> PlanRequest:
        return PlanRequest(budget=op["budget"], metric=MetricKind(op["metric"]), rft_size=op["d"])

    # -- CLI ---------------------------------------------------------------

    def _args(self, op: dict) -> list[str]:
        inp = self.inputs
        kind = op["op"]
        if kind == "critical":
            return ["critical", "--beta", repr(op["beta"]), "--sigma", repr(op["sigma"]), "--metric", op["metric"]]
        if kind == "min-rft":
            law = str(inp.laws[op["metric"]][op["law"]])
            return ["min-rft", "--law", law, "--sigma", repr(op["sigma"]), "--r", repr(op["r"])]
        if kind == "predict":
            args = ["predict", "--law", str(inp.laws[op["metric"]][op["law"]]), "--r", repr(op["r"])]
            if op["metric"] != "runtime":
                args += ["--l0", repr(op["l0"]), "--d", repr(op["d"])]
            return args
        if kind == "plan":
            return ["plan", "--registry", str(inp.registry), "--budget", repr(op["budget"]), "--d", repr(op["d"]), "--metric", op["metric"]]
        return ["fit", "--input", str(inp.fit.records)]

    def _expected(self, op: dict) -> dict:
        """The document the CLI should print, computed in process."""
        head = {"schema_version": lawio.SCHEMA_VERSION}
        kind, metric = op["op"], op["metric"]
        if kind == "min-rft":
            law = self.laws[metric][op["law"]]
            result = analyze(RecoveryQuery(law, op["sigma"], op["r"]))
            return {
                **head,
                "kind": "min_rft",
                "metric": metric,
                "sigma": op["sigma"],
                "r": op["r"],
                "regime": result.regime.value,
                "boundary": result.boundary,
                "r_critical": result.r_critical,
                "min_rft_size": "unrecoverable" if result.min_d == float("inf") else result.min_d,
            }
        if kind == "predict" and metric == "runtime":
            value = evaluate_runtime(self.laws[metric][op["law"]], op["r"])
            return {**head, "kind": "prediction", "r": op["r"], "prediction": value}
        if kind == "predict":
            value = evaluate(self.laws[metric][op["law"]], op["l0"], op["r"], op["d"])
            return {**head, "kind": "prediction", "l0": op["l0"], "r": op["r"], "d": op["d"], "prediction": value}
        request = self._plan_request(op)
        result = plan(self.candidates[metric], request)
        return {
            **head,
            "kind": "plan_result",
            "metric": metric,
            "budget": request.budget,
            "rft_size": request.rft_size,
            "max_ratio": request.max_ratio,
            "entries": [
                {
                    "model_id": e.model_id,
                    "required_ratio": e.required_ratio,
                    "predicted_performance": e.predicted_performance,
                    "predicted_runtime_factor": e.predicted_runtime_factor,
                    "notes": list(e.notes),
                }
                for e in result.entries
            ],
            "skipped": [{"model_id": s.model_id, "reason": s.reason} for s in result.skipped],
        }

    def _check_critical(self, op: dict, doc: dict) -> None:
        beta, sigma = op["beta"], op["sigma"]
        regime, boundary = classify_regime(beta, sigma, MetricKind(op["metric"]))
        conditional = op["r_critical"] is not None
        check(regime is (Regime.CONDITIONALLY_RECOVERABLE if conditional else Regime.ALWAYS_RECOVERABLE), "regime")
        check(doc["regime"] == regime.value and doc["boundary"] == boundary, f"regime/boundary {doc}")
        check((doc["beta"], doc["sigma"], doc["metric"]) == (beta, sigma, op["metric"]), f"echoed arguments {doc}")
        if conditional:
            expected = sigma ** (1.0 / beta) - 1.0
            check(close(doc["r_critical"], expected, REL_TOL), f"r_critical {doc['r_critical']!r} != {expected!r}")
        else:
            check(doc["r_critical"] is None, "r_critical outside the conditional regime")

    def _check_prediction(self, op: dict, doc: dict) -> None:
        metric = op["metric"]
        if metric == "runtime":
            c, beta = self.inputs.law_params[metric][op["law"]]
            expected = float(c * np.exp(beta * np.log1p(op["r"])))
        else:
            params = self.inputs.law_params[metric][op["law"]]
            expected = float(np.exp(gen.log_prediction(params, op["l0"], op["r"], op["d"])))
        check(close(doc["prediction"], expected, REL_TOL), f"prediction {doc['prediction']!r} != numpy {expected!r}")

    def cli_op(self, j: int, call, breakdown: bool) -> Sample:
        variant = self.issued[j] % gen.VARIANTS
        self.issued[j] += 1
        index = variant * len(CLI_KINDS) + j
        op = self.inputs.ops[index]
        run = self.cli(call, f"cli.{CLI_KINDS[j]}", self._args(op))
        doc = json.loads(run.stdout)
        if op["op"] == "critical":
            self._check_critical(op, doc)
        elif op["op"] == "fit":
            check(run.stdout.decode("utf-8") == self.fit_reference, "fit stdout differs from the in-process report")
            check(doc["stats"]["n"] == len(self.records), f"n = {doc['stats']['n']}")
        else:
            if index not in self.expected:
                self.expected[index] = self._expected(op)
            check(doc == self.expected[index], f"{op['op']} output differs from the in-process result")
            if op["op"] == "predict":
                self._check_prediction(op, doc)
        return cli_sample(run, len(self.records) if op["op"] == "fit" else 0)

    # -- in process --------------------------------------------------------

    def lib_mix(self, call, breakdown: bool) -> Sample:
        results = []
        cases = self.mix
        start = time.perf_counter()
        for i in range(self.mix_iterations):
            case = cases[i % len(cases)]
            results.append(
                (
                    call("recovery.analyze", analyze, case.query),
                    call("laws.evaluate", evaluate, case.law, *case.point),
                    call("planner.plan", plan, case.candidates, case.request),
                    call("planner.predict_speedup", predict_speedup, case.runtime, case.runtime_r),
                    call("io.load_law", lawio.load_law, case.law_path),
                    call("regression.fit_law", fit_law, self.records),
                )
            )
        wall = time.perf_counter() - start
        if breakdown:
            x, y = call("regression.build_design", build_design, self.records)
            call("regression.ols_fit", ols_fit, x, y)
            call("io.load_registry", lawio.load_registry, self.inputs.registry)
        for i, result in enumerate(results):
            k = i % len(cases)
            if self.mix_reference[k] is None:
                self._check_mix(cases[k], result)
                self.mix_reference[k] = result
            elif result != self.mix_reference[k]:
                raise CheckFailed(f"in-process call mix case {k} changed between calls")
        calls = 6 * self.mix_iterations
        return Sample(wall, len(self.records) * self.mix_iterations, calls=calls)

    def _check_mix(self, case: MixCase, result: tuple) -> None:
        analysis, value, _, speedup, law, _ = result
        query = case.query
        if analysis.r_critical is not None:
            expected = query.sigma ** (1.0 / query.law.beta) - 1.0
            check(close(analysis.r_critical, expected, REL_TOL), f"r_critical {analysis.r_critical!r} != {expected!r}")
        law_params = (case.law.alpha, case.law.beta, case.law.gamma)
        expected = float(np.exp(gen.log_prediction(law_params, *case.point)))
        check(close(value, expected, REL_TOL), f"evaluate {value!r} != numpy {expected!r}")
        expected = float(-np.expm1(case.runtime.beta * np.log1p(case.runtime_r)))
        check(close(speedup, expected, REL_TOL), f"predict_speedup {speedup!r} != numpy {expected!r}")
        check(law == case.law, "load_law returned a different law")


WORKLOADS = {w.name: w for w in (FitWorkload, WriteWorkload, InteractiveWorkload)}


def probe_workloads(name: str, root: Path, seed: int) -> list[Workload]:
    """Small versions of the other workloads, for layers ``name`` does not call.

    Their in-process operations run once in a traced run, so that every
    per-layer metric has a value on every workload.
    """
    small = {
        "fit_100k": lambda: FitWorkload(root, seed, gen.SMALL_GRID, gen.SMALL_CORRUPT, exponent_tol=None),
        "write_100k": lambda: WriteWorkload(root, seed, gen.SMALL_GRID, gen.SMALL_GRID),
        "interactive": lambda: InteractiveWorkload(root, seed, mix_iterations=gen.VARIANTS),
    }
    return [make() for other, make in small.items() if other != name]
