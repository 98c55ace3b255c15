"""Benchmark driver: one workload, one seed, a fixed measuring time.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fit_100k --seed 1 --seconds 35 --trace 0

It generates the workload's inputs from the seed in a temporary directory
inside the checkout, runs the workload's operations in a closed loop for
``--seconds``, checks every output, and prints a table of every metric with
its unit.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
they are the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from harness import (
    LOOP_REF_S,
    SPAWN_REF_S,
    SpeedScale,
    Tally,
    Tracer,
    check,
    cli_argv,
    load_average,
    p90,
    run_process,
    scaled_durations,
    self_times,
    untraced_call,
)

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least SETUP_MIN times and until SETUP_BUDGET_S have
# passed, so that a set-up of a few milliseconds still gets a steady median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 200, 1.0
FLOOR_REPEATS = 7

# ms unless the name says otherwise; the ROADMAP Baseline table (100k rows).
BASELINE = {
    "io.read_records_ms": 814,
    "io.write_records_ms": 636,
    "synth.generate_ms": 374,
    "io.build_fit_report_ms": 394,
    "regression.fit_law_ms": 243,
    "regression.build_design_ms": 158,
    "io.emit_frontier_grid_ms": 161,
    "io.report_to_json_ms": 112,
    "regression.ols_fit_ms": 29,
    "laws.evaluate_us": 0.65,
    "recovery.analyze_us": 3.3,
    "cli.critical_ms": 227,
    "cli.python_floor_ms": 55,
}

# Per-layer timing metrics: span name -> (metric, scale from seconds per call).
SPAN_METRICS = {
    "io.read_records": ("io.read_records_ms", 1e3),
    "regression.build_design": ("regression.build_design_ms", 1e3),
    "io.build_fit_report": ("io.build_fit_report_ms", 1e3),
    "io.report_to_json": ("io.report_to_json_ms", 1e3),
    "regression.ols_fit": ("regression.ols_fit_ms", 1e3),
    "regression.fit_law": ("regression.fit_law_ms", 1e3),
    "synth.generate": ("synth.generate_ms", 1e3),
    "io.write_records": ("io.write_records_ms", 1e3),
    "io.emit_frontier_grid": ("io.emit_frontier_grid_ms", 1e3),
    "io.write_frontier": ("io.write_frontier_ms", 1e3),
    "laws.evaluate": ("laws.evaluate_us", 1e6),
    "recovery.analyze": ("recovery.analyze_us", 1e6),
    "planner.plan": ("planner.plan_us", 1e6),
    "io.load_law": ("io.load_law_us", 1e6),
    "io.load_registry": ("io.load_registry_ms", 1e3),
}
COUNTS = {"rows": "io.read_records_rows", "skipped": "io.read_records_skipped", "json_bytes": "io.report_to_json_bytes"}
LAYERS = ("cli", "io", "regression", "synth", "laws", "recovery", "planner", "bench")

END_TO_END = {
    "setup_s": "s",
    "cli_p50_ms": "ms",
    "cli_p90_ms": "ms",
    "cli_rows_per_s": "rows/s",
    "lib_rows_per_s": "rows/s",
    "lib_ops_per_s": "1/s",
    "cli_peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.python_floor_ms": "ms",
    "cli.cold_import_ms": "ms",
    "cli.critical_ms": "ms",
    **{metric: "ms" if scale == 1e3 else "us" for metric, scale in SPAN_METRICS.values()},
    "io.read_records_rows": "rows",
    "io.read_records_skipped": "rows",
    "io.report_to_json_bytes": "bytes",
    "cli.stdout_bytes": "bytes",
    "cli.stderr_lines": "lines",
    **{f"{layer}.self_ms_per_op": "ms" for layer in LAYERS},
    "trace.lib_rows_per_s_overhead_pct": "%",
    "trace.lib_ops_per_s_overhead_pct": "%",
}


def tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def run_loop(ops, seconds: float, tally, scale, tracer=None):
    """Run the cycle until ``seconds`` have passed, at least once (twice when traced).

    Returns untraced samples and, when tracing, traced in-process samples.
    Traced runs trace every CLI operation and every other pass of the
    in-process operations, so both kinds of in-process sample come from the
    same conditions.
    """
    samples, traced = defaultdict(list), defaultdict(list)
    min_ops = len(ops) * (2 if tracer else 1)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        gc.collect()  # every operation starts from the same collector state
        span = None
        if tracer is not None and (op.side == "cli" or (i // len(ops)) % 2 == 1):
            with tracer.op(op.name) as span:
                sample = tally.run(op.name, op.fn, tracer.call, True)
            into = traced if op.side == "lib" else samples
        else:
            sample = tally.run(op.name, op.fn, untraced_call, False)
            into = samples
        factor = scale.next(op.side)
        if span is not None:
            span.scale = factor
        if sample is not None:
            sample.scale = factor
            into[op.name].append(sample)
        i += 1
    return samples, traced


def rates(samples, kinds) -> tuple[float, float]:
    """Rows and calls per second of one pass over ``kinds`` at each kind's median time."""
    time_s = sum(statistics.median(s.time_s for s in samples[k]) for k in kinds)
    return sum(samples[k][0].rows for k in kinds) / time_s, sum(samples[k][0].calls for k in kinds) / time_s


def kinds(samples, ops, side: str) -> list[str]:
    """Operation names of one side that completed at least once; failures are counted apart."""
    return [name for name in dict.fromkeys(op.name for op in ops if op.side == side) if samples.get(name)]


def end_to_end(samples, ops, setup_times) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count)."""
    cli, lib = kinds(samples, ops, "cli"), kinds(samples, ops, "lib")
    cli_times = [s.time_s for k in cli for s in samples[k]]
    cli_n, lib_n = len(cli_times), sum(len(samples[k]) for k in lib)
    lib_rows, lib_ops = rates(samples, lib)
    rss = statistics.mean(statistics.median(s.maxrss_kb for s in samples[k]) for k in cli) / 1024
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "cli_p50_ms": (statistics.mean(statistics.median(s.time_s for s in samples[k]) for k in cli) * 1e3, cli_n),
        "cli_p90_ms": (p90(cli_times) * 1e3, cli_n),
        "cli_rows_per_s": (rates(samples, cli)[0], cli_n),
        "lib_rows_per_s": (lib_rows, lib_n),
        "lib_ops_per_s": (lib_ops, lib_n),
        "cli_peak_rss_mb": (rss, cli_n),
    }


def first_pass_counts(samples, ops) -> dict[str, int]:
    """Counts from the first sample of each operation, which repeat exactly for one seed."""
    counts = defaultdict(int)
    for name in dict.fromkeys(op.name for op in ops):
        if not samples.get(name):
            continue
        first = samples[name][0]
        if name.startswith("cli."):
            counts["cli.stdout_bytes"] += first.stdout_bytes
            counts["cli.stderr_lines"] += first.stderr_lines
        for key, metric in COUNTS.items():
            if key in first.counts:
                counts[metric] += first.counts[key]
    return dict(counts)


def span_metrics(spans) -> dict[str, tuple[float, int]]:
    per_call = defaultdict(list)
    for span, duration in zip(spans, scaled_durations(spans)):
        if span.name in SPAN_METRICS:
            per_call[span.name].append(duration / span.count)
    return {
        SPAN_METRICS[name][0]: (statistics.median(values) * SPAN_METRICS[name][1], len(values))
        for name, values in per_call.items()
    }


def startup_floor(workload, scale) -> dict[str, tuple[float, int]]:
    """Cold start of importing the CLI module, of ``critical`` and of a bare interpreter.

    The bare interpreter's time is the spawn calibration itself, unscaled.
    """
    out = {}
    for metric, argv in (
        ("cli.cold_import_ms", [sys.executable, "-c", "import compresslaw.cli"]),
        ("cli.critical_ms", cli_argv(["critical", "--beta", "1.72", "--sigma", "2.5", "--metric", "loss"])),
    ):
        times = []
        for _ in range(FLOOR_REPEATS):
            run = run_process(argv, workload.dir, workload.env)
            check(run.code == 0, f"{argv[1:]} exited with {run.code}")
            times.append(run.wall_s * scale.next("cli"))
        out[metric] = (statistics.median(times) * 1e3, len(times))
    out["cli.python_floor_ms"] = (statistics.median(scale.spawn) * 1e3, len(scale.spawn))
    return out


def probe(name: str, seed: int, tally, scale, tmp: Path):
    """One traced pass of the other workloads' in-process operations, at 45-row size.

    Returns the probe's tracer and its first-pass counts.
    """
    from workloads import probe_workloads

    tracer, counts = Tracer(), {}
    for small in probe_workloads(name, ROOT, seed):
        out = tmp / f"probe-{small.name}"
        out.mkdir(parents=True)
        small.setup(out)
        small.prepare()
        lib_ops = list({op.name: op for op in small.cycle() if op.side == "lib"}.values())
        samples = defaultdict(list)
        for op in lib_ops:
            with tracer.op(op.name) as span:
                sample = tally.run(f"probe {op.name}", op.fn, tracer.call, True)
            span.scale = scale.next("lib")
            if sample is not None:
                samples[op.name].append(sample)
        for metric, value in first_pass_counts(samples, lib_ops).items():
            counts.setdefault(metric, value)
    return tracer, counts


def per_layer(name, seed, workload, ops, samples, traced, tracer, tally, scale, tmp):
    """Per-layer metrics, and the names measured on the workload's own operations."""
    metrics = span_metrics(tracer.spans)
    counts = first_pass_counts(samples, ops)
    native = set(metrics) | set(counts)

    # A layer this workload never calls still gets a value, from the probe.
    probe_tracer, probe_counts = probe(name, seed, tally, scale, tmp)
    for metric, value in span_metrics(probe_tracer.spans).items():
        metrics.setdefault(metric, value)
    for metric, value in probe_counts.items():
        counts.setdefault(metric, value)
    metrics.update({k: (float(v), 1) for k, v in counts.items()})

    ops_done = tracer.ops + probe_tracer.ops
    totals = self_times(tracer.spans)
    for layer, seconds in self_times(probe_tracer.spans).items():
        totals[layer] = totals.get(layer, 0.0) + seconds
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = (totals.get(layer, 0.0) * 1e3 / ops_done, ops_done)

    metrics.update(tally.run("startup floor", startup_floor, workload, scale) or {})

    lib = kinds(traced, ops, "lib")
    plain, spanned = rates(samples, lib), rates(traced, lib)
    n = sum(len(traced[k]) for k in lib)
    metrics["trace.lib_rows_per_s_overhead_pct"] = ((1 - spanned[0] / plain[0]) * 100, n)
    metrics["trace.lib_ops_per_s_overhead_pct"] = ((1 - spanned[1] / plain[1]) * 100, n)
    return metrics, native


def print_baseline_table(metrics, native) -> None:
    print("# per-layer, this traced run beside the ROADMAP Baseline (100k rows)")
    print(f"# {'layer':34} {'this run':>12} {'baseline':>10} {'ratio':>7}")
    for metric, base in BASELINE.items():
        value = metrics[metric][0]
        where = "" if metric in native or metric.startswith("cli.") else "  (small probe, not comparable)"
        print(f"# {metric:34} {value:12.4g} {base:10.4g} {value / base:7.2f}{where}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "compresslaw" / "__init__.py").is_file():
        print(f"error: no compresslaw source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and the CLI children it spawns, so that the
    # calibration runs where the measured work runs.  It comes before numpy
    # is imported, so that numpy's BLAS sizes its thread pool for one CPU here
    # and in every child alike, and in-process results match CLI results bit
    # for bit.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_average(),
    }
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tally = Tally()
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        scale = SpeedScale()
        setup_times, digests = [], set()
        out = tmp / "inputs"
        out.mkdir(parents=True)
        while len(setup_times) < SETUP_MIN or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX):
            gc.collect()
            start = time.perf_counter()
            workload.setup(out)
            setup_times.append((time.perf_counter() - start) * scale.next("lib"))
            digests.add(tree_digest(out))
        tally.run("setup", check, len(digests) == 1, "the same seed gave different input files")
        workload.prepare()
        ops = workload.cycle()
        tracer = Tracer() if args.trace else None
        samples, traced = run_loop(ops, args.seconds, tally, scale, tracer)
        try:
            if args.trace:
                metrics, native = per_layer(args.workload, args.seed, workload, ops, samples, traced, tracer, tally, scale, tmp)
            else:
                metrics = end_to_end(samples, ops, setup_times)
        except (KeyError, ZeroDivisionError, statistics.StatisticsError) as exc:
            print(f"error: no metric for an operation that never succeeded ({exc!r}); {tally.reasons}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    expected = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(expected):
        print(f"error: metrics {sorted(set(metrics) ^ set(expected))} missing or unexpected", file=sys.stderr)
        return 1

    meta["loadavg_end"] = load_average()
    for kind, readings, ref in (("loop", scale.loop, LOOP_REF_S), ("spawn", scale.spawn, SPAWN_REF_S)):
        readings = sorted(r * 1e3 for r in readings)
        meta[f"calibration_{kind}_ms"] = {
            "reference": ref * 1e3,
            "median": round(statistics.median(readings), 3),
            "min": round(readings[0], 3),
            "max": round(readings[-1], 3),
            "n": len(readings),
        }
    print("# " + json.dumps(meta))
    for name in dict.fromkeys(op.name for op in ops):
        got = samples.get(name, [])
        if got:
            wall = statistics.median(s.wall_s for s in got) * 1e3
            scaled = statistics.median(s.time_s for s in got) * 1e3
            print(f"# op {name:22} n={len(got):4d}  median wall {wall:10.3f} ms  scaled {scaled:10.3f} ms")
    print(f"# fail_ratio {tally.failed / tally.attempted:.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"# failure: {reason}")
    if args.trace:
        print_baseline_table(metrics, native)
    for name, (value, count) in metrics.items():
        print(f"{name:40} {value:14.6g} {expected[name]:7} n={count}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": expected[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
