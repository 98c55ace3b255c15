"""Command-line frontend wiring the library into reproducible analyses.

One machine-readable document per run goes to stdout (JSON unless a subcommand emits CSV); human diagnostics go
to stderr.  A command imports what its handler calls: the module itself needs only ``errors`` and ``laws``, and
each handler imports the modules it runs, so ``critical`` loads no document codec and only ``fit`` and ``synth``
load numpy.  A handler returns nothing and leaves every rule, a law's kind included, to the library it calls:
:func:`run` owns the exit code, 0 once the handler returns, 1 for a usage, validation or domain error and 2 for
an I/O error, a closed stdout pipe included.  Input path flags accept ``-`` for stdin, and ``synth --out -``
writes CSV to stdout.

:func:`main`, the process entry, turns the garbage collector off, runs the command, flushes stdout and stderr
and ends the process with ``os._exit``: no collection, ``atexit`` callback or interpreter teardown spends time on
memory the OS reclaims anyway (every object of every loaded module, every element of a command's 100k-element
tuples).  This relies on every file a command writes being closed before :func:`run` returns, so that nothing is
left for teardown to close and flush.  :func:`run` leaves the collector alone and returns, so in-process callers
see no change.  :func:`main` also prints each warning the command raises as one ``warning: <message>`` line on
stderr, without the source line Python's default format reads through ``linecache``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import warnings
from typing import Sequence

from .errors import CompressLawError, DomainError
from .laws import OBSERVED_RATIO_MAX, SCHEMA_VERSION, DesignForm, MetricKind, RuntimeLaw
from .laws import evaluate, evaluate_runtime

__all__ = ["build_parser", "run", "main"]


def _input(path: str):
    return sys.stdin if path == "-" else path


def _output(path: str):
    return sys.stdout if path == "-" else path


def _parse_float_list(text: str, flag: str) -> list[float]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise DomainError(f"{flag} must list at least one number")
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise DomainError(f"{flag} must be a comma-separated list of numbers, got {text!r}") from None


def _print_json(kind: str, fields: dict) -> None:
    print(json.dumps({"schema_version": SCHEMA_VERSION, "kind": kind, **fields}))


def _cmd_fit(args: argparse.Namespace) -> None:
    from . import documents, io as lawio
    records = lawio.read_records(_input(args.input), strict=not args.lenient)
    report = lawio.build_fit_report(records, epsilon=args.epsilon, form=DesignForm(args.form))
    sys.stdout.write(documents.report_to_json(report))


def _cmd_predict(args: argparse.Namespace) -> None:
    from . import documents
    law = documents.load_law(_input(args.law))
    if isinstance(law, RuntimeLaw):
        if args.l0 is not None or args.d is not None:
            raise DomainError("runtime laws take only --r; drop --l0/--d")
        fields = {"r": args.r, "prediction": evaluate_runtime(law, args.r)}
    else:
        if args.l0 is None:
            raise DomainError("--l0 is required for compression laws")
        d = 0.0 if args.d is None else args.d
        fields = {"l0": args.l0, "r": args.r, "d": d, "prediction": evaluate(law, args.l0, args.r, d)}
    _print_json("prediction", fields)


def _cmd_critical(args: argparse.Namespace) -> None:
    from .recovery import _checked_regime
    metric = MetricKind(args.metric)
    regime, boundary, r_critical = _checked_regime(args.beta, args.sigma, metric)
    _print_json(
        "critical_ratio",
        {
            "metric": metric.value,
            "beta": args.beta,
            "sigma": args.sigma,
            "regime": regime.value,
            "boundary": boundary,
            "r_critical": r_critical,
        }
    )


def _cmd_min_rft(args: argparse.Namespace) -> None:
    from . import documents
    from .recovery import RecoveryQuery, analyze
    law = documents.load_law(_input(args.law))
    result = analyze(RecoveryQuery(law=law, sigma=args.sigma, r=args.r))
    _print_json(
        "min_rft",
        {
            "metric": law.metric.value,
            "sigma": args.sigma,
            "r": args.r,
            "regime": result.regime.value,
            "boundary": result.boundary,
            "r_critical": result.r_critical,
            "min_rft_size": "unrecoverable" if result.min_d == float("inf") else result.min_d,
        }
    )


def _cmd_plan(args: argparse.Namespace) -> None:
    from . import documents
    from .planner import PlanRequest, plan
    metric = MetricKind(args.metric)
    registry = documents.load_registry(_input(args.registry))
    candidates = documents.candidates_from_registry(registry, metric, method_tag=args.method_tag)
    request = PlanRequest(budget=args.budget, metric=metric, rft_size=args.d, max_ratio=args.max_ratio)
    result = plan(candidates, request)
    _print_json(
        "plan_result",
        {
            "metric": metric.value,
            "budget": args.budget,
            "rft_size": args.d,
            "max_ratio": args.max_ratio,
            # A value type's instance dict is its fields in declaration order; json writes the notes tuple as a list.
            "entries": list(map(vars, result.entries)),
            "skipped": list(map(vars, result.skipped)),
        }
    )


def _cmd_synth(args: argparse.Namespace) -> None:
    from . import documents, io as lawio
    from .synth import SyntheticConfig, generate
    truth = documents.load_law(_input(args.truth))
    grid = documents.load_grid(_input(args.grid))
    records = generate(SyntheticConfig(truth=truth, noise_std=args.noise_std, seed=args.seed, **grid))
    lawio.write_records(records, _output(args.out))
    if args.out != "-":
        _print_json("synth_result", {"records_written": len(records), "out": args.out})


def _cmd_frontier(args: argparse.Namespace) -> None:
    from . import documents, frontier
    law = documents.load_law(_input(args.law))
    flags = ((args.l0_list, "--l0-list"), (args.r_grid, "--r-grid"), (args.d_grid, "--d-grid"))
    points = frontier.emit_frontier_grid(law, *(_parse_float_list(text, flag) for text, flag in flags))
    (frontier.write_frontier if args.format == "csv" else frontier._write_frontier_json)(points, sys.stdout)


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises a usage error, for :func:`run` to print as one error document, and reads
    every token ``float`` reads as a negative number, such as ``-1e-3`` or ``-inf``, as a value, not an option:
    argparse's own pattern takes only ``-1``- and ``-1.5``-style tokens for negative numbers."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="compresslaw",
        description="Fit compression power laws, analyze recovery feasibility and plan compression choices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a law to experiment records (CSV in, fit-report JSON out)")
    p.add_argument("--input", required=True, help="records CSV path, or - for stdin")
    p.add_argument("--form", choices=[f.value for f in DesignForm], default="full", help="design form")
    p.add_argument("--epsilon", type=float, default=1.0, help="RFT smoothing constant (default 1.0)")
    p.add_argument("--lenient", action="store_true", help="skip invalid rows instead of aborting")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("predict", help="evaluate a stored law at one point")
    p.add_argument("--law", required=True, help="law or fit-report JSON path, or - for stdin")
    p.add_argument("--l0", type=float, default=None, help="base-model performance (compression laws)")
    p.add_argument("--r", type=float, required=True, help="compression ratio in [0, 1)")
    p.add_argument("--d", type=float, default=None, help="RFT dataset size (default 0)")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("critical", help="regime classification and critical compression ratio")
    p.add_argument("--beta", type=float, required=True, help="ratio exponent of the law")
    p.add_argument("--sigma", type=float, required=True, help="recovery threshold")
    p.add_argument("--metric", choices=["accuracy", "loss"], required=True, help="threshold semantics")
    p.set_defaults(handler=_cmd_critical)

    p = sub.add_parser("min-rft", help="minimum RFT dataset size meeting a recovery threshold")
    p.add_argument("--law", required=True, help="compression-law or fit-report JSON path, or - for stdin")
    p.add_argument("--sigma", type=float, required=True, help="recovery threshold")
    p.add_argument("--r", type=float, required=True, help="compression ratio in [0, 1)")
    p.set_defaults(handler=_cmd_min_rft)

    p = sub.add_parser("plan", help="rank candidate models for a parameter budget")
    p.add_argument("--registry", required=True, help="law-registry JSON path, or - for stdin")
    p.add_argument("--budget", type=float, required=True, help="target post-compression parameter count")
    p.add_argument("--d", type=float, default=0.0, help="assumed RFT dataset size (default 0)")
    p.add_argument("--metric", choices=["accuracy", "loss"], required=True, help="metric to rank by")
    p.add_argument("--method-tag", default=None, help="only consider entries with this method tag")
    cap = OBSERVED_RATIO_MAX
    p.add_argument("--max-ratio", type=float, default=cap, help=f"compression ratio cap (default {cap})")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("synth", help="generate synthetic records from a truth law")
    p.add_argument("--truth", required=True, help="truth law or fit-report JSON path, or - for stdin")
    p.add_argument("--grid", required=True, help="grid JSON path ({l0_values, r_values, d_values})")
    p.add_argument("--noise-std", type=float, default=0.0, help="log-space Gaussian noise std (default 0)")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed (required for reproducibility)")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("frontier", help="tabulate predictions over an (l0, r, d) grid")
    p.add_argument("--law", required=True, help="compression-law or fit-report JSON path, or - for stdin")
    p.add_argument("--l0-list", required=True, help="comma-separated base performances")
    p.add_argument("--r-grid", required=True, help="comma-separated compression ratios")
    p.add_argument("--d-grid", required=True, help="comma-separated RFT sizes")
    p.add_argument("--format", choices=["json", "csv"], default="json", help="output format (default json)")
    p.set_defaults(handler=_cmd_frontier)

    return parser


def _emit_error(exc: Exception) -> None:
    print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
    print(f"error: {exc}", file=sys.stderr)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:  # --help
        return 0
    except argparse.ArgumentError as exc:
        _emit_error(exc)
        return 1
    try:
        args.handler(args)
    except OSError as exc:
        _emit_error(exc)
        return 2
    except (CompressLawError, ValueError) as exc:
        _emit_error(exc)
        return 1
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main() -> None:
    """Run the command in ``sys.argv`` with the collector off, flush stdout and stderr, and end the process with the
    command's code."""
    gc.disable()
    # No source line read through linecache; os._exit ends the process, so the old hook needs no restoring.
    warnings.showwarning = _show_warning
    code = 0
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader closed stdout; os._exit drops what is still buffered for it.  After a nonzero code, run has
        # reported the error already and this flush only fails again.
        if not code:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
