"""Command-line frontend wiring the library into reproducible analyses.

One machine-readable document per run goes to stdout (JSON unless a
subcommand emits CSV); human diagnostics go to stderr.  Only ``fit``,
``synth`` and ``frontier`` import the numpy-backed modules, inside their
handlers, so the other commands start without numpy.  Exit codes:
0 success, 1 validation or domain error, 2 I/O error.  Input path flags
accept ``-`` for stdin, and ``synth --out -`` writes CSV to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import documents
from .errors import CompressLawError, DomainError
from .laws import CompressionLaw, DesignForm, MetricKind, RuntimeLaw, evaluate, evaluate_runtime
from .planner import OBSERVED_RATIO_MAX, PlanRequest, plan
from .recovery import Regime, RecoveryQuery, _critical_ratio, analyze, classify_regime

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
    print(json.dumps({"schema_version": documents.SCHEMA_VERSION, "kind": kind, **fields}))


def _cmd_fit(args: argparse.Namespace) -> int:
    from . import io as lawio
    records = lawio.read_records(_input(args.input), strict=not args.lenient)
    report = lawio.build_fit_report(records, epsilon=args.epsilon, form=DesignForm(args.form))
    sys.stdout.write(lawio.report_to_json(report))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
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
    return 0


def _cmd_critical(args: argparse.Namespace) -> int:
    metric = MetricKind(args.metric)
    regime, boundary = classify_regime(args.beta, args.sigma, metric)
    r_critical = _critical_ratio(args.beta, args.sigma) if regime is Regime.CONDITIONALLY_RECOVERABLE else None
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
    return 0


def _cmd_min_rft(args: argparse.Namespace) -> int:
    law = documents.load_law(_input(args.law))
    if not isinstance(law, CompressionLaw):
        raise DomainError("min-rft needs a compression law, not a runtime law")
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
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
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
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from . import io as lawio
    from .synth import SyntheticConfig, generate
    truth = documents.load_law(_input(args.truth))
    if not isinstance(truth, CompressionLaw):
        raise DomainError("synth needs a compression law as the truth")
    grid = documents.load_grid(_input(args.grid))
    records = generate(SyntheticConfig(truth=truth, noise_std=args.noise_std, seed=args.seed, **grid))
    lawio.write_records(records, _output(args.out))
    if args.out != "-":
        _print_json("synth_result", {"records_written": len(records), "out": args.out})
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from . import io as lawio
    law = documents.load_law(_input(args.law))
    if not isinstance(law, CompressionLaw):
        raise DomainError("frontier needs a compression law")
    points = lawio.emit_frontier_grid(
        law,
        _parse_float_list(args.l0_list, "--l0-list"),
        _parse_float_list(args.r_grid, "--r-grid"),
        _parse_float_list(args.d_grid, "--d-grid"),
    )
    if args.format == "csv":
        lawio.write_frontier(points, sys.stdout)
    else:
        lawio._write_frontier_json(points, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--law", required=True, help="law JSON path, or - for stdin")
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
    p.add_argument("--law", required=True, help="compression-law JSON path, or - for stdin")
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
    p.add_argument("--truth", required=True, help="truth law JSON path, or - for stdin")
    p.add_argument("--grid", required=True, help="grid JSON path ({l0_values, r_values, d_values})")
    p.add_argument("--noise-std", type=float, default=0.0, help="log-space Gaussian noise std (default 0)")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed (required for reproducibility)")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("frontier", help="tabulate predictions over an (l0, r, d) grid")
    p.add_argument("--law", required=True, help="compression-law JSON path, or - for stdin")
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
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.handler(args)
    except OSError as exc:
        _emit_error(exc)
        return 2
    except (CompressLawError, ValueError) as exc:
        _emit_error(exc)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
