#!/usr/bin/env python3
"""Tabulate recovery feasibility for the bundled model-wise coefficient fixtures.

For each model's fitted law, prints the regime boundary 2**beta, the
critical compression ratio at each requested threshold, and the minimum RFT
size at a probe ratio (or 'unrecoverable' past the critical ratio).

Usage:
    python scripts/recovery_frontier_study.py --metric accuracy --sigmas 0.7,0.8,0.9 --r 0.19
    python scripts/recovery_frontier_study.py --metric loss --sigmas 1.2,1.5,2.0 --r 0.3
"""

import argparse
import math

from compresslaw.documents import builtin_registry
from compresslaw.laws import MetricKind
from compresslaw.recovery import RecoveryQuery, Regime, analyze


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metric", choices=["accuracy", "loss"], default="accuracy")
    parser.add_argument("--sigmas", default="0.7,0.8,0.9", help="comma-separated recovery thresholds")
    parser.add_argument("--r", type=float, default=0.19, help="probe compression ratio for min-RFT sizes")
    args = parser.parse_args()

    metric = MetricKind(args.metric)
    sigmas = [float(tok) for tok in args.sigmas.split(",") if tok.strip()]
    entries = [
        e for e in builtin_registry().select(metric=metric, method_tag="calibration-free")
        if e.provenance.startswith("table2")
    ]

    print(f"metric={metric.value}, probe ratio r={args.r}")
    header = f"{'model':<14} {'beta':>7} {'2^beta':>8}"
    for sigma in sigmas:
        header += f" {'rc(' + str(sigma) + ')':>10} {'Dmin(' + str(sigma) + ')':>12}"
    print(header)
    print("-" * len(header))

    for entry in entries:
        law = entry.law
        row = f"{entry.model_id:<14} {law.beta:>7.2f} {2**law.beta:>8.3f}"
        for sigma in sigmas:
            report = analyze(RecoveryQuery(law, sigma=sigma, r=args.r))
            if report.regime is Regime.ALWAYS_RECOVERABLE:
                rc = "-"
            else:
                rc = f"{report.r_critical:.3f}"
            dmin = "unrecov." if report.min_d == math.inf else f"{report.min_d:.3f}"
            row += f" {rc:>10} {dmin:>12}"
        print(row)


if __name__ == "__main__":
    main()
