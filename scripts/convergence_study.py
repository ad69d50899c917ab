#!/usr/bin/env python3
"""Track how regression slopes converge to their closed-form targets.

For a chosen quantity, re-runs the estimator over deeper and deeper
radius/depth ladders and prints slope, target, relative error, and residual
RMS per row — a quick way to see the convergence rate and to pick ladder
depths for new experiments.

Examples:
    python scripts/convergence_study.py --quantity box
    python scripts/convergence_study.py --quantity neutralized --r 0.2
    python scripts/convergence_study.py --quantity alpha --space sft:golden.txt
"""
import argparse
import sys

from shiftmetrics import MetricParams, RadiusLadder, top_entropy_oracle
from shiftmetrics.cli import parse_space
from shiftmetrics.errors import ShiftMetricsError
from shiftmetrics.estimators import KINDS, estimate_kind
from shiftmetrics.metrics import VERIFY_TOL

#: quantity -> (bundle kind, the ladders it sweeps, each with its label)
SWEEPS = {
    "box": (
        "box_dimension",
        [(f"2^-8 .. 2^-{top}", RadiusLadder.geometric(8, top)) for top in range(12, 41, 4)],
    ),
    "entropy": (
        "entropy",
        [(f"depths 10..{top}", range(10, top + 1, 5)) for top in range(25, 101, 15)],
    ),
    "neutralized": (
        "neutralized_topological",
        [(f"depths 20..{top}", range(20, top + 1, 10)) for top in range(50, 151, 20)],
    ),
    "alpha": (
        "alpha_topological",
        [(f"depths 20..{top}", range(20, top + 1, 10)) for top in range(50, 151, 20)],
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--space", default="full:2", help="full:M or sft:PATH")
    parser.add_argument("--a", type=float, default=1.3)
    parser.add_argument("--b", type=float, default=1.3)
    parser.add_argument("--quantity", default="box", choices=tuple(SWEEPS))
    parser.add_argument("--r", type=float, help="shrinking rate (default: DEFAULT_RATES)")
    parser.add_argument("--alpha", type=float, help="discount rate (default: DEFAULT_RATES)")
    args = parser.parse_args(argv)

    try:
        space = parse_space(args.space)
        params = MetricParams(args.a, args.b)
        kind, ladders = SWEEPS[args.quantity]
        spec = KINDS[kind]
        rate = spec.rate_from(args.r, args.alpha)
        target = spec.target(params, rate, top_entropy_oracle(space))
        estimates = [
            (label, estimate_kind(kind, space, params, None, ladder, rate))
            for label, ladder in ladders
        ]
    except (ShiftMetricsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{args.quantity} on {args.space}: target {target:.6f}")
    for label, est in estimates:
        # relative to max(|target|, VERIFY_TOL), as in a relation report
        rel = abs(est.slope - target) / max(abs(target), VERIFY_TOL)
        flag = "  [flagged]" if est.flagged else ""
        print(
            f"{label:<16} slope={est.slope:.6f}  rel={rel:.2e}  "
            f"rms={est.residual_rms:.2e}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
