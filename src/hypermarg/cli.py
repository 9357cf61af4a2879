"""Command-line interface.

Subcommands::

    hypermarg run CONFIG            # optimize per config; write run reports
    hypermarg majorant-slice CONFIG # tabulate F and its majorant on one axis
    hypermarg trace-bench CONFIG    # quadrature trace estimator benchmark
    hypermarg sample-size FLAGS...  # probe/depth budgets as JSON on stdout

Exit status: 0 on success, 2 for configuration or usage errors, 3 when a
numerical operation fails (indefinite pivot, stalled solve, ...).
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, load_json
from .harness import majorant_slice, run_experiment, sample_size_report, trace_bench
from .operators import NumericalError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hypermarg",
        description="Hyperparameter estimation runs, diagnostics and budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("run", "run one configured optimization and write its reports"),
        ("majorant-slice", "tabulate objective and majorant along one axis"),
        ("trace-bench", "benchmark the trace estimator on known matrices"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("config", help="path to the JSON experiment config")

    size = sub.add_parser("sample-size", help="print probe/depth budgets as JSON")
    size.add_argument("--eps", type=float, required=True, help="absolute accuracy target")
    size.add_argument("--delta", type=float, required=True, help="failure probability budget")
    size.add_argument("--m", type=int, required=True, help="data dimension")
    size.add_argument("--p", type=int, required=True, help="number of hyperparameters")
    size.add_argument("--radius", type=float, required=True, help="feasible-box radius")
    size.add_argument("--alpha", type=float, required=True, help="uniform eigenvalue floor")
    size.add_argument("--beta", type=float, required=True, help="uniform eigenvalue cap")
    size.add_argument("--lipschitz", type=float, required=True, help="spectral Lipschitz constant")
    size.add_argument("--frob-max", type=float, default=None, help="uniform Frobenius-norm cap")
    size.add_argument("--two-max", type=float, default=None, help="uniform spectral-norm cap")
    size.add_argument("--rho", type=float, default=None, help="per-iteration tightening factor")
    size.add_argument("--iters", type=int, default=None, help="outer iterations to schedule")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            summary = run_experiment(load_json(args.config))
            print(json.dumps({"theta_hat": summary["theta_hat"], "rel_error": summary["rel_error"]}))
        elif args.command == "majorant-slice":
            rows = majorant_slice(load_json(args.config))
            print(f"wrote {len(rows)} slice rows")
        elif args.command == "trace-bench":
            rows = trace_bench(load_json(args.config))
            print(f"wrote {len(rows)} bench rows")
        elif args.command == "sample-size":
            report = sample_size_report(
                eps=args.eps,
                delta=args.delta,
                m=args.m,
                p=args.p,
                radius=args.radius,
                alpha=args.alpha,
                beta=args.beta,
                lipschitz=args.lipschitz,
                frob_max=args.frob_max,
                two_max=args.two_max,
                rho=args.rho,
                iters=args.iters,
            )
            print(json.dumps(report, indent=2, sort_keys=True))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
