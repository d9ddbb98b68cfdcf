"""Command line interface: dist, sweep, verify, oracle-check."""

from __future__ import annotations

import argparse
import sys

from . import harness, oracle

_ORACLE_TOL = 1e-9


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    # a flag left out is absent from the namespace, so SweepConfig's default applies
    for flag in ("--n-min", "--n-max", "--threads"):
        p.add_argument(flag, type=int, default=argparse.SUPPRESS)
    p.add_argument("--points-per-decade", type=int, default=argparse.SUPPRESS,
                   help="grid points per period of log_b N: a decade in base 10, an octave "
                        "in base 2; verify checks every trend along its phase classes, "
                        "grid index k mod this")


def _sweep_config(args) -> harness.SweepConfig:
    """The ``SweepConfig`` of the flags given to ``sweep`` or ``verify``."""
    return harness.SweepConfig(**{k: v for k, v in vars(args).items() if k != "command"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circletransport",
        description="Exact Wasserstein-1 distances between the base-b mantissa "
                    "distribution and its rotated exponential limit "
                    "(natural log in all scaled statistics).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="print one metrics row as key=value lines")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True, dest="n_value")
    p.add_argument("--metric", choices=("line", "circle", "both"), default="both")

    p = sub.add_parser("sweep", help="write a CSV of metrics over an N grid")
    p.add_argument("--base", type=int, required=True)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the convergence checks, exit 0/1/2")
    p.add_argument("--base", type=int, required=True)
    _add_grid_flags(p)

    p = sub.add_parser("oracle-check", help="engine vs brute-force oracle on random atoms")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-atoms", type=int, default=40)
    p.add_argument("--seed", type=int, default=20260324)
    return parser


def _cmd_dist(args) -> int:
    metrics = ("line", "circle") if args.metric == "both" else (args.metric,)
    row = harness.compute_metrics(args.base, args.n_value, metrics)
    print(f"base={row.base}")
    print(f"N={row.N}")
    print(f"n={row.n}")
    if "line" in metrics:
        print(f"d_line={row.d_line:.17g}")
        print(f"scaled_line={row.scaled_line:.17g}")
    if "circle" in metrics:
        print(f"d_circle={row.d_circle:.17g}")
        print(f"offset_c={row.offset_c:.17g}")
        print(f"scaled_circle_sqrt={row.scaled_circle_sqrt:.17g}")
        print(f"scaled_circle_linear={row.scaled_circle_linear:.17g}")
    print(f"wall_time_seconds={row.wall_time_seconds:.17g}")
    return 0


def _cmd_sweep(args) -> int:
    rows = harness.run_sweep(_sweep_config(args))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    report = harness.verify(_sweep_config(args))
    for line in report.lines:
        print(line)
    print("verification " + ("PASSED" if report.passed else "FAILED"))
    return report.exit_code


def _cmd_oracle_check(args) -> int:
    worst_line, worst_circle = oracle.equivalence_trials(
        args.trials, args.max_atoms, args.seed)
    ok = worst_line <= _ORACLE_TOL and worst_circle <= _ORACLE_TOL
    print(f"trials={args.trials} max_atoms={args.max_atoms} seed={args.seed}")
    print(f"max_line_error={worst_line:.3e}")
    print(f"max_circle_error={worst_circle:.3e}")
    print(f"tolerance={_ORACLE_TOL:.1e} -> " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "dist":
            return _cmd_dist(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_oracle_check(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
