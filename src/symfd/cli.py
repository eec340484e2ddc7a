"""Command line interface.

Subcommands::

    symfd run <config-file>                      time loop, CSV outputs
    symfd audit --scheme ID [--trials N] [--configs N] [--seed N] [--tol X]
    symfd converge --scheme ID --h H1,H2,...
    symfd exact --equation ID [options]          oracle samples as CSV

Exit codes: 0 success, 2 configuration error (an output path that cannot
be written included), 3 numerical failure (mesh tangling, a singular step,
or NaN/inf values; partial outputs are still written and the reason goes to
standard error).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import runner
from .errors import ConfigError, SymfdError


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = runner.parse_config(fh.read())
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        out = runner.run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SymfdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    try:
        runner.write_outputs(out)
    except OSError as exc:
        print(f"config error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    print(f"status: {out.status}")
    if out.status != "completed":
        print(f"run stopped: {out.message}", file=sys.stderr)
    if not cfg.snapshots_path:
        sys.stdout.writelines(runner.format_snapshots_csv(out))
    return 0 if out.status == "completed" else 3


def _cmd_audit(args) -> int:
    try:
        report = runner.invariance_audit(args.scheme, args.trials, args.configs,
                                         args.seed, args.tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report.lines()))
    return 0 if report.passed else 3


def _cmd_converge(args) -> int:
    try:
        hs = [float(tok) for tok in args.h.split(",") if tok.strip()]
        rows = runner.convergence_study(args.scheme, hs)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SymfdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(runner.format_convergence_csv(rows))
    return 0


def _cmd_exact(args) -> int:
    try:
        if not (math.isfinite(args.x_min) and math.isfinite(args.x_max)):
            raise ConfigError("--x-min and --x-max must be finite")
        if args.n < 1:
            raise ConfigError("--n must be at least 1")
        x = np.linspace(args.x_min, args.x_max, args.n)
        if args.equation == "kdv":
            u = runner.exact_kdv_double_soliton(args.t, x, args.c1, args.c2,
                                                args.a1, args.a2)
        elif args.equation == "burgers":
            u = runner.exact_burgers(args.t, x, args.nu, args.c)
        elif args.equation == "schwarzian":
            u = np.array([runner.exact_schwarzian(xx, args.ma, args.mb,
                                                  args.mc, args.md) for xx in x])
        else:
            raise ConfigError(f"unknown equation {args.equation!r}")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SymfdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print("t,x,u")
    for xi, ui in zip(x, u):
        print(f"{args.t:.17g},{xi:.17g},{ui:.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="symfd", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config")
    run.set_defaults(fn=_cmd_run)

    audit = sub.add_parser("audit", help="randomized invariance audit")
    audit.add_argument("--scheme", required=True, choices=runner.AUDIT_SCHEMES)
    audit.add_argument("--trials", type=int, default=100,
                       help="number of group elements")
    audit.add_argument("--configs", type=int, default=20,
                       help="number of admissible configurations")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--tol", type=float, default=1e-9)
    audit.set_defaults(fn=_cmd_audit)

    conv = sub.add_parser("converge", help="mesh refinement study")
    conv.add_argument("--scheme", required=True, choices=runner.CONVERGENCE_SCHEMES)
    conv.add_argument("--h", required=True, help="comma separated spacings")
    conv.set_defaults(fn=_cmd_converge)

    exact = sub.add_parser("exact", help="emit exact-solution samples")
    exact.add_argument("--equation", required=True,
                       choices=("kdv", "burgers", "schwarzian"))
    exact.add_argument("--t", type=float, default=0.0)
    exact.add_argument("--x-min", type=float, default=-30.0)
    exact.add_argument("--x-max", type=float, default=30.0)
    exact.add_argument("--n", type=int, default=128)
    exact.add_argument("--c1", type=float, default=1.0)
    exact.add_argument("--c2", type=float, default=0.5)
    exact.add_argument("--a1", type=float, default=20.0)
    exact.add_argument("--a2", type=float, default=5.0)
    exact.add_argument("--nu", type=float, default=0.001)
    exact.add_argument("--c", type=float, default=0.25)
    exact.add_argument("--ma", type=float, default=1.0)
    exact.add_argument("--mb", type=float, default=0.0)
    exact.add_argument("--mc", type=float, default=0.0)
    exact.add_argument("--md", type=float, default=1.0)
    exact.set_defaults(fn=_cmd_exact)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
