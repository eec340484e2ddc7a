"""Command line interface.

Subcommands::

    symfd run <config-file>                      time loop, CSV outputs
    symfd audit --scheme ID [--trials N] [--configs N] [--seed N] [--tol X]
    symfd converge --scheme ID --h H1,H2,...
    symfd exact <config-file> [--t T]            the run's exact solution at T as CSV

Exit codes: 0 success, 2 configuration error (an unreadable config file or
an output path that cannot be written included), 3 numerical failure (mesh
tangling, a singular step, or NaN/inf values; partial outputs are still
written and the reason goes to standard error).
"""

from __future__ import annotations

import argparse
import sys

from . import runner
from .errors import ConfigError, SymfdError


def _read_config(path: str) -> runner.ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    return runner.parse_config(text)


def _cmd_run(args) -> int:
    cfg = _read_config(args.config)
    out = runner.run_experiment(cfg)
    try:
        runner.write_outputs(out)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs: {exc}") from exc
    print(f"status: {out.status}")
    if out.status != "completed":
        print(f"run stopped: {out.message}", file=sys.stderr)
    if not cfg.snapshots_path:
        sys.stdout.writelines(runner.format_snapshots_csv(out))
    return 0 if out.status == "completed" else 3


def _cmd_audit(args) -> int:
    report = runner.invariance_audit(args.scheme, args.trials, args.configs,
                                     args.seed, args.tol)
    print("\n".join(report.lines()))
    return 0 if report.passed else 3


def _cmd_converge(args) -> int:
    try:
        hs = [float(tok) for tok in args.h.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sys.stdout.write(runner.format_convergence_csv(runner.convergence_study(args.scheme, hs)))
    return 0


def _cmd_exact(args) -> int:
    snapshot = runner.exact_snapshot(_read_config(args.config), args.t)
    sys.stdout.writelines(runner.format_snapshots_csv(snapshot))
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

    exact = sub.add_parser("exact", help="the exact solution a config's run starts from")
    exact.add_argument("config")
    exact.add_argument("--t", type=float, default=0.0, help="time of the samples")
    exact.set_defaults(fn=_cmd_exact)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SymfdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
