"""symfd benchmark: one workload per call, each in its own single-threaded process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: kdv_collision, burgers_shock,
invariance_audit, toolkit_audit (see bench/README.md).  The set-up is timed
in SETUP_PROBES separate processes plus the measuring one, and the median is
reported.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2
TIME_LIMIT_S = 170   # every run must end within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def _worker(cmd, deadline):
    """Run a worker to completion; return its stdout lines and summary, or raise.

    A worker still running at the deadline is killed and waited for.
    """
    env = dict(os.environ, **SINGLE_THREAD)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    for need in (os.path.join("src", "symfd", "__init__.py"), "configs"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"bench: {need} not found under {root}; run from a symfd checkout",
                  file=sys.stderr)
            return 2

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [_worker(cmd + ["--setup-only"], deadline)[1]["setup_s"]
                  for _ in range(SETUP_PROBES)]
        lines, summary = _worker(cmd, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in summary["metrics"].items()}
    if not args.trace:
        setups.append(summary["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"{args.workload}: {summary['rounds']} rounds, "
          f"{summary['attempted']} operations, {summary['failed']} failed")
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
