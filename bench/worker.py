"""Run one workload in this process: set-up, then whole rounds until time is up.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Run from the root of a checkout.  Prints the fingerprints of the first round
and, as the last line, a JSON summary that ``run.py`` turns into the
benchmark's result.  With ``--trace 1`` rounds alternate between untraced
and traced, so the tracing overhead is measured in the same process.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports come next

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402


def layer_metrics(tr, res, wall, untraced_wall):
    """Per-layer metrics of one traced round (see README for what each moves)."""
    below_runner = [lay for lay in spans.LAYERS if lay != "runner"]
    trials = res.audit_trials
    m = {f"{lay}.self_s": (tr.layer_self(lay), "s") for lay in spans.LAYERS}
    m.update({
        "runner.loop_self_s": (tr.self_excluding("runner.run_experiment", below_runner), "s"),
        "runner.csv_s": (tr.outer_total("runner.write_outputs", "runner.format_snapshots_csv",
                                        "runner.format_diagnostics_csv"), "s"),
        "runner.csv_bytes": (res.csv_bytes, "bytes"),
        "runner.audit_self_s": (tr.self_excluding("runner.invariance_audit", below_runner), "s"),
        "runner.audit_trials": (trials, "count"),
        "runner.audit_resampled": (res.audit_resampled, "count"),
        "runner.audit_useful_ratio": (trials / (trials + res.audit_resampled) if trials else 0.0,
                                      "ratio"),
        "schemes.kdv_step_calls": (tr.calls("schemes.kdv_step_detailed"), "count"),
        "schemes.kdv_solve_self_s": (tr.self_excluding("schemes.kdv_step_detailed", ["mesh"]), "s"),
        "schemes.kdv_residual_10pt_calls": (tr.calls("schemes.kdv_residual_10pt"), "count"),
        "schemes.kdv_residual_10pt_s": (tr.total("schemes.kdv_residual_10pt"), "s"),
        "schemes.newton_iters": (tr.extra("schemes.kdv_step_detailed"), "count"),
        "schemes.gridstate_validations": (tr.gridstate_validations, "count"),
        "schemes.burgers_step_calls": (tr.calls("schemes.burgers_fv_step_detailed"), "count"),
        "schemes.burgers_step_self_s": (
            tr.self_excluding("schemes.burgers_fv_step_detailed", ["mesh"]), "s"),
        "schemes.kdv_residual_6pt_s": (tr.total("schemes.kdv_residual_6pt"), "s"),
        "schemes.burgers_fv_residual_s": (tr.total("schemes.burgers_fv_residual"), "s"),
        "schemes.schwarzian_step_calls": (tr.calls("schemes.schwarzian_step"), "count"),
        "schemes.schwarzian_step_s": (tr.total("schemes.schwarzian_step"), "s"),
        "schemes.rk_adaptive_solve_s": (tr.total("schemes.rk_adaptive_solve"), "s"),
        "mesh.equidistribute_calls": (tr.calls("mesh.equidistribute"), "count"),
        "mesh.equidistribute_s": (tr.total("mesh.equidistribute"), "s"),
        "mesh.monitor_arclength_s": (tr.total("mesh.monitor_arclength"), "s"),
        "mesh.lagrangian_update_s": (tr.total("mesh.lagrangian_update"), "s"),
        "mesh.spline_project_calls": (tr.calls("mesh.spline_project"), "count"),
        "mesh.spline_project_s": (tr.total("mesh.spline_project"), "s"),
        "groups.apply_calls": (tr.calls("groups.apply_sl2", "groups.apply_kdv",
                                        "groups.apply_burgers"), "count"),
        "groups.apply_s": (tr.total("groups.apply_sl2", "groups.apply_kdv",
                                    "groups.apply_burgers"), "s"),
        "groups.prolonged_derivative_calls": (
            tr.calls("groups.prolonged_directional_derivative"), "count"),
        "groups.prolonged_derivative_s": (tr.total("groups.prolonged_directional_derivative"), "s"),
        "groups.check_symmetry_s": (tr.total("groups.check_difference_symmetry"), "s"),
        "groups.lie_rank_s": (tr.total("groups.lie_matrix_rank"), "s"),
        "invariants.catalog_calls": (tr.calls("invariants.kdv_invariants",
                                              "invariants.burgers_invariants"), "count"),
        "invariants.catalog_s": (tr.total("invariants.kdv_invariants",
                                          "invariants.burgers_invariants"), "s"),
        "invariants.cross_ratio_calls": (tr.calls("invariants.cross_ratio"), "count"),
        "invariants.cross_ratio_s": (tr.total("invariants.cross_ratio"), "s"),
        "frames.frame_calls": (tr.calls(*_FRAMES), "count"),
        "frames.frame_s": (tr.outer_total(*_FRAMES), "s"),
        "frames.normalization_s": (tr.outer_total(*_NORMALIZATIONS), "s"),
        "frames.invariantize_s": (tr.outer_total(*_INVARIANTIZE), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.remainder_s": (wall - tr.top_level_total(), "s"),
    })
    return m


_FRAMES = ("frames.sl2_discrete_frame", "frames.sl2_differential_frame",
           "frames.kdv_discrete_frame", "frames.burgers_discrete_frame")
_NORMALIZATIONS = ("frames.sl2_discrete_normalization_residuals",
                   "frames.sl2_differential_normalization_residuals",
                   "frames.kdv_normalization_residuals", "frames.burgers_normalization_residuals")
_INVARIANTIZE = ("frames.invariantize", "frames.invariantize_sl2_discrete",
                 "frames.invariantize_kdv", "frames.invariantize_burgers")


def run_rounds(wl, seconds, tracer):
    """Whole rounds until ``seconds`` have passed; with a tracer, odd rounds are traced."""
    rounds = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            res = wl.round()
        finally:
            if traced:
                tracer.uninstall()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        rounds.append({"wall": wall, "cpu": cpu, "traced": traced, "res": res,
                       "spans": tracer.take() if traced else None})
        enough = time.perf_counter() - begin >= seconds
        if enough and (tracer is None or len(rounds) >= 2):
            return rounds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    root = os.getcwd()
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        wl = workloads.setup(args.workload, args.seed, root, work)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = spans.Tracer() if args.trace else None
        rounds = run_rounds(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = rounds[0]["res"]
    for name, fp in first.fingerprints.items():
        print(f"fingerprint {args.workload} {name}: {json.dumps(fp)}")
    print(f"round wall_s {args.workload}: "
          + " ".join(f"{r['wall']:.3f}{'t' if r['traced'] else ''}" for r in rounds))
    problems = [pr for r in rounds for pr in r["res"].problems]
    for pr in problems[:20]:
        print(f"check failed: {pr}")
    out = {
        "setup_s": setup_s,
        "correct": not problems,
        "attempted": sum(r["res"].attempted for r in rounds),
        "failed": sum(r["res"].failed for r in rounds),
        "rounds": len(rounds),
    }
    if tracer is None:
        steps = sum(r["res"].steps for r in rounds)
        out["metrics"] = {
            "run_s": (statistics.median(r["wall"] for r in rounds), "s"),
            "steps_per_s": (steps / sum(r["wall"] for r in rounds), "steps/s"),
            "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        untraced = statistics.median(r["wall"] for r in rounds if not r["traced"])
        traced = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(r["spans"], r["res"], r["wall"], untraced) for r in traced]
        out["metrics"] = {name: (statistics.median(m[name][0] for m in per_round), unit)
                          for name, (_v, unit) in per_round[0].items()}
        trace_path = os.path.join(HERE, ".work", f"trace-{args.workload}-seed{args.seed}.json")
        spans.dump([r["spans"] for r in traced], trace_path,
                   {"workload": args.workload, "seed": args.seed, "traced_rounds": len(traced)})
        print(f"spans written to {os.path.relpath(trace_path, root)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
