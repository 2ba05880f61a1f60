"""Command-line front end: simulate, replay, observability, check-jacobians."""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import MalformedRecordError, MissingOdometryError
from .harness import (FILTER_KINDS, FilterSpec, RunConfig, format_summary_table,
                      observability_experiment, replay_metrics, run_filter,
                      run_monte_carlo)
from .lie import rot_to_quat
from .logio import (read_jacobian_log, read_measurement_log,
                    write_jacobian_log, write_measurement_log)
from .observability import check_null_space
from .oracles import jacobian_check_suite
from .simulator import SimConfig, generate_world, simulate_run


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{value} is not a positive finite number")
    return value


def _filter_specs(name: str, robust: bool) -> tuple:
    kinds = FILTER_KINDS if name == "all" else (name,)
    return tuple(FilterSpec(k, robust=robust) for k in kinds)


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=_positive_float, nargs=6, metavar="S",
                   help="odometry noise stddevs (3 rotation rad, 3 position m)")
    p.add_argument("--omega", type=_positive_float, nargs=6, metavar="S",
                   help="observation noise stddevs (3 rotation rad, 3 position m)")


def _sim_config(args) -> SimConfig:
    cfg = SimConfig(num_features=args.num_features, loops=args.loops,
                    seed=args.seed)
    if args.sigma or args.omega:
        cfg = cfg.with_noise(args.sigma or [0.1] * 6, args.omega or [0.1] * 6)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = RunConfig(
        sim=_sim_config(args),
        filters=_filter_specs(args.filter, args.robust),
        runs=args.runs,
        out_dir=Path(args.out) if args.out else None,
        eval_stride=args.eval_stride,
        noise_scale=0.0 if args.zero_noise else 1.0,
        emit_jacobian_log=args.emit_jacobian_log,
        jobs=args.jobs,
    )
    if args.export_log:
        rng = np.random.default_rng(args.seed)
        world = generate_world(cfg.sim, rng)
        run = simulate_run(cfg.sim, world, np.random.default_rng(args.seed),
                           cfg.noise_scale)
        write_measurement_log(args.export_log, run.odometry, run.observations,
                              trace=run.trace)
    summary = run_monte_carlo(cfg)
    print(format_summary_table(summary))
    diverged = sum(f["diverged_runs"] for f in summary["filters"].values())
    return 0 if diverged == 0 else 1


def _cmd_replay(args) -> int:
    steps = read_measurement_log(args.log)
    spec = FilterSpec(args.filter, robust=args.robust)
    synth_cov = None
    if args.synth_odom:
        if args.odom_sigma is None:
            print("--synth-odom requires --odom-sigma (no default exists)",
                  file=sys.stderr)
            return 2
        synth_cov = np.diag(np.asarray(args.odom_sigma, dtype=float) ** 2)
    try:
        result = run_filter(spec, steps, synth_noise_cov=synth_cov)
    except MissingOdometryError as exc:
        print(f"{exc}; replay with --synth-odom --odom-sigma S S S S S S",
              file=sys.stderr)
        return 2
    mean = result.final_state.mean
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trajectory.csv", "w") as fh:
        fh.write("step,qw,qx,qy,qz,x,y,z\n")
        for i, (rot, pos) in enumerate(result.trajectory):
            q = rot_to_quat(rot)
            fh.write(f"{i}," + ",".join(f"{v:.12g}" for v in (*q, *pos)) + "\n")
    with open(out / "features.csv", "w") as fh:
        fh.write("feature_id,qw,qx,qy,qz,x,y,z\n")
        for fid, rot, pos in zip(mean.feature_ids, mean.feature_rots, mean.feature_pos):
            q = rot_to_quat(rot)
            fh.write(f"{fid}," + ",".join(f"{v:.12g}" for v in (*q, *pos)) + "\n")
    with open(out / "gates.csv", "w") as fh:
        fh.write("step,feature_id,accepted,max_margin\n")
        for step, fid, accepted, margin in result.gates:
            fh.write(f"{step},{fid},{int(accepted)},{margin:.6g}\n")
    metrics = replay_metrics(steps, result)
    if metrics is not None:
        with open(out / "metrics.json", "w") as fh:
            json.dump(metrics, fh, indent=2)
        print(json.dumps(metrics, indent=2))
    print(f"replayed {len(result.trajectory)} steps, "
          f"{mean.num_features} features, "
          f"{result.rejected} rejected observations")
    if result.diverged:
        print(f"filter diverged: {result.reason}", file=sys.stderr)
        return 1
    return 0


def _cmd_observability(args) -> int:
    if args.jacobian_log:
        log = read_jacobian_log(args.jacobian_log)
    else:
        noisy = args.mode == "estimated"
        # an ideal run linearizes at truth; for the invariant filter that is a
        # noise-free run (estimate == truth), for the standard one the ideal kind
        if args.filter == "riekf":
            kind = "riekf"
        else:
            kind = "stdekf" if noisy else "ideal"
        log, _ = observability_experiment(
            kind, args.num_features, args.steps, args.seed, noisy=noisy)
        if args.save_log:
            write_jacobian_log(args.save_log, log)
    report = check_null_space(log, tol=args.tol)
    payload = report.to_dict()
    print(json.dumps(payload, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    return 0 if report.passed else 1


def _cmd_check_jacobians(args) -> int:
    report = jacobian_check_suite(seed=args.seed, num_states=args.num_states)
    print(f"finite-difference checks (tolerance {report['fd_tolerance']:g}):")
    for name, err in sorted(report["fd_errors"].items()):
        status = "ok" if err < report["fd_tolerance"] else "FAIL"
        print(f"  {name:<10} max rel error {err:.3e}  {status}")
    print(f"sampling checks (tolerance {report['sampling_tolerance']:g}):")
    for name, err in sorted(report["sampling_errors"].items()):
        status = "ok" if err < report["sampling_tolerance"] else "FAIL"
        print(f"  {name:<18} rel error {err:.3e}  {status}")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="objectslam",
        description="EKF SLAM with 6-DoF object landmarks: simulation, replay, "
                    "observability analysis, Jacobian self-tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte-Carlo consistency experiment")
    p.add_argument("--filter", choices=[*FILTER_KINDS, "all"], default="all")
    p.add_argument("--robust", action="store_true", help="enable 3-sigma gating")
    p.add_argument("--runs", "-m", type=_positive_int, default=50,
                   help="Monte-Carlo runs (default 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loops", type=_positive_int, default=25)
    p.add_argument("--num-features", type=_positive_int, default=6)
    p.add_argument("--eval-stride", type=_positive_int, default=50)
    p.add_argument("--zero-noise", action="store_true",
                   help="noise-free measurements (filter covariances unchanged)")
    p.add_argument("--emit-jacobian-log", action="store_true")
    p.add_argument("--export-log", metavar="PATH",
                   help="write run 0's measurement log (with truth records)")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_noise_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("replay", help="run a filter over a measurement log")
    p.add_argument("--log", required=True)
    p.add_argument("--filter", choices=["riekf", "stdekf"], default="riekf")
    p.add_argument("--robust", action="store_true")
    p.add_argument("--synth-odom", action="store_true",
                   help="constant-velocity odometry for steps without records")
    p.add_argument("--odom-sigma", type=_positive_float, nargs=6, metavar="S",
                   help="noise stddevs for synthesized odometry (required with "
                        "--synth-odom; the assumption fixes no magnitude)")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("observability", help="null-space verification")
    p.add_argument("--jacobian-log", metavar="PATH",
                   help="check a previously saved Jacobian log")
    p.add_argument("--filter", choices=["riekf", "stdekf"], default="riekf")
    p.add_argument("--mode", choices=["estimated", "ideal"], default="estimated")
    p.add_argument("--num-features", type=_positive_int, default=1)
    p.add_argument("--steps", type=_positive_int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--save-log", metavar="PATH")
    p.add_argument("--out", metavar="PATH", help="write the JSON report here")
    p.set_defaults(func=_cmd_observability)

    p = sub.add_parser("check-jacobians", help="finite-difference oracle suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-states", type=_positive_int, default=100)
    p.set_defaults(func=_cmd_check_jacobians)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedRecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
