"""Experiment drivers: filter runs, Monte-Carlo batches, replay, observability.

Everything here is deterministic for a fixed seed: worlds come from the seed,
run i draws from a generator seeded with seed + i, and aggregation reduces
runs in index order.
"""

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ekf import INVARIANT, STANDARD, Convention
from .errors import (IllConditionedInnovationError, LogDomainError,
                     MissingOdometryError)
from .gating import gate
from .group import GroupState
from .lie import so3_exp, so3_log
from .logio import ReplayStep, write_jacobian_log
from .metrics import BLOCKS, collect_samples, nees, rmse, standard_error_vector
from .observability import JacobianLog
from .simulator import SimConfig, _noise_factor, generate_world, simulate_run
from .types import FilterState, Odometry, PoseObservation, initial_filter_state

FILTER_KINDS = ("riekf", "stdekf", "ideal")
# a run whose standard error norm exceeds this at an evaluated step diverged
DIVERGENCE_ERROR = 1e3


@dataclass(frozen=True)
class FilterSpec:
    kind: str = "riekf"
    robust: bool = False

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")

    @property
    def name(self) -> str:
        return ("robust-" if self.robust else "") + self.kind

    @property
    def convention(self) -> Convention:
        return INVARIANT if self.kind == "riekf" else STANDARD


@dataclass
class RunResult:
    spec: FilterSpec
    final_state: FilterState
    trajectory: list
    metric_samples: dict = field(default_factory=dict)
    gates: list = field(default_factory=list)
    jacobian_log: JacobianLog | None = None
    diverged: bool = False
    reason: str = ""

    @property
    def rejected(self) -> int:
        return sum(1 for g in self.gates if not g[2])


def _process_observation(spec: FilterSpec, state: FilterState,
                         z: PoseObservation, lin: GroupState | None,
                         gates: list, step: int) -> FilterState:
    conv = spec.convention
    if z.feature_id not in state.mean.feature_ids:
        return conv.initialize_feature(state, z)
    inn = conv.innovation(state, z, lin)
    if spec.robust:
        decision = gate(inn)
        gates.append((step, z.feature_id, decision.accepted,
                      float(np.max(decision.margins))))
        if not decision.accepted:
            return state
    return conv.apply_update(state, inn)


def _prediction_jacobian(conv: Convention, state: FilterState,
                         obs_list: list, lin: GroupState | None):
    rows = []
    for z in obs_list:
        if z.feature_id not in state.mean.feature_ids:
            continue
        j = state.mean.index_of(z.feature_id)
        rows.append(conv.observation_jacobian(state.mean, j, lin))
    return np.vstack(rows) if rows else None


def _check_divergence(state: FilterState, truth: GroupState | None) -> str:
    if not np.all(np.isfinite(state.cov)):
        return "non-finite covariance"
    if np.linalg.eigvalsh(state.cov)[0] < -1e-6:
        return "covariance not positive semidefinite"
    if truth is not None:
        err = standard_error_vector(truth, state.mean)
        if not np.all(np.isfinite(err)):
            return "non-finite estimation error"
        if np.linalg.norm(err) > DIVERGENCE_ERROR:
            return (f"error norm {np.linalg.norm(err):.3e} above "
                    f"{DIVERGENCE_ERROR:g}")
    return ""


def simulated_steps(odometry: list, observations: list,
                    truth_states: list | None = None) -> dict:
    """The {step: ReplayStep} stream of a simulated run, as
    read_measurement_log returns it: odometry[s - 1] is recorded at step s,
    and truth records are attached when truth_states is given."""
    steps = {}
    for s, obs in enumerate(observations):
        entry = ReplayStep(odometry=odometry[s - 1] if s else None,
                           observations=obs)
        if truth_states is not None:
            t = truth_states[s]
            entry.truth_robot = (t.robot_rot, t.robot_pos)
            entry.truth_features = {fid: (t.feature_rots[j], t.feature_pos[j])
                                    for j, fid in enumerate(t.feature_ids)}
        steps[s] = entry
    return steps


def run_filter(spec: FilterSpec, steps: dict,
               truth_states: list | None = None, eval_steps=frozenset(),
               jacobian_steps: int | None = None,
               synth_noise_cov: np.ndarray | None = None) -> RunResult:
    """Drive one filter over a {step: ReplayStep} measurement stream.

    Walks steps 0 .. max(steps); a missing step has no records. The odometry
    at step s moves step s-1 to s; a step without one gets constant-velocity
    odometry synthesized from the trajectory so far, which needs
    synth_noise_cov. The ideal variant and any metric sampling need
    truth_states. With jacobian_steps set, the (F, H) Jacobians of up to that
    many steps are captured, starting on the first step after the state holds
    every feature the stream observes.
    """
    conv = spec.convention
    ideal = spec.kind == "ideal"
    if ideal and truth_states is None:
        raise ValueError("ideal filter needs ground-truth states")
    if eval_steps and truth_states is None:
        raise ValueError("metric sampling needs ground-truth states")
    if jacobian_steps is not None:
        observed = len({z.feature_id for rec in steps.values()
                        for z in rec.observations})
    state = initial_filter_state()
    result = RunResult(spec, state, [])
    jac_active = False
    log_f, log_h = [], []
    log_start = 0
    # running sum of the body-frame increments between recorded estimates;
    # it starts at the first increment, not at zeros, so it is the sum that
    # np.sum over all of them forms (a -0.0 component stays -0.0)
    increment_sum, increments = np.zeros(3), 0
    no_records = ReplayStep()
    num_steps = max(steps, default=-1)
    for step in range(num_steps + 1):
        rec = steps.get(step, no_records)
        lin_prev = truth_states[step - 1] if ideal else None
        lin_here = truth_states[step] if ideal else None
        if step > 0:
            u = rec.odometry
            if u is None:
                if synth_noise_cov is None:
                    raise MissingOdometryError(
                        f"step {step} has no odometry record; constant-velocity "
                        "synthesis needs an explicit noise covariance")
                u = synthesize_constant_velocity_odometry(increment_sum, increments,
                                                          synth_noise_cov)
            # F entries are transitions between logged steps, so the first one
            # is recorded only once an H entry exists
            if jac_active and log_h and len(log_f) < len(log_h):
                log_f.append(conv.propagation_jacobians(state, u, lin_prev)[0])
            state = conv.propagate(state, u, lin_prev)
        if jac_active and len(log_h) < jacobian_steps:
            if not log_h:
                log_start = step
            log_h.append(_prediction_jacobian(conv, state, rec.observations,
                                              lin_here))
        try:
            for z in rec.observations:
                state = _process_observation(spec, state, z, lin_here,
                                             result.gates, step)
        except (IllConditionedInnovationError, LogDomainError) as exc:
            result.diverged = True
            result.reason = f"step {step}: {exc}"
            break
        if jacobian_steps is not None and not jac_active \
                and state.mean.num_features == observed:
            jac_active = True
        if synth_noise_cov is not None and result.trajectory:
            prev_rot, prev_pos = result.trajectory[-1]
            delta = prev_rot.T @ (state.mean.robot_pos - prev_pos)
            increment_sum = delta if increments == 0 else increment_sum + delta
            increments += 1
        result.trajectory.append((state.mean.robot_rot, state.mean.robot_pos))
        if step in eval_steps or step == num_steps:
            reason = _check_divergence(state, truth_states[step]
                                       if truth_states else None)
            if reason:
                result.diverged = True
                result.reason = f"step {step}: {reason}"
                break
        if step in eval_steps:
            try:
                result.metric_samples[step] = collect_samples(
                    truth_states[step], state, conv,
                    label=f"step{step}")
            except LogDomainError as exc:
                result.diverged = True
                result.reason = f"step {step}: {exc}"
                break
    result.final_state = state
    if jacobian_steps is not None:
        mode = "ideal" if ideal else "estimated"
        log = JacobianLog(spec.kind, mode, observed, start_step=log_start)
        while log_h and len(log_f) < len(log_h):
            log_f.append(np.eye(log.state_dim))
        for f, h in zip(log_f, log_h):
            log.append(f, h)
        result.jacobian_log = log
    return result


def synthesize_constant_velocity_odometry(increment_sum: np.ndarray, count: int,
                                          noise_cov: np.ndarray) -> Odometry:
    """Zero-turn odometry whose translation is the mean of the count past
    estimated body-frame increments R_{i-1}^T (p_i - p_{i-1}), given their
    sum; zero motion while count is 0 (fewer than two estimates)."""
    if count == 0:
        return Odometry(np.eye(3), np.zeros(3), noise_cov)
    return Odometry(np.eye(3), increment_sum / count, noise_cov)


def replay_metrics(steps: dict, result: RunResult) -> dict | None:
    """Error metrics of a run against the stream's truth records: robot RMSE
    over the run's trajectory, feature RMSE of the final state against the
    last step's truth; None when no step of the trajectory has truth."""
    robot_err = []
    for step, (rot, pos) in enumerate(result.trajectory):
        rec = steps.get(step)
        if rec is not None and rec.truth_robot is not None:
            r_t, p_t = rec.truth_robot
            robot_err.append(np.concatenate([so3_log(r_t @ rot.T), p_t - pos]))
    if not robot_err:
        return None
    errs = np.asarray(robot_err)
    metrics = {
        "robot_rot_rmse": rmse(list(errs[:, 0:3])),
        "robot_pos_rmse": rmse(list(errs[:, 3:6])),
        "final_robot_rot_error": float(np.linalg.norm(errs[-1, 0:3])),
        "final_robot_pos_error": float(np.linalg.norm(errs[-1, 3:6])),
    }
    mean = result.final_state.mean
    f_rot, f_pos = [], []
    for fid, (r_t, p_t) in steps[max(steps)].truth_features.items():
        if fid in mean.feature_ids:
            j = mean.index_of(fid)
            f_rot.append(so3_log(r_t @ mean.feature_rots[j].T))
            f_pos.append(p_t - mean.feature_pos[j])
    if f_rot:
        metrics["feature_rot_rmse"] = rmse(f_rot)
        metrics["feature_pos_rmse"] = rmse(f_pos)
    return metrics


def inject_outliers(steps: dict, fraction: float, scale: float,
                    rng: np.random.Generator) -> tuple:
    """Corrupt a fraction of observations with scale-sigma noise.

    Returns the corrupted copy and the set of (step, feature_id) keys hit.
    """
    corrupted = {}
    injected = set()
    for step in sorted(steps):
        rec = steps[step]
        new_obs = []
        for z in rec.observations:
            if rng.uniform() < fraction:
                extra = scale * (_noise_factor(z.noise_cov) @ rng.standard_normal(6))
                z = PoseObservation(z.feature_id, so3_exp(extra[0:3]) @ z.rot,
                                    z.pos + extra[3:6], z.noise_cov)
                injected.add((step, z.feature_id))
            new_obs.append(z)
        corrupted[step] = replace(rec, observations=new_obs)
    return corrupted, injected


# --------------------------------------------------------------------------
# Monte-Carlo experiment
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    filters: tuple = (FilterSpec("riekf"), FilterSpec("stdekf"), FilterSpec("ideal"))
    runs: int = 50
    out_dir: Path | None = None
    eval_stride: int = 50
    noise_scale: float = 1.0
    emit_jacobian_log: bool = False
    jobs: int = 1


def _mc_worker(args):
    cfg, world, run_index, capture = args
    rng = np.random.default_rng(cfg.sim.seed + run_index)
    sim = simulate_run(cfg.sim, world, rng, cfg.noise_scale)
    steps = simulated_steps(sim.odometry, sim.observations)
    n = cfg.sim.num_steps
    eval_steps = set(range(cfg.eval_stride, n + 1, cfg.eval_stride)) | {n}
    out = {}
    for spec in cfg.filters:
        out[spec.name] = run_filter(
            spec, steps, sim.trace.states,
            eval_steps=eval_steps,
            jacobian_steps=200 if capture and spec.kind != "ideal" else None)
    return run_index, out


def run_monte_carlo(cfg: RunConfig) -> dict:
    """Run the Monte-Carlo consistency experiment and aggregate NEES/RMSE.

    Diverged runs are excluded from the averages but counted in the summary.
    Returns the summary dict; writes CSV/JSON/text outputs when out_dir is set.
    """
    world = generate_world(cfg.sim, np.random.default_rng(cfg.sim.seed))
    work = [(cfg, world, i, cfg.emit_jacobian_log and i == 0)
            for i in range(cfg.runs)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = sorted(pool.map(_mc_worker, work), key=lambda t: t[0])
    else:
        results = [_mc_worker(w) for w in work]

    n = cfg.sim.num_steps
    eval_steps = sorted(set(range(cfg.eval_stride, n + 1, cfg.eval_stride)) | {n})
    summary = {"seed": cfg.sim.seed, "runs": cfg.runs, "num_steps": n, "filters": {}}
    per_filter_rows = {}
    jac_logs = {}
    for spec in cfg.filters:
        name = spec.name
        diverged = [i for i, out in results if out[name].diverged]
        rows = []
        for step in eval_steps:
            pooled = {b: {"nees": [], "rmse": []} for b in BLOCKS}
            for i, out in results:
                res = out[name]
                if res.diverged or step not in res.metric_samples:
                    continue
                samples = res.metric_samples[step]
                for b in BLOCKS:
                    pooled[b]["nees"].extend(samples["nees"][b])
                    pooled[b]["rmse"].extend(samples["rmse"][b])
            for b in BLOCKS:
                if pooled[b]["nees"]:
                    rows.append((step, b, rmse(pooled[b]["rmse"]),
                                 nees(pooled[b]["nees"])))
        per_filter_rows[name] = rows
        final = {b: {} for b in BLOCKS}
        for step, b, r, ne in rows:
            if step == n:
                final[b] = {"rmse": r, "nees": ne}
        summary["filters"][name] = {
            "diverged_runs": len(diverged),
            "diverged_indices": diverged,
            "rejected_observations": sum(out[name].rejected for _, out in results),
            "final": final,
        }
        if cfg.emit_jacobian_log and results[0][1][name].jacobian_log is not None:
            jac_logs[name] = results[0][1][name].jacobian_log

    if cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, rows in per_filter_rows.items():
            with open(out_dir / f"metrics-{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["step", "block", "rmse", "nees"])
                for row in rows:
                    writer.writerow([row[0], row[1], f"{row[2]:.10g}", f"{row[3]:.10g}"])
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        with open(out_dir / "summary.txt", "w") as fh:
            fh.write(format_summary_table(summary))
        for name, log in jac_logs.items():
            write_jacobian_log(out_dir / f"jacobians-{name}.txt", log)
    return summary


def format_summary_table(summary: dict) -> str:
    names = list(summary["filters"])
    lines = [f"Monte-Carlo summary: {summary['runs']} runs, "
             f"{summary['num_steps']} steps, seed {summary['seed']}", ""]
    for name in names:
        d = summary["filters"][name]["diverged_runs"]
        lines.append(f"  {name}: {d} diverged run(s), "
                     f"{summary['filters'][name]['rejected_observations']} rejected obs")
    lines.append("")
    for metric in ("rmse", "nees"):
        lines.append(metric.upper())
        header = f"  {'block':<14}" + "".join(f"{n:>16}" for n in names)
        lines.append(header)
        for b in BLOCKS:
            vals = []
            for n in names:
                cell = summary["filters"][n]["final"].get(b, {})
                vals.append(f"{cell.get(metric, float('nan')):>16.4f}")
            lines.append(f"  {b:<14}" + "".join(vals))
        lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Observability experiments
# --------------------------------------------------------------------------

def observability_experiment(kind: str, num_features: int, steps: int,
                             seed: int, noisy: bool = True) -> tuple:
    """Run a filter on an always-in-range world and capture its Jacobians.

    Returns (JacobianLog, true initial state). The ideal variant runs on
    noise-free data so its linearization premise holds exactly.
    """
    loops = max(1, math.ceil((steps + 5) / 80))
    cfg = SimConfig(num_features=num_features, loops=loops, seed=seed,
                    placement="central")
    rng = np.random.default_rng(seed)
    world = generate_world(cfg, rng)
    run = simulate_run(cfg, world, rng, 1.0 if noisy else 0.0)
    spec = FilterSpec(kind)
    result = run_filter(spec, simulated_steps(run.odometry, run.observations),
                        run.trace.states, jacobian_steps=steps)
    log = result.jacobian_log
    if not noisy:
        # estimates coincide with truth on noise-free data
        log.mode = "ideal"
    anchor_state = run.trace.states[log.start_step]
    log.anchor = {"robot_pos": [float(v) for v in anchor_state.robot_pos],
                  "feature_pos": [[float(v) for v in p]
                                  for p in anchor_state.feature_pos]}
    return log, anchor_state
