"""Experiment drivers: filter runs, Monte-Carlo batches, replay, observability.

Everything here is deterministic for a fixed seed: worlds come from the seed,
run i draws from a generator seeded with seed + i, and aggregation reduces
runs in index order. Observability runs capture (F, H) over one window,
which _capture_window reads from the stream's first sightings.
"""

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ekf import Convention, FilterBatch
from .errors import FilterDivergedError, LogDomainError, MissingOdometryError
from .gating import gate
from .group import GroupState, split_tangent
from .lie import so3_exp
from .logio import (ReplayStep, landmark_truth_changes, write_jacobian_log,
                    write_measurement_log)
from .metrics import (BLOCKS, collect_samples, nees, restrict_to, rmse,
                      standard_error_vector)
from .observability import FILTERS, JacobianLog
from .simulator import (STEPS_PER_LOOP, SimConfig, _noise_factor,
                        generate_world, simulate_run)
from .types import (Failure, FilterState, Innovation, Odometry, PoseObservation,
                    initial_filter_state)

# a run whose standard error norm exceeds this at an evaluated step diverged
DIVERGENCE_ERROR = 1e3


@dataclass(frozen=True)
class FilterSpec:
    kind: str = "riekf"
    robust: bool = False

    def __post_init__(self):
        if self.kind not in FILTERS:
            raise ValueError(f"unknown filter kind {self.kind!r}")

    @property
    def name(self) -> str:
        return ("robust-" if self.robust else "") + self.kind

    @property
    def convention(self) -> Convention:
        return FILTERS[self.kind][0]

    @property
    def at_truth(self) -> bool:
        return FILTERS[self.kind][1]


@dataclass
class RunResult:
    spec: FilterSpec
    final_state: FilterState
    trajectory: list
    metric_samples: dict = field(default_factory=dict)
    gates: list = field(default_factory=list)
    jacobian_log: JacobianLog | None = None
    reason: Failure | None = None

    @property
    def diverged(self) -> bool:
        return self.reason is not None

    @property
    def rejected(self) -> int:
        return sum(1 for g in self.gates if not g[2])


def _capture_window(steps: dict) -> tuple:
    """(first step, observed feature count) of the Jacobian capture window
    of a {step: ReplayStep} stream. The window opens on the step after the
    last first sighting: a first sighting always initializes its feature and
    a failing step ends the run, so from then on the state holds every
    feature the stream observes."""
    first_seen = {}
    for s in sorted(steps):
        for z in steps[s].observations:
            first_seen.setdefault(z.feature_id, s)
    return max(first_seen.values(), default=0) + 1, len(first_seen)


def _check_divergence(state: FilterState, truth: GroupState | None) -> None:
    if not np.all(np.isfinite(state.cov)):
        raise FilterDivergedError("non-finite covariance")
    if np.linalg.eigvalsh(state.cov)[0] < -1e-6:
        raise FilterDivergedError("covariance not positive semidefinite")
    mean = state.mean
    if not (np.isfinite(mean.rotations).all() and np.isfinite(mean.positions).all()):
        raise FilterDivergedError("non-finite estimate")
    if truth is not None:
        err = standard_error_vector(truth, mean)
        if not np.all(np.isfinite(err)):
            raise FilterDivergedError("non-finite estimation error")
        if np.linalg.norm(err) > DIVERGENCE_ERROR:
            raise FilterDivergedError(f"error norm {np.linalg.norm(err):.3e} "
                                      f"above {DIVERGENCE_ERROR:g}")


def simulated_steps(odometry: list, observations: list,
                    truth_states: list | None = None) -> dict:
    """The {step: ReplayStep} stream of a simulated run, as
    read_measurement_log returns it: odometry[s - 1] is recorded at step s,
    and when truth_states is given truth records are attached as
    write_measurement_log writes them (the robot's at every step, a
    landmark's when it changes)."""
    steps = {}
    changes = landmark_truth_changes(truth_states or ())
    for s, obs in enumerate(observations):
        entry = ReplayStep(odometry=odometry[s - 1] if s else None,
                           observations=obs)
        if truth_states is not None:
            t = truth_states[s]
            entry.truth_robot = (t.robot_rot, t.robot_pos)
            entry.truth_features = {fid: (rot, pos)
                                    for fid, rot, pos in next(changes)}
        steps[s] = entry
    return steps


def run_filter(spec: FilterSpec, steps: dict,
               truth_states: list | None = None, eval_steps=frozenset(),
               jacobian_steps: int | None = None,
               synth_noise_cov: np.ndarray | None = None) -> RunResult:
    """Drive one filter over a {step: ReplayStep} measurement stream: the
    one-member case of run_filters, which documents the arguments."""
    return run_filters((spec,), steps, truth_states, eval_steps, jacobian_steps,
                       synth_noise_cov)[0]


def run_filters(specs, steps: dict, truth_states: list | None = None,
                eval_steps=frozenset(), jacobian_steps: int | None = None,
                synth_noise_cov: np.ndarray | None = None) -> list:
    """Drive filters over one {step: ReplayStep} measurement stream as the
    members of one FilterBatch; one RunResult per spec, in spec order.

    Walks steps 0 .. max(steps); a missing step has no records. The odometry
    at step s moves step s-1 to s; a step without one gets constant-velocity
    odometry synthesized from each filter's trajectory so far, which needs
    synth_noise_cov. The ideal variant and any metric sampling need
    truth_states. With jacobian_steps set, each result's jacobian_log is the
    finished log of up to that many steps of (F, H), from the step after the
    stream's last first sighting of a feature (_capture_window), when the
    state holds every feature the stream observes; with truth_states it is
    anchored at the window's first true state, features in the filter
    state's order. A filter failure ends that filter's run as diverged,
    with reason Failure(step, cause), while the others go on: the failing
    member stays in its batch row, masked out of every update, and no later
    step reads its numbers. final_state is the estimate of the last
    trajectory row, so a failure never leaves the failing step's state. A
    filter's result does not depend on which others share its batch.
    """
    specs = tuple(specs)
    if any(spec.at_truth for spec in specs) and truth_states is None:
        raise ValueError("ideal filter needs ground-truth states")
    if eval_steps and truth_states is None:
        raise ValueError("metric sampling needs ground-truth states")
    window = range(0)  # the steps whose H is captured
    if jacobian_steps is not None:
        start, observed = _capture_window(steps)
        window = range(start, start + jacobian_steps)
    results = [RunResult(spec, initial_filter_state(), [], jacobian_log=(
        JacobianLog(spec.kind, "ideal" if spec.at_truth else "estimated", observed)
        if jacobian_steps is not None else None)) for spec in specs]
    # the members of one convention side by side, so that each convention's
    # blocks are one slice of the batch; members[i] is batch row i's result
    members = sorted(results, key=lambda r: (r.spec.convention.name, r.spec.at_truth))
    batch = FilterBatch.start([r.spec.convention for r in members],
                              [r.spec.at_truth for r in members])
    # (batch row, result) of each member that has not failed, and the rows
    # of those that have
    live, frozen = list(enumerate(members)), []
    # the robot poses of every member, and how many of them each keeps
    num_steps = max(steps, default=-1)
    traj_rot = np.empty((len(members), num_steps + 1, 3, 3))
    traj_pos = np.empty((len(members), num_steps + 1, 3))
    lengths = [num_steps + 1] * len(members)
    world = ({fid: i for i, fid in enumerate(truth_states[0].feature_ids)}
             if truth_states else {})
    # running sums of the body-frame increments between recorded estimates;
    # each starts at the first increment, not at zeros, so it is the sum that
    # np.sum over all of them forms (a -0.0 component stays -0.0)
    increment_sum, increments = np.zeros(batch.pos[..., 0, :].shape), 0
    last_pose = None  # the members' robot poses of the last step
    no_records = ReplayStep()

    def truth_at(step):
        # the true robot rotation and positions, features in the state's order
        if not batch.at_truth.any():
            return None
        t = truth_states[step]
        idx = [world[fid] for fid in batch.feature_ids]
        return t.robot_rot, np.concatenate([t.robot_pos[None], t.feature_pos[idx]])

    truth = truth_at(0) if num_steps >= 0 else None

    def freeze(failures: dict, step: int, before) -> None:
        # before is the batch at the step's start, or None when the failing
        # member's own state at the step's end is its last
        nonlocal live, frozen
        for i, exc in failures.items():
            members[i].reason = Failure(step, str(exc))
            members[i].final_state = (batch if before is None else before).member(i)
            lengths[i] = step + 1 if before is None else step
        live = [(i, res) for i, res in enumerate(members) if not res.diverged]
        frozen = [i for i, res in enumerate(members) if res.diverged]

    # an overflow becomes a diverged run with its cause (below), so numpy's
    # own warnings about it would only repeat that cause
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(num_steps + 1):
            if not live:
                break
            rec = steps.get(step, no_records)
            before = batch.snapshot()
            if step > 0:
                u = rec.odometry
                if u is None:
                    if synth_noise_cov is None:
                        raise MissingOdometryError(
                            f"step {step} has no odometry record; constant-velocity "
                            "synthesis needs an explicit noise covariance")
                    u = synthesize_constant_velocity_odometry(
                        increment_sum, increments, synth_noise_cov)
                # F entries are the transitions out of the window's steps
                if step - 1 in window:
                    for i, res in live:
                        u_i = Odometry(u.rot, u.pos if u.pos.ndim == 1 else u.pos[i],
                                       u.noise_cov)
                        res.jacobian_log.F.append(res.spec.convention.propagation_jacobians(
                            FilterState(batch.member_mean(i), batch.at(batch.cov, i)), u_i,
                            truth_states[step - 1] if res.spec.at_truth else None)[0])
                # the previous step's truth, after its last initialization
                batch.propagate(u, truth)
                truth = truth_at(step)
            if step in window:
                for i, res in live:
                    _capture_h(res, batch.member_mean(i), rec.observations, step,
                               window.start, truth_states)
            for z in rec.observations:
                if z.feature_id not in batch.feature_ids:
                    batch.initialize(z)
                    truth = truth_at(step)
                    continue
                inn = batch.innovation(z, truth)
                rejected = []
                for i, res in live:
                    if res.spec.robust:
                        decision = gate(Innovation(batch.at(inn.y, i), batch.at(inn.S, i),
                                                   batch.at(inn.HP, i)))
                        res.gates.append((step, z.feature_id, decision.accepted,
                                          float(np.max(decision.margins))))
                        if not decision.accepted:
                            rejected.append(i)
                accept = None  # None: every member
                if rejected or frozen:
                    if len(rejected) == len(live):
                        continue  # no member to correct
                    accept = np.ones(len(members), dtype=bool)
                    accept[rejected + frozen] = False
                failures = batch.update(inn, accept)
                if failures:
                    freeze(failures, step, before)
                    if not live:
                        break
            before = None  # from here on a failing member's last state is its own
            robot_rot, robot_pos = batch.rot[..., 0, :, :], batch.pos[..., 0, :]
            if synth_noise_cov is not None and last_pose is not None:
                prev_rot, prev_pos = last_pose
                delta = np.matvec(np.swapaxes(prev_rot, -1, -2), robot_pos - prev_pos)
                increment_sum = delta if increments == 0 else increment_sum + delta
                increments += 1
            last_pose = robot_rot, robot_pos
            traj_rot[:, step], traj_pos[:, step] = robot_rot, robot_pos
            if step in eval_steps or step == num_steps:
                failures = _evaluate(batch, live, step, truth_states, step in eval_steps)
                if failures:
                    freeze(failures, step, None)
    for i, res in live:
        # views: the batch's buffers go with it
        res.final_state = FilterState(batch.member_mean(i), batch.at(batch.cov, i))
    for i, res in enumerate(members):
        n = lengths[i]
        res.trajectory = list(zip(traj_rot[i, :n], traj_pos[i, :n]))
        if n:
            # the final state's robot pose is the last trajectory row
            mean, (rot, pos) = res.final_state.mean, res.trajectory[-1]
            res.final_state = FilterState(replace(mean, robot_rot=rot, robot_pos=pos),
                                          res.final_state.cov)
        log = res.jacobian_log
        if log is not None:
            # a run that ended inside the window has no F out of its last step
            log.F += [np.eye(log.state_dim) for _ in range(len(log.H) - len(log.F))]
    return results


def _evaluate(batch: FilterBatch, live: list, step: int,
              truth_states: list | None, sample: bool) -> dict:
    """{batch row: error} of the live (batch row, result) members whose
    state fails the divergence check (against truth when given) or, with
    sample, the metric sampling that adds to their results."""
    failures = {}
    truth = truth_states[step] if truth_states else None
    for i, res in live:
        state = FilterState(batch.member_mean(i), batch.at(batch.cov, i))
        try:
            _check_divergence(state, truth)
            if sample:
                res.metric_samples[step] = collect_samples(truth, state,
                                                           res.spec.convention)
        except (LogDomainError, FilterDivergedError) as exc:
            failures[i] = exc
    return failures


def _capture_h(res: RunResult, mean: GroupState, observations: list, step: int,
               start: int, truth_states: list | None) -> None:
    """Append the step's stacked H (None without observations) to res's log;
    the window's first step also sets the log's start and anchor."""
    log = res.jacobian_log
    if step == start:
        log.start_step = step
        if truth_states is not None:
            t = restrict_to(truth_states[step], mean.feature_ids)
            log.anchor = {"robot_pos": t.robot_pos.tolist(),
                          "feature_pos": t.feature_pos.tolist()}
    lin = truth_states[step] if res.spec.at_truth else None
    h = [res.spec.convention.observation_jacobian(mean, mean.index_of(z.feature_id), lin)
         for z in observations]
    log.H.append(np.vstack(h) if h else None)


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
    over the run's trajectory, feature RMSE of the final state against each
    landmark's latest truth record (a log writes one only when the landmark
    moves); None when no step of the trajectory has truth."""
    timed = [s for s in range(len(result.trajectory))
             if s in steps and steps[s].truth_robot is not None]
    if not timed:
        return None
    true_rot, true_pos = map(np.array, zip(*(steps[s].truth_robot for s in timed)))
    est_rot, est_pos = map(np.array, zip(*(result.trajectory[s] for s in timed)))
    no_features = (np.zeros((len(timed), 0, 3, 3)), np.zeros((len(timed), 0, 3)))
    rot_err, pos_err = split_tangent(standard_error_vector(
        GroupState(true_rot, true_pos, *no_features),
        GroupState(est_rot, est_pos, *no_features)), 0)
    metrics = {
        "robot_rot_rmse": rmse(rot_err[:, 0]),
        "robot_pos_rmse": rmse(pos_err[:, 0]),
        "final_robot_rot_error": float(np.linalg.norm(rot_err[-1, 0])),
        "final_robot_pos_error": float(np.linalg.norm(pos_err[-1, 0])),
    }
    mean = result.final_state.mean
    truth = {}
    for step in sorted(steps):
        truth.update(steps[step].truth_features)
    ids = tuple(fid for fid in truth if fid in mean.feature_ids)
    if ids:
        est = restrict_to(mean, ids)
        true = replace(est, feature_rots=np.array([truth[fid][0] for fid in ids]),
                       feature_pos=np.array([truth[fid][1] for fid in ids]))
        rot_err, pos_err = split_tangent(standard_error_vector(true, est), len(ids))
        metrics["feature_rot_rmse"] = rmse(rot_err[1:])
        metrics["feature_pos_rmse"] = rmse(pos_err[1:])
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
    export_log: Path | None = None  # where run 0's measurement log goes


def _mc_worker(args):
    cfg, world, run_index, capture, eval_steps = args
    rng = np.random.default_rng(cfg.sim.seed + run_index)
    sim = simulate_run(cfg.sim, world, rng, cfg.noise_scale)
    if run_index == 0 and cfg.export_log is not None:
        write_measurement_log(cfg.export_log, sim.odometry, sim.observations,
                              trace=sim.trace)
    steps = simulated_steps(sim.odometry, sim.observations)
    out = {}
    for res in run_filters(cfg.filters, steps, sim.trace.states,
                           eval_steps=eval_steps,
                           jacobian_steps=200 if capture else None):
        # aggregation never reads the poses, so no run holds or pickles them
        res.trajectory = []
        out[res.spec.name] = res
    return run_index, out


def run_monte_carlo(cfg: RunConfig) -> dict:
    """Run the Monte-Carlo consistency experiment and aggregate NEES/RMSE.

    Diverged runs are excluded from the averages but counted in the summary.
    Returns the summary dict; writes CSV/JSON/text outputs when out_dir is set.
    """
    world = generate_world(cfg.sim, np.random.default_rng(cfg.sim.seed))
    n = cfg.sim.num_steps
    eval_steps = set(range(cfg.eval_stride, n + 1, cfg.eval_stride)) | {n}
    work = [(cfg, world, i, cfg.emit_jacobian_log and i == 0, eval_steps)
            for i in range(cfg.runs)]
    # the fork start method starts every worker at once, so no more than
    # one per run
    workers = min(cfg.jobs, cfg.runs)
    if workers > 1:
        # imported here so that a single-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = sorted(pool.map(_mc_worker, work), key=lambda t: t[0])
    else:
        results = [_mc_worker(w) for w in work]

    summary = {"seed": cfg.sim.seed, "runs": cfg.runs, "num_steps": n, "filters": {}}
    per_filter_rows = {}
    for spec in cfg.filters:
        name = spec.name
        diverged = [i for i, out in results if out[name].diverged]
        kept = [out[name] for _, out in results if not out[name].diverged]
        rows = []
        for step in sorted(eval_steps):
            samples = [res.metric_samples[step] for res in kept
                       if step in res.metric_samples]
            if not samples:
                continue
            for b in BLOCKS:
                errors, covs, std_errors = (np.concatenate(parts) for parts in
                                            zip(*(s[b] for s in samples)))
                if len(errors):
                    rows.append((step, b, rmse(std_errors),
                                 nees(errors, covs, label=f"step {step}, {b}")))
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
        if cfg.emit_jacobian_log:
            for name, res in results[0][1].items():
                write_jacobian_log(out_dir / f"jacobians-{name}.txt", res.jacobian_log)
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

    Returns (JacobianLog, true state at the window's first step, where
    run_filter anchors the log). The stream is cut after the capture window's
    last step (_capture_window), so no step past it is filtered. A noise-free
    run's log is labelled ideal: its estimates coincide with truth.
    """
    loops = max(1, math.ceil((steps + 5) / STEPS_PER_LOOP))
    cfg = SimConfig(num_features=num_features, loops=loops, seed=seed,
                    placement="central")
    rng = np.random.default_rng(seed)
    world = generate_world(cfg, rng)
    run = simulate_run(cfg, world, rng, 1.0 if noisy else 0.0)
    stream = simulated_steps(run.odometry, run.observations)
    # nothing after the capture window's last F (step start + steps) is read
    end = _capture_window(stream)[0] + steps
    result = run_filter(FilterSpec(kind),
                        {s: rec for s, rec in stream.items() if s <= end},
                        run.trace.states, jacobian_steps=steps)
    log = result.jacobian_log
    if not noisy:
        log.mode = "ideal"
    return log, run.trace.states[log.start_step]
