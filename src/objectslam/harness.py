"""Experiment drivers: filter runs, Monte-Carlo batches, replay, oracle checks.

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

from .ekf import INVARIANT, STANDARD, Convention, propagate_mean
from .errors import (IllConditionedInnovationError, LogDomainError,
                     MissingOdometryError)
from .gating import gate
from .group import GroupState, pos_block, rot_block, tangent_dim
from .lie import (batch_left_jacobian, batch_so3_exp, batch_so3_log,
                  random_rotation, so3_exp, so3_log)
from .logio import ReplayStep, write_jacobian_log
from .metrics import BLOCKS, collect_samples, nees, rmse, standard_error_vector
from .observability import JacobianLog
from .simulator import SimConfig, _noise_factor, generate_world, simulate_run
from .types import FilterState, Odometry, PoseObservation, initial_filter_state

FILTER_KINDS = ("riekf", "stdekf", "ideal")


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


def _check_divergence(state: FilterState, truth: GroupState | None,
                      limit: float) -> str:
    if not np.all(np.isfinite(state.cov)):
        return "non-finite covariance"
    if np.linalg.eigvalsh(state.cov)[0] < -1e-6:
        return "covariance not positive semidefinite"
    if truth is not None:
        err = standard_error_vector(truth, state.mean)
        if not np.all(np.isfinite(err)):
            return "non-finite estimation error"
        if np.linalg.norm(err) > limit:
            return f"error norm {np.linalg.norm(err):.3e} above {limit:g}"
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
               jacobian_steps: int | None = None, divergence_error: float = 1e3,
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
                                       if truth_states else None, divergence_error)
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
    runs: int | None = None
    seed: int | None = None
    out_dir: Path | None = None
    eval_stride: int = 50
    noise_scale: float = 1.0
    emit_jacobian_log: bool = False
    jobs: int = 1


def _mc_worker(args):
    cfg, world, run_index, capture = args
    rng = np.random.default_rng((cfg.seed
                                 if cfg.seed is not None else cfg.sim.seed) + run_index)
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
    seed = cfg.seed if cfg.seed is not None else cfg.sim.seed
    runs = cfg.runs if cfg.runs is not None else cfg.sim.monte_carlo_runs
    world = generate_world(cfg.sim, np.random.default_rng(seed))
    work = [(replace(cfg, seed=seed), world, i, cfg.emit_jacobian_log and i == 0)
            for i in range(runs)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = sorted(pool.map(_mc_worker, work), key=lambda t: t[0])
    else:
        results = [_mc_worker(w) for w in work]

    n = cfg.sim.num_steps
    eval_steps = sorted(set(range(cfg.eval_stride, n + 1, cfg.eval_stride)) | {n})
    summary = {"seed": seed, "runs": runs, "num_steps": n, "filters": {}}
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


# --------------------------------------------------------------------------
# Jacobian oracle suite (finite differences + sampling)
# --------------------------------------------------------------------------

def _numeric_jacobian(fn, dim: int, eps: float = 1e-6) -> np.ndarray:
    cols = []
    for i in range(dim):
        d = np.zeros(dim)
        d[i] = eps
        cols.append((fn(d) - fn(-d)) / (2.0 * eps))
    return np.column_stack(cols)


def _random_state(rng: np.random.Generator, k: int) -> FilterState:
    ids = tuple(f"obj{j}" for j in range(k))
    mean = GroupState(random_rotation(rng), rng.normal(size=3),
                      np.stack([random_rotation(rng) for _ in range(k)])
                      if k else np.zeros((0, 3, 3)),
                      rng.normal(size=(k, 3)), ids)
    a = rng.normal(size=(tangent_dim(k), tangent_dim(k)))
    cov = 0.01 * (a @ a.T) + 0.001 * np.eye(tangent_dim(k))
    return FilterState(mean, cov)


def _exact_observation(mean: GroupState, j: int, cov: np.ndarray) -> PoseObservation:
    rt = mean.robot_rot.T
    return PoseObservation(mean.feature_ids[j], rt @ mean.feature_rots[j],
                           rt @ (mean.feature_pos[j] - mean.robot_pos), cov)


def _noisy_odometry_of(u: Odometry, w: np.ndarray) -> Odometry:
    return Odometry(so3_exp(w[0:3]) @ u.rot, u.pos + w[3:6], u.noise_cov)


def _augmented_truth(true_state: GroupState, z: PoseObservation,
                     v: np.ndarray) -> GroupState:
    """Exact new-feature pose implied by observation z under noise v."""
    new_rot = true_state.robot_rot @ so3_exp(-v[0:3]) @ z.rot
    new_pos = true_state.robot_pos + true_state.robot_rot @ (z.pos - v[3:6])
    return GroupState(
        true_state.robot_rot, true_state.robot_pos,
        np.concatenate([true_state.feature_rots, new_rot[None]]),
        np.concatenate([true_state.feature_pos, new_pos[None]]),
        true_state.feature_ids + (z.feature_id,))


def jacobian_check_suite(seed: int = 0, num_states: int = 100,
                         overrides: dict | None = None,
                         sampling_samples: int = 20000) -> dict:
    """Compare every analytic Jacobian against central finite differences and
    the augmentation covariances against a sampling oracle.

    Each convention is perturbed with its own retraction and measured with
    its own error map. overrides maps check names to replacement
    analytic-matrix callables; used by negative-control tests to prove the
    suite catches sign bugs.
    """
    rng = np.random.default_rng(seed)
    overrides = overrides or {}
    fd_errors = {f"{tag}.{name}": 0.0 for tag in ("ri", "std")
                 for name in ("F", "G", "H", "aug")}

    def check(name, analytic, fn, dim):
        if name in overrides:
            analytic = overrides[name](analytic)
        fd = _numeric_jacobian(fn, dim)
        err = float(np.linalg.norm(analytic - fd)
                    / max(np.linalg.norm(analytic), 1e-12))
        fd_errors[name] = max(fd_errors[name], err)

    for _ in range(num_states):
        k = int(rng.integers(1, 4))
        state = _random_state(rng, k)
        mean = state.mean
        d = tangent_dim(k)
        u = Odometry(random_rotation(rng), rng.normal(size=3),
                     np.diag(rng.uniform(0.01, 0.1, size=6) ** 2))
        j = int(rng.integers(0, k))
        omega = np.diag(rng.uniform(0.01, 0.1, size=6) ** 2)
        z_new = PoseObservation("new", random_rotation(rng),
                                rng.normal(size=3), omega)
        pred = propagate_mean(mean, u)
        # analytic Jacobians at the estimate against errors perturbed about it
        for conv, tag in ((INVARIANT, "ri"), (STANDARD, "std")):
            f, g = conv.propagation_jacobians(state, u)
            check(f"{tag}.F", f, lambda xi: conv.error(
                propagate_mean(conv.retract(mean, xi), u), pred), d)
            check(f"{tag}.G", g, lambda w: conv.error(
                propagate_mean(mean, _noisy_odometry_of(u, w)), pred), 6)
            check(f"{tag}.H", conv.observation_jacobian(mean, j),
                  lambda xi: conv.innovation(state, _exact_observation(
                      conv.retract(mean, xi), j, omega)).y, d)
            a, b = conv.augmentation_jacobians(state, z_new)
            est_aug = conv.initialize_feature(state, z_new).mean
            check(f"{tag}.aug", np.hstack([a, b]), lambda xiv: conv.error(
                _augmented_truth(conv.retract(mean, xiv[:d]), z_new, xiv[d:]),
                est_aug), d + 6)

    sampling = {}
    for conv in (INVARIANT, STANDARD):
        state = _random_state(rng, 1)
        state = FilterState(state.mean,
                            0.005 ** 2 * np.eye(tangent_dim(1))
                            + 0.003 ** 2 * np.ones((tangent_dim(1),) * 2) / 12)
        omega = np.diag(rng.uniform(0.004, 0.01, size=6) ** 2)
        z = PoseObservation("new", random_rotation(rng), rng.normal(size=3), omega)
        analytic = conv.initialize_feature(state, z).cov
        emp = sample_augmented_covariance(state, z, conv.name,
                                          sampling_samples, rng)
        sampling[f"{conv.name}.P_aug"] = float(
            np.linalg.norm(emp - analytic) / np.linalg.norm(analytic))

    fd_pass = all(v < 1e-4 for v in fd_errors.values())
    sampling_pass = all(v < 0.05 for v in sampling.values())
    return {"fd_errors": fd_errors, "fd_tolerance": 1e-4,
            "sampling_errors": sampling, "sampling_tolerance": 0.05,
            "passed": fd_pass and sampling_pass}


# --------------------------------------------------------------------------
# Vectorized sampling oracle for the augmentation covariance
# --------------------------------------------------------------------------

def sample_augmented_covariance(state: FilterState, z: PoseObservation,
                                convention: str, n: int,
                                rng: np.random.Generator) -> np.ndarray:
    """Empirical covariance of the augmented error from n joint samples.

    Pushes state errors and observation noise through the exact nonlinear
    augmentation, then extracts errors in the requested convention. Entirely
    independent of the analytic covariance construction.
    """
    mean = state.mean
    k = mean.num_features
    d = tangent_dim(k)
    xi = rng.multivariate_normal(np.zeros(d), state.cov, size=n)
    v = rng.multivariate_normal(np.zeros(6), z.noise_cov, size=n)

    e_r = batch_so3_exp(xi[:, rot_block(0)])
    r_true = e_r @ mean.robot_rot
    jl = batch_left_jacobian(xi[:, rot_block(0)])
    if convention == "invariant":
        p_true = (e_r @ mean.robot_pos) \
            + np.einsum("nij,nj->ni", jl, xi[:, pos_block(0, k)])
    else:
        p_true = mean.robot_pos[None] + xi[:, pos_block(0, k)]
    f_rots_true, f_pos_true = [], []
    for j in range(k):
        e_f = batch_so3_exp(xi[:, rot_block(j + 1)])
        f_rots_true.append(e_f @ mean.feature_rots[j])
        if convention == "invariant":
            f_pos_true.append((e_r @ mean.feature_pos[j])
                              + np.einsum("nij,nj->ni", jl, xi[:, pos_block(j + 1, k)]))
        else:
            f_pos_true.append(mean.feature_pos[j][None] + xi[:, pos_block(j + 1, k)])

    # exact augmentation of the true state under observation noise v
    new_rot_true = r_true @ batch_so3_exp(-v[:, 0:3]) @ z.rot
    new_pos_true = p_true + np.einsum("nij,nj->ni", r_true, z.pos[None] - v[:, 3:6])

    est_rot_new = mean.robot_rot @ z.rot
    est_pos_new = mean.robot_pos + mean.robot_rot @ z.pos

    d_aug = d + 6
    out = np.empty((n, d_aug))
    k_aug = k + 1
    if convention == "invariant":
        phi_r = batch_so3_log(r_true @ mean.robot_rot.T)
        out[:, rot_block(0)] = phi_r
        jinv = np.linalg.inv(batch_left_jacobian(phi_r))
        d_r = r_true @ mean.robot_rot.T
        out[:, pos_block(0, k_aug)] = np.einsum(
            "nij,nj->ni", jinv, p_true - np.einsum("nij,j->ni", d_r, mean.robot_pos))
        for j in range(k):
            out[:, rot_block(j + 1)] = batch_so3_log(
                f_rots_true[j] @ mean.feature_rots[j].T)
            out[:, pos_block(j + 1, k_aug)] = np.einsum(
                "nij,nj->ni", jinv,
                f_pos_true[j] - np.einsum("nij,j->ni", d_r, mean.feature_pos[j]))
        out[:, rot_block(k + 1)] = batch_so3_log(
            new_rot_true @ est_rot_new.T)
        out[:, pos_block(k + 1, k_aug)] = np.einsum(
            "nij,nj->ni", jinv,
            new_pos_true - np.einsum("nij,j->ni", d_r, est_pos_new))
    else:
        out[:, rot_block(0)] = batch_so3_log(r_true @ mean.robot_rot.T)
        out[:, pos_block(0, k_aug)] = p_true - mean.robot_pos
        for j in range(k):
            out[:, rot_block(j + 1)] = batch_so3_log(
                f_rots_true[j] @ mean.feature_rots[j].T)
            out[:, pos_block(j + 1, k_aug)] = f_pos_true[j] - mean.feature_pos[j]
        out[:, rot_block(k + 1)] = batch_so3_log(new_rot_true @ est_rot_new.T)
        out[:, pos_block(k + 1, k_aug)] = new_pos_true - est_pos_new
    return np.cov(out.T)
