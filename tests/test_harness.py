import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalar_reference
from objectslam import harness
from objectslam.ekf import STANDARD
from objectslam.group import GroupState
from objectslam.errors import (LogDomainError, MissingOdometryError,
                               SingularCovarianceError)
from objectslam.harness import (FilterSpec, RunConfig, inject_outliers,
                                replay_metrics, run_filter, run_filters,
                                run_monte_carlo, simulated_steps,
                                synthesize_constant_velocity_odometry)
from objectslam.lie import random_rotation, so3_log
from objectslam.logio import (ReplayStep, read_measurement_log,
                              write_jacobian_log, write_measurement_log)
from objectslam.metrics import collect_samples, rmse, standard_error_vector
from objectslam.observability import check_null_space
from objectslam.oracles import jacobian_check_suite
from objectslam.simulator import SimConfig, generate_world, simulate_run
from objectslam.types import FilterState, Odometry, PoseObservation


def small_sim(seed=0, loops=1, noise_scale=1.0, num_features=6):
    cfg = SimConfig(loops=loops, seed=seed, num_features=num_features)
    world = generate_world(cfg, np.random.default_rng(seed))
    return cfg, simulate_run(cfg, world, np.random.default_rng(seed),
                             noise_scale)


def simulated(run):
    return simulated_steps(run.odometry, run.observations)


def run_digest(res):
    h = hashlib.sha256()
    for rot, pos in res.trajectory:
        h.update(rot.tobytes())
        h.update(pos.tobytes())
    m = res.final_state.mean
    for a in (m.robot_rot, m.robot_pos, m.feature_rots, m.feature_pos,
              res.final_state.cov):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# Output digests of run_filter over these inputs when it took odometry and
# observation lists (before streams), recorded on x86-64 with numpy 2.4 and
# OpenBLAS; another BLAS build may round differently.
LIST_INPUT_DIGESTS = {
    "riekf": "41fa39a073a6af6a", "robust-riekf": "3090a3ea9e441b75",
    "stdekf": "89222f558bc10f0d", "robust-stdekf": "842d17f1914b0f03",
    "ideal": "6ca844d8ed065dc2", "robust-ideal": "57c1d9166737e223",
}


def test_run_filter_deterministic():
    cfg, run = small_sim(seed=1)
    a = run_filter(FilterSpec("riekf"), simulated(run), run.trace.states)
    b = run_filter(FilterSpec("riekf"), simulated(run), run.trace.states)
    for (r1, p1), (r2, p2) in zip(a.trajectory, b.trajectory):
        assert np.array_equal(r1, r2)
        assert np.array_equal(p1, p2)
    # a simulated run as a stream gives the list-driven results bit for bit
    for kind in ("riekf", "stdekf", "ideal"):
        for robust in (False, True):
            spec = FilterSpec(kind, robust=robust)
            res = run_filter(spec, simulated(run), run.trace.states)
            assert run_digest(res) == LIST_INPUT_DIGESTS[spec.name], spec.name


def assert_same_result(a, b):
    """Bit for bit: trajectory, final mean and covariance bytes, gates and
    reason."""
    assert len(a.trajectory) == len(b.trajectory)
    for (r1, p1), (r2, p2) in zip(a.trajectory, b.trajectory):
        assert r1.tobytes() == r2.tobytes() and p1.tobytes() == p2.tobytes()
    for x, y in ((a.final_state.mean.rotations, b.final_state.mean.rotations),
                 (a.final_state.mean.positions, b.final_state.mean.positions),
                 (a.final_state.cov, b.final_state.cov)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert a.gates == b.gates and a.reason == b.reason


def test_a_filter_runs_alike_alone_and_in_a_batch():
    cfg, run = small_sim(seed=1)
    steps, truth = simulated(run), run.trace.states
    eval_steps = {40, 80}
    kinds = ("riekf", "stdekf", "ideal")
    alone = {k: run_filter(FilterSpec(k), steps, truth, eval_steps) for k in kinds}
    for order in (kinds, kinds[::-1], ("stdekf", "riekf", "ideal")):
        batch = run_filters([FilterSpec(k) for k in order], steps, truth, eval_steps)
        assert [res.spec.kind for res in batch] == list(order)
        for res in batch:
            assert_same_result(res, alone[res.spec.kind])
            assert res.metric_samples.keys() == alone[res.spec.kind].metric_samples.keys()


def test_a_filter_runs_alike_beside_one_that_diverges():
    # one 1e200-scale outlier: riekf's correction overflows and the run ends
    # there, while robust-riekf rejects it and goes on
    cfg, run = small_sim(seed=1)
    obs = [list(o) for o in run.observations]
    step = next(s for s in range(40, len(obs)) if obs[s])
    z = obs[step][0]
    obs[step][0] = PoseObservation(z.feature_id, z.rot, z.pos + 1e200, z.noise_cov)
    steps = simulated_steps(run.odometry, obs)
    specs = [FilterSpec("riekf"), FilterSpec("riekf", robust=True), FilterSpec("stdekf")]
    alone = [run_filter(spec, steps) for spec in specs]
    assert alone[0].diverged and str(alone[0].reason) == f"step {step}: non-finite estimate"
    assert len(alone[0].trajectory) == step
    accepted = {(g[0], g[1]): g[2] for g in alone[1].gates}
    assert not alone[1].diverged and len(alone[1].trajectory) == len(obs)
    assert accepted[step, z.feature_id] is False
    for batch in (run_filters(specs[:2], steps), run_filters(specs, steps)):
        for res, ref in zip(batch, alone):
            assert_same_result(res, ref)


# batch rows hold the invariant members first, then the standard ones, each
# in spec order; riekf and stdekf diverge on the outlier, the robust members
# reject it
DIVERGING_ROWS = {
    "first": ("riekf", "robust-riekf", "robust-stdekf"),
    "middle": ("robust-riekf", "riekf", "robust-stdekf"),
    "last": ("robust-stdekf", "robust-riekf", "stdekf"),
}


def spec_of(name):
    return FilterSpec(name.removeprefix("robust-"), robust=name.startswith("robust-"))


@pytest.mark.parametrize("row", sorted(DIVERGING_ROWS))
def test_a_filter_runs_alike_beside_one_that_diverges_in_any_row(row):
    cfg, run = small_sim(seed=1)
    obs = [list(o) for o in run.observations]
    step = next(s for s in range(40, len(obs)) if obs[s])
    z = obs[step][0]
    obs[step][0] = PoseObservation(z.feature_id, z.rot, z.pos + 1e200, z.noise_cov)
    steps = simulated_steps(run.odometry, obs)
    specs = [spec_of(name) for name in DIVERGING_ROWS[row]]
    batch = run_filters(specs, steps)
    assert [res.spec for res in batch] == specs
    for res in batch:
        assert res.diverged != res.spec.robust
        assert len(res.trajectory) == (len(obs) if res.spec.robust else step)
        assert_same_result(res, run_filter(res.spec, steps))


def test_filters_that_fail_in_one_update_run_alike_in_a_batch():
    # every member's S has condition number 1e20 at step 5, so all three
    # freeze in the same update
    steps, _ = corridor_steps(num_steps=12)
    synth_cov = np.diag([0.02] * 3 + [0.05] * 3) ** 2
    bad = np.diag([1e20] + [1.0] * 5)
    steps[5].observations = [PoseObservation(z.feature_id, z.rot, z.pos, bad)
                             for z in steps[5].observations]
    specs = [FilterSpec("stdekf"), FilterSpec("riekf", robust=True), FilterSpec("riekf")]
    for res in run_filters(specs, steps, synth_noise_cov=synth_cov):
        assert str(res.reason).startswith("step 5: ")
        assert len(res.trajectory) == 5
        assert_same_result(res, run_filter(res.spec, steps, synth_noise_cov=synth_cov))


def test_a_filter_frozen_at_an_evaluated_step_runs_alike_in_a_batch():
    # an observation 1e5 off with a tiny claimed noise, three steps before
    # the evaluated step 40: riekf follows it and fails the error-norm check
    # there, while robust-riekf rejects it and runs on
    cfg, run = small_sim(seed=4, loops=1)
    obs = [list(o) for o in run.observations]
    z = obs[37][0]
    obs[37][0] = PoseObservation(z.feature_id, z.rot, z.pos + 1e5, 1e-6 * np.eye(6))
    steps, truth = simulated_steps(run.odometry, obs), run.trace.states
    eval_steps = {20, 40, 60}
    specs = [FilterSpec("riekf"), FilterSpec("riekf", robust=True)]
    alone = [run_filter(spec, steps, truth, eval_steps) for spec in specs]
    assert str(alone[0].reason).startswith("step 40: error norm")
    assert len(alone[0].trajectory) == 41 and list(alone[0].metric_samples) == [20]
    assert not alone[1].diverged and len(alone[1].trajectory) == len(obs)
    assert list(alone[1].metric_samples) == [20, 40, 60]
    for res, ref in zip(run_filters(specs, steps, truth, eval_steps), alone):
        assert_same_result(res, ref)
        assert res.metric_samples.keys() == ref.metric_samples.keys()
        for step, blocks in res.metric_samples.items():
            for name, arrays in blocks.items():
                for a, b in zip(arrays, ref.metric_samples[step][name], strict=True):
                    assert a.tobytes() == b.tobytes()


def test_a_robust_filter_frozen_in_a_batch_stops_gating_and_capturing(monkeypatch):
    # metric sampling fails for the standard convention at step 15, inside
    # the capture window: robust-stdekf freezes there, and its gates, its
    # Jacobian log and its metric samples stop as in its alone run, while
    # robust-riekf runs on
    def failing_sample(truth, state, conv):
        if conv is STANDARD:
            raise LogDomainError("rotation angle at pi")
        return collect_samples(truth, state, conv)

    monkeypatch.setattr(harness, "collect_samples", failing_sample)
    run, obs = late_feature_run()
    steps, truth = simulated_steps(run.odometry, obs), run.trace.states
    steps, _ = inject_outliers(steps, 0.1, 20.0, np.random.default_rng(2))
    eval_steps = {15, 25, 40}
    specs = [FilterSpec("stdekf", robust=True), FilterSpec("riekf", robust=True)]
    alone = [run_filter(spec, steps, truth, eval_steps, jacobian_steps=20)
             for spec in specs]
    assert str(alone[0].reason) == "step 15: rotation angle at pi"
    assert not alone[1].diverged and alone[1].rejected
    for res, ref in zip(run_filters(specs, steps, truth, eval_steps, jacobian_steps=20),
                        alone):
        assert_same_result(res, ref)
        assert res.metric_samples.keys() == ref.metric_samples.keys()
        for mine, theirs in ((res.jacobian_log.F, ref.jacobian_log.F),
                             (res.jacobian_log.H, ref.jacobian_log.H)):
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_filters_match_the_scalar_reference():
    # the one-state-at-a-time loop that preceded the batch, on the inputs of
    # LIST_INPUT_DIGESTS (whose pins it reproduces) and of SIMULATE_DIGESTS
    cfg, run = small_sim(seed=1)
    streams = [(simulated(run), run.trace.states)]
    sim = SimConfig(loops=1, seed=11)
    world = generate_world(sim, np.random.default_rng(11))
    for i in range(2):
        r = simulate_run(sim, world, np.random.default_rng(11 + i))
        streams.append((simulated(r), r.trace.states))
    specs = [FilterSpec(k, robust=robust) for k in ("riekf", "stdekf", "ideal")
             for robust in (False, True)]
    for steps, truth in streams:
        for res in run_filters(specs, steps, truth):
            assert scalar_reference.deviation(
                res, scalar_reference.run(res.spec, steps, truth)) < 1e-12


def test_zero_noise_runs_track_truth_exactly():
    cfg, run = small_sim(seed=2, loops=2, noise_scale=0.0)
    for kind in ("riekf", "stdekf", "ideal"):
        res = run_filter(FilterSpec(kind), simulated(run), run.trace.states)
        assert not res.diverged
        err = standard_error_vector(run.trace.states[-1], res.final_state.mean)
        assert np.max(np.abs(err)) < 1e-8


def test_ideal_requires_truth():
    cfg, run = small_sim(seed=3)
    with pytest.raises(ValueError):
        run_filter(FilterSpec("ideal"), simulated(run), None)


def test_divergence_flagged_not_crashed():
    cfg, run = small_sim(seed=4, loops=1)
    # corrupt the final observation catastrophically with a tiny claimed noise
    obs = [list(o) for o in run.observations]
    assert obs[-1], "expected at least one observation at the final step"
    z = obs[-1][0]
    obs[-1][0] = PoseObservation(z.feature_id, z.rot, z.pos + 1e6,
                                 1e-6 * np.eye(6))
    res = run_filter(FilterSpec("riekf"), simulated_steps(run.odometry, obs),
                     run.trace.states)
    assert res.diverged
    assert "step" in str(res.reason)


def test_jacobian_check_suite_passes():
    report = jacobian_check_suite(seed=0, num_states=15, sampling_samples=20_000)
    assert report["passed"]
    assert all(v < 1e-4 for v in report["fd_errors"].values())
    assert all(v < 0.05 for v in report["sampling_errors"].values())


def test_jacobian_check_suite_catches_injected_sign_bug():
    for name in ("ri.G", "std.H", "ri.aug"):
        report = jacobian_check_suite(seed=0, num_states=2, sampling_samples=2000,
                                      overrides={name: lambda m: -m})
        assert not report["passed"]
        assert report["fd_errors"][name] > 1e-2


def body_increments(poses):
    """R_{i-1}^T (p_i - p_{i-1}) for consecutive (rotation, position) pairs."""
    return [r0.T @ (p1 - p0) for (r0, p0), (_, p1) in zip(poses, poses[1:])]


def synthesize_from(poses, noise_cov):
    deltas = body_increments(poses)
    total = np.sum(deltas, axis=0) if deltas else np.zeros(3)
    return synthesize_constant_velocity_odometry(total, len(deltas), noise_cov)


def test_constant_velocity_synthesis_no_history():
    u = synthesize_constant_velocity_odometry(np.zeros(3), 0, np.eye(6))
    assert np.allclose(u.rot, np.eye(3))
    assert np.allclose(u.pos, 0.0)
    u = synthesize_from([(np.eye(3), np.zeros(3))], np.eye(6))
    assert np.allclose(u.pos, 0.0)


def test_constant_velocity_synthesis_exact_history():
    poses = [(np.eye(3), np.array([0.1 * i, 0.0, 0.0])) for i in range(10)]
    u = synthesize_from(poses, np.eye(6))
    assert np.allclose(u.rot, np.eye(3))
    assert np.allclose(u.pos, [0.1, 0.0, 0.0], atol=1e-14)


def test_constant_velocity_synthesis_is_mean_of_increments():
    # the running sum run_filter keeps gives the mean over the explicit
    # trajectory, bit for bit
    rng = np.random.default_rng(11)
    poses = [(random_rotation(rng), rng.normal(size=3)) for _ in range(40)]
    total = np.zeros(3)
    for n, delta in enumerate(body_increments(poses)):
        total = delta if n == 0 else total + delta
        u = synthesize_constant_velocity_odometry(total, n + 1, np.eye(6))
        expected = np.mean(body_increments(poses[:n + 2]), axis=0)
        assert np.array_equal(u.pos, expected)
        assert np.array_equal(u.rot, np.eye(3))


def test_replay_synthesizes_mean_of_recorded_increments(monkeypatch):
    # run_filter's running sum must give, at every synthesized step, the mean
    # increment of the trajectory recorded before that step
    made = []

    def spy(*args):
        u = synthesize_constant_velocity_odometry(*args)
        made.append(u.pos)
        return u

    monkeypatch.setattr(harness, "synthesize_constant_velocity_odometry", spy)
    steps, _ = corridor_steps(num_steps=30)
    synth_cov = np.diag([0.02] * 3 + [0.05] * 3) ** 2
    traj = run_filter(FilterSpec("riekf"), steps,
                      synth_noise_cov=synth_cov).trajectory
    assert len(made) == 30 and len(traj) == 31
    assert np.array_equal(made[0], np.zeros(3))
    for step in range(2, 31):
        expected = np.mean(body_increments(traj[:step]), axis=0)
        assert np.array_equal(made[step - 1], expected)


def corridor_steps(num_steps=120, step=0.1):
    """Noise-free straight-line world with features along the corridor."""
    rng = np.random.default_rng(5)
    n_feat = 8
    ids = tuple(f"obj{j}" for j in range(n_feat))
    fpos = np.array([[1.0 + 2.0 * j, 1.0, 0.0] for j in range(n_feat)])
    frots = np.stack([random_rotation(rng) for _ in range(n_feat)])
    cfg = SimConfig(num_features=n_feat)
    cfg = cfg.with_noise([0.1] * 6, [0.01] * 6)
    from objectslam.logio import ReplayStep
    steps = {}
    truth = []
    for i in range(num_steps + 1):
        state = GroupState(np.eye(3), np.array([step * i, 0.0, 0.0]),
                           frots, fpos, ids)
        truth.append(state)
        # the exact relative poses of the features in sensing range
        obs = simulate_run(dataclasses.replace(cfg, loops=0), state,
                           np.random.default_rng(0),
                           noise_scale=0.0).observations[0]
        entry = ReplayStep(observations=obs,
                           truth_robot=(state.robot_rot, state.robot_pos))
        entry.truth_features = {fid: (frots[j], fpos[j])
                                for j, fid in enumerate(ids)}
        steps[i] = entry
    return steps, truth


def test_replay_with_constant_velocity_odometry_converges():
    steps, truth = corridor_steps()
    synth_cov = np.diag([0.02] * 3 + [0.05] * 3) ** 2
    result = run_filter(FilterSpec("riekf"), steps, synth_noise_cov=synth_cov)
    assert not result.diverged
    # synthesized odometry approaches the true per-step translation
    u = synthesize_from(result.trajectory, synth_cov)
    assert np.linalg.norm(u.pos - [0.1, 0.0, 0.0]) < 0.02
    assert replay_metrics(steps, result)["robot_pos_rmse"] < 0.1


def test_replay_without_odometry_and_without_sigma_fails():
    steps, _ = corridor_steps(num_steps=3)
    with pytest.raises(MissingOdometryError, match="step 1 .*noise covariance"):
        run_filter(FilterSpec("riekf"), steps)


def per_pose_replay_metrics(steps, result):
    """replay_metrics as it once was: one so3_log per pose."""
    robot_err = []
    for step, (rot, pos) in enumerate(result.trajectory):
        rec = steps.get(step)
        if rec is not None and rec.truth_robot is not None:
            r_t, p_t = rec.truth_robot
            robot_err.append(np.concatenate([so3_log(r_t @ rot.T), p_t - pos]))
    errs = np.asarray(robot_err)
    metrics = {
        "robot_rot_rmse": rmse(errs[:, 0:3]),
        "robot_pos_rmse": rmse(errs[:, 3:6]),
        "final_robot_rot_error": float(np.linalg.norm(errs[-1, 0:3])),
        "final_robot_pos_error": float(np.linalg.norm(errs[-1, 3:6])),
    }
    mean = result.final_state.mean
    truth = {}
    for step in sorted(steps):
        truth.update(steps[step].truth_features)
    f_rot, f_pos = [], []
    for fid, (r_t, p_t) in truth.items():
        if fid in mean.feature_ids:
            j = mean.index_of(fid)
            f_rot.append(so3_log(r_t @ mean.feature_rots[j].T))
            f_pos.append(p_t - mean.feature_pos[j])
    metrics["feature_rot_rmse"] = rmse(np.asarray(f_rot))
    metrics["feature_pos_rmse"] = rmse(np.asarray(f_pos))
    return metrics


@pytest.mark.parametrize("kind", ["riekf", "stdekf"])
def test_replay_metrics_match_per_pose_loops(kind):
    # robust replay of a stream with outliers, where some steps lack robot
    # truth, one estimated feature has no truth record and one feature with
    # truth records is never observed
    _, run = small_sim(seed=4, loops=2)
    steps = simulated_steps(run.odometry, run.observations, run.trace.states)
    steps, _ = inject_outliers(steps, 0.05, 20.0, np.random.default_rng(4))
    untracked, unseen = run.trace.states[0].feature_ids[1:3]
    for step, rec in steps.items():
        rec.observations = [z for z in rec.observations if z.feature_id != unseen]
        rec.truth_features.pop(untracked, None)
        if step % 7 == 3:
            rec.truth_robot = None
    result = run_filter(FilterSpec(kind, robust=True), steps)
    ids = result.final_state.mean.feature_ids
    assert untracked in ids and unseen not in ids and result.rejected
    assert replay_metrics(steps, result) == per_pose_replay_metrics(steps, result)


def test_replay_empty_log():
    result = run_filter(FilterSpec("riekf"), {})
    assert result.trajectory == []
    assert result.final_state.mean.num_features == 0
    assert not result.diverged
    assert replay_metrics({}, result) is None


def test_gap_step_replays_with_synthesized_odometry(monkeypatch):
    # a step missing from the stream has no records: its odometry is
    # synthesized and it still gets a trajectory entry
    made = []

    def spy(*args):
        made.append(args[1])
        return synthesize_constant_velocity_odometry(*args)

    monkeypatch.setattr(harness, "synthesize_constant_velocity_odometry", spy)
    cfg, run = small_sim(seed=12)
    steps = simulated(run)
    gaps = (7, 8, 30)
    for step in gaps:
        del steps[step]
    synth_cov = np.diag([0.02] * 3 + [0.05] * 3) ** 2
    result = run_filter(FilterSpec("riekf"), steps, run.trace.states,
                        synth_noise_cov=synth_cov)
    assert not result.diverged
    assert len(result.trajectory) == max(steps) + 1 == cfg.num_steps + 1
    # one synthesis per gap, from every increment estimated before it
    assert made == [step - 1 for step in gaps]
    with pytest.raises(MissingOdometryError, match="step 7 "):
        run_filter(FilterSpec("riekf"), steps, run.trace.states)


def test_mid_stream_filter_failure_is_diverged_with_its_step():
    steps, _ = corridor_steps(num_steps=12)
    synth_cov = np.diag([0.02] * 3 + [0.05] * 3) ** 2
    # an observation noise with condition number 1e20 makes S unusable
    bad = np.diag([1e20] + [1.0] * 5)
    steps[5].observations = [PoseObservation(z.feature_id, z.rot, z.pos, bad)
                             for z in steps[5].observations]
    result = run_filter(FilterSpec("riekf"), steps, synth_noise_cov=synth_cov)
    assert result.diverged
    assert str(result.reason).startswith("step 5: ")
    assert "condition number" in str(result.reason)
    assert len(result.trajectory) == 5
    assert replay_metrics(steps, result)["robot_pos_rmse"] < 0.1


def test_a_run_that_fails_at_an_evaluated_step_ends_there(monkeypatch):
    # metric sampling fails at step 4 and step 5's S is unusable: the run
    # ends at step 4, and no later step is filtered
    def failing_sample(truth, state, conv):
        raise LogDomainError("rotation angle at pi")

    monkeypatch.setattr(harness, "collect_samples", failing_sample)
    steps, truth = corridor_steps(num_steps=12)
    synth_cov = np.diag([0.02] * 3 + [0.05] * 3) ** 2
    bad = np.diag([1e20] + [1.0] * 5)
    steps[5].observations = [PoseObservation(z.feature_id, z.rot, z.pos, bad)
                             for z in steps[5].observations]
    result = run_filter(FilterSpec("riekf"), steps, truth, eval_steps={4},
                        synth_noise_cov=synth_cov)
    assert str(result.reason) == "step 4: rotation angle at pi"
    assert len(result.trajectory) == 5


@pytest.mark.parametrize("kind", ["riekf", "stdekf"])
def test_failure_after_propagation_keeps_the_last_good_state(kind):
    # a step-10 odometry translation of 1e308 fails step 10 after its
    # propagation; the final state is the step-9 estimate, not the overflow
    cfg = SimConfig(num_features=2, loops=1, seed=3)
    world = generate_world(cfg, np.random.default_rng(3))
    run = simulate_run(cfg, world, np.random.default_rng(4))
    odometry = list(run.odometry)
    u = odometry[9]
    odometry[9] = Odometry(u.rot, np.array([1e308, 0.0, 0.0]), u.noise_cov)
    result = run_filter(FilterSpec(kind), simulated_steps(odometry, run.observations))
    assert result.diverged and str(result.reason).startswith("step 10: ")
    assert len(result.trajectory) == 10
    rot, pos = result.trajectory[-1]
    assert result.final_state.mean.robot_rot is rot
    assert result.final_state.mean.robot_pos is pos
    assert np.isfinite(result.final_state.cov).all()


def test_simulated_truth_records_match_the_written_log(tmp_path):
    _, run = small_sim(seed=6)
    path = tmp_path / "run.jsonl"
    write_measurement_log(path, run.odometry, run.observations, trace=run.trace)
    parsed = read_measurement_log(path)
    direct = simulated_steps(run.odometry, run.observations, run.trace.states)
    assert list(direct) == list(parsed)
    assert list(direct[0].truth_features) == list(run.trace.states[0].feature_ids)
    for step, entry in direct.items():
        assert list(entry.truth_features) == list(parsed[step].truth_features)
        for (r1, p1), (r2, p2) in zip(
                [entry.truth_robot, *entry.truth_features.values()],
                [parsed[step].truth_robot, *parsed[step].truth_features.values()]):
            assert np.allclose(r1, r2, rtol=0.0, atol=1e-14)
            assert np.array_equal(p1, p2)


def test_replay_metrics_take_each_landmarks_latest_truth():
    ids = ("a", "b")
    rots = np.stack([np.eye(3)] * 2)
    before, after = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), \
        np.array([[1.5, 0.0, 0.0], [0.0, 2.0, 0.0]])
    robot = (np.eye(3), np.zeros(3))
    steps = {0: ReplayStep(truth_robot=robot,
                           truth_features={fid: (rots[j], before[j])
                                           for j, fid in enumerate(ids)}),
             1: ReplayStep(truth_robot=robot, truth_features={"a": (rots[0], after[0])}),
             2: ReplayStep(truth_robot=robot)}
    mean = GroupState(np.eye(3), np.zeros(3), rots, after, ids)
    result = harness.RunResult(FilterSpec("riekf"), FilterState(mean, np.eye(18)),
                               [robot] * 3)
    metrics = replay_metrics(steps, result)
    assert metrics["feature_pos_rmse"] == 0.0
    assert metrics["feature_rot_rmse"] == 0.0


def test_replay_reproduces_exported_simulation(tmp_path):
    cfg, run = small_sim(seed=6, loops=2)
    path = tmp_path / "run.jsonl"
    write_measurement_log(path, run.odometry, run.observations, trace=run.trace)
    steps = read_measurement_log(path)
    direct = run_filter(FilterSpec("riekf"), simulated(run), run.trace.states)
    replayed = run_filter(FilterSpec("riekf"), steps)
    assert len(replayed.trajectory) == len(direct.trajectory)
    for (r1, p1), (r2, p2) in zip(direct.trajectory, replayed.trajectory):
        assert np.linalg.norm(p1 - p2) < 1e-9
        assert np.linalg.norm(r1 - r2) < 1e-9
    # replaying the same file twice is bit-exact
    replayed2 = run_filter(FilterSpec("riekf"), read_measurement_log(path))
    for (r1, p1), (r2, p2) in zip(replayed.trajectory, replayed2.trajectory):
        assert np.array_equal(r1, r2)
        assert np.array_equal(p1, p2)


def test_inject_outliers_marks_and_corrupts(tmp_path):
    cfg, run = small_sim(seed=7, loops=1)
    path = tmp_path / "run.jsonl"
    write_measurement_log(path, run.odometry, run.observations, trace=run.trace)
    steps = read_measurement_log(path)
    corrupted, injected = inject_outliers(steps, 0.10, 10.0,
                                          np.random.default_rng(0))
    total = sum(len(s.observations) for s in steps.values())
    assert 0.04 * total < len(injected) < 0.2 * total
    changed = 0
    for step in steps:
        for z_old, z_new in zip(steps[step].observations,
                                corrupted[step].observations):
            if not np.array_equal(z_old.pos, z_new.pos):
                changed += 1
                assert (step, z_new.feature_id) in injected
    assert changed == len(injected)


def test_robust_filter_beats_plain_filter_on_outliers(tmp_path):
    cfg, run = small_sim(seed=8, loops=2)
    path = tmp_path / "run.jsonl"
    write_measurement_log(path, run.odometry, run.observations, trace=run.trace)
    steps = read_measurement_log(path)
    corrupted, injected = inject_outliers(steps, 0.05, 10.0,
                                          np.random.default_rng(1))
    plain = run_filter(FilterSpec("riekf"), corrupted)
    robust = run_filter(FilterSpec("riekf", robust=True), corrupted)
    rejected_keys = {(step, fid) for step, fid, accepted, _ in robust.gates
                     if not accepted}
    caught = sum(1 for key in injected if key in rejected_keys)
    assert caught / len(injected) >= 0.95
    assert replay_metrics(corrupted, robust)["robot_pos_rmse"] \
        < replay_metrics(corrupted, plain)["robot_pos_rmse"]


def test_clean_run_rejection_rate_low():
    cfg, run = small_sim(seed=9, loops=2)
    res = run_filter(FilterSpec("riekf", robust=True), simulated(run),
                     run.trace.states)
    total = len(res.gates)
    assert total > 100
    assert res.rejected / total <= 0.05


def test_run_monte_carlo_summary_and_outputs(tmp_path):
    cfg = RunConfig(sim=SimConfig(loops=1, seed=21),
                    filters=(FilterSpec("riekf"), FilterSpec("stdekf"),
                             FilterSpec("ideal")),
                    runs=3, out_dir=tmp_path / "out", eval_stride=40)
    summary = run_monte_carlo(cfg)
    assert summary["runs"] == 3
    for name in ("riekf", "stdekf", "ideal"):
        assert summary["filters"][name]["diverged_runs"] == 0
        final = summary["filters"][name]["final"]
        assert set(final) == {"robot-rot", "robot-pos", "robot-pose",
                              "feature-rot", "feature-pos", "feature-pose"}
        for cell in final.values():
            assert np.isfinite(cell["nees"]) and cell["nees"] > 0
            assert np.isfinite(cell["rmse"]) and cell["rmse"] > 0
    assert (tmp_path / "out" / "metrics-riekf.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "summary.txt").exists()
    header = (tmp_path / "out" / "metrics-riekf.csv").read_text().splitlines()[0]
    assert header == "step,block,rmse,nees"


def test_run_monte_carlo_deterministic(tmp_path):
    cfg = RunConfig(sim=SimConfig(loops=1, seed=22), runs=2,
                    filters=(FilterSpec("riekf"),), eval_stride=40,
                    out_dir=tmp_path / "a")
    s1 = run_monte_carlo(cfg)
    cfg2 = RunConfig(sim=SimConfig(loops=1, seed=22), runs=2,
                     filters=(FilterSpec("riekf"),), eval_stride=40,
                     out_dir=tmp_path / "b")
    s2 = run_monte_carlo(cfg2)
    assert s1 == s2
    assert (tmp_path / "a" / "metrics-riekf.csv").read_bytes() == \
        (tmp_path / "b" / "metrics-riekf.csv").read_bytes()


def test_worker_pool_matches_sequential(tmp_path):
    base = dict(sim=SimConfig(loops=1, seed=24), runs=3,
                filters=(FilterSpec("riekf"),), eval_stride=40)
    s1 = run_monte_carlo(RunConfig(jobs=1, **base))
    s2 = run_monte_carlo(RunConfig(jobs=2, **base))
    assert s1 == s2


def test_importing_the_cli_loads_no_process_pool():
    # only a run with jobs > 1 pays for multiprocessing
    import objectslam
    env = dict(os.environ, PYTHONPATH=str(Path(objectslam.__file__).parents[1]))
    probe = ("import sys, objectslam.cli; "
             "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def test_monte_carlo_worker_results_carry_no_trajectory():
    cfg = RunConfig(sim=SimConfig(loops=1, seed=24), runs=1, eval_stride=40)
    world = generate_world(cfg.sim, np.random.default_rng(cfg.sim.seed))
    index, out = harness._mc_worker((cfg, world, 0, True, {40, 80}))
    assert index == 0 and set(out) == {"riekf", "stdekf", "ideal"}
    for result in out.values():
        assert result.trajectory == []
        assert not result.diverged and result.metric_samples


def test_zero_noise_monte_carlo_errors_vanish():
    cfg = RunConfig(sim=SimConfig(loops=1, seed=23), runs=1,
                    filters=(FilterSpec("riekf"),), noise_scale=0.0,
                    eval_stride=40)
    summary = run_monte_carlo(cfg)
    final = summary["filters"]["riekf"]["final"]
    assert final["robot-pose"]["rmse"] < 1e-8
    assert final["feature-pose"]["rmse"] < 1e-8


def test_singular_pooled_covariance_names_step_and_block():
    # without odometry noise the robot's rotation covariance stays zero
    cfg = RunConfig(sim=SimConfig(loops=1, seed=3).with_noise([0.0] * 6, [0.1] * 6),
                    runs=2, filters=(FilterSpec("riekf"),), eval_stride=40)
    with pytest.raises(SingularCovarianceError, match="step 40, robot-rot"):
        run_monte_carlo(cfg)


def test_jacobian_capture_waits_for_the_observed_features_only():
    # one world feature is never observed; capture must not wait for it
    cfg = SimConfig(num_features=3, loops=1, seed=5, placement="central")
    world = generate_world(cfg, np.random.default_rng(5))
    run = simulate_run(cfg, world, np.random.default_rng(5))
    hidden = world.feature_ids[1]
    obs = [[z for z in o if z.feature_id != hidden] for o in run.observations]
    seen, full_at = set(), None
    for step, o in enumerate(obs):
        seen |= {z.feature_id for z in o}
        if full_at is None and len(seen) == cfg.num_features - 1:
            full_at = step
    assert full_at is not None and full_at + 20 < len(obs)
    for kind in ("riekf", "stdekf"):
        res = run_filter(FilterSpec(kind), simulated_steps(run.odometry, obs),
                         run.trace.states, jacobian_steps=20)
        log = res.jacobian_log
        assert log.num_features == cfg.num_features - 1
        assert log.start_step == full_at + 1
        assert len(log.F) == len(log.H) == 20
        assert check_null_space(log).passed


def late_feature_run():
    """Seed-5 central world whose third feature is first seen at step 10, so
    the state holds every observed feature from step 10 and the capture
    window opens at step 11."""
    cfg = SimConfig(num_features=3, loops=1, seed=5, placement="central")
    world = generate_world(cfg, np.random.default_rng(5))
    run = simulate_run(cfg, world, np.random.default_rng(5))
    late = world.feature_ids[2]
    obs = [[z for z in o if step >= 10 or z.feature_id != late]
           for step, o in enumerate(run.observations)]
    assert all(len(o) == 3 for o in obs[10:])
    return run, obs


# (diverged, reason, len(trajectory)) and the sha256 of the written Jacobian
# log of each way a capture window can end early, recorded before run_filter
# had one failure path and before it anchored its logs (so the log is hashed
# without its anchor); same platform caveat as LIST_INPUT_DIGESTS.
CAPTURE_END_PINS = {
    ("riekf", "diverges-in-window"): (
        True, "step 16: innovation covariance condition number 9.924e+19", 16,
        "d90f1f671c26bb60d785f262f386020a7df5ea260a62fc8f24cde8656af3eae2"),
    ("stdekf", "diverges-in-window"): (
        True, "step 16: innovation covariance condition number 9.926e+19", 16,
        "6feb1d565416c05a1c710281ed0df9404c331e8fc35c9ff2e4e53ce0aefcf24e"),
    ("riekf", "stream-ends-in-window"): (
        False, "", 21,
        "8aa8a1f6c700f3577edd7aba96d0fdb0b9896ad5e49076a03c1cc71c6a860858"),
    ("stdekf", "stream-ends-in-window"): (
        False, "", 21,
        "8bc5db338fa842edd0d923717a7e6ff1c6e1fb2ed09091d84bed671c1fcffddf"),
    ("riekf", "stream-ends-on-activation"): (
        False, "", 11,
        "da3ec8177e04ca749b6ce4ed98c81b22247c14d370338f983c2983cfb22f6801"),
    ("stdekf", "stream-ends-on-activation"): (
        False, "", 11,
        "022786e1372194fc4eb64e45eee9d8f8d9547712940380b904881949e2eb051f"),
    ("riekf", "metric-fails-in-window"): (
        True, "step 15: rotation angle at pi", 16,
        "f36e0c9786f10d2f47ddec033036a2ca6b460122990d95c8a6b013b58ff0ace5"),
    ("stdekf", "metric-fails-in-window"): (
        True, "step 15: rotation angle at pi", 16,
        "42522ebdbafe2d25b37b1b4269d8f20ba4d67508ffccd3ce500ba7a95d2bc225"),
}


@pytest.mark.parametrize("kind, case", sorted(CAPTURE_END_PINS),
                         ids=[f"{k}-{c}" for k, c in sorted(CAPTURE_END_PINS)])
def test_capture_window_ends_as_pinned(tmp_path, monkeypatch, kind, case):
    run, obs = late_feature_run()
    eval_steps = frozenset()
    if case == "diverges-in-window":
        bad = np.diag([1e20] + [1.0] * 5)
        obs[16] = [PoseObservation(z.feature_id, z.rot, z.pos, bad)
                   for z in obs[16]]
    elif case == "stream-ends-in-window":
        obs = obs[:21]
    elif case == "stream-ends-on-activation":
        obs = obs[:11]
    else:
        def failing_sample(truth, state, conv):
            raise LogDomainError("rotation angle at pi")
        monkeypatch.setattr(harness, "collect_samples", failing_sample)
        eval_steps = frozenset({15})
    res = run_filter(FilterSpec(kind),
                     simulated_steps(run.odometry[:len(obs) - 1], obs),
                     run.trace.states, eval_steps=eval_steps, jacobian_steps=20)
    log = res.jacobian_log
    path = tmp_path / "jacobians.txt"
    write_jacobian_log(path, dataclasses.replace(log, anchor=None))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    reason = str(res.reason) if res.diverged else ""
    assert (res.diverged, reason, len(res.trajectory), digest) == \
        CAPTURE_END_PINS[kind, case]
    if case == "stream-ends-on-activation":
        assert log.start_step == 0 and log.F == log.H == [] and log.anchor is None
    else:
        # the window opened on step 11; its last F has no successor step
        assert log.start_step == 11 and len(log.F) == len(log.H) > 0
        assert np.array_equal(log.F[-1], np.eye(log.state_dim))
        truth = run.trace.states[log.start_step]
        assert log.anchor == {"robot_pos": truth.robot_pos.tolist(),
                              "feature_pos": truth.feature_pos.tolist()}


@pytest.mark.parametrize("kind", ["riekf", "stdekf", "ideal"])
@pytest.mark.parametrize("jacobian_steps, counts", [(5, 5), (20, 8)])
def test_stream_without_observations_opens_its_window_at_step_1(kind, jacobian_steps,
                                                                counts):
    # with nothing to observe the state holds every observed feature from
    # step 0 on; the window's counts were recorded when run_filter tested the
    # state's feature count after every step
    _, run = small_sim()
    res = run_filter(FilterSpec(kind), simulated_steps(run.odometry[:8], [[]] * 9),
                     run.trace.states, jacobian_steps=jacobian_steps)
    log = res.jacobian_log
    assert not res.diverged and log.num_features == 0
    assert (log.start_step, len(log.F), len(log.H)) == (1, counts, counts)
    assert all(h is None for h in log.H)
