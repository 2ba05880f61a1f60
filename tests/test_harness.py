import hashlib

import numpy as np
import pytest

from objectslam import harness
from objectslam.group import GroupState
from objectslam.errors import MissingOdometryError
from objectslam.harness import (FilterSpec, RunConfig, inject_outliers,
                                replay_metrics, run_filter,
                                run_monte_carlo, simulated_steps,
                                synthesize_constant_velocity_odometry)
from objectslam.lie import random_rotation
from objectslam.logio import read_measurement_log, write_measurement_log
from objectslam.metrics import standard_error_vector
from objectslam.observability import check_null_space
from objectslam.oracles import jacobian_check_suite
from objectslam.simulator import (SimConfig, generate_world,
                                  sample_observations, simulate_run)
from objectslam.types import PoseObservation


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
    assert "step" in res.reason


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
        obs = sample_observations(state, cfg.with_noise([0.1] * 6, [0.0] * 6),
                                  np.random.default_rng(0))
        obs = [PoseObservation(z.feature_id, z.rot, z.pos, cfg.omega)
               for z in obs]
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
    assert result.reason.startswith("step 5: ")
    assert "condition number" in result.reason
    assert len(result.trajectory) == 5
    assert replay_metrics(steps, result)["robot_pos_rmse"] < 0.1


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


def test_zero_noise_monte_carlo_errors_vanish():
    cfg = RunConfig(sim=SimConfig(loops=1, seed=23), runs=1,
                    filters=(FilterSpec("riekf"),), noise_scale=0.0,
                    eval_stride=40)
    summary = run_monte_carlo(cfg)
    final = summary["filters"]["riekf"]["final"]
    assert final["robot-pose"]["rmse"] < 1e-8
    assert final["feature-pose"]["rmse"] < 1e-8


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
