import numpy as np
import pytest

from objectslam.group import GroupState
from objectslam.harness import (FilterSpec, RunConfig, inject_outliers,
                                jacobian_check_suite, replay_log, run_filter,
                                run_monte_carlo,
                                synthesize_constant_velocity_odometry)
from objectslam.lie import random_rotation
from objectslam.logio import read_measurement_log, write_measurement_log
from objectslam.metrics import standard_error_vector
from objectslam.simulator import (SimConfig, generate_world,
                                  sample_observations, simulate_run)
from objectslam.types import PoseObservation


def small_sim(seed=0, loops=1, noise_scale=1.0, num_features=6):
    cfg = SimConfig(loops=loops, seed=seed, num_features=num_features)
    world = generate_world(cfg, np.random.default_rng(seed))
    return cfg, simulate_run(cfg, world, np.random.default_rng(seed),
                             noise_scale)


def test_run_filter_deterministic():
    cfg, run = small_sim(seed=1)
    a = run_filter(FilterSpec("riekf"), run.odometry, run.observations,
                   run.trace.states)
    b = run_filter(FilterSpec("riekf"), run.odometry, run.observations,
                   run.trace.states)
    for (r1, p1), (r2, p2) in zip(a.trajectory, b.trajectory):
        assert np.array_equal(r1, r2)
        assert np.array_equal(p1, p2)


def test_zero_noise_runs_track_truth_exactly():
    cfg, run = small_sim(seed=2, loops=2, noise_scale=0.0)
    for kind in ("riekf", "stdekf", "ideal"):
        res = run_filter(FilterSpec(kind), run.odometry, run.observations,
                         run.trace.states)
        assert not res.diverged
        err = standard_error_vector(run.trace.states[-1], res.final_state.mean)
        assert np.max(np.abs(err)) < 1e-8


def test_ideal_requires_truth():
    cfg, run = small_sim(seed=3)
    with pytest.raises(ValueError):
        run_filter(FilterSpec("ideal"), run.odometry, run.observations, None)


def test_divergence_flagged_not_crashed():
    cfg, run = small_sim(seed=4, loops=1)
    # corrupt the final observation catastrophically with a tiny claimed noise
    obs = [list(o) for o in run.observations]
    assert obs[-1], "expected at least one observation at the final step"
    z = obs[-1][0]
    obs[-1][0] = PoseObservation(z.feature_id, z.rot, z.pos + 1e6,
                                 1e-6 * np.eye(6))
    res = run_filter(FilterSpec("riekf"), run.odometry, obs, run.trace.states)
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


def test_constant_velocity_synthesis_no_history():
    u = synthesize_constant_velocity_odometry([], np.eye(6))
    assert np.allclose(u.rot, np.eye(3))
    assert np.allclose(u.pos, 0.0)
    u = synthesize_constant_velocity_odometry([(np.eye(3), np.zeros(3))], np.eye(6))
    assert np.allclose(u.pos, 0.0)


def test_constant_velocity_synthesis_exact_history():
    poses = [(np.eye(3), np.array([0.1 * i, 0.0, 0.0])) for i in range(10)]
    u = synthesize_constant_velocity_odometry(poses, np.eye(6))
    assert np.allclose(u.rot, np.eye(3))
    assert np.allclose(u.pos, [0.1, 0.0, 0.0], atol=1e-14)


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
    result = replay_log(FilterSpec("riekf"), steps, synth_noise_cov=synth_cov)
    assert not result["diverged"]
    # synthesized odometry approaches the true per-step translation
    u = synthesize_constant_velocity_odometry(result["trajectory"], synth_cov)
    assert np.linalg.norm(u.pos - [0.1, 0.0, 0.0]) < 0.02
    assert result["metrics"]["robot_pos_rmse"] < 0.1


def test_replay_without_odometry_and_without_sigma_fails():
    steps, _ = corridor_steps(num_steps=3)
    with pytest.raises(ValueError, match="noise covariance"):
        replay_log(FilterSpec("riekf"), steps)


def test_replay_empty_log():
    result = replay_log(FilterSpec("riekf"), {})
    assert result["trajectory"] == []
    assert result["features"] == {}
    assert result["metrics"] is None


def test_replay_reproduces_exported_simulation(tmp_path):
    cfg, run = small_sim(seed=6, loops=2)
    path = tmp_path / "run.jsonl"
    write_measurement_log(path, run.odometry, run.observations, trace=run.trace)
    steps = read_measurement_log(path)
    direct = run_filter(FilterSpec("riekf"), run.odometry, run.observations,
                        run.trace.states)
    replayed = replay_log(FilterSpec("riekf"), steps)
    assert len(replayed["trajectory"]) == len(direct.trajectory)
    for (r1, p1), (r2, p2) in zip(direct.trajectory, replayed["trajectory"]):
        assert np.linalg.norm(p1 - p2) < 1e-9
        assert np.linalg.norm(r1 - r2) < 1e-9
    # replaying the same file twice is bit-exact
    replayed2 = replay_log(FilterSpec("riekf"), read_measurement_log(path))
    for (r1, p1), (r2, p2) in zip(replayed["trajectory"], replayed2["trajectory"]):
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
    plain = replay_log(FilterSpec("riekf"), corrupted)
    robust = replay_log(FilterSpec("riekf", robust=True), corrupted)
    rejected_keys = {(step, fid) for step, fid, accepted, _ in robust["gates"]
                     if not accepted}
    caught = sum(1 for key in injected if key in rejected_keys)
    assert caught / len(injected) >= 0.95
    assert robust["metrics"]["robot_pos_rmse"] < plain["metrics"]["robot_pos_rmse"]


def test_clean_run_rejection_rate_low():
    cfg, run = small_sim(seed=9, loops=2)
    res = run_filter(FilterSpec("riekf", robust=True), run.odometry,
                     run.observations, run.trace.states)
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
