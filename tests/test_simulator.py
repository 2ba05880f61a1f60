import math

import numpy as np

from objectslam.ekf import propagate_mean
from objectslam.group import GroupState
from objectslam.lie import so3_exp, so3_log
from objectslam.simulator import (SimConfig, generate_trajectory,
                                  generate_world, sample_noisy_odometry,
                                  sample_observations, simulate_run,
                                  step_odometry)
from objectslam.types import Odometry


def test_step_odometry_matches_configured_speeds():
    cfg = SimConfig()
    u = step_odometry(cfg)
    assert abs(np.linalg.norm(so3_log(u.rot)) - math.pi / 40.0) < 1e-12
    assert abs(np.linalg.norm(u.pos) - 0.1) < 1e-12


def test_eighty_steps_close_one_loop():
    cfg = SimConfig()
    assert cfg.steps_per_loop == 80
    u = step_odometry(cfg)
    pose = GroupState(np.eye(3), np.zeros(3))
    for _ in range(80):
        pose = propagate_mean(pose, u)
    assert np.linalg.norm(pose.robot_pos) < 1e-8
    assert np.linalg.norm(so3_log(pose.robot_rot)) < 1e-8


def test_zero_speeds_give_identity_odometry():
    cfg = SimConfig(linear_speed=0.0, angular_speed=0.0)
    u = step_odometry(cfg)
    assert np.allclose(u.rot, np.eye(3))
    assert np.allclose(u.pos, 0.0)


def test_config_validation():
    import pytest
    with pytest.raises(ValueError):
        SimConfig(sense_min=2.0, sense_max=0.5)
    with pytest.raises(ValueError):
        SimConfig(step_dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(placement="spiral")


def test_world_determinism():
    cfg = SimConfig(seed=5)
    w1 = generate_world(cfg, np.random.default_rng(5))
    w2 = generate_world(cfg, np.random.default_rng(5))
    assert np.array_equal(w1.feature_rots, w2.feature_rots)
    assert np.array_equal(w1.feature_pos, w2.feature_pos)
    assert w1.feature_ids == w2.feature_ids


def test_empty_world():
    cfg = SimConfig(num_features=0)
    world = generate_world(cfg, np.random.default_rng(0))
    assert world.num_features == 0
    trace = generate_trajectory(SimConfig(num_features=0, loops=1), world)
    assert all(v == [] for v in trace.visible)


def test_every_feature_observed_each_loop():
    cfg = SimConfig(seed=3)
    world = generate_world(cfg, np.random.default_rng(3))
    trace = generate_trajectory(cfg, world)
    per_loop = cfg.steps_per_loop
    for loop in range(cfg.loops):
        seen = set()
        for step in range(loop * per_loop, (loop + 1) * per_loop):
            seen.update(trace.visible[step])
        assert seen == set(world.feature_ids)


def test_feature_beyond_range_not_observed():
    state = GroupState(np.eye(3), np.zeros(3),
                       np.broadcast_to(np.eye(3), (2, 3, 3)).copy(),
                       np.array([[3.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                       ("far", "near"))
    cfg = SimConfig(num_features=2)
    obs = sample_observations(state, cfg, np.random.default_rng(0))
    assert [z.feature_id for z in obs] == ["near"]


def test_feature_too_close_not_observed():
    state = GroupState(np.eye(3), np.zeros(3),
                       np.broadcast_to(np.eye(3), (1, 3, 3)).copy(),
                       np.array([[0.3, 0.0, 0.0]]), ("close",))
    assert sample_observations(state, SimConfig(num_features=1),
                               np.random.default_rng(0)) == []


def test_zero_observation_noise_is_exact():
    rng = np.random.default_rng(1)
    cfg = SimConfig(num_features=1)
    cfg = cfg.with_noise([0.1] * 6, [0.0] * 6)
    state = GroupState(so3_exp(np.array([0.1, 0.2, 0.3])), np.array([0.5, 0, 0]),
                       np.stack([so3_exp(np.array([0.0, 0.1, 0.0]))]),
                       np.array([[1.5, 0.2, 0.1]]), ("f",))
    z = sample_observations(state, cfg, rng)[0]
    rt = state.robot_rot.T
    assert np.allclose(z.rot, rt @ state.feature_rots[0], atol=1e-15)
    assert np.allclose(z.pos, rt @ (state.feature_pos[0] - state.robot_pos),
                       atol=1e-15)


def test_zero_sigma_odometry_unchanged():
    u = Odometry(so3_exp(np.array([0, 0, 0.1])), np.array([0.1, 0, 0]),
                 np.zeros((6, 6)))
    noisy, w = sample_noisy_odometry(u, np.zeros((6, 6)), np.random.default_rng(0))
    assert np.array_equal(noisy.rot, u.rot)
    assert np.array_equal(noisy.pos, u.pos)
    assert np.all(w == 0.0)


def test_odometry_noise_statistics():
    # recovered log-errors must reproduce the configured covariance
    rng = np.random.default_rng(2)
    sigma = np.diag([0.1, 0.08, 0.12, 0.05, 0.1, 0.07]) ** 2
    u = step_odometry(SimConfig())
    n = 100_000
    ws = np.empty((n, 6))
    for i in range(n):
        noisy, _ = sample_noisy_odometry(u, sigma, rng)
        ws[i, 0:3] = so3_log(noisy.rot @ u.rot.T)
        ws[i, 3:6] = noisy.pos - u.pos
    emp = np.cov(ws.T)
    assert np.linalg.norm(emp - sigma) / np.linalg.norm(sigma) < 0.03


def test_observation_noise_statistics():
    rng = np.random.default_rng(3)
    cfg = SimConfig(num_features=1)
    cfg = cfg.with_noise([0.1] * 6, [0.1, 0.09, 0.11, 0.06, 0.08, 0.1])
    state = GroupState(np.eye(3), np.zeros(3),
                       np.broadcast_to(np.eye(3), (1, 3, 3)).copy(),
                       np.array([[1.0, 0.0, 0.0]]), ("f",))
    exact_rot = state.feature_rots[0]
    exact_pos = state.feature_pos[0]
    n = 100_000
    vs = np.empty((n, 6))
    for i in range(n):
        z = sample_observations(state, cfg, rng)[0]
        vs[i, 0:3] = so3_log(z.rot @ exact_rot.T)
        vs[i, 3:6] = z.pos - exact_pos
    emp = np.cov(vs.T)
    assert np.linalg.norm(emp - cfg.omega) / np.linalg.norm(cfg.omega) < 0.03


def test_run_determinism():
    cfg = SimConfig(loops=1, seed=11)
    world = generate_world(cfg, np.random.default_rng(11))
    r1 = simulate_run(cfg, world, np.random.default_rng(11))
    r2 = simulate_run(cfg, world, np.random.default_rng(11))
    assert np.array_equal(r1.odom_noise, r2.odom_noise)
    for u1, u2 in zip(r1.odometry, r2.odometry):
        assert np.array_equal(u1.rot, u2.rot)
        assert np.array_equal(u1.pos, u2.pos)
    for o1, o2 in zip(r1.observations, r2.observations):
        assert len(o1) == len(o2)
        for z1, z2 in zip(o1, o2):
            assert z1.feature_id == z2.feature_id
            assert np.array_equal(z1.rot, z2.rot)
            assert np.array_equal(z1.pos, z2.pos)


def test_process_model_reconstruction_identity():
    # the true trajectory satisfies the process model exactly when the drawn
    # noise (negated, by the left-injection convention) is substituted back
    cfg = SimConfig(loops=1, seed=12)
    world = generate_world(cfg, np.random.default_rng(12))
    run = simulate_run(cfg, world, np.random.default_rng(12))
    for i in range(cfg.num_steps):
        w = -run.odom_noise[i]
        u = run.odometry[i]
        state = run.trace.states[i]
        rebuilt_rot = state.robot_rot @ so3_exp(w[0:3]) @ u.rot
        rebuilt_pos = state.robot_pos + state.robot_rot @ (u.pos + w[3:6])
        assert np.allclose(rebuilt_rot, run.trace.states[i + 1].robot_rot,
                           atol=1e-12)
        assert np.allclose(rebuilt_pos, run.trace.states[i + 1].robot_pos,
                           atol=1e-12)


def test_trajectory_consistent_with_noise_free_process():
    cfg = SimConfig(loops=1, seed=13)
    world = generate_world(cfg, np.random.default_rng(13))
    trace = generate_trajectory(cfg, world)
    for i in range(cfg.num_steps):
        nxt = propagate_mean(trace.states[i], trace.odometry[i])
        assert np.allclose(nxt.robot_rot, trace.states[i + 1].robot_rot,
                           atol=1e-14)
        assert np.allclose(nxt.robot_pos, trace.states[i + 1].robot_pos,
                           atol=1e-14)
