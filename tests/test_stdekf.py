import numpy as np
import pytest

from objectslam.ekf import INVARIANT, STANDARD, apply_std_error, propagate_mean
from objectslam.errors import DuplicateFeatureError
from objectslam.group import GroupState, pos_block, rot_block, tangent_dim
from objectslam.oracles import _numeric_jacobian, sample_augmented_covariance
from objectslam.lie import random_rotation, skew, so3_exp, so3_log
from objectslam.metrics import standard_error_vector
from objectslam.types import FilterState, Odometry, PoseObservation

from test_riekf import exact_observation, random_filter_state


def test_state_jacobian_identity_for_zero_translation():
    rng = np.random.default_rng(0)
    state = random_filter_state(rng, k=1)
    u = Odometry(random_rotation(rng), np.zeros(3), np.eye(6))
    f, _ = STANDARD.propagation_jacobians(state, u)
    assert np.array_equal(f, np.eye(12))


def test_state_jacobian_offdiagonal_block():
    rng = np.random.default_rng(1)
    state = random_filter_state(rng, k=2)
    u = Odometry(random_rotation(rng), rng.normal(size=3), np.eye(6))
    f, g = STANDARD.propagation_jacobians(state, u)
    r = state.mean.robot_rot
    k = 2
    assert np.allclose(f[pos_block(0, k), rot_block(0)], -skew(r @ u.pos))
    # all other off-diagonal blocks vanish; feature rows get no process noise
    f_clean = f.copy()
    f_clean[pos_block(0, k), rot_block(0)] = 0.0
    assert np.array_equal(f_clean, np.eye(tangent_dim(k)))
    assert np.allclose(g[rot_block(0), 0:3], r)
    assert np.allclose(g[pos_block(0, k), 3:6], r)
    g_clean = g.copy()
    g_clean[rot_block(0), 0:3] = 0.0
    g_clean[pos_block(0, k), 3:6] = 0.0
    assert np.all(g_clean == 0.0)


def test_propagation_jacobians_match_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        state = random_filter_state(rng, k=k)
        mean = state.mean
        u = Odometry(random_rotation(rng), rng.normal(size=3), np.eye(6))
        pred = propagate_mean(mean, u)
        f, g = STANDARD.propagation_jacobians(state, u)

        fd_f = _numeric_jacobian(
            lambda eta: standard_error_vector(
                propagate_mean(apply_std_error(mean, eta), u), pred),
            tangent_dim(k))
        assert np.linalg.norm(fd_f - f) / np.linalg.norm(f) < 1e-5

        def error_of_noise(w):
            noisy = Odometry(so3_exp(w[0:3]) @ u.rot, u.pos + w[3:6], u.noise_cov)
            return standard_error_vector(propagate_mean(mean, noisy), pred)

        fd_g = _numeric_jacobian(error_of_noise, 6)
        assert np.linalg.norm(fd_g - g) / np.linalg.norm(g) < 1e-5


def test_observation_jacobian_extra_block():
    rng = np.random.default_rng(3)
    state = random_filter_state(rng, k=2)
    mean = state.mean
    h = STANDARD.observation_jacobian(mean, 1)
    rt = mean.robot_rot.T
    assert np.allclose(h[3:6, rot_block(0)],
                       rt @ skew(mean.feature_pos[1] - mean.robot_pos))
    assert np.allclose(h[0:3, rot_block(0)], -rt)
    assert np.allclose(h[0:3, rot_block(2)], rt)
    assert np.allclose(h[3:6, pos_block(0, 2)], -rt)
    assert np.allclose(h[3:6, pos_block(2, 2)], rt)


def test_difference_from_invariant_jacobian_is_one_block():
    # with the robot at the origin the two error conventions are related by
    # eta = T xi with T identity except a lever-arm coupling on the feature
    # position; H_std T must reproduce the invariant H, and the raw
    # difference lives only in the position-to-robot-rotation block
    rng = np.random.default_rng(4)
    k = 1
    mean = GroupState(np.eye(3), np.zeros(3),
                      np.stack([random_rotation(rng)]), rng.normal(size=(1, 3)),
                      ("f0",))
    h_std = STANDARD.observation_jacobian(mean, 0)
    h_ri = INVARIANT.observation_jacobian(mean, 0)
    diff = h_std - h_ri
    mask = np.zeros_like(diff, dtype=bool)
    mask[3:6, rot_block(0)] = True
    assert np.all(diff[~mask] == 0.0)
    assert np.any(diff[mask] != 0.0)

    t = np.eye(tangent_dim(k))
    t[pos_block(1, k), rot_block(0)] = -skew(mean.feature_pos[0])
    assert np.allclose(h_std @ t, h_ri, atol=1e-12)


def test_observation_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        state = random_filter_state(rng, k=k)
        mean = state.mean
        fid = mean.feature_ids[int(rng.integers(0, k))]
        omega = 0.01 * np.eye(6)
        h = STANDARD.observation_jacobian(mean, mean.index_of(fid))

        def y_of_error(eta):
            true_state = apply_std_error(mean, eta)
            return STANDARD.innovation(
                state, exact_observation(true_state, fid, omega)).y

        fd = _numeric_jacobian(y_of_error, tangent_dim(k))
        assert np.linalg.norm(fd - h) / np.linalg.norm(h) < 1e-5


def test_update_perfect_prediction_keeps_mean():
    rng = np.random.default_rng(6)
    state = random_filter_state(rng)
    z = exact_observation(state.mean, "f0", 0.01 * np.eye(6))
    out = STANDARD.update(state, z)
    assert np.allclose(out.mean.robot_rot, state.mean.robot_rot, atol=1e-12)
    assert np.allclose(out.mean.robot_pos, state.mean.robot_pos, atol=1e-12)


def test_update_matches_dense_oracle():
    rng = np.random.default_rng(7)
    state = random_filter_state(rng, k=1)
    mean, p = state.mean, state.cov
    omega = np.diag(rng.uniform(0.005, 0.02, size=6) ** 2)
    true_state = apply_std_error(mean, 0.05 * rng.normal(size=12))
    z = exact_observation(true_state, "f0", omega)

    rt = mean.robot_rot.T
    h = np.zeros((6, 12))
    h[0:3, 0:3] = -rt
    h[0:3, 3:6] = rt
    h[3:6, 6:9] = -rt
    h[3:6, 9:12] = rt
    h[3:6, 0:3] = rt @ skew(mean.feature_pos[0] - mean.robot_pos)
    y = np.concatenate([
        so3_log(z.rot @ mean.feature_rots[0].T @ mean.robot_rot),
        z.pos - rt @ (mean.feature_pos[0] - mean.robot_pos)])
    s = h @ p @ h.T + omega
    gain = p @ h.T @ np.linalg.inv(s)
    delta = gain @ y
    out = STANDARD.update(state, z)
    assert np.allclose(out.mean.robot_rot,
                       so3_exp(delta[0:3]) @ mean.robot_rot, atol=1e-12)
    assert np.allclose(out.mean.feature_rots[0],
                       so3_exp(delta[3:6]) @ mean.feature_rots[0], atol=1e-12)
    assert np.allclose(out.mean.robot_pos, mean.robot_pos + delta[6:9], atol=1e-12)
    assert np.allclose(out.mean.feature_pos[0],
                       mean.feature_pos[0] + delta[9:12], atol=1e-12)
    cov_ref = (np.eye(12) - gain @ h) @ p
    assert np.allclose(out.cov, 0.5 * (cov_ref + cov_ref.T), atol=1e-12)


def test_ideal_linearization_changes_jacobians_not_residual():
    rng = np.random.default_rng(8)
    state = random_filter_state(rng, k=1)
    truth = apply_std_error(state.mean, 0.1 * rng.normal(size=12))
    z = exact_observation(truth, "f0", 0.01 * np.eye(6))
    inn_est = STANDARD.innovation(state, z)
    inn_ideal = STANDARD.innovation(state, z, linearization=truth)
    assert np.allclose(inn_est.y, inn_ideal.y)
    h_est = STANDARD.observation_jacobian(state.mean, 0)
    h = STANDARD.observation_jacobian(state.mean, 0, linearization=truth)
    assert not np.allclose(h_est, h)
    assert np.allclose(inn_est.HP, h_est @ state.cov)
    assert np.allclose(inn_ideal.HP, h @ state.cov)


def test_ideal_equals_std_when_estimate_is_truth():
    rng = np.random.default_rng(9)
    state = random_filter_state(rng, k=1)
    u = Odometry(random_rotation(rng), rng.normal(size=3),
                 np.diag([0.01] * 6))
    out_std = STANDARD.propagate(state, u)
    out_ideal = STANDARD.propagate(state, u, linearization=state.mean)
    assert np.array_equal(out_std.cov, out_ideal.cov)
    z = exact_observation(state.mean, "f0", 0.01 * np.eye(6))
    assert np.allclose(STANDARD.update(state, z).cov,
                       STANDARD.update(state, z, linearization=state.mean).cov)


def test_propagated_covariance_matches_dense_jacobian_product():
    rng = np.random.default_rng(14)
    for k in (1, 3, 25):  # 25: d > 128, products and symmetrization in row bands
        state = random_filter_state(rng, k=k)
        full = rng.normal(size=(6, 6))
        u = Odometry(random_rotation(rng), rng.normal(size=3),
                     0.01 * (full @ full.T) + 0.001 * np.eye(6))
        f, g = STANDARD.propagation_jacobians(state, u)
        dense = f @ state.cov @ f.T + g @ u.noise_cov @ g.T
        out = STANDARD.propagate(state, u)
        assert np.allclose(out.cov, 0.5 * (dense + dense.T), atol=1e-12)


def test_augmentation_trivial_case():
    rng = np.random.default_rng(10)
    state = FilterState(GroupState(np.eye(3), np.zeros(3)), np.zeros((6, 6)))
    omega = np.diag(rng.uniform(0.01, 0.1, size=6))
    z = PoseObservation("new", random_rotation(rng), rng.normal(size=3), omega)
    out = STANDARD.initialize_feature(state, z)
    assert np.allclose(out.cov[rot_block(1), rot_block(1)], omega[0:3, 0:3])
    assert np.allclose(out.cov[pos_block(1, 1), pos_block(1, 1)], omega[3:6, 3:6])


def test_augmentation_jacobians_match_finite_differences():
    rng = np.random.default_rng(11)
    state = random_filter_state(rng, k=1)
    mean = state.mean
    omega = 0.01 * np.eye(6)
    z = PoseObservation("new", random_rotation(rng), rng.normal(size=3), omega)
    a, b = STANDARD.augmentation_jacobians(state, z)
    est_aug = STANDARD.initialize_feature(state, z).mean
    d = tangent_dim(1)

    def aug_error(etav):
        eta, v = etav[:d], etav[d:]
        true_state = apply_std_error(mean, eta)
        new_rot = true_state.robot_rot @ so3_exp(-v[0:3]) @ z.rot
        new_pos = true_state.robot_pos + true_state.robot_rot @ (z.pos - v[3:6])
        true_aug = GroupState(
            true_state.robot_rot, true_state.robot_pos,
            np.concatenate([true_state.feature_rots, new_rot[None]]),
            np.concatenate([true_state.feature_pos, new_pos[None]]),
            mean.feature_ids + ("new",))
        return standard_error_vector(true_aug, est_aug)

    fd = _numeric_jacobian(aug_error, d + 6)
    ab = np.hstack([a, b])
    assert np.linalg.norm(fd - ab) / np.linalg.norm(ab) < 1e-5


def test_augmentation_covariance_matches_sampling_oracle():
    rng = np.random.default_rng(12)
    mean = GroupState(random_rotation(rng), rng.normal(size=3),
                      np.stack([random_rotation(rng)]), rng.normal(size=(1, 3)),
                      ("f0",))
    a = rng.normal(size=(12, 12))
    cov = 0.004 ** 2 * (a @ a.T / 12) + 0.004 ** 2 * np.eye(12)
    state = FilterState(mean, cov)
    omega = np.diag(rng.uniform(0.003, 0.009, size=6) ** 2)
    z = PoseObservation("new", random_rotation(rng), rng.normal(size=3), omega)
    analytic = STANDARD.initialize_feature(state, z).cov
    empirical = sample_augmented_covariance(state, z, STANDARD, 100_000,
                                            np.random.default_rng(77))
    rel = np.linalg.norm(empirical - analytic) / np.linalg.norm(analytic)
    assert rel < 0.05


def test_covariance_stays_psd_over_cycles():
    rng = np.random.default_rng(15)
    state = random_filter_state(rng, k=2, cov_scale=0.01)
    truth = state.mean
    sigma = np.diag([0.02] * 6) ** 2
    omega = np.diag([0.02] * 6) ** 2
    for i in range(3000):
        u = Odometry(so3_exp(0.05 * rng.normal(size=3)),
                     0.05 * rng.normal(size=3), sigma)
        truth = propagate_mean(truth, u)
        state = STANDARD.propagate(state, u)
        fid = state.mean.feature_ids[i % 2]
        exact = exact_observation(truth, fid, omega)
        v = 0.02 * rng.normal(size=6)
        z = PoseObservation(fid, so3_exp(v[0:3]) @ exact.rot,
                            exact.pos + v[3:6], omega)
        state = STANDARD.update(state, z)
        if i % 100 == 0:
            assert np.allclose(state.cov, state.cov.T, atol=1e-10)
            assert np.linalg.eigvalsh(state.cov)[0] >= -1e-9
    assert np.linalg.eigvalsh(state.cov)[0] >= -1e-9


def test_augmentation_duplicate_raises():
    rng = np.random.default_rng(13)
    state = random_filter_state(rng, k=1)
    z = PoseObservation("f0", np.eye(3), np.zeros(3), np.eye(6))
    with pytest.raises(DuplicateFeatureError):
        STANDARD.initialize_feature(state, z)
