import numpy as np
import pytest

from objectslam.ekf import INVARIANT, propagate_mean
from objectslam.errors import (DuplicateFeatureError,
                               IllConditionedInnovationError,
                               UnknownFeatureError)
from objectslam.group import (GroupState, group_compose, group_exp, group_log,
                              group_minus, pos_block, rot_block, tangent_dim)
from objectslam.oracles import _numeric_jacobian, sample_augmented_covariance
from objectslam.lie import random_rotation, skew, so3_exp, so3_log
from objectslam.types import FilterState, Odometry, PoseObservation


def random_filter_state(rng, k=2, cov_scale=0.05):
    ids = tuple(f"f{j}" for j in range(k))
    rots = np.stack([random_rotation(rng) for _ in range(k)]) if k \
        else np.zeros((0, 3, 3))
    mean = GroupState(random_rotation(rng), rng.normal(size=3),
                      rots, rng.normal(size=(k, 3)), ids)
    a = rng.normal(size=(tangent_dim(k), tangent_dim(k)))
    return FilterState(mean, cov_scale ** 2 * (a @ a.T) + 1e-6 * np.eye(tangent_dim(k)))


def exact_observation(mean, fid, omega):
    j = mean.index_of(fid)
    rt = mean.robot_rot.T
    return PoseObservation(fid, rt @ mean.feature_rots[j],
                           rt @ (mean.feature_pos[j] - mean.robot_pos), omega)


def test_propagate_identity_odometry_zero_noise():
    rng = np.random.default_rng(0)
    state = random_filter_state(rng)
    u = Odometry(np.eye(3), np.zeros(3), np.zeros((6, 6)))
    out = INVARIANT.propagate(state, u)
    assert np.allclose(out.mean.robot_rot, state.mean.robot_rot, atol=1e-15)
    assert np.allclose(out.mean.robot_pos, state.mean.robot_pos, atol=1e-15)
    assert np.allclose(out.cov, state.cov, atol=1e-15)


def test_propagation_state_jacobian_is_identity_bit_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = random_filter_state(rng, k=int(rng.integers(0, 4)))
        u = Odometry(random_rotation(rng), rng.normal(size=3), np.eye(6))
        f, _ = INVARIANT.propagation_jacobians(state, u)
        assert np.array_equal(f, np.eye(tangent_dim(state.mean.num_features)))


def test_noise_jacobian_block_structure():
    rng = np.random.default_rng(2)
    state = random_filter_state(rng, k=2)
    u = Odometry(random_rotation(rng), rng.normal(size=3), np.eye(6))
    _, g = INVARIANT.propagation_jacobians(state, u)
    r = state.mean.robot_rot
    k = 2
    assert np.allclose(g[rot_block(0), 0:3], r)
    assert np.allclose(g[rot_block(0), 3:6], 0.0)
    p_pred = state.mean.robot_pos + r @ u.pos
    assert np.allclose(g[pos_block(0, k), 0:3], skew(p_pred) @ r)
    assert np.allclose(g[pos_block(0, k), 3:6], r)
    for j in range(k):
        assert np.allclose(g[rot_block(j + 1)], 0.0)
        assert np.allclose(g[pos_block(j + 1, k), 0:3],
                           skew(state.mean.feature_pos[j]) @ r)
        assert np.allclose(g[pos_block(j + 1, k), 3:6], 0.0)


def test_noise_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        state = random_filter_state(rng, k=int(rng.integers(1, 4)))
        mean = state.mean
        u = Odometry(random_rotation(rng), rng.normal(size=3), np.eye(6))
        pred = propagate_mean(mean, u)
        _, g = INVARIANT.propagation_jacobians(state, u)

        def error_of_noise(w):
            noisy = Odometry(so3_exp(w[0:3]) @ u.rot, u.pos + w[3:6], u.noise_cov)
            return group_log(group_minus(propagate_mean(mean, noisy), pred))

        fd = _numeric_jacobian(error_of_noise, 6)
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-5


def test_innovation_zero_for_perfect_prediction():
    rng = np.random.default_rng(4)
    state = random_filter_state(rng)
    z = exact_observation(state.mean, "f1", 0.01 * np.eye(6))
    inn = INVARIANT.innovation(state, z)
    assert np.allclose(inn.y, 0.0, atol=1e-12)


def test_innovation_jacobian_blocks():
    rng = np.random.default_rng(5)
    state = random_filter_state(rng, k=3)
    h = INVARIANT.observation_jacobian(state.mean, 1)
    rt = state.mean.robot_rot.T
    k = 3
    assert np.allclose(h[0:3, rot_block(0)], -rt)
    assert np.allclose(h[0:3, rot_block(2)], rt)
    assert np.allclose(h[3:6, pos_block(0, k)], -rt)
    assert np.allclose(h[3:6, pos_block(2, k)], rt)
    # everything else is zero: only four nonzero 3x3 blocks
    mask = np.ones_like(h, dtype=bool)
    mask[0:3, rot_block(0)] = False
    mask[0:3, rot_block(2)] = False
    mask[3:6, pos_block(0, k)] = False
    mask[3:6, pos_block(2, k)] = False
    assert np.all(h[mask] == 0.0)


def test_innovation_jacobian_independent_of_positions():
    # unlike the standard filter there is no lever-arm term
    rng = np.random.default_rng(6)
    state = random_filter_state(rng, k=2)
    moved = FilterState(
        GroupState(state.mean.robot_rot, rng.normal(size=3),
                   state.mean.feature_rots, rng.normal(size=(2, 3)),
                   state.mean.feature_ids), state.cov)
    assert np.array_equal(INVARIANT.observation_jacobian(state.mean, 0),
                          INVARIANT.observation_jacobian(moved.mean, 0))


def test_innovation_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        state = random_filter_state(rng, k=k)
        mean = state.mean
        fid = mean.feature_ids[int(rng.integers(0, k))]
        omega = 0.01 * np.eye(6)
        h = INVARIANT.observation_jacobian(mean, mean.index_of(fid))

        def y_of_error(xi):
            true_state = group_compose(group_exp(xi, mean.feature_ids), mean)
            return INVARIANT.innovation(
                state, exact_observation(true_state, fid, omega)).y

        fd = _numeric_jacobian(y_of_error, tangent_dim(k))
        assert np.linalg.norm(fd - h) / np.linalg.norm(h) < 1e-5


def test_update_zero_innovation_keeps_mean_and_shrinks_cov():
    rng = np.random.default_rng(8)
    state = random_filter_state(rng)
    z = exact_observation(state.mean, "f0", 0.01 * np.eye(6))
    out = INVARIANT.update(state, z)
    assert np.allclose(out.mean.robot_rot, state.mean.robot_rot, atol=1e-12)
    assert np.allclose(out.mean.robot_pos, state.mean.robot_pos, atol=1e-12)
    assert np.trace(out.cov) < np.trace(state.cov)


def test_update_never_increases_diagonal_on_perfect_prediction():
    rng = np.random.default_rng(9)
    for _ in range(50):
        state = random_filter_state(rng)
        z = exact_observation(state.mean, "f1", 0.02 * np.eye(6))
        out = INVARIANT.update(state, z)
        assert np.all(np.diag(out.cov) <= np.diag(state.cov) + 1e-12)


def test_update_with_huge_noise_is_noop():
    rng = np.random.default_rng(10)
    state = random_filter_state(rng)
    true_state = group_compose(
        group_exp(0.05 * rng.normal(size=tangent_dim(2)), state.mean.feature_ids),
        state.mean)
    z = exact_observation(true_state, "f0", 1e12 * 0.01 * np.eye(6))
    out = INVARIANT.update(state, z)
    assert np.linalg.norm(out.mean.robot_pos - state.mean.robot_pos) < 1e-6
    assert np.linalg.norm(
        so3_log(out.mean.robot_rot @ state.mean.robot_rot.T)) < 1e-6


def test_update_matches_dense_oracle():
    # one feature, every matrix assembled literally from its definition
    rng = np.random.default_rng(11)
    state = random_filter_state(rng, k=1)
    mean, p = state.mean, state.cov
    omega = np.diag(rng.uniform(0.005, 0.02, size=6) ** 2)
    true_state = group_compose(
        group_exp(0.05 * rng.normal(size=12), mean.feature_ids), mean)
    z = exact_observation(true_state, "f0", omega)

    rt = mean.robot_rot.T
    h = np.zeros((6, 12))
    h[0:3, 0:3] = -rt
    h[0:3, 3:6] = rt
    h[3:6, 6:9] = -rt
    h[3:6, 9:12] = rt
    y = np.concatenate([
        so3_log(z.rot @ mean.feature_rots[0].T @ mean.robot_rot),
        z.pos - rt @ (mean.feature_pos[0] - mean.robot_pos)])
    s = h @ p @ h.T + omega
    gain = p @ h.T @ np.linalg.inv(s)
    mean_ref = group_compose(group_exp(gain @ y, mean.feature_ids), mean)
    cov_ref = (np.eye(12) - gain @ h) @ p
    cov_ref = 0.5 * (cov_ref + cov_ref.T)

    out = INVARIANT.update(state, z)
    assert np.allclose(out.mean.robot_rot, mean_ref.robot_rot, atol=1e-12)
    assert np.allclose(out.mean.robot_pos, mean_ref.robot_pos, atol=1e-12)
    assert np.allclose(out.mean.feature_rots, mean_ref.feature_rots, atol=1e-12)
    assert np.allclose(out.mean.feature_pos, mean_ref.feature_pos, atol=1e-12)
    assert np.allclose(out.cov, cov_ref, atol=1e-12)


def test_update_rejects_ill_conditioned_innovation():
    rng = np.random.default_rng(13)
    mean = random_filter_state(rng, k=1).mean
    state = FilterState(mean, np.zeros((12, 12)))
    z = exact_observation(mean, "f0", np.diag([1, 1, 1, 1, 1, 1e-14]))
    with pytest.raises(IllConditionedInnovationError):
        INVARIANT.update(state, z)


def test_innovation_unknown_feature_raises():
    rng = np.random.default_rng(14)
    state = random_filter_state(rng, k=1)
    z = PoseObservation("ghost", np.eye(3), np.zeros(3), np.eye(6))
    with pytest.raises(UnknownFeatureError):
        INVARIANT.innovation(state, z)


def test_initialize_trivial_case():
    # identity robot with zero covariance: new feature takes the observation
    # pose and exactly the observation covariance
    rng = np.random.default_rng(15)
    state = FilterState(GroupState(np.eye(3), np.zeros(3)), np.zeros((6, 6)))
    z = PoseObservation("new", random_rotation(rng), rng.normal(size=3), np.eye(6))
    out = INVARIANT.initialize_feature(state, z)
    assert np.allclose(out.mean.feature_rots[0], z.rot)
    assert np.allclose(out.mean.feature_pos[0], z.pos)
    k = 1
    assert np.allclose(out.cov[rot_block(1), rot_block(1)], np.eye(3))
    assert np.allclose(out.cov[pos_block(1, k), pos_block(1, k)], np.eye(3))
    assert np.allclose(out.cov[rot_block(1), pos_block(1, k)], 0.0)


def test_initialize_mean_formulas():
    rng = np.random.default_rng(16)
    state = random_filter_state(rng, k=1)
    z = PoseObservation("new", random_rotation(rng), rng.normal(size=3),
                        0.01 * np.eye(6))
    out = INVARIANT.initialize_feature(state, z)
    assert np.allclose(out.mean.feature_rots[1],
                       state.mean.robot_rot @ z.rot, atol=1e-14)
    assert np.allclose(out.mean.feature_pos[1],
                       state.mean.robot_pos + state.mean.robot_rot @ z.pos,
                       atol=1e-14)
    # old blocks of the covariance survive in place
    k = 1
    old_rot = np.r_[np.arange(0, 6)]
    assert np.allclose(out.cov[np.ix_(old_rot, old_rot)],
                       state.cov[np.ix_(old_rot, old_rot)])


def test_initialize_covariance_matches_paper_block_layout():
    # the augmented covariance must equal the explicit block recipe with
    # M1 = M2 = [I 0] selecting the robot blocks
    rng = np.random.default_rng(17)
    state = random_filter_state(rng, k=1)
    p = state.cov
    r = state.mean.robot_rot
    omega_full = rng.normal(size=(6, 6))
    omega_full = 0.01 * (omega_full @ omega_full.T) + 0.001 * np.eye(6)
    z = PoseObservation("new", random_rotation(rng), rng.normal(size=3), omega_full)
    out = INVARIANT.initialize_feature(state, z)

    k = 1
    rr = np.s_[0:6]
    pp = np.s_[6:12]
    m = np.hstack([np.eye(3), np.zeros((3, 3 * k))])
    p_rr, p_rp, p_pp = p[rr, rr], p[rr, pp], p[pp, pp]
    o_rr, o_rp, o_pp = (omega_full[0:3, 0:3], omega_full[0:3, 3:6],
                        omega_full[3:6, 3:6])
    pf_rr = m @ p_rr @ m.T + r @ o_rr @ r.T
    pf_rp = m @ p_rp @ m.T + r @ o_rp @ r.T
    pf_pp = m @ p_pp @ m.T + r @ o_pp @ r.T

    expected = np.zeros((18, 18))
    new_rr = np.s_[0:6]
    new_fr = np.s_[6:9]
    new_pp = np.s_[9:15]
    new_fp = np.s_[15:18]
    expected[new_rr, new_rr] = p_rr
    expected[new_rr, new_fr] = p_rr @ m.T
    expected[new_fr, new_rr] = m @ p_rr
    expected[new_fr, new_fr] = pf_rr
    expected[new_rr, new_pp] = p_rp
    expected[new_pp, new_rr] = p_rp.T
    expected[new_fr, new_pp] = m @ p_rp
    expected[new_pp, new_fr] = (m @ p_rp).T
    expected[new_rr, new_fp] = p_rp @ m.T
    expected[new_fp, new_rr] = (p_rp @ m.T).T
    expected[new_fr, new_fp] = pf_rp
    expected[new_fp, new_fr] = pf_rp.T
    expected[new_pp, new_pp] = p_pp
    expected[new_pp, new_fp] = p_pp @ m.T
    expected[new_fp, new_pp] = m @ p_pp
    expected[new_fp, new_fp] = pf_pp
    assert np.allclose(out.cov, expected, atol=1e-12)


def test_initialize_covariance_matches_sampling_oracle():
    rng = np.random.default_rng(18)
    k = 1
    mean = GroupState(random_rotation(rng), rng.normal(size=3),
                      np.stack([random_rotation(rng)]), rng.normal(size=(1, 3)),
                      ("f0",))
    a = rng.normal(size=(12, 12))
    cov = 0.004 ** 2 * (a @ a.T / 12) + 0.004 ** 2 * np.eye(12)
    state = FilterState(mean, cov)
    omega = np.diag(rng.uniform(0.003, 0.009, size=6) ** 2)
    z = PoseObservation("new", random_rotation(rng), rng.normal(size=3), omega)
    analytic = INVARIANT.initialize_feature(state, z).cov
    empirical = sample_augmented_covariance(state, z, INVARIANT, 100_000,
                                            np.random.default_rng(99))
    rel = np.linalg.norm(empirical - analytic) / np.linalg.norm(analytic)
    assert rel < 0.05


def test_initialize_duplicate_raises():
    rng = np.random.default_rng(19)
    state = random_filter_state(rng, k=1)
    z = PoseObservation("f0", np.eye(3), np.zeros(3), np.eye(6))
    with pytest.raises(DuplicateFeatureError):
        INVARIANT.initialize_feature(state, z)


def test_initialize_then_update_is_fixed_point():
    rng = np.random.default_rng(20)
    state = random_filter_state(rng, k=1)
    z = PoseObservation("new", random_rotation(rng), rng.normal(size=3),
                        0.01 * np.eye(6))
    aug = INVARIANT.initialize_feature(state, z)
    out = INVARIANT.update(aug, z)
    assert np.linalg.norm(out.mean.robot_pos - aug.mean.robot_pos) < 1e-9
    assert np.linalg.norm(out.mean.feature_pos - aug.mean.feature_pos) < 1e-9
    assert np.linalg.norm(
        so3_log(out.mean.feature_rots[1] @ aug.mean.feature_rots[1].T)) < 1e-9


def test_propagate_mean_reorthonormalizes_drifted_rotation():
    rng = np.random.default_rng(30)
    r = random_rotation(rng)
    drifted = r + 2e-9 * rng.normal(size=(3, 3))
    assert np.linalg.norm(drifted @ drifted.T - np.eye(3)) > 1e-9
    mean = GroupState(drifted, np.zeros(3))
    out = propagate_mean(mean, Odometry(np.eye(3), np.zeros(3), np.zeros((6, 6))))
    assert np.linalg.norm(out.robot_rot @ out.robot_rot.T - np.eye(3)) < 1e-12


def test_covariance_stays_psd_over_many_cycles():
    rng = np.random.default_rng(21)
    state = random_filter_state(rng, k=2, cov_scale=0.01)
    truth = state.mean
    sigma = np.diag([0.02] * 6) ** 2
    omega = np.diag([0.02] * 6) ** 2
    for i in range(10_000):
        u = Odometry(so3_exp(0.05 * rng.normal(size=3)), 0.05 * rng.normal(size=3),
                     sigma)
        truth = propagate_mean(truth, u)
        state = INVARIANT.propagate(state, u)
        fid = state.mean.feature_ids[i % 2]
        exact = exact_observation(truth, fid, omega)
        v = 0.02 * rng.normal(size=6)
        z = PoseObservation(fid, so3_exp(v[0:3]) @ exact.rot,
                            exact.pos + v[3:6], omega)
        state = INVARIANT.update(state, z)
        if i % 100 == 0:
            assert np.allclose(state.cov, state.cov.T, atol=1e-10)
            assert np.linalg.eigvalsh(state.cov)[0] >= -1e-9
    assert np.linalg.eigvalsh(state.cov)[0] >= -1e-9


def test_innovation_left_invariance():
    # a common gauge transform of truth and estimate leaves y unchanged
    rng = np.random.default_rng(22)
    for _ in range(20):
        k = 2
        state = random_filter_state(rng, k=k)
        true_state = group_compose(
            group_exp(0.1 * rng.normal(size=tangent_dim(k)),
                      state.mean.feature_ids), state.mean)
        v = 0.05 * rng.normal(size=6)
        exact = exact_observation(true_state, "f0", 0.01 * np.eye(6))
        z = PoseObservation("f0", so3_exp(v[0:3]) @ exact.rot,
                            exact.pos + v[3:6], 0.01 * np.eye(6))
        y0 = INVARIANT.innovation(state, z).y

        rg, pg = random_rotation(rng), rng.normal(size=3)
        g = GroupState(rg, pg, np.stack([rg] * k), np.stack([pg] * k),
                       state.mean.feature_ids)
        true_t = group_compose(g, true_state)
        est_t = FilterState(group_compose(g, state.mean), state.cov)
        exact_t = exact_observation(true_t, "f0", 0.01 * np.eye(6))
        z_t = PoseObservation("f0", so3_exp(v[0:3]) @ exact_t.rot,
                              exact_t.pos + v[3:6], 0.01 * np.eye(6))
        y1 = INVARIANT.innovation(est_t, z_t).y
        assert np.linalg.norm(y1 - y0) < 1e-9


def test_augmentation_jacobians_match_finite_differences():
    rng = np.random.default_rng(23)
    state = random_filter_state(rng, k=1)
    mean = state.mean
    omega = 0.01 * np.eye(6)
    z = PoseObservation("new", random_rotation(rng), rng.normal(size=3), omega)
    a, b = INVARIANT.augmentation_jacobians(state, z)
    est_aug = INVARIANT.initialize_feature(state, z).mean
    d = tangent_dim(1)

    def aug_error(xiv):
        xi, v = xiv[:d], xiv[d:]
        true_state = group_compose(group_exp(xi, mean.feature_ids), mean)
        new_rot = true_state.robot_rot @ so3_exp(-v[0:3]) @ z.rot
        new_pos = true_state.robot_pos + true_state.robot_rot @ (z.pos - v[3:6])
        true_aug = GroupState(
            true_state.robot_rot, true_state.robot_pos,
            np.concatenate([true_state.feature_rots, new_rot[None]]),
            np.concatenate([true_state.feature_pos, new_pos[None]]),
            mean.feature_ids + ("new",))
        return group_log(group_minus(true_aug, est_aug))

    fd = _numeric_jacobian(aug_error, d + 6)
    ab = np.hstack([a, b])
    assert np.linalg.norm(fd - ab) / np.linalg.norm(ab) < 1e-5
