import numpy as np
import pytest

from objectslam.ekf import INVARIANT, STANDARD
from objectslam.errors import SingularCovarianceError
from objectslam.group import (GroupState, group_compose, group_exp, group_log,
                              group_minus, pos_block, rot_block, tangent_dim)
from objectslam.lie import so3_exp, so3_log
from objectslam.metrics import BLOCKS, collect_samples, nees, rmse
from objectslam.types import FilterState

from test_riekf import random_filter_state


def test_nees_zero_errors():
    assert nees(np.zeros((5, 3)), np.broadcast_to(np.eye(3), (5, 3, 3))) == 0.0


def test_nees_single_sample_identity_cov():
    assert abs(nees(np.ones((1, 3)), np.eye(3)[None]) - 1.0) < 1e-15


def test_nees_chi_square_sampling():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    p = a @ a.T + np.eye(3)
    factor = np.linalg.cholesky(p)
    errors = rng.standard_normal((10_000, 3)) @ factor.T
    assert 0.95 < nees(errors, np.broadcast_to(p, (10_000, 3, 3))) < 1.05


def test_nees_invariant_under_reparameterization():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(50, 4, 4))
    p = a @ a.swapaxes(-1, -2) + np.eye(4)
    e = rng.normal(size=(50, 4))
    t = rng.normal(size=(50, 4, 4)) + 3 * np.eye(4)
    for i in range(50):
        n1 = nees(e[i:i + 1], p[i:i + 1])
        n2 = nees((t[i] @ e[i])[None], (t[i] @ p[i] @ t[i].T)[None])
        assert abs(n1 - n2) < 1e-10 * max(1.0, n1)
    # the pooled value is the mean of the per-sample ones
    pooled = nees(e, p)
    assert abs(pooled - np.mean([nees(e[i:i + 1], p[i:i + 1])
                                 for i in range(50)])) < 1e-12 * pooled


def test_nees_singular_covariance_raises_with_label():
    covs = np.stack([np.eye(3), np.zeros((3, 3))])
    with pytest.raises(SingularCovarianceError, match="run3/step50"):
        nees(np.ones((2, 3)), covs, label="run3/step50")


def test_rmse_trivial_cases():
    assert rmse(np.zeros((4, 3))) == 0.0
    assert abs(rmse(np.tile([0.1, 0.0, 0.0], (7, 1))) - 0.1) < 1e-15


def test_rmse_matches_direct_formula():
    rng = np.random.default_rng(2)
    errors = rng.normal(size=(100, 3))
    expected = np.sqrt(np.mean([np.sum(e ** 2) for e in errors]))
    assert abs(rmse(errors) - expected) < 1e-12


def test_riekf_error_zero_for_exact_estimate():
    rng = np.random.default_rng(3)
    state = random_filter_state(rng, k=2)
    e = INVARIANT.error(state.mean, state.mean)
    assert np.allclose(e[rot_block(0)], 0.0, atol=1e-12)
    assert np.allclose(e[pos_block(0, 2)], 0.0, atol=1e-12)


def test_riekf_error_pure_translation():
    mean = GroupState(np.eye(3), np.zeros(3),
                      np.broadcast_to(np.eye(3), (1, 3, 3)).copy(),
                      np.array([[1.0, 0.0, 0.0]]), ("f0",))
    true = GroupState(np.eye(3), np.array([0.2, 0.0, 0.0]),
                      mean.feature_rots.copy(), mean.feature_pos.copy(), ("f0",))
    e = INVARIANT.error(true, mean)
    assert np.allclose(e[pos_block(0, 1)], [0.2, 0.0, 0.0], atol=1e-14)


def test_riekf_error_matches_independent_minus_then_log():
    rng = np.random.default_rng(5)
    state = random_filter_state(rng, k=2)
    true = group_compose(group_exp(0.2 * rng.normal(size=tangent_dim(2)),
                                   state.mean.feature_ids), state.mean)
    # independently coded: embed both, multiply by the inverse, take the log
    full = group_log(group_minus(true, state.mean))
    e = INVARIANT.error(true, state.mean)
    for idx in (rot_block(0), pos_block(0, 2), rot_block(2), pos_block(2, 2)):
        assert np.allclose(e[idx], full[idx], atol=1e-12)
    out = collect_samples(true, state, INVARIANT)
    assert np.allclose(out["robot-rot"][1][0], state.cov[rot_block(0), rot_block(0)],
                       atol=1e-15)
    assert np.allclose(out["feature-rot"][0][1], full[rot_block(2)], atol=1e-12)


def test_std_error_conventions():
    rng = np.random.default_rng(6)
    state = random_filter_state(rng, k=1)
    mean = state.mean
    delta_rot = so3_exp(np.array([0.05, -0.02, 0.01]))
    true = GroupState(delta_rot @ mean.robot_rot, mean.robot_pos + [0.1, 0, 0],
                      mean.feature_rots.copy(), mean.feature_pos + [0, 0.2, 0],
                      mean.feature_ids)
    e = STANDARD.error(true, mean)
    assert np.allclose(e[rot_block(0)], so3_log(delta_rot), atol=1e-12)
    assert np.allclose(e[pos_block(0, 1)], [0.1, 0, 0], atol=1e-14)
    assert np.allclose(e[pos_block(1, 1)], [0, 0.2, 0], atol=1e-14)


def test_std_error_matches_duplicate_implementation():
    rng = np.random.default_rng(7)
    state = random_filter_state(rng, k=2)
    true = group_compose(group_exp(0.2 * rng.normal(size=tangent_dim(2)),
                                   state.mean.feature_ids), state.mean)
    e = STANDARD.error(true, state.mean)
    pose_errors = collect_samples(true, state, STANDARD)["feature-pose"][0]
    for j in range(state.mean.num_features):
        expected = np.concatenate([
            so3_log(true.feature_rots[j] @ state.mean.feature_rots[j].T),
            true.feature_pos[j] - state.mean.feature_pos[j]])
        assert np.allclose(np.concatenate([e[rot_block(j + 1)],
                                           e[pos_block(j + 1, 2)]]),
                           expected, atol=1e-12)
        assert np.allclose(pose_errors[j], expected, atol=1e-12)


def test_rmse_always_uses_standard_convention():
    # the rmse errors must equal standard-convention block errors even when
    # the nees convention is invariant
    rng = np.random.default_rng(8)
    state = random_filter_state(rng, k=1)
    true = group_compose(group_exp(0.3 * rng.normal(size=12),
                                   state.mean.feature_ids), state.mean)
    out = collect_samples(true, state, INVARIANT)
    std = STANDARD.error(true, state.mean)
    ri = INVARIANT.error(true, state.mean)
    for block, idx in (("robot-rot", rot_block(0)), ("robot-pos", pos_block(0, 1)),
                       ("feature-pos", pos_block(1, 1))):
        nees_errors, _, std_errors = out[block]
        assert np.allclose(std_errors[0], std[idx], atol=1e-12)
        assert np.allclose(nees_errors[0], ri[idx], atol=1e-12)
    # with a rotated frame the two conventions genuinely differ on positions
    assert not np.allclose(std[pos_block(0, 1)], ri[pos_block(0, 1)])


def test_collect_samples_covers_all_blocks_and_features():
    rng = np.random.default_rng(9)
    state = random_filter_state(rng, k=3)
    true = group_compose(group_exp(0.1 * rng.normal(size=tangent_dim(3)),
                                   state.mean.feature_ids), state.mean)
    out = collect_samples(true, state, STANDARD)
    assert tuple(out) == BLOCKS
    for b in BLOCKS:
        n = 3 if b.startswith("feature") else 1
        m = 6 if b.endswith("pose") else 3
        errors, covs, std_errors = out[b]
        assert errors.shape == std_errors.shape == (n, m)
        assert covs.shape == (n, m, m)
    # feature j's pose block is its [rotation, position] covariance block
    for j in range(3):
        idx = np.r_[rot_block(j + 1), pos_block(j + 1, 3)]
        assert np.array_equal(out["feature-pose"][1][j], state.cov[np.ix_(idx, idx)])
    # a state without features has empty feature blocks
    empty = FilterState(GroupState(state.mean.robot_rot, state.mean.robot_pos),
                        state.cov[np.ix_(np.r_[0:3, 12:15], np.r_[0:3, 12:15])])
    out = collect_samples(GroupState(true.robot_rot, true.robot_pos), empty, STANDARD)
    assert out["robot-pose"][1].shape == (1, 6, 6)
    assert out["feature-pose"][0].shape == (0, 6)
