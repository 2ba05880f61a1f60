import numpy as np
import pytest

from objectslam.ekf import INVARIANT, STANDARD
from objectslam.errors import SingularCovarianceError
from objectslam.group import (GroupState, group_compose, group_exp, group_log,
                              group_minus, pos_block, rot_block, tangent_dim)
from objectslam.lie import so3_exp, so3_log
from objectslam.metrics import (BLOCKS, ErrorSample, collect_samples,
                                error_sample, nees, rmse)
from objectslam.types import FilterState

from test_riekf import random_filter_state


def test_nees_zero_errors():
    samples = [ErrorSample(np.zeros(3), np.eye(3), "robot-pos") for _ in range(5)]
    assert nees(samples) == 0.0


def test_nees_single_sample_identity_cov():
    s = ErrorSample(np.ones(3), np.eye(3), "robot-pos")
    assert abs(nees([s]) - 1.0) < 1e-15


def test_nees_chi_square_sampling():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    p = a @ a.T + np.eye(3)
    factor = np.linalg.cholesky(p)
    samples = [ErrorSample(factor @ rng.standard_normal(3), p, "robot-pos")
               for _ in range(10_000)]
    assert 0.95 < nees(samples) < 1.05


def test_nees_invariant_under_reparameterization():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=(4, 4))
        p = a @ a.T + np.eye(4)
        e = rng.normal(size=4)
        t = rng.normal(size=(4, 4)) + 3 * np.eye(4)
        n1 = nees([ErrorSample(e, p, "x")])
        n2 = nees([ErrorSample(t @ e, t @ p @ t.T, "x")])
        assert abs(n1 - n2) < 1e-10 * max(1.0, n1)


def test_nees_singular_covariance_raises_with_label():
    s = ErrorSample(np.ones(3), np.zeros((3, 3)), "robot-pos", label="run3/step50")
    with pytest.raises(SingularCovarianceError, match="run3/step50"):
        nees([s])


def test_rmse_trivial_cases():
    assert rmse([np.zeros(3)] * 4) == 0.0
    assert abs(rmse([np.array([0.1, 0.0, 0.0])] * 7) - 0.1) < 1e-15


def test_rmse_matches_direct_formula():
    rng = np.random.default_rng(2)
    errors = [rng.normal(size=3) for _ in range(100)]
    expected = np.sqrt(np.mean([np.sum(e ** 2) for e in errors]))
    assert abs(rmse(errors) - expected) < 1e-12


def test_riekf_error_zero_for_exact_estimate():
    rng = np.random.default_rng(3)
    state = random_filter_state(rng, k=2)
    s = error_sample(INVARIANT, state.mean, state, "robot-pose")
    assert np.allclose(s.e, 0.0, atol=1e-12)


def test_riekf_error_pure_translation():
    rng = np.random.default_rng(4)
    state = random_filter_state(rng, k=1)
    mean = GroupState(np.eye(3), np.zeros(3),
                      np.broadcast_to(np.eye(3), (1, 3, 3)).copy(),
                      np.array([[1.0, 0.0, 0.0]]), ("f0",))
    state = FilterState(mean, state.cov)
    true = GroupState(np.eye(3), np.array([0.2, 0.0, 0.0]),
                      mean.feature_rots.copy(), mean.feature_pos.copy(), ("f0",))
    s = error_sample(INVARIANT, true, state, "robot-pos")
    assert np.allclose(s.e, [0.2, 0.0, 0.0], atol=1e-14)


def test_riekf_error_matches_independent_minus_then_log():
    rng = np.random.default_rng(5)
    state = random_filter_state(rng, k=2)
    true = group_compose(group_exp(0.2 * rng.normal(size=tangent_dim(2)),
                                   state.mean.feature_ids), state.mean)
    # independently coded: embed both, multiply by the inverse, take the log
    full = group_log(group_minus(true, state.mean))
    for block, idx in (("robot-rot", rot_block(0)),
                       ("robot-pos", pos_block(0, 2))):
        s = error_sample(INVARIANT, true, state, block)
        assert np.allclose(s.e, full[idx], atol=1e-12)
        assert np.allclose(s.P, state.cov[idx, idx], atol=1e-15)
    s = error_sample(INVARIANT, true, state, "feature-rot", feature_id="f1")
    assert np.allclose(s.e, full[rot_block(2)], atol=1e-12)


def test_std_error_conventions():
    rng = np.random.default_rng(6)
    state = random_filter_state(rng, k=1)
    mean = state.mean
    delta_rot = so3_exp(np.array([0.05, -0.02, 0.01]))
    true = GroupState(delta_rot @ mean.robot_rot, mean.robot_pos + [0.1, 0, 0],
                      mean.feature_rots.copy(), mean.feature_pos + [0, 0.2, 0],
                      mean.feature_ids)
    assert np.allclose(error_sample(STANDARD, true, state, "robot-rot").e,
                       so3_log(delta_rot), atol=1e-12)
    assert np.allclose(error_sample(STANDARD, true, state, "robot-pos").e,
                       [0.1, 0, 0], atol=1e-14)
    assert np.allclose(error_sample(STANDARD, true, state, "feature-pos",
                                    feature_id="f0").e,
                       [0, 0.2, 0], atol=1e-14)


def test_std_error_matches_duplicate_implementation():
    rng = np.random.default_rng(7)
    state = random_filter_state(rng, k=2)
    true = group_compose(group_exp(0.2 * rng.normal(size=tangent_dim(2)),
                                   state.mean.feature_ids), state.mean)
    for j, fid in enumerate(state.mean.feature_ids):
        s = error_sample(STANDARD, true, state, "feature-pose", feature_id=fid)
        expected = np.concatenate([
            so3_log(true.feature_rots[j] @ state.mean.feature_rots[j].T),
            true.feature_pos[j] - state.mean.feature_pos[j]])
        assert np.allclose(s.e, expected, atol=1e-12)


def test_rmse_always_uses_standard_convention():
    # the pooled rmse errors must equal standard-convention block errors even
    # when the nees convention is invariant
    rng = np.random.default_rng(8)
    state = random_filter_state(rng, k=1)
    true = group_compose(group_exp(0.3 * rng.normal(size=12),
                                   state.mean.feature_ids), state.mean)
    out = collect_samples(true, state, INVARIANT)
    std_robot_rot = error_sample(STANDARD, true, state, "robot-rot").e
    ri_robot_rot = error_sample(INVARIANT, true, state, "robot-rot").e
    assert np.allclose(out["rmse"]["robot-rot"][0], std_robot_rot, atol=1e-12)
    assert np.allclose(out["nees"]["robot-rot"][0].e, ri_robot_rot, atol=1e-12)
    # with a rotated frame the two conventions genuinely differ on positions
    assert not np.allclose(error_sample(STANDARD, true, state, "robot-pos").e,
                           error_sample(INVARIANT, true, state, "robot-pos").e)


def test_collect_samples_covers_all_blocks_and_features():
    rng = np.random.default_rng(9)
    state = random_filter_state(rng, k=3)
    true = group_compose(group_exp(0.1 * rng.normal(size=tangent_dim(3)),
                                   state.mean.feature_ids), state.mean)
    out = collect_samples(true, state, STANDARD)
    for b in BLOCKS:
        expected = 3 if b.startswith("feature") else 1
        assert len(out["nees"][b]) == expected
        assert len(out["rmse"][b]) == expected
    assert out["nees"]["robot-pose"][0].e.shape == (6,)
    assert out["nees"]["feature-pose"][0].P.shape == (6, 6)
