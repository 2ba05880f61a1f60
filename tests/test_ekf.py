import numpy as np
import pytest

from objectslam.ekf import INVARIANT, STANDARD, FilterBatch
from objectslam.group import (GroupState, group_compose, group_exp, pos_block,
                              rot_block, split_tangent, tangent_dim)
from objectslam.lie import batch_so3_log, skew, so3_exp, so3_log
from objectslam.types import FilterState, Odometry, PoseObservation, symmetrize

from test_riekf import random_filter_state


def test_error_inverts_retraction_for_both_conventions():
    # NEES judges a covariance by conv.error, so it must recover exactly the
    # correction that conv.retract applied
    rng = np.random.default_rng(40)
    for conv in (INVARIANT, STANDARD):
        for _ in range(50):
            k = int(rng.integers(1, 4))
            mean = random_filter_state(rng, k=k).mean
            delta = rng.normal(size=tangent_dim(k))
            for i in range(k + 1):
                n = np.linalg.norm(delta[rot_block(i)])
                if n >= np.pi - 0.1:
                    delta[rot_block(i)] *= (np.pi - 0.1) * rng.uniform() / n
            err = conv.error(conv.retract(mean, delta), mean)
            assert np.max(np.abs(err - delta)) < 1e-12, conv.name


# rotation-block angles from zero through both small-angle regimes up to
# the invariant log's domain boundary at pi - 1e-6, where the error map's
# antisymmetric-part formula would lose the axis
ROUND_TRIP_ANGLES = (0.0, 1e-9, 5e-5, 0.3, 2.0, 2.7, np.pi - 1e-3,
                     np.pi - 1e-5, np.pi - 1.001e-6)


@pytest.mark.parametrize("conv", [INVARIANT, STANDARD], ids=lambda c: c.name)
def test_error_inverts_retraction_over_a_leading_axis_up_to_pi(conv):
    rng = np.random.default_rng(41)
    k, n = 3, 1200
    mean = random_filter_state(rng, k=k).mean
    delta = rng.normal(size=(n, tangent_dim(k)))
    rot_vecs, _ = split_tangent(delta, k)
    rot_vecs /= np.linalg.norm(rot_vecs, axis=-1, keepdims=True)
    rot_vecs *= rng.choice(ROUND_TRIP_ANGLES, size=(n, k + 1, 1))
    delta = np.concatenate([rot_vecs.reshape(n, -1), delta[:, 3 * (k + 1):]], axis=1)
    truth = conv.retract(mean, delta)
    assert truth.robot_rot.shape == (n, 3, 3)
    assert truth.feature_pos.shape == (n, k, 3)
    err = conv.error(truth, mean)
    assert err.shape == (n, tangent_dim(k))
    assert np.abs(err - delta).max() < 1e-9
    # without a leading axis: the same maps, the same numbers
    for i in range(0, n, 97):
        one = conv.error(conv.retract(mean, delta[i]), mean)
        assert np.abs(one - delta[i]).max() < 1e-9
        assert np.abs(one - err[i]).max() < 1e-12
    # the batch log agrees with the scalar one on the retracted rotations
    rots = truth.rotations @ np.swapaxes(mean.rotations, -1, -2)
    scalar = np.array([[so3_log(r, validate=False) for r in lanes] for lanes in rots])
    assert np.abs(batch_so3_log(rots) - scalar).max() < 1e-12


def _setup(seed, k):
    # a state, a linearization point near it (as the ideal variant passes
    # ground truth), and an observation of each existing feature
    rng = np.random.default_rng(seed)
    state = random_filter_state(rng, k=k)
    lin = group_compose(group_exp(0.05 * rng.normal(size=tangent_dim(k)),
                                  state.mean.feature_ids), state.mean)
    omega = np.diag(rng.uniform(0.01, 0.05, size=6) ** 2)
    obs = [PoseObservation(fid, so3_exp(0.1 * rng.normal(size=3)),
                           rng.normal(size=3), omega)
           for fid in state.mean.feature_ids]
    return rng, state, lin, obs


@pytest.mark.parametrize("conv", (INVARIANT, STANDARD), ids=lambda c: c.name)
@pytest.mark.parametrize("k", (1, 3))
def test_block_innovation_matches_dense_jacobian(conv, k):
    _, state, lin, obs = _setup(50 + k, k)
    p = state.cov
    for linearization in (None, lin):
        for j, z in enumerate(obs):
            inn = conv.innovation(state, z, linearization)
            h = conv.observation_jacobian(state.mean, j, linearization)
            assert np.max(np.abs(inn.HP - h @ p)) < 1e-12
            assert np.max(np.abs(inn.S - (symmetrize(h @ p @ h.T) + z.noise_cov))) < 1e-12


@pytest.mark.parametrize("conv", (INVARIANT, STANDARD), ids=lambda c: c.name)
@pytest.mark.parametrize("k", (1, 3, 25))  # 25: d > 128, products in row bands
def test_update_leaves_input_covariance_untouched(conv, k):
    _, state, lin, obs = _setup(60 + k, k)
    before = state.cov.copy()
    for linearization in (None, lin):
        inn = conv.innovation(state, obs[-1], linearization)
        out = conv.apply_update(state, inn)
        assert np.array_equal(state.cov, before)
        dense = state.cov - inn.HP.T @ np.linalg.inv(inn.S) @ inn.HP
        assert np.max(np.abs(out.cov - dense)) < 1e-12


@pytest.mark.parametrize("conv", (INVARIANT, STANDARD), ids=lambda c: c.name)
@pytest.mark.parametrize("k", (0, 1, 3, 25))
def test_block_augmentation_matches_dense_maps(conv, k):
    rng, state, _, _ = _setup(70 + k, k)
    before = state.cov.copy()
    omega = np.diag(rng.uniform(0.01, 0.05, size=6) ** 2)
    omega[0, 4] = omega[4, 0] = 0.3 * np.sqrt(omega[0, 0] * omega[4, 4])
    z = PoseObservation("new", so3_exp(rng.normal(size=3)), rng.normal(size=3),
                        omega)
    a, b = conv.augmentation_jacobians(state, z)
    out = conv.initialize_feature(state, z)
    dense = a @ state.cov @ a.T + b @ omega @ b.T
    assert np.array_equal(state.cov, before)
    assert np.max(np.abs(out.cov - dense)) < 1e-12
    assert np.array_equal(out.cov, out.cov.T)


def _same_bits(x, y):
    return np.array_equal(x, y) and x.tobytes() == y.tobytes()


def _block_loop_augmentation(conv, state, z):
    """A and B built block by block, as augmentation_jacobians once did."""
    k = state.mean.num_features
    d = tangent_dim(k)
    a = np.zeros((d + 6, d))
    b = np.zeros((d + 6, 6))
    new_rot = rot_block(k + 1)
    new_pos = pos_block(k + 1, k + 1)
    for i in range(k + 1):
        a[rot_block(i), rot_block(i)] = np.eye(3)
        a[pos_block(i, k + 1), pos_block(i, k)] = np.eye(3)
    a[new_rot, rot_block(0)] = np.eye(3)
    a[new_pos, pos_block(0, k)] = np.eye(3)
    r = state.mean.robot_rot
    if conv.lever_arm is not None:
        a[new_pos, rot_block(0)] = conv.lever_arm(r, z.pos)
    b[new_rot, 0:3] = -r
    b[new_pos, 3:6] = -r
    return a, b


@pytest.mark.parametrize("conv", (INVARIANT, STANDARD), ids=lambda c: c.name)
@pytest.mark.parametrize("k", (0, 1, 3, 6))
def test_augmentation_maps_equal_the_block_loops(conv, k):
    rng, state, _, _ = _setup(90 + k, k)
    z = PoseObservation("new", so3_exp(rng.normal(size=3)), rng.normal(size=3),
                        np.eye(6))
    a, b = conv.augmentation_jacobians(state, z)
    ref_a, ref_b = _block_loop_augmentation(conv, state, z)
    assert _same_bits(a, ref_a) and _same_bits(b, ref_b)


def _feature_loop_invariant_g(mean, lin, u):
    """The invariant G built feature by feature, as it once was."""
    k = mean.num_features
    r = lin.robot_rot
    g = np.zeros((tangent_dim(k), 6))
    g[rot_block(0), 0:3] = r
    g[pos_block(0, k), 0:3] = skew(lin.robot_pos + r @ u.pos) @ r
    g[pos_block(0, k), 3:6] = r
    for j, fid in enumerate(mean.feature_ids):
        g[pos_block(j + 1, k), 0:3] = skew(lin.feature_pos[lin.index_of(fid)]) @ r
    return g


@pytest.mark.parametrize("k", (0, 1, 6))
def test_invariant_noise_jacobian_equals_the_feature_loop(k):
    rng, state, lin, _ = _setup(100 + k, k)
    # the linearization state lists its features in reverse, so G must look
    # each one up by id
    rev = np.arange(k)[::-1]
    lin = GroupState(lin.robot_rot, lin.robot_pos, lin.feature_rots[rev],
                     lin.feature_pos[rev], tuple(lin.feature_ids[i] for i in rev))
    u = Odometry(so3_exp(0.1 * rng.normal(size=3)), rng.normal(size=3), np.eye(6))
    for linearization in (state.mean, lin):
        _, g = INVARIANT.propagation_jacobians(state, u, linearization)
        assert _same_bits(g, _feature_loop_invariant_g(state.mean, linearization, u))


@pytest.mark.parametrize("conv", (INVARIANT, STANDARD), ids=lambda c: c.name)
def test_updates_keep_covariance_symmetric_without_symmetrizing(conv):
    # apply_update does not symmetrize; rounding asymmetry must stay
    # negligible over many updates with no propagate in between
    rng, state, _, obs = _setup(80, 3)
    for i in range(50):
        state = conv.apply_update(state, conv.innovation(state, obs[i % 3]))
    p = state.cov
    assert np.max(np.abs(p - p.T)) <= 1e-12 * np.max(np.abs(p))
    u = Odometry(so3_exp(0.1 * rng.normal(size=3)), rng.normal(size=3),
                 np.diag(rng.uniform(0.01, 0.05, size=6) ** 2))
    prop = conv.propagate(state, u)
    assert np.array_equal(prop.cov, prop.cov.T)


def _state_bytes(state):
    return [a.tobytes() for a in (state.mean.rotations, state.mean.positions, state.cov)]


@pytest.mark.parametrize("conv", (INVARIANT, STANDARD), ids=lambda c: c.name)
@pytest.mark.parametrize("k", (1, 25))  # 25: d > 128, products in row bands
@pytest.mark.parametrize("accept", ((True, False), (False, True)))
def test_update_keeps_a_member_it_does_not_correct_bit_for_bit(conv, k, accept):
    # signed zeros in the mean, which a zero correction would turn to +0.0;
    # the corrected member matches its own one-member update bit for bit
    _, state, _, obs = _setup(90 + k, k)
    rot, pos = state.mean.rotations.copy(), state.mean.positions.copy()
    rot[1] = [[0.6, -0.8, -0.0], [0.8, 0.6, -0.0], [-0.0, -0.0, 1.0]]
    pos[0, 0] = pos[1, 2] = -0.0
    mean = GroupState(rot[0], pos[0], rot[1:], pos[1:], state.mean.feature_ids)
    state = FilterState(mean, state.cov)
    batch = FilterBatch((conv, conv), (False, False), np.stack([rot, rot]),
                        np.stack([pos, pos]), np.stack([state.cov, state.cov]),
                        mean.feature_ids)
    z = obs[-1]
    assert batch.update(batch.innovation(z), np.array(accept)) == {}
    corrected = conv.apply_update(state, conv.innovation(state, z))
    for i, accepted in enumerate(accept):
        expected = corrected if accepted else state
        assert _state_bytes(batch.member(i)) == _state_bytes(expected)


@pytest.mark.parametrize("conv", (INVARIANT, STANDARD), ids=lambda c: c.name)
def test_a_member_with_a_singular_s_fails_alone(conv):
    # zero covariance and zero observation noise: member 1's S is the zero
    # matrix, which would make one batched inverse fail for both members
    _, state, _, obs = _setup(95, 2)
    z = PoseObservation(obs[-1].feature_id, obs[-1].rot, obs[-1].pos, np.zeros((6, 6)))
    mean = state.mean
    zero = FilterState(mean, np.zeros_like(state.cov))
    batch = FilterBatch((conv, conv), (False, False), np.stack([mean.rotations] * 2),
                        np.stack([mean.positions] * 2), np.stack([state.cov, zero.cov]),
                        mean.feature_ids)
    failures = batch.update(batch.innovation(z))
    assert list(failures) == [1] and "condition number" in str(failures[1])
    corrected = conv.apply_update(state, conv.innovation(state, z))
    assert _state_bytes(batch.member(0)) == _state_bytes(corrected)
    assert _state_bytes(batch.member(1)) == _state_bytes(zero)
