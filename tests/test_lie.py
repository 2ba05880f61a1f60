import numpy as np
import pytest

from objectslam.errors import InvalidRotationError, LogDomainError
from objectslam.lie import (batch_left_jacobian_inv, batch_so3_log,
                            project_to_so3, random_rotation, rot_to_quat,
                            quat_to_rot, skew, so3_exp, so3_log)


def left_jacobian(phi):
    return so3_exp(phi, left_jacobian=True)[1]


def series_exp(phi, terms=30):
    """Truncated power series of the matrix exponential of skew(phi)."""
    s = skew(phi)
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ s / k
        out = out + term
    return out


def series_left_jacobian(phi, terms=30):
    """Truncated series sum_k skew(phi)^k / (k+1)!."""
    s = skew(phi)
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ s / k
        out = out + term / (k + 1)
    return out


def test_skew_zero():
    assert np.array_equal(skew(np.zeros(3)), np.zeros((3, 3)))


def test_skew_basis():
    expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.array_equal(skew(np.array([1.0, 0, 0])), expected)


def test_skew_matches_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(skew(v) @ w, np.cross(v, w), atol=1e-14)
        m = skew(v)
        assert np.allclose(m, -m.T)


def test_so3_exp_zero_is_identity():
    assert np.allclose(so3_exp(np.zeros(3)), np.eye(3), atol=1e-15)


def test_so3_exp_quarter_turn():
    # frozen from the 30-term series oracle
    expected = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
    got = so3_exp(np.array([np.pi / 2, 0, 0]))
    assert np.allclose(got, expected, atol=1e-12)
    assert np.allclose(series_exp(np.array([np.pi / 2, 0, 0])), expected, atol=1e-12)


def test_so3_exp_matches_series():
    rng = np.random.default_rng(1)
    for _ in range(300):
        phi = rng.uniform(-np.pi, np.pi) * rng.normal(size=3) / 3
        assert np.allclose(so3_exp(phi), series_exp(phi), atol=1e-12)


def test_so3_exp_tiny_angle_first_order():
    phi = np.array([1e-10, 0, 0])
    assert np.allclose(so3_exp(phi), np.eye(3) + skew(phi), atol=1e-12)


def test_so3_exp_output_is_rotation():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        r = so3_exp(rng.uniform(-np.pi, np.pi, size=3))
        assert np.linalg.norm(r @ r.T - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


def test_so3_log_identity():
    assert np.allclose(so3_log(np.eye(3)), np.zeros(3))


def test_so3_log_roundtrip():
    phi = np.array([0.3, -0.2, 0.1])
    assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-12)


def test_so3_log_roundtrip_sweep():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        phi = rng.uniform(1e-8, np.pi - 1e-3) * axis
        assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-9)


def test_so3_log_pi_rotation():
    r = so3_exp(np.array([0.0, 0.0, np.pi]))
    phi = so3_log(r)
    assert abs(np.linalg.norm(phi) - np.pi) < 1e-9
    assert np.allclose(so3_exp(phi), r, atol=1e-9)
    # deterministic sign: the largest-magnitude axis component is positive
    assert np.allclose(phi, [0.0, 0.0, np.pi], atol=1e-9)
    r = so3_exp(np.array([0.0, 0.0, -np.pi]))
    assert np.allclose(so3_log(r), [0.0, 0.0, np.pi], atol=1e-9)


def test_so3_log_near_pi_stable():
    rng = np.random.default_rng(4)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        phi = (np.pi - 10 ** rng.uniform(-9, -3)) * axis
        r = so3_exp(phi)
        assert np.allclose(so3_exp(so3_log(r)), r, atol=1e-9)


def test_so3_log_rejects_non_rotation():
    with pytest.raises(InvalidRotationError):
        so3_log(np.eye(3) * 1.1)
    with pytest.raises(InvalidRotationError):
        so3_log(np.diag([1.0, 1.0, -1.0]))


def test_left_jacobian_zero():
    assert np.allclose(left_jacobian(np.zeros(3)), np.eye(3))


def test_left_jacobian_matches_series():
    phi = np.array([0.3, 0, 0])
    assert np.allclose(left_jacobian(phi), series_left_jacobian(phi), atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(300):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        phi = rng.uniform(0, np.pi) * axis
        assert np.allclose(left_jacobian(phi), series_left_jacobian(phi), atol=1e-12)


def test_left_jacobian_small_angle_expansion():
    phi = np.array([1e-5, -2e-5, 5e-6])
    assert np.allclose(left_jacobian(phi), np.eye(3) + 0.5 * skew(phi), atol=1e-9)


def test_left_jacobian_inverse():
    rng = np.random.default_rng(6)
    for _ in range(300):
        phi = rng.uniform(-1.5, 1.5, size=3)
        prod = left_jacobian(phi) @ batch_left_jacobian_inv(phi)
        assert np.allclose(prod, np.eye(3), atol=1e-10)


def test_left_jacobian_inverse_over_leading_axes_and_regimes():
    rng = np.random.default_rng(9)
    axes = rng.normal(size=(4, 50, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    # tiny, series-regime and closed-form angles in one batch
    phis = axes * np.array([0.0, 1e-9, 5e-5, 0.5, 3.0])[rng.integers(0, 5, (4, 50))][..., None]
    prod = left_jacobian(phis) @ batch_left_jacobian_inv(phis)
    assert prod.shape == (4, 50, 3, 3)
    assert np.allclose(prod, np.eye(3), atol=1e-10)
    with pytest.raises(LogDomainError):
        batch_left_jacobian_inv(np.array([2.0 * np.pi, 0.0, 0.0]))


def test_so3_exp_of_one_vector_is_its_row_of_a_stack():
    # the stack mixes both regimes, and exact zero, while each single vector
    # is a one-regime batch
    rng = np.random.default_rng(10)
    phis = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-9, 0.4, size=(300, 1))
    phis[0] = 0.0
    rots, jls = so3_exp(phis, left_jacobian=True)
    assert np.array_equal(rots, so3_exp(phis))
    for phi, r, jl in zip(phis, rots, jls):
        assert np.array_equal(r, so3_exp(phi))
        assert np.allclose(jl, series_left_jacobian(phi), atol=1e-12)


def test_batch_so3_log_matches_scalar_up_to_pi():
    rng = np.random.default_rng(11)
    axes = rng.normal(size=(2000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    for angle in (0.0, 1e-9, 1e-5, 0.3, 2.5, 2.7, np.pi - 1e-3,
                  np.pi - 1e-5, np.pi - 1e-6, np.pi):
        rots = so3_exp(angle * axes)
        batch = batch_so3_log(rots)
        scalar = np.array([so3_log(r) for r in rots])
        assert np.abs(batch - scalar).max() <= 1e-12, angle
    # the same near-pi regime over two leading axes
    rots = so3_exp((np.pi - 1e-6) * axes).reshape(40, 50, 3, 3)
    assert batch_so3_log(rots).shape == (40, 50, 3)


def test_batch_so3_log_validates_every_rotation():
    rots = np.stack([np.eye(3), np.eye(3) * 1.1])
    batch_so3_log(rots)
    with pytest.raises(InvalidRotationError):
        batch_so3_log(rots, validate=True)


def test_project_to_so3():
    rng = np.random.default_rng(7)
    r = random_rotation(rng)
    noisy = r + 1e-6 * rng.normal(size=(3, 3))
    fixed = project_to_so3(noisy)
    assert np.linalg.norm(fixed @ fixed.T - np.eye(3)) < 1e-12
    assert np.linalg.norm(fixed - r) < 1e-5


def test_random_rotation_valid_and_quat_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(500):
        r = random_rotation(rng)
        assert np.linalg.norm(r @ r.T - np.eye(3)) < 1e-12
        q = rot_to_quat(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.allclose(quat_to_rot(q), r, atol=1e-12)


def _half_turns(rng, n):
    """Rotations by exactly pi about the coordinate axes and random axes."""
    axes = np.concatenate([np.eye(3), rng.normal(size=(n, 3))])
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    return 2.0 * axes[:, :, None] * axes[:, None, :] - np.eye(3)


def _shepperd_branch(r):
    """The branch the one-rotation method takes: 3 for the trace, else the
    index of the leading diagonal entry."""
    if np.trace(r) > 0.0:
        return 3
    d = np.diag(r)
    return 0 if d[0] >= d[1] and d[0] >= d[2] else (1 if d[1] >= d[2] else 2)


def test_quaternion_maps_over_leading_axes_match_one_at_a_time_bitwise():
    rng = np.random.default_rng(21)
    quats = rng.normal(size=(2000, 4))
    unit = quats / np.linalg.norm(quats, axis=1)[:, None]
    # non-unit quaternions a log may carry: within 1e-4 of unit norm
    near = unit * (1.0 + rng.uniform(-1e-4, 1e-4, size=(2000, 1)))
    quats = np.concatenate([quats, near])
    rots = quat_to_rot(quats)
    assert rots.shape == (4000, 3, 3)
    assert np.array_equal(rots, np.array([quat_to_rot(q) for q in quats]))
    assert np.array_equal(quat_to_rot(quats.reshape(2, 2000, 4)),
                          rots.reshape(2, 2000, 3, 3))

    rots = np.concatenate([rots, _half_turns(rng, 50), np.eye(3)[None],
                           np.diag([1.0, -1.0, -1.0])[None],
                           np.diag([-1.0, 1.0, -1.0])[None],
                           np.diag([-1.0, -1.0, 1.0])[None]])
    assert set(map(_shepperd_branch, rots)) == {0, 1, 2, 3}
    assert {_shepperd_branch(r) for r in rots[4000:]} == {0, 1, 2, 3}
    q = rot_to_quat(rots)
    assert q.shape == (len(rots), 4)
    assert np.array_equal(q, np.array([rot_to_quat(r) for r in rots]))
    assert np.array_equal(rot_to_quat(rots[:4000].reshape(40, 100, 3, 3)),
                          q[:4000].reshape(40, 100, 4))
    assert np.all(q[:, 0] >= 0.0)
    assert np.allclose(quat_to_rot(q), rots, atol=1e-12)


def test_zero_quaternion_in_a_stack_rejected():
    with pytest.raises(InvalidRotationError, match="zero quaternion"):
        quat_to_rot(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
