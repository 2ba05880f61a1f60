"""Product-group state for a robot pose plus K object-feature poses.

The group composition treats the robot pose and all positions like a single
SE_{K+1}(3) element (every position is rotated by the left operand's robot
rotation) while feature rotations compose independently as SO(3) factors.

Tangent vectors are ordered rotations-then-positions:

    [xi_rot_robot, xi_rot_f1, ..., xi_rot_fK,
     xi_pos_robot, xi_pos_f1, ..., xi_pos_fK]

and every position block of the exponential map is premultiplied by the left
Jacobian of the ROBOT rotation vector.

Every map here also takes states and tangent vectors with leading axes (a
batch of n states has robot_rot of shape (n, 3, 3), feature_rots (n, K, 3, 3)
and tangents (n, d)); operands broadcast against each other.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, LogDomainError
from .lie import batch_left_jacobian_inv, batch_so3_exp, batch_so3_log


def tangent_dim(num_features: int) -> int:
    return 6 + 6 * num_features


def rot_block(i: int) -> slice:
    """Rotation block slice; i == 0 is the robot, i == j+1 is feature j."""
    return slice(3 * i, 3 * i + 3)


def pos_block(i: int, num_features: int) -> slice:
    """Position block slice; i == 0 is the robot, i == j+1 is feature j."""
    off = 3 * (num_features + 1)
    return slice(off + 3 * i, off + 3 * i + 3)


@dataclass(frozen=True)
class GroupState:
    """Robot pose and K feature poses, all in the global frame.

    feature_rots has shape (K, 3, 3), feature_pos shape (K, 3); feature_ids
    is a tuple of opaque hashable ids aligned with those arrays. A batch of
    states puts its leading axes in front of every array's shape.
    """

    robot_rot: np.ndarray
    robot_pos: np.ndarray
    feature_rots: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    feature_pos: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    feature_ids: tuple = ()

    @property
    def num_features(self) -> int:
        return len(self.feature_ids)

    def index_of(self, feature_id) -> int:
        return self.feature_ids.index(feature_id)

    @property
    def rotations(self) -> np.ndarray:
        """All K+1 rotations, robot first: (..., K+1, 3, 3)."""
        return np.concatenate([self.robot_rot[..., None, :, :], self.feature_rots],
                              axis=-3)

    @property
    def positions(self) -> np.ndarray:
        """All K+1 positions, robot first: (..., K+1, 3)."""
        return np.concatenate([self.robot_pos[..., None, :], self.feature_pos],
                              axis=-2)


def split_tangent(xi: np.ndarray, num_features: int) -> tuple:
    """(rotation vectors, position vectors) of (..., d) tangents, each
    (..., K+1, 3) with the robot first."""
    block = xi.shape[:-1] + (num_features + 1, 3)
    n = 3 * (num_features + 1)
    return xi[..., :n].reshape(block), xi[..., n:].reshape(block)


def join_tangent(rot_vecs: np.ndarray, pos_vecs: np.ndarray) -> np.ndarray:
    """Inverse of split_tangent."""
    flat = rot_vecs.shape[:-2] + (-1,)
    return np.concatenate([rot_vecs.reshape(flat), pos_vecs.reshape(flat)], axis=-1)


def _rotate(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    """r @ p over leading axes (a 3x1 column rounds exactly as the vector)."""
    return (r @ p[..., None])[..., 0]


def identity_state(feature_ids: tuple = ()) -> GroupState:
    k = len(feature_ids)
    return GroupState(np.eye(3), np.zeros(3),
                      np.broadcast_to(np.eye(3), (k, 3, 3)).copy(),
                      np.zeros((k, 3)), tuple(feature_ids))


def _check_compatible(a: GroupState, b: GroupState) -> None:
    if a.feature_ids != b.feature_ids:
        raise DimensionMismatchError(
            f"feature ids differ: {a.feature_ids} vs {b.feature_ids}")


def group_compose(a: GroupState, b: GroupState) -> GroupState:
    """a (+) b: rotations multiply per block, positions via the robot rotation."""
    _check_compatible(a, b)
    return GroupState(
        a.robot_rot @ b.robot_rot,
        _rotate(a.robot_rot, b.robot_pos) + a.robot_pos,
        a.feature_rots @ b.feature_rots,
        b.feature_pos @ a.robot_rot.swapaxes(-1, -2) + a.feature_pos,
        a.feature_ids,
    )


def group_inverse(a: GroupState) -> GroupState:
    rt = a.robot_rot.swapaxes(-1, -2)
    return GroupState(
        rt,
        -_rotate(rt, a.robot_pos),
        a.feature_rots.swapaxes(-1, -2),
        -(a.feature_pos @ a.robot_rot),
        a.feature_ids,
    )


def group_minus(a: GroupState, b: GroupState) -> GroupState:
    """a (-) b = a (+) b^-1."""
    return group_compose(a, group_inverse(b))


def group_exp(xi: np.ndarray, feature_ids: tuple = ()) -> GroupState:
    """Exponential map of (..., d) rotations-then-positions tangent vectors."""
    xi = np.asarray(xi, dtype=float)
    k = len(feature_ids)
    if xi.shape[-1:] != (tangent_dim(k),):
        raise DimensionMismatchError(
            f"tangent vector has dim {xi.shape}, expected (..., {tangent_dim(k)})")
    rot_vecs, pos_vecs = split_tangent(xi, k)
    rots, jls = batch_so3_exp(rot_vecs, left_jacobian=True)
    jl = jls[..., 0, :, :]
    return GroupState(rots[..., 0, :, :], _rotate(jl, pos_vecs[..., 0, :]),
                      rots[..., 1:, :, :], pos_vecs[..., 1:, :] @ jl.swapaxes(-1, -2),
                      tuple(feature_ids))


def group_log(a: GroupState) -> np.ndarray:
    """Inverse of group_exp; requires all rotation angles below pi."""
    phis = batch_so3_log(a.rotations)
    angle = float(np.sqrt((phis * phis).sum(axis=-1)).max(initial=0.0))
    if angle >= np.pi - 1e-6:
        raise LogDomainError(f"rotation angle {angle:.6f} at the log-domain boundary")
    jl_inv = batch_left_jacobian_inv(phis[..., 0, :])
    return join_tangent(phis, a.positions @ jl_inv.swapaxes(-1, -2))
