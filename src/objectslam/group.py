"""Product-group state for a robot pose plus K object-feature poses.

The group composition treats the robot pose and all positions like a single
SE_{K+1}(3) element (every position is rotated by the left operand's robot
rotation) while feature rotations compose independently as SO(3) factors.

Tangent vectors are ordered rotations-then-positions:

    [xi_rot_robot, xi_rot_f1, ..., xi_rot_fK,
     xi_pos_robot, xi_pos_f1, ..., xi_pos_fK]

and every position block of the exponential map is premultiplied by the left
Jacobian of the ROBOT rotation vector.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, LogDomainError
from .lie import (batch_so3_exp, left_jacobian, left_jacobian_inv, so3_exp,
                  so3_log)


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
    is a tuple of opaque hashable ids aligned with those arrays.
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
        a.robot_rot @ b.robot_pos + a.robot_pos,
        a.feature_rots @ b.feature_rots,
        b.feature_pos @ a.robot_rot.T + a.feature_pos,
        a.feature_ids,
    )


def group_inverse(a: GroupState) -> GroupState:
    rt = a.robot_rot.T
    return GroupState(
        rt,
        -(rt @ a.robot_pos),
        np.swapaxes(a.feature_rots, 1, 2),
        -(a.feature_pos @ rt.T),
        a.feature_ids,
    )


def group_minus(a: GroupState, b: GroupState) -> GroupState:
    """a (-) b = a (+) b^-1."""
    return group_compose(a, group_inverse(b))


def group_exp(xi: np.ndarray, feature_ids: tuple = ()) -> GroupState:
    """Exponential map of the rotations-then-positions tangent vector."""
    xi = np.asarray(xi, dtype=float)
    k = len(feature_ids)
    if xi.shape != (tangent_dim(k),):
        raise DimensionMismatchError(
            f"tangent vector has dim {xi.shape}, expected ({tangent_dim(k)},)")
    phi_r = xi[rot_block(0)]
    jl = left_jacobian(phi_r)
    if k:
        frots = batch_so3_exp(xi[3:3 * (k + 1)].reshape(k, 3))
        fpos = xi[3 * (k + 1) + 3:].reshape(k, 3) @ jl.T
    else:
        frots = np.zeros((0, 3, 3))
        fpos = np.zeros((0, 3))
    return GroupState(so3_exp(phi_r), jl @ xi[pos_block(0, k)],
                      frots, fpos, tuple(feature_ids))


def group_log(a: GroupState) -> np.ndarray:
    """Inverse of group_exp; requires all rotation angles below pi."""
    k = a.num_features
    xi = np.zeros(tangent_dim(k))
    phi_r = so3_log(a.robot_rot, validate=False)
    _check_log_domain(phi_r)
    xi[rot_block(0)] = phi_r
    jl_inv = left_jacobian_inv(phi_r)
    xi[pos_block(0, k)] = jl_inv @ a.robot_pos
    for j in range(k):
        phi_f = so3_log(a.feature_rots[j], validate=False)
        _check_log_domain(phi_f)
        xi[rot_block(j + 1)] = phi_f
    if k:
        xi[3 * (k + 1) + 3:] = (a.feature_pos @ jl_inv.T).ravel()
    return xi


def _check_log_domain(phi: np.ndarray) -> None:
    if np.linalg.norm(phi) >= np.pi - 1e-6:
        raise LogDomainError(
            f"rotation angle {np.linalg.norm(phi):.6f} at the log-domain boundary")
