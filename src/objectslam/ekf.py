"""EKF on the product group, parameterised by its error convention.

The invariant and the standard filter differ only in the error definition
(Barrau & Bonnabel, arXiv:1510.06263). Invariant: X_true = exp(xi) (+) X_hat,
so F is the identity and only G depends on the estimate. Standard: per-block
left rotation errors and additive position errors, which adds a lever-arm
block to F, H and the augmentation map A. So the conventions differ in G (the
invariant one is the standard G plus rotation noise in the position rows), one
F block, one H block, one A block and the retraction. Jacobians can be
linearized at another state than the estimate (the ideal variant passes
ground truth).
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (DuplicateFeatureError, FilterDivergedError,
                     IllConditionedInnovationError, UnknownFeatureError)
from .group import (GroupState, group_compose, group_exp, pos_block, rot_block,
                    split_tangent, tangent_dim)
from .lie import _skews, project_to_so3, skew, so3_exp, so3_log
from .metrics import invariant_error_vector, standard_error_vector
from .types import FilterState, Innovation, Odometry, PoseObservation, symmetrize

COND_LIMIT = 1e12
_DRIFT_TOL = 1e-9


def propagate_mean(mean: GroupState, u: Odometry) -> GroupState:
    """Compose the odometry increment onto the robot pose; features are static.

    Long composition chains are re-orthonormalized by polar projection once
    the robot rotation drifts beyond _DRIFT_TOL.
    """
    rot = mean.robot_rot @ u.rot
    if np.linalg.norm(rot @ rot.T - np.eye(3)) > _DRIFT_TOL:
        rot = project_to_so3(rot)
    return GroupState(
        rot,
        mean.robot_rot @ u.pos + mean.robot_pos,
        mean.feature_rots,
        mean.feature_pos,
        mean.feature_ids,
    )


def apply_std_error(mean: GroupState, eta: np.ndarray) -> GroupState:
    """Perturb a state by (..., d) per-block error vectors (left rotation,
    additive position)."""
    rot_vecs, pos_vecs = split_tangent(eta, mean.num_features)
    exps = so3_exp(rot_vecs)
    return GroupState(
        exps[..., 0, :, :] @ mean.robot_rot,
        mean.robot_pos + pos_vecs[..., 0, :],
        exps[..., 1:, :, :] @ mean.feature_rots,
        mean.feature_pos + pos_vecs[..., 1:, :],
        mean.feature_ids,
    )


def _check_conditioning(s: np.ndarray) -> None:
    # Gershgorin bounds give a cheap sufficient pass; fall back to the exact
    # eigenvalue ratio only when the bounds cannot certify cond <= limit
    diag = s.diagonal()
    radius = np.abs(s).sum(axis=1) - np.abs(diag)
    lo = float((diag - radius).min())
    hi = float((diag + radius).max())
    if lo > 0.0 and hi / lo <= COND_LIMIT:
        return
    if not np.isfinite(s).all():
        raise IllConditionedInnovationError("innovation covariance is not finite")
    eig = np.linalg.eigvalsh(s)
    if eig[0] <= 0.0 or eig[-1] / eig[0] > COND_LIMIT:
        raise IllConditionedInnovationError(
            "innovation covariance condition number "
            f"{(eig[-1] / eig[0]) if eig[0] > 0.0 else np.inf:.3e}")


@lru_cache(maxsize=4096)
def _observed_columns(k: int, j: int) -> np.ndarray:
    """The 12 state indices an observation of feature j touches, in the
    column order of the observed H block: robot rot, feature rot, robot pos,
    feature pos. Read-only, since every caller shares it."""
    off = 3 * (k + 1)
    f = 3 * (j + 1)
    cols = np.array([0, 1, 2, f, f + 1, f + 2,
                     off, off + 1, off + 2, off + f, off + f + 1, off + f + 2])
    cols.setflags(write=False)
    return cols


def _augmented_rows(k: int) -> np.ndarray:
    """Row map of the augmentation A (K -> K+1) with the lever arm left out:
    new index -> the old index its error block copies."""
    off = 3 * (k + 1)
    return np.concatenate([np.arange(off), np.arange(3),
                           np.arange(off, 2 * off), np.arange(off, off + 3)])


def _new_pose_noise(k: int, rot: np.ndarray):
    """B's nonzero rows for K -> K+1, the new pose's indices, and their block
    diag(-R, -R), which rotates the observation noise into the global frame."""
    b = np.zeros((6, 6))
    b[0:3, 0:3] = b[3:6, 3:6] = -rot
    return np.r_[rot_block(k + 1), pos_block(k + 1, k + 1)], b


@dataclass(frozen=True)
class Convention:
    """The EKF operations, written once; the fields are what a convention changes.

    noise_jacobian(mean, lin, u) is G. lever_arm(rot, p) and
    observation_block(lin, feature_id), when set, are the robot-rotation
    column blocks of F and A, and of H. retract(mean, delta) applies a
    correction; error(true, mean) inverts it and is the error NEES uses. Both
    take leading axes: (n, d) corrections give n states, n true states give
    (n, d) errors.
    """

    name: str
    noise_jacobian: Callable
    retract: Callable
    error: Callable
    lever_arm: Callable | None = None
    observation_block: Callable | None = None

    def propagation_jacobians(self, state: FilterState, u: Odometry,
                              linearization: GroupState | None = None):
        """State Jacobian F (identity but for the lever arm) and noise Jacobian G."""
        lin = state.mean if linearization is None else linearization
        k = state.mean.num_features
        f = np.eye(tangent_dim(k))
        if self.lever_arm is not None:
            f[pos_block(0, k), rot_block(0)] = self.lever_arm(lin.robot_rot, u.pos)
        return f, self.noise_jacobian(state.mean, lin, u)

    def propagate(self, state: FilterState, u: Odometry,
                  linearization: GroupState | None = None) -> FilterState:
        """F P F^T + G Sigma G^T, with F applied as its one off-identity block."""
        lin = state.mean if linearization is None else linearization
        cov = state.cov
        if self.lever_arm is not None:
            r0, p0 = rot_block(0), pos_block(0, state.mean.num_features)
            b = self.lever_arm(lin.robot_rot, u.pos)
            cov = cov.copy()
            bp = b @ state.cov[r0]
            cov[p0, :] += bp
            cov[:, p0] += bp.T
            cov[p0, p0] += b @ state.cov[r0, r0] @ b.T
        g = self.noise_jacobian(state.mean, lin, u)
        cov = cov + g @ u.noise_cov @ g.T
        return FilterState(propagate_mean(state.mean, u), symmetrize(cov))

    def observed_block(self, mean: GroupState, feature_index: int,
                       linearization: GroupState | None = None):
        """H's nonzero part: the 12 observed state indices and the 6x12 block.

        Four blocks of +/- the transposed robot rotation, plus
        observation_block in the robot-rotation columns of the position rows.
        """
        lin = mean if linearization is None else linearization
        rt = lin.robot_rot.T
        hc = np.zeros((6, 12))
        hc[0:3, 0:3] = -rt
        hc[0:3, 3:6] = rt
        hc[3:6, 6:9] = -rt
        hc[3:6, 9:12] = rt
        if self.observation_block is not None:
            hc[3:6, 0:3] = self.observation_block(
                lin, mean.feature_ids[feature_index])
        return _observed_columns(mean.num_features, feature_index), hc

    def observation_jacobian(self, mean: GroupState, feature_index: int,
                             linearization: GroupState | None = None) -> np.ndarray:
        """Dense 6 x d H: observed_block scattered into zeros."""
        cols, hc = self.observed_block(mean, feature_index, linearization)
        h = np.zeros((6, tangent_dim(mean.num_features)))
        h[:, cols] = hc
        return h

    def innovation(self, state: FilterState, z: PoseObservation,
                   linearization: GroupState | None = None) -> Innovation:
        """Residual from the estimate; H and S from the linearization state.

        H touches 12 of the d state indices, so H P is the 6x12 block times
        the 12 gathered rows of P, O(d) instead of the dense 6 x d x d
        product, and S = H P H^T + R reads the 12 observed columns of H P.
        The dense H is never formed.
        """
        mean = state.mean
        try:
            j = mean.index_of(z.feature_id)
        except ValueError:
            raise UnknownFeatureError(f"feature {z.feature_id!r} not in state") from None
        y = np.empty(6)
        y[0:3] = so3_log(z.rot @ mean.feature_rots[j].T @ mean.robot_rot,
                         validate=False)
        y[3:6] = z.pos - mean.robot_rot.T @ (mean.feature_pos[j] - mean.robot_pos)
        cols, hc = self.observed_block(mean, j, linearization)
        hp = hc @ state.cov.take(cols, axis=0)
        s = symmetrize(hp.take(cols, axis=1) @ hc.T) + z.noise_cov
        return Innovation(y, s, hp)

    def apply_update(self, state: FilterState, inn: Innovation) -> FilterState:
        """Kalman correction: mean retracted by K y, cov by (I - K H) P.

        The covariance is P - K (H P): one d x d product written into a fresh
        buffer, then one in-place subtraction, so the input covariance is
        left untouched. K H P is symmetric up to rounding and is not
        symmetrized here; propagate and initialize_feature symmetrize once
        per step. A K y whose squared norm overflows (an overflowing
        observation) raises FilterDivergedError before the retraction could
        make the estimate non-finite, and the input state stays as it was.
        """
        _check_conditioning(inn.S)
        gain = inn.HP.T @ np.linalg.inv(inn.S)
        correction = gain @ inn.y
        if not math.isfinite(correction @ correction):
            raise FilterDivergedError("non-finite estimate")
        mean = self.retract(state.mean, correction)
        cov = gain @ inn.HP
        np.subtract(state.cov, cov, out=cov)
        return FilterState(mean, cov)

    def update(self, state: FilterState, z: PoseObservation,
               linearization: GroupState | None = None) -> FilterState:
        return self.apply_update(state, self.innovation(state, z, linearization))

    def augmentation_jacobians(self, state: FilterState, z: PoseObservation):
        """Linear maps (A, B) with e_aug = A e + B v for a first-seen feature.

        initialize_feature's map as matrices: A is the row map _augmented_rows
        plus the lever arm, if any, and B is the new-pose noise block.
        """
        k = state.mean.num_features
        a = np.eye(tangent_dim(k))[_augmented_rows(k)]
        r = state.mean.robot_rot
        if self.lever_arm is not None:
            a[pos_block(k + 1, k + 1), rot_block(0)] = self.lever_arm(r, z.pos)
        rows, block = _new_pose_noise(k, r)
        b = np.zeros((len(a), 6))
        b[rows] = block
        return a, b

    def initialize_feature(self, state: FilterState, z: PoseObservation) -> FilterState:
        """Augment the state with a first-seen feature (K -> K+1).

        The new mean is the observation moved into the global frame; the
        covariance is A P A^T + B Omega B^T. A copies every old block and
        the robot blocks into the new ones (plus the lever arm, if any), so
        A P A^T is a row gather, then a column gather, of P: O(d^2), not the
        O(d^3) dense product. B Omega B^T fills only the new 6x6 block.
        """
        mean = state.mean
        if z.feature_id in mean.feature_ids:
            raise DuplicateFeatureError(f"feature {z.feature_id!r} already initialized")
        k = mean.num_features
        new_rot = mean.robot_rot @ z.rot
        new_pos = mean.robot_pos + mean.robot_rot @ z.pos
        rows = _augmented_rows(k)
        r0, n_pos = rot_block(0), pos_block(k + 1, k + 1)
        ap = state.cov.take(rows, axis=0)
        if self.lever_arm is not None:
            lever = self.lever_arm(mean.robot_rot, z.pos)
            ap[n_pos] += lever @ state.cov[r0]
        cov = ap.take(rows, axis=1)
        if self.lever_arm is not None:
            cov[:, n_pos] += ap[:, r0] @ lever.T
        new, b = _new_pose_noise(k, mean.robot_rot)
        cov[np.ix_(new, new)] += b @ z.noise_cov @ b.T
        aug_mean = GroupState(
            mean.robot_rot,
            mean.robot_pos,
            np.concatenate([mean.feature_rots, new_rot[None]], axis=0),
            np.concatenate([mean.feature_pos, new_pos[None]], axis=0),
            mean.feature_ids + (z.feature_id,),
        )
        return FilterState(aug_mean, symmetrize(cov))


def _invariant_noise_jacobian(mean: GroupState, lin: GroupState,
                              u: Odometry) -> np.ndarray:
    # the standard G plus what the invariant error adds: rotation noise
    # reaches the predicted robot position and every feature's as skew(p) @ R
    g = _std_noise_jacobian(mean, lin, u)
    p = np.array([lin.robot_pos + lin.robot_rot @ u.pos] + [
        lin.feature_pos[lin.index_of(fid)] for fid in mean.feature_ids])
    g[3 * len(p):, 0:3] = (_skews(p) @ lin.robot_rot).reshape(-1, 3)
    return g


def _invariant_retract(mean: GroupState, xi: np.ndarray) -> GroupState:
    return group_compose(group_exp(xi, mean.feature_ids), mean)


def _std_noise_jacobian(mean: GroupState, lin: GroupState,
                        u: Odometry) -> np.ndarray:
    k = mean.num_features
    g = np.zeros((tangent_dim(k), 6))
    g[rot_block(0), 0:3] = lin.robot_rot
    g[pos_block(0, k), 3:6] = lin.robot_rot
    return g


def _std_observation_block(lin: GroupState, feature_id) -> np.ndarray:
    p_f = lin.feature_pos[lin.index_of(feature_id)]
    return lin.robot_rot.T @ skew(p_f - lin.robot_pos)


def _std_lever_arm(rot: np.ndarray, p: np.ndarray) -> np.ndarray:
    # the position error of a point at body offset p moves with the robot
    # rotation error
    return -skew(rot @ p)


INVARIANT = Convention("invariant", _invariant_noise_jacobian,
                       _invariant_retract, invariant_error_vector)
STANDARD = Convention("standard", _std_noise_jacobian, apply_std_error,
                      standard_error_vector, lever_arm=_std_lever_arm,
                      observation_block=_std_observation_block)
