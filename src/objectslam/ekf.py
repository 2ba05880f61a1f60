"""EKF on the product group, parameterised by its error convention.

The invariant and the standard filter differ only in the error definition
(Barrau & Bonnabel, arXiv:1510.06263). Invariant: X_true = exp(xi) (+) X_hat,
so F is the identity and only G depends on the estimate. Standard: per-block
left rotation errors and additive position errors, which adds a lever-arm
block to F, H and the augmentation map A. So the conventions differ in four
places: the lever-arm block of F and A, one H block, G's rotation-noise rows
in the position rows (invariant), and the position part of the retraction.
Jacobians can be linearized at another state than the estimate (the ideal
variant passes ground truth).

The filter operations act on a FilterBatch: M filters (its members) that
see one measurement stream, each under its own convention and
linearization, advanced together by one set of numpy calls. Each of the
four places is applied to the members of its convention only, so a member's
numbers do not depend on which members share its batch. The Convention
methods on a FilterState are the one-member case.
"""

import copy
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (DuplicateFeatureError, FilterDivergedError,
                     IllConditionedInnovationError, UnknownFeatureError)
from .group import (GroupState, pos_block, rot_block, split_tangent,
                    tangent_dim)
from .lie import _I3, _skews, project_to_so3, so3_exp, so3_exp_first_jacobian, so3_log
from .metrics import invariant_error_vector, restrict_to, standard_error_vector
from .types import FilterState, Innovation, Odometry, PoseObservation

COND_LIMIT = 1e12
_DRIFT_TOL = 1e-9
# rows of a d x d covariance product formed at once, so that the scratch
# buffer is (..., 128, d) however large d grows
_CHUNK = 128


@lru_cache(maxsize=256)
def _chunks(d: int) -> tuple:
    return tuple(slice(i, min(i + _CHUNK, d)) for i in range(0, d, _CHUNK))


def _symmetrize(x: np.ndarray, work: np.ndarray) -> None:
    """x <- (x + x^T) / 2 in place, over leading axes, a band of rows at a
    time through work (..., c, d); entry for entry as 0.5 * (x + x.T)."""
    bands = _chunks(x.shape[-1])
    if len(bands) == 1:
        np.add(x, x.swapaxes(-1, -2), out=work)
        np.multiply(work, 0.5, out=x)
        return
    for rows in bands:
        # rows i of band I against every column j >= I's first: writes only
        # entries no later band reads
        tail = slice(rows.start, None)
        avg = work[..., :rows.stop - rows.start, tail]
        np.add(x[..., rows, tail], x[..., tail, rows].swapaxes(-1, -2), out=avg)
        avg *= 0.5
        x[..., rows, tail] = avg
        x[..., tail, rows] = avg.swapaxes(-1, -2)


def _compose_robot(rot: np.ndarray, pos: np.ndarray, u: Odometry) -> tuple:
    """(R u.rot, R u.pos + p) over leading axes, each rotation re-projected
    onto SO(3) once ||R R^T - I|| drifts beyond _DRIFT_TOL."""
    new = rot @ u.rot
    drift = (new @ np.swapaxes(new, -1, -2) - _I3).reshape(new.shape[:-2] + (9,))
    drifted = np.vecdot(drift, drift) > _DRIFT_TOL * _DRIFT_TOL
    if _any(drifted):
        new = new.copy()
        for i in np.ndindex(drifted.shape):
            if drifted[i]:
                new[i] = project_to_so3(new[i])
    return new, np.matvec(rot, u.pos) + pos


def _any(mask: np.ndarray) -> bool:
    # a 0-d mask converts without a reduction
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def propagate_mean(mean: GroupState, u: Odometry) -> GroupState:
    """Compose the odometry increment onto the robot pose; features are static.

    Long composition chains are re-orthonormalized by polar projection once
    the robot rotation drifts beyond _DRIFT_TOL. Takes leading axes.
    """
    rot, pos = _compose_robot(mean.robot_rot, mean.robot_pos, u)
    return GroupState(rot, pos, mean.feature_rots, mean.feature_pos,
                      mean.feature_ids)


def apply_std_error(mean: GroupState, eta: np.ndarray) -> GroupState:
    """Perturb a state by (..., d) per-block error vectors (left rotation,
    additive position)."""
    return STANDARD.retract(mean, eta)


def _conditioning_failures(s: np.ndarray, accept=None) -> dict:
    """{member: IllConditionedInnovationError} of the (..., 6, 6) stack s,
    among the members accept marks (all by default).

    Gershgorin bounds give a cheap sufficient pass: with a positive diagonal
    every eigenvalue lies in [min(2 s_ii - r_i), max(r_i)], r_i the absolute
    row sums. Only a member they cannot certify (cond <= COND_LIMIT) gets the
    exact eigenvalue ratio."""
    rowsum = np.abs(s).sum(axis=-1)
    lo = (2.0 * np.diagonal(s, axis1=-2, axis2=-1) - rowsum).min(axis=-1)
    # strict, so that lo <= 0 (and any nan) fails
    certified = rowsum.max(axis=-1) < COND_LIMIT * lo
    if accept is not None:
        certified = certified | ~np.reshape(accept, certified.shape)
    if not _any(~certified):
        return {}
    failures = {}
    stack = s.reshape(-1, 6, 6)
    for i in np.flatnonzero(~certified):
        if not np.isfinite(stack[i]).all():
            failures[i] = IllConditionedInnovationError(
                "innovation covariance is not finite")
            continue
        eig = np.linalg.eigvalsh(stack[i])
        if eig[0] <= 0.0 or eig[-1] / eig[0] > COND_LIMIT:
            failures[i] = IllConditionedInnovationError(
                "innovation covariance condition number "
                f"{(eig[-1] / eig[0]) if eig[0] > 0.0 else np.inf:.3e}")
    return failures


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


def _augmented_blocks(k: int) -> tuple:
    """_augmented_rows as (new slice, old slice) pairs of contiguous runs."""
    off = 3 * (k + 1)
    return ((slice(0, off), slice(0, off)), (slice(off, off + 3), slice(0, 3)),
            (slice(off + 3, 2 * off + 3), slice(off, 2 * off)),
            (slice(2 * off + 3, 2 * off + 6), slice(off, off + 3)))


def _new_pose_noise(k: int, rot: np.ndarray):
    """B's nonzero rows for K -> K+1, the new pose's indices, and their
    (..., 6, 6) block diag(-R, -R), which rotates the observation noise into
    the global frame."""
    b = np.zeros(rot.shape[:-2] + (6, 6))
    b[..., 0:3, 0:3] = b[..., 3:6, 3:6] = -rot
    return np.r_[rot_block(k + 1), pos_block(k + 1, k + 1)], b


@dataclass(frozen=True)
class Convention:
    """The EKF operations, written once; the fields are what a convention changes.

    Every field takes leading axes. error(true, mean) inverts retract and is
    the error NEES uses. When set, lever_arm(rot, p) is the robot-rotation
    column block of F and A, observation_block(rot, p_robot, p_feature) that
    of H's position rows, rotation_noise(rot, positions) the rotation-noise
    blocks of G's position rows, and retract_positions(pos, rho, exp0, jl0)
    the position part of the retraction: positions (..., K+1, 3) moved by the
    correction's position vectors rho, given the exponential exp0 and the
    left Jacobian jl0 of its robot rotation vector. Without it the positions
    add rho.
    """

    name: str
    error: Callable
    lever_arm: Callable | None = None
    observation_block: Callable | None = None
    rotation_noise: Callable | None = None
    retract_positions: Callable | None = None

    def retract(self, mean: GroupState, delta: np.ndarray) -> GroupState:
        """Apply (..., d) corrections: every rotation is left-multiplied by
        the exponential of its rotation vector, and the positions add the
        correction's, or move by retract_positions when it is set. n
        corrections of one state give n states."""
        rots, pos = _retract(((self, ...),) if self.retract_positions else (),
                             mean.rotations, mean.positions,
                             np.asarray(delta, dtype=float))
        return GroupState(rots[..., 0, :, :], pos[..., 0, :], rots[..., 1:, :, :],
                          pos[..., 1:, :], mean.feature_ids)

    def propagation_jacobians(self, state: FilterState, u: Odometry,
                              linearization: GroupState | None = None):
        """Dense state Jacobian F (identity but for the lever arm) and noise
        Jacobian G, the references for FilterBatch.propagate."""
        lin = state.mean if linearization is None else linearization
        k = state.mean.num_features
        f = np.eye(tangent_dim(k))
        if self.lever_arm is not None:
            f[pos_block(0, k), rot_block(0)] = self.lever_arm(lin.robot_rot, u.pos)
        lin_pos = (state.mean if linearization is None
                   else restrict_to(lin, state.mean.feature_ids)).positions
        return f, _noise_jacobian(((self, ...),), lin.robot_rot, lin_pos, u.pos)

    def observation_jacobian(self, mean: GroupState, feature_index: int,
                             linearization: GroupState | None = None) -> np.ndarray:
        """Dense 6 x d H: FilterBatch.observed_block scattered into zeros."""
        lin = mean if linearization is None else linearization
        p_feature = lin.feature_pos[lin.index_of(mean.feature_ids[feature_index])]
        h = np.zeros((6, tangent_dim(mean.num_features)))
        h[:, _observed_columns(mean.num_features, feature_index)] = _observed_block(
            ((self, ...),), lin.robot_rot, lin.robot_pos, p_feature)
        return h

    def augmentation_jacobians(self, state: FilterState, z: PoseObservation):
        """Linear maps (A, B) with e_aug = A e + B v for a first-seen feature.

        FilterBatch.initialize's map as matrices: A is the row map
        _augmented_rows plus the lever arm, if any, and B is the new-pose
        noise block.
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

    # One-member cases of the FilterBatch operations: the input state is
    # left untouched.

    def propagate(self, state: FilterState, u: Odometry,
                  linearization: GroupState | None = None) -> FilterState:
        batch = FilterBatch.of(self, state, linearization is not None)
        batch.propagate(u, _truth_arrays(linearization, state.mean))
        return batch.member(0)

    def innovation(self, state: FilterState, z: PoseObservation,
                   linearization: GroupState | None = None) -> Innovation:
        batch = FilterBatch.of(self, state, linearization is not None)
        return batch.innovation(z, _truth_arrays(linearization, state.mean))

    def apply_update(self, state: FilterState, inn: Innovation) -> FilterState:
        """Kalman correction; raises the failure (an ill-conditioned S, or a
        correction whose squared norm overflows) with the input state
        untouched."""
        batch = FilterBatch.of(self, state)
        failures = batch.update(inn)
        if failures:
            raise failures[0]
        return batch.member(0)

    def update(self, state: FilterState, z: PoseObservation,
               linearization: GroupState | None = None) -> FilterState:
        return self.apply_update(state, self.innovation(state, z, linearization))

    def initialize_feature(self, state: FilterState, z: PoseObservation) -> FilterState:
        batch = FilterBatch.of(self, state)
        batch.initialize(z)
        return batch.member(0)


def _truth_arrays(linearization: GroupState | None, mean: GroupState):
    """FilterBatch's truth argument from a linearization state: its robot
    rotation and its positions in the order of mean's features."""
    if linearization is None:
        return None
    return linearization.robot_rot, restrict_to(linearization, mean.feature_ids).positions


def _retract(moved: tuple, rotations: np.ndarray, positions: np.ndarray,
             delta: np.ndarray) -> tuple:
    """(rotations, positions) retracted by (..., d) corrections: every
    rotation is left-multiplied by the exponential of its rotation vector;
    positions add the correction's, except for the (convention, members)
    groups in moved, whose retract_positions moves them."""
    phis, rho = split_tangent(delta, rotations.shape[-3] - 1)
    if moved:
        exps, jl = so3_exp_first_jacobian(phis)
    else:
        exps = so3_exp(phis)
    pos = positions + rho
    for conv, sl in moved:
        pos[sl] = conv.retract_positions(positions[sl], rho[sl],
                                         exps[sl][..., 0, :, :], jl[sl])
    return exps @ rotations, pos


def _groups(conventions: tuple) -> tuple:
    """(convention, member index) of each run of adjacent members of one
    convention: a slice, or Ellipsis when one run holds every member."""
    runs, start = [], 0
    for i in range(1, len(conventions) + 1):
        if i == len(conventions) or conventions[i] is not conventions[start]:
            runs.append((conventions[start], slice(start, i)))
            start = i
    return ((runs[0][0], ...),) if len(runs) == 1 else tuple(runs)


def _observed_block(groups, lin_rot, p_robot, p_feature) -> np.ndarray:
    """H's (..., 6, 12) nonzero block in _observed_columns' order, at the
    linearization's robot rotation (..., 3, 3) and robot and feature
    positions (..., 3): four blocks of +/- the transposed robot rotation,
    plus observation_block in the robot-rotation columns of the position
    rows."""
    rt = lin_rot.swapaxes(-1, -2)
    hc = np.zeros(rt.shape[:-2] + (6, 12))
    hc[..., 0:3, 3:6] = hc[..., 3:6, 9:12] = rt
    hc[..., 0:3, 0:3] = hc[..., 3:6, 6:9] = -rt
    for conv, sl in groups:
        if conv.observation_block is not None:
            hc[sl][..., 3:6, 0:3] = conv.observation_block(lin_rot[sl], p_robot[sl],
                                                           p_feature[sl])
    return hc


def _noise_jacobian(groups, lin_rot, lin_pos, u_pos) -> np.ndarray:
    """G, (..., d, 6): rotation noise reaches the robot rotation as R and
    translation noise the robot position as R; a convention with
    rotation_noise adds its blocks to the position rows, at the predicted
    robot position and the features' positions."""
    k1 = lin_pos.shape[-2]
    g = np.zeros(lin_pos.shape[:-2] + (6 * k1, 6))
    g[..., 0:3, 0:3] = g[..., 3 * k1:3 * k1 + 3, 3:6] = lin_rot
    for conv, sl in groups:
        if conv.rotation_noise is not None:
            p = lin_pos[sl].copy()
            p[..., 0, :] += np.matvec(lin_rot[sl], _part(u_pos, sl))
            blocks = conv.rotation_noise(lin_rot[sl], p)
            g[sl][..., 3 * k1:, 0:3] = blocks.reshape(blocks.shape[:-3] + (-1, 3))
    return g


def _part(a: np.ndarray, sl) -> np.ndarray:
    """The members sl of a per-member array of (3,) vectors; one shared
    vector as is."""
    return a[sl] if a.ndim == 2 else a


class FilterBatch:
    """M filters over one measurement stream: means, covariances and the
    convention and linearization of each member.

    rot (M, K+1, 3, 3) and pos (M, K+1, 3) hold every member's rotations and
    positions, robot first; cov is (M, d, d). A batch of one member holds no
    member axis (rot is (K+1, 3, 3)), so it runs the same numpy calls on
    unstacked arrays, and member axes are written as leading axes (...)
    throughout. The members share the feature ids, since each initializes a
    feature at its first sighting. rot and pos are replaced, never written in
    place, so an earlier reference stays a snapshot; cov is written in place
    by update, while propagate and initialize write new arrays, so a
    snapshot taken before a step's propagate holds the step's starting
    state. A member marked at_truth takes its Jacobians at the truth
    argument of propagate, innovation and observed_block, the others at
    their estimate. Members are never added or removed: update leaves the
    members it does not correct as they were, by mask, and a caller that
    stops reading a member still pays its share of every call.
    """

    def __init__(self, conventions, at_truth, rot, pos, cov, feature_ids=()):
        self.conventions = tuple(conventions)
        self.at_truth = np.asarray(at_truth, dtype=bool)
        self.rot, self.pos, self.cov = rot, pos, cov
        self.feature_ids = tuple(feature_ids)
        self._groups = _groups(self.conventions)
        # the groups whose retraction moves positions through the robot's
        # rotation
        self._moved = [(c, sl) for c, sl in self._groups if c.retract_positions]
        self._any_truth = bool(self.at_truth.any())
        self._all_truth = bool(self.at_truth.all())
        self._work = None  # scratch rows of the covariance products

    @classmethod
    def start(cls, conventions, at_truth) -> "FilterBatch":
        """Every member at the anchored prior: the robot at the origin with
        zero covariance, no features."""
        lead = (len(conventions),) if len(conventions) > 1 else ()
        return cls(conventions, at_truth, np.broadcast_to(np.eye(3), lead + (1, 3, 3)).copy(),
                   np.zeros(lead + (1, 3)), np.zeros(lead + (6, 6)))

    @classmethod
    def of(cls, conv: Convention, state: FilterState,
           at_truth: bool = False) -> "FilterBatch":
        """A one-member batch holding a copy of state."""
        mean = state.mean
        return cls((conv,), (at_truth,), mean.rotations, mean.positions,
                   state.cov.copy(), mean.feature_ids)

    def __len__(self) -> int:
        return len(self.conventions)

    @property
    def num_features(self) -> int:
        return len(self.feature_ids)

    def at(self, a: np.ndarray, i: int) -> np.ndarray:
        """Member i's part of a per-member array of this batch's layout."""
        return a[i] if len(self) > 1 else a

    def member_mean(self, i: int) -> GroupState:
        rot, pos = self.at(self.rot, i), self.at(self.pos, i)
        return GroupState(rot[0], pos[0], rot[1:], pos[1:], self.feature_ids)

    def member(self, i: int) -> FilterState:
        """Member i as a FilterState of copies."""
        rot, pos = self.at(self.rot, i), self.at(self.pos, i)
        return FilterState(GroupState(rot[0].copy(), pos[0].copy(), rot[1:].copy(),
                                      pos[1:].copy(), self.feature_ids),
                           self.at(self.cov, i).copy())

    def snapshot(self) -> "FilterBatch":
        """The batch as it is now, sharing its arrays. propagate and
        initialize replace them, so once one of them has run the snapshot
        stays as it is; an update before that writes into the covariance it
        shares."""
        snap = copy.copy(self)
        snap._work = None
        return snap

    def _work_buffer(self) -> np.ndarray:
        # scratch rows of the covariance products; the member count never
        # changes, and initialize drops the buffer when d grows
        d = self.cov.shape[-1]
        if self._work is None or self._work.shape[-1] != d:
            self._work = np.empty(self.cov.shape[:-2] + (min(d, _CHUNK), d))
        return self._work

    def _linearization(self, truth):
        """(robot rotations (..., 3, 3), positions (..., K+1, 3)) at which
        each member takes its Jacobians; truth states are merged in only when
        the batch mixes truth and estimates."""
        rot0 = self.rot[..., 0, :, :]
        if truth is None or not self._any_truth:
            return rot0, self.pos
        if self._all_truth:
            if len(self) == 1:
                return truth
            n = len(self)
            return np.repeat(truth[0][None], n, 0), np.repeat(truth[1][None], n, 0)
        mask = self.at_truth[:, None, None]
        return np.where(mask, truth[0], rot0), np.where(mask, truth[1], self.pos)

    def propagate(self, u: Odometry, truth=None) -> None:
        """P <- sym(F P F^T + G Sigma G^T) and the robot pose composed with u.

        u.pos may be one translation or one per member. F is the identity
        but for the lever arm, so F P F^T is P plus the lever arm's rows and
        columns. The new covariance is a new array, and the d x d products
        go into it a band of rows at a time.
        """
        lin_rot, lin_pos = self._linearization(truth)
        prev, cov, work = self.cov, np.empty(self.cov.shape), self._work_buffer()
        np.copyto(cov, prev)
        r0, p0 = rot_block(0), pos_block(0, self.num_features)
        for conv, sl in self._groups:
            if conv.lever_arm is not None:
                b = conv.lever_arm(lin_rot[sl], _part(u.pos, sl))
                bp = b @ prev[sl][..., r0, :]
                part = cov[sl]
                part[..., p0, :] += bp
                part[..., :, p0] += bp.swapaxes(-1, -2)
                part[..., p0, p0] += b @ prev[sl][..., r0, r0] @ b.swapaxes(-1, -2)
        g = _noise_jacobian(self._groups, lin_rot, lin_pos, u.pos)
        g_sigma, g_t = g @ u.noise_cov, g.swapaxes(-1, -2)
        for rows in _chunks(cov.shape[-1]):
            band = work[..., :rows.stop - rows.start, :]
            np.matmul(g_sigma[..., rows, :], g_t, out=band)
            cov[..., rows, :] += band
        _symmetrize(cov, work)
        self.cov = cov
        rot, pos = self.rot.copy(), self.pos.copy()
        rot[..., 0, :, :], pos[..., 0, :] = _compose_robot(
            self.rot[..., 0, :, :], self.pos[..., 0, :], u)
        self.rot, self.pos = rot, pos

    def observed_block(self, feature_index: int, truth=None):
        """H's nonzero part: the 12 observed state indices and the (..., 6, 12)
        blocks (_observed_block) at each member's linearization."""
        lin_rot, lin_pos = self._linearization(truth)
        return (_observed_columns(self.num_features, feature_index),
                _observed_block(self._groups, lin_rot, lin_pos[..., 0, :],
                                lin_pos[..., feature_index + 1, :]))

    def innovation(self, z: PoseObservation, truth=None) -> Innovation:
        """Residuals from the estimates; H and S from the linearization.

        H touches 12 of the d state indices, so H P is the 6x12 block times
        the 12 gathered rows of P, O(d) instead of the dense 6 x d x d
        product, and S = H P H^T + R reads the 12 observed columns of H P.
        The dense H is never formed.
        """
        try:
            j = self.feature_ids.index(z.feature_id)
        except ValueError:
            raise UnknownFeatureError(f"feature {z.feature_id!r} not in state") from None
        robot = self.rot[..., 0, :, :]
        rel = z.rot @ self.rot[..., j + 1, :, :].swapaxes(-1, -2) @ robot
        y = np.empty(rel.shape[:-2] + (6,))
        if len(self) == 1:
            y[0:3] = so3_log(rel, validate=False)
        else:
            for i, r in enumerate(rel):
                y[i, 0:3] = so3_log(r, validate=False)
        y[..., 3:6] = z.pos - np.matvec(robot.swapaxes(-1, -2),
                                        self.pos[..., j + 1, :] - self.pos[..., 0, :])
        cols, hc = self.observed_block(j, truth)
        hp = hc @ self.cov.take(cols, axis=-2)
        s = hp.take(cols, axis=-1) @ hc.swapaxes(-1, -2)
        s = s + s.swapaxes(-1, -2)
        s *= 0.5
        s += z.noise_cov
        return Innovation(y, s, hp)

    def update(self, inn: Innovation, accept=None) -> dict:
        """Kalman correction of the members accept marks (all by default):
        mean retracted by K y, covariance P - K (H P) written in place.

        Returns {member: error} for each accepted member that fails: an S
        that is not finite or whose condition number exceeds COND_LIMIT, or a
        K y whose squared norm overflows (the retraction would make the
        estimate non-finite). A failing or unaccepted member keeps its state
        bit for bit: every member's gain is formed in one pass, and the
        others' rotations, positions and covariance are kept by mask. K H P
        is symmetric up to rounding and is not symmetrized here; propagate
        and initialize symmetrize once per step.
        """
        failures = _conditioning_failures(inn.S, accept)
        if accept is None and not failures:
            gain = inn.HP.swapaxes(-1, -2) @ np.linalg.inv(inn.S)
            correction = np.matvec(gain, inn.y)
            flat = correction.reshape(-1)
            if math.isfinite(flat @ flat):
                self._correct(gain, inn.HP, correction)
                return failures
        # a member is rejected or fails: every gain in one pass, and the
        # members not corrected are kept by mask
        lead = self.cov.shape[:-2]
        go = np.ones(lead, dtype=bool) if accept is None else np.reshape(accept, lead).copy()
        go.reshape(-1)[list(failures)] = False
        # one singular S makes inv fail for the whole stack, so a member that
        # is not corrected gets the identity
        s = np.where(go[..., None, None], inn.S, np.eye(6))
        gain = inn.HP.swapaxes(-1, -2) @ np.linalg.inv(s)
        correction = np.matvec(gain, inn.y)
        overflow = go & ~np.isfinite(np.vecdot(correction, correction))
        for i in np.flatnonzero(overflow):
            failures[i] = FilterDivergedError("non-finite estimate")
        go &= ~overflow
        if _any(go):
            self._correct(gain, inn.HP, correction, go)
        return failures

    def _correct(self, gain, hp, correction, go=None) -> None:
        rot, pos = _retract(self._moved, self.rot, self.pos, correction)
        where = True
        if go is not None:
            # the members go leaves out keep their arrays; a zeroed gain would
            # not, since exp(0) times a rotation can turn -0.0 into +0.0
            rot = np.where(go[..., None, None, None], rot, self.rot)
            pos = np.where(go[..., None, None], pos, self.pos)
            where = go[..., None, None]
        self.rot, self.pos = rot, pos
        work = self._work_buffer()
        if work.shape[-2] == work.shape[-1]:  # one band
            np.matmul(gain, hp, out=work)
            np.subtract(self.cov, work, out=self.cov, where=where)
            return
        for rows in _chunks(self.cov.shape[-1]):
            band = work[..., :rows.stop - rows.start, :]
            np.matmul(gain[..., rows, :], hp, out=band)
            part = self.cov[..., rows, :]
            np.subtract(part, band, out=part, where=where)

    def initialize(self, z: PoseObservation) -> None:
        """Augment every member with a first-seen feature (K -> K+1).

        The new mean is the observation moved into the global frame; the
        covariance is A P A^T + B Omega B^T. A copies every old block and
        the robot blocks into the new ones (plus the lever arm, if any), so
        A P A^T is a gather of P's rows and columns plus the lever arm's:
        O(d^2), not the O(d^3) dense product. B Omega B^T fills only the new
        6x6 block.
        """
        if z.feature_id in self.feature_ids:
            raise DuplicateFeatureError(f"feature {z.feature_id!r} already initialized")
        k = self.num_features
        robot = self.rot[..., 0, :, :]
        rows = _augmented_rows(k)
        r0, n_pos = rot_block(0), pos_block(k + 1, k + 1)
        # the old size's buffers go before the new covariance is gathered;
        # rows maps the robot rotation block onto itself, so the lever arm's
        # rows and columns read the gathered P
        self._work = None
        prev, n = self.cov, len(rows)
        self.cov = np.empty(prev.shape[:-2] + (n, n))
        blocks = _augmented_blocks(k)
        for new_rows, old_rows in blocks:
            for new_cols, old_cols in blocks:
                self.cov[..., new_rows, new_cols] = prev[..., old_rows, old_cols]
        del prev
        for conv, sl in self._groups:
            if conv.lever_arm is not None:
                lever, part = conv.lever_arm(robot[sl], z.pos), self.cov[sl]
                part[..., n_pos, :] += lever @ part[..., r0, :]
                part[..., :, n_pos] += part[..., :, r0] @ lever.swapaxes(-1, -2)
        new, b = _new_pose_noise(k, robot)
        self.cov[..., new[:, None], new] += b @ z.noise_cov @ b.swapaxes(-1, -2)
        _symmetrize(self.cov, self._work_buffer())
        self.rot = np.concatenate([self.rot, (robot @ z.rot)[..., None, :, :]], axis=-3)
        self.pos = np.concatenate(
            [self.pos, (self.pos[..., 0, :] + np.matvec(robot, z.pos))[..., None, :]],
            axis=-2)
        self.feature_ids += (z.feature_id,)


def _invariant_positions(pos, rho, exp0, jl0):
    # exp(xi) (+) X moves the robot's position to E0 p + J0 rho and each
    # feature's to p E0^T + rho J0^T, where E0 and J0 are the robot's
    # exponential and left Jacobian: group_compose of group_exp, term for term
    robot = np.matvec(exp0, pos[..., 0, :]) + np.matvec(jl0, rho[..., 0, :])
    features = (pos[..., 1:, :] @ np.swapaxes(exp0, -1, -2)
                + rho[..., 1:, :] @ np.swapaxes(jl0, -1, -2))
    return np.concatenate([robot[..., None, :], features], axis=-2)


def _invariant_rotation_noise(rot, positions):
    # rotation noise reaches every position p as skew(p) @ R
    return _skews(positions) @ rot[..., None, :, :]


def _std_lever_arm(rot: np.ndarray, p: np.ndarray) -> np.ndarray:
    # the position error of a point at body offset p moves with the robot
    # rotation error
    return -_skews(np.matvec(rot, p))


def _std_observation_block(rot, p_robot, p_feature) -> np.ndarray:
    return np.swapaxes(rot, -1, -2) @ _skews(p_feature - p_robot)


INVARIANT = Convention("invariant", invariant_error_vector,
                       rotation_noise=_invariant_rotation_noise,
                       retract_positions=_invariant_positions)
STANDARD = Convention("standard", standard_error_vector, lever_arm=_std_lever_arm,
                      observation_block=_std_observation_block)
