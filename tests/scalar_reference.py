"""The filters as one state per filter, one observation at a time: the
scalar propagate / innovation / apply_update / initialize_feature loop that
preceded FilterBatch, kept as the reference its members are checked against.

Only what a stream without Jacobian capture or synthesized odometry needs
is kept; a robust filter skips the updates the library's gate rejects, and a
failing filter ends its run with the state of the last trajectory row, as in
the library.
"""

import math

import numpy as np

from objectslam.ekf import COND_LIMIT, INVARIANT, STANDARD
from objectslam.errors import (FilterDivergedError, IllConditionedInnovationError,
                               LogDomainError)
from objectslam.gating import gate
from objectslam.group import GroupState, pos_block, rot_block, split_tangent, tangent_dim
from objectslam.lie import _skews, project_to_so3, skew, so3_exp, so3_log
from objectslam.types import FilterState, Innovation


def _symmetrize(m):
    return 0.5 * (m + m.T)


def _propagate_mean(mean, u):
    rot = mean.robot_rot @ u.rot
    if np.linalg.norm(rot @ rot.T - np.eye(3)) > 1e-9:
        rot = project_to_so3(rot)
    return GroupState(rot, mean.robot_rot @ u.pos + mean.robot_pos,
                      mean.feature_rots, mean.feature_pos, mean.feature_ids)


def _std_noise_jacobian(mean, lin, u):
    k = mean.num_features
    g = np.zeros((tangent_dim(k), 6))
    g[rot_block(0), 0:3] = lin.robot_rot
    g[pos_block(0, k), 3:6] = lin.robot_rot
    return g


def _noise_jacobian(conv, mean, lin, u):
    g = _std_noise_jacobian(mean, lin, u)
    if conv is INVARIANT:
        p = np.array([lin.robot_pos + lin.robot_rot @ u.pos] + [
            lin.feature_pos[lin.index_of(fid)] for fid in mean.feature_ids])
        g[3 * len(p):, 0:3] = (_skews(p) @ lin.robot_rot).reshape(-1, 3)
    return g


def _lever_arm(rot, p):
    return -skew(rot @ p)


def propagate(conv, state, u, lin):
    lin = state.mean if lin is None else lin
    cov = state.cov
    if conv is STANDARD:
        r0, p0 = rot_block(0), pos_block(0, state.mean.num_features)
        b = _lever_arm(lin.robot_rot, u.pos)
        cov = cov.copy()
        bp = b @ state.cov[r0]
        cov[p0, :] += bp
        cov[:, p0] += bp.T
        cov[p0, p0] += b @ state.cov[r0, r0] @ b.T
    g = _noise_jacobian(conv, state.mean, lin, u)
    cov = cov + g @ u.noise_cov @ g.T
    return FilterState(_propagate_mean(state.mean, u), _symmetrize(cov))


def _observed_block(conv, mean, j, lin):
    lin = mean if lin is None else lin
    rt = lin.robot_rot.T
    hc = np.zeros((6, 12))
    hc[0:3, 0:3] = -rt
    hc[0:3, 3:6] = rt
    hc[3:6, 6:9] = -rt
    hc[3:6, 9:12] = rt
    if conv is STANDARD:
        p_f = lin.feature_pos[lin.index_of(mean.feature_ids[j])]
        hc[3:6, 0:3] = lin.robot_rot.T @ skew(p_f - lin.robot_pos)
    k = mean.num_features
    off, f = 3 * (k + 1), 3 * (j + 1)
    cols = np.array([0, 1, 2, f, f + 1, f + 2,
                     off, off + 1, off + 2, off + f, off + f + 1, off + f + 2])
    return cols, hc


def innovation(conv, state, z, lin):
    mean = state.mean
    j = mean.index_of(z.feature_id)
    y = np.empty(6)
    y[0:3] = so3_log(z.rot @ mean.feature_rots[j].T @ mean.robot_rot, validate=False)
    y[3:6] = z.pos - mean.robot_rot.T @ (mean.feature_pos[j] - mean.robot_pos)
    cols, hc = _observed_block(conv, mean, j, lin)
    hp = hc @ state.cov.take(cols, axis=0)
    s = _symmetrize(hp.take(cols, axis=1) @ hc.T) + z.noise_cov
    return y, s, hp


def _check_conditioning(s):
    eig = np.linalg.eigvalsh(s) if np.isfinite(s).all() else None
    if eig is None:
        raise IllConditionedInnovationError("innovation covariance is not finite")
    if eig[0] <= 0.0 or eig[-1] / eig[0] > COND_LIMIT:
        raise IllConditionedInnovationError("innovation covariance condition number")


def _group_exp(xi, ids):
    rot_vecs, pos_vecs = split_tangent(xi, len(ids))
    rots, jls = so3_exp(rot_vecs, left_jacobian=True)
    jl = jls[0]
    return GroupState(rots[0], (jl @ pos_vecs[0][:, None])[:, 0], rots[1:],
                      pos_vecs[1:] @ jl.T, ids)


def _retract(conv, mean, delta):
    k = mean.num_features
    if conv is INVARIANT:
        a = _group_exp(delta, mean.feature_ids)
        return GroupState(a.robot_rot @ mean.robot_rot,
                          (a.robot_rot @ mean.robot_pos[:, None])[:, 0] + a.robot_pos,
                          a.feature_rots @ mean.feature_rots,
                          mean.feature_pos @ a.robot_rot.T + a.feature_pos,
                          mean.feature_ids)
    rot_vecs, pos_vecs = split_tangent(delta, k)
    exps = so3_exp(rot_vecs)
    return GroupState(exps[0] @ mean.robot_rot, mean.robot_pos + pos_vecs[0],
                      exps[1:] @ mean.feature_rots, mean.feature_pos + pos_vecs[1:],
                      mean.feature_ids)


def apply_update(conv, state, y, s, hp):
    _check_conditioning(s)
    gain = hp.T @ np.linalg.inv(s)
    correction = gain @ y
    if not math.isfinite(correction @ correction):
        raise FilterDivergedError("non-finite estimate")
    cov = gain @ hp
    np.subtract(state.cov, cov, out=cov)
    return FilterState(_retract(conv, state.mean, correction), cov)


def initialize_feature(conv, state, z):
    mean = state.mean
    k = mean.num_features
    off = 3 * (k + 1)
    rows = np.concatenate([np.arange(off), np.arange(3),
                           np.arange(off, 2 * off), np.arange(off, off + 3)])
    r0, n_pos = rot_block(0), pos_block(k + 1, k + 1)
    ap = state.cov.take(rows, axis=0)
    if conv is STANDARD:
        lever = _lever_arm(mean.robot_rot, z.pos)
        ap[n_pos] += lever @ state.cov[r0]
    cov = ap.take(rows, axis=1)
    if conv is STANDARD:
        cov[:, n_pos] += ap[:, r0] @ lever.T
    new = np.r_[rot_block(k + 1), pos_block(k + 1, k + 1)]
    b = np.zeros((6, 6))
    b[0:3, 0:3] = b[3:6, 3:6] = -mean.robot_rot
    cov[np.ix_(new, new)] += b @ z.noise_cov @ b.T
    aug = GroupState(mean.robot_rot, mean.robot_pos,
                     np.concatenate([mean.feature_rots, (mean.robot_rot @ z.rot)[None]]),
                     np.concatenate([mean.feature_pos,
                                     (mean.robot_pos + mean.robot_rot @ z.pos)[None]]),
                     mean.feature_ids + (z.feature_id,))
    return FilterState(aug, _symmetrize(cov))


def run(spec, steps, truth_states=None):
    """(trajectory, final state, failing step or None) of one filter over a
    {step: ReplayStep} stream that records odometry at every step > 0."""
    conv, at_truth = spec.convention, spec.at_truth
    state = FilterState(GroupState(np.eye(3), np.zeros(3)), np.zeros((6, 6)))
    trajectory, final = [], state
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(max(steps) + 1):
            rec = steps[step]
            lin_prev = truth_states[step - 1] if at_truth else None
            lin_here = truth_states[step] if at_truth else None
            try:
                if step > 0:
                    state = propagate(conv, state, rec.odometry, lin_prev)
                for z in rec.observations:
                    if z.feature_id not in state.mean.feature_ids:
                        state = initialize_feature(conv, state, z)
                        continue
                    y, s, hp = innovation(conv, state, z, lin_here)
                    if spec.robust and not gate(Innovation(y, s, hp)).accepted:
                        continue
                    state = apply_update(conv, state, y, s, hp)
            except (IllConditionedInnovationError, LogDomainError,
                    FilterDivergedError):
                return trajectory, final, step
            trajectory.append((state.mean.robot_rot, state.mean.robot_pos))
            final = state
    return trajectory, final, None


def deviation(result, reference) -> float:
    """Largest deviation of a RunResult from run()'s output, relative to the
    largest magnitude of each compared array: trajectory rotations and
    positions, final rotations, positions and covariance."""
    trajectory, final, _ = reference
    rows = (result.trajectory, trajectory)
    pairs = [tuple(np.array([r for r, _ in t]) for t in rows),
             tuple(np.array([p for _, p in t]) for t in rows),
             (result.final_state.mean.rotations, final.mean.rotations),
             (result.final_state.mean.positions, final.mean.positions),
             (result.final_state.cov, final.cov)]
    worst = 0.0
    for got, want in pairs:
        assert got.shape == want.shape
        if want.size:
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    return worst
