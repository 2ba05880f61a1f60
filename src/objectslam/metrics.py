"""NEES and RMSE with the matching error conventions.

Consistency (NEES) pairs each filter's covariance with the error definition it
was filtered under: the invariant error for the invariant filter, per-block
errors for the standard/ideal filters. Accuracy (RMSE) always uses the
per-block standard error so no filter benefits from its own convention.
"""

import numpy as np

from .errors import DimensionMismatchError, SingularCovarianceError
from .group import (GroupState, group_log, group_minus, join_tangent,
                    split_tangent)
from .lie import batch_so3_log
from .types import FilterState

BLOCKS = ("robot-rot", "robot-pos", "robot-pose",
          "feature-rot", "feature-pos", "feature-pose")


def _squared_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i' b_i of two (n, m) stacks, rounded as a 1-D dot product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def nees(errors: np.ndarray, covariances: np.ndarray, label: str = "") -> float:
    """Average normalized estimation error squared, 1/(n*m) * sum e' P^-1 e,
    of (n, m) errors against their (n, m, m) covariance blocks."""
    n, m = errors.shape
    if n == 0:
        raise ValueError("nees needs at least one sample")
    if covariances.shape != (n, m, m):
        raise DimensionMismatchError(
            f"covariances of shape {covariances.shape} for errors {errors.shape}")
    try:
        scaled = np.linalg.solve(covariances, errors[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise SingularCovarianceError(
            f"singular covariance block in {label or 'a sample'}") from None
    return float(_squared_norms(errors, scaled).sum()) / (n * m)


def rmse(errors: np.ndarray) -> float:
    """Root mean squared error norm over (n, m) error vectors."""
    if len(errors) == 0:
        raise ValueError("rmse needs at least one error")
    return float(np.sqrt(np.mean(_squared_norms(errors, errors))))


def restrict_to(true: GroupState, feature_ids: tuple) -> GroupState:
    """True state reduced to the given feature subset, in that order."""
    idx = [true.index_of(fid) for fid in feature_ids]
    return GroupState(true.robot_rot, true.robot_pos,
                      true.feature_rots[..., idx, :, :], true.feature_pos[..., idx, :],
                      tuple(feature_ids))


def invariant_error_vector(true: GroupState, est_mean: GroupState) -> np.ndarray:
    """Full nonlinear error xi with exp(xi) (+) est = true."""
    return group_log(group_minus(restrict_to(true, est_mean.feature_ids), est_mean))


def standard_error_vector(true: GroupState, est_mean: GroupState) -> np.ndarray:
    """Per-block error: left rotation logs and position differences. The
    relative rotations are checked for orthonormality, as so3_log checks."""
    t = restrict_to(true, est_mean.feature_ids)
    # a contiguous right operand keeps a stacked matmul on numpy's fast path
    rel = t.rotations @ np.ascontiguousarray(np.swapaxes(est_mean.rotations, -1, -2))
    return join_tangent(batch_so3_log(rel, validate=True),
                        t.positions - est_mean.positions)


def collect_samples(true: GroupState, est: FilterState, convention) -> dict:
    """Per block name, (NEES errors (n, m), their covariance blocks (n, m, m),
    standard errors (n, m)): n = 1 for robot blocks, n = K for feature blocks.

    NEES errors come from convention.error, the error map of the filter's
    ekf.Convention; RMSE errors are always standard. Both full error vectors
    are computed once, and the K+1 6x6 pose blocks of the covariance are
    gathered once.
    """
    k = est.mean.num_features
    nees_err = np.concatenate(split_tangent(convention.error(true, est.mean), k), -1)
    std_err = np.concatenate(split_tangent(standard_error_vector(true, est.mean), k), -1)
    # tangent indices of each pose's [rotation, position] block, (K+1, 6)
    idx = np.arange(6 * (k + 1)).reshape(2, k + 1, 3).swapaxes(0, 1).reshape(k + 1, 6)
    cov = est.cov[idx[:, :, None], idx[:, None, :]]
    out = {}
    for who, poses in (("robot", slice(0, 1)), ("feature", slice(1, None))):
        for part, c in (("rot", slice(0, 3)), ("pos", slice(3, 6)), ("pose", slice(0, 6))):
            out[f"{who}-{part}"] = (nees_err[poses, c], cov[poses, c, c],
                                    std_err[poses, c])
    return out
