"""NEES and RMSE with the matching error conventions.

Consistency (NEES) pairs each filter's covariance with the error definition it
was filtered under: the invariant error for the invariant filter, per-block
errors for the standard/ideal filters. Accuracy (RMSE) always uses the
per-block standard error so no filter benefits from its own convention.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularCovarianceError
from .group import (GroupState, group_log, group_minus, join_tangent, pos_block,
                    rot_block)
from .lie import batch_so3_log
from .types import FilterState

BLOCKS = ("robot-rot", "robot-pos", "robot-pose",
          "feature-rot", "feature-pos", "feature-pose")


@dataclass(frozen=True)
class ErrorSample:
    """Error vector with the covariance block it should be judged against."""

    e: np.ndarray
    P: np.ndarray
    block: str
    label: str = ""


def nees(samples) -> float:
    """Average normalized estimation error squared, 1/(m*d) * sum e' P^-1 e."""
    if not samples:
        raise ValueError("nees needs at least one sample")
    d = samples[0].e.shape[0]
    total = 0.0
    for s in samples:
        if s.e.shape[0] != d:
            raise DimensionMismatchError("mixed sample dimensions in nees")
        try:
            total += float(s.e @ np.linalg.solve(s.P, s.e))
        except np.linalg.LinAlgError:
            raise SingularCovarianceError(
                f"singular covariance block in sample {s.label or s.block!r}") from None
    return total / (len(samples) * d)


def rmse(errors) -> float:
    """Root mean squared error norm over a set of error vectors."""
    errors = list(errors)
    if not errors:
        raise ValueError("rmse needs at least one error")
    return float(np.sqrt(np.mean([float(e @ e) for e in errors])))


def _block_indices(block: str, feature_index: int, k: int) -> np.ndarray:
    i = 0 if block.startswith("robot") else feature_index + 1
    rot = np.arange(*rot_block(i).indices(6 + 6 * k))
    pos = np.arange(*pos_block(i, k).indices(6 + 6 * k))
    if block.endswith("-rot"):
        return rot
    if block.endswith("-pos"):
        return pos
    if block.endswith("-pose"):
        return np.concatenate([rot, pos])
    raise ValueError(f"unknown block {block!r}")


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


def error_sample(convention, true: GroupState, est: FilterState, block: str,
                 feature_id=None, label: str = "") -> ErrorSample:
    """Error sample for one block under convention.error (an ekf.Convention)."""
    full_error = convention.error(true, est.mean)
    k = est.mean.num_features
    j = est.mean.index_of(feature_id) if feature_id is not None else 0
    if block.startswith("feature") and feature_id is None:
        raise ValueError("feature blocks need a feature_id")
    idx = _block_indices(block, j, k)
    return ErrorSample(full_error[idx], est.cov[np.ix_(idx, idx)], block, label)


def collect_samples(true: GroupState, est: FilterState, convention,
                    label: str = "") -> dict:
    """One NEES sample set and one RMSE error set per block.

    NEES errors come from convention.error, the error map of the filter's
    ekf.Convention; RMSE errors are always standard. Feature blocks pool every
    tracked feature. The full error vectors are computed once and sliced per
    block.
    """
    k = est.mean.num_features
    std_full = standard_error_vector(true, est.mean)
    nees_full = convention.error(true, est.mean)
    nees_samples = {b: [] for b in BLOCKS}
    rmse_errors = {b: [] for b in BLOCKS}

    def add(block, j, tag):
        idx = _block_indices(block, j, k)
        nees_samples[block].append(
            ErrorSample(nees_full[idx], est.cov[np.ix_(idx, idx)], block, tag))
        rmse_errors[block].append(std_full[idx])

    for block in ("robot-rot", "robot-pos", "robot-pose"):
        add(block, 0, label)
    for j, fid in enumerate(est.mean.feature_ids):
        for block in ("feature-rot", "feature-pos", "feature-pose"):
            add(block, j, f"{label}/{fid}")
    return {"nees": nees_samples, "rmse": rmse_errors}
