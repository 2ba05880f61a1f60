"""Filter input/output value types shared by the invariant and standard EKFs."""

from dataclasses import dataclass

import numpy as np

from .group import GroupState, tangent_dim


@dataclass(frozen=True)
class Odometry:
    """Relative robot motion (rot, pos) with 6x6 noise cov [rotation; position]."""

    rot: np.ndarray
    pos: np.ndarray
    noise_cov: np.ndarray


@dataclass(frozen=True)
class PoseObservation:
    """Relative feature pose in the robot frame with 6x6 cov [rotation; position]."""

    feature_id: object
    rot: np.ndarray
    pos: np.ndarray
    noise_cov: np.ndarray


@dataclass(frozen=True)
class FilterState:
    """Estimated mean on the group plus the (6+6K)x(6+6K) error covariance."""

    mean: GroupState
    cov: np.ndarray

    def __post_init__(self):
        d = tangent_dim(self.mean.num_features)
        if self.cov.shape != (d, d):
            raise ValueError(
                f"covariance shape {self.cov.shape} inconsistent with K="
                f"{self.mean.num_features}")


@dataclass(frozen=True)
class Innovation:
    """6-dim innovation y = [y_rot; y_pos] and its covariance S.

    HP caches H @ P from the S computation so the update can reuse it; the
    dense H itself is never formed (see Convention.observation_jacobian).
    A FilterBatch's innovation puts its members on a leading axis of each.
    """

    y: np.ndarray
    S: np.ndarray
    HP: np.ndarray


@dataclass(frozen=True)
class Failure:
    """Where and why a filter run stopped; str() reads "step N: cause"."""

    step: int
    cause: str

    def __str__(self) -> str:
        return f"step {self.step}: {self.cause}"


def initial_filter_state() -> FilterState:
    """Anchored prior: robot at the origin with zero covariance, no features."""
    from .group import identity_state

    return FilterState(identity_state(), np.zeros((6, 6)))


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)
