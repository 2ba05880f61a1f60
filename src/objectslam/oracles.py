"""Jacobian oracles: central finite differences and a sampling oracle.

Both check each convention's analytic Jacobians and augmentation covariance
against the convention's own nonlinear maps (retract, the exact models,
error) and never read the analytic matrices they check.
"""

import numpy as np

from .ekf import INVARIANT, STANDARD, Convention, propagate_mean
from .group import GroupState, tangent_dim
from .lie import random_rotation, so3_exp
from .simulator import perturb_odometry
from .types import FilterState, Odometry, PoseObservation


def _numeric_jacobian(fn, dim: int, eps: float = 1e-6) -> np.ndarray:
    cols = []
    for i in range(dim):
        d = np.zeros(dim)
        d[i] = eps
        cols.append((fn(d) - fn(-d)) / (2.0 * eps))
    return np.column_stack(cols)


def _random_state(rng: np.random.Generator, k: int) -> FilterState:
    ids = tuple(f"obj{j}" for j in range(k))
    mean = GroupState(random_rotation(rng), rng.normal(size=3),
                      np.stack([random_rotation(rng) for _ in range(k)])
                      if k else np.zeros((0, 3, 3)),
                      rng.normal(size=(k, 3)), ids)
    a = rng.normal(size=(tangent_dim(k), tangent_dim(k)))
    cov = 0.01 * (a @ a.T) + 0.001 * np.eye(tangent_dim(k))
    return FilterState(mean, cov)


def _exact_observation(mean: GroupState, j: int, cov: np.ndarray) -> PoseObservation:
    rt = mean.robot_rot.T
    return PoseObservation(mean.feature_ids[j], rt @ mean.feature_rots[j],
                           rt @ (mean.feature_pos[j] - mean.robot_pos), cov)


def _augmented_truth(true_state: GroupState, z: PoseObservation,
                     v: np.ndarray) -> GroupState:
    """Exact new-feature pose implied by observation z under (..., 6) noise v,
    over the leading axes of true_state and v."""
    new_rot = true_state.robot_rot @ so3_exp(-v[..., 0:3]) @ z.rot
    new_pos = true_state.robot_pos + np.einsum(
        "...ij,...j->...i", true_state.robot_rot, z.pos - v[..., 3:6])
    return GroupState(
        true_state.robot_rot, true_state.robot_pos,
        np.concatenate([true_state.feature_rots, new_rot[..., None, :, :]], axis=-3),
        np.concatenate([true_state.feature_pos, new_pos[..., None, :]], axis=-2),
        true_state.feature_ids + (z.feature_id,))


def jacobian_check_suite(seed: int = 0, num_states: int = 100,
                         overrides: dict | None = None,
                         sampling_samples: int = 20000) -> dict:
    """Compare every analytic Jacobian against central finite differences and
    the augmentation covariances against a sampling oracle.

    Each convention is perturbed with its own retraction and measured with
    its own error map. overrides maps check names to replacement
    analytic-matrix callables; used by negative-control tests to prove the
    suite catches sign bugs.
    """
    rng = np.random.default_rng(seed)
    overrides = overrides or {}
    fd_errors = {f"{tag}.{name}": 0.0 for tag in ("ri", "std")
                 for name in ("F", "G", "H", "aug")}

    def check(name, analytic, fn, dim):
        if name in overrides:
            analytic = overrides[name](analytic)
        fd = _numeric_jacobian(fn, dim)
        err = float(np.linalg.norm(analytic - fd)
                    / max(np.linalg.norm(analytic), 1e-12))
        fd_errors[name] = max(fd_errors[name], err)

    for _ in range(num_states):
        k = int(rng.integers(1, 4))
        state = _random_state(rng, k)
        mean = state.mean
        d = tangent_dim(k)
        u = Odometry(random_rotation(rng), rng.normal(size=3),
                     np.diag(rng.uniform(0.01, 0.1, size=6) ** 2))
        j = int(rng.integers(0, k))
        omega = np.diag(rng.uniform(0.01, 0.1, size=6) ** 2)
        z_new = PoseObservation("new", random_rotation(rng),
                                rng.normal(size=3), omega)
        pred = propagate_mean(mean, u)
        # analytic Jacobians at the estimate against errors perturbed about it
        for conv, tag in ((INVARIANT, "ri"), (STANDARD, "std")):
            f, g = conv.propagation_jacobians(state, u)
            check(f"{tag}.F", f, lambda xi: conv.error(
                propagate_mean(conv.retract(mean, xi), u), pred), d)
            check(f"{tag}.G", g, lambda w: conv.error(
                propagate_mean(mean, perturb_odometry(u, w)), pred), 6)
            check(f"{tag}.H", conv.observation_jacobian(mean, j),
                  lambda xi: conv.innovation(state, _exact_observation(
                      conv.retract(mean, xi), j, omega)).y, d)
            a, b = conv.augmentation_jacobians(state, z_new)
            est_aug = conv.initialize_feature(state, z_new).mean
            check(f"{tag}.aug", np.hstack([a, b]), lambda xiv: conv.error(
                _augmented_truth(conv.retract(mean, xiv[:d]), z_new, xiv[d:]),
                est_aug), d + 6)

    sampling = {}
    for conv in (INVARIANT, STANDARD):
        state = _random_state(rng, 1)
        state = FilterState(state.mean,
                            0.005 ** 2 * np.eye(tangent_dim(1))
                            + 0.003 ** 2 * np.ones((tangent_dim(1),) * 2) / 12)
        omega = np.diag(rng.uniform(0.004, 0.01, size=6) ** 2)
        z = PoseObservation("new", random_rotation(rng), rng.normal(size=3), omega)
        analytic = conv.initialize_feature(state, z).cov
        emp = sample_augmented_covariance(state, z, conv, sampling_samples, rng)
        sampling[f"{conv.name}.P_aug"] = float(
            np.linalg.norm(emp - analytic) / np.linalg.norm(analytic))

    fd_pass = all(v < 1e-4 for v in fd_errors.values())
    sampling_pass = all(v < 0.05 for v in sampling.values())
    return {"fd_errors": fd_errors, "fd_tolerance": 1e-4,
            "sampling_errors": sampling, "sampling_tolerance": 0.05,
            "passed": fd_pass and sampling_pass}


def sample_augmented_covariance(state: FilterState, z: PoseObservation,
                                conv: Convention, n: int,
                                rng: np.random.Generator) -> np.ndarray:
    """Empirical covariance of the augmented error from n joint samples.

    Draws n state errors and n observation noises, retracts the mean by the
    errors, augments each true state exactly, and measures it against the
    noise-free augmentation of the mean with the convention's error map.
    """
    mean = state.mean
    xi = rng.multivariate_normal(np.zeros(tangent_dim(mean.num_features)),
                                 state.cov, size=n)
    v = rng.multivariate_normal(np.zeros(6), z.noise_cov, size=n)
    truth = _augmented_truth(conv.retract(mean, xi), z, v)
    estimate = _augmented_truth(mean, z, np.zeros(6))
    return np.cov(conv.error(truth, estimate).T)
