"""Synthetic world: circular trajectory, odometry, and range-gated pose observations.

The robot drives a planar circle, turning STEP_TURN and advancing
STEP_DISTANCE each step (one loop every STEPS_PER_LOOP steps), among randomly
oriented object features, and senses each one between SENSE_MIN and
SENSE_MAX away.
Noise enters exactly like the filter models expect: rotation noise multiplies
the odometry/observation rotation on the left, translation noise is additive
in the body frame.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .ekf import propagate_mean
from .group import GroupState, _rotate
from .lie import random_rotation, so3_exp
from .types import Odometry, PoseObservation


STEP_TURN = math.pi / 40.0
STEP_DISTANCE = 0.1
STEPS_PER_LOOP = round(2.0 * math.pi / STEP_TURN)
SENSE_MIN, SENSE_MAX = 0.5, 2.0
NOISE_STDDEV = 0.1  # each odometry and observation axis unless set


def _default_noise() -> np.ndarray:
    return np.diag([NOISE_STDDEV ** 2] * 6)


@dataclass(frozen=True)
class SimConfig:
    num_features: int = 6
    loops: int = 25
    sigma: np.ndarray = field(default_factory=_default_noise)
    omega: np.ndarray = field(default_factory=_default_noise)
    seed: int = 0
    placement: str = "ring"  # "ring" scatters features around the circle,
                             # "central" keeps them always inside sensing range

    def __post_init__(self):
        if self.loops < 0 or self.num_features < 0:
            raise ValueError("loops and num_features must be non-negative")
        if self.placement not in ("ring", "central"):
            raise ValueError(f"unknown placement {self.placement!r}")

    @property
    def num_steps(self) -> int:
        return self.loops * STEPS_PER_LOOP

    def with_noise(self, sigma_diag, omega_diag) -> "SimConfig":
        return replace(self, sigma=np.diag(np.asarray(sigma_diag, dtype=float) ** 2),
                       omega=np.diag(np.asarray(omega_diag, dtype=float) ** 2))


@dataclass
class GroundTruthTrace:
    """True states (length N+1), noise-free odometry (N), visible ids per step."""

    states: list
    odometry: list
    visible: list


@dataclass
class SimulatedRun:
    """One noisy realization: the trace plus measured odometry and observations.

    odom_noise keeps the drawn 6-vectors so tests can verify the exact
    reconstruction identity of the process model.
    """

    trace: GroundTruthTrace
    odometry: list
    observations: list
    odom_noise: np.ndarray


def step_odometry(cfg: SimConfig) -> Odometry:
    """Noise-free per-step increment: turn about body z, advance along body x."""
    return Odometry(
        so3_exp(np.array([0.0, 0.0, STEP_TURN])),
        np.array([STEP_DISTANCE, 0.0, 0.0]),
        cfg.sigma,
    )


def _trajectory_center(cfg: SimConfig) -> np.ndarray:
    u = step_odometry(cfg)
    pose = GroupState(np.eye(3), np.zeros(3))
    pts = [pose.robot_pos]
    for _ in range(STEPS_PER_LOOP):
        pose = propagate_mean(pose, u)
        pts.append(pose.robot_pos)
    return np.mean(pts[:-1], axis=0)


def generate_world(cfg: SimConfig, rng: np.random.Generator) -> GroupState:
    """Feature poses around the trajectory, returned with the initial robot pose.

    Ring placement alternates features inside/outside the circle at radial
    offsets that guarantee at least one sensing window per loop; central
    placement keeps every feature permanently inside the sensing annulus.
    """
    center = _trajectory_center(cfg)
    k = cfg.num_features
    rots = np.zeros((k, 3, 3))
    pos = np.zeros((k, 3))
    for j in range(k):
        angle = 2.0 * math.pi * j / max(k, 1)
        direction = np.array([math.cos(angle), math.sin(angle), 0.0])
        if cfg.placement == "central":
            radius = rng.uniform(0.0, 0.7)
        else:
            offset = rng.uniform(0.6, 1.2)
            radius = STEP_DISTANCE / STEP_TURN + (offset if j % 2 == 0 else -offset)
        pos[j] = center + radius * direction
        pos[j, 2] = rng.uniform(-0.2, 0.2)
        rots[j] = random_rotation(rng)
    ids = tuple(f"obj{j}" for j in range(k))
    return GroupState(np.eye(3), np.zeros(3), rots, pos, ids)


def _visible_ids(state: GroupState) -> list:
    if state.num_features == 0:
        return []
    dist = np.linalg.norm(state.feature_pos - state.robot_pos, axis=1)
    mask = (dist >= SENSE_MIN) & (dist <= SENSE_MAX)
    return [state.feature_ids[j] for j in np.nonzero(mask)[0]]


def generate_trajectory(cfg: SimConfig, world: GroupState) -> GroundTruthTrace:
    u = step_odometry(cfg)
    states = [world]
    for _ in range(cfg.num_steps):
        states.append(propagate_mean(states[-1], u))
    visible = [_visible_ids(s) for s in states]
    return GroundTruthTrace(states, [u] * cfg.num_steps, visible)


def _noise_factor(cov: np.ndarray) -> np.ndarray:
    if not np.any(cov):
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def perturb_odometry(u: Odometry, w: np.ndarray) -> Odometry:
    """u as measured under the drawn (..., 6) noise w: rotation noise on the
    left, body-frame translation noise added; leading axes of w carry over."""
    return Odometry(so3_exp(w[..., 0:3]) @ u.rot, u.pos + w[..., 3:6], u.noise_cov)


def _relative_poses(world: GroupState, trace: GroundTruthTrace,
                    v: np.ndarray) -> tuple:
    """Rotations (M, 3, 3) and positions (M, 3) of the M visible features
    of the trace, step by step, as observed under the noise 6-vectors v."""
    index = {fid: j for j, fid in enumerate(world.feature_ids)}
    feats = np.array([index[fid] for ids in trace.visible for fid in ids], dtype=int)
    at = np.repeat(np.arange(len(trace.states)), [len(ids) for ids in trace.visible])
    robot_pos = np.stack([s.robot_pos for s in trace.states])[at]
    rt = np.stack([s.robot_rot for s in trace.states])[at].swapaxes(-1, -2)
    rots = so3_exp(v[:, 0:3]) @ rt @ world.feature_rots[feats]
    return rots, _rotate(rt, world.feature_pos[feats] - robot_pos) + v[:, 3:6]


def simulate_run(cfg: SimConfig, world: GroupState, rng: np.random.Generator,
                 noise_scale: float = 1.0) -> SimulatedRun:
    """Full noisy realization over the configured number of steps.

    observations[n] belong to the true state at step n (n = 0 .. N);
    odometry[n] moves step n to n+1. noise_scale multiplies the drawn noise
    (0 gives exact measurements); the generator is consumed the same way for
    every scale. All N + M noise 6-vectors (M observations) come from one
    draw, in the order of a step-by-step simulation: step 0's observations,
    then per step its odometry followed by the next state's observations.
    """
    trace = generate_trajectory(cfg, world)
    n = cfg.num_steps
    counts = [len(ids) for ids in trace.visible]
    draws = rng.standard_normal((n + sum(counts), 6))
    odom_rows = np.cumsum(counts[:-1], dtype=int) + np.arange(n)
    noises = _rotate(noise_scale * _noise_factor(cfg.sigma), draws[odom_rows])
    rots, pos = _relative_poses(world, trace, _rotate(
        noise_scale * _noise_factor(cfg.omega), np.delete(draws, odom_rows, axis=0)))
    del draws  # not kept alive while the per-measurement objects are made

    u = step_odometry(cfg)
    measured = perturb_odometry(u, noises)
    odoms = [Odometry(r, p, u.noise_cov) for r, p in zip(measured.rot, measured.pos)]
    ids = (fid for step_ids in trace.visible for fid in step_ids)
    flat = iter([PoseObservation(fid, r, p, cfg.omega)
                 for fid, r, p in zip(ids, rots, pos)])
    observations = [list(islice(flat, c)) for c in counts]
    return SimulatedRun(trace, odoms, observations, noises)
