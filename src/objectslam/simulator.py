"""Synthetic world: circular trajectory, odometry, and range-gated pose observations.

The robot drives a planar circle (constant linear and angular speed, one loop
every 2*pi/(angular_speed*dt) steps) among randomly oriented object features.
Noise enters exactly like the filter models expect: rotation noise multiplies
the odometry/observation rotation on the left, translation noise is additive
in the body frame.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ekf import propagate_mean
from .group import GroupState
from .lie import random_rotation, so3_exp
from .types import Odometry, PoseObservation


def _default_noise() -> np.ndarray:
    return np.diag([0.1 ** 2] * 6)


@dataclass(frozen=True)
class SimConfig:
    num_features: int = 6
    loops: int = 25
    circle_radius: float = 8.0 / (2.0 * math.pi)
    linear_speed: float = 0.1
    angular_speed: float = math.pi / 40.0
    sense_min: float = 0.5
    sense_max: float = 2.0
    step_dt: float = 1.0
    sigma: np.ndarray = field(default_factory=_default_noise)
    omega: np.ndarray = field(default_factory=_default_noise)
    seed: int = 0
    placement: str = "ring"  # "ring" scatters features around the circle,
                             # "central" keeps them always inside sensing range

    def __post_init__(self):
        if not 0.0 <= self.sense_min < self.sense_max:
            raise ValueError("sensing range needs 0 <= min < max")
        if self.step_dt <= 0.0 or self.loops < 0 or self.num_features < 0:
            raise ValueError("step_dt must be positive; loops and "
                             "num_features non-negative")
        if self.placement not in ("ring", "central"):
            raise ValueError(f"unknown placement {self.placement!r}")

    @property
    def steps_per_loop(self) -> int:
        return int(round(2.0 * math.pi / (self.angular_speed * self.step_dt)))

    @property
    def num_steps(self) -> int:
        return self.loops * self.steps_per_loop

    def with_noise(self, sigma_diag, omega_diag) -> "SimConfig":
        return replace(self, sigma=np.diag(np.asarray(sigma_diag, dtype=float) ** 2),
                       omega=np.diag(np.asarray(omega_diag, dtype=float) ** 2))


@dataclass
class GroundTruthTrace:
    """True states (length N+1), noise-free odometry (N), visible ids per step."""

    states: list
    odometry: list
    visible: list

    @property
    def num_steps(self) -> int:
        return len(self.odometry)


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
        so3_exp(np.array([0.0, 0.0, cfg.angular_speed * cfg.step_dt])),
        np.array([cfg.linear_speed * cfg.step_dt, 0.0, 0.0]),
        cfg.sigma,
    )


def _trajectory_center(cfg: SimConfig) -> np.ndarray:
    u = step_odometry(cfg)
    pose = GroupState(np.eye(3), np.zeros(3))
    pts = [pose.robot_pos]
    for _ in range(cfg.steps_per_loop):
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
            radius = cfg.circle_radius + (offset if j % 2 == 0 else -offset)
        pos[j] = center + radius * direction
        pos[j, 2] = rng.uniform(-0.2, 0.2)
        rots[j] = random_rotation(rng)
    ids = tuple(f"obj{j}" for j in range(k))
    return GroupState(np.eye(3), np.zeros(3), rots, pos, ids)


def _visible_ids(state: GroupState, cfg: SimConfig) -> list:
    if state.num_features == 0:
        return []
    dist = np.linalg.norm(state.feature_pos - state.robot_pos, axis=1)
    mask = (dist >= cfg.sense_min) & (dist <= cfg.sense_max)
    return [state.feature_ids[j] for j in np.nonzero(mask)[0]]


def generate_trajectory(cfg: SimConfig, world: GroupState) -> GroundTruthTrace:
    u = step_odometry(cfg)
    states = [world]
    for _ in range(cfg.num_steps):
        states.append(propagate_mean(states[-1], u))
    visible = [_visible_ids(s, cfg) for s in states]
    return GroundTruthTrace(states, [u] * cfg.num_steps, visible)


def _noise_factor(cov: np.ndarray) -> np.ndarray:
    if not np.any(cov):
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def sample_noisy_odometry(u: Odometry, sigma: np.ndarray,
                          rng: np.random.Generator) -> tuple:
    """Measured odometry with rotation noise on the left and body-frame
    translation noise; also returns the drawn noise vector."""
    w = _noise_factor(sigma) @ rng.standard_normal(6)
    return Odometry(so3_exp(w[0:3]) @ u.rot, u.pos + w[3:6], sigma), w


def sample_observations(true_state: GroupState, cfg: SimConfig,
                        rng: np.random.Generator,
                        _factor: np.ndarray | None = None) -> list:
    """Noisy relative poses of every feature inside the sensing annulus."""
    obs = []
    factor = _noise_factor(cfg.omega) if _factor is None else _factor
    rt = true_state.robot_rot.T
    for fid in _visible_ids(true_state, cfg):
        j = true_state.index_of(fid)
        v = factor @ rng.standard_normal(6)
        obs.append(PoseObservation(
            fid,
            so3_exp(v[0:3]) @ rt @ true_state.feature_rots[j],
            rt @ (true_state.feature_pos[j] - true_state.robot_pos) + v[3:6],
            cfg.omega,
        ))
    return obs


def simulate_run(cfg: SimConfig, world: GroupState, rng: np.random.Generator,
                 noise_scale: float = 1.0) -> SimulatedRun:
    """Full noisy realization over the configured number of steps.

    observations[n] belong to the true state at step n (n = 0 .. N);
    odometry[n] moves step n to n+1. noise_scale multiplies the drawn noise
    (0 gives exact measurements); the generator is consumed the same way for
    every scale.
    """
    trace = generate_trajectory(cfg, world)
    n = cfg.num_steps
    odoms = []
    noises = np.zeros((n, 6))
    sigma_factor = noise_scale * _noise_factor(cfg.sigma)
    omega_factor = noise_scale * _noise_factor(cfg.omega)
    observations = [sample_observations(trace.states[0], cfg, rng,
                                        _factor=omega_factor)]
    for i in range(n):
        u = trace.odometry[i]
        w = sigma_factor @ rng.standard_normal(6)
        odoms.append(Odometry(so3_exp(w[0:3]) @ u.rot, u.pos + w[3:6], cfg.sigma))
        noises[i] = w
        observations.append(sample_observations(trace.states[i + 1], cfg, rng,
                                                _factor=omega_factor))
    return SimulatedRun(trace, odoms, observations, noises)
