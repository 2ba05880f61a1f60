"""File formats: JSON-lines measurement logs and Jacobian-sequence dumps.

Measurement logs carry one record per line with kinds "odom", "obs" and
(optionally) "truth"; rotations travel as (w, x, y, z) unit quaternions and
covariances as the 21 upper-triangle entries of the 6x6 matrix, rotation block
first. Truth records make replay metrics possible and use a zero covariance.

Every parsed value is checked: steps are non-negative JSON integers, numbers
are finite, feature ids are hashable, and quaternions whose norm is within
QUAT_NORM_TOL of 1 are normalized (others are rejected). A line that fails
raises MalformedRecordError naming its line number.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedRecordError
from .lie import quat_to_rot, rot_to_quat
from .observability import JacobianLog
from .types import Odometry, PoseObservation

_KINDS = ("odom", "obs", "truth")
_TRIU = np.triu_indices(6)
# Largest |norm - 1| of an ingested quaternion: admits values printed with
# about 5 significant digits, e.g. [0.7071, 0, 0, 0.7071].
QUAT_NORM_TOL = 1e-4


def _pack_cov(cov: np.ndarray) -> list:
    return [float(v) for v in np.asarray(cov)[_TRIU]]


def _finite_vector(value, name: str, size: int, lineno: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecordError(f"line {lineno}: {name}: {exc}") from None
    if arr.shape != (size,):
        raise MalformedRecordError(f"line {lineno}: {name} needs {size} entries, "
                                   f"got shape {arr.shape}")
    # for 3-21 entries a Python scan is cheaper than a numpy reduction
    if not all(map(math.isfinite, arr.tolist())):
        raise MalformedRecordError(f"line {lineno}: {name} has non-finite entries")
    return arr


def _unpack_cov(values, lineno: int) -> np.ndarray:
    cov = np.zeros((6, 6))
    cov[_TRIU] = _finite_vector(values, "cov", 21, lineno)
    cov = cov + np.triu(cov, 1).T
    if np.linalg.eigvalsh(cov)[0] < -1e-10:
        raise MalformedRecordError(f"line {lineno}: covariance not PSD")
    return cov


def _feature_id(rec: dict, lineno: int):
    fid = rec["feature_id"]
    try:
        hash(fid)
    except TypeError:
        raise MalformedRecordError(
            f"line {lineno}: feature_id {fid!r} is not hashable") from None
    return fid


def _record(step: int, kind: str, rot: np.ndarray, pos: np.ndarray,
            cov: np.ndarray, feature_id=None) -> str:
    rec = {"step": int(step), "kind": kind}
    if feature_id is not None:
        rec["feature_id"] = feature_id
    rec["rotation"] = [float(v) for v in rot_to_quat(rot)]
    rec["position"] = [float(v) for v in pos]
    rec["cov"] = _pack_cov(cov)
    return json.dumps(rec)


@dataclass
class ReplayStep:
    odometry: Odometry | None = None
    observations: list = field(default_factory=list)
    truth_robot: tuple | None = None
    truth_features: dict = field(default_factory=dict)


def write_measurement_log(path, odometry, observations, trace=None) -> None:
    """Write a run's measurements; include truth records when a trace is given.

    odometry[i] moves step i to i+1 and is written at step i+1; observations
    is indexed by step (0 .. N).
    """
    zero = np.zeros((6, 6))
    with open(path, "w") as fh:
        for step, obs_list in enumerate(observations):
            if step > 0 and step - 1 < len(odometry):
                u = odometry[step - 1]
                fh.write(_record(step, "odom", u.rot, u.pos, u.noise_cov) + "\n")
            if trace is not None:
                s = trace.states[step]
                fh.write(_record(step, "truth", s.robot_rot, s.robot_pos, zero) + "\n")
                for j, fid in enumerate(s.feature_ids):
                    fh.write(_record(step, "truth", s.feature_rots[j],
                                     s.feature_pos[j], zero, feature_id=fid) + "\n")
            for z in obs_list:
                fh.write(_record(step, "obs", z.rot, z.pos, z.noise_cov,
                                 feature_id=z.feature_id) + "\n")


def read_measurement_log(path) -> dict:
    """Parse a measurement log into {step: ReplayStep}, validating each line."""
    steps: dict[int, ReplayStep] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(f"line {lineno}: {exc}") from None
            if not isinstance(rec, dict):
                raise MalformedRecordError(f"line {lineno}: record is not a JSON object")
            try:
                step, kind = rec["step"], rec["kind"]
                quat = _finite_vector(rec["rotation"], "rotation (quaternion)", 4, lineno)
                pos = _finite_vector(rec["position"], "position", 3, lineno)
            except KeyError as exc:
                raise MalformedRecordError(f"line {lineno}: missing {exc}") from None
            # bool is an int subclass, and a float step would be truncated
            if type(step) is not int or step < 0:
                raise MalformedRecordError(
                    f"line {lineno}: step must be a non-negative integer, got {step!r}")
            if kind not in _KINDS:
                raise MalformedRecordError(f"line {lineno}: unknown kind {kind!r}")
            if abs(np.linalg.norm(quat) - 1.0) > QUAT_NORM_TOL:
                raise MalformedRecordError(
                    f"line {lineno}: quaternion norm {np.linalg.norm(quat):.6g} "
                    f"is not within {QUAT_NORM_TOL:g} of 1")
            rot = quat_to_rot(quat)
            entry = steps.setdefault(step, ReplayStep())
            if kind == "odom":
                cov = _unpack_cov(rec.get("cov", []), lineno)
                entry.odometry = Odometry(rot, pos, cov)
            elif kind == "obs":
                if "feature_id" not in rec:
                    raise MalformedRecordError(f"line {lineno}: obs record without feature_id")
                cov = _unpack_cov(rec.get("cov", []), lineno)
                entry.observations.append(
                    PoseObservation(_feature_id(rec, lineno), rot, pos, cov))
            elif "feature_id" in rec:
                entry.truth_features[_feature_id(rec, lineno)] = (rot, pos)
            else:
                entry.truth_robot = (rot, pos)
    return steps


def write_jacobian_log(path, log: JacobianLog) -> None:
    """Header line with dims and tags, then one row-major matrix per line."""
    header = {"filter": log.filter_name, "mode": log.mode,
              "num_features": log.num_features, "state_dim": log.state_dim,
              "steps": len(log.F), "start_step": log.start_step}
    if log.anchor is not None:
        header["anchor"] = log.anchor
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for k, (f, h) in enumerate(zip(log.F, log.H)):
            fh.write(_matrix_line("F", k, f))
            if h is not None and h.size:
                fh.write(_matrix_line("H", k, h))


def _matrix_line(tag: str, step: int, m: np.ndarray) -> str:
    vals = " ".join(repr(float(v)) for v in np.asarray(m).ravel())
    return f"{tag} {step} {m.shape[0]} {m.shape[1]} {vals}\n"


def read_jacobian_log(path) -> JacobianLog:
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
            log = JacobianLog(header["filter"], header["mode"],
                              header["num_features"],
                              start_step=int(header.get("start_step", 0)),
                              anchor=header.get("anchor"))
            steps = int(header["steps"])
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise MalformedRecordError(f"line 1: bad jacobian-log header: {exc}") from None
        fs: dict[int, np.ndarray] = {}
        hs: dict[int, np.ndarray] = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                tag, step, rows, cols = parts[0], int(parts[1]), int(parts[2]), int(parts[3])
                m = np.array(parts[4:], dtype=float).reshape(rows, cols)
            except (IndexError, ValueError) as exc:
                raise MalformedRecordError(f"line {lineno}: {exc}") from None
            if tag == "F":
                fs[step] = m
            elif tag == "H":
                hs[step] = m
            else:
                raise MalformedRecordError(f"line {lineno}: unknown tag {tag!r}")
    for k in range(steps):
        if k not in fs:
            raise MalformedRecordError(f"missing F matrix for step {k}")
        log.append(fs[k], hs.get(k))
    return log
