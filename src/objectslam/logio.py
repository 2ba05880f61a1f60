"""File formats: JSON-lines measurement logs and Jacobian-sequence dumps.

Measurement logs carry one record per line with kinds "odom", "obs" and
(optionally) "truth"; rotations travel as (w, x, y, z) unit quaternions and
covariances as the 21 upper-triangle entries of the 6x6 matrix, rotation block
first. Truth records make replay metrics possible and use a zero covariance.

Every parsed value is checked: lines are UTF-8, steps are non-negative JSON
integers, numbers are finite JSON numbers (not strings or booleans), feature
ids are hashable, a step holds at most one odometry record and step 0 none,
and quaternions whose norm is within QUAT_NORM_TOL of 1 are normalized (others
are rejected). A line that fails raises MalformedRecordError naming its line
number. Jacobian logs are checked the same way: a JSON-object header with
known filter and mode tags, at least one step and, when present, an anchor of
finite positions (robot_pos, and one feature_pos row per feature), which an
ideal-mode standard-filter log must carry; finite entries, F and H shapes
that match the header's state dimension, steps in the header's range, an F
for every step and an H for some (what is missing names the header line).
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
# what json.loads makes of a JSON number (bool is excluded by exact type)
_NUMBER_TYPES = frozenset((int, float))
# the tags a Jacobian-log header may carry
_JACOBIAN_FILTERS = ("riekf", "stdekf", "ideal")
_JACOBIAN_MODES = ("estimated", "ideal")


def _pack_cov(cov: np.ndarray) -> list:
    return [float(v) for v in np.asarray(cov)[_TRIU]]


def _finite_vector(value, name: str, size: int, lineno: int) -> np.ndarray:
    # cheap Python scans: a record holds 3-21 numbers, and numpy's float
    # conversion would take "1" or true as numbers
    if type(value) is not list or len(value) != size:
        got = f"{len(value)} entries" if type(value) is list else type(value).__name__
        raise MalformedRecordError(f"line {lineno}: {name} needs {size} entries, "
                                   f"got {got}")
    if not _NUMBER_TYPES.issuperset(map(type, value)):
        raise MalformedRecordError(f"line {lineno}: {name} entries must be JSON numbers")
    try:
        finite = all(map(math.isfinite, value))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise MalformedRecordError(f"line {lineno}: {name} has non-finite entries")
    return np.array(value, dtype=float)


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


def _utf8_lines(path):
    """Yield (line number, text) for each line; a line that is not UTF-8
    raises MalformedRecordError naming it."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedRecordError(f"line {lineno}: not UTF-8: {exc}") from None


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
    for lineno, line in _utf8_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
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
            # the odometry record at step s moves step s - 1 to s
            if step == 0:
                raise MalformedRecordError(
                    f"line {lineno}: odometry record at step 0")
            if entry.odometry is not None:
                raise MalformedRecordError(
                    f"line {lineno}: second odometry record at step {step}")
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
    vals = " ".join(map(repr, np.asarray(m, dtype=float).ravel().tolist()))
    return f"{tag} {step} {m.shape[0]} {m.shape[1]} {vals}\n"


def read_jacobian_log(path) -> JacobianLog:
    """Parse a Jacobian log, naming the line of any malformed entry."""
    lines = _utf8_lines(path)
    try:
        header = json.loads(next(lines, (1, ""))[1])
        if not isinstance(header, dict):
            raise TypeError("header is not a JSON object")
        counts = {"num_features": header["num_features"], "steps": header["steps"],
                  "start_step": header.get("start_step", 0)}
        for name, value in counts.items():
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} {value!r} is not a non-negative integer")
        if counts["steps"] == 0:
            raise ValueError("steps 0: the log holds no Jacobians to check")
        for name, allowed in (("filter", _JACOBIAN_FILTERS), ("mode", _JACOBIAN_MODES)):
            if header[name] not in allowed:
                raise ValueError(f"{name} {header[name]!r} is not one of {allowed}")
        anchor = header.get("anchor")
        if anchor is not None and not isinstance(anchor, dict):
            raise ValueError(f"anchor {anchor!r} is not a JSON object")
        if anchor is None and header["filter"] != "riekf" \
                and header["mode"] == "ideal":
            raise ValueError("an ideal-mode standard-filter log needs an anchor "
                             "(its gauge basis sits at the true positions)")
        log = JacobianLog(header["filter"], header["mode"], counts["num_features"],
                          start_step=counts["start_step"], anchor=anchor)
        steps = counts["steps"]
        d = log.state_dim
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedRecordError(f"line 1: bad jacobian-log header: {exc}") from None
    if anchor is not None:
        _finite_vector(anchor.get("robot_pos"), "anchor robot_pos", 3, 1)
        rows = anchor.get("feature_pos")
        if type(rows) is not list or len(rows) != log.num_features:
            raise MalformedRecordError(
                f"line 1: anchor feature_pos needs {log.num_features} rows of 3")
        for row in rows:
            _finite_vector(row, "anchor feature_pos row", 3, 1)
    fs: dict[int, np.ndarray] = {}
    hs: dict[int, np.ndarray] = {}
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            tag, step, rows, cols = parts[0], int(parts[1]), int(parts[2]), int(parts[3])
        except (IndexError, ValueError) as exc:
            raise MalformedRecordError(f"line {lineno}: {exc}") from None
        if tag not in ("F", "H"):
            raise MalformedRecordError(f"line {lineno}: unknown tag {tag!r}")
        fits = (rows, cols) == (d, d) if tag == "F" else (rows > 0 and cols == d)
        if not fits:
            raise MalformedRecordError(
                f"line {lineno}: {tag} shape ({rows}, {cols}) does not fit "
                f"state dimension {d}")
        try:
            m = np.array(parts[4:], dtype=float).reshape(rows, cols)
        except ValueError as exc:
            raise MalformedRecordError(f"line {lineno}: {exc}") from None
        if not np.isfinite(m).all():
            raise MalformedRecordError(f"line {lineno}: {tag} has non-finite entries")
        if not 0 <= step < steps:
            raise MalformedRecordError(
                f"line {lineno}: {tag} step {step} is outside the header's 0..{steps - 1}")
        found = fs if tag == "F" else hs
        if step in found:
            raise MalformedRecordError(f"line {lineno}: second {tag} for step {step}")
        found[step] = m
    for k in range(steps):
        if k not in fs:
            raise MalformedRecordError(f"line 1: step {k} of {steps} has no F matrix")
        log.append(fs[k], hs.get(k))
    if not hs:
        raise MalformedRecordError("line 1: no step has an H matrix (observations)")
    return log
