"""File formats: JSON-lines measurement logs and Jacobian-sequence dumps.

Measurement logs carry one record per line with kinds "odom", "obs" and
(optionally) "truth"; rotations travel as (w, x, y, z) unit quaternions and
covariances as the 21 upper-triangle entries of the 6x6 matrix, rotation block
first. Truth records make replay metrics possible and carry no covariance
(the reader checks a "cov" key on one like any other, then ignores it).
The writer gives the robot a truth record at every step and a landmark one
only when its pose differs from the last one written for it (a static
landmark: once, at step 0); the reader accepts logs that repeat them.

Every parsed value is checked: lines are UTF-8, steps are non-negative JSON
integers, numbers are finite JSON numbers (not strings or booleans), feature
ids are hashable, a step holds at most one odometry record and step 0 none,
and quaternions whose norm is within QUAT_NORM_TOL of 1 are normalized (others
are rejected). A line that fails raises MalformedRecordError naming its line
number. Keys, types, sizes, finiteness, steps, kinds and feature ids are
checked as each line is read; the quaternion-norm and covariance PSD checks
and the conversion to arrays run once per block of BLOCK_RECORDS lines. A
pending block is checked before a later line's error is raised, so the error
names the first malformed line in file order. Jacobian logs are checked the
same way: a JSON-object header whose filter, mode and anchor pass the rule
observability.gauge_basis applies (a check that builds no basis, so it costs
nothing in proportion to num_features), at least one step, an anchor of finite
positions if any (robot_pos, one feature_pos row per feature); finite
entries, F and H shapes that fit the header's state dimension, steps in its
range, an F for every step and an H for some (a missing one names line 1).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedRecordError
from .lie import quat_to_rot, rot_to_quat
from .observability import FILTER_KINDS, JacobianLog, _check_gauge_rule
from .types import Odometry, PoseObservation

_KINDS = ("odom", "obs", "truth")
_TRIU = np.triu_indices(6)
# Largest |norm - 1| of an ingested quaternion: admits values printed with
# about 5 significant digits, e.g. [0.7071, 0, 0, 0.7071].
QUAT_NORM_TOL = 1e-4
# what json.loads makes of a JSON number (bool is excluded by exact type)
_NUMBER_TYPES = frozenset((int, float))
# measurement-log lines per vectorized check and conversion: enough to share
# numpy's per-call cost, few enough that the pending numbers stay small
BLOCK_RECORDS = 512
# the modes a Jacobian-log header may carry
_JACOBIAN_MODES = ("estimated", "ideal")


def _finite_vector(value, name: str, size: int, lineno: int) -> list:
    """value itself once it is a list of size finite JSON numbers."""
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
    return value


def _feature_id(rec: dict, lineno: int):
    fid = rec["feature_id"]
    try:
        hash(fid)
    except TypeError:
        raise MalformedRecordError(
            f"line {lineno}: feature_id {fid!r} is not hashable") from None
    return fid


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


def landmark_truth_changes(states):
    """For each state in turn, the (feature id, rot, pos) of every landmark
    whose pose differs, bit for bit, from the last one yielded for it: all
    of the first state's landmarks, then none while they stay put."""
    last = {}  # feature id -> bytes of the pose last yielded for it
    for s in states:
        changed = []
        for j, fid in enumerate(s.feature_ids):
            rot, pos = s.feature_rots[j], s.feature_pos[j]
            key = (rot.tobytes(), pos.tobytes())
            if last.get(fid) != key:
                last[fid] = key
                changed.append((fid, rot, pos))
        yield changed


def write_measurement_log(path, odometry, observations, trace=None) -> None:
    """Write a run's measurements; include truth records when a trace is given.

    odometry[i] moves step i to i+1 and is written at step i+1; observations
    is indexed by step (0 .. N). The robot's truth is written at every step,
    a landmark's only when it changes (landmark_truth_changes).
    """
    records = []  # (step, kind, feature id or None, rot, pos, cov or None) in file order
    changes = landmark_truth_changes(trace.states) if trace is not None else None
    for step, obs_list in enumerate(observations):
        if step > 0 and step - 1 < len(odometry):
            u = odometry[step - 1]
            records.append((step, "odom", None, u.rot, u.pos, u.noise_cov))
        if trace is not None:
            s = trace.states[step]
            records.append((step, "truth", None, s.robot_rot, s.robot_pos, None))
            records += [(step, "truth", fid, rot, pos, None)
                        for fid, rot, pos in next(changes)]
        records += [(step, "obs", z.feature_id, z.rot, z.pos, z.noise_cov)
                    for z in obs_list]
    quats = rot_to_quat(np.array([r[3] for r in records], dtype=float).reshape(-1, 3, 3))
    with open(path, "w") as fh:
        for (step, kind, fid, _, pos, cov), quat in zip(records, quats):
            rec = {"step": int(step), "kind": kind}
            if fid is not None:
                rec["feature_id"] = fid
            rec["rotation"] = quat.tolist()
            rec["position"] = np.asarray(pos, dtype=float).tolist()
            if cov is not None:
                rec["cov"] = np.asarray(cov, dtype=float)[_TRIU].tolist()
            fh.write(json.dumps(rec) + "\n")


class _Block:
    """Up to BLOCK_RECORDS parsed lines whose quaternion-norm and PSD checks
    and array conversions are pending, held as plain numbers."""

    def __init__(self):
        self.records = []  # (step, kind, feature id) of each line that passed
        self.quat_lines, self.quats, self.positions = [], [], []
        self.cov_lines, self.covs = [], []

    def check(self) -> tuple:
        """Rotations, positions and covariances of the block; raises for its
        first line, in file order, whose quaternion norm or covariance fails
        (a line's norm before its covariance, as the per-line order has it)."""
        quats = np.array(self.quats, dtype=float).reshape(-1, 4)
        norms = np.sqrt(np.vecdot(quats, quats))
        covs = np.zeros((len(self.cov_lines), 6, 6))
        covs[:, _TRIU[0], _TRIU[1]] = np.array(self.covs, dtype=float).reshape(-1, 21)
        covs += np.triu(covs, 1).swapaxes(-1, -2)
        faults = []
        bad_norm = np.flatnonzero(np.abs(norms - 1.0) > QUAT_NORM_TOL)
        if bad_norm.size:
            i = bad_norm[0]
            faults.append((self.quat_lines[i], 0, f"quaternion norm {norms[i]:.6g} "
                           f"is not within {QUAT_NORM_TOL:g} of 1"))
        if len(covs):
            bad_cov = np.flatnonzero(np.linalg.eigvalsh(covs)[:, 0] < -1e-10)
            if bad_cov.size:
                faults.append((self.cov_lines[bad_cov[0]], 1, "covariance not PSD"))
        if faults:
            lineno, _, message = min(faults)
            raise MalformedRecordError(f"line {lineno}: {message}") from None
        return (quat_to_rot(quats), np.array(self.positions, dtype=float).reshape(-1, 3),
                covs)

    def add_to(self, steps: dict) -> None:
        """Check the block and add its records to steps in file order; the
        records' arrays are views into the block's stacks."""
        rots, positions, covs = self.check()
        c = 0
        for i, (step, kind, fid) in enumerate(self.records):
            entry = steps.get(step)
            if entry is None:
                entry = steps[step] = ReplayStep()
            if kind == "odom":
                entry.odometry = Odometry(rots[i], positions[i], covs[c])
                c += 1
            elif kind == "obs":
                entry.observations.append(
                    PoseObservation(fid, rots[i], positions[i], covs[c]))
                c += 1
            elif kind == "truth":
                entry.truth_features[fid] = (rots[i], positions[i])
            else:
                entry.truth_robot = (rots[i], positions[i])


def read_measurement_log(path) -> dict:
    """Parse a measurement log into {step: ReplayStep}, validating each line.

    Each line's JSON, keys, types, sizes, finiteness, step, kind and feature
    id are checked as it is read; its quaternion-norm and PSD checks and its
    array conversion run for BLOCK_RECORDS lines at a time. Before a line's
    error is raised the pending block is checked, so the error names the
    first malformed line.
    """
    steps: dict[int, ReplayStep] = {}
    block = _Block()
    odometry_steps = set()
    try:
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
            # the norm check of this line is pending from here on
            block.quat_lines.append(lineno)
            block.quats += quat
            block.positions += pos
            fid = None
            if kind == "truth":
                if "cov" in rec:  # checked as on any record, then ignored
                    _finite_vector(rec["cov"], "cov", 21, lineno)
                if "feature_id" in rec:
                    fid = _feature_id(rec, lineno)
                else:
                    kind = "truth robot"
            else:
                if kind == "obs" and "feature_id" not in rec:
                    raise MalformedRecordError(
                        f"line {lineno}: obs record without feature_id")
                block.covs += _finite_vector(rec.get("cov", []), "cov", 21, lineno)
                block.cov_lines.append(lineno)
                if kind == "obs":
                    fid = _feature_id(rec, lineno)
                # the odometry record at step s moves step s - 1 to s
                elif step == 0:
                    raise MalformedRecordError(
                        f"line {lineno}: odometry record at step 0")
                elif step in odometry_steps:
                    raise MalformedRecordError(
                        f"line {lineno}: second odometry record at step {step}")
                else:
                    odometry_steps.add(step)
            block.records.append((step, kind, fid))
            if len(block.records) == BLOCK_RECORDS:
                block.add_to(steps)
                block = _Block()
    except MalformedRecordError:
        block.check()  # a pending norm or PSD fault on an earlier line comes first
        raise
    block.add_to(steps)
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
        for name, allowed in (("filter", FILTER_KINDS), ("mode", _JACOBIAN_MODES)):
            if header[name] not in allowed:
                raise ValueError(f"{name} {header[name]!r} is not one of {allowed}")
        anchor = header.get("anchor")
        if anchor is not None and not isinstance(anchor, dict):
            raise ValueError(f"anchor {anchor!r} is not a JSON object")
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
    try:
        _check_gauge_rule(log)
    except ValueError as exc:
        raise MalformedRecordError(f"line 1: bad jacobian-log header: {exc}") from None
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
