import json
import re

import numpy as np
import pytest

from objectslam.cli import main
from objectslam.errors import MalformedRecordError
from objectslam.harness import observability_experiment
from objectslam.logio import (QUAT_NORM_TOL, _matrix_line, read_jacobian_log,
                              read_measurement_log, write_jacobian_log,
                              write_measurement_log)
from objectslam.simulator import SimConfig, generate_world, simulate_run


def make_run(tmp_path, loops=1, seed=7):
    cfg = SimConfig(loops=loops, seed=seed)
    world = generate_world(cfg, np.random.default_rng(seed))
    run = simulate_run(cfg, world, np.random.default_rng(seed))
    path = tmp_path / "run.jsonl"
    write_measurement_log(path, run.odometry, run.observations, trace=run.trace)
    return cfg, run, path


def test_measurement_log_roundtrip(tmp_path):
    cfg, run, path = make_run(tmp_path)
    steps = read_measurement_log(path)
    assert len(steps) == cfg.num_steps + 1
    for i in range(1, cfg.num_steps + 1):
        u = steps[i].odometry
        assert u is not None
        assert np.allclose(u.rot, run.odometry[i - 1].rot, atol=1e-14)
        assert np.allclose(u.pos, run.odometry[i - 1].pos, atol=1e-15)
        assert np.allclose(u.noise_cov, run.odometry[i - 1].noise_cov, atol=1e-15)
    for i, obs in enumerate(run.observations):
        parsed = steps[i].observations
        assert [z.feature_id for z in parsed] == [z.feature_id for z in obs]
        for za, zb in zip(parsed, obs):
            assert np.allclose(za.rot, zb.rot, atol=1e-14)
            assert np.allclose(za.pos, zb.pos, atol=1e-15)
    # truth records present for robot and all features
    assert steps[0].truth_robot is not None
    assert set(steps[0].truth_features) == set(run.trace.states[0].feature_ids)


def test_position_roundtrip_is_bit_exact(tmp_path):
    _, run, path = make_run(tmp_path)
    steps = read_measurement_log(path)
    assert np.array_equal(steps[1].odometry.pos, run.odometry[0].pos)


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"step": 0, "kind": "odom"}\nnot json\n')
    with pytest.raises(MalformedRecordError, match="line 1"):
        read_measurement_log(path)


def test_unknown_kind_rejected(tmp_path):
    rec = {"step": 0, "kind": "mystery", "rotation": [1, 0, 0, 0],
           "position": [0, 0, 0], "cov": [0.0] * 21}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(MalformedRecordError, match="unknown kind"):
        read_measurement_log(path)


def test_non_unit_quaternion_rejected(tmp_path):
    rec = {"step": 0, "kind": "obs", "feature_id": "a",
           "rotation": [1.1, 0, 0, 0], "position": [0, 0, 0], "cov": [0.0] * 21}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(MalformedRecordError, match="line 1.*quaternion"):
        read_measurement_log(path)


def test_obs_without_feature_id_rejected(tmp_path):
    rec = {"step": 0, "kind": "obs", "rotation": [1, 0, 0, 0],
           "position": [0, 0, 0], "cov": [0.0] * 21}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(MalformedRecordError, match="feature_id"):
        read_measurement_log(path)


def test_non_psd_covariance_rejected(tmp_path):
    cov = [0.0] * 21
    cov[0] = -1.0
    rec = {"step": 0, "kind": "odom", "rotation": [1, 0, 0, 0],
           "position": [0, 0, 0], "cov": cov}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(MalformedRecordError, match="PSD"):
        read_measurement_log(path)


def test_wrong_cov_length_rejected(tmp_path):
    rec = {"step": 0, "kind": "odom", "rotation": [1, 0, 0, 0],
           "position": [0, 0, 0], "cov": [0.0] * 20}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(MalformedRecordError, match="21"):
        read_measurement_log(path)


def test_jacobian_log_roundtrip(tmp_path):
    log, _ = observability_experiment("stdekf", 1, 8, seed=1, noisy=True)
    path = tmp_path / "jac.txt"
    write_jacobian_log(path, log)
    back = read_jacobian_log(path)
    assert back.filter_name == log.filter_name
    assert back.mode == log.mode
    assert back.num_features == log.num_features
    assert back.start_step == log.start_step
    assert len(back.F) == len(log.F)
    for f1, f2 in zip(back.F, log.F):
        assert np.array_equal(f1, f2)
    for h1, h2 in zip(back.H, log.H):
        if h2 is None:
            assert h1 is None
        else:
            assert np.array_equal(h1, h2)


def test_jacobian_log_anchor_roundtrip(tmp_path):
    log, anchor = observability_experiment("ideal", 1, 8, seed=2, noisy=False)
    path = tmp_path / "jac.txt"
    write_jacobian_log(path, log)
    back = read_jacobian_log(path)
    assert back.anchor is not None
    assert np.allclose(back.anchor["robot_pos"], anchor.robot_pos)


def test_jacobian_log_bad_header(tmp_path):
    path = tmp_path / "jac.txt"
    path.write_text("garbage\n")
    with pytest.raises(MalformedRecordError, match="header"):
        read_jacobian_log(path)


def _write_records(tmp_path, *records):
    path = tmp_path / "log.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _obs(**fields):
    rec = {"step": 1, "kind": "obs", "feature_id": "a", "rotation": [1, 0, 0, 0],
           "position": [0, 0, 0], "cov": [0.0] * 21}
    rec.update(fields)
    return rec


@pytest.mark.parametrize("field, value", [
    ("position", [0.0, float("nan"), 0.0]),
    ("position", [float("inf"), 0.0, 0.0]),
    ("rotation", [float("nan"), 0.0, 0.0, 0.0]),
    ("cov", [float("inf")] + [0.0] * 20),
    ("cov", [0.0] * 20 + [float("nan")]),
])
def test_non_finite_values_rejected(tmp_path, field, value):
    path = _write_records(tmp_path, _obs(), _obs(**{field: value}))
    with pytest.raises(MalformedRecordError, match=f"line 2: {field}.*non-finite"):
        read_measurement_log(path)


@pytest.mark.parametrize("step", [-3, 1.7, 2.0, True, "4", None])
def test_bad_steps_rejected(tmp_path, step):
    path = _write_records(tmp_path, _obs(), _obs(step=step))
    with pytest.raises(MalformedRecordError, match="line 2: step"):
        read_measurement_log(path)


@pytest.mark.parametrize("kind", ["obs", "truth"])
@pytest.mark.parametrize("fid", [["a", 1], {"a": 1}])
def test_unhashable_feature_id_rejected(tmp_path, kind, fid):
    path = _write_records(tmp_path, _obs(kind=kind, feature_id=fid))
    with pytest.raises(MalformedRecordError, match="line 1: feature_id.*hashable"):
        read_measurement_log(path)


def test_quaternion_within_tolerance_normalized(tmp_path):
    quat = [0.7071, 0.0, 0.0, 0.7071]  # norm 0.99999
    steps = read_measurement_log(_write_records(tmp_path, _obs(rotation=quat)))
    rot = steps[1].observations[0].rot
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-14)
    assert np.isclose(np.linalg.det(rot), 1.0, atol=1e-14)
    assert np.allclose(rot, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-14)


def test_quaternion_beyond_tolerance_rejected(tmp_path):
    n = 1.0 + 2 * QUAT_NORM_TOL
    path = _write_records(tmp_path, _obs(rotation=[n, 0.0, 0.0, 0.0]))
    with pytest.raises(MalformedRecordError, match="line 1: quaternion"):
        read_measurement_log(path)


def test_fuzz_every_line_parses_finite_or_names_its_line(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    floats = st.one_of(st.floats(-10.0, 10.0),
                       st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats,
                        st.just(10**400), st.text(max_size=3))
    values = st.one_of(scalars, st.lists(scalars, max_size=4),
                       st.dictionaries(st.text(max_size=2), scalars, max_size=2))
    unit_quat = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 0.1).map(
        lambda q: [v / np.linalg.norm(q) for v in q])
    valid = st.fixed_dictionaries({
        "step": st.integers(0, 5),
        "kind": st.sampled_from(["odom", "obs", "truth"]),
        "feature_id": st.one_of(st.text(max_size=3), st.integers(0, 3)),
        "rotation": unit_quat,
        "position": st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
        "cov": st.just([1e-4] * 21)})
    sizes = {"rotation": 4, "position": 3, "cov": 21}

    @st.composite
    def line(draw):
        # mostly a valid record with at most one field dropped, replaced by
        # any JSON value or, for vectors, by a right-sized vector that may
        # hold non-finite entries (one_of would flatten these choices and
        # leave them rare); sometimes any JSON value instead of a record
        if draw(st.integers(0, 9)) == 0:
            return draw(values)
        rec = draw(valid)
        key = draw(st.sampled_from([None, "step", "kind", "feature_id", *sizes]))
        how = draw(st.sampled_from(["drop", "any", "sized"]))
        if key is None:
            pass
        elif how == "drop":
            del rec[key]
        elif how == "sized" and key in sizes:
            rec[key] = draw(st.lists(floats, min_size=sizes[key],
                                     max_size=sizes[key]))
        else:
            rec[key] = draw(values)
        return rec

    @settings(max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(line(), min_size=1, max_size=4))
    def check(recs):
        path = tmp_path / "fuzz.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        _assert_parses_finite_or_names_line(path)

    check()


def _assert_parses_finite_or_names_line(path):
    try:
        steps = read_measurement_log(path)
    except MalformedRecordError as exc:
        assert re.match(r"line [1-9][0-9]*: ", str(exc)), str(exc)
        return
    for step, entry in steps.items():
        assert type(step) is int and step >= 0
        parsed = [(z.rot, z.pos, z.noise_cov) for z in entry.observations]
        parsed += [(u.rot, u.pos, u.noise_cov) for u in [entry.odometry] if u]
        parsed += list(entry.truth_features.values())
        parsed += [entry.truth_robot] if entry.truth_robot else []
        for rot, *rest in parsed:
            assert all(np.all(np.isfinite(a)) for a in (rot, *rest))
            assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-9)
        for fid in entry.truth_features:
            hash(fid)
        assert step > 0 or entry.odometry is None


def test_fuzz_raw_bytes_parse_finite_or_name_their_line(tmp_path):
    # valid record lines, their bytes corrupted in place, and arbitrary byte
    # strings (not necessarily UTF-8) mixed in one file
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    valid = st.builds(
        lambda step, kind: json.dumps(_obs(step=step, kind=kind)).encode(),
        st.integers(0, 3), st.sampled_from(["odom", "obs", "truth"]))

    @st.composite
    def corrupted(draw):
        raw = bytearray(draw(valid))
        for _ in range(draw(st.integers(1, 3))):
            raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
        return bytes(raw)

    lines = st.one_of(valid, corrupted(), st.binary(max_size=40))

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(lines, min_size=1, max_size=5))
    def check(raw_lines):
        path = tmp_path / "fuzz.jsonl"
        path.write_bytes(b"\n".join(raw_lines) + b"\n")
        _assert_parses_finite_or_names_line(path)

    check()


def test_non_utf8_byte_names_its_line(tmp_path):
    path = tmp_path / "log.jsonl"
    good = json.dumps(_obs()).encode()
    path.write_bytes(good + b"\n" + good.replace(b'"a"', b'"\xff"') + b"\n")
    with pytest.raises(MalformedRecordError, match="line 2: .*UTF-8"):
        read_measurement_log(path)


@pytest.mark.parametrize("field, value", [
    ("position", ["1", "2", "3"]),
    ("position", [True, 0.0, 0.0]),
    ("rotation", [1, 0, 0, "0"]),
    ("cov", [False] * 21),
    ("cov", [None] + [0.0] * 20),
    ("position", {"x": 1, "y": 2, "z": 3}),
    ("position", "123"),
])
def test_non_number_entries_rejected(tmp_path, field, value):
    path = _write_records(tmp_path, _obs(), _obs(**{field: value}))
    with pytest.raises(MalformedRecordError, match=f"line 2: {field}"):
        read_measurement_log(path)


def test_integer_entries_accepted(tmp_path):
    steps = read_measurement_log(_write_records(tmp_path, _obs(position=[1, 2, 3])))
    pos = steps[1].observations[0].pos
    assert pos.dtype == float and np.array_equal(pos, [1.0, 2.0, 3.0])


def test_second_odometry_at_one_step_rejected(tmp_path):
    odom = _obs(kind="odom", step=2)
    path = _write_records(tmp_path, odom, _obs(step=2), odom)
    with pytest.raises(MalformedRecordError, match="line 3: second odometry.*step 2"):
        read_measurement_log(path)


def test_odometry_at_step_zero_rejected(tmp_path):
    path = _write_records(tmp_path, _obs(step=0), _obs(kind="odom", step=0))
    with pytest.raises(MalformedRecordError, match="line 2: odometry record at step 0"):
        read_measurement_log(path)


def test_deeply_nested_line_names_its_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(_obs()) + "\n" + "[" * 100000 + "\n")
    with pytest.raises(MalformedRecordError, match="line 2: "):
        read_measurement_log(path)


def _jacobian_log_lines(tmp_path):
    log, _ = observability_experiment("riekf", 1, 4, seed=1, noisy=True)
    path = tmp_path / "jac.txt"
    write_jacobian_log(path, log)
    return path, path.read_text().splitlines()


def _edit_line(path, lines, index, fn):
    lines = list(lines)
    lines[index] = fn(lines[index])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize("index", [1, 2])  # the first F, then the first H
def test_jacobian_log_non_finite_entry_rejected(tmp_path, bad, index):
    path, lines = _jacobian_log_lines(tmp_path)
    tag = lines[index].split()[0]
    _edit_line(path, lines, index, lambda s: s.rsplit(" ", 1)[0] + " " + bad)
    with pytest.raises(MalformedRecordError,
                       match=f"line {index + 1}: {tag} has non-finite"):
        read_jacobian_log(path)


@pytest.mark.parametrize("header", ["[1]", "1", "null", '"text"',
                                    '{"filter": "riekf", "mode": "estimated", '
                                    '"num_features": "1", "steps": 1}',
                                    '{"filter": "riekf", "mode": "estimated", '
                                    '"num_features": 1, "steps": 1, '
                                    '"start_step": null}',
                                    '{"filter": "riekf", "mode": "estimated", '
                                    '"num_features": 1, "steps": 2.5}',
                                    '{"filter": "riekf", "mode": "estimated", '
                                    '"num_features": 1, "steps": 1, '
                                    '"start_step": "3"}'])
def test_jacobian_log_header_not_a_valid_object_rejected(tmp_path, header):
    path = tmp_path / "jac.txt"
    path.write_text(header + "\n")
    with pytest.raises(MalformedRecordError, match="line 1: bad jacobian-log header"):
        read_jacobian_log(path)


def _ideal_log_lines(tmp_path, num_features=2):
    log, _ = observability_experiment("ideal", num_features, 4, seed=2, noisy=False)
    path = tmp_path / "jac.txt"
    write_jacobian_log(path, log)
    return path, path.read_text().splitlines()


def _edit_header(path, lines, **changes):
    header = json.loads(lines[0])
    header.update(changes)
    _edit_line(path, lines, 0, lambda _: json.dumps(header))


@pytest.mark.parametrize("changes, message", [
    ({"anchor": "x"}, "anchor 'x' is not a JSON object"),
    ({"anchor": [1, 2, 3]}, "anchor .* is not a JSON object"),
    ({"anchor": {"feature_pos": [[0, 0, 0]] * 2}}, "anchor robot_pos needs 3"),
    ({"anchor": {"robot_pos": [0, 0], "feature_pos": [[0, 0, 0]] * 2}},
     "anchor robot_pos needs 3"),
    ({"anchor": {"robot_pos": [0, "1", 0], "feature_pos": [[0, 0, 0]] * 2}},
     "anchor robot_pos entries must be JSON numbers"),
    ({"anchor": {"robot_pos": [0, float("nan"), 0], "feature_pos": [[0, 0, 0]] * 2}},
     "anchor robot_pos has non-finite"),
    ({"anchor": {"robot_pos": [0, 0, 0]}}, "anchor feature_pos needs 2 rows"),
    ({"anchor": {"robot_pos": [0, 0, 0], "feature_pos": [[0, 0, 0]]}},
     "anchor feature_pos needs 2 rows"),
    ({"anchor": {"robot_pos": [0, 0, 0], "feature_pos": "xy"}},
     "anchor feature_pos needs 2 rows"),
    ({"anchor": {"robot_pos": [0, 0, 0], "feature_pos": [[0, 0, 0], [0, 0]]}},
     "anchor feature_pos row needs 3"),
    ({"anchor": {"robot_pos": [0, 0, 0],
                 "feature_pos": [[0, 0, 0], [0, float("inf"), 0]]}},
     "anchor feature_pos row has non-finite"),
    ({"filter": "ekf"}, "bad jacobian-log header: filter 'ekf'"),
    ({"filter": 3}, "bad jacobian-log header: filter 3"),
    ({"mode": "noisy"}, "bad jacobian-log header: mode 'noisy'"),
    ({"mode": None}, "bad jacobian-log header: mode None"),
])
def test_jacobian_log_header_tags_and_anchor_validated(tmp_path, changes, message):
    path, lines = _ideal_log_lines(tmp_path)
    _edit_header(path, lines, **changes)
    with pytest.raises(MalformedRecordError, match=f"^line 1: .*{message}"):
        read_jacobian_log(path)


def test_jacobian_log_anchor_string_fails_at_read_not_in_check(tmp_path, capsys):
    # a bad anchor used to load and then end in a TypeError in the ideal check
    path, lines = _ideal_log_lines(tmp_path)
    _edit_header(path, lines, anchor="x")
    assert main(["observability", "--jacobian-log", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


def test_jacobian_log_valid_anchor_and_tags_still_load(tmp_path):
    path, lines = _ideal_log_lines(tmp_path)
    _edit_header(path, lines, anchor={"robot_pos": [0, 0.5, 1],
                                      "feature_pos": [[1, 2, 3], [4.0, 5, 6]]})
    log = read_jacobian_log(path)
    assert log.filter_name == "ideal" and log.mode == "ideal"
    assert log.anchor["feature_pos"][1] == [4.0, 5, 6]
    _edit_header(path, lines, anchor=None, filter="stdekf", mode="estimated")
    log = read_jacobian_log(path)
    assert log.anchor is None and log.filter_name == "stdekf"


def _reshape_line(line, rows, cols):
    tag, step, _, _, *vals = line.split()
    vals = (vals * 2)[:rows * cols] if rows * cols > 0 else []
    return " ".join([tag, step, str(rows), str(cols), *vals])


@pytest.mark.parametrize("index, rows, cols", [
    (1, 11, 11),   # F must be d x d
    (1, 6, 12),
    (2, 6, 11),    # H must have d columns
    (2, 0, 12),    # and at least one row
    (2, -1, 12),
])
def test_jacobian_log_wrong_shape_names_its_line(tmp_path, index, rows, cols):
    path, lines = _jacobian_log_lines(tmp_path)
    _edit_line(path, lines, index, lambda s: _reshape_line(s, rows, cols))
    with pytest.raises(MalformedRecordError, match=f"line {index + 1}: .*shape"):
        read_jacobian_log(path)


def test_jacobian_log_duplicate_matrix_rejected(tmp_path):
    path, lines = _jacobian_log_lines(tmp_path)
    path.write_text("\n".join(lines[:2] + lines[1:]) + "\n")
    with pytest.raises(MalformedRecordError, match="line 3: second F for step 0"):
        read_jacobian_log(path)


@pytest.mark.parametrize("tag, step", [("H", 7), ("F", -3), ("F", 1)])
def test_jacobian_log_step_outside_header_range_names_its_line(tmp_path, tag, step):
    # such lines were once dropped silently and the rest of the log checked
    path, lines = _jacobian_log_lines(tmp_path)
    header = json.loads(lines[0])
    header["steps"] = 1
    kept = [json.dumps(header)] + [line for line in lines[1:]
                                   if line.split()[1] == "0"]
    extra = kept[1].split()
    extra[0:2] = [tag, str(step)]
    path.write_text("\n".join(kept + [" ".join(extra)]) + "\n")
    with pytest.raises(MalformedRecordError,
                       match=rf"^line {len(kept) + 1}: {tag} step {step} is outside "
                             r"the header's 0\.\.0"):
        read_jacobian_log(path)


def test_jacobian_log_missing_steps_name_the_header_line(tmp_path):
    path, lines = _jacobian_log_lines(tmp_path)
    header = json.loads(lines[0])
    path.write_text(lines[0] + "\n")
    with pytest.raises(MalformedRecordError,
                       match=f"^line 1: step 0 of {header['steps']} has no F"):
        read_jacobian_log(path)
    path.write_text("\n".join(l for l in lines if not l.startswith("H")) + "\n")
    with pytest.raises(MalformedRecordError, match="^line 1: no step has an H"):
        read_jacobian_log(path)
    header["steps"] = 0
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(MalformedRecordError, match="^line 1: .*steps 0"):
        read_jacobian_log(path)


def test_jacobian_log_non_utf8_byte_names_its_line(tmp_path):
    path, lines = _jacobian_log_lines(tmp_path)
    raw = path.read_bytes().split(b"\n")
    raw[2] = raw[2] + b" \xfe"
    path.write_bytes(b"\n".join(raw))
    with pytest.raises(MalformedRecordError, match="line 3: .*UTF-8"):
        read_jacobian_log(path)


def _reference_matrix_line(tag, k, m):
    # the Jacobian-log line format: repr of each float, row-major
    vals = " ".join(repr(float(v)) for v in np.asarray(m).ravel())
    return f"{tag} {k} {m.shape[0]} {m.shape[1]} {vals}\n"


def test_saved_jacobian_log_bytes(tmp_path):
    path = tmp_path / "jac.txt"
    assert main(["observability", "--filter", "stdekf", "--mode", "ideal",
                 "--num-features", "2", "--steps", "6", "--seed", "3",
                 "--save-log", str(path),
                 "--out", str(tmp_path / "report.json")]) == 0
    log = read_jacobian_log(path)
    lines = path.read_text().splitlines(keepends=True)
    expected = [lines[0]]
    for k, (f, h) in enumerate(zip(log.F, log.H)):
        expected.append(_reference_matrix_line("F", k, f))
        if h is not None:
            expected.append(_reference_matrix_line("H", k, h))
    assert lines == expected


def test_matrix_line_formats_edge_values_like_repr():
    m = np.array([[-0.0, 5e-324, 1e16, 0.1],
                  [-1.5e-300, 123456789.0, 1.0 / 3.0, 2.0 ** 60]])
    assert _matrix_line("H", 4, m) == _reference_matrix_line("H", 4, m)
    ints = np.arange(6).reshape(2, 3)
    assert _matrix_line("F", 0, ints) == _reference_matrix_line("F", 0, ints)
