import hashlib
import json

import numpy as np
import pytest

from objectslam.cli import main
from objectslam.logio import read_measurement_log, write_measurement_log
from objectslam.simulator import SimConfig, generate_world, simulate_run
from objectslam.types import PoseObservation


def test_check_jacobians_command(capsys):
    rc = main(["check-jacobians", "--seed", "0", "--num-states", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ri.G" in out and "std.H" in out
    assert "FAIL" not in out


def test_simulate_command(tmp_path, capsys):
    rc = main(["simulate", "--filter", "riekf", "--runs", "2", "--loops", "1",
               "--seed", "4", "--eval-stride", "40",
               "--out", str(tmp_path / "res")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "NEES" in out and "riekf" in out
    assert (tmp_path / "res" / "summary.json").exists()
    summary = json.loads((tmp_path / "res" / "summary.json").read_text())
    assert summary["runs"] == 2


def test_simulate_determinism(tmp_path):
    args = ["simulate", "--filter", "riekf", "--runs", "2", "--loops", "1",
            "--seed", "9", "--eval-stride", "40"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()
    assert (tmp_path / "a" / "metrics-riekf.csv").read_bytes() == \
        (tmp_path / "b" / "metrics-riekf.csv").read_bytes()


def test_simulate_export_then_replay(tmp_path, capsys):
    log_path = tmp_path / "run.jsonl"
    rc = main(["simulate", "--filter", "riekf", "--runs", "1", "--loops", "1",
               "--seed", "5", "--eval-stride", "40",
               "--export-log", str(log_path)])
    assert rc == 0
    assert log_path.exists()
    rc = main(["replay", "--log", str(log_path), "--filter", "riekf",
               "--robust", "--out", str(tmp_path / "replay")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replayed" in out
    assert (tmp_path / "replay" / "trajectory.csv").exists()
    assert (tmp_path / "replay" / "features.csv").exists()
    assert (tmp_path / "replay" / "gates.csv").exists()
    metrics = json.loads((tmp_path / "replay" / "metrics.json").read_text())
    assert metrics["robot_pos_rmse"] < 0.5


def test_replay_synth_odom_requires_sigma(tmp_path, capsys):
    log_path = tmp_path / "run.jsonl"
    main(["simulate", "--filter", "riekf", "--runs", "1", "--loops", "1",
          "--seed", "6", "--eval-stride", "40", "--export-log", str(log_path)])
    rc = main(["replay", "--log", str(log_path), "--synth-odom"])
    assert rc == 2
    assert "odom-sigma" in capsys.readouterr().err


def test_observability_command_riekf(tmp_path, capsys):
    rc = main(["observability", "--filter", "riekf", "--mode", "estimated",
               "--num-features", "1", "--steps", "12", "--seed", "2",
               "--out", str(tmp_path / "report.json")])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["null_dim"] == 6
    assert report["passed"]


def test_observability_command_std_modes(tmp_path, capsys):
    rc = main(["observability", "--filter", "stdekf", "--mode", "ideal",
               "--num-features", "1", "--steps", "15", "--seed", "3",
               "--save-log", str(tmp_path / "jac.txt")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["null_dim"] == 6
    # reload the saved log through the file path
    rc = main(["observability", "--jacobian-log", str(tmp_path / "jac.txt")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["null_dim"] == 6

    rc = main(["observability", "--filter", "stdekf", "--mode", "estimated",
               "--num-features", "1", "--steps", "15", "--seed", "3"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["null_dim"] == 3


def test_emit_jacobian_log(tmp_path):
    rc = main(["simulate", "--filter", "riekf", "--runs", "1", "--loops", "1",
               "--seed", "8", "--eval-stride", "40", "--emit-jacobian-log",
               "--out", str(tmp_path / "res")])
    assert rc == 0
    path = tmp_path / "res" / "jacobians-riekf.txt"
    assert path.exists()
    rc = main(["observability", "--jacobian-log", str(path)])
    assert rc == 0


def test_zero_noise_simulation(tmp_path, capsys):
    rc = main(["simulate", "--filter", "riekf", "--runs", "1", "--loops", "1",
               "--seed", "7", "--zero-noise", "--eval-stride", "40",
               "--out", str(tmp_path / "zn")])
    assert rc == 0
    summary = json.loads((tmp_path / "zn" / "summary.json").read_text())
    assert summary["filters"]["riekf"]["final"]["robot-pose"]["rmse"] < 1e-8


@pytest.mark.parametrize("argv", [
    ["observability", "--steps", "0"],
    ["observability", "--steps", "-2"],
    ["observability", "--num-features", "-1"],
    ["observability", "--num-features", "0"],
    ["simulate", "--loops", "0"],
    ["simulate", "--eval-stride", "0"],
    ["simulate", "--runs", "0"],
    ["simulate", "--num-features", "0"],
    ["simulate", "--jobs", "0"],
    ["check-jacobians", "--num-states", "0"],
    ["check-jacobians", "--num-states", "-3"],
    # noise stddevs: each once ended in a traceback or a NaN table
    ["simulate", "--sigma", "nan", "0.1", "0.1", "0.1", "0.1", "0.1"],
    ["simulate", "--sigma", "inf", "0.1", "0.1", "0.1", "0.1", "0.1"],
    ["simulate", "--sigma", "0", "0", "0", "0", "0", "0"],
    ["simulate", "--omega", "0", "0", "0", "0", "0", "0"],
    ["simulate", "--omega", "0.1", "0.1", "-0.1", "0.1", "0.1", "0.1"],
    ["replay", "--odom-sigma", "0.1", "0.1", "0.1", "0.1", "0.1", "nan"],
])
def test_non_positive_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "is not a positive integer" in err or "is not a positive finite" in err


def test_replay_without_odometry_exits_2_with_step_and_hint(tmp_path, capsys):
    cfg = SimConfig(loops=1, seed=3)
    world = generate_world(cfg, np.random.default_rng(3))
    run = simulate_run(cfg, world, np.random.default_rng(3))
    log_path = tmp_path / "visual.jsonl"
    write_measurement_log(log_path, [], run.observations)
    rc = main(["replay", "--log", str(log_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "step 1 has no odometry record" in err
    assert "--synth-odom --odom-sigma" in err
    assert not (tmp_path / "out").exists()


def test_zero_noise_export_is_noise_free(tmp_path):
    log_path = tmp_path / "run.jsonl"
    rc = main(["simulate", "--filter", "riekf", "--runs", "1", "--loops", "1",
               "--seed", "7", "--zero-noise", "--eval-stride", "40",
               "--export-log", str(log_path)])
    assert rc == 0
    steps = read_measurement_log(log_path)
    observed = 0
    for step, rec in steps.items():
        r_r, p_r = rec.truth_robot
        for z in rec.observations:
            r_f, p_f = rec.truth_features[z.feature_id]
            assert np.max(np.abs(z.rot - r_r.T @ r_f)) < 1e-12
            assert np.max(np.abs(z.pos - r_r.T @ (p_f - p_r))) < 1e-12
            observed += 1
        if step > 0:
            r_0, p_0 = steps[step - 1].truth_robot
            assert np.max(np.abs(rec.odometry.rot - r_0.T @ r_r)) < 1e-12
            assert np.max(np.abs(rec.odometry.pos - r_0.T @ (p_r - p_0))) < 1e-12
    assert observed > 100


def test_replay_divergence_names_its_cause(tmp_path, capsys):
    cfg = SimConfig(loops=1, seed=3)
    world = generate_world(cfg, np.random.default_rng(3))
    run = simulate_run(cfg, world, np.random.default_rng(3))
    obs = [list(o) for o in run.observations]
    assert obs[40] and all(any(z.feature_id == y.feature_id for o in obs[:40]
                                   for y in o) for z in obs[40])
    # condition 1e20: the innovation covariance cannot be inverted
    cov = np.diag([1e18] * 3 + [1e-2] * 3)
    obs[40] = [PoseObservation(z.feature_id, z.rot, z.pos, cov) for z in obs[40]]
    log_path = tmp_path / "bad.jsonl"
    write_measurement_log(log_path, run.odometry, obs)
    rc = main(["replay", "--log", str(log_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "replayed 40 steps" in captured.out
    assert "step 40" in captured.err
    assert "condition number" in captured.err


@pytest.mark.parametrize("flag, content, message", [
    ("--jacobian-log", "[1]", "header is not a JSON object"),
    ("--log", "[1]", "record is not a JSON object"),
    ("--log", '{"step": 0, "kind": "obs", "feature_id": 0, '
              '"position": [0, 0, 0], "cov": [0.01, 0, 0, 0, 0, 0, 0.01, 0, 0, 0, '
              '0, 0.01, 0, 0, 0, 0.01, 0, 0, 0.01, 0, 0.01]}', "missing 'rotation'"),
    ("--jacobian-log", '{"filter": "riekf", "mode": "estimated", '
                       '"num_features": 1, "steps": 0}', "no Jacobians"),
    ("--jacobian-log", '{"filter": "riekf", "mode": "estimated", '
                       '"num_features": 1, "steps": 2}', "step 0 of 2 has no F"),
    ("--jacobian-log", '{"filter": "riekf", "mode": "estimated", '
                       '"num_features": 0, "steps": 1}\nF 0 6 6 ' + " ".join(
                           ["1", "0", "0", "0", "0", "0", "0"] * 5 + ["1"]),
     "no step has an H"),
], ids=["jacobian-log-list-header", "measurement-log-list", "obs-without-rotation",
        "jacobian-log-no-steps", "jacobian-log-header-only", "jacobian-log-without-h"])
def test_malformed_log_is_one_line_exit_2(tmp_path, capsys, flag, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content + "\n")
    command = "replay" if flag == "--log" else "observability"
    assert main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and message in err
    assert err.count("\n") == 1


def test_anchorless_ideal_jacobian_log_is_rejected_at_read(tmp_path, capsys):
    path = tmp_path / "jac.txt"
    assert main(["observability", "--filter", "stdekf", "--mode", "ideal",
                 "--num-features", "1", "--steps", "10", "--seed", "3",
                 "--save-log", str(path)]) == 0
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    del header["anchor"]
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert main(["observability", "--jacobian-log", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and "anchor" in err
    assert err.count("\n") == 1


# sha256 (first 16 hex digits) of the report JSON and the saved Jacobian log of
# `observability --filter F --mode M --num-features 2 --steps 20 --seed 0`,
# recorded when the check took the true anchor state from the experiment
# rather than from the log, on x86-64 with numpy 2.4 and OpenBLAS; another
# BLAS build may round differently.
OBSERVABILITY_DIGESTS = {
    ("riekf", "estimated"): ("57240ccdbd6cbcc5", "414562299f011f6c"),
    ("riekf", "ideal"): ("8f9139ded4660106", "489ab5dee8a5dfd6"),
    ("stdekf", "estimated"): ("77f61308c0217901", "c60d14cb1433674d"),
    ("stdekf", "ideal"): ("f7f4013085a7cc74", "03069a1b92758e76"),
}


@pytest.mark.parametrize("filt, mode", sorted(OBSERVABILITY_DIGESTS))
def test_observability_outputs_digests(tmp_path, filt, mode):
    report, log = tmp_path / "report.json", tmp_path / "jac.txt"
    assert main(["observability", "--filter", filt, "--mode", mode,
                 "--num-features", "2", "--steps", "20", "--seed", "0",
                 "--save-log", str(log), "--out", str(report)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                    for p in (report, log))
    assert digests == OBSERVABILITY_DIGESTS[filt, mode]
