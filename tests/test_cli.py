import json

import numpy as np
import pytest

from objectslam.cli import main
from objectslam.logio import read_measurement_log, write_measurement_log
from objectslam.simulator import SimConfig, generate_world, simulate_run


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
])
def test_non_positive_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "is not a positive integer" in capsys.readouterr().err


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
