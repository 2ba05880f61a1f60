import hashlib
import json

import numpy as np
import pytest

from objectslam import cli
from objectslam.cli import main
from objectslam.logio import read_measurement_log, write_measurement_log
from objectslam.simulator import SimConfig, generate_world, simulate_run
from objectslam.types import Odometry, PoseObservation


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
    capsys.readouterr()
    # each flag of the pair does nothing without the other
    for flags, named in ((["--synth-odom"], "--odom-sigma"),
                         (["--odom-sigma", *["0.1"] * 6], "--synth-odom")):
        rc = main(["replay", "--log", str(log_path), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--runs", "1", "--loops", "1", "--emit-jacobian-log"],
     "--emit-jacobian-log"),
    (["observability", "--jacobian-log", "jac.txt", "--save-log", "copy.txt"],
     "--save-log"),
], ids=["simulate-without-out", "observability-recheck"])
def test_flag_that_writes_nothing_exits_2(tmp_path, capsys, monkeypatch, argv, flag):
    main(["observability", "--num-features", "1", "--steps", "12", "--seed", "2",
          "--save-log", str(tmp_path / "jac.txt")])
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)

    def no_run(*args, **kwargs):
        raise AssertionError("a refused command started a run")

    monkeypatch.setattr(cli, "run_monte_carlo", no_run)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
    assert [p.name for p in tmp_path.iterdir()] == ["jac.txt"]


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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_full_rank_observability_report_is_strict_json(tmp_path, capsys):
    # F = H = I6 with no features: full rank, so the null space is empty
    eye = " ".join(map(str, np.eye(6).ravel().tolist()))
    path = tmp_path / "jac.txt"
    path.write_text('{"filter": "riekf", "mode": "estimated", "num_features": 0, '
                    f'"steps": 1}}\nF 0 6 6 {eye}\nH 0 6 6 {eye}\n')
    rc = main(["observability", "--jacobian-log", str(path),
               "--out", str(tmp_path / "report.json")])
    assert rc == 1
    for text in (capsys.readouterr().out, (tmp_path / "report.json").read_text()):
        report = json.loads(text, parse_constant=_reject_constant)
        assert report["null_dim"] == 0 and not report["passed"]
        assert report["containment_residual"] is None


def test_emit_jacobian_log(tmp_path, capsys):
    names = ["jacobians-ideal.txt", "jacobians-riekf.txt", "jacobians-stdekf.txt"]
    for jobs in ("1", "2"):
        rc = main(["simulate", "--filter", "all", "--runs", "1", "--loops", "1",
                   "--seed", "8", "--eval-stride", "40", "--emit-jacobian-log",
                   "--jobs", jobs, "--out", str(tmp_path / jobs)])
        assert rc == 0
        assert sorted(p.name for p in (tmp_path / jobs).glob("jacobians-*")) == names
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    for filt in ("riekf", "stdekf"):
        assert main(["observability", "--jacobian-log",
                     str(tmp_path / "1" / f"jacobians-{filt}.txt")]) == 0
    capsys.readouterr()
    main(["observability", "--jacobian-log", str(tmp_path / "1" / names[0])])
    report = json.loads(capsys.readouterr().out)
    # on noisy data the ideal filter keeps 3 of its 6 gauge directions (a
    # known defect of its linearization), so whether it passes is not asserted
    assert (report["filter"], report["mode"], report["expected_dim"]) == \
        ("ideal", "ideal", 6)
    # the anchor is run 0's true state at the window's first step, with the
    # features in the filter state's order (first sighting)
    cfg = SimConfig(loops=1, seed=8)
    world = generate_world(cfg, np.random.default_rng(8))
    run = simulate_run(cfg, world, np.random.default_rng(8))
    order = list(dict.fromkeys(z.feature_id for obs in run.observations for z in obs))
    header = json.loads((tmp_path / "1" / names[0]).read_text().splitlines()[0])
    truth = run.trace.states[header["start_step"]]
    assert header["anchor"] == {
        "robot_pos": truth.robot_pos.tolist(),
        "feature_pos": [truth.feature_pos[truth.index_of(fid)].tolist()
                        for fid in order]}


def test_noise_free_ideal_jacobian_log_passes(tmp_path):
    # features are first seen out of world order, so an anchor in world
    # order would misplace the ideal gauge basis's rotation columns
    out = tmp_path / "res"
    assert main(["simulate", "--filter", "ideal", "--runs", "1", "--loops", "1",
                 "--seed", "8", "--eval-stride", "40", "--zero-noise",
                 "--emit-jacobian-log", "--out", str(out)]) == 0
    assert main(["observability", "--jacobian-log",
                 str(out / "jacobians-ideal.txt")]) == 0


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
    # seeds and the rank tolerance: a traceback or a meaningless report
    ["simulate", "--seed", "-1"],
    ["observability", "--seed", "-1"],
    ["check-jacobians", "--seed", "-1"],
    ["observability", "--tol", "nan"],
    ["observability", "--tol", "inf"],
    ["observability", "--tol", "-1"],
])
def test_non_positive_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert any(m in err for m in ("is not a positive integer", "is not a positive finite",
                                  "is not a non-negative integer"))


@pytest.mark.parametrize("command, flag", [("replay", "--log"),
                                           ("observability", "--jacobian-log")])
def test_missing_input_file_is_one_line_exit_2(tmp_path, capsys, command, flag):
    path = tmp_path / "absent.txt"
    assert main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1


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
    landmarks = {}  # each landmark's latest truth record
    for step, rec in steps.items():
        r_r, p_r = rec.truth_robot
        landmarks.update(rec.truth_features)
        for z in rec.observations:
            r_f, p_f = landmarks[z.feature_id]
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



def _overflowing_log(path, case):
    """A valid two-feature log with one record whose finite values overflow
    the filter: a huge odometry translation at step 10, or a huge observed
    position in the first observation at step 40 or later, or at the last
    step."""
    cfg = SimConfig(num_features=2, loops=1, seed=3)
    world = generate_world(cfg, np.random.default_rng(3))
    run = simulate_run(cfg, world, np.random.default_rng(4))
    odometry, obs = list(run.odometry), [list(o) for o in run.observations]
    if case == "odometry":
        u = odometry[9]
        odometry[9] = Odometry(u.rot, np.array([1e308, 0.0, 0.0]), u.noise_cov)
    else:
        at = -1 if case == "observation" else next(
            step for step in range(40, len(obs)) if obs[step])
        z = obs[at][0]
        obs[at][0] = PoseObservation(z.feature_id, z.rot,
                                     np.array([1e308, -1e308, 1e308]), z.noise_cov)
    write_measurement_log(path, odometry, obs)


@pytest.mark.parametrize("case, steps, cause", [
    ("odometry", 10, "step 10: innovation covariance is not finite"),
    ("mid-observation", 40, "step 40: non-finite estimate"),
    ("observation", 80, "step 80: non-finite estimate"),
], ids=["odometry", "mid-observation", "observation"])
@pytest.mark.parametrize("filt", ["riekf", "stdekf"])
def test_overflowing_log_is_a_diverged_replay(tmp_path, capsys, filt, case,
                                              steps, cause):
    log_path = tmp_path / "overflow.jsonl"
    _overflowing_log(log_path, case)
    out = tmp_path / "out"
    rc = main(["replay", "--log", str(log_path), "--filter", filt,
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"replayed {steps} steps" in captured.out
    assert captured.err == f"filter diverged: {cause}\n"
    for name in ("trajectory.csv", "features.csv", "gates.csv"):
        assert (out / name).exists()
    # the run stops at the last finite estimate
    for name in ("trajectory.csv", "features.csv"):
        assert "nan" not in (out / name).read_text()


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
# rather than from the log (the report halves again when it began folding an
# R factor instead of stacking the matrix: the last bits of its singular
# values and residuals moved), on x86-64 with numpy 2.4 and OpenBLAS; another
# BLAS build may round differently. The stdekf ideal log was re-recorded
# when the filters became members of one batch: 20 of its exact zeros
# changed sign (its numbers are otherwise bit for bit the same).
OBSERVABILITY_DIGESTS = {
    ("riekf", "estimated"): ("e47c8abcb315e3f6", "414562299f011f6c"),
    ("riekf", "ideal"): ("52af138a529bdf82", "489ab5dee8a5dfd6"),
    ("stdekf", "estimated"): ("9cf0e8933c55d637", "c60d14cb1433674d"),
    ("stdekf", "ideal"): ("9f38d7b7844e1b38", "665997e7b71557a6"),
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


# sha256 (first 16 hex digits) of the Monte-Carlo outputs of
# `simulate --filter all --runs 2 --loops 1 --seed 11 --eval-stride 20`, the
# same with one worker process and with two, recorded while NEES samples were
# still per-block objects solved one at a time; same platform caveat as above.
SIMULATE_DIGESTS = {
    "metrics-riekf.csv": "6ccfb04831d57338",
    "metrics-stdekf.csv": "6e177fe843fbabda",
    "metrics-ideal.csv": "cdef122c9bfb3e88",
    "summary.txt": "6336eb8656d34a56",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_outputs_digests(tmp_path, jobs):
    out = tmp_path / "res"
    assert main(["simulate", "--filter", "all", "--runs", "2", "--loops", "1",
                 "--seed", "11", "--eval-stride", "20", "--jobs", jobs,
                 "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
               for name in SIMULATE_DIGESTS}
    assert digests == SIMULATE_DIGESTS


def test_one_run_starts_no_worker_pool(tmp_path, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-run experiment started a process pool")

    argv = ["simulate", "--filter", "all", "--runs", "1", "--loops", "1",
            "--seed", "11", "--eval-stride", "20"]
    assert main([*argv, "--jobs", "1", "--out", str(tmp_path / "one")]) == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main([*argv, "--jobs", "4", "--out", str(tmp_path / "four")]) == 0
    for name in ("summary.json", "summary.txt", "metrics-riekf.csv",
                 "metrics-stdekf.csv", "metrics-ideal.csv"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "four" / name).read_bytes()


# sha256 (first 16 hex digits) of the log `simulate --filter riekf --runs 2
# --loops 1 --seed 5 --export-log` writes: the log written when the CLI
# simulated run 0 a second time for the export, without its repeated
# landmark-truth lines and without the zero "cov" of its truth records; same
# platform caveat as above.
EXPORT_LOG_DIGEST = "53d8330bbe59a566"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_export_log_comes_from_the_monte_carlo_run(tmp_path, monkeypatch, jobs):
    from objectslam import cli, harness

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return simulate_run(*args, **kwargs)

    # the CLI once simulated the exported run itself
    for module in (cli, harness):
        monkeypatch.setattr(module, "simulate_run", spy, raising=False)
    log_path = tmp_path / "run.jsonl"
    assert main(["simulate", "--filter", "riekf", "--runs", "2", "--loops", "1",
                 "--seed", "5", "--jobs", jobs, "--out", str(tmp_path / "res"),
                 "--export-log", str(log_path)]) == 0
    digest = hashlib.sha256(log_path.read_bytes()).hexdigest()[:16]
    assert digest == EXPORT_LOG_DIGEST
    if jobs == "1":  # worker processes do not see the spy
        assert len(calls) == 2


@pytest.mark.parametrize("tol", ["2", "0.05"])
def test_observability_tol_that_nulls_every_direction_exits_2(tmp_path, capsys, tol):
    # 10 steps of one feature: a 60 x 12 matrix, so tol * 60 >= 1
    rc = main(["observability", "--steps", "10", "--tol", tol,
               "--out", str(tmp_path / "report.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: tol {tol} is too large for a 60 x 12 matrix")
    assert not (tmp_path / "report.json").exists()
