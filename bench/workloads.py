"""The four benchmark workloads, their inputs and their output checks.

Every workload runs in-process through ``objectslam.cli.main``. A workload
turns a seed into inputs written under one directory (``prepare``), names
the CLI invocations of one iteration with their outputs under another, and
reads back what each invocation wrote (``extract``) so the result can be
checked. The program receives only the generated inputs: CLI
arguments and, for replay, measurement logs.

Sizes come in two scales: ``full`` for measurement and ``smoke`` for the
warm-up and the smoke test.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from objectslam import (SimConfig, generate_trajectory, generate_world,
                        inject_outliers, simulate_run)
from objectslam.logio import ReplayStep, write_measurement_log

MC_FILTERS = ("riekf", "stdekf", "ideal")
REPLAY_ODOM_SIGMA = 0.1


@dataclass
class Prepared:
    """Inputs of one iteration: labelled CLI invocations and the number of
    observations the filters process in it (initialisations and gate
    rejections included)."""

    commands: list
    updates: int


def _visible_count(cfg: SimConfig, seed: int) -> int:
    """Observations over a run; visibility depends only on the true world
    and trajectory, which the CLI draws first from default_rng(seed)."""
    world = generate_world(cfg, np.random.default_rng(seed))
    return sum(len(v) for v in generate_trajectory(cfg, world).visible)


class MonteCarlo:
    """``simulate --filter all`` with one Monte-Carlo run; sizes are
    (features, loops of 80 steps)."""

    def __init__(self, name, full, smoke):
        self.name = name
        self.sizes = {"full": full, "smoke": smoke}

    def prepare(self, seed: int, scale: str, inputs: Path, out: Path) -> Prepared:
        k, loops = self.sizes[scale]
        argv = ["simulate", "--filter", "all", "--runs", "1",
                "--seed", str(seed), "--num-features", str(k),
                "--loops", str(loops), "--jobs", "1",
                "--out", str(out / "mc")]
        updates = len(MC_FILTERS) * _visible_count(
            SimConfig(num_features=k, loops=loops, seed=seed), seed)
        return Prepared([("mc", argv)], updates)

    def extract(self, label: str, out: Path) -> dict:
        summary = json.loads((out / label / "summary.json").read_text())
        return {name: {"diverged_runs": f["diverged_runs"], "final": f["final"]}
                for name, f in summary["filters"].items()}

    def problems(self, label: str, out: dict) -> list:
        return [f"{name}: {f['diverged_runs']} diverged run(s)"
                for name, f in out.items() if f["diverged_runs"]]


class Replay:
    """``replay --robust`` over a simulated log with corrupted observations,
    once as recorded (riekf, stdekf) and once with odometry stripped."""

    name = "replay"
    sizes = {"full": 12, "smoke": 1}  # loops of 80 steps, 6 features
    outlier_fraction = 0.05
    outlier_sigma = 20.0

    def prepare(self, seed: int, scale: str, inputs: Path, out: Path) -> Prepared:
        cfg = SimConfig(num_features=6, loops=self.sizes[scale], seed=seed)
        world = generate_world(cfg, np.random.default_rng(seed))
        run = simulate_run(cfg, world, np.random.default_rng(seed + 1))
        steps = {i: ReplayStep(observations=obs)
                 for i, obs in enumerate(run.observations)}
        corrupted, _ = inject_outliers(steps, self.outlier_fraction,
                                       self.outlier_sigma,
                                       np.random.default_rng(seed + 2))
        observations = [corrupted[i].observations for i in range(len(steps))]
        recorded = inputs / "recorded.jsonl"
        visual = inputs / "visual-only.jsonl"
        write_measurement_log(recorded, run.odometry, observations,
                              trace=run.trace)
        write_measurement_log(visual, [], observations, trace=run.trace)
        commands = []
        for label, log, extra in (
                ("riekf", recorded, ["--filter", "riekf"]),
                ("stdekf", recorded, ["--filter", "stdekf"]),
                ("synth-riekf", visual,
                 ["--filter", "riekf", "--synth-odom", "--odom-sigma",
                  *[str(REPLAY_ODOM_SIGMA)] * 6])):
            commands.append((label, ["replay", "--log", str(log), "--robust",
                                     *extra, "--out", str(out / label)]))
        updates = len(commands) * sum(len(o) for o in observations)
        return Prepared(commands, updates)

    def extract(self, label: str, out: Path) -> dict:
        with open(out / label / "gates.csv", newline="") as fh:
            accepted = [row["accepted"] == "1" for row in csv.DictReader(fh)]
        return {"metrics": json.loads((out / label / "metrics.json").read_text()),
                "rejected": accepted.count(False),
                "accepted": accepted.count(True)}

    def problems(self, label: str, out: dict) -> list:
        return []


class Observability:
    """Null-space checks in estimated (riekf) and ideal (stdekf) mode with
    ``--save-log``, then a re-check of each saved Jacobian log."""

    name = "observability"
    sizes = {"full": (6, 100), "smoke": (2, 20)}  # features, logged steps

    def prepare(self, seed: int, scale: str, inputs: Path, out: Path) -> Prepared:
        k, steps = self.sizes[scale]
        base = ["--num-features", str(k), "--steps", str(steps),
                "--seed", str(seed)]
        commands = []
        for label, filt, mode in (("riekf-estimated", "riekf", "estimated"),
                                  ("stdekf-ideal", "stdekf", "ideal")):
            commands.append((label, ["observability", "--filter", filt,
                                     "--mode", mode, *base,
                                     "--save-log", str(out / f"{label}.txt"),
                                     "--out", str(out / f"{label}.json")]))
        for label in ("riekf-estimated", "stdekf-ideal"):
            commands.append((f"{label}-recheck",
                             ["observability", "--jacobian-log",
                              str(out / f"{label}.txt"),
                              "--out", str(out / f"{label}-recheck.json")]))
        # mirrors observability_experiment: an always-in-range world long
        # enough to log `steps` steps, filtered once per direct invocation
        cfg = SimConfig(num_features=k, loops=max(1, math.ceil((steps + 5) / 80)),
                        seed=seed, placement="central")
        return Prepared(commands, 2 * _visible_count(cfg, seed))

    def extract(self, label: str, out: Path) -> dict:
        report = json.loads((out / f"{label}.json").read_text())
        return {key: report[key] for key in ("null_dim", "expected_dim", "passed")}

    def problems(self, label: str, out: dict) -> list:
        found = []
        if out["null_dim"] != out["expected_dim"]:
            found.append(f"null_dim {out['null_dim']} != expected_dim "
                         f"{out['expected_dim']}")
        if not out["passed"]:
            found.append("null-space check did not pass")
        return found


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    MonteCarlo("mc-paper", full=(6, 25), smoke=(2, 1)),
    MonteCarlo("mc-dense", full=(48, 1), smoke=(8, 1)),
    Replay(),
    Observability(),
)}
