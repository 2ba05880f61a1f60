"""Smoke test of the benchmark: every workload at tiny sizes, both modes.

    python3 bench/test_smoke.py
    python3 -m pytest bench/test_smoke.py

Needs only the standard library and the package's own dependencies.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics that each workload's code must make nonzero.
REACHED = {
    "mc-paper": ("simulator.simulate_run.calls", "riekf.apply_update.bytes_computed",
                 "stdekf.std_apply_update.bytes_computed"),
    "mc-dense": ("simulator.simulate_run.calls", "riekf.apply_update.bytes_computed",
                 "stdekf.std_apply_update.bytes_computed"),
    "replay": ("gating.gate.calls", "logio.read_measurement_log.bytes",
               "harness.synthesize_constant_velocity_odometry.self_s"),
    "observability": ("observability.matrix_rows",
                      "observability.svd_factor_bytes_computed",
                      "logio.read_jacobian_log.self_s"),
}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "21", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_reports_every_metric():
    spec = _spec()
    assert set(REACHED) == {w["name"] for w in spec["workloads"]}
    for workload in REACHED:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (workload, trace)
            assert result["failed"] == 0 and result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in spec[section]}
            for m in spec[section]:
                assert metrics[m["name"]]["unit"] == m["unit"]
            if trace == 0:
                assert all(m["value"] > 0 for m in metrics.values()), metrics
            else:
                for name in REACHED[workload]:
                    assert metrics[name]["value"] > 0, (workload, name)


def test_fails_without_program_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in _spec()["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench(tmp, "--workload", "mc-paper", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_every_workload_reports_every_metric,
                 test_fails_without_program_sources):
        test()
        print(f"{test.__name__}: ok")
