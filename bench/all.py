"""Run every workload in BENCHMARK.json, untraced then traced, and print
every metric with its unit.

    python3 bench/all.py [--seed N] [--seconds S] [--smoke]

Each run is a separate process (bench/run.py), so peak memory is per
workload. Exits nonzero if any run fails its output checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    all_correct = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload['name']} trace={trace}: {workload['why']}")
            print("\n".join(lines[:-1]), flush=True)
            try:
                all_correct &= json.loads(lines[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                print(proc.stderr, file=sys.stderr)
                all_correct = False
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
