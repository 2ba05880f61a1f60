"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Runs one iteration of every workload, at both scales, for each of the
REFERENCE_SEEDS input seeds and writes what each invocation produced to
bench/reference.json. Run it only at a commit whose outputs are known to be
correct (the tier-1 tests pass); a later change that alters these outputs
fails the benchmark's checks.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.pin_threads()
    run.load_program()
    from workloads import WORKLOADS
    reference = {"rtol": run.REFERENCE_RTOL, "input_seeds": run.REFERENCE_SEEDS}
    work = run.OUT_DIR / "work-reference"
    try:
        for scale in ("smoke", "full"):
            for name, workload in WORKLOADS.items():
                per_seed = reference.setdefault(scale, {}).setdefault(name, {})
                for seed in range(run.REFERENCE_SEEDS):
                    shutil.rmtree(work, ignore_errors=True)
                    (work / "inputs").mkdir(parents=True)
                    out = work / "out"
                    out.mkdir()
                    prepared = workload.prepare(seed, scale, work / "inputs", out)
                    _, codes = run.invoke(prepared.commands)
                    outputs = {}
                    for (label, _), rc in zip(prepared.commands, codes):
                        problems = run.check(workload, label, rc, out, None)
                        if problems:
                            print(f"{scale} {name} seed {seed}: {problems}",
                                  file=sys.stderr)
                            return 1
                        outputs[label] = workload.extract(label, out)
                    per_seed[str(seed)] = outputs
                    print(f"{scale} {name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
