"""objectslam benchmark: one workload per invocation, result as JSON.

    python3 bench/run.py --workload mc-paper --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. Workloads (see workloads.py) run in-process through
``objectslam.cli.main`` with BLAS pinned to one thread and ``--jobs 1``.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of layertrace.py plus ``trace.overhead_s``, the traced minus the untraced
median wall time. Every invocation's outputs are checked against reference
values recorded at the benchmark's commit (reference.json, written by
record_reference.py); a timing counts only when its checks passed.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. A result file with the environment record is
written under bench/out/. ``--smoke`` runs every workload at tiny sizes.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Seeds map onto this many recorded inputs, so every seed has a reference.
REFERENCE_SEEDS = 16
REFERENCE_RTOL = 1e-6
SETUP_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "updates_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program() -> None:
    """Import the checkout's package; exits with an error when the checkout
    has no sources."""
    package = SRC / "objectslam"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of "
                         "a source checkout")
    sys.path.insert(0, str(SRC))
    import objectslam
    if Path(objectslam.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {objectslam.__file__}, not {package}")


def import_seconds() -> float:
    """Time to import the package (numpy included) in a fresh interpreter,
    as a CLI user pays it on every command."""
    probe = ("import time; start = time.perf_counter(); import objectslam.cli; "
             "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


# ----------------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    """HEAD of the checkout read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "objectslam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = _blas_threads()
    if threads is not None and threads > 1:
        print(f"warning: BLAS reports {threads} threads despite "
              "OPENBLAS_NUM_THREADS=1", file=sys.stderr)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_reported": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


# ----------------------------------------------------------------------------
# running and checking one iteration
# ----------------------------------------------------------------------------

def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def invoke(commands, tracer=None) -> tuple:
    """Run CLI invocations back to back; returns (wall seconds, exit codes).

    A crash counts as exit code None and its traceback goes to stderr."""
    from objectslam.cli import main
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    for _, argv in commands:
        try:
            with contextlib.redirect_stdout(sink):
                rc = tracer.span("cli.main", main, argv) if tracer else main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            rc = None
        codes.append(rc)
    return time.perf_counter() - start, codes


def compare(got, want, path: str) -> list:
    """Differences between an output and its reference; floats within
    REFERENCE_RTOL, everything else exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != reference {sorted(want)}"]
        return [p for key in want for p in compare(got[key], want[key],
                                                     f"{path}.{key}")]
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)
            and (isinstance(got, float) or isinstance(want, float))):
        if math.isclose(got, want, rel_tol=REFERENCE_RTOL) \
                or (math.isnan(got) and math.isnan(want)):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} != reference {want!r}"]


def check(workload, label: str, rc, out_dir: Path, reference) -> list:
    """Problems with one invocation: exit code, output checks, reference.
    A reference of None skips the comparison (used while recording)."""
    if rc != 0:
        return [f"{label}: exit code {rc}"]
    try:
        got = workload.extract(label, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{label}: output unreadable: {exc}"]
    problems = [f"{label}: {p}" for p in workload.problems(label, got)]
    if reference is None:
        return problems
    if label not in reference:
        return problems + [f"{label}: no reference output recorded"]
    return problems + compare(got, reference[label], label)


def run_iteration(workload, prepared, out_dir: Path, reference,
                  traced: bool) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gc.collect()
    tracer = None
    if traced:
        from layertrace import Tracer
        tracer = Tracer()
        with tracer:
            wall, codes = invoke(prepared.commands, tracer)
    else:
        wall, codes = invoke(prepared.commands)
    problems = []
    failed = 0
    for (label, _), rc in zip(prepared.commands, codes):
        found = check(workload, label, rc, out_dir, reference)
        failed += bool(found)
        problems += found
    return {"traced": traced, "wall": wall, "attempted": len(codes),
            "failed": failed, "problems": problems,
            "layers": tracer.layer_metrics() if tracer else None,
            "absent": tracer.absent if tracer else []}


def set_up(workload, seed: int, scale: str, work: Path) -> tuple:
    """Import, generate the inputs and run a smoke-size warm-up,
    SETUP_REPEATS times; returns (prepared inputs, seconds of each
    repetition)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        (work / "inputs").mkdir(parents=True)
        (work / "warm-up").mkdir()
        prepared = workload.prepare(seed, scale, work / "inputs", work / "out")
        warm = workload.prepare(seed, "smoke", work / "warm-up",
                                work / "warm-up" / "out")
        (work / "warm-up" / "out").mkdir()
        invoke(warm.commands)
        samples.append(imported + time.perf_counter() - start)
    return prepared, samples


def measure(workload, prepared, out_dir: Path, reference, seconds: float,
            trace: bool) -> list:
    """Iterate until the next iteration would end after `seconds`; with
    tracing, alternate untraced and traced iterations (at least one each)."""
    iterations = []
    start = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        if len(iterations) >= (2 if trace else 1):
            same = [it["wall"] for it in iterations if it["traced"] == traced]
            estimate = same[-1] if same else iterations[-1]["wall"]
            if time.perf_counter() - start + estimate > seconds:
                break
        iterations.append(run_iteration(workload, prepared, out_dir,
                                        reference, traced))
    return iterations


# ----------------------------------------------------------------------------
# metrics and output
# ----------------------------------------------------------------------------

def end_to_end(iterations, prepared, setup_s: float) -> tuple:
    walls = [it["wall"] for it in iterations if not it["failed"]]
    if walls:
        wall = statistics.median(walls)
        rate = statistics.median(prepared.updates / w for w in walls)
    else:  # no timing counts when every iteration failed its checks
        wall = rate = 0.0
    metrics = {
        "wall_s": wall,
        "updates_per_s": rate,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            len(walls))


def per_layer(iterations) -> tuple:
    from layertrace import LAYER_METRICS
    ok = [it for it in iterations if not it["failed"]]
    traced = [it for it in ok if it["traced"]]
    untraced = [it["wall"] for it in ok if not it["traced"]]
    values = {}
    for name in LAYER_METRICS:
        samples = [it["layers"][name] for it in traced if name in it["layers"]]
        values[name] = statistics.median(samples) if samples else 0
    if traced and untraced:
        values["trace.overhead_s"] = (statistics.median(it["wall"] for it in traced)
                                      - statistics.median(untraced))
    return ({k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in values.items()},
            len(traced))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the benchmark itself")
    args = parser.parse_args(argv)

    pin_threads()
    load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    scale = "smoke" if args.smoke else "full"
    seed = input_seed(args.seed)
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = recorded.get(scale, {}).get(workload.name, {}).get(str(seed), {})
    env = environment()

    work = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    try:
        prepared, setup_samples = set_up(workload, seed, scale, work)
        setup_s = statistics.median(setup_samples)
        iterations = measure(workload, prepared, work / "out", reference,
                             args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, samples = per_layer(iterations)
    else:
        metrics, samples = end_to_end(iterations, prepared, setup_s)
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    problems = [p for it in iterations for p in it["problems"]]
    absent = sorted({a for it in iterations for a in it["absent"]})
    result = {"correct": failed == 0 and samples > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "scale": scale,
        "seed": args.seed, "input_seed": seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup_samples_s": setup_samples,
        "updates_per_iteration": prepared.updates,
        "iterations": [{k: it[k] for k in ("traced", "wall", "attempted",
                                           "failed", "problems")}
                       for it in iterations],
        "failed_frac": failed / attempted, "absent_targets": absent,
        "result": result,
    }
    suffix = "-smoke" if args.smoke else ""
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}{suffix}.json") \
        .write_text(json.dumps(record, indent=2) + "\n")

    for p in sorted(set(problems)):
        print(f"check failed ({problems.count(p)}x): {p}")
    for name in absent:
        print(f"absent wrap target: {name}")
    print(f"workload {workload.name} (input seed {seed}), {samples} timed "
          f"sample(s), {prepared.updates} updates per iteration")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
