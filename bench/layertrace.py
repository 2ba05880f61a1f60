"""Per-layer spans recorded from outside the program.

The layers are the ``objectslam`` modules. A traced iteration replaces each
target function with a wrapper that records a span (name, start, end, parent)
in memory, then restores the originals. Modules import names with
``from .x import y``, so a wrapper is installed in every ``objectslam``
namespace that holds the original function object, not only in the module
that defines it.

Self time is a span's duration minus the time its child spans cover. Counts
marked "computed" are derived from argument shapes, not measured.
"""

import os
import sys
import time
from collections import defaultdict

import numpy as np

# Every per-layer metric the traced run reports, with its unit. A layer the
# workload never reaches reports 0.
LAYER_METRICS = {
    "simulator.simulate_run.self_s": "s",
    "simulator.simulate_run.calls": "count",
    "riekf.propagate.self_s": "s",
    "riekf.propagate.calls": "count",
    "riekf.propagation_jacobians.calls": "count",
    "riekf.innovation.self_s": "s",
    "riekf.apply_update.self_s": "s",
    "riekf.apply_update.us_p50": "us",
    "riekf.apply_update.us_p99": "us",
    "riekf.apply_update.bytes_computed": "B",
    "riekf.initialize_feature.self_s": "s",
    "stdekf.std_propagate.self_s": "s",
    "stdekf.std_innovation.self_s": "s",
    "stdekf.std_apply_update.self_s": "s",
    "stdekf.std_apply_update.us_p50": "us",
    "stdekf.std_apply_update.us_p99": "us",
    "stdekf.std_apply_update.bytes_computed": "B",
    "stdekf.std_initialize_feature.self_s": "s",
    "stdekf.apply_std_error.self_s": "s",
    "group.group_exp.self_s": "s",
    "group.group_compose.self_s": "s",
    "gating.gate.calls": "count",
    "gating.gate.self_s": "s",
    "gating.accept_ratio": "ratio",
    "metrics.collect_samples.self_s": "s",
    "metrics.nees.self_s": "s",
    "logio.read_measurement_log.self_s": "s",
    "logio.read_measurement_log.bytes": "B",
    "logio.read_measurement_log.lines_per_s": "1/s",
    "logio.write_jacobian_log.self_s": "s",
    "logio.read_jacobian_log.self_s": "s",
    "harness.run_filter.self_s": "s",
    "harness.replay_log.self_s": "s",
    "harness.run_monte_carlo.self_s": "s",
    "harness.synthesize_constant_velocity_odometry.self_s": "s",
    "harness.synthesize_constant_velocity_odometry.us_p99": "us",
    "observability.build_observability_matrix.self_s": "s",
    "observability.null_space.self_s": "s",
    "observability.matrix_rows": "count",
    "observability.svd_factor_bytes_computed": "B",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# The wrapped functions are the ones the metrics name ("module.function.x");
# cli.main is spanned by the caller. lie/types primitives and the group
# block-index helpers stay unwrapped: they run many times per update, so a
# span on each would cost more than the work it measures.
TARGETS = sorted({m.rsplit(".", 1)[0] for m in LAYER_METRICS
                  if m.count(".") == 2 and not m.startswith("cli.")})


def cov_update_bytes(d: int) -> int:
    """Computed bytes one dense covariance update moves at state dimension d.

    Six passes over a d x d float64 matrix (read P, write K (H P), write the
    difference, read it and its transpose and write the result in
    symmetrize), plus the 6 x d blocks H P and K read once each.
    """
    return 8 * (6 * d * d + 12 * d)


def svd_factor_bytes(shape: tuple) -> int:
    """Computed bytes of the factors a full SVD of an m x n matrix returns."""
    m, n = shape
    return 8 * (m * m + min(m, n) + n * n)


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# Each counter runs after its function returns, outside the span, and adds
# to flat counts keyed by metric name.
def _count_update(counts, name, args, kwargs, result):
    state = _first(args, kwargs)
    counts[f"{name}.bytes_computed"] += cov_update_bytes(state.cov.shape[0])


def _count_gate(counts, name, args, kwargs, result):
    counts["gating.accepted"] += int(result.accepted)


def _count_matrix(counts, name, args, kwargs, result):
    counts["observability.matrix_rows"] += result.shape[0]


def _count_null_space(counts, name, args, kwargs, result):
    counts["observability.svd_factor_bytes_computed"] += \
        svd_factor_bytes(_first(args, kwargs).shape)


COUNTERS = {
    "riekf.apply_update": _count_update,
    "stdekf.std_apply_update": _count_update,
    "gating.gate": _count_gate,
    "observability.build_observability_matrix": _count_matrix,
    "observability.null_space": _count_null_space,
}


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


class Tracer:
    """Spans of one traced iteration, kept in memory until it ends."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counts = defaultdict(int)
        self.log_paths = []  # sized after the iteration, outside any span
        self._patched = []
        self.absent = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, name, args, kwargs, result)
            elif name == "logio.read_measurement_log":
                self.log_paths.append(_first(args, kwargs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of its own (used for the CLI entry point)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "objectslam"
                                         or n.startswith("objectslam."))]
        for name in TARGETS:
            module_name, fn_name = name.split(".")
            module = sys.modules.get(f"objectslam.{module_name}")
            original = getattr(module, fn_name, None) if module else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self) -> dict:
        """Aggregate the spans into the LAYER_METRICS values (without
        trace.overhead_s, which needs an untraced run)."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents, dtype=np.int64)
        names = np.asarray(self.names, dtype=object)
        duration = ends - starts
        child = np.zeros(len(duration))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        own = duration - child

        self_s, calls, durations = {}, {}, {}
        for name in set(self.names):
            mask = names == name
            self_s[name] = float(own[mask].sum())
            calls[name] = int(mask.sum())
            durations[name] = duration[mask]

        def pct(name, q):
            d = durations.get(name)
            return float(np.percentile(d, q) * 1e6) if d is not None else 0.0

        out = dict(self.counts)
        for metric in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif field == "calls":
                out[metric] = calls.get(layer, 0)
            elif field == "us_p50":
                out[metric] = pct(layer, 50)
            elif field == "us_p99":
                out[metric] = pct(layer, 99)
        gate_calls = calls.get("gating.gate", 0)
        out["gating.accept_ratio"] = (out.pop("gating.accepted", 0) / gate_calls
                                      if gate_calls else 0.0)
        read_s = self_s.get("logio.read_measurement_log", 0.0)
        lines = sum(_count_lines(p) for p in self.log_paths)
        out["logio.read_measurement_log.bytes"] = sum(
            os.path.getsize(p) for p in self.log_paths)
        out["logio.read_measurement_log.lines_per_s"] = (lines / read_s
                                                         if read_s else 0.0)
        return {metric: out.get(metric, 0) for metric in LAYER_METRICS}
