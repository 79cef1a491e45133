"""Spans around the calls into each schrodmix layer, installed from outside
the package.

Each wrapped function is replaced under the name its caller looks it up by
(``schrodmix.mixing.markov_step_batch`` is the binding ``evolve_ensemble``
calls), so the program's code is untouched.  A span records its name, the
span that was open when it started (one stack per thread), its operation
index, start and end, the FFT calls made while it was the innermost open
span, and a few counts taken from the call's arguments and result.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
import threading
import time

import numpy as np

# (module, attribute) bindings to wrap.  A function imported into several
# modules is wrapped at each binding its callers use.
WRAPPED = (
    ("config", "load_config"),
    ("config", "run_experiment"),
    ("config", "mixing_experiment"),
    ("config", "synchronous_coupling_experiment"),
    ("config", "solve_nls"),
    ("mixing", "evolve_ensemble"),
    ("mixing", "dual_lipschitz_estimate"),
    ("mixing", "sample_noise_paths"),
    ("mixing", "markov_step_batch"),
    ("mixing", "solve_nls"),
    ("mixing", "build_control_basis_map"),
    ("mixing", "stabilizing_shift"),
    ("mixing", "equivalent_norm"),
    ("control", "control_response_matrix"),
    ("control", "solve_linearized"),
    ("control", "compact_T_apply"),
    ("control", "regularized_pinv_solve"),
    ("control", "equivalent_norm"),
    ("control", "linear_group"),
    ("control", "markov_step"),
    ("control", "solve_nls"),
    ("dynamics", "energy_series"),
    ("dynamics", "synth"),
    ("store", "write_trajectory_csv"),
    ("store", "write_trajectory_bin"),
    ("store", "read_trajectory_csv"),
    ("store", "read_trajectory_bin"),
    ("store", "write_json_report"),
    ("store", "write_manifest"),
    ("store", "file_digest"),
)

STEPPING = ("dynamics.solve_nls", "dynamics.markov_step", "dynamics.markov_step_batch")


def _size_of(arg: str):
    return lambda a, r: {"bytes": os.path.getsize(a[arg])}


# span name -> counts taken from the bound arguments and the result
_COUNTS = {
    "noise.sample_noise_paths": lambda a, r: {"paths": len(r)},
    "dynamics.markov_step_batch": lambda a, r: {
        "rows": len(r), "dt_steps": a["cfg"].steps_for(1.0)},
    "dynamics.solve_nls": lambda a, r: {"rows": 1, "dt_steps": a["cfg"].steps_for(a["horizon"])},
    "dynamics.markov_step": lambda a, r: {"rows": 1, "dt_steps": a["cfg"].steps_for(1.0)},
    "linearized.control_response_matrix": lambda a, r: {
        "cols": len(r[1]), "dt_steps": a["base"].n_stored - 1},
    "linearized.solve_linearized": lambda a, r: {"cols": 1, "dt_steps": a["base"].n_stored - 1},
    "store.write_trajectory_csv": _size_of("path"),
    "store.write_trajectory_bin": _size_of("path"),
    "store.write_json_report": _size_of("path"),
    "store.read_trajectory_csv": _size_of("path"),
    "store.read_trajectory_bin": _size_of("path"),
}


class Span:
    __slots__ = ("sid", "parent", "name", "op", "start", "end", "fft_calls", "fft_points",
                 "counts", "error")

    def __init__(self, sid, parent, name, op):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.op = op
        self.start = self.end = 0.0
        self.fft_calls = 0
        self.fft_points = 0
        self.counts = {}
        self.error = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Install with ``with Tracer(schrodmix) as tr:``; set ``tr.op`` to the
    index of the operation in progress before each one."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self):
        for module_name, attr in WRAPPED:
            module = getattr(self.package, module_name)
            self._patch(module, attr, self._span_wrapper(getattr(module, attr)))
        for attr in ("fft", "ifft"):
            self._patch(np.fft, attr, self._fft_wrapper(getattr(np.fft, attr)))
        return self

    def __exit__(self, *exc):
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)
        return False

    def _patch(self, obj, attr, wrapper):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _span_wrapper(self, func):
        name = "%s.%s" % (func.__module__.rsplit(".", 1)[-1], func.__name__)
        counter = _COUNTS.get(name)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
            span = Span(sid, stack[-1].sid if stack else None, name, self.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return wrapper

    def _fft_wrapper(self, func):
        @functools.wraps(func)
        def wrapper(a, *args, **kwargs):
            stack = self._stack()
            if stack:
                stack[-1].fft_calls += 1
                stack[-1].fft_points += int(np.size(a))
            return func(a, *args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True))
                fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _p90(values) -> float:
    """The 90th percentile of values (0 without samples, the value with one)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(spans, n_ops: int, contracted_fraction: float) -> dict:
    """Per-layer metrics from the spans of n_ops traced operations.

    Counts and times are per operation; rates, fractions and latency
    quantiles are per call.  Self time is a span's duration minus the
    durations of its direct child spans.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def pick(*names):
        return [s for s in spans if s.name in names]

    def busy(*names):
        return sum(s.duration for s in pick(*names)) / n_ops

    def self_time(*names):
        return sum(s.duration - child_time.get(s.sid, 0.0) for s in pick(*names)) / n_ops

    def calls(*names):
        return len(pick(*names)) / n_ops

    def count(key, *names):
        return sum(s.counts.get(key, 0) for s in pick(*names)) / n_ops

    def layer_sum(layer, attr):
        return sum(getattr(s, attr) for s in spans if s.layer == layer) / n_ops

    noise = pick("noise.sample_noise_paths")
    noise_busy = sum(s.duration for s in noise)
    stepping = pick(*STEPPING)
    step_ffts = sum(s.fft_calls for s in stepping)
    step_dt = sum(s.counts.get("dt_steps", 0) for s in stepping)
    linearized = [s for s in spans if s.layer == "linearized"]
    evolve = sorted(s.duration for s in pick("mixing.evolve_ensemble"))
    loads = pick("config.load_config")
    return {
        "noise.calls": calls("noise.sample_noise_paths"),
        "noise.paths": count("paths", "noise.sample_noise_paths"),
        "noise.busy_s": busy("noise.sample_noise_paths"),
        "noise.paths_per_s": (
            sum(s.counts.get("paths", 0) for s in noise) / noise_busy if noise_busy > 0 else 0.0),
        "dynamics.batch_calls": calls("dynamics.markov_step_batch"),
        "dynamics.chain_steps": count("rows", "dynamics.markov_step_batch"),
        "dynamics.batch_busy_s": busy("dynamics.markov_step_batch"),
        "dynamics.solve_calls": calls("dynamics.solve_nls", "dynamics.markov_step"),
        "dynamics.solve_busy_s": busy("dynamics.solve_nls", "dynamics.markov_step"),
        "dynamics.solver_steps": sum(
            s.counts.get("rows", 0) * s.counts.get("dt_steps", 0)
            for s in pick("dynamics.solve_nls", "dynamics.markov_step")) / n_ops,
        "dynamics.linear_group_busy_s": busy("dynamics.linear_group"),
        "dynamics.energy_series_busy_s": busy("dynamics.energy_series"),
        "dynamics.fft_calls": layer_sum("dynamics", "fft_calls"),
        "dynamics.fft_points": layer_sum("dynamics", "fft_points"),
        "dynamics.fft_per_step": step_ffts / step_dt if step_dt else 0.0,
        "dynamics.blowups": sum(
            1 for s in spans if s.layer == "dynamics" and s.error == "BlowUpError") / n_ops,
        "linearized.calls": len(linearized) / n_ops,
        "linearized.busy_s": sum(s.duration for s in linearized) / n_ops,
        "linearized.tangent_row_steps": sum(
            s.counts.get("cols", 0) * s.counts.get("dt_steps", 0) for s in linearized) / n_ops,
        "linearized.fft_calls": layer_sum("linearized", "fft_calls"),
        "control.shift_calls": calls("control.stabilizing_shift"),
        "control.shift_self_s": self_time("control.stabilizing_shift"),
        "control.pinv_busy_s": busy("control.regularized_pinv_solve"),
        "control.norm_busy_s": busy("control.equivalent_norm"),
        "control.contracted_fraction": contracted_fraction,
        "mixing.evolve_calls": calls("mixing.evolve_ensemble"),
        "mixing.evolve_self_s": self_time("mixing.evolve_ensemble"),
        "mixing.evolve_p50_s": statistics.median(evolve) if evolve else 0.0,
        "mixing.evolve_p90_s": _p90(evolve),
        "mixing.evolve_samples": len(evolve),
        "mixing.distance_busy_s": busy("mixing.dual_lipschitz_estimate"),
        "mixing.coupling_self_s": self_time("mixing.synchronous_coupling_experiment"),
        "spectral.fft_calls": layer_sum("spectral", "fft_calls"),
        "config.load_s": (
            sum(s.duration for s in loads) / len(loads) if loads else 0.0),
        "config.run_self_s": self_time("config.run_experiment"),
        "store.csv_write_s": busy("store.write_trajectory_csv"),
        "store.bin_write_s": busy("store.write_trajectory_bin"),
        "store.csv_read_s": busy("store.read_trajectory_csv"),
        "store.bin_read_s": busy("store.read_trajectory_bin"),
        "store.bytes_written": count(
            "bytes", "store.write_trajectory_csv", "store.write_trajectory_bin",
            "store.write_json_report"),
        "store.bytes_read": count("bytes", "store.read_trajectory_csv", "store.read_trajectory_bin"),
        "store.digest_s": busy("store.file_digest"),
    }
