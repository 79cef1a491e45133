"""schrodmix benchmark, run from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop over one operation (see workloads.py): the
next operation starts when the last one ends.  With --trace 0 the run
times the operation for S seconds, with one set-up probe (a fresh process)
after every operation, and reports the end-to-end metrics.  With --trace 1 it times the
operation untraced for S/2 seconds and traced for S/2 seconds, and reports
the per-layer metrics.  Every operation's outputs are checked.

Standard output ends with two JSON lines: a record of the run (workload,
seed, environment, per-operation times) and the result
{"correct", "attempted", "failed", "metrics"}.  Metric names and units come
from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads as W
from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_TIMEOUT_S = 60
MAX_REPORTED_ERRORS = 5


def load_package(root: str):
    """Import schrodmix from root/src, never from an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schrodmix", "__init__.py")):
        raise FileNotFoundError("no src/schrodmix under %s: run from a checkout root" % root)
    sys.path.insert(0, src)
    import schrodmix

    if not os.path.abspath(schrodmix.__file__).startswith(src + os.sep):
        raise ImportError("schrodmix was imported from %s, not %s" % (schrodmix.__file__, src))
    return schrodmix


def metric_units(root: str) -> tuple:
    """({end-to-end name: unit}, {per-layer name: unit}) from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class Loop:
    """Closed loop over one prepared workload, with failure accounting.

    An operation fails when the program raises or an output check fails,
    including output digests that differ from the first operation's: every
    operation in a run uses the same seed, so digests must repeat.
    """

    def __init__(self, sm, prep: W.Prepared, out_dir: str):
        self.sm = sm
        self.prep = prep
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)
            print("benchmark: operation failed: %s" % message, file=sys.stderr)

    def once(self, tracer=None) -> tuple:
        """Run one operation; returns (seconds, facts or None)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        facts = None
        t0 = time.perf_counter()
        try:
            digests, facts = W.run_operation(self.sm, self.prep, self.out_dir)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                raise W.CheckFailed("output digests differ from the first operation's")
        except Exception as exc:  # any failure of the program counts against it
            facts = None
            if len(self.errors) < MAX_REPORTED_ERRORS:
                traceback.print_exc(file=sys.stderr)
            self._fail("%s: %s" % (type(exc).__name__, exc))
        return time.perf_counter() - t0, facts

    def run_for(self, seconds: float, tracer=None, after=None) -> tuple:
        """Operations back to back until seconds have passed (at least one),
        calling after() following each; returns (per-operation seconds,
        facts of the last operation)."""
        walls = []
        facts = None
        start = time.perf_counter()
        while True:
            wall, facts = self.once(tracer)
            walls.append(wall)
            if after is not None:
                after()
            if time.perf_counter() - start >= seconds:
                return walls, facts

    def probe(self, root: str) -> float:
        """Set-up time of one fresh process (see probe.py)."""
        self.attempted += 1
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), self.prep.config_path]
        t0 = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail("set-up probe timed out")
            return time.monotonic() - t0
        if done.returncode != 0:
            self._fail("set-up probe exited %d: %s" % (done.returncode, done.stderr.strip()[-500:]))
            return time.monotonic() - t0
        try:
            return float(done.stdout.split()[-1]) - t0
        except (IndexError, ValueError):
            self._fail("set-up probe printed %r" % done.stdout[-200:])
            return time.monotonic() - t0


def _git_commit(root: str):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(root: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads_env": {
            k: v for k, v in sorted(os.environ.items())
            if k == "SCHRODMIX_WORKERS" or k.endswith("_NUM_THREADS")
        },
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def measure(sm, root: str, workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", work_root: str = None) -> tuple:
    """Run one benchmark run; returns (record, result) as printed."""
    e2e_units, layer_units = metric_units(root)
    work_root = work_root or os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed), dir=work_root)
    try:
        prep = W.prepare(sm, workload, seed, work, size)
        loop = Loop(sm, prep, os.path.join(work, "out"))
        record = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
                  "size": size, "env": environment(root, seed)}
        if trace:
            values, units = _traced(loop, seconds, record, work_root), layer_units
        else:
            values, units = _untraced(loop, root, seconds, record), e2e_units
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise KeyError("metrics %s do not match BENCHMARK.json %s" % (sorted(values), sorted(units)))
    record["errors"] = loop.errors
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return record, result


def _untraced(loop: Loop, root: str, seconds: float, record: dict) -> dict:
    loop.once()  # warm-up: lazy tables and file cache, checked but not timed
    # Probes spread over the whole run, so set-up time sees the same machine
    # as the operations rather than its first few seconds.  Both report the
    # mean over the run, not the median: on a VM that switches between a fast
    # and a slow state for seconds at a time, a run's median jumps to
    # whichever state held most of it, while the mean weighs each state by
    # its share of the run, so run-to-run spread is lower.
    setup = []
    walls, _ = loop.run_for(seconds, after=lambda: setup.append(loop.probe(root)))
    wall = statistics.fmean(walls)
    work = W.work_counts(loop.prep.workload.name, loop.prep.params)
    record.update(setup_samples=setup, walls=walls, work=work)
    return {
        "setup_s": statistics.fmean(setup),
        "wall_s": wall,
        "chain_steps_per_s": work["chain_steps"] / wall,
        "coupled_steps_per_s": work["coupled_steps"] / wall,
        "states_per_s": work["states"] / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(loop: Loop, seconds: float, record: dict, work_root: str) -> dict:
    loop.once()  # warm-up, and the reference digests the traced runs must match
    plain, _ = loop.run_for(seconds / 2.0)
    with Tracer(loop.sm) as tracer:
        traced, facts = loop.run_for(seconds / 2.0, tracer)
    prep = loop.prep
    tracer.write(os.path.join(work_root, "spans-%s-seed%d.jsonl" % (prep.workload.name, record["seed"])))
    ratios = (facts or {}).get("ratios", [])
    contracted = sum(1 for r in ratios if r < 1.0) / len(ratios) if ratios else 0.0
    values = layer_metrics(tracer.spans, len(traced), contracted)
    values["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
    record.update(walls=plain, traced_walls=traced, spans=len(tracer.spans))
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        sm = load_package(root)
    except (FileNotFoundError, ImportError) as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    record, result = measure(sm, root, args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print("benchmark: %-32s %.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
