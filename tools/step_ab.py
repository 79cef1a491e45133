"""Time the unit Markov step, the control sweep and the damped free group
from two checkouts, in alternating fresh processes, and write the A/B
record.

    python3 tools/step_ab.py OLD NEW [--label L] [--pairs 5] [--repeat 15]
                             [--k-max 42] [--rows 1,64,400] [--out DIR]

Times markov_step (one chain) and markov_step_batch at each row count of
--rows, at the ensemble_mix workload's physics (bump damping 0.8, dt 2^-7,
noise on modes (0, 1) at amplitudes 0.05 and level_max 6, random H1 chains
of amplitude 0.35 and tail 2.2) on a grid of --k-max.  It also times one
control_response_matrix, the tangent sweep of a controlled step, at the
controlled_coupling workload's physics (bump damping 1.5, noise on modes
(0, 1) at amplitudes 0.5 and level_max 6, a random H1 chain of amplitude
1.0 and tail 3.0): time level 3 and Galerkin cutoff 12 (the whole band of
a smaller grid) on the chain's forced base stored at every step, with a
separation of H1 size 1e-3 as its extra row; and one linear_group, the
damped free group over t = 1 at that physics, on the same separation.  A
pair is one fresh process per checkout, OLD first in even pairs and NEW
first in odd ones, so a slow or fast spell of the machine falls on both
sides.  Each process
imports schrodmix from <checkout>/src (and exits 2 if the import resolves
to another copy), steps every case once to build its tables, then takes
the best of --repeat runs of each case: one time per case per process.

Writes BENCH_step_<label>.json into --out (default: the working
directory): for each case and side, the per-process times with their
best, median and quartiles; the per-pair ratios OLD / NEW (above 1 when
NEW is faster), their median and NEW's wins; and the machine the numbers
depend on: Python, numpy, numpy's compiled dispatch targets
(__cpu_dispatch__) and the CPU features it found enabled, and the CPU
count.  A side is named by the sha256 of its src/schrodmix/*.py, not by
its path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def _case_names(rows) -> list:
    batches = ["markov_step_batch/%d" % r for r in rows]
    return ["markov_step", *batches, "control_response_matrix", "linear_group"]


def _child(checkout: str, k_max: int, rows, repeat: int) -> dict:
    """Best-of-repeat seconds of each case, stepped from checkout."""
    src = str(Path(checkout, "src").resolve())
    sys.path.insert(0, src)
    import schrodmix
    from schrodmix.config import random_h1_field
    from schrodmix.noise import sample_noise_paths

    if not str(Path(schrodmix.__file__).resolve()).startswith(src + os.sep):
        print("schrodmix imported from %s, not %s" % (schrodmix.__file__, src), file=sys.stderr)
        sys.exit(2)
    grid = schrodmix.Grid(k_max)
    cfg = schrodmix.SolverConfig(
        grid, schrodmix.bump_damping(grid, 0.8, np.pi, 1.5), dt=2.0**-7
    )
    spec = schrodmix.NoiseSpec(modes=(0, 1), amplitudes=(0.05, 0.05), level_max=6)
    n = max(rows)
    paths = sample_noise_paths(spec, [(2026, 0, i, 0) for i in range(n)])
    block = np.stack([random_h1_field(grid, 0.35, 2.2, 2026, i).coeffs for i in range(n)])
    one = schrodmix.FourierField(grid, block[0])
    cases = {"markov_step": lambda: schrodmix.markov_step(one, paths[0], cfg)}
    for r in rows:
        cases["markov_step_batch/%d" % r] = (
            lambda r=r: schrodmix.markov_step_batch(block[:r], paths[:r], cfg)
        )
    control_cfg = schrodmix.SolverConfig(
        grid, schrodmix.bump_damping(grid, 1.5, np.pi, 1.5), dt=2.0**-7
    )
    control_spec = schrodmix.NoiseSpec(modes=(0, 1), amplitudes=(0.5, 0.5), level_max=6)
    (zeta,) = sample_noise_paths(control_spec, [(2026, 1, 0, 0)])
    base = schrodmix.solve_nls(random_h1_field(grid, 1.0, 3.0, 2026, 0), zeta, 1.0, control_cfg)
    w = random_h1_field(grid, 1e-3, 3.0, 2026, 1)
    cutoff = min(12, k_max)
    cases["control_response_matrix"] = lambda: schrodmix.control_response_matrix(
        base, (0, 1), 3, cutoff, w
    )
    cases["linear_group"] = lambda: schrodmix.linear_group(w, 1.0, control_cfg)
    best = {}
    for name, run in cases.items():
        run()
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        best[name] = min(times)
    return best


def _src_digest(checkout: str) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(checkout, "src", "schrodmix").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _summary(times) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {
        "per_process_s": times,
        "best_s": min(times),
        "median_s": float(median),
        "q1_s": float(q1),
        "q3_s": float(q3),
    }


def _machine() -> dict:
    from numpy._core import _multiarray_umath as umath

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_dispatch": list(umath.__cpu_dispatch__),
        "cpu_features": sorted(k for k, on in umath.__cpu_features__.items() if on),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--label", default="ab")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--repeat", type=int, default=15)
    ap.add_argument("--k-max", type=int, default=42)
    ap.add_argument("--rows", default="1,64,400")
    ap.add_argument("--out", default=".")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    rows = [int(r) for r in args.rows.split(",")]
    if args.child:
        print(json.dumps(_child(args.old, args.k_max, rows, args.repeat)))
        return 0
    if args.pairs < 1 or args.repeat < 1 or min(rows) < 1:
        ap.error("--pairs, --repeat and every row count must be positive")

    sides = {"old": args.old, "new": args.new}
    times = {side: {name: [] for name in _case_names(rows)} for side in sides}
    for pair in range(args.pairs):
        for side in ("old", "new") if pair % 2 == 0 else ("new", "old"):
            cmd = [sys.executable, __file__, sides[side], sides[side], "--child",
                   "--k-max", str(args.k_max), "--rows", args.rows, "--repeat", str(args.repeat)]
            out = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
            for name, t in out.items():
                times[side][name].append(t)

    cases = {}
    for name in _case_names(rows):
        old, new = times["old"][name], times["new"][name]
        ratios = [a / b for a, b in zip(old, new)]
        cases[name] = {
            "old": _summary(old),
            "new": _summary(new),
            "ratios_old_over_new": ratios,
            "median_ratio": float(np.median(ratios)),
            "new_wins": sum(r > 1.0 for r in ratios),
        }
    record = {
        "label": args.label,
        "pairs": args.pairs,
        "repeat": args.repeat,
        "k_max": args.k_max,
        "rows": rows,
        "old": {"src_sha256": _src_digest(args.old)},
        "new": {"src_sha256": _src_digest(args.new)},
        "machine": _machine(),
        "cases": cases,
    }
    path = Path(args.out, "BENCH_step_%s.json" % args.label)
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, c in cases.items():
        print("%-24s old %8.2f ms  new %8.2f ms  median ratio %.3f  new wins %d/%d" % (
            name, 1e3 * c["old"]["median_s"], 1e3 * c["new"]["median_s"], c["median_ratio"],
            c["new_wins"], args.pairs))
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
