"""Benchmark workloads: the generated config, the timed operation and the
output checks of each one.

A workload's operation is one closed-loop request against the package's
public entry point: ``config.load_config`` on a generated config file, then
``config.run_experiment``, then reading the outputs back and checking them.
The checks test properties that survive last-bit and O(dt^2) changes to the
numerical scheme, so a faster but equivalent integrator still passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

# Relative L2 drift of the unforced, undamped flow.  The split-step substeps
# are each L2-exact, so only round-off accumulates: over 2560 steps of 6 FFTs
# it measured 1.6e-13 to 3.3e-12 across 30 seeds.  Any O(dt^2) loss of
# conservation would read about 1e-5.
L2_DRIFT_BOUND = 1.0e-10
# Relative energy drift of the same run.  The scheme conserves energy only to
# O(dt^2); the largest drift along 20 time units at dt = 2^-7 measured
# 7e-7 to 2.4e-6 across 30 seeds.  The bound leaves room for a different
# second-order splitting.
ENERGY_DRIFT_BOUND = 1.0e-5
# The step-0 mixing distance is a mean over identical rows; summation order
# may move its last bits.
DISTANCE0_TOL = 1.0e-12


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    # [section] -> {key: value} over the package defaults; [run] seed is
    # added from the benchmark seed
    sections: dict = field(repr=False)
    # per-size overrides of [experiment] keys
    sizes: dict = field(repr=False)
    outputs: tuple = ()


def write_config(sm, wl: Workload, seed: int, size: str, path: str) -> None:
    """Write the workload's config file with the package's own serializer."""
    sections = sm.config.parse_config_text("")
    for name, vals in wl.sections.items():
        sections[name].update(vals)
    sections["experiment"].update(wl.sizes[size])
    sections["run"]["seed"] = int(seed)
    sm.config.save_config(sm.config.config_from_sections(sections), path)


_GRID = {"n_points": 128, "k_max": 42}
_DT = 2.0**-7

WORKLOADS = {
    "ensemble_mix": Workload(
        name="ensemble_mix",
        sections={
            "grid": _GRID,
            "solver": {"dt": _DT, "damping": "bump", "damping_amplitude": 0.8},
            "noise": {"modes": (0, 1), "amplitudes": (0.05, 0.05), "level_max": 6},
            "experiment": {
                "kind": "mix",
                "initial": "constant",
                "initial_amplitude": 2.2 / math.sqrt(2.0 * math.pi),
                "initial_b": "random_h1",
                "initial_b_amplitude": 0.35,
                "initial_b_tail": 2.2,
            },
        },
        sizes={
            "full": {"n_chains": 400, "n_steps": 1},
            "tiny": {"n_chains": 16, "n_steps": 1},
        },
        outputs=("mix_curve.csv", "mix.json"),
    ),
    "controlled_coupling": Workload(
        name="controlled_coupling",
        sections={
            "grid": _GRID,
            "solver": {"dt": _DT, "damping": "bump", "damping_amplitude": 1.5},
            "noise": {"modes": (0, 1), "amplitudes": (0.5, 0.5), "level_max": 6},
            "experiment": {
                "kind": "couple",
                "use_control": True,
                "initial": "random_h1",
                "initial_amplitude": 1.0,
                "initial_tail": 3.0,
                "time_level": 3,
                "galerkin_cutoff": 12,
                "gamma": 1.0e-2,
                "delta": 1.0e-3,
            },
        },
        sizes={"full": {"n_steps": 6}, "tiny": {"n_steps": 1}},
        outputs=("couple_curve.csv", "couple.json"),
    ),
    "trajectory_io": Workload(
        name="trajectory_io",
        sections={
            "grid": _GRID,
            "solver": {"dt": _DT, "damping": "zero", "store_stride": 4},
            "noise": {"level_max": 6},
            "experiment": {
                "kind": "simulate",
                "forced": False,
                "initial": "random_h1",
                "initial_amplitude": 0.8,
                "initial_tail": 3.0,
            },
        },
        sizes={"full": {"horizon": 20.0}, "tiny": {"horizon": 1.0}},
        outputs=("trajectory.csv", "trajectory.bin"),
    ),
}


def work_counts(workload: str, params: dict) -> dict:
    """Units of work one operation completes, for the throughput metrics.

    chain_steps: one chain advanced over one unit of time.
    coupled_steps: unit steps of the experiment's own time loop.
    states: output records written, read back and checked.
    """
    if workload == "ensemble_mix":
        n = params["n_steps"]
        return {"chain_steps": 2 * params["n_chains"] * n, "coupled_steps": n, "states": n + 1}
    if workload == "controlled_coupling":
        n = params["n_steps"]
        return {"chain_steps": 2 * n, "coupled_steps": n, "states": n + 1}
    if workload == "trajectory_io":
        units = params["horizon"]
        return {"chain_steps": units, "coupled_steps": units, "states": stored_states(params)}
    raise KeyError(workload)


def stored_states(params: dict) -> int:
    n_steps = int(round(params["horizon"] / params["dt"]))
    stride = params["store_stride"]
    return n_steps // stride + 1 + (1 if n_steps % stride else 0)


# ---------------------------------------------------------------------------
# set-up and the timed operation


@dataclass
class Prepared:
    """What set-up leaves for the operation: the config path and the values
    the checks compare against, computed before any timing or tracing."""

    workload: Workload
    config_path: str
    params: dict
    expect: dict


def prepare(sm, workload: str, seed: int, work_dir: str, size: str = "full") -> Prepared:
    wl = WORKLOADS[workload]
    path = os.path.join(work_dir, "%s.cfg" % workload)
    write_config(sm, wl, seed, size, path)
    cfg = sm.config.load_config(path)
    params = dict(cfg.params)
    params.update(dt=cfg.solver.dt, store_stride=cfg.solver.store_stride)
    expect = {}
    if workload == "ensemble_mix":
        ua = sm.config.build_initial(cfg, "a")
        ub = sm.config.build_initial(cfg, "b")
        zero = sm.spectral.zero_field(cfg.grid)
        dictionary = sm.mixing.default_dictionary(cfg.grid, anchors=(ua, ub, zero))
        expect["distance0"] = sm.mixing.dual_lipschitz_estimate(
            ua.coeffs[None, :], ub.coeffs[None, :], dictionary
        )
    return Prepared(wl, path, params, expect)


def run_operation(sm, prep: Prepared, out_dir: str) -> tuple:
    """One request: load the config, run it, read the outputs back and check
    them.  Returns (output digests, facts); raises CheckFailed on a bad
    output and lets the program's own errors propagate."""
    cfg = sm.config.load_config(prep.config_path)
    sm.config.run_experiment(cfg, out_dir=out_dir)
    return check_manifest(out_dir, prep.workload.outputs), check_content(sm, prep, out_dir)


def check_content(sm, prep: Prepared, out_dir: str) -> dict:
    """The workload's own output checks; returns facts the trace reports."""
    return _CHECKS[prep.workload.name](sm, prep, out_dir)


def check_manifest(out_dir: str, expected: tuple) -> dict:
    """Every expected output is listed exactly once, with the digest and
    size of the file on disk; returns {file name: sha256}."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    entries = {}
    for entry in manifest.get("outputs", []):
        if entry["path"] in entries:
            raise CheckFailed("manifest lists %s twice" % entry["path"])
        entries[entry["path"]] = entry
    if sorted(entries) != sorted(expected):
        raise CheckFailed("manifest lists %s, expected %s" % (sorted(entries), sorted(expected)))
    digests = {}
    for name, entry in entries.items():
        path = os.path.join(out_dir, name)
        digest = _sha256(path)
        if digest != entry["sha256"] or os.path.getsize(path) != entry["bytes"]:
            raise CheckFailed("%s does not match its manifest entry" % name)
        digests[name] = digest
    return digests


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_curve(path: str, header: list) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed("%s: unexpected header %r" % (os.path.basename(path), rows[:1]))
    return [[float(v) for v in row] for row in rows[1:]]


def _check_mix(sm, prep: Prepared, out_dir: str) -> dict:
    rows = _read_curve(os.path.join(out_dir, "mix_curve.csv"), ["step", "distance", "alt_distance"])
    if len(rows) != prep.params["n_steps"] + 1:
        raise CheckFailed("mix curve has %d rows, expected %d" % (len(rows), prep.params["n_steps"] + 1))
    for step, dist, alt in rows:
        for value in (dist, alt):
            if not (math.isfinite(value) and 0.0 <= value <= 2.0):
                raise CheckFailed("step %d: distance %r outside [0, 2]" % (step, value))
    first, last = rows[0][1], rows[-1][1]
    if abs(first - prep.expect["distance0"]) > DISTANCE0_TOL:
        raise CheckFailed(
            "step-0 distance %r differs from the direct value %r" % (first, prep.expect["distance0"])
        )
    if not last < first:
        raise CheckFailed("distance did not decrease: %r -> %r" % (first, last))
    return {"distances": [r[1] for r in rows]}


def _check_couple(sm, prep: Prepared, out_dir: str) -> dict:
    rows = _read_curve(
        os.path.join(out_dir, "couple_curve.csv"), ["step", "separation", "ratio", "shift_norm"]
    )
    if len(rows) != prep.params["n_steps"] + 1:
        raise CheckFailed("couple curve has %d rows, expected %d" % (len(rows), prep.params["n_steps"] + 1))
    ratios = []
    for step, sep, ratio, shift in rows[1:]:
        if not math.isfinite(ratio):
            raise CheckFailed("step %d: ratio %r is not finite" % (step, ratio))
        if not (math.isfinite(shift) and shift > 0.0):
            raise CheckFailed("step %d: shift norm %r is not positive" % (step, shift))
        ratios.append(ratio)
    return {"ratios": ratios}


def _check_trajectory(sm, prep: Prepared, out_dir: str) -> dict:
    import numpy as np

    t_csv, c_csv = sm.store.read_trajectory_csv(os.path.join(out_dir, "trajectory.csv"))
    t_bin, c_bin, _ = sm.store.read_trajectory_bin(os.path.join(out_dir, "trajectory.bin"))
    if t_csv.shape != t_bin.shape or c_csv.shape != c_bin.shape:
        raise CheckFailed("CSV and binary read-backs differ in shape")
    if t_csv.tobytes() != t_bin.tobytes() or c_csv.tobytes() != c_bin.tobytes():
        raise CheckFailed("CSV and binary read-backs are not bitwise equal")
    if len(t_bin) != stored_states(prep.params):
        raise CheckFailed("%d stored states, expected %d" % (len(t_bin), stored_states(prep.params)))
    mass = np.sum(c_bin.real**2 + c_bin.imag**2, axis=-1)
    l2_drift = float(np.max(np.abs(np.sqrt(mass / mass[0]) - 1.0)))
    energies = sm.dynamics.energy_series(c_bin)
    energy_drift = float(np.max(np.abs(energies / energies[0] - 1.0)))
    if not l2_drift <= L2_DRIFT_BOUND:
        raise CheckFailed("relative L2 drift %.3e exceeds %.0e" % (l2_drift, L2_DRIFT_BOUND))
    if not energy_drift <= ENERGY_DRIFT_BOUND:
        raise CheckFailed("relative energy drift %.3e exceeds %.0e" % (energy_drift, ENERGY_DRIFT_BOUND))
    return {"l2_drift": l2_drift, "energy_drift": energy_drift}


_CHECKS = {
    "ensemble_mix": _check_mix,
    "controlled_coupling": _check_couple,
    "trajectory_io": _check_trajectory,
}
