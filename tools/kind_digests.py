"""Digest every output of every experiment kind, run from one checkout, or
report its values and how far they moved between two checkouts.

    python3 tools/kind_digests.py <checkout>
    python3 tools/kind_digests.py --values <checkout>
    python3 tools/kind_digests.py --compare <old.json> <new.json>

Imports schrodmix from <checkout>/src, and exits 2 if the import resolves
to another copy.  Runs each case below through run_experiment at k_max 20,
dt 2^-7, level_max 3 and seed 3, at p = 3 and p = 5, and prints
{case: {file: sha256}} as JSON.  The manifest carries
timestamps, so it enters only as its config digest, under the entry
"manifest.json:config_digest".  Two checkouts whose outputs and configs
agree byte for byte print the same text, so diffing the output of two
checkouts is the byte-identity check of a change that must not move any
digest.

--values runs the same cases and prints {case: {field: value}} as JSON
instead: every numeric field of each JSON report, as a number or a flat
list, under "<file>:<key>"; and for each curve, noise path or trajectory
file, each column's count, max-abs and root-mean-square under
"<file>:<column>:<statistic>", with its first and last row under
"<file>:first" and "<file>:last" (for a trajectory, its first and last
stored state, as interleaved re, im).  trajectory.bin is read back into
the columns of trajectory.csv.

--compare takes two --values outputs and prints, for every case and field,
the largest move of any entry relative to that field's largest |value| in
either file, largest moves first: the report of how far a change that
moves digests moved the values.  A field present on one side only moves
by inf.

Every kind in config.KINDS runs once with its settings in _CASES, plus the
variants there (with [solver] overrides in _SOLVER); a kind with no entry
runs at the common settings alone.  A case sets only the keys its config
reads, since a config refuses any other key set away from its default:
[noise] where its kind reads it, the parameters of its initial data kind,
the control keys only where the control is built, and no [grid] or
[solver] key for the kinds in _UNSOLVED, whose p = 5 pass is then the same
config as its p = 3 one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

_COMMON = {
    "grid": {"k_max": 20},
    "solver": {"dt": 2.0**-7, "damping": "bump", "damping_amplitude": 1.0, "damping_width": 1.5},
    "run": {"seed": 3},
}
# the kinds that read no [grid] or [solver] key
_UNSOLVED = ("saturate",)
# the keys each case sets where its kind reads them
_NOISE = {"modes": "0, 1", "amplitudes": "0.1, 0.1", "level_max": 3}
_INITIAL = {"initial": "plane_wave", "initial_amplitude": 0.5, "initial_mode": 1}
_CONTROL = {**_INITIAL, "time_level": 2, "galerkin_cutoff": 8}
_WARM = {**_CONTROL, "warm_steps": 2}

# case name -> (kind, [experiment] keys, [noise] keys)
_CASES = {
    "simulate": ("simulate", {**_INITIAL, "horizon": 2.0}, {}),
    "simulate_forced": ("simulate", {**_INITIAL, "horizon": 2.0, "forced": "true"}, _NOISE),
    "decay": ("decay", {**_INITIAL, "horizon": 2.0}, {}),
    "decay_constant": ("decay", {"initial": "constant", "initial_amplitude": 0.5, "horizon": 2.0}, {}),
    "gramian": ("gramian", {**_WARM, "target_cutoff": 2}, _NOISE),
    "stabilize": ("stabilize", _WARM, _NOISE),
    "couple": ("couple", {**_INITIAL, "n_steps": 3}, _NOISE),
    "couple_control": ("couple", {**_CONTROL, "n_steps": 3, "use_control": "true"}, _NOISE),
    # a second datum of its own in place of the delta bump
    "couple_b": (
        "couple", {**_INITIAL, "n_steps": 3, "initial_b": "random_h1", "initial_b_amplitude": 0.6},
        _NOISE),
    # the coupled step's edge paths: no step, and a first step that is also
    # the last; and a contraction test with nothing to contract
    "couple_0": ("couple", {**_INITIAL, "n_steps": 0}, _NOISE),
    "couple_1": ("couple", {**_INITIAL, "n_steps": 1}, _NOISE),
    "couple_control_0": ("couple", {**_CONTROL, "n_steps": 0, "use_control": "true"}, _NOISE),
    "couple_control_1": ("couple", {**_CONTROL, "n_steps": 1, "use_control": "true"}, _NOISE),
    "stabilize_delta_0": ("stabilize", {**_WARM, "delta": 0.0}, _NOISE),
    "mix": ("mix", {**_INITIAL, "n_chains": 8, "n_steps": 3, "initial_b": "random_h1"}, _NOISE),
    "saturate": ("saturate", {"sat_modes": "0, 1", "iterations": 3}, {}),
    "smooth": ("smooth", {**_INITIAL, "horizon": 1.0, "forced": "true"}, _NOISE),
    # 320 steps at stride 3: 108 stored states, the last one off the stride,
    # so trajectory.csv spans more than one chunk of rows
    "simulate_stride_3": ("simulate", {**_INITIAL, "horizon": 2.5}, {}),
}
# case name -> [solver] keys over _COMMON's
_SOLVER = {"simulate_stride_3": {"store_stride": 3}}


def _config_text(p: int, kind: str, experiment: dict, noise: dict, solver: dict) -> str:
    sections = {name: dict(keys) for name, keys in _COMMON.items()}
    sections["solver"].update(p=p, **solver)
    if kind in _UNSOLVED:
        del sections["grid"], sections["solver"]
    sections["noise"] = noise
    sections["experiment"] = dict(experiment, kind=kind)
    return "".join(
        "[%s]\n" % name + "".join("%s = %s\n" % kv for kv in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_cases(config, tmp: str):
    """Runs every case at p = 3 and p = 5 under tmp; yields (case, output
    directory).  config is the checkout's schrodmix.config module."""
    cases = dict(_CASES)
    for kind in config.KINDS:
        if not any(k == kind for k, _, _ in cases.values()):
            cases[kind] = (kind, {}, {})
    for p in (3, 5):
        for name, (kind, experiment, noise) in cases.items():
            text = _config_text(p, kind, experiment, noise, _SOLVER.get(name, {}))
            cfg = config.config_from_sections(config.parse_config_text(text))
            where = os.path.join(tmp, "p%d_%s" % (p, name))
            config.run_experiment(cfg, out_dir=where)
            yield "p%d/%s" % (p, name), where


def kind_digests(config) -> dict:
    """{case: {file: sha256}} for every case at p = 3 and p = 5, with the
    manifest's config digest."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, where in _run_cases(config, tmp):
            files = {
                f: _sha256(os.path.join(where, f))
                for f in sorted(os.listdir(where))
                if f != "manifest.json"
            }
            with open(os.path.join(where, "manifest.json"), encoding="utf-8") as fh:
                files["manifest.json:config_digest"] = json.load(fh)["config_digest"]
            out[case] = files
    return out


def _numbers(value):
    """value as a float or a flat list of floats, or None when it holds
    anything but numbers (bools count as 0 and 1)."""
    if isinstance(value, (bool, int, float)):
        return float(value)
    if isinstance(value, list):
        flat = []
        for v in value:
            v = _numbers(v)
            if v is None:
                return None
            flat.extend(v if isinstance(v, list) else [v])
        return flat
    return None


def _table_values(name: str, header: list, data: np.ndarray) -> dict:
    """The column statistics and end rows of one table, under name; max-abs
    and RMS skip NaN entries (a curve's undefined first ratio), and are NaN
    for a column with no other entry."""
    out = {}
    for j, column in enumerate(header):
        col = data[:, j]
        col = np.abs(col[~np.isnan(col)])
        key = "%s:%s:" % (name, column)
        out[key + "count"] = float(len(data))
        out[key + "max_abs"] = float(col.max()) if col.size else math.nan
        out[key + "rms"] = float(np.sqrt(np.mean(col**2))) if col.size else math.nan
    if len(data) == 0:
        return out
    if header[:2] == ["t", "mode"]:
        # a trajectory's end rows are its first and last stored states
        t = data[:, 0]
        first, last = data[t == t[0], 2:], data[t == t[-1], 2:]
    else:
        first, last = data[0], data[-1]
    out[name + ":first"] = first.reshape(-1).tolist()
    out[name + ":last"] = last.reshape(-1).tolist()
    return out


def _file_values(store, where: str, name: str) -> dict:
    path = os.path.join(where, name)
    if name.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        return {
            "%s:%s" % (name, key): v
            for key, v in ((key, _numbers(v)) for key, v in sorted(report.items()))
            if v is not None
        }
    if name.endswith(".csv"):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2)
        return _table_values(name, header, data.reshape(-1, len(header)))
    times, coeffs, _ = store.read_trajectory_bin(path)
    n_coeff = coeffs.shape[1]
    columns = (
        np.repeat(times, n_coeff),
        np.tile(np.arange(n_coeff) - (n_coeff - 1) // 2, len(times)),
        coeffs.real.reshape(-1),
        coeffs.imag.reshape(-1),
    )
    return _table_values(name, ["t", "mode", "re", "im"], np.stack(columns, axis=1))


def kind_values(config, store) -> dict:
    """{case: {field: value}} for every case at p = 3 and p = 5; store is
    the checkout's schrodmix.store module."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, where in _run_cases(config, tmp):
            fields = {}
            for name in sorted(os.listdir(where)):
                if name != "manifest.json":
                    fields.update(_file_values(store, where, name))
            out[case] = fields
    return out


def _move(old, new) -> float:
    """Largest |new - old| over the entries of one field, relative to the
    field's largest |value| on either side; NaN matches NaN only."""
    if old is None or new is None:
        return math.inf
    a, b = np.atleast_1d(np.asarray(old, float)), np.atleast_1d(np.asarray(new, float))
    if a.shape != b.shape:
        return math.inf
    if np.any(np.isnan(a) != np.isnan(b)):
        return math.inf
    both = ~np.isnan(a)
    diff = np.abs(a[both] - b[both])
    if not diff.size or diff.max() == 0.0:
        return 0.0
    if not np.all(np.isfinite(diff)):
        return math.inf
    return float(diff.max() / max(np.abs(a[both]).max(), np.abs(b[both]).max()))


def compare_values(old: dict, new: dict) -> list:
    """[(relative move, case, field)] for every case and field of either
    side, largest moves first."""
    moves = []
    for case in sorted(set(old) | set(new)):
        a, b = old.get(case, {}), new.get(case, {})
        for field in sorted(set(a) | set(b)):
            moves.append((_move(a.get(field), b.get(field)), case, field))
    moves.sort(key=lambda m: -m[0])
    return moves


def _compare_main(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    for move, case, field in compare_values(old, new):
        print("%.3e  %s  %s" % (move, case, field))
    return 0


def main(argv) -> int:
    args = argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        return _compare_main(args[1], args[2])
    values = args[:1] == ["--values"]
    if values:
        args = args[1:]
    if len(args) != 1:
        print("usage: kind_digests.py [--values] <checkout>\n"
              "       kind_digests.py --compare <old.json> <new.json>", file=sys.stderr)
        return 2
    src = os.path.join(os.path.abspath(args[0]), "src")
    sys.path.insert(0, src)
    sys.dont_write_bytecode = True  # leave the checkout as it was
    from schrodmix import config, store

    # an installed copy, or one on PYTHONPATH, must not stand in for the
    # checkout's own package
    if not os.path.abspath(config.__file__).startswith(src + os.sep):
        print("schrodmix.config was imported from %s, not from %s" % (config.__file__, src),
              file=sys.stderr)
        return 2
    result = kind_values(config, store) if values else kind_digests(config)
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
