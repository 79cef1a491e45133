"""Digest every output of every experiment kind, run from one checkout.

    python3 tools/kind_digests.py <checkout>

Imports schrodmix from <checkout>/src, runs each case below through
run_experiment at k_max 20, dt 2^-7, level_max 3 and seed 3, at p = 3
and p = 5, and prints {case: {file: sha256}} as JSON.  The manifest carries
timestamps, so it enters only as its config digest, under the entry
"manifest.json:config_digest".  Two checkouts whose outputs and configs
agree byte for byte print the same text, so diffing the output of two
checkouts is the byte-identity check of a change that must not move any
digest.

Every kind in config.KINDS runs once with its settings in _CASES, plus the
variants there (with [solver] overrides in _SOLVER); a kind with no entry
runs at the common settings alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

_COMMON = {
    "grid": {"k_max": 20},
    "solver": {"dt": 2.0**-7, "damping": "bump", "damping_amplitude": 1.0, "damping_width": 1.5},
    "noise": {"modes": "0, 1", "amplitudes": "0.1, 0.1", "level_max": 3},
    "experiment": {"initial": "plane_wave", "initial_amplitude": 0.5, "initial_mode": 1},
    "run": {"seed": 3},
}
_CONTROL = {"time_level": 2, "galerkin_cutoff": 8, "warm_steps": 2}

# case name -> (kind, [experiment] keys)
_CASES = {
    "simulate": ("simulate", {"horizon": 2.0}),
    "simulate_forced": ("simulate", {"horizon": 2.0, "forced": "true"}),
    "decay": ("decay", {"horizon": 2.0}),
    "gramian": ("gramian", {**_CONTROL, "target_cutoff": 2}),
    "stabilize": ("stabilize", _CONTROL),
    "couple": ("couple", {"n_steps": 3}),
    "couple_control": ("couple", {**_CONTROL, "n_steps": 3, "use_control": "true"}),
    # the coupled step's edge paths: no step, and a first step that is also
    # the last; and a contraction test with nothing to contract
    "couple_0": ("couple", {"n_steps": 0}),
    "couple_1": ("couple", {"n_steps": 1}),
    "couple_control_0": ("couple", {**_CONTROL, "n_steps": 0, "use_control": "true"}),
    "couple_control_1": ("couple", {**_CONTROL, "n_steps": 1, "use_control": "true"}),
    "stabilize_delta_0": ("stabilize", {**_CONTROL, "delta": 0.0}),
    "mix": ("mix", {"n_chains": 8, "n_steps": 3, "initial_b": "random_h1"}),
    "saturate": ("saturate", {"sat_modes": "0, 1", "iterations": 3}),
    "smooth": ("smooth", {"horizon": 1.0, "forced": "true"}),
    # 320 steps at stride 3: 108 stored states, the last one off the stride,
    # so trajectory.csv spans more than one chunk of rows
    "simulate_stride_3": ("simulate", {"horizon": 2.5}),
}
# case name -> [solver] keys over _COMMON's
_SOLVER = {"simulate_stride_3": {"store_stride": 3}}


def _config_text(p: int, kind: str, experiment: dict, solver: dict) -> str:
    sections = {name: dict(keys) for name, keys in _COMMON.items()}
    sections["solver"].update(p=p, **solver)
    sections["experiment"].update(kind=kind, **experiment)
    return "".join(
        "[%s]\n" % name + "".join("%s = %s\n" % kv for kv in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def kind_digests(config) -> dict:
    """{case: {file: sha256}} for every case at p = 3 and p = 5, with the
    manifest's config digest; config is the checkout's schrodmix.config
    module."""
    cases = dict(_CASES)
    for kind in config.KINDS:
        if not any(k == kind for k, _ in cases.values()):
            cases[kind] = (kind, {})
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for p in (3, 5):
            for name, (kind, experiment) in cases.items():
                text = _config_text(p, kind, experiment, _SOLVER.get(name, {}))
                cfg = config.config_from_sections(config.parse_config_text(text))
                where = os.path.join(tmp, "p%d_%s" % (p, name))
                config.run_experiment(cfg, out_dir=where)
                files = {
                    f: _sha256(os.path.join(where, f))
                    for f in sorted(os.listdir(where))
                    if f != "manifest.json"
                }
                with open(os.path.join(where, "manifest.json"), encoding="utf-8") as fh:
                    files["manifest.json:config_digest"] = json.load(fh)["config_digest"]
                out["p%d/%s" % (p, name)] = files
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: kind_digests.py <checkout>", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[1]), "src"))
    sys.dont_write_bytecode = True  # leave the checkout as it was
    from schrodmix import config

    json.dump(kind_digests(config), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
