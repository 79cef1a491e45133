"""Experiment configuration: a line-oriented `key = value` format with
[section] headers, a fixed schema, and a canonical digest.

The format is deliberately small: full-line # comments, five known sections,
every key typed and defaulted, unknown sections or keys rejected with their
line number.  A config is its canonical text, a fixed rendering of every
field (defaults filled), plus the solver and noise built from it; the
digest is the sha256 of that text.  So two configs are equal exactly when
their digests are, and a built config never changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .control import check_gamma, check_shift_level, saturation_base, saturation_span
from .dynamics import SolverConfig, solve_nls, steps_per_cell, trajectory_remainder
from .linearized import assemble_gramian, check_bands
from .mixing import (
    contraction_test,
    decay_experiment,
    mixing_experiment,
    solo_paths,
    synchronous_coupling_experiment,
    warm_start,
)
from .noise import NoiseSpec, haar_cells
from .spectral import (
    DampingProfile,
    FourierField,
    Grid,
    ValidationError,
    hs_norm_sq,
    mode_weights,
    plane_wave,
    sobolev_norm,
    zero_field,
)
from . import store

_INITIAL_KINDS = ("zero", "constant", "plane_wave", "random_h1")
# damping kind -> the [solver] keys of its DampingProfile params, in order
_DAMPING_PARAMS = {"zero": (), "constant": ("damping_value",),
                   "bump": ("damping_amplitude", "damping_center", "damping_width")}

# section -> key -> (type, default), sections in canonical text order;
# types: int, float, str, bool, ints, floats
_SCHEMA = {
    "grid": {
        "k_max": ("int", 42),
    },
    "solver": {
        "dt": ("float", 2.0**-7),
        "p": ("int", 3),
        "store_stride": ("int", 1),
        "damping": ("str", "bump"),
        "damping_value": ("float", 0.1),
        "damping_amplitude": ("float", 1.5),
        "damping_center": ("float", math.pi),
        "damping_width": ("float", 1.5),
    },
    "noise": {
        "modes": ("ints", (0, 1)),
        "amplitudes": ("floats", (0.15, 0.15)),
        "haar_c": ("float", 0.5),
        "haar_q": ("float", 2.0),
        "level_max": ("int", 6),
    },
    "experiment": {
        "kind": ("str", "simulate"),
        "horizon": ("float", 1.0),
        "forced": ("bool", False),
        "n_steps": ("int", 60),
        "n_chains": ("int", 400),
        "initial": ("str", "plane_wave"),
        "initial_amplitude": ("float", 1.0),
        "initial_mode": ("int", 1),
        "initial_tail": ("float", 3.0),
        "initial_b": ("str", ""),
        "initial_b_amplitude": ("float", 1.0),
        "initial_b_mode": ("int", 0),
        "initial_b_tail": ("float", 3.0),
        "gamma": ("float", 1.0e-2),
        "time_level": ("int", 2),
        "galerkin_cutoff": ("int", 8),
        "target_cutoff": ("int", 2),
        "use_control": ("bool", False),
        "warm_steps": ("int", 5),
        "delta": ("float", 1.0e-3),
        "iterations": ("int", 3),
        "sat_modes": ("ints", (0, 1)),
        "probe_s": ("float", 1.25),
    },
    "run": {
        "seed": ("int", 0),
        "output_dir": ("str", "out"),
    },
}


def _parse_scalar(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind == "ints":
            return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
        if kind == "floats":
            return tuple(float(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValidationError("%s: cannot parse %r as %s" % (where, raw, kind))
    raise ValidationError("%s: unknown schema type %s" % (where, kind))


def _format_value(kind: str, value) -> str:
    if kind == "float":
        return repr(float(value))
    if kind == "bool":
        return "true" if value else "false"
    if kind == "ints":
        return ", ".join(str(int(v)) for v in value)
    if kind == "floats":
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def parse_config_text(text: str) -> dict:
    """Raw parse: {section: {key: value}} with schema typing and strict
    rejection of unknown sections/keys, duplicates, and stray lines."""
    sections = {name: {} for name in _SCHEMA}
    seen = set()
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise ValidationError("line %d: unknown section [%s]" % (lineno, name))
            current = name
            continue
        if "=" not in stripped:
            raise ValidationError("line %d: expected key = value, got %r" % (lineno, stripped))
        if current is None:
            raise ValidationError("line %d: key outside any [section]" % lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA[current]:
            raise ValidationError("line %d: unknown key %r in [%s]" % (lineno, key, current))
        if (current, key) in seen:
            raise ValidationError("line %d: duplicate key %r in [%s]" % (lineno, key, current))
        seen.add((current, key))
        kind = _SCHEMA[current][key][0]
        sections[current][key] = _parse_scalar(kind, raw, "line %d" % lineno)
    return _with_defaults(sections)


def _with_defaults(sections: dict) -> dict:
    """Every schema key, at its value in sections, or at its default where
    sections lacks the key or its whole section: the one place a config's
    defaults are filled in."""
    return {
        name: {key: sections.get(name, {}).get(key, default) for key, (_, default) in keys.items()}
        for name, keys in _SCHEMA.items()
    }


def _render(sections: dict) -> str:
    """The canonical text of sections' schema keys, in section order and
    sorted, each missing key or section at its default."""
    lines = []
    for name, keys in _with_defaults(sections).items():
        lines.append("[%s]" % name)
        for key in sorted(keys):
            lines.append("%s = %s" % (key, _format_value(_SCHEMA[name][key][0], keys[key])))
        lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: its canonical text, and the solver and
    noise built from it.  Every other setting is read from the text."""

    solver: SolverConfig
    noise: NoiseSpec
    text: str = field(repr=False)

    @property
    def sections(self) -> dict:
        """{section: {key: value}}, parsed afresh from the text."""
        return parse_config_text(self.text)

    @property
    def params(self) -> dict:
        return self.sections["experiment"]

    @property
    def kind(self) -> str:
        return self.params["kind"]

    @property
    def master_seed(self) -> int:
        return self.sections["run"]["seed"]

    @property
    def grid(self) -> Grid:
        return self.solver.grid

    def canonical_text(self) -> str:
        return self.text

    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def config_from_sections(sections: dict) -> ExperimentConfig:
    """Validate and build the config of sections' schema keys, each missing
    key or section at its default.  It keeps its own copy, parsed back from
    their rendering, and renders that copy again: the parser strips string
    values, so only then is the text a fixed point."""
    sections = parse_config_text(_render(sections))
    text = _render(sections)
    for name, keys in _SCHEMA.items():
        for key, (kind, _) in keys.items():
            value = sections[name][key]
            if kind in ("float", "floats") and not np.all(np.isfinite(value)):
                raise ValidationError("[%s] %s must be finite, got %r" % (name, key, value))
    grid = Grid(k_max=sections["grid"]["k_max"])
    sol = sections["solver"]
    name = sol["damping"]
    if name not in _DAMPING_PARAMS:
        raise ValidationError("damping must be one of %s, got %r" % (tuple(_DAMPING_PARAMS), name))
    damping = DampingProfile(grid, name, tuple(sol[key] for key in _DAMPING_PARAMS[name]))
    solver = SolverConfig(grid, damping, dt=sol["dt"], p=sol["p"], store_stride=sol["store_stride"])
    noise = NoiseSpec(**sections["noise"])  # the [noise] keys are its fields
    exp = sections["experiment"]
    if sections["run"]["seed"] < 0:
        raise ValidationError("seed must be >= 0, got %d" % sections["run"]["seed"])
    for key, low in (("n_chains", 1), ("n_steps", 0), ("warm_steps", 0)):
        if exp[key] < low:
            raise ValidationError("%s must be >= %d, got %d" % (key, low, exp[key]))
    kind = exp["kind"]
    if kind not in KINDS:
        raise ValidationError("experiment kind must be one of %s, got %r" % (KINDS, kind))
    if exp["initial"] not in _INITIAL_KINDS:
        raise ValidationError("initial must be one of %s" % (_INITIAL_KINDS,))
    if exp["initial_b"] and exp["initial_b"] not in _INITIAL_KINDS:
        raise ValidationError("initial_b must be one of %s or empty" % (_INITIAL_KINDS,))
    if kind == "decay" and exp["forced"]:
        # only simulate and smooth read the key; decay would ignore it
        raise ValidationError("decay runs unforced, so it takes no forced = true")
    forced = kind in ("simulate", "smooth") and exp["forced"]
    if kind in ("gramian", "stabilize", "couple", "mix") or forced:
        steps_per_cell(noise, solver)
    # the horizon a run solves over, and the unit paths that force it
    if kind in ("simulate", "decay", "smooth"):
        solver.steps_for(exp["horizon"])
    if forced:
        _forced_units(exp["horizon"])
    if kind == "mix" and not exp["initial_b"]:
        raise ValidationError("mix needs a second initial datum (initial_b)")
    # the control layout, checked by the functions that build it: Haar cells
    # on the solver steps, the Galerkin bands, and shifts on the noise cells
    controlled = kind == "stabilize" or (kind == "couple" and exp["use_control"])
    if kind == "gramian" or controlled:
        haar_cells(exp["time_level"], solver.steps_for(1.0))
        target = exp["target_cutoff"] if kind == "gramian" else 0
        check_bands(exp["galerkin_cutoff"], grid.k_max, target)
    if controlled:
        check_shift_level(exp["time_level"], noise)
        check_gamma(exp["gamma"])
    if kind == "saturate":
        saturation_base(exp["sat_modes"], exp["iterations"])
    if kind == "smooth" and solver.store_stride != 1:
        # the resonant phase integrates over every step of the run
        raise ValidationError(
            "smooth needs a run stored at every step, got store_stride %d" % solver.store_stride
        )
    cfg = ExperimentConfig(solver=solver, noise=noise, text=text)
    # the initial data the kind reads: cheap to build, so a mode outside the
    # band is refused here and not after the output directory exists
    if kind != "saturate":
        build_initial(cfg)
    if exp["initial_b"] and kind in ("couple", "mix"):
        build_initial(cfg, "b")
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return config_from_sections(parse_config_text(text))


def save_config(cfg: ExperimentConfig, path) -> None:
    store._write_atomic(path, cfg.canonical_text())


# ---------------------------------------------------------------------------
# initial data


def build_initial(cfg: ExperimentConfig, which: str = "a") -> FourierField:
    key, salt = ("initial", 0) if which == "a" else ("initial_b", 1)
    p = cfg.params
    name, amp, mode, tail = (p[key + suffix] for suffix in ("", "_amplitude", "_mode", "_tail"))
    grid = cfg.grid
    if name == "zero":
        return zero_field(grid)
    if name == "constant":
        return plane_wave(grid, 0, amp)
    if name == "plane_wave":
        return plane_wave(grid, mode, amp)
    if name == "random_h1":
        return random_h1_field(grid, amp, tail, cfg.master_seed, salt)
    raise ValidationError("unknown initial data kind %r" % (name,))


def random_h1_field(grid: Grid, amplitude: float, tail: float, seed: int, salt: int) -> FourierField:
    """Gaussian coefficients shaped by <k>^-tail, scaled to the target H1 norm."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 777, int(salt))))
    mag = mode_weights(grid.k_max, -tail / 2.0)
    z = rng.standard_normal(grid.n_coeff) + 1j * rng.standard_normal(grid.n_coeff)
    c = z * mag
    norm = math.sqrt(float(hs_norm_sq(c, 1.0)))
    if norm == 0.0:
        raise ValidationError("degenerate random draw")
    return FourierField(grid, c * (amplitude / norm))


# ---------------------------------------------------------------------------
# experiment dispatch


def _forced_units(horizon: float) -> int:
    """The number of unit paths a forced run over horizon takes: the one
    check that the horizon is an integer >= 1."""
    n_units = int(round(horizon))
    if abs(horizon - n_units) > 1e-9 or n_units < 1:
        raise ValidationError("forced runs need an integer horizon >= 1")
    return n_units


def _forcing_paths(cfg: ExperimentConfig):
    """The unit paths that force a run over cfg's horizon, or None unforced."""
    if not cfg.params["forced"]:
        return None
    return solo_paths(cfg.noise, cfg.master_seed, range(_forced_units(cfg.params["horizon"])))


def _run_simulate(cfg: ExperimentConfig, out: str) -> tuple:
    p = cfg.params
    u0 = build_initial(cfg)
    forcing = _forcing_paths(cfg)
    written = []
    for i, path_obj in enumerate(forcing or ()):
        fname = os.path.join(out, "noise_path_%03d.csv" % i)
        store.write_noise_path_csv(fname, path_obj)
        written.append(fname)
    traj = solve_nls(u0, forcing, p["horizon"], cfg.solver)
    csv_path = os.path.join(out, "trajectory.csv")
    bin_path = os.path.join(out, "trajectory.bin")
    store.write_trajectory_csv(csv_path, traj.times, traj.coeffs)
    store.write_trajectory_bin(bin_path, traj.times, traj.coeffs, cfg.grid)
    written.extend([csv_path, bin_path])
    return written, None


def _run_decay(cfg: ExperimentConfig, out: str) -> tuple:
    p = cfg.params
    report = decay_experiment(build_initial(cfg), p["horizon"], cfg.solver)
    curve = os.path.join(out, "decay_curve.csv")
    store.write_curve_csv(curve, ("t", "energy"), zip(report.times, report.energies))
    return [curve], report


def _warm_state(cfg: ExperimentConfig) -> tuple:
    """The warmed chain state y and the realization zeta of its next step."""
    p = cfg.params
    u0 = build_initial(cfg)
    y = warm_start(u0, p["warm_steps"], cfg.noise, cfg.solver, cfg.master_seed)
    (zeta,) = solo_paths(cfg.noise, cfg.master_seed, [p["warm_steps"]])
    return y, zeta


def _run_gramian(cfg: ExperimentConfig, out: str) -> tuple:
    p = cfg.params
    y, zeta = _warm_state(cfg)
    # the Gramian linearizes its base at every step
    base = solve_nls(y, zeta, 1.0, replace(cfg.solver, store_stride=1))
    report = assemble_gramian(
        base,
        cfg.noise.modes,
        p["time_level"],
        p["galerkin_cutoff"],
        target_cutoff=p["target_cutoff"],
    )
    return [], report


def _run_stabilize(cfg: ExperimentConfig, out: str) -> tuple:
    p = cfg.params
    y, zeta = _warm_state(cfg)
    bump = random_h1_field(cfg.grid, p["delta"], 2.0, cfg.master_seed, 3)
    x = y + bump
    report = contraction_test(
        y,
        x,
        zeta,
        p["gamma"],
        cfg.solver,
        time_level=p["time_level"],
        galerkin_cutoff=p["galerkin_cutoff"],
        seeds=(cfg.master_seed,),
    )
    return [], report


def _run_couple(cfg: ExperimentConfig, out: str) -> tuple:
    p = cfg.params
    y0 = build_initial(cfg)
    if p["initial_b"]:
        x0 = build_initial(cfg, "b")
    else:
        x0 = y0 + random_h1_field(cfg.grid, p["delta"], 2.0, cfg.master_seed, 2)
    report = synchronous_coupling_experiment(
        y0,
        x0,
        p["n_steps"],
        cfg.noise,
        cfg.solver,
        cfg.master_seed,
        use_control=p["use_control"],
        gamma=p["gamma"],
        time_level=p["time_level"],
        galerkin_cutoff=p["galerkin_cutoff"],
    )
    curve = os.path.join(out, "couple_curve.csv")
    store.write_curve_csv(
        curve,
        ("step", "separation", "ratio", "shift_norm"),
        zip(
            range(len(report.separations)),
            report.separations,
            [float("nan"), *report.ratios],
            [0.0, *report.shift_norms],
        ),
    )
    return [curve], report


def _run_mix(cfg: ExperimentConfig, out: str) -> tuple:
    p = cfg.params
    report = mixing_experiment(
        build_initial(cfg, "a"),
        build_initial(cfg, "b"),
        p["n_chains"],
        p["n_steps"],
        cfg.noise,
        cfg.solver,
        cfg.master_seed,
    )
    report.config_digest = cfg.digest()
    curve = os.path.join(out, "mix_curve.csv")
    store.write_curve_csv(
        curve,
        ("step", "distance", "alt_distance"),
        zip(range(len(report.distances)), report.distances, report.alt_distances),
    )
    return [curve], report


def _run_saturate(cfg: ExperimentConfig, out: str) -> tuple:
    p = cfg.params
    final, interval = saturation_span(frozenset(p["sat_modes"]), p["iterations"])
    payload = {
        "base": sorted(int(k) for k in p["sat_modes"]),
        "iterations": int(p["iterations"]),
        "modes": sorted(int(k) for k in final),
        "interval": [int(interval[0]), int(interval[1])],
    }
    return [], payload


def _run_smooth(cfg: ExperimentConfig, out: str) -> tuple:
    p = cfg.params
    u0 = build_initial(cfg)
    horizon = p["horizon"]
    traj = solve_nls(u0, _forcing_paths(cfg), horizon, cfg.solver)
    rem = trajectory_remainder(traj, horizon)
    s = p["probe_s"]
    payload = {
        "t": float(horizon),
        "probe_s": float(s),
        "initial_hs": sobolev_norm(u0, s),
        "endpoint_hs": sobolev_norm(traj.endpoint, s),
        "remainder_h1": sobolev_norm(rem, 1.0),
        "remainder_hs": sobolev_norm(rem, s),
    }
    return [], payload


# Each runner writes its data files into the output directory and returns
# (their paths, the report or None); run_experiment writes the report.
_RUNNERS = {
    "simulate": _run_simulate,
    "decay": _run_decay,
    "gramian": _run_gramian,
    "stabilize": _run_stabilize,
    "couple": _run_couple,
    "mix": _run_mix,
    "saturate": _run_saturate,
    "smooth": _run_smooth,
}
KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig, out_dir=None, seed=None) -> store.RunManifest:
    """Execute cfg's experiment, write its outputs and manifest, return the
    manifest.  seed/out_dir override the [run] section without editing it."""
    sections = cfg.sections
    if seed is not None:
        sections["run"]["seed"] = int(seed)
        cfg = config_from_sections(sections)
    out = str(out_dir) if out_dir is not None else sections["run"]["output_dir"]
    if not out:
        raise ValidationError("the output directory is empty: set [run] output_dir or --out")
    os.makedirs(out, exist_ok=True)
    # a manifest left by an earlier run must not vouch for this run's outputs
    mpath = os.path.join(out, "manifest.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(mpath)
    manifest = store.RunManifest(
        kind=cfg.kind,
        config_digest=cfg.digest(),
        master_seed=cfg.master_seed,
        started_at=store.utc_stamp(),
    )
    written, report = _RUNNERS[cfg.kind](cfg, out)
    if report is not None:
        jpath = os.path.join(out, "%s.json" % cfg.kind)
        store.write_json_report(jpath, report)
        written.append(jpath)
    for path in written:
        manifest.add_output(path)
    manifest.finished_at = store.utc_stamp()
    store.write_manifest(mpath, manifest)
    return manifest
