"""Config parsing, experiment dispatch, persistence, and the CLI surface."""

import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schrodmix
from schrodmix import BlowUpError, NoiseSpec, SolverConfig, ValidationError, sobolev_norm
from schrodmix import bump_damping, cli, markov_step_batch, solve_nls, store
from schrodmix.config import (
    KINDS,
    build_initial,
    config_from_sections,
    load_config,
    parse_config_text,
    random_h1_field,
    read_keys,
    run_experiment,
    save_config,
)
from schrodmix.dynamics import energy_series, pad_points
from schrodmix.linearized import control_response_matrix
from schrodmix.noise import NoisePath, sample_noise_paths
from schrodmix.spectral import DAMPING_PARAMS, DampingProfile, Grid, synth

ROOT = pathlib.Path(__file__).resolve().parents[1]

_BASE = {
    "grid": {"k_max": 20},
    "solver": {
        "dt": 2.0**-7,
        "damping": "bump",
        "damping_amplitude": 1.0,
        "damping_center": math.pi,
        "damping_width": 1.5,
    },
    "noise": {"modes": "0, 1", "amplitudes": "0.1, 0.1", "level_max": 6},
    "experiment": {
        "kind": "simulate",
        "horizon": 1.0,
        "initial": "plane_wave",
        "initial_amplitude": 0.5,
        "initial_mode": 1,
    },
    "run": {"seed": 3, "output_dir": "out"},
}


def _text(sections):
    return "".join(
        "[%s]\n" % sec + "".join("%s = %s\n" % kv for kv in keys.items()) + "\n"
        for sec, keys in sections.items()
    )


def make_text(overrides=None):
    """The text of overrides over _BASE.  A base key that the config does
    not read (read_keys of its values) is left out, so an unread key is set
    only where a test's overrides set it."""
    overrides = overrides or {}
    merged = {sec: dict(kv) for sec, kv in _BASE.items()}
    for sec, kv in overrides.items():
        merged.setdefault(sec, {}).update(kv)
    try:
        sections = parse_config_text(_text(merged))
    except ValidationError:  # an unknown key or value: the test's own subject
        return _text(merged)
    if sections["experiment"]["kind"] not in KINDS:
        return _text(merged)
    read = read_keys(sections)
    return _text({
        sec: {k: v for k, v in kv.items() if k in read[sec] or k in overrides.get(sec, {})}
        for sec, kv in merged.items()
    })


def write_cfg(tmp_path, overrides=None, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(make_text(overrides))
    return path


# ---------------------------------------------------------------------------
# parsing and validation


def test_empty_text_gives_defaults():
    sections = parse_config_text("")
    assert sections["grid"] == {"k_max": 42}
    assert sections["solver"]["p"] == 3
    assert sections["noise"]["modes"] == (0, 1)
    cfg = config_from_sections(sections)
    assert cfg.kind == "simulate"
    assert cfg.master_seed == 0
    assert cfg.digest() == config_from_sections(parse_config_text("")).digest()
    assert len(cfg.digest()) == 64


def test_comments_blank_lines_and_spacing():
    text = "# leading comment\n\n[grid]\n  k_max =  20 \n\n[solver]\np=5\n"
    sections = parse_config_text(text)
    assert sections["grid"] == {"k_max": 20}
    assert sections["solver"]["p"] == 5


def test_save_load_round_trip(tmp_path):
    path = write_cfg(
        tmp_path,
        {
            "solver": {"damping": "constant", "damping_value": 0.3, "store_stride": 16},
            "noise": {"modes": "0, 1", "amplitudes": "0.1, 0.2", "level_max": 5},
            "experiment": {"kind": "simulate", "forced": "true", "horizon": 2.0,
                           "initial": "random_h1"},
            "run": {"seed": 7, "output_dir": "elsewhere"},
        },
    )
    cfg = load_config(path)
    out = tmp_path / "canon.txt"
    save_config(cfg, out)
    again = load_config(out)
    assert again == cfg
    assert again.digest() == cfg.digest()
    assert again.sections == cfg.sections


def test_canonical_text_is_insensitive_to_input_order(tmp_path):
    a = parse_config_text("[grid]\nk_max = 20\n[solver]\np = 5\ndt = 0.0078125\n")
    b = parse_config_text("[solver]\ndt = 0.0078125\np = 5\n[grid]\nk_max = 20\n")
    assert config_from_sections(a).text == config_from_sections(b).text


def _reloaded(cfg):
    return config_from_sections(parse_config_text(cfg.text))


@pytest.mark.parametrize("extra", ["n_points", "list_modes", "spaced_string"])
def test_config_equals_its_reload_from_canonical_text(extra):
    """A config built from a dict equals the config its own canonical text
    loads, whatever else the dict held or however it typed a value."""
    sections = parse_config_text(make_text())
    if extra == "n_points":
        sections["grid"]["n_points"] = 128  # outside the schema: not kept
    elif extra == "list_modes":
        sections["noise"]["modes"] = [0, 1]
    else:
        sections["run"]["output_dir"] = "  out  "  # the parser strips it
    cfg = config_from_sections(sections)
    again = _reloaded(cfg)
    assert again == cfg and len({cfg, again}) == 1
    assert again.text == cfg.text
    assert again.digest() == cfg.digest()
    assert again.sections == cfg.sections
    assert "n_points" not in cfg.sections["grid"]


def test_config_shares_nothing_with_the_dict_it_was_built_from():
    sections = parse_config_text(make_text())
    cfg = config_from_sections(sections)
    text, digest, solver = cfg.text, cfg.digest(), cfg.solver
    params = cfg.params
    sections["solver"]["dt"] = 2.0**-8
    sections["experiment"]["n_steps"] = 7
    sections["run"]["seed"] = 11
    assert cfg.text == text and cfg.digest() == digest
    assert cfg.solver == solver and cfg.solver.dt == 2.0**-7
    assert cfg.params == params and cfg.params["n_steps"] == 60
    assert cfg.master_seed == 3


def test_config_hands_out_copies():
    cfg = config_from_sections(parse_config_text(make_text()))
    text = cfg.text
    cfg.params["n_steps"] = 7
    cfg.sections["solver"]["dt"] = 2.0**-8
    cfg.sections["run"]["output_dir"] = "elsewhere"
    assert cfg.text == text
    assert cfg.params["n_steps"] == 60
    assert cfg.sections == parse_config_text(text)


@pytest.mark.parametrize("section, key", [("solver", "p"), ("noise", None)])
def test_missing_key_or_section_takes_its_default(section, key):
    """A dict that lacks a schema key or a whole section builds the config of
    a text that omits it: the key, or every key of the section, at its default."""
    overrides = {"solver": {"p": 5}, "noise": {"level_max": 5}, "experiment": {"forced": "true"}}
    sections = parse_config_text(make_text(overrides))
    want = parse_config_text(make_text(overrides))
    defaults = parse_config_text("")
    if key is None:
        del sections[section]
        want[section] = defaults[section]
    else:
        del sections[section][key]
        want[section][key] = defaults[section][key]
    cfg = config_from_sections(sections)
    assert cfg.sections == want
    assert cfg == _reloaded(cfg)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEG = st.floats(0.0, 1e6)
# splitlines() separators cannot sit inside a config line
_LINE_TEXT = st.text(st.characters(codec="utf-8", exclude_categories=("Cc", "Zl", "Zp")))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_canonical_text_round_trip_keeps_the_digest(tmp_path_factory, data):
    """Any valid config of the keys its kind reads, its floats spelled in
    any exact form, rebuilds from its canonical text with the same digest,
    and loads back from the file save_config writes."""
    draw = data.draw
    modes = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3, unique=True))
    kind = draw(st.sampled_from(KINDS))
    # the control kinds' default layout (time_level 2, galerkin_cutoff 8)
    # must fit the noise cells and the grid band
    control = kind in ("gramian", "stabilize", "couple")
    k_max = draw(st.integers(8 if control else 5, 63))
    p = draw(st.sampled_from((3, 5, 7)))
    dt = 2.0 ** -draw(st.integers(7, 10))
    # a run's horizon is a multiple of dt, and a forced run's an integer;
    # decay runs unforced
    forced = kind != "decay" and draw(st.booleans())
    # couple reads the control keys only with use_control; a realized
    # control divides by each noise amplitude and needs a positive gamma
    use_control = kind == "couple" and draw(st.booleans())
    shifted = kind == "stabilize" or use_control
    if kind in ("simulate", "smooth") and forced:
        horizon = float(draw(st.integers(1, 10**6)))
    elif kind in ("simulate", "decay", "smooth"):
        horizon = draw(st.integers(1, 2**40)) * dt
    else:
        horizon = draw(_FINITE)
    sections = {
        "grid": {"k_max": k_max},
        "solver": {
            "dt": dt,
            "p": p,
            "store_stride": draw(st.integers(1, 64)),
            "damping": draw(st.sampled_from(("zero", "constant", "bump"))),
            "damping_value": draw(_NONNEG),
            "damping_amplitude": draw(_NONNEG),
            "damping_center": draw(st.floats(-10.0, 10.0)),
            # at least the spacing of the padded grid the solver samples a(x) on
            "damping_width": draw(st.floats(2 * math.pi / pad_points(k_max, p), math.pi,
                                            exclude_max=True)),
        },
        "noise": {
            "modes": tuple(modes),
            "amplitudes": tuple(draw(st.floats(0.0, 1e6, exclude_min=shifted)) for _ in modes),
            "haar_c": draw(_NONNEG),
            "haar_q": draw(st.floats(1.0, 1e6, exclude_min=True)),
            "level_max": draw(st.integers(2 if control else 1, 6)),
        },
        "experiment": {
            "kind": kind,
            "forced": forced,
            "n_steps": draw(st.integers(0, 10**6)),
            "n_chains": draw(st.integers(1, 10**6)),
            "use_control": use_control,
            "initial": draw(st.sampled_from(("zero", "constant", "plane_wave", "random_h1"))),
            # mix compares the chains from two initial data
            "initial_b": draw(st.sampled_from(("zero", "constant", "plane_wave", "random_h1")
                                              if kind == "mix" else
                                              ("", "zero", "constant", "plane_wave", "random_h1"))),
            # each datum's parameters, read by its kind; built at load, so
            # inside the band and of a size that does not overflow
            **{key + "_amplitude": draw(st.floats(-1e3, 1e3)) for key in ("initial", "initial_b")},
            **{key + "_mode": draw(st.integers(-k_max, k_max)) for key in ("initial", "initial_b")},
            **{key + "_tail": draw(st.floats(0.0, 10.0)) for key in ("initial", "initial_b")},
            "delta": draw(_FINITE),
            "horizon": horizon,
            # the control's Tikhonov weight is positive where it is used
            "gamma": draw(st.floats(0.0, 1e300, exclude_min=True) if shifted else _FINITE),
            "probe_s": draw(_FINITE),
            # saturate iterates from a nonempty base set
            "sat_modes": tuple(draw(st.lists(st.integers(-(2**40), 2**40),
                                             min_size=1 if kind == "saturate" else 0,
                                             max_size=4))),
        },
        "run": {"seed": draw(st.integers(0, 2**63)), "output_dir": draw(_LINE_TEXT)},
    }

    def spell(value):
        if isinstance(value, bool):
            return draw(st.sampled_from(("true", "yes", "1") if value else ("false", "no", "0")))
        if isinstance(value, float):
            return draw(st.sampled_from(("%r", "%.17e", "%.17g"))) % value
        if isinstance(value, tuple):
            return ", ".join(spell(v) for v in value)
        return str(value)

    read = read_keys(sections)
    text = "".join(
        "[%s]\n" % name
        + "".join("%s = %s\n" % (k, spell(v)) for k, v in keys.items() if k in read[name])
        for name, keys in sections.items()
    )
    cfg = config_from_sections(parse_config_text(text))
    again = config_from_sections(parse_config_text(cfg.text))
    assert again.text == cfg.text
    assert again.digest() == cfg.digest()
    assert again.sections == cfg.sections
    path = tmp_path_factory.mktemp("saved") / "cfg.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValidationError, match="line 1: unknown section"):
        parse_config_text("[bogus]")
    with pytest.raises(ValidationError, match="line 2: unknown key 'widgets'"):
        parse_config_text("[grid]\nwidgets = 3")
    with pytest.raises(ValidationError, match="line 3: duplicate key 'k_max'"):
        parse_config_text("[grid]\nk_max = 20\nk_max = 20")
    with pytest.raises(ValidationError, match="line 2: expected key = value"):
        parse_config_text("[grid]\nnonsense")
    with pytest.raises(ValidationError, match="line 1: key outside any"):
        parse_config_text("k_max = 20")
    with pytest.raises(ValidationError, match="cannot parse 'fish' as int"):
        parse_config_text("[grid]\nk_max = fish")
    with pytest.raises(ValidationError, match="as bool"):
        parse_config_text("[experiment]\nforced = maybe")
    with pytest.raises(ValidationError, match="as floats"):
        parse_config_text("[noise]\namplitudes = a, b")


def test_q_at_most_one_is_rejected():
    text = make_text({"noise": {"haar_q": 1.0}, "experiment": {"forced": "true"}})
    with pytest.raises(ValidationError, match="q > 1"):
        config_from_sections(parse_config_text(text))


def test_dt_must_divide_noise_cells():
    text = make_text(
        {"noise": {"level_max": 7}, "experiment": {"forced": "true", "horizon": 1.0}}
    )
    with pytest.raises(ValidationError, match="SolverConfig/NoiseSpec cross constraint"):
        config_from_sections(parse_config_text(text))


@pytest.mark.parametrize("kind", KINDS)
def test_every_noise_drawing_kind_checks_the_cross_constraint_at_load(kind):
    # 128 solver steps per unit against 256 noise cells: a kind that draws
    # noise (simulate and smooth forced) is refused at load, before any
    # solve; a kind that reads no [noise] refuses the key itself
    experiment = {"kind": kind, "forced": "true", "initial_b": "constant", "n_steps": 1,
                  "n_chains": 2}
    reads = read_keys(parse_config_text(make_text({"experiment": experiment})))["experiment"]
    text = make_text(
        {"noise": {"level_max": 7}, "experiment": {k: v for k, v in experiment.items() if k in reads}}
    )
    with pytest.raises(ValidationError) as info:
        config_from_sections(parse_config_text(text))
    if kind in ("decay", "saturate"):
        assert "%s reads no [noise] level_max" % kind in str(info.value)
    else:
        assert "SolverConfig/NoiseSpec cross constraint" in str(info.value)


def test_smooth_needs_every_step_stored_at_load():
    # the resonant phase integrates over every step, so smooth stores every
    # step itself, reads no store_stride and refuses a coarser one before it
    # solves anything
    text = make_text({"experiment": {"kind": "smooth", "horizon": 2.0}, "solver": {"store_stride": 4}})
    with pytest.raises(ValidationError, match=r"smooth reads no \[solver\] store_stride"):
        config_from_sections(parse_config_text(text))
    config_from_sections(parse_config_text(make_text({"experiment": {"kind": "smooth"}})))
    config_from_sections(parse_config_text(make_text({"solver": {"store_stride": 4}})))


# each was refused only after the warm-up, the base solve and the control
# sweep, or, for the negative keys, with a message that did not name them
_BAD_CONTROL = {
    "stabilize_finer_than_noise": ({"kind": "stabilize", "time_level": 3}, "finer than the noise"),
    "controlled_couple_finer_than_noise": (
        {"kind": "couple", "use_control": "true", "time_level": 3, "n_steps": 1},
        "finer than the noise"),
    "cutoff_above_band": ({"kind": "stabilize", "galerkin_cutoff": 21}, "exceeds the stored band"),
    "target_above_cutoff": ({"kind": "gramian", "target_cutoff": 9}, "exceeds the Galerkin band"),
    # 128 solver steps per unit cannot carry the 256 cells of level 7
    "gramian_finer_than_steps": ({"kind": "gramian", "time_level": 7}, "divisible by 256, got 128"),
    # the gramian used to end in an IndexError after the control sweep
    "negative_target_cutoff": (
        {"kind": "gramian", "target_cutoff": -3}, "target cutoff must be >= 0, got -3"),
    "negative_galerkin_cutoff": (
        {"kind": "stabilize", "galerkin_cutoff": -2}, "cutoff must be >= 0, got -2"),
    "negative_time_level": ({"kind": "gramian", "time_level": -1}, "Haar level must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONTROL))
def test_bad_control_layout_is_refused_at_load(case, tmp_path, capsys):
    experiment, match = _BAD_CONTROL[case]
    overrides = {"noise": {"level_max": 2}, "experiment": experiment}
    path = write_cfg(tmp_path, overrides)
    out = tmp_path / "o"
    assert cli.main([experiment["kind"], "--config", str(path), "--out", str(out)]) == 2
    assert match in capsys.readouterr().err
    # run_experiment makes the output directory first, so the config was
    # refused at load
    assert not out.exists()


# each exited 2 only after run_experiment had made the output directory and
# removed any manifest in it
_BAD_RUN = {
    "forced_simulate_half_unit": (
        {"kind": "simulate", "forced": "true", "horizon": 1.5}, "integer horizon >= 1"),
    "forced_smooth_half_unit": (
        {"kind": "smooth", "forced": "true", "horizon": 1.5}, "integer horizon >= 1"),
    "mix_without_second_datum": ({"kind": "mix"}, "second initial datum (initial_b)"),
    "decay_off_the_steps": ({"kind": "decay", "horizon": 1.001}, "not an integer multiple of dt"),
    "simulate_off_the_steps": ({"kind": "simulate", "horizon": 0.001}, "not an integer multiple"),
    # horizon / dt overflows to inf: this one ended in an OverflowError
    "decay_past_the_floats": ({"kind": "decay", "horizon": 1e308}, "not an integer multiple"),
}


@pytest.mark.parametrize("case", sorted(_BAD_RUN))
def test_bad_run_is_refused_before_the_output_directory(case, tmp_path, capsys):
    experiment, match = _BAD_RUN[case]
    path = write_cfg(tmp_path, {"experiment": experiment})
    out = tmp_path / "o"
    assert cli.main([experiment["kind"], "--config", str(path), "--out", str(out)]) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


# settings that moved the config digest and no output value: case ->
# (overrides, the section and key, the condition the refusal names)
_DO_NOTHING = {
    "uncontrolled_couple_gamma": (
        {"experiment": {"kind": "couple", "gamma": 5.0}}, ("experiment", "gamma"),
        "couple without use_control"),
    "couple_with_initial_b_delta": (
        {"experiment": {"kind": "couple", "initial_b": "random_h1", "delta": 0.5}},
        ("experiment", "delta"), "couple with initial_b"),
    "plane_wave_tail": (
        {"experiment": {"kind": "simulate", "initial_tail": 1.0}}, ("experiment", "initial_tail"),
        "initial plane_wave"),
    "couple_without_initial_b_tail": (
        {"experiment": {"kind": "couple", "initial_b_tail": 1.0}}, ("experiment", "initial_b_tail"),
        "couple without initial_b"),
    **{
        "%s_store_stride" % kind: (
            {"experiment": {"kind": kind, **extra}, "solver": {"store_stride": 4}},
            ("solver", "store_stride"), kind)
        for kind, extra in (("couple", {}), ("gramian", {}), ("stabilize", {}),
                            ("mix", {"initial_b": "zero"}))
    },
    "saturate_k_max": (
        {"experiment": {"kind": "saturate"}, "grid": {"k_max": 30}}, ("grid", "k_max"), "saturate"),
    "saturate_dt": (
        {"experiment": {"kind": "saturate"}, "solver": {"dt": 2.0**-8}}, ("solver", "dt"), "saturate"),
}


@pytest.mark.parametrize("case", sorted(_DO_NOTHING))
def test_do_nothing_setting_is_refused_at_load(case, tmp_path, capsys):
    """A key the config does not read exits 2 at load naming the key and
    the condition; at its default it loads to the digest of the config
    without it."""
    overrides, (section, key), why = _DO_NOTHING[case]
    path = write_cfg(tmp_path, overrides)
    out = tmp_path / "o"
    kind = overrides["experiment"]["kind"]
    assert cli.main([kind, "--config", str(path), "--out", str(out)]) == 2
    assert "%s reads no [%s] %s" % (why, section, key) in capsys.readouterr().err
    assert not out.exists()
    at_default = {sec: dict(kv) for sec, kv in overrides.items()}
    at_default[section][key] = repr(parse_config_text("")[section][key])
    without = {sec: dict(kv) for sec, kv in overrides.items()}
    del without[section][key]
    digests = [config_from_sections(parse_config_text(make_text(o))).digest()
               for o in (at_default, without)]
    assert digests[0] == digests[1]


# each exited 2 only after run_experiment had made the output directory and
# removed the manifest of the run before; decay used to run forced = true
# as if it were false.  case -> ([experiment] keys, message[, other sections])
_LATE_REFUSAL = {
    "saturate_negative_iterations": ({"kind": "saturate", "iterations": -1}, "iterations must be >= 0"),
    "saturate_without_modes": ({"kind": "saturate", "sat_modes": ""}, "base set must be nonempty"),
    "stabilize_zero_gamma": ({"kind": "stabilize", "gamma": 0.0}, "gamma must be positive"),
    "couple_control_negative_gamma": (
        {"kind": "couple", "use_control": "true", "gamma": -1.0, "n_steps": 1},
        "gamma must be positive"),
    "initial_mode_outside_band": ({"kind": "simulate", "initial_mode": 21}, "mode 21 outside band"),
    "initial_b_mode_outside_band": (
        {"kind": "couple", "n_steps": 1, "initial_b": "plane_wave", "initial_b_mode": -30},
        "mode -30 outside band"),
    "forced_decay": ({"kind": "decay", "forced": "true"}, "decay reads no [experiment] forced"),
    # the removed tau0 key: a negative one loaded and then failed after the
    # warm-up with "group time must be nonnegative"
    "stabilize_tau0": ({"kind": "stabilize", "tau0": -0.5}, "unknown key 'tau0'"),
    "couple_control_tau0": (
        {"kind": "couple", "use_control": "true", "tau0": -0.5, "n_steps": 1},
        "unknown key 'tau0'"),
    # a control on a mode without noise cannot be realized as a noise shift;
    # this was found only after the warm-up
    "stabilize_zero_amplitude": (
        {"kind": "stabilize"}, "mode 0 has zero noise amplitude", {"noise": {"amplitudes": "0.0, 0.1"}}),
    "couple_control_zero_amplitude": (
        {"kind": "couple", "use_control": "true", "n_steps": 1}, "mode 1 has zero noise amplitude",
        {"noise": {"amplitudes": "0.1, 0.0"}}),
    # the removed n_points key, which no computation read: such a run wrote
    # the same outputs at any value
    "grid_n_points": ({"kind": "simulate"}, "unknown key 'n_points'", {"grid": {"n_points": 64}}),
}


@pytest.mark.parametrize("case", sorted(_LATE_REFUSAL))
def test_bad_config_keeps_the_earlier_manifest(case, tmp_path, capsys):
    experiment, match, *other = _LATE_REFUSAL[case]  # other: overrides of other sections
    path = write_cfg(tmp_path, dict(*other, experiment=experiment))
    out = tmp_path / "o"
    argv = [experiment["kind"], "--config", str(path), "--out", str(out)]
    assert cli.main(argv) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()
    out.mkdir()
    manifest = out / "manifest.json"
    manifest.write_text("the run before")
    assert cli.main(argv) == 2
    assert match in capsys.readouterr().err
    assert manifest.read_text() == "the run before"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_control_keys_are_checked_only_where_used():
    # gramian realizes no shift, so its Haar level may pass level_max
    text = make_text({"noise": {"level_max": 2}, "experiment": {"kind": "gramian", "time_level": 3}})
    config_from_sections(parse_config_text(text))
    # couple without control builds no map and reads no control key, so a
    # layout that would not fit is refused as unread, not as a bad layout
    experiment = {"kind": "couple", "time_level": 7, "galerkin_cutoff": 99}
    text = make_text({"noise": {"level_max": 2}, "experiment": experiment})
    with pytest.raises(ValidationError,
                       match=r"^couple without use_control reads no \[experiment\] time_level"):
        config_from_sections(parse_config_text(text))


def test_noise_mode_outside_band_rejected():
    text = make_text(
        {"noise": {"modes": "0, 25", "amplitudes": "0.1, 0.1"}, "experiment": {"kind": "gramian"}}
    )
    with pytest.raises(ValidationError, match="outside the grid band"):
        config_from_sections(parse_config_text(text))


def test_unknown_kind_and_initial_rejected():
    with pytest.raises(ValidationError, match="experiment kind"):
        config_from_sections(parse_config_text(make_text({"experiment": {"kind": "dance"}})))
    with pytest.raises(ValidationError, match="initial must be one of"):
        config_from_sections(parse_config_text(make_text({"experiment": {"initial": "wavelet"}})))
    with pytest.raises(ValidationError, match="initial_b must be one of"):
        config_from_sections(
            parse_config_text(make_text({"experiment": {"kind": "couple", "initial_b": "wavelet"}}))
        )


def test_build_initial_variants(tmp_path):
    cfg = load_config(
        write_cfg(
            tmp_path,
            {
                "experiment": {
                    "kind": "couple",
                    "initial": "constant",
                    "initial_amplitude": 2.0,
                    "initial_b": "plane_wave",
                    "initial_b_amplitude": 0.7,
                    "initial_b_mode": 2,
                }
            },
        )
    )
    a = build_initial(cfg)
    np.testing.assert_allclose(synth(a.coeffs, 64), 2.0, rtol=1e-12)
    b = build_initial(cfg, "b")
    assert abs(b.coeff(2)) > 0.0
    np.testing.assert_allclose(sobolev_norm(b, 0.0), 0.7 * math.sqrt(2.0 * math.pi), rtol=1e-12)


def test_random_h1_field_normalization_and_determinism():
    grid = Grid(20)
    f = random_h1_field(grid, 0.8, 3.0, 11, 0)
    np.testing.assert_allclose(sobolev_norm(f, 1.0), 0.8, rtol=1e-12)
    g = random_h1_field(grid, 0.8, 3.0, 11, 0)
    np.testing.assert_array_equal(f.coeffs, g.coeffs)
    h = random_h1_field(grid, 0.8, 3.0, 11, 1)
    assert not np.array_equal(f.coeffs, h.coeffs)


# ---------------------------------------------------------------------------
# persistence


def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 1.0, 5)
    coeffs = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
    path = tmp_path / "traj.csv"
    store.write_trajectory_csv(path, times, coeffs)
    t2, c2 = store.read_trajectory_csv(path)
    np.testing.assert_array_equal(t2, times)
    np.testing.assert_array_equal(c2, coeffs)


@pytest.mark.filterwarnings("error")
def test_trajectory_csv_errors(tmp_path):
    with pytest.raises(ValidationError, match="coeffs must be"):
        store.write_trajectory_csv(tmp_path / "x.csv", [0.0], np.zeros(3, dtype=complex))
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n")
    with pytest.raises(ValidationError, match="unexpected trajectory CSV header"):
        store.read_trajectory_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("t,mode,re,im\n")
    t, c = store.read_trajectory_csv(empty)
    assert t.shape == (0,) and c.shape == (0, 0)


def test_trajectory_bin_round_trip_and_corruption(tmp_path):
    grid = Grid(4)
    rng = np.random.default_rng(1)
    times = np.array([0.0, 0.5, 1.0])
    coeffs = rng.standard_normal((3, grid.n_coeff)) + 1j * rng.standard_normal((3, grid.n_coeff))
    path = tmp_path / "traj.bin"
    store.write_trajectory_bin(path, times, coeffs, grid)
    t2, c2, g2 = store.read_trajectory_bin(path)
    np.testing.assert_array_equal(t2, times)
    np.testing.assert_array_equal(c2, coeffs)
    assert g2 == grid

    raw = path.read_bytes()
    short = tmp_path / "short.bin"
    short.write_bytes(raw[:8])
    with pytest.raises(ValidationError, match="truncated"):
        store.read_trajectory_bin(short)
    magic = tmp_path / "magic.bin"
    magic.write_bytes(b"XMIX" + raw[4:])
    with pytest.raises(ValidationError, match="bad magic"):
        store.read_trajectory_bin(magic)
    band = tmp_path / "band.bin"
    band.write_bytes(raw[:6] + bytes([raw[6] ^ 1]) + raw[7:])
    with pytest.raises(ValidationError, match="band size inconsistent"):
        store.read_trajectory_bin(band)
    chopped = tmp_path / "chopped.bin"
    chopped.write_bytes(raw[:-8])
    with pytest.raises(ValidationError, match="length does not match"):
        store.read_trajectory_bin(chopped)


def test_noise_path_csv_round_trip(tmp_path):
    spec = NoiseSpec(amplitudes=(0.1, 0.1))
    (z,) = sample_noise_paths(spec, [(5, 0, 0, 0)])
    path = tmp_path / "noise.csv"
    store.write_noise_path_csv(path, z)
    back = store.read_noise_path_csv(path, spec)
    np.testing.assert_array_equal(back.cells, z.cells)

    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(["x,y,z"] + lines[1:]) + "\n")
    with pytest.raises(ValidationError, match="unexpected noise CSV header"):
        store.read_noise_path_csv(bad, spec)
    missing = tmp_path / "missing.csv"
    missing.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValidationError, match="does not cover every"):
        store.read_noise_path_csv(missing, spec)
    other = NoiseSpec(modes=(0, 2), amplitudes=(0.1, 0.1))
    with pytest.raises(ValidationError, match="mode 1 not in the noise spec"):
        store.read_noise_path_csv(path, other)


def test_noise_path_csv_rejects_repeated_cell(tmp_path):
    spec = NoiseSpec(amplitudes=(0.1, 0.1))
    (z,) = sample_noise_paths(spec, [(5, 0, 0, 0)])
    path = tmp_path / "noise.csv"
    store.write_noise_path_csv(path, z)
    lines = path.read_text().splitlines()
    lines[2] = lines[1]  # the row count stays right, one (cell, mode) is missing
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="repeats cell"):
        store.read_noise_path_csv(path, spec)


def test_noise_path_csv_rejects_wrong_t_left(tmp_path):
    spec = NoiseSpec(amplitudes=(0.1, 0.1))
    (z,) = sample_noise_paths(spec, [(5, 0, 0, 0)])
    path = tmp_path / "noise.csv"
    store.write_noise_path_csv(path, z)
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    assert fields[:2] == ["1", "0.0078125"]  # cell 1 of 128 starts at t = 1/128
    fields[1] = "0.9"
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="row 3: t_left 0.9 is not the left end of cell 1"):
        store.read_noise_path_csv(path, spec)


def test_trajectory_csv_rejects_repeated_mode(tmp_path):
    times = np.array([0.0, 0.5])
    coeffs = np.arange(10.0).reshape(2, 5) + 1j
    path = tmp_path / "traj.csv"
    store.write_trajectory_csv(path, times, coeffs)
    lines = path.read_text().splitlines()
    lines[8] = lines[7]  # the second block lists one mode twice and misses one
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="mode repeats"):
        store.read_trajectory_csv(path)


def test_trajectory_csv_refuses_an_even_width(tmp_path):
    # an even width has no band -K..K, so the reader would refuse the file
    path = tmp_path / "traj.csv"
    store.write_trajectory_csv(path, [0.0], np.ones((1, 3), dtype=complex))
    before = path.read_bytes()
    for width in (4, 0):
        with pytest.raises(ValidationError, match=r"width %d is not 2K\+1" % width):
            store.write_trajectory_csv(path, [0.0, 0.5], np.ones((2, width), dtype=complex))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


def test_trajectory_csv_refuses_zero_states(tmp_path):
    # a header alone reads back as shape (0, 0): the band would be lost
    path = tmp_path / "traj.csv"
    with pytest.raises(ValidationError, match="at least one state"):
        store.write_trajectory_csv(path, np.zeros(0), np.zeros((0, 5), dtype=complex))
    assert list(tmp_path.iterdir()) == []


def test_trajectory_bin_reads_a_container_with_a_point_count(tmp_path):
    """The header's last slot is reserved: written as 0 and never read, so a
    container that holds a point count there, as older writers left one,
    reads back bit for bit."""
    grid = Grid(4)
    rng = np.random.default_rng(2)
    times = np.array([0.0, 0.25])
    coeffs = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
    path = tmp_path / "traj.bin"
    store.write_trajectory_bin(path, times, coeffs, grid)
    body = times.astype("<f8").tobytes() + coeffs.astype("<c16").tobytes()
    head = struct.Struct("<4sBBHIHH")
    assert path.read_bytes() == head.pack(b"SMIX", 1, 0, 9, 2, 4, 0) + body
    old = tmp_path / "old.bin"
    old.write_bytes(head.pack(b"SMIX", 1, 0, 9, 2, 4, 128) + body)
    t2, c2, g2 = store.read_trajectory_bin(old)
    assert t2.tobytes() == times.tobytes() and c2.tobytes() == coeffs.tobytes()
    assert g2 == grid


def test_trajectory_csv_reader_checks_in_order(tmp_path):
    times = np.array([0.0, 0.5])
    coeffs = np.arange(6.0).reshape(2, 3) + 1j * np.arange(6.0, 12.0).reshape(2, 3)
    path = tmp_path / "traj.csv"
    store.write_trajectory_csv(path, times, coeffs)
    header, *rows = path.read_text().splitlines()

    def read(lines):
        path.write_text("\n".join([header, *lines]) + "\n")
        return store.read_trajectory_csv(path)

    # a block may list its modes in any order
    t, c = read([rows[2], rows[0], rows[1], rows[4], rows[5], rows[3]])
    assert t.tobytes() == times.tobytes() and c.tobytes() == coeffs.tobytes()
    with pytest.raises(ValidationError, match="does not cover a symmetric band"):
        read([rows[0], rows[2], rows[3], rows[5]])  # mode 0 nowhere
    with pytest.raises(ValidationError, match="does not cover a symmetric band"):
        read([r.replace(",-1,", ",2,") for r in rows])  # modes 0..2
    with pytest.raises(ValidationError, match="not a multiple of the band size"):
        read(rows[:5])
    mixed = rows[:4] + [rows[4].replace("0.5,", "0.25,", 1), rows[5]]
    with pytest.raises(ValidationError, match="mixed times inside one block"):
        read(mixed)
    # a repeated mode is reported before a mixed time
    with pytest.raises(ValidationError, match="a mode repeats"):
        read(mixed[:5] + [rows[0]])


TRAJECTORY_GOLDEN = (
    "t,mode,re,im\n"
    "0,-1,nan,-0\n"
    "0,0,inf,4.9406564584124654e-324\n"
    "0,1,-inf,1\n"
    "0.10000000000000001,-1,-0,inf\n"
    "0.10000000000000001,0,0.33333333333333331,-inf\n"
    "0.10000000000000001,1,2.5000000000000171e-310,nan\n"
)

NOISE_GOLDEN = (
    "cell_index,t_left,mode_k,re,im\n"
    "0,0,1,nan,-0\n"
    "0,0,0,-inf,0.33333333333333331\n"
    "1,0.25,1,4.9406564584124654e-324,inf\n"
    "1,0.25,0,-0,0\n"
    "2,0.5,1,0.25,0\n"
    "2,0.5,0,2,0\n"
    "3,0.75,1,0,1\n"
    "3,0.75,0,3,0\n"
)

CURVE_GOLDEN = (
    "step,a,b,c\n"
    "0,0.33333333333333331,nan,0\n"
    "1,-0,inf,4.9406564584124654e-324\n"
    "2,-inf,2,1\n"
)


def test_csv_writers_golden_bytes(tmp_path):
    nan, inf = float("nan"), float("inf")
    coeffs = np.array(
        [
            [complex(nan, -0.0), complex(inf, 5e-324), complex(-inf, 1.0)],
            [complex(-0.0, inf), complex(1 / 3, -inf), complex(2.5e-310, nan)],
        ]
    )
    path = tmp_path / "traj.csv"
    store.write_trajectory_csv(path, [0.0, 0.1], coeffs)
    assert path.read_bytes() == TRAJECTORY_GOLDEN.encode()
    t, c = store.read_trajectory_csv(path)
    assert t.tobytes() == np.array([0.0, 0.1]).tobytes()
    assert c.tobytes() == coeffs.tobytes()

    spec = NoiseSpec(modes=(1, 0), amplitudes=(0.1, 0.1), level_max=1)
    cells = np.array(
        [
            [complex(nan, -0.0), complex(5e-324, inf), 0.25, 1j],
            [complex(-inf, 1 / 3), complex(-0.0, 0.0), 2, 3],
        ]
    )
    path = tmp_path / "noise.csv"
    store.write_noise_path_csv(path, NoisePath(spec, cells))
    assert path.read_bytes() == NOISE_GOLDEN.encode()
    assert store.read_noise_path_csv(path, spec).cells.tobytes() == cells.tobytes()

    path = tmp_path / "curve.csv"
    rows = [(0, 1 / 3, nan, 0.0), (1, np.float64(-0.0), inf, 5e-324), (np.int64(2), -inf, 2.0, 1)]
    store.write_curve_csv(path, ("step", "a", "b", "c"), iter(rows))
    assert path.read_bytes() == CURVE_GOLDEN.encode()
    store.write_curve_csv(path, ("step", "a"), [])
    assert path.read_bytes() == b"step,a\n"


def _damage_row(path, row, damage, mode_col):
    """Rewrite one data row of a CSV table: drop its last field, make its
    first field non-numeric, start it with '#' (which opens no comment), or
    give its mode a fractional part."""
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    if damage == "short_row":
        fields.pop()
    elif damage == "non_numeric":
        fields[0] = "x"
    elif damage == "comment":
        fields[0] = "#" + fields[0]
    else:
        fields[mode_col] += ".5"
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


_DAMAGE = ["short_row", "non_numeric", "comment", "fractional_mode"]


@pytest.mark.parametrize("damage", _DAMAGE)
def test_trajectory_csv_rejects_malformed_row(tmp_path, damage):
    path = tmp_path / "traj.csv"
    store.write_trajectory_csv(path, [0.0, 0.5], np.arange(6.0).reshape(2, 3) + 1j)
    _damage_row(path, 4, damage, mode_col=1)
    with pytest.raises(ValidationError, match="trajectory CSV"):
        store.read_trajectory_csv(path)


@pytest.mark.parametrize("damage", _DAMAGE)
def test_noise_path_csv_rejects_malformed_row(tmp_path, damage):
    spec = NoiseSpec(amplitudes=(0.1, 0.1), level_max=1)
    (z,) = sample_noise_paths(spec, [(5, 0, 0, 0)])
    path = tmp_path / "noise.csv"
    store.write_noise_path_csv(path, z)
    _damage_row(path, 3, damage, mode_col=2)
    with pytest.raises(ValidationError, match="noise CSV"):
        store.read_noise_path_csv(path, spec)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_trajectory_round_trips_are_bitwise(tmp_path_factory, data):
    """CSV and binary round trips keep every bit, -0.0, infinities and
    subnormals included; only a NaN's sign and payload are not kept by the
    text form, which has one spelling for NaN."""
    k_max = data.draw(st.integers(1, 3))
    n_stored = data.draw(st.integers(1, 4))
    n = n_stored * (2 * k_max + 1)
    times = np.array(data.draw(st.lists(_FLOATS, min_size=n_stored, max_size=n_stored)))
    parts = np.array(data.draw(st.lists(_FLOATS, min_size=2 * n, max_size=2 * n)))
    coeffs = np.empty((n_stored, 2 * k_max + 1), dtype=np.complex128)
    coeffs.real = parts[:n].reshape(coeffs.shape)
    coeffs.imag = parts[n:].reshape(coeffs.shape)
    times[np.isnan(times)] = 0.0  # a NaN time can never equal its block's time
    grid = Grid(k_max)
    tmp = tmp_path_factory.mktemp("rt")
    store.write_trajectory_bin(tmp / "t.bin", times, coeffs, grid)
    t_bin, c_bin, _ = store.read_trajectory_bin(tmp / "t.bin")
    assert t_bin.tobytes() == times.tobytes() and c_bin.tobytes() == coeffs.tobytes()
    store.write_trajectory_csv(tmp / "t.csv", times, coeffs)
    t_csv, c_csv = store.read_trajectory_csv(tmp / "t.csv")
    canonical = np.where(np.isnan(coeffs.view(float)), np.nan, coeffs.view(float))
    assert t_csv.tobytes() == times.tobytes()
    assert c_csv.view(float).tobytes() == canonical.tobytes()


def test_manifest_digests_and_round_trip(tmp_path):
    blob = tmp_path / "blob.txt"
    blob.write_text("payload\n")
    m = store.RunManifest(kind="simulate", config_digest="d" * 64, master_seed=4)
    m.add_output(blob)
    assert m.outputs[0]["path"] == "blob.txt"
    assert m.outputs[0]["sha256"] == store.file_digest(blob)
    assert m.outputs[0]["bytes"] == 8
    mpath = tmp_path / "manifest.json"
    store.write_manifest(mpath, m)
    assert store.read_json_report(mpath) == store.report_dict(m)
    back = store.read_manifest(mpath)
    assert back.kind == "simulate"
    assert back.config_digest == m.config_digest
    assert back.outputs == m.outputs
    assert m.version == back.version == schrodmix.__version__


def test_pyproject_declares_the_package_version():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    declared = re.search(r'^version\s*=\s*"([^"]*)"\s*$', project, re.M).group(1)
    assert declared == schrodmix.__version__


def test_a_run_imports_no_packaging_metadata(tmp_path):
    # the manifest's version is __version__, so no run imports the packaging
    # metadata stack or scans sys.path for installed distributions
    cfg = write_cfg(tmp_path, {"experiment": {"kind": "saturate"}})
    code = (
        "import sys\n"
        "from schrodmix.config import load_config, run_experiment\n"
        "m = run_experiment(load_config(sys.argv[1]), out_dir=sys.argv[2])\n"
        "print(m.version, *[n for n in ('importlib.metadata', 'email') if n in sys.modules])\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.stdout.split() == [schrodmix.__version__]


def test_read_manifest_names_missing_fields(tmp_path):
    mpath = tmp_path / "manifest.json"
    store.write_json_report(mpath, {"kind": "simulate", "master_seed": 4})
    with pytest.raises(ValidationError, match="config_digest"):
        store.read_manifest(mpath)
    store.write_json_report(mpath, {"kind": "simulate"})
    with pytest.raises(ValidationError, match="config_digest, master_seed"):
        store.read_manifest(mpath)


# ---------------------------------------------------------------------------
# experiment runners


def run_kind(tmp_path, overrides, subdir):
    cfg = load_config(write_cfg(tmp_path, overrides, name="%s.txt" % subdir))
    out = tmp_path / subdir
    manifest = run_experiment(cfg, out_dir=out)
    names = [rec["path"] for rec in manifest.outputs]
    for rec in manifest.outputs:
        assert store.file_digest(out / rec["path"]) == rec["sha256"]
    assert (out / "manifest.json").exists()
    return cfg, out, manifest, names


def test_run_simulate_unforced(tmp_path):
    cfg, out, manifest, names = run_kind(tmp_path, None, "sim")
    assert names == ["trajectory.csv", "trajectory.bin"]
    t_csv, c_csv = store.read_trajectory_csv(out / "trajectory.csv")
    t_bin, c_bin, grid = store.read_trajectory_bin(out / "trajectory.bin")
    np.testing.assert_array_equal(t_csv, t_bin)
    np.testing.assert_array_equal(c_csv, c_bin)
    assert grid == cfg.grid
    assert len(t_bin) == cfg.solver.steps_for(1.0) + 1


def test_run_simulate_forced_writes_noise(tmp_path):
    overrides = {"experiment": {"forced": "true", "horizon": 2.0}}
    cfg, out, manifest, names = run_kind(tmp_path, overrides, "simf")
    assert names == [
        "noise_path_000.csv",
        "noise_path_001.csv",
        "trajectory.csv",
        "trajectory.bin",
    ]
    back = store.read_noise_path_csv(out / "noise_path_000.csv", cfg.noise)
    assert back.cells.shape == (2, cfg.noise.n_cells)


def test_run_simulate_zero_everything(tmp_path):
    overrides = {
        "solver": {"damping": "zero"},
        "experiment": {"initial": "zero", "horizon": 1.0},
    }
    _, out, _, names = run_kind(tmp_path, overrides, "simz")
    _, coeffs = store.read_trajectory_csv(out / "trajectory.csv")
    np.testing.assert_array_equal(coeffs, 0.0)


def test_run_decay(tmp_path):
    overrides = {
        "solver": {"store_stride": 16},
        "experiment": {"kind": "decay", "horizon": 2.0, "initial": "random_h1"},
    }
    _, out, _, names = run_kind(tmp_path, overrides, "decay")
    assert names == ["decay_curve.csv", "decay.json"]
    d = store.read_json_report(out / "decay.json")
    assert not d["degenerate"]
    assert d["beta_hat"] > 0


def test_run_gramian(tmp_path):
    overrides = {
        "experiment": {
            "kind": "gramian",
            "warm_steps": 1,
            "time_level": 2,
            "galerkin_cutoff": 6,
            "target_cutoff": 2,
        }
    }
    cfg, out, _, names = run_kind(tmp_path, overrides, "gram")
    assert names == ["gramian.json"]
    d = store.read_json_report(out / "gramian.json")
    assert len(d["eigenvalues"]) == 2 * (2 * 6 + 1)
    assert d["quadrature_steps"] == cfg.solver.steps_for(1.0)
    assert d["target_subspace_min_eig"] > 0


def test_run_stabilize(tmp_path):
    overrides = {
        "experiment": {
            "kind": "stabilize",
            "warm_steps": 1,
            "galerkin_cutoff": 6,
            "gamma": 1.0e-2,
        }
    }
    _, out, _, names = run_kind(tmp_path, overrides, "stab")
    assert names == ["stabilize.json"]
    d = store.read_json_report(out / "stabilize.json")
    assert d["q_ratio"] > 0
    assert isinstance(d["success"], bool)


def test_run_couple(tmp_path):
    overrides = {"experiment": {"kind": "couple", "n_steps": 3, "initial": "random_h1"}}
    _, out, _, names = run_kind(tmp_path, overrides, "couple")
    assert names == ["couple_curve.csv", "couple.json"]
    d = store.read_json_report(out / "couple.json")
    assert len(d["separations"]) == 4
    assert len(d["ratios"]) == 3


def test_run_mix(tmp_path):
    overrides = {
        "experiment": {
            "kind": "mix",
            "n_chains": 8,
            "n_steps": 2,
            "initial": "constant",
            "initial_amplitude": 1.0,
            "initial_b": "random_h1",
            "initial_b_amplitude": 0.4,
        }
    }
    cfg, out, _, names = run_kind(tmp_path, overrides, "mix")
    assert names == ["mix_curve.csv", "mix.json"]
    d = store.read_json_report(out / "mix.json")
    assert d["config_digest"] == cfg.digest()
    assert len(d["distances"]) == 3


def test_run_mix_requires_second_datum(tmp_path):
    with pytest.raises(ValidationError, match="initial_b"):
        load_config(write_cfg(tmp_path, {"experiment": {"kind": "mix"}}, name="m2.txt"))


def test_run_saturate_interval(tmp_path):
    overrides = {"experiment": {"kind": "saturate", "sat_modes": "0, 1", "iterations": 3}}
    _, out, _, names = run_kind(tmp_path, overrides, "sat")
    assert names == ["saturate.json"]
    d = store.read_json_report(out / "saturate.json")
    assert d["modes"] == list(range(-3, 5))
    assert d["interval"] == [-3, 4]


def test_run_smooth(tmp_path):
    overrides = {"experiment": {"kind": "smooth", "horizon": 1.0, "probe_s": 1.25}}
    _, out, _, names = run_kind(tmp_path, overrides, "smooth")
    assert names == ["smooth.json"]
    d = store.read_json_report(out / "smooth.json")
    assert d["probe_s"] == 1.25
    assert d["remainder_hs"] >= 0.0


def test_seed_override_changes_digest_not_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"experiment": {"initial": "random_h1"}}))
    m0 = run_experiment(cfg, out_dir=tmp_path / "s0")
    m5 = run_experiment(cfg, out_dir=tmp_path / "s5", seed=5)
    assert cfg.master_seed == 3
    assert m5.master_seed == 5
    assert m0.config_digest != m5.config_digest
    traj0 = [r for r in m0.outputs if r["path"] == "trajectory.csv"][0]
    traj5 = [r for r in m5.outputs if r["path"] == "trajectory.csv"][0]
    assert traj0["sha256"] != traj5["sha256"]


def test_rerun_reproduces_output_digests(tmp_path):
    overrides = {"experiment": {"forced": "true", "initial": "random_h1", "horizon": 1.0}}
    cfg = load_config(write_cfg(tmp_path, overrides))
    m1 = run_experiment(cfg, out_dir=tmp_path / "r1")
    m2 = run_experiment(cfg, out_dir=tmp_path / "r2")
    digests1 = {rec["path"]: rec["sha256"] for rec in m1.outputs}
    digests2 = {rec["path"]: rec["sha256"] for rec in m2.outputs}
    assert digests1 == digests2
    assert m1.config_digest == m2.config_digest


def test_failed_rerun_leaves_no_manifest(tmp_path):
    out = tmp_path / "used"
    run_kind(tmp_path, {"experiment": {"kind": "saturate"}}, "used")
    blow = load_config(write_cfg(tmp_path, {"experiment": {"initial_amplitude": 1.0e8}}))
    with pytest.raises(BlowUpError):
        run_experiment(blow, out_dir=out)
    assert not (out / "manifest.json").exists()
    assert (out / "saturate.json").exists()


_WRITERS = {
    "trajectory_csv": lambda p, v: store.write_trajectory_csv(p, [0.0], np.full((1, 3), v + 0j)),
    "trajectory_bin": lambda p, v: store.write_trajectory_bin(
        p, [0.0], np.full((1, 3), v + 0j), Grid(1)
    ),
    "curve_csv": lambda p, v: store.write_curve_csv(p, ("step", "x"), [(0, v)]),
    "noise_csv": lambda p, v: store.write_noise_path_csv(
        p, NoisePath(NoiseSpec(amplitudes=(0.1, 0.1), level_max=1), np.full((2, 4), v + 0j))
    ),
    "json": lambda p, v: store.write_json_report(p, {"a": v}),
    "config": lambda p, v: save_config(
        config_from_sections(parse_config_text(make_text({"run": {"seed": v}}))), p
    ),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_output_write_is_atomic(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    _WRITERS[writer](path, 1)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(store.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        _WRITERS[writer](path, 2)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_output_write_interrupted_mid_stream(tmp_path, monkeypatch, writer):
    # the second chunk written fails (the only one, for a writer whose
    # output is one chunk): the earlier file stays whole and no .tmp remains
    path = tmp_path / "out"
    writes = []
    fail_at = [None]

    class FailingFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            writes.append(chunk)
            if len(writes) == fail_at[0]:
                raise OSError("disk full")
            return self.fh.write(chunk)

    monkeypatch.setattr(store, "open", lambda *a, **k: FailingFile(open(*a, **k)), raising=False)
    _WRITERS[writer](path, 1)
    before = path.read_bytes()
    assert len(writes) >= 2 or writer in ("json", "config")
    fail_at[0] = min(2, len(writes))
    writes.clear()
    with pytest.raises(OSError, match="disk full"):
        _WRITERS[writer](path, 2)
    assert len(writes) == fail_at[0]
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([(0, 1.0), (1.5, 2.0)], "1.5"),
        ([(0, 1.0), (2**60 + 1, 2.0)], "1152921504606846977"),
        ([(0, 1.0), (-(2**53), 2.0)], "-9007199254740992"),
        ([(0, 1.0), (float("nan"), 2.0)], "nan"),
        ([(0, 1.0), (float("-inf"), 2.0)], "-inf"),
        # in the second chunk of rows, after the first reached the .tmp
        ([(i, 0.5) for i in range(store._TABLE_CHUNK)] + [(0.25, 0.5)], "0.25"),
    ],
)
def test_curve_csv_refuses_inexact_integer_column(tmp_path, rows, bad):
    path = tmp_path / "curve.csv"
    store.write_curve_csv(path, ("step", "x"), [(0, 1.0), (2**53 - 1, -3)])
    before = path.read_bytes()
    assert before == b"step,x\n0,1\n9007199254740991,-3\n"
    with pytest.raises(ValidationError, match=r"column 'step' holds %s," % re.escape(bad)):
        store.write_curve_csv(path, ("step", "x"), rows)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv"]


# trajectory_io's stored run: 641 states at k_max 42
_IO_SHAPE = (641, 85)


def _traced_peak_mib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "what, bound_mib",
    [
        ("write_trajectory_csv", 1.5),
        ("write_trajectory_bin", 0.2),
        ("read_trajectory_csv", 3.0),
        ("read_trajectory_bin", 1.0),
        ("file_digest", 0.25),
        ("energy_series", 1.6),
    ],
)
def test_trajectory_io_memory_bounds(tmp_path, what, bound_mib):
    # the store layer streams and energy_series synthesizes small blocks:
    # no whole-run text, byte string or padded block is ever held
    rng = np.random.default_rng(19)
    times = np.arange(_IO_SHAPE[0]) * 2.0**-5
    coeffs = 0.1 * (rng.standard_normal(_IO_SHAPE) + 1j * rng.standard_normal(_IO_SHAPE))
    grid = Grid(42)
    csv, bin_ = tmp_path / "t.csv", tmp_path / "t.bin"
    store.write_trajectory_csv(csv, times, coeffs)
    store.write_trajectory_bin(bin_, times, coeffs, grid)
    call = {
        "write_trajectory_csv": (store.write_trajectory_csv, csv, times, coeffs),
        "write_trajectory_bin": (store.write_trajectory_bin, bin_, times, coeffs, grid),
        "read_trajectory_csv": (store.read_trajectory_csv, csv),
        "read_trajectory_bin": (store.read_trajectory_bin, bin_),
        "file_digest": (store.file_digest, csv),
        "energy_series": (energy_series, coeffs, 3),
    }[what]
    assert _traced_peak_mib(*call) < bound_mib


@pytest.mark.parametrize(
    "what, bound_mib",
    [("markov_step_batch", 1.75), ("control_response_matrix", 1.10)],
)
def test_stepping_memory_bounds(what, bound_mib):
    # a sweep holds two padded blocks, the padded spectrum and the physical
    # grid, and the forward FFT writes over the block its substep returns:
    # a 64-row ensemble block at k_max 42, and a 61-row control sweep (60
    # columns at time level 3, cutoff 12, and a separation row)
    grid = Grid(42)
    spec = NoiseSpec(modes=(0, 1), amplitudes=(0.5, 0.5), level_max=6)
    cfg = SolverConfig(grid, bump_damping(grid, 1.5, math.pi, 1.5), dt=2.0**-7)
    if what == "markov_step_batch":
        paths = sample_noise_paths(spec, [(5, 0, i, 0) for i in range(64)])
        block = np.stack([random_h1_field(grid, 0.35, 2.2, 60 + i, 0).coeffs for i in range(64)])
        call = (markov_step_batch, block, paths, cfg)
    else:
        u0 = random_h1_field(grid, 1.0, 3.0, 7, 0)
        base = solve_nls(u0, sample_noise_paths(spec, [(7, 0, 0, 0)])[0], 1.0, cfg)
        w = random_h1_field(grid, 1.0, 3.0, 8, 0) - base.state(0)
        call = (control_response_matrix, base, (0, 1), 3, 12, w)
    # the first call builds the cached step tables and the base's tangent
    # coefficients; the bound is on the sweep alone
    call[0](*call[1:])
    assert _traced_peak_mib(*call) < bound_mib


# ---------------------------------------------------------------------------
# command line


def sat_config(tmp_path):
    overrides = {"experiment": {"kind": "saturate", "sat_modes": "0, 1", "iterations": 3}}
    return write_cfg(tmp_path, overrides, name="sat.txt")


def test_cli_success(tmp_path, capsys):
    path = sat_config(tmp_path)
    ret = cli.main(["saturate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert ret == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "wrote 1 file(s)" in out
    assert "saturate" in out


def test_cli_kind_mismatch(tmp_path, capsys):
    path = sat_config(tmp_path)
    ret = cli.main(["decay", "--config", str(path), "--out", str(tmp_path / "o2")])
    assert ret == cli.EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_cli_invalid_config(tmp_path, capsys):
    overrides = {"noise": {"haar_q": 0.5}, "experiment": {"forced": "true"}}
    path = write_cfg(tmp_path, overrides, name="badq.txt")
    ret = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o3")])
    assert ret == cli.EXIT_VALIDATION
    assert "q > 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, extra",
    [
        ({"experiment": {"initial": "random_h1"}, "run": {"seed": -1}}, []),
        ({"experiment": {"initial": "random_h1"}}, ["--seed", "-5"]),
        ({"experiment": {"kind": "mix", "initial_b": "random_h1", "n_chains": 0}}, []),
        ({"experiment": {"kind": "couple", "n_steps": -1}}, []),
        ({"experiment": {"kind": "gramian", "warm_steps": -1}}, []),
        ({"experiment": {"kind": "mix", "initial_b": "random_h1", "n_steps": -2}}, []),
    ],
    ids=["seed", "seed_flag", "n_chains", "couple_n_steps", "warm_steps", "mix_n_steps"],
)
def test_cli_rejects_out_of_range_counts(tmp_path, capsys, overrides, extra):
    path = write_cfg(tmp_path, overrides, name="counts.txt")
    kind = overrides["experiment"].get("kind", "simulate")
    out = tmp_path / "o"
    ret = cli.main([kind, "--config", str(path), "--out", str(out)] + extra)
    assert ret == cli.EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"experiment": {"kind": "smooth", "probe_s": "nan"}},
        {"experiment": {"forced": "true"}, "noise": {"haar_c": "nan"}},
        {"noise": {"amplitudes": "0.1, inf"}},
        {"solver": {"damping_amplitude": "-inf"}},
        {"solver": {"damping_center": "nan"}},
        {"experiment": {"horizon": "inf"}},
    ],
    ids=["probe_s", "haar_c", "amplitudes", "damping_amplitude", "damping_center", "horizon"],
)
def test_cli_rejects_non_finite_floats(tmp_path, capsys, overrides):
    path = write_cfg(tmp_path, overrides, name="finite.txt")
    kind = overrides.get("experiment", {}).get("kind", "simulate")
    out = tmp_path / "o"
    ret = cli.main([kind, "--config", str(path), "--out", str(out)])
    assert ret == cli.EXIT_VALIDATION
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cli_rejects_bump_narrower_than_grid_spacing(tmp_path, capsys):
    # k_max 20 at p = 3 steps on the 90-point padded grid
    overrides = {"solver": {"damping": "bump", "damping_width": 1e-3}}
    path = write_cfg(tmp_path, overrides, name="narrow.txt")
    out = tmp_path / "o"
    ret = cli.main(["simulate", "--config", str(path), "--out", str(out)])
    assert ret == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "below the grid spacing 2pi/90" in err and "0.001" in err
    assert repr(2 * math.pi / 90) in err
    assert not out.exists()


def test_damping_keys_are_the_damping_table():
    # each [solver] damping_<name> key is a parameter of a kind in the table,
    # and each parameter has its key
    solver = parse_config_text("")["solver"]
    keys = {k for k in solver if k.startswith("damping_")}
    assert keys == {"damping_" + n for names in DAMPING_PARAMS.values() for n in names}


def test_cli_unknown_damping_kind_is_the_library_refusal(tmp_path, capsys):
    path = write_cfg(tmp_path, {"solver": {"damping": "ramp"}}, name="ramp.txt")
    out = tmp_path / "o"
    ret = cli.main(["simulate", "--config", str(path), "--out", str(out)])
    assert ret == cli.EXIT_VALIDATION
    with pytest.raises(ValidationError) as info:
        DampingProfile(Grid(20), "ramp")
    err = capsys.readouterr().err
    assert str(info.value) in err and "('zero', 'constant', 'bump')" in err
    assert not out.exists()


def test_bump_width_floor_reads_the_padded_grid():
    """At k_max 42 the floor is 2pi/180 at p = 3 and 2pi/256 at p = 5,
    whatever point count a caller still passes in memory."""
    def sections(width, p=3):
        return parse_config_text(make_text({"grid": {"k_max": 42},
                                            "solver": {"p": p, "damping_width": width}}))

    # 0.02 damps one point of either padded grid; an extra n_points entry,
    # which used to let it load, is not read
    for p in (3, 5):
        wide = sections(0.02, p)
        wide["grid"]["n_points"] = 512
        with pytest.raises(ValidationError, match="below the grid spacing"):
            config_from_sections(wide)
    # 0.04 damps three points of the 180-point grid, so it loads there
    narrow = sections(0.04)
    narrow["grid"]["n_points"] = 128
    cfg = config_from_sections(narrow)
    assert np.count_nonzero(cfg.solver._tab.decay < 1.0) == 3
    assert "n_points" not in cfg.text
    assert cfg.digest() == config_from_sections(sections(0.04)).digest()


@pytest.mark.parametrize("kind", ["simulate", "smooth"])
def test_cli_forced_run_needs_integer_horizon(tmp_path, capsys, kind):
    overrides = {"experiment": {"kind": kind, "forced": "true", "horizon": 1.5}}
    path = write_cfg(tmp_path, overrides, name="forced.txt")
    out = tmp_path / "o"
    ret = cli.main([kind, "--config", str(path), "--out", str(out)])
    assert ret == cli.EXIT_VALIDATION
    assert "forced runs need an integer horizon >= 1" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cli_smooth_needs_every_step_stored(tmp_path, capsys):
    overrides = {"experiment": {"kind": "smooth", "horizon": 2.0}, "solver": {"store_stride": 4}}
    path = write_cfg(tmp_path, overrides, name="stride.txt")
    out = tmp_path / "o"
    ret = cli.main(["smooth", "--config", str(path), "--out", str(out)])
    assert ret == cli.EXIT_VALIDATION
    assert "smooth reads no [solver] store_stride" in capsys.readouterr().err
    assert not (out / "manifest.json").exists() and not (out / "smooth.json").exists()


def test_cli_blow_up(tmp_path, capsys):
    path = write_cfg(
        tmp_path, {"experiment": {"initial_amplitude": 1.0e8}}, name="blow.txt"
    )
    ret = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o4")])
    assert ret == cli.EXIT_BLOWUP
    assert "blow-up" in capsys.readouterr().err


def test_cli_io_failures(tmp_path, capsys):
    ret = cli.main(["simulate", "--config", str(tmp_path / "nowhere.txt")])
    assert ret == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    blob = tmp_path / "blob"
    blob.write_text("x")
    path = sat_config(tmp_path)
    ret = cli.main(["saturate", "--config", str(path), "--out", str(blob)])
    assert ret == cli.EXIT_IO


def test_cli_empty_output_dir_is_a_validation_error(tmp_path, capsys, monkeypatch):
    """An empty [run] output_dir used to exit 4 with "No such file or
    directory: ''"; --out may still name a directory for it."""
    monkeypatch.chdir(tmp_path)
    overrides = {"experiment": {"kind": "saturate", "sat_modes": "0, 1", "iterations": 3},
                 "run": {"output_dir": ""}}
    path = write_cfg(tmp_path, overrides, name="sat.txt")
    (tmp_path / "manifest.json").write_text("the run before")
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(["saturate", "--config", str(path)]) == cli.EXIT_VALIDATION
    assert "output directory is empty" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "manifest.json").read_text() == "the run before"
    out = tmp_path / "o"
    assert cli.main(["saturate", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "manifest.json").exists() and (out / "saturate.json").exists()


def test_kinds_all_have_runners():
    from schrodmix.config import _KINDS

    assert tuple(_KINDS) == KINDS
    assert all(callable(spec.run) for spec in _KINDS.values())


# each kind once at a tiny size, with both values of each flag its row
# reads (forced, use_control, initial_b), and every kind of initial datum
_TABLE_RUNS = [
    ("simulate", {}),
    ("simulate", {"forced": "true", "initial": "zero"}),
    ("decay", {"initial": "constant"}),
    ("gramian", {"warm_steps": 1, "galerkin_cutoff": 4, "initial": "random_h1"}),
    ("stabilize", {"warm_steps": 1, "galerkin_cutoff": 4}),
    ("couple", {"n_steps": 1}),
    ("couple", {"n_steps": 1, "use_control": "true", "galerkin_cutoff": 4}),
    ("couple", {"n_steps": 1, "initial_b": "random_h1"}),
    ("mix", {"n_chains": 2, "n_steps": 1, "initial_b": "zero"}),
    ("saturate", {}),
    ("smooth", {}),
    ("smooth", {"forced": "true"}),
]


def test_kind_table_is_what_the_runners_read(tmp_path, monkeypatch):
    """Each run reads through cfg.params exactly the [experiment] keys that
    read_keys gives for its config, and touches cfg.noise exactly where
    read_keys says it reads [noise]; the runs take every kind of initial
    datum and both values of every flag in the table."""
    from schrodmix.config import _KINDS, INITIAL_PARAMS, ExperimentConfig, When

    configs = [
        load_config(write_cfg(tmp_path, {"experiment": {"kind": kind, **experiment}},
                              name="table_%d.txt" % i))
        for i, (kind, experiment) in enumerate(_TABLE_RUNS)
    ]
    reads, noise = set(), []

    class Recording(dict):
        def __getitem__(self, key):
            reads.add(key)
            return dict.__getitem__(self, key)

    # the configs are built: a property now stands in for the noise field
    monkeypatch.setattr(ExperimentConfig, "params",
                        property(lambda cfg: Recording(cfg.sections["experiment"])))
    monkeypatch.setattr(ExperimentConfig, "noise",
                        property(lambda cfg: noise.append(1) or cfg.__dict__["noise"]),
                        raising=False)
    flags, initials = set(), set()
    for i, cfg in enumerate(configs):
        reads.clear()
        noise.clear()
        run_experiment(cfg, out_dir=tmp_path / ("run_%d" % i))
        read = read_keys(cfg.sections)
        assert reads == set(read["experiment"]), (cfg.kind, reads ^ set(read["experiment"]))
        assert bool(noise) == bool(read["noise"]), cfg.kind
        exp = dict.copy(cfg.params)
        flags |= {(cfg.kind, w.flag, bool(exp[w.flag]))
                  for w in _KINDS[cfg.kind].reads if isinstance(w, When)}
        initials |= {exp[key] for key in ("initial", "initial_b") if key in reads}
    assert {cfg.kind for cfg in configs} == set(KINDS)
    assert flags == {(kind, w.flag, on) for kind, spec in _KINDS.items()
                     for w in spec.reads if isinstance(w, When) for on in (False, True)}
    assert initials - {""} == set(INITIAL_PARAMS)
