"""The one report serializer: store.report_dict and store.report_from_dict."""

import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodmix import (
    CouplingReport,
    DecayReport,
    GramianReport,
    MixReport,
    StabilizationReport,
    ValidationError,
    report_dict,
    report_from_dict,
)
from schrodmix.store import RunManifest

NAN = math.nan

# One instance per report class, with numpy scalars, an int in a float field
# and a NaN, next to the dict the per-class writers produced for it.
GOLDEN = [
    (
        DecayReport(
            times=np.array([0.0, 0.5, 1.0]),
            energies=np.array([2.0, 1.5, 1.25]),
            beta_hat=np.float64(0.25),
            r_value=-1,
            window_start=np.int64(1),
            degenerate=np.bool_(False),
            horizon=1,
        ),
        {
            "beta_hat": 0.25,
            "degenerate": False,
            "energies": [2.0, 1.5, 1.25],
            "horizon": 1.0,
            "r_value": -1.0,
            "times": [0.0, 0.5, 1.0],
            "window_start": 1,
        },
    ),
    (
        MixReport(
            distances=np.array([0.5, 0.25, 0.125]),
            alt_distances=np.array([0.375, 0.1875, 0.0625]),
            noise_floor=np.float64(0.1),
            fit_stop=np.int64(2),
            gamma_hat=0.6931471805599453,
            alt_gamma_hat=NAN,
            r_value=np.float32(-0.5),
            below_floor_step=-1,
            n_chains=np.int64(70),
            n_steps=2,
            master_seed=3,
            config_digest="ab" * 32,
        ),
        {
            "alt_distances": [0.375, 0.1875, 0.0625],
            "alt_gamma_hat": NAN,
            "below_floor_step": -1,
            "config_digest": "ab" * 32,
            "distances": [0.5, 0.25, 0.125],
            "fit_stop": 2,
            "gamma_hat": 0.6931471805599453,
            "master_seed": 3,
            "n_chains": 70,
            "n_steps": 2,
            "noise_floor": 0.1,
            "r_value": -0.5,
        },
    ),
    (
        CouplingReport(
            separations=np.array([1.0, 0.5, 0.0]),
            ratios=np.array([0.5, np.nan]),
            shift_norms=np.array([0.0, 0.125]),
            use_control=np.bool_(True),
            gamma=1,
            master_seed=np.int64(3),
            norm_kind="h1_after_group(tau0=1)",
        ),
        {
            "gamma": 1.0,
            "master_seed": 3,
            "norm_kind": "h1_after_group(tau0=1)",
            "ratios": [0.5, NAN],
            "separations": [1.0, 0.5, 0.0],
            "shift_norms": [0.0, 0.125],
            "use_control": True,
        },
    ),
    (
        StabilizationReport(
            gamma=1e-2,
            q_ratio=np.float64(0.5),
            uncontrolled_ratio=NAN,
            shift_norm=0.25,
            success=np.bool_(True),
            norm_kind="h1",
            separation=1,
            seeds=(3,),
        ),
        {
            "degenerate": False,
            "gamma": 0.01,
            "norm_kind": "h1",
            "q_ratio": 0.5,
            "seeds": [3],
            "separation": 1.0,
            "shift_norm": 0.25,
            "success": True,
            "uncontrolled_ratio": NAN,
        },
    ),
    (
        GramianReport(
            modes=(0, 1),
            time_basis_level=2,
            galerkin_cutoff=6,
            target_cutoff=2,
            eigenvalues=np.array([3.0, 2.0, 1e-3]),
            target_subspace_min_eig=np.float64(1e-3),
            quadrature_steps=128,
            column_count=12,
        ),
        {
            "column_count": 12,
            "eigenvalues": [3.0, 2.0, 0.001],
            "galerkin_cutoff": 6,
            "modes": [0, 1],
            "quadrature_steps": 128,
            "target_cutoff": 2,
            "target_subspace_min_eig": 0.001,
            "time_basis_level": 2,
        },
    ),
    (
        RunManifest(
            kind="mix",
            config_digest="d" * 64,
            master_seed=np.int64(3),
            version="0.1.0",
            started_at="2026-01-01T00:00:00+00:00",
            finished_at="2026-01-01T00:00:05+00:00",
            outputs=[{"path": "mix.json", "sha256": "e" * 64, "bytes": 512}],
        ),
        {
            "config_digest": "d" * 64,
            "finished_at": "2026-01-01T00:00:05+00:00",
            "kind": "mix",
            "master_seed": 3,
            "outputs": [{"bytes": 512, "path": "mix.json", "sha256": "e" * 64}],
            "started_at": "2026-01-01T00:00:00+00:00",
            "version": "0.1.0",
        },
    ),
]
CLASSES = [type(obj) for obj, _ in GOLDEN]


@pytest.mark.parametrize("obj, want", GOLDEN, ids=[c.__name__ for c in CLASSES])
def test_report_dict_golden(obj, want):
    got = report_dict(obj)
    # the JSON text tells 1 from 1.0 and matches NaN, where == on dicts cannot
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert all(type(got[k]) is type(v) for k, v in want.items())


def test_report_from_dict_fills_defaults():
    obj, want = GOLDEN[3]
    legacy = dict(want)
    legacy.pop("degenerate")
    assert report_from_dict(StabilizationReport, legacy).degenerate is False
    with pytest.raises(ValidationError, match="q_ratio, uncontrolled_ratio"):
        report_from_dict(StabilizationReport, {"gamma": 1.0})


_FLOATS = st.floats(allow_nan=False) | st.just(NAN)  # NaN as JSON reads it back
_STRATEGIES = {
    float: _FLOATS,
    int: st.integers(),
    bool: st.booleans(),
    str: st.text(),
    tuple: st.lists(st.integers(), max_size=4).map(tuple),
    list: st.lists(
        st.fixed_dictionaries({"path": st.text(), "sha256": st.text(), "bytes": st.integers(0)}),
        max_size=3,
    ),
    np.ndarray: st.lists(_FLOATS, max_size=6).map(lambda v: np.asarray(v, dtype=float)),
}


def _field_types(cls):
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def _reports(cls):
    return st.builds(cls, **{name: _STRATEGIES[tp] for name, tp in _field_types(cls)})


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_report_json_round_trip(cls, data):
    rep = data.draw(_reports(cls))
    back = report_from_dict(cls, json.loads(json.dumps(report_dict(rep))))
    assert type(back) is cls
    for name, tp in _field_types(cls):
        a, b = getattr(rep, name), getattr(back, name)
        assert type(b) is tp, name
        if tp in (float, np.ndarray):
            assert _bits(b) == _bits(a), name
        else:
            assert b == a, name
