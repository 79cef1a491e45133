"""Nonlinear solver, Markov step, phase, and resonance decomposition."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodmix import (
    BlowUpError,
    FourierField,
    Grid,
    NoiseSpec,
    SolverConfig,
    ValidationError,
    basis_field,
    bump_damping,
    constant_damping,
    energy,
    linear_group,
    markov_step,
    markov_step_batch,
    nmult,
    nnonres,
    nres,
    phase_theta,
    plane_wave,
    sobolev_norm,
    solve_adjoint_backward,
    solve_linearized,
    solve_nls,
    solve_nls_batch,
    zero_damping,
    zero_field,
)
from schrodmix.config import random_h1_field
import schrodmix.dynamics as dynamics_mod
from schrodmix.dynamics import (
    _amp_pow,
    _h1_guard,
    _midpoint_factor,
    _noise_drive,
    _rotation,
    _split_steps,
    _unpad,
    energy_series,
    steps_per_cell,
    trajectory_remainder,
)
from schrodmix.linearized import control_response_matrix
from schrodmix.noise import sample_noise_path
from schrodmix.spectral import ROOT_2PI, hs_norm_sq, synth

GRID = Grid(20)
DT = 2.0**-7


def free_cfg(**kw):
    return SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, **kw)


def damped_cfg(**kw):
    return SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=DT, **kw)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=0.02)
    with pytest.raises(ValidationError):
        SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, p=4)
    with pytest.raises(ValidationError):
        SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, p=1)
    with pytest.raises(ValidationError):
        SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, store_stride=0)
    # a float power, even a whole one, would fail only later, inside numpy
    for p in (3.5, 5.0):
        with pytest.raises(ValidationError, match="p must be an integer"):
            SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, p=p)
    assert SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, p=np.int64(5)).p == 5
    # so would a float stride, and a flag would run as stride 1
    for stride in (2.0, True):
        with pytest.raises(ValidationError, match="store_stride must be an integer"):
            SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, store_stride=stride)
    cfg = SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, store_stride=np.int64(2))
    assert cfg.store_stride == 2
    other = Grid(42)
    with pytest.raises(ValidationError):
        SolverConfig(grid=GRID, damping=zero_damping(other), dt=DT)


def test_steps_for():
    cfg = free_cfg()
    assert cfg.steps_for(1.0) == 128
    assert cfg.steps_for(0.25) == 32
    with pytest.raises(ValidationError):
        cfg.steps_for(0.3)


def test_linear_group_free_single_mode():
    for k in (-3, 0, 5):
        u = basis_field(GRID, k, 1.0 + 0.5j)
        out = linear_group(u, 0.3, free_cfg())
        want = (1.0 + 0.5j) * np.exp(-1j * k * k * 0.3)
        np.testing.assert_allclose(out.coeff(k), want, rtol=1e-12)
        rest = np.delete(out.coeffs, k + GRID.k_max)
        np.testing.assert_allclose(rest, 0, atol=1e-14)


def test_linear_group_unitary_without_damping():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(GRID.n_coeff) + 1j * rng.standard_normal(GRID.n_coeff)
    u = FourierField(GRID, c)
    out = linear_group(u, 0.7, free_cfg())
    np.testing.assert_allclose(sobolev_norm(out, 0.0), sobolev_norm(u, 0.0), rtol=1e-12)


def test_linear_group_constant_damping_factorizes():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(GRID.n_coeff) + 1j * rng.standard_normal(GRID.n_coeff)
    u = FourierField(GRID, c)
    t = 0.5
    damped = linear_group(u, t, SolverConfig(grid=GRID, damping=constant_damping(GRID, 0.8), dt=DT))
    free = linear_group(u, t, free_cfg())
    np.testing.assert_allclose(damped.coeffs, math.exp(-0.8 * t) * free.coeffs, rtol=1e-10)


@pytest.mark.parametrize("p", [3, 5])
def test_linear_group_is_sign_symmetric_bitwise(p):
    # every operation of the free group commutes with negation, so the
    # separation y - x and its negative have images that are exact negatives
    cfg = damped_cfg(p=p)
    w = random_h1_field(GRID, 0.7, 2.5, 61, 0)
    for t in (1.0, 0.5):
        plus = linear_group(w, t, cfg)
        minus = linear_group(-w, t, cfg)
        assert (-minus.coeffs).tobytes() == plus.coeffs.tobytes()


def test_linear_group_time_validation():
    u = basis_field(GRID, 1, 1.0)
    # nan passes a sign test and would skip every step, and inf has no step count
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            linear_group(u, t, free_cfg())
    np.testing.assert_allclose(linear_group(u, 0.0, free_cfg()).coeffs, u.coeffs, atol=0)
    with pytest.raises(ValidationError, match="different grids"):
        linear_group(basis_field(Grid(42), 1, 1.0), 0.5, free_cfg())


def test_solve_zero_stays_zero():
    traj = solve_nls(zero_field(GRID), None, 1.0, free_cfg())
    assert all(np.all(traj.coeffs[i] == 0) for i in range(traj.n_stored))


def test_plane_wave_coarse():
    """Exact rotating-wave solution at unit amplitude, coarse step."""
    cfg = free_cfg()
    u0 = plane_wave(GRID, 1, 1.0)
    traj = solve_nls(u0, None, 1.0, cfg)
    omega = 1.0 + 1.0  # k^2 + A^2
    want = plane_wave(GRID, 1, 1.0) * np.exp(-1j * omega * 1.0)
    err = sobolev_norm(traj.endpoint - want, 0.0) / sobolev_norm(want, 0.0)
    assert err < 1e-8


def test_conservation_coarse():
    cfg = free_cfg()
    u0 = random_h1_field(GRID, 1.0, 3.0, 12, 0)
    traj = solve_nls(u0, None, 1.0, cfg)
    e = energy_series(traj.coeffs)
    assert abs(e[-1] - e[0]) / e[0] < 1e-4
    norms = traj.norms(0.0)
    np.testing.assert_allclose(norms, norms[0], rtol=1e-10)


def test_l2_dissipation_with_damping():
    cfg = damped_cfg()
    u0 = random_h1_field(GRID, 0.8, 3.0, 5, 0)
    traj = solve_nls(u0, None, 1.0, cfg)
    norms = traj.norms(0.0)
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms[-1] < norms[0]


def test_markov_composition_matches_two_unit_horizon():
    cfg = damped_cfg()
    spec = NoiseSpec()
    z1 = sample_noise_path(spec, (21, 0, 0, 0))
    z2 = sample_noise_path(spec, (21, 0, 0, 1))
    u0 = random_h1_field(GRID, 0.5, 3.0, 8, 0)
    one = markov_step(u0, z1, cfg)
    two = markov_step(one, z2, cfg)
    traj = solve_nls(u0, [z1, z2], 2.0, cfg)
    err = sobolev_norm(traj.endpoint - two, 0.0)
    assert err <= 1e-9 * max(1.0, sobolev_norm(two, 0.0))


# Relative L2 and H1 errors of forced markov_step at dt 2^-7, 2^-8 and 2^-9
# against dt 2^-12, on the damped grid, at amplitudes 0.05 and 0.5: measured
# with the forcing inside the midpoint substep, the scheme the half kicks
# replaced
_MIDPOINT_FORCED_ERRORS = {
    ("random_h1", 0.05): ((6.8673e-06, 7.4132e-07, 1.8230e-07), (1.1261e-04, 5.1091e-06, 1.2367e-06)),
    ("random_h1", 0.5): ((6.3360e-06, 1.2125e-06, 2.9876e-07), (6.3605e-05, 5.8942e-06, 1.4354e-06)),
    ("constant", 0.05): ((1.1392e-05, 2.8351e-06, 7.0005e-07), (2.1762e-05, 5.0282e-06, 1.2223e-06)),
    ("constant", 0.5): ((3.5699e-05, 8.9175e-06, 2.2055e-06), (4.2633e-05, 1.0486e-05, 2.5857e-06)),
}
# The half kicks sit inside the free half phases, so the free flow carries
# the forcing by the midpoint rule as before; every error stays within 1% of
# these.  A kick of the wrong size or place is first order.
_KICK_ERROR_RATIO = 1.01


@pytest.mark.parametrize("datum", ["random_h1", "constant"])
@pytest.mark.parametrize("amp", [0.05, 0.5])
def test_forced_error_keeps_the_midpoint_forcing_accuracy(datum, amp):
    u0 = {"random_h1": random_h1_field(GRID, 1.0, 3.0, 5, 0), "constant": basis_field(GRID, 0, 2.2)}
    u0 = u0[datum]
    path = sample_noise_path(NoiseSpec(amplitudes=(amp, amp), level_max=6), (11, 0, 0, 0))
    damping = bump_damping(GRID, 1.0, math.pi, 1.5)
    ends = [markov_step(u0, path, SolverConfig(GRID, damping, dt=2.0**-e)) for e in (7, 8, 9, 12)]
    for s, before in zip((0.0, 1.0), _MIDPOINT_FORCED_ERRORS[datum, amp]):
        errs = [sobolev_norm(u - ends[-1], s) / sobolev_norm(ends[-1], s) for u in ends[:-1]]
        for err, old in zip(errs, before):
            assert err <= _KICK_ERROR_RATIO * old, (s, errs)
        assert 3.6 <= errs[1] / errs[2] <= 4.4, (s, errs)


def test_forcing_shape_validation():
    cfg = damped_cfg()
    spec = NoiseSpec()
    z = sample_noise_path(spec, (1, 0, 0, 0))
    u0 = random_h1_field(GRID, 0.5, 3.0, 8, 0)
    with pytest.raises(ValidationError):
        solve_nls(u0, z, 2.0, cfg)  # single path only covers one unit
    with pytest.raises(ValidationError):
        solve_nls(u0, [z], 2.0, cfg)
    deep = sample_noise_path(NoiseSpec(level_max=7), (1, 0, 0, 0))
    with pytest.raises(ValidationError):
        solve_nls(u0, deep, 1.0, cfg)  # 128 steps cannot resolve 256 cells


def test_forcing_that_is_not_a_path_is_refused():
    cfg = damped_cfg()
    u0 = random_h1_field(GRID, 0.5, 3.0, 8, 0)
    with pytest.raises(ValidationError, match="sequence of them"):
        solve_nls(u0, 3, 1.0, cfg)
    block = u0.coeffs[None, :]
    for entry in ("x", None):
        with pytest.raises(ValidationError, match="must be a NoisePath"):
            markov_step_batch(block, [entry], cfg)
        with pytest.raises(ValidationError, match="must be a NoisePath"):
            solve_nls_batch(block, [entry], cfg)
        with pytest.raises(ValidationError, match="must be a NoisePath"):
            solve_nls(u0, [entry], 1.0, cfg)


def test_markov_step_takes_a_one_path_list():
    cfg = damped_cfg()
    z = sample_noise_path(NoiseSpec(), (1, 0, 0, 0))
    u0 = random_h1_field(GRID, 0.5, 3.0, 8, 0)
    one = markov_step(u0, z, cfg).coeffs
    assert markov_step(u0, [z], cfg).coeffs.tobytes() == one.tobytes()
    assert solve_nls(u0, z, 1.0, cfg).endpoint.coeffs.tobytes() == one.tobytes()


def test_markov_step_keeps_only_its_endpoint():
    # the unit step is solve_nls's endpoint bit for bit, without storing the
    # 129 states between: a stored unit run at k_max 42 peaks near 400 KiB
    # of traced memory, the step alone near 33 KiB
    grid = Grid(42)
    cfg = SolverConfig(grid, bump_damping(grid, 1.5, math.pi, 1.5), dt=DT)
    z = sample_noise_path(NoiseSpec(amplitudes=(0.5, 0.5)), (4, 0, 0, 0))
    u0 = random_h1_field(grid, 1.0, 3.0, 4, 0)
    want = solve_nls(u0, z, 1.0, cfg).endpoint.coeffs
    tracemalloc.start()
    try:
        got = markov_step(u0, z, cfg).coeffs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 100 * 1024


def test_blowup_guard():
    cfg = free_cfg()
    u0 = plane_wave(GRID, 0, 2.0e6)
    with pytest.raises(BlowUpError) as info:
        solve_nls(u0, None, 1.0, cfg)
    err = info.value
    assert err.h1_norm > 1.0e6
    assert err.step >= 0 and err.time >= 0.0
    assert err.row == 0


def test_blowup_guard_names_the_row(monkeypatch):
    monkeypatch.setattr("schrodmix.dynamics.H1_BLOWUP", 1.0)
    cfg = damped_cfg()
    spec = NoiseSpec()
    paths = [sample_noise_path(spec, (32, 0, i, 0)) for i in range(6)]
    block = np.stack([random_h1_field(GRID, 0.2, 3.0, 50 + i, 0).coeffs for i in range(6)])
    block[4] *= 25.0  # H1 norm 5: only this chain crosses the guard
    with pytest.raises(BlowUpError) as info:
        markov_step_batch(block, paths, cfg)
    err = info.value
    assert err.row == 4 and err.step == 1
    assert 4.0 < err.h1_norm < 5.0
    assert "row 4" in str(err)


def test_blowup_guard_trips_on_nan():
    cfg = damped_cfg()
    spec = NoiseSpec()
    paths = [sample_noise_path(spec, (33, 0, i, 0)) for i in range(5)]
    block = np.stack([random_h1_field(GRID, 0.2, 3.0, 60 + i, 0).coeffs for i in range(5)])
    block[3, 4] = np.nan
    with pytest.raises(BlowUpError) as info:
        markov_step_batch(block, paths, cfg)
    assert info.value.row == 3 and info.value.step == 1
    assert math.isnan(info.value.h1_norm)


def test_trajectory_accessors():
    cfg = damped_cfg(store_stride=4)
    u0 = random_h1_field(GRID, 0.5, 3.0, 2, 0)
    traj = solve_nls(u0, None, 1.0, cfg)
    assert traj.n_stored == 33
    np.testing.assert_allclose(np.diff(traj.times), 4 * DT, rtol=1e-12)
    s = traj.state(5)
    np.testing.assert_allclose(traj.state_at(traj.times[5]).coeffs, s.coeffs, atol=0)
    assert traj.index_at(traj.times[5] + 1e-12) == 5
    with pytest.raises(ValidationError):
        traj.state_at(0.5 * DT)  # falls between stored states
    with pytest.raises(ValidationError):
        traj.state_at(2.0)
    np.testing.assert_allclose(traj.norms(1.0)[0], sobolev_norm(u0, 1.0), rtol=1e-12)


def test_markov_step_batch_matches_scalar():
    cfg = damped_cfg()
    spec = NoiseSpec()
    paths = [sample_noise_path(spec, (30, 0, i, 0)) for i in range(3)]
    fields = [random_h1_field(GRID, 0.4, 3.0, 40 + i, 0) for i in range(3)]
    block = np.stack([f.coeffs for f in fields])
    out = markov_step_batch(block, paths, cfg)
    for i in range(3):
        single = markov_step(fields[i], paths[i], cfg)
        np.testing.assert_array_equal(out[i], single.coeffs)
    with pytest.raises(ValidationError):
        markov_step_batch(block[0], paths[:1], cfg)
    with pytest.raises(ValidationError):
        markov_step_batch(block, paths[:2], cfg)


def test_markov_step_batch_rejects_wrong_width():
    paths = [sample_noise_path(NoiseSpec(), (30, 0, 0, 0))]
    with pytest.raises(ValidationError, match=str(GRID.n_coeff)):
        markov_step_batch(np.zeros((1, 5)), paths, damped_cfg())


def test_markov_step_batch_of_no_rows():
    out = markov_step_batch(np.zeros((0, GRID.n_coeff)), [], damped_cfg())
    assert out.shape == (0, GRID.n_coeff) and out.dtype == np.complex128


@pytest.mark.parametrize("stride", [1, 4])
def test_stored_block_rows_match_single_runs(stride):
    # the controlled coupling steps x under xi beside the next base y under
    # zeta: each row is its own stored run, and its endpoint the batch step
    cfg = damped_cfg(store_stride=stride)
    spec = NoiseSpec()
    zeta, xi = (sample_noise_path(spec, (62, 0, i, 0)) for i in range(2))
    y = random_h1_field(GRID, 0.5, 3.0, 62, 0)
    x = random_h1_field(GRID, 0.5, 3.0, 62, 1)
    x_run, y_run = solve_nls_batch(np.stack([x.coeffs, y.coeffs]), [xi, zeta], cfg)
    for run, u0, path in ((x_run, x, xi), (y_run, y, zeta)):
        alone = solve_nls(u0, path, 1.0, cfg)
        assert run.coeffs.tobytes() == alone.coeffs.tobytes()
        assert run.times.tobytes() == alone.times.tobytes()
        assert run.forcing is path and run.config is cfg
    step = markov_step_batch(x.coeffs[None, :], [xi], cfg)[0]
    assert x_run.endpoint.coeffs.tobytes() == step.tobytes()
    # each run owns its states: dropping one frees them
    assert not np.shares_memory(x_run.coeffs, y_run.coeffs)
    assert x_run.coeffs.flags.c_contiguous and y_run.coeffs.flags.c_contiguous
    assert solve_nls_batch(np.zeros((0, GRID.n_coeff)), [], cfg) == []
    with pytest.raises(ValidationError):
        solve_nls_batch(y.coeffs, [zeta], cfg)


def test_amp_pow_into_buffers_keeps_the_plain_bits():
    # |v|^{p-1} formed in a given pair of real blocks, or in a fresh one, is
    # the plain expression bit for bit, also on zeros of either sign,
    # infinities and NaN
    rng = np.random.default_rng(11)
    v = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
    v[0, :6] = [0.0, complex(-0.0, -0.0), complex(0.0, -0.0), complex(np.inf, 1.0),
                complex(1.0, -np.inf), complex(np.nan, 0.0)]
    for p in (3, 5, 7):
        want = ((v.real**2 + v.imag**2) ** ((p - 1) // 2)).tobytes()
        pair = np.empty(v.shape), np.empty(v.shape)
        got = _amp_pow(v, p, pair)
        assert got is pair[0]
        assert got.tobytes() == want, p
        assert _amp_pow(v, p).tobytes() == want, p


@pytest.mark.parametrize("p", [3, 5])
def test_unforced_step_keeps_the_plain_rotation_bits(p):
    # the unforced substep forms |v|^{p-1} and the rotation factor
    # D^2 exp(-i dt |D v|^{p-1}) = exp(-a dt - i dt D^{p-1} |v|^{p-1}) in
    # blocks allocated once per sweep; every stored state is that of the
    # plain expression with fresh temporaries
    cfg = damped_cfg(p=p, store_stride=3)
    tab = cfg._tab
    u0 = random_h1_field(GRID, 1.0, 3.0, 12, 0)

    def plain(n, v):
        amp = (v.real**2 + v.imag**2) ** ((p - 1) // 2)
        return v * np.exp(tab.log_decay2 + 1j * (amp * tab.rate))

    traj = solve_nls(u0, None, 16 * cfg.dt, cfg)
    steps = _split_steps(u0.coeffs, tab, range(16), plain)
    want = [u0.coeffs] + [_unpad(spec, tab) for _, spec in steps]
    assert traj.coeffs.tobytes() == np.stack([want[n] for n in (0, 3, 6, 9, 12, 15, 16)]).tobytes()
    assert traj.times.tobytes() == (np.array([0, 3, 6, 9, 12, 15, 16]) * cfg.dt).tobytes()


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(n_rows=st.integers(1, 70), seed=st.integers(0, 2**16))
def test_markov_step_batch_rows_match_alone(n_rows, seed):
    # the kernel may not mix rows: no per-step quantity from a product over
    # rows.  p = 5 pads to another length, so the pad and unpad slices move.
    spec = NoiseSpec()
    paths = [sample_noise_path(spec, (seed, 0, i, 0)) for i in range(n_rows)]
    fields = [random_h1_field(GRID, 0.4, 3.0, seed, i) for i in range(n_rows)]
    for p in (3, 5):
        cfg = damped_cfg(p=p)
        out = markov_step_batch(np.stack([f.coeffs for f in fields]), paths, cfg)
        for i in range(n_rows):
            np.testing.assert_array_equal(out[i], markov_step(fields[i], paths[i], cfg).coeffs)


def _count_ffts(monkeypatch, run) -> int:
    n = [0]
    with monkeypatch.context() as m:
        for name in ("fft", "ifft"):

            def counted(*args, _real=getattr(np.fft, name), **kw):
                n[0] += 1
                return _real(*args, **kw)

            m.setattr(np.fft, name, counted)
        run()
    return n[0]


def test_two_ffts_per_step(monkeypatch):
    # one padded ifft and one padded fft per step in every flow: no round
    # trips through the unpadded grid.  Set-up transforms do not depend on
    # the number of steps and cancel in the difference.
    spec = NoiseSpec()
    paths = [sample_noise_path(spec, (33, 0, i, 0)) for i in range(3)]
    u0 = random_h1_field(GRID, 0.5, 3.0, 33, 0)
    block = np.stack([u0.coeffs] * 3)
    w = random_h1_field(GRID, 1.0, 2.5, 34, 1)
    counts = {}
    for dt in (DT, DT / 2):
        cfg = SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=dt)
        base = solve_nls(u0, None, 1.0, cfg)
        runs = {
            "solve_nls": lambda: solve_nls(u0, paths[0], 1.0, cfg),
            "markov_step_batch": lambda: markov_step_batch(block, paths, cfg),
            "solve_linearized": lambda: solve_linearized(base, w),
            "control_response_matrix": lambda: control_response_matrix(base, (0, 1), 2, 5),
            "solve_adjoint_backward": lambda: solve_adjoint_backward(base, w),
        }
        for name, run in runs.items():
            counts.setdefault(name, []).append(
                (cfg.steps_for(1.0), _count_ffts(monkeypatch, run))
            )
    for name, ((n1, c1), (n2, c2)) in counts.items():
        assert c2 - c1 == 2 * (n2 - n1), (name, c1, c2)


@pytest.mark.parametrize("n_rows", [1, 64, 65])
@pytest.mark.parametrize("modes", [(0, 1), (1, -1, 3)])
def test_noise_drive_rows_independent_of_block(n_rows, modes):
    # a chain's half kick must not depend on how many chains share its block
    cfg = damped_cfg()
    spec = NoiseSpec(modes=modes, amplitudes=(0.15,) * len(modes))
    paths = [sample_noise_path(spec, (31, 0, i, 0)) for i in range(n_rows)]
    rows, kick_modes, batch, per_cell = _noise_drive([[p] for p in paths], cfg)
    assert rows is Ellipsis and kick_modes == modes
    assert batch.shape == (n_rows, len(modes), spec.n_cells) and per_cell == 1
    for i, p in enumerate(paths):
        single = _noise_drive([[p]], cfg)[2]
        assert single.shape == (1,) + batch.shape[1:]
        assert batch[i].tobytes() == single[0].tobytes()


def test_noise_drive_is_the_forcing_field_of_its_path():
    # on each noise cell the forcing sum_k b_k eta_k e^{ikx} has coefficient
    # sqrt(2pi) b_k eta_k on the normalized e_k, and a step's half kick
    # -i (dt/2) sqrt(2pi) b_k eta_k lands on mode k's coefficient and on no
    # other, inside the free half phases: in the padded spectrum (with the
    # padding scale) before the substep and after it, so that the unpadded
    # state carries it through the half phase exp(-i k^2 dt/2).  The row
    # runs through two units, whose cells follow each other in the table.
    cfg = SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=DT / 2)
    spec = NoiseSpec(modes=(0, 1), amplitudes=(0.3, 0.7))
    units = [sample_noise_path(spec, (9, 0, 0, t)) for t in range(2)]
    kick = _noise_drive([units], cfg)
    per_cell = steps_per_cell(spec, cfg)
    assert per_cell == 2 and per_cell * spec.n_cells == cfg.steps_for(1.0)
    assert kick[3] == per_cell and kick[2].shape == (1, 2, 2 * spec.n_cells)
    tab, kk = cfg._tab, GRID.k_max
    blocks = np.zeros((1, tab.n_pad), dtype=np.complex128), np.empty((1, tab.n_pad), dtype=np.complex128)
    seen = []

    def substep(n, v):
        seen.append(blocks[0][0].copy())
        v.fill(0.0)
        return v

    for unit, within in itertools.product(range(2), (0, 17, spec.n_cells - 1)):
        cell = unit * spec.n_cells + within
        h = np.zeros(GRID.n_coeff, dtype=np.complex128)
        w = np.zeros(tab.n_pad, dtype=np.complex128)
        for m, k in enumerate(spec.modes):
            h[kk + k] = -0.5j * cfg.dt * ROOT_2PI * spec.amplitudes[m] * units[unit].cells[m, within]
            w[k % tab.n_pad] = tab.n_pad / ROOT_2PI * h[kk + k]
        np.testing.assert_allclose(kick[2][0, :, cell], h[kk:kk + 2], rtol=1e-15, atol=0)
        for step in (cell * per_cell, (cell + 1) * per_cell - 1):
            zero = np.zeros((1, GRID.n_coeff), dtype=np.complex128)
            ((_, got),) = _split_steps(zero, tab, [step], substep, blocks, kick)
            want = np.exp(-0.5j * cfg.dt * GRID.modes.astype(float) ** 2) * h
            np.testing.assert_allclose(_unpad(got, tab)[0], want, rtol=1e-15, atol=0)
            np.testing.assert_allclose(seen.pop(), w, rtol=1e-15, atol=0)


def test_steps_per_cell_is_the_one_compatibility_check():
    cfg = damped_cfg()
    assert steps_per_cell(NoiseSpec(level_max=5), cfg) == 2
    with pytest.raises(ValidationError, match="SolverConfig/NoiseSpec cross constraint"):
        steps_per_cell(NoiseSpec(level_max=7), cfg)
    with pytest.raises(ValidationError, match="noise mode 21 outside the grid band"):
        steps_per_cell(NoiseSpec(modes=(0, 21)), cfg)
    path = sample_noise_path(NoiseSpec(level_max=7), (1, 0, 0, 0))
    with pytest.raises(ValidationError, match="cross constraint"):
        markov_step(plane_wave(GRID, 1, 0.5), path, cfg)


def test_markov_step_batch_refuses_mixed_specs():
    # a block is forced under one spec: a row whose path has other amplitudes
    # would otherwise be forced with its neighbour's
    cfg = damped_cfg()
    low = NoiseSpec(amplitudes=(0.1, 0.1))
    high = NoiseSpec(amplitudes=(0.5, 0.5))
    paths = [sample_noise_path(low, (5, 0, 0, 0)), sample_noise_path(high, (5, 0, 1, 0))]
    u0 = plane_wave(GRID, 1, 0.5)
    block = np.stack([u0.coeffs, u0.coeffs])
    with pytest.raises(ValidationError, match="paths must share one noise spec"):
        markov_step_batch(block, paths, cfg)
    with pytest.raises(ValidationError, match="paths must share one noise spec"):
        solve_nls(u0, paths, 2.0, cfg)
    # the same two rows under one spec step as they do alone
    same = [paths[0], sample_noise_path(low, (5, 0, 1, 0))]
    out = markov_step_batch(block, same, cfg)
    for row, path in zip(out, same):
        np.testing.assert_array_equal(row, markov_step(u0, path, cfg).coeffs)


@pytest.mark.parametrize("n_rows", [1, 64, 65])
def test_blowup_norm_rows_independent_of_block(n_rows, monkeypatch):
    # the blow-up guard reads the H1 norm off the band of the padded
    # spectrum, with the padding scale in its weights: each row's value is
    # hs_norm_sq(u, 1.0) of its unpadded state u within 1e-12, and does not
    # depend on its block
    cfg = damped_cfg()
    tab, width = cfg._tab, 2 * GRID.n_coeff
    rng = np.random.default_rng(n_rows)
    spec = rng.normal(size=(n_rows, tab.n_pad)) + 1j * rng.normal(size=(n_rows, tab.n_pad))
    h1 = _h1_guard(spec, tab, np.empty((n_rows, width)))
    assert h1.shape == (n_rows,)
    np.testing.assert_allclose(h1, hs_norm_sq(_unpad(spec, tab), 1.0), rtol=1e-12, atol=0)
    for i in range(n_rows):
        assert h1[i] == _h1_guard(spec[i], tab, np.empty(width))
    # a planted NaN row and a planted huge row trip it at the first step,
    # and the error names that row and its norm
    seen = []

    def guard(s, t, sq, _real=dynamics_mod._h1_guard):
        seen.append((s.copy(), _real(s, t, sq)))
        return seen[-1][1]

    monkeypatch.setattr(dynamics_mod, "_h1_guard", guard)
    paths = [sample_noise_path(NoiseSpec(), (35, 0, i, 0)) for i in range(n_rows)]
    block = np.stack([random_h1_field(GRID, 0.5, 3.0, 35, i).coeffs for i in range(n_rows)])
    for row, planted in ((n_rows - 1, np.nan), (n_rows // 2, 2.0e6)):
        u = block.copy()
        if np.isnan(planted):
            u[row, GRID.k_max + 3] = planted
        else:
            u[row] *= planted / math.sqrt(hs_norm_sq(u[row], 1.0))
        with pytest.raises(BlowUpError) as info:
            markov_step_batch(u, paths, cfg)
        err = info.value
        assert (err.step, err.row) == (1, row)
        last, value = seen[-1]
        want = hs_norm_sq(_unpad(last, tab), 1.0)
        if np.isnan(planted):
            assert math.isnan(err.h1_norm) and np.isnan(want[row])
        else:
            assert err.h1_norm == math.sqrt(value[row]) and err.h1_norm > 1.0e6
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_substep_factors_match_the_plain_stages(p):
    # the forced substep is v times one factor, D^2 (1 - dt^2 t s/2 - i dt t)
    # with s = |D v|^{p-1} and t = s (1 + (dt s/2)^2)^{(p-1)/2}: its bits
    # are its own, within 4 ulp of |v| of the plain two-stage midpoint rule
    # for -i |z|^{p-1} z between two decays D, on a block salted with zeros
    # of either sign; and the unforced factor D^2 exp(-i dt s) is within 4
    # ulp of |v| of the plain D . rotation . D.  The block is in the step's
    # regime, dt s <= 1: past it both round-offs grow with dt s (at p = 7
    # and |v| near 4 the midpoint stage amplifies |v| by 1e11)
    cfg = damped_cfg(p=p)
    tab = cfg._tab
    rng = np.random.default_rng(p)
    v = 0.5 * (rng.standard_normal((12, tab.n_pad)) + 1j * rng.standard_normal((12, tab.n_pad)))
    for i, z in enumerate((0.0, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0))):
        v[i, : tab.n_pad // 2] = z
    v.real[4, ::3] = -0.0
    v.imag[5, ::3] = -0.0
    assert tab.decay.min() < 1.0
    d = tab.decay
    amp = lambda z: (z.real**2 + z.imag**2) ** ((p - 1) // 2)
    assert DT * amp(v).max() <= 1.0
    z = d * v
    zm = z + (0.5 * DT) * (-1j * (amp(z) * z))
    forced = d * (z + DT * (-1j) * (amp(zm) * zm))
    rotated = d * (z * np.exp(-1j * DT * amp(z)))
    ulp = 4.0 * np.spacing(np.abs(v))
    pair = np.empty(v.shape), np.empty(v.shape)
    g = np.empty_like(v)
    for factor, want in ((_midpoint_factor, forced), (_rotation, rotated)):
        got = factor(tab, p, pair, g, 0, v.copy())
        err = np.maximum(np.abs(got.real - want.real), np.abs(got.imag - want.imag))
        assert (err <= ulp).all(), (factor.__name__, float((err / ulp).max()))
        assert (got[:4, : tab.n_pad // 2] == 0.0).all()


def test_phase_theta_constant_amplitude():
    cfg = free_cfg()
    a = 0.7
    u0 = plane_wave(GRID, 0, a)
    traj = solve_nls(u0, None, 1.0, cfg)
    for t in (0.25, 0.5, 1.0):
        np.testing.assert_allclose(phase_theta(traj, t), 2.0 * a * a * t, rtol=1e-6)
    assert phase_theta(traj, 0.0) == 0.0
    with pytest.raises(ValidationError):
        phase_theta(traj, 1.5)


def test_phase_theta_zero_and_monotone():
    cfg = damped_cfg()
    traj = solve_nls(zero_field(GRID), None, 1.0, cfg)
    assert phase_theta(traj, 1.0) == 0.0
    spec = NoiseSpec()
    z = sample_noise_path(spec, (2, 0, 0, 0))
    traj = solve_nls(random_h1_field(GRID, 0.5, 3.0, 3, 0), z, 1.0, cfg)
    vals = [phase_theta(traj, t) for t in np.linspace(0.0, 1.0, 9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_phase_theta_needs_every_step_stored():
    # the trapezoid runs over the stored states, so a coarser stride would
    # change the phase (and smooth's remainder) with the storage alone
    u0 = random_h1_field(GRID, 0.5, 3.0, 3, 0)
    traj = solve_nls(u0, None, 1.0, damped_cfg(store_stride=4))
    with pytest.raises(ValidationError, match="stored at every step"):
        phase_theta(traj, 1.0)
    with pytest.raises(ValidationError, match="stored at every step"):
        trajectory_remainder(traj, 1.0)


def low_mode_field(seed, top=3):
    rng = np.random.default_rng(seed)
    c = np.zeros(GRID.n_coeff, dtype=complex)
    for k in range(-top, top + 1):
        c[k + GRID.k_max] = rng.standard_normal() + 1j * rng.standard_normal()
    return FourierField(GRID, c)


def brute_nmult(f1, f2, f3):
    g = f1.grid
    out = np.zeros(g.n_coeff, dtype=complex)
    for k1 in g.modes:
        for k2 in g.modes:
            for k3 in g.modes:
                kk = k1 - k2 + k3
                if abs(kk) <= g.k_max:
                    out[kk + g.k_max] += (
                        f1.coeff(k1) * np.conj(f2.coeff(k2)) * f3.coeff(k3)
                    )
    return out / (2.0 * math.pi)


def brute_nres(f1, f2, f3):
    # a configuration is counted once per unconjugated slot landing on the
    # output mode, so coinciding resonances enter with multiplicity
    g = f1.grid
    out = np.zeros(g.n_coeff, dtype=complex)
    for k1 in g.modes:
        for k2 in g.modes:
            for k3 in g.modes:
                kk = k1 - k2 + k3
                if abs(kk) > g.k_max:
                    continue
                mult = int(k1 == kk) + int(k3 == kk)
                if mult:
                    out[kk + g.k_max] += mult * (
                        f1.coeff(k1) * np.conj(f2.coeff(k2)) * f3.coeff(k3)
                    )
    return out / (2.0 * math.pi)


def test_nmult_is_cubic_modulus_product():
    u = low_mode_field(1)
    got = nmult([u, u, u])
    from schrodmix.dynamics import pad_points
    from schrodmix.spectral import synth, analyze

    n_pad = pad_points(GRID.k_max, 3)
    v = synth(u.coeffs, n_pad)
    want = analyze(np.abs(v) ** 2 * v, GRID.k_max)
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-12, atol=1e-12)


def test_nmult_matches_brute_force():
    f1, f2, f3 = low_mode_field(1), low_mode_field(2), low_mode_field(3)
    got = nmult([f1, f2, f3])
    np.testing.assert_allclose(got.coeffs, brute_nmult(f1, f2, f3), rtol=1e-12, atol=1e-12)


def test_nres_matches_brute_force():
    f1, f2, f3 = low_mode_field(4), low_mode_field(5), low_mode_field(6)
    got = nres([f1, f2, f3])
    np.testing.assert_allclose(got.coeffs, brute_nres(f1, f2, f3), rtol=1e-12, atol=1e-12)


def test_resonant_single_mode_closed_form():
    a = 0.9
    u = basis_field(GRID, 1, a)
    res = nres([u, u, u])
    np.testing.assert_allclose(res.coeff(1), a**3 / math.pi, rtol=1e-12)
    non = nnonres([u, u, u])
    np.testing.assert_allclose(non.coeff(1), -(a**3) / (2.0 * math.pi), rtol=1e-12)
    zero_rest = np.delete(res.coeffs, 1 + GRID.k_max)
    np.testing.assert_allclose(zero_rest, 0, atol=1e-14)


def test_resonant_diagonal_is_l2_multiple():
    u = low_mode_field(7, top=5)
    res = nres([u, u, u])
    norm_sq = sobolev_norm(u, 0.0) ** 2
    np.testing.assert_allclose(res.coeffs, (norm_sq / math.pi) * u.coeffs, rtol=1e-12)


def test_decomposition_identity_and_zero_factor():
    f1, f2, f3 = low_mode_field(8), low_mode_field(9), low_mode_field(10)
    total = nmult([f1, f2, f3])
    res = nres([f1, f2, f3])
    non = nnonres([f1, f2, f3])
    # nnonres is built as the literal difference, so this is bitwise
    np.testing.assert_array_equal(non.coeffs, (total - res).coeffs)
    z = zero_field(GRID)
    assert np.all(nmult([f1, z, f3]).coeffs == 0)
    np.testing.assert_allclose(nres([f1, z, f3]).coeffs, 0, atol=1e-14)


def test_disjoint_modes_have_no_resonance():
    f1 = basis_field(GRID, 1, 1.0)
    f2 = basis_field(GRID, 2, 1.0)
    f3 = basis_field(GRID, 3, 1.0)
    res = nres([f1, f2, f3])
    np.testing.assert_allclose(res.coeffs, 0, atol=1e-14)
    total = nmult([f1, f2, f3])
    non = nnonres([f1, f2, f3])
    np.testing.assert_allclose(non.coeffs, total.coeffs, atol=1e-14)


def test_nmult_validation():
    u = low_mode_field(11)
    with pytest.raises(ValidationError):
        nmult([u, u])
    with pytest.raises(ValidationError):
        nmult([u, u, u, u])
    other = basis_field(Grid(42), 0, 1.0)
    with pytest.raises(ValidationError):
        nmult([u, u, other])


def test_smoothing_remainder_zero_and_identity():
    cfg = damped_cfg()
    zero = solve_nls(zero_field(GRID), None, 1.0, cfg)
    assert np.all(trajectory_remainder(zero, 1.0).coeffs == 0)
    u0 = random_h1_field(GRID, 0.6, 3.0, 13, 0)
    t = 2.0
    traj = solve_nls(u0, None, t, cfg)
    rem = trajectory_remainder(traj, t)
    theta = phase_theta(traj, t)
    lin = linear_group(u0, t, cfg)
    rebuilt = rem + np.exp(-1j * theta) * lin
    np.testing.assert_allclose(rebuilt.coeffs, traj.endpoint.coeffs, rtol=1e-12, atol=1e-14)


def test_energy_series_matches_energy():
    # every row equals the energy of that state alone, bitwise, whatever
    # the block size; 300 rows span three synthesis blocks
    rng = np.random.default_rng(14)
    for p, n_rows in itertools.product((3, 5), (1, 4, 64, 65, 300)):
        shape = (n_rows, GRID.n_coeff)
        block = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        vals = energy_series(block, p)
        singles = [energy(FourierField(GRID, row), p) for row in block]
        np.testing.assert_array_equal(vals, singles)
        one = energy_series(block[0], p)
        assert np.ndim(one) == 0
        assert one == singles[0]
