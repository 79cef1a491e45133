"""Linearized flow, backward adjoint, Duhamel map, and Gramian assembly."""

import math

import numpy as np
import pytest

from schrodmix import (
    FourierField,
    GramianReport,
    Grid,
    NoiseSpec,
    SolverConfig,
    ValidationError,
    assemble_gramian,
    basis_field,
    bump_damping,
    duality_pairing,
    duhamel_control_map,
    linear_group,
    markov_step,
    report_dict,
    report_from_dict,
    sobolev_norm,
    solve_adjoint_backward,
    solve_linearized,
    solve_nls,
    zero_damping,
    zero_field,
)
from schrodmix.config import random_h1_field
from schrodmix.linearized import (
    ControlForcing,
    control_response_matrix,
    coords_to_coeffs,
    gramian_matrix,
    h1_coords,
    haar_time_keys,
    mode_coord_indices,
)
from schrodmix.noise import sample_noise_path
from schrodmix.spectral import ROOT_2PI

GRID = Grid(64, 20)
DT = 2.0**-7


def free_cfg(**kw):
    return SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, **kw)


def damped_cfg(**kw):
    return SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=DT, **kw)


def zero_base(cfg):
    return solve_nls(zero_field(GRID), None, 1.0, cfg)


def noisy_base(cfg, seed=3):
    z = sample_noise_path(NoiseSpec(), (seed, 0, 0, 0))
    u0 = random_h1_field(GRID, 0.5, 3.0, seed, 0)
    return solve_nls(u0, z, 1.0, cfg)


def test_zero_base_reduces_to_linear_group():
    cfg = damped_cfg()
    base = zero_base(cfg)
    v0 = random_h1_field(GRID, 1.0, 2.5, 7, 0)
    run = solve_linearized(base, v0)
    want = linear_group(v0, 1.0, cfg.damping, cfg.dt)
    err = sobolev_norm(run.endpoint - want, 0.0)
    assert err < 1e-10


def test_zero_direction_stays_zero():
    base = noisy_base(damped_cfg())
    run = solve_linearized(base, zero_field(GRID))
    assert all(np.all(run.coeffs[i] == 0) for i in range(len(run.times)))


def test_linearization_needs_dense_base():
    cfg = damped_cfg(store_stride=2)
    base = solve_nls(random_h1_field(GRID, 0.5, 3.0, 1, 0), None, 1.0, cfg)
    with pytest.raises(ValidationError, match="every step"):
        solve_linearized(base, basis_field(GRID, 0, 1.0))


def test_directional_derivative_slope():
    """Finite differences of the unit step converge to the linearized run.

    The frozen-coefficient scheme carries an eps-independent O(dt^2) offset
    against the exact derivative of the discrete step, so the smallest eps
    only shows first-order behaviour once dt is small enough.
    """
    cfg = SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=2.0**-12)
    spec = NoiseSpec()
    z = sample_noise_path(spec, (17, 0, 0, 0))
    u0 = random_h1_field(GRID, 0.5, 3.0, 17, 0)
    base = solve_nls(u0, z, 1.0, cfg)
    w = random_h1_field(GRID, 1.0, 2.5, 18, 1)
    v1 = solve_linearized(base, w).endpoint
    errs = []
    eps_list = (1e-3, 1e-4, 1e-5)
    for eps in eps_list:
        bumped = markov_step(u0 + eps * w, z, cfg)
        diff = (bumped - base.endpoint) * (1.0 / eps)
        errs.append(sobolev_norm(diff - v1, 1.0))
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_adjoint_free_preserves_l2():
    cfg = free_cfg()
    base = zero_base(cfg)
    phi1 = random_h1_field(GRID, 1.0, 2.0, 5, 0)
    run = solve_adjoint_backward(base, phi1)
    np.testing.assert_allclose(
        sobolev_norm(run.state(len(run.times) - 1), 0.0),
        sobolev_norm(phi1, 0.0),
        rtol=1e-10,
    )


def test_adjoint_zero_endpoint():
    base = noisy_base(damped_cfg())
    run = solve_adjoint_backward(base, zero_field(GRID))
    assert all(np.all(run.coeffs[i] == 0) for i in range(len(run.times)))


def test_duality_constant_mode_zero():
    cfg = free_cfg()
    base = zero_base(cfg)
    e0 = basis_field(GRID, 0, 1.0)
    v = solve_linearized(base, e0)
    phi = solve_adjoint_backward(base, e0)
    for t in (0.0, 0.25, 0.5, 1.0):
        np.testing.assert_allclose(duality_pairing(v, phi, t), 1.0, rtol=1e-12)
    v2 = solve_linearized(base, 2.0 * e0)
    np.testing.assert_allclose(duality_pairing(v2, phi, 0.5), 2.0, rtol=1e-12)


def test_duality_drift_on_noisy_base():
    cfg = damped_cfg()
    base = noisy_base(cfg, seed=23)
    v0 = random_h1_field(GRID, 0.8, 2.5, 31, 0)
    phi1 = random_h1_field(GRID, 1.2, 2.5, 31, 1)
    v = solve_linearized(base, v0)
    phi = solve_adjoint_backward(base, phi1)
    vals = np.array([duality_pairing(v, phi, t) for t in base.times])
    drift = np.abs(vals - vals[0]).max()
    assert drift <= 1e-6 * sobolev_norm(v0, 0.0) * sobolev_norm(phi1, 0.0)


def test_duhamel_zero_forcing():
    base = noisy_base(damped_cfg())
    out = duhamel_control_map(base, ControlForcing.constant(zero_field(GRID)))
    assert np.all(out.coeffs == 0)


def test_duhamel_constant_mode_zero_closed_form():
    """iv_t = g with constant physical g = 1 gives v(1) = -i."""
    cfg = free_cfg()
    base = zero_base(cfg)
    g_field = FourierField(GRID, np.eye(GRID.n_coeff)[GRID.k_max] * ROOT_2PI)
    out = duhamel_control_map(base, ControlForcing.constant(g_field))
    np.testing.assert_allclose(out.coeff(0), -1j * ROOT_2PI, rtol=1e-10)
    rest = np.delete(out.coeffs, GRID.k_max)
    np.testing.assert_allclose(rest, 0, atol=1e-12)


def test_duhamel_linearity():
    base = noisy_base(damped_cfg(), seed=9)
    g1 = random_h1_field(GRID, 0.4, 2.0, 40, 0)
    g2 = random_h1_field(GRID, 0.3, 2.0, 40, 1)
    a = duhamel_control_map(base, ControlForcing.constant(g1))
    b = duhamel_control_map(base, ControlForcing.constant(g2))
    ab = duhamel_control_map(base, ControlForcing.constant(g1 + g2))
    np.testing.assert_allclose(ab.coeffs, (a + b).coeffs, rtol=1e-10, atol=1e-12)


def test_adjoint_consistency_identity():
    """The response pairs with the endpoint like the time integral against
    the backward run; the forcing enters through -i g, hence the Im."""
    cfg = SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=2.0**-10)
    z = sample_noise_path(NoiseSpec(), (3, 0, 0, 0))
    u0 = random_h1_field(GRID, 0.5, 3.0, 1, 0)
    base = solve_nls(u0, z, 1.0, cfg)
    gf = random_h1_field(GRID, 0.3, 2.0, 9, 1)
    phi1 = random_h1_field(GRID, 1.0, 2.0, 4, 2)
    v1 = duhamel_control_map(base, ControlForcing.constant(gf))
    phi = solve_adjoint_backward(base, phi1)
    lhs = float(np.real(np.sum(v1.coeffs * np.conj(phi1.coeffs))))
    vals = [
        float(np.imag(np.sum(gf.coeffs * np.conj(phi.state(i).coeffs))))
        for i in range(len(phi.times))
    ]
    rhs = float(np.trapezoid(vals, phi.times))
    assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


def test_control_forcing_validation():
    g_field = basis_field(GRID, 0, 1.0)
    force = ControlForcing.constant(g_field)
    np.testing.assert_array_equal(force.step_values(4)[3], g_field.coeffs)
    two = ControlForcing(GRID, np.stack([g_field.coeffs, 2.0 * g_field.coeffs]))
    with pytest.raises(ValidationError):
        two.step_values(3)


def test_h1_coords_round_trip():
    rng = np.random.default_rng(8)
    c = rng.standard_normal(GRID.n_coeff) + 1j * rng.standard_normal(GRID.n_coeff)
    x = h1_coords(c, GRID.k_max, GRID.k_max)
    assert x.shape == (2 * GRID.n_coeff,)
    back = coords_to_coeffs(x, GRID.k_max, GRID.k_max)
    np.testing.assert_allclose(back, c, rtol=1e-14)
    # the squared coordinate norm is the squared H1 norm
    np.testing.assert_allclose(
        np.sum(x**2), sobolev_norm(FourierField(GRID, c), 1.0) ** 2, rtol=1e-13
    )
    # mode k real part sits at the documented weight
    k = 3
    x_small = h1_coords(c, GRID.k_max, 5)
    idx = 2 * (k + 5)
    np.testing.assert_allclose(x_small[idx], math.sqrt(1 + k * k) * c[k + GRID.k_max].real)
    with pytest.raises(ValidationError):
        h1_coords(c, GRID.k_max, GRID.k_max + 1)


def test_mode_coord_indices():
    idx = mode_coord_indices(1, 4)
    # modes -1, 0, 1 inside a cutoff-4 block, interleaved re/im
    want = []
    for k in (-1, 0, 1):
        pos = k + 4
        want.extend([2 * pos, 2 * pos + 1])
    np.testing.assert_array_equal(np.sort(idx), np.sort(want))


def test_haar_time_keys():
    assert haar_time_keys(1) == [(0, 0), (1, 0), (1, 1)]
    keys = haar_time_keys(2)
    assert len(keys) == 7
    assert keys[-1] == (2, 3)


def test_response_matrix_shape_and_validation():
    cfg = free_cfg()
    base = zero_base(cfg)
    mat, keys = control_response_matrix(base, (0, 1), 2, 5)
    assert mat.shape == (2 * (2 * 5 + 1), 2 * 7 * 2)
    assert len(keys) == 28
    assert keys[0] == (0, 0, 0, 1.0)
    with pytest.raises(ValidationError):
        control_response_matrix(base, (0, 99), 2, 5)
    with pytest.raises(ValidationError):
        control_response_matrix(base, (0,), 7, 5)  # 128 steps, 256 finest cells
    long_base = solve_nls(zero_field(GRID), None, 2.0, cfg)
    with pytest.raises(ValidationError, match="one time unit"):
        control_response_matrix(long_base, (0,), 2, 5)


def test_gramian_zero_base_structure():
    """Free flow cannot move control mass across modes."""
    cfg = free_cfg()
    base = zero_base(cfg)
    g = gramian_matrix(base, (0,), 1, 3)
    n_x = 2 * (2 * 3 + 1)
    assert g.shape == (n_x, n_x)
    np.testing.assert_allclose(g, g.T, atol=1e-12)
    idx0 = mode_coord_indices(0, 3)
    mask = np.ones(n_x, dtype=bool)
    mask[idx0] = False
    off_block = g[np.ix_(mask, mask)]
    cross = g[np.ix_(idx0, mask)]
    assert np.abs(off_block).max() <= 1e-10
    assert np.abs(cross).max() <= 1e-10
    evals = np.linalg.eigvalsh(g)
    assert (evals > 1e-10).sum() == 2


def test_gramian_empty_modes():
    base = zero_base(free_cfg())
    rep = assemble_gramian(base, (), 1, 3)
    assert rep.column_count == 0
    np.testing.assert_allclose(rep.eigenvalues, 0, atol=1e-15)


def test_gramian_monotone_in_modes():
    base = noisy_base(damped_cfg(), seed=12)
    g_small = gramian_matrix(base, (0,), 1, 3)
    g_big = gramian_matrix(base, (0, 1), 1, 3)
    evals = np.linalg.eigvalsh(g_big - g_small)
    assert evals.min() >= -1e-10


def test_gramian_report_fields_and_json():
    base = noisy_base(damped_cfg(), seed=2)
    rep = assemble_gramian(base, (0, 1), 1, 4, target_cutoff=2)
    assert rep.column_count == 2 * 3 * 2
    assert rep.eigenvalues.shape == (2 * (2 * 4 + 1),)
    assert np.all(np.diff(rep.eigenvalues) <= 1e-15)
    assert np.all(rep.eigenvalues >= -1e-12)
    assert rep.target_subspace_min_eig > 0
    assert rep.quadrature_steps == 128
    back = report_from_dict(GramianReport, report_dict(rep))
    np.testing.assert_allclose(back.eigenvalues, rep.eigenvalues, rtol=1e-15)
    assert back.modes == rep.modes
    assert back.target_subspace_min_eig == rep.target_subspace_min_eig
