"""Linearized flow, backward adjoint, control response matrix, and Gramian assembly."""

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
from schrodmix.control import build_control_basis_map, compact_T_apply, realize_shift_cells
from schrodmix.dynamics import _unpad
from schrodmix.linearized import (
    _tangent_coefficients,
    _tangent_steps,
    control_response_matrix,
    h1_coords,
    haar_time_keys,
    mode_coord_indices,
)
from schrodmix.mixing import synchronous_coupling_experiment
from schrodmix.noise import haar_basis, haar_eval, sample_noise_path

GRID = Grid(20)
DT = 2.0**-7


def free_cfg(**kw):
    return SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT, **kw)


def damped_cfg(**kw):
    return SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=DT, **kw)


def full_band_coeffs(x):
    """The inverse of h1_coords on the whole band of GRID."""
    w = np.sqrt(1.0 + GRID.modes.astype(float) ** 2)
    return (x[0::2] + 1j * x[1::2]) / w


def zero_base(cfg):
    return solve_nls(zero_field(GRID), None, 1.0, cfg)


def noisy_base(cfg, seed=3):
    z = sample_noise_path(NoiseSpec(), (seed, 0, 0, 0))
    u0 = random_h1_field(GRID, 0.5, 3.0, seed, 0)
    return solve_nls(u0, z, 1.0, cfg)


def test_zero_base_reduces_to_linear_group():
    # linear_group takes the solver config, so it runs on the padded grid of
    # its p: at p = 5 a p = 3 grid samples the damping elsewhere and misses
    # by about 2e-7
    v0 = random_h1_field(GRID, 1.0, 2.5, 7, 0)
    for p in (3, 5):
        cfg = damped_cfg(p=p)
        base = zero_base(cfg)
        run = solve_linearized(base, v0)
        want = linear_group(v0, 1.0, cfg)
        assert sobolev_norm(run.endpoint - want, 0.0) < 1e-10, p
        # so the compact part vanishes on a zero base
        assert sobolev_norm(compact_T_apply(base, v0), 0.0) < 1e-10, p


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
    """The tangent is the Jacobian of the unit step: central differences of
    markov_step close on it as eps^2, at the step's own dt, forced and
    unforced, at p = 3 and 5.  In u0 against solve_linearized, and in the
    noise, shifted through realize_shift_cells, against -A c for the control
    map's response matrix A.  The base is H1 size 3, where a scheme other
    than the step's derivative leaves a gap of about 1e-2 at every eps."""
    u0 = random_h1_field(GRID, 3.0, 3.0, 17, 0)
    w = random_h1_field(GRID, 1.0, 2.5, 18, 1)
    z = sample_noise_path(NoiseSpec(), (17, 0, 0, 0))
    c = np.random.default_rng(17).standard_normal(2 * 2 * 15)  # modes (0, 1) at level 3
    eps_list = (1e-2, 1e-3, 1e-4)

    def falls(step, want, coords):
        gaps = []
        for eps in eps_list:
            d = (step(eps) - step(-eps)) * (0.5 / eps)
            gaps.append(np.linalg.norm(coords(d) - want) / np.linalg.norm(want))
        return gaps[0] / gaps[1] >= 90 and gaps[1] / gaps[2] >= 90, gaps

    h1 = lambda f: h1_coords(f.coeffs, GRID.k_max, GRID.k_max)
    for p in (3, 5):
        cfg = damped_cfg(p=p)
        for forcing in (None, z):
            base = solve_nls(u0, forcing, 1.0, cfg)
            want = h1(solve_linearized(base, w).endpoint)
            ok, gaps = falls(lambda e: markov_step(u0 + e * w, forcing, cfg), want, h1)
            assert ok, (p, forcing is None, gaps)
        cmap = build_control_basis_map(base, 3, 12, u0)  # on the forced base
        delta = realize_shift_cells(cmap, c)
        ok, gaps = falls(lambda e: markov_step(u0, z.shifted(e * delta), cfg), -cmap.matrix @ c,
                         lambda f: h1_coords(f.coeffs, GRID.k_max, 12))
        assert ok, (p, "noise", gaps)


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


def test_duality_pairing_needs_both_times_stored():
    # the adjoint's base takes half the step over half the horizon, so t = 1
    # is stored by the tangent run only: the pairing may not fall back on
    # the adjoint's nearest row
    e0 = basis_field(GRID, 0, 1.0)
    v = solve_linearized(zero_base(free_cfg()), e0)
    half = SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT / 2)
    phi = solve_adjoint_backward(solve_nls(zero_field(GRID), None, 0.5, half), e0)
    np.testing.assert_allclose(duality_pairing(v, phi, 0.5), 1.0, rtol=1e-12)
    with pytest.raises(ValidationError, match="not on the stored grid"):
        duality_pairing(v, phi, 1.0)


def test_duality_drift_on_noisy_base():
    # the backward step is the exact real-L2 transpose of the forward map,
    # so the discrete pairing holds at every stored time to round-off
    v0 = random_h1_field(GRID, 0.8, 2.5, 31, 0)
    phi1 = random_h1_field(GRID, 1.2, 2.5, 31, 1)
    for p in (3, 5):
        base = noisy_base(damped_cfg(p=p), seed=23)
        v = solve_linearized(base, v0)
        phi = solve_adjoint_backward(base, phi1)
        vals = np.array([duality_pairing(v, phi, t) for t in base.times])
        drift = np.abs(vals - vals[0]).max()
        assert drift <= 1e-12 * sobolev_norm(v0, 0.0) * sobolev_norm(phi1, 0.0), p


def test_response_constant_mode_zero_closed_form():
    """On a free zero base iv_t = g with g = comp e_0 gives v(1) = -i comp e_0."""
    cutoff = 5
    base = zero_base(free_cfg())
    mat, keys, _ = control_response_matrix(base, (0,), 0, cutoff)
    assert keys == [(0, 0, 0, 1.0), (0, 0, 0, 1.0j)]
    for col, comp in zip(mat.T, (1.0, 1.0j)):
        want = h1_coords(-1j * comp * np.eye(GRID.n_coeff)[GRID.k_max], GRID.k_max, cutoff)
        np.testing.assert_allclose(col, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [3, 5])
def test_response_matrix_matches_dense_march(p):
    # the production map starts each column where its Haar support begins;
    # marching every column from step 0 must give the same bits, at every
    # level and on the padded grid of either power
    cfg = damped_cfg(p=p)
    base = noisy_base(cfg)
    modes, cutoff = (0, 1), 12
    n_steps = base.n_stored - 1
    tab = cfg._tab
    maps = _tangent_coefficients(base, 0, n_steps)
    for level in (0, 1, 3, 6):
        got, keys, _ = control_response_matrix(base, modes, level, cutoff)
        basis = haar_basis(level, n_steps)
        # each column's half kick -i (dt/2) comp 2^(j/2) h_jl on its mode,
        # one table entry per step
        kicks = np.zeros((len(keys), len(modes), n_steps), dtype=np.complex128)
        for c, (k, j, l, comp) in enumerate(keys):
            kicks[c, modes.index(k)] = (-0.5j * cfg.dt * comp) * basis[2**j - 1 + l]
        v = np.zeros((len(keys), GRID.n_coeff), dtype=np.complex128)
        for _, spec in _tangent_steps(v, maps, tab, range(n_steps), (Ellipsis, modes, kicks, 1)):
            pass
        want = h1_coords(_unpad(spec, tab), GRID.k_max, cutoff).T
        # compared as bit patterns, so a zero of the other sign fails too
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=str(level))


@pytest.mark.parametrize("p", [3, 5])
def test_separation_row_rides_in_the_control_sweep(p):
    # the separation marched with the columns from step 0, under a zero
    # drive row, is the unforced tangent run bit for bit, and the columns
    # do not notice it: also with no columns at all
    cfg = damped_cfg(p=p)
    base = noisy_base(cfg)
    w = random_h1_field(GRID, 1e-3, 2.0, 71, 0)
    want = solve_linearized(base, w).endpoint.coeffs
    for modes, level in (((0, 1), 0), ((0, 1), 3), ((), 2)):
        plain, keys, none = control_response_matrix(base, modes, level, 8)
        got, keys_w, v1 = control_response_matrix(base, modes, level, 8, w)
        assert none is None
        assert v1.coeffs.tobytes() == want.tobytes(), (modes, level)
        assert got.tobytes() == plain.tobytes() and keys_w == keys, (modes, level)
    with pytest.raises(ValidationError, match="grid"):
        control_response_matrix(base, (0,), 1, 8, zero_field(Grid(10)))


@pytest.mark.parametrize("p", [3, 5])
def test_tangent_coefficients_of_a_range_are_rows_of_every_step(p):
    # each control cell forms its own maps: over [lo, hi) they are rows
    # lo..hi-1 of the maps over all steps, bit for bit, at the cell
    # boundaries of time levels 0, 3 and 6 and on a single step
    base = noisy_base(damped_cfg(p=p))
    n_steps = base.n_stored - 1
    every = _tangent_coefficients(base, 0, n_steps)
    for lo, hi in ((0, 64), (64, 128), (0, 8), (56, 64), (120, 128), (2, 4), (77, 78)):
        got = _tangent_coefficients(base, lo, hi)
        for part, whole in zip(got, every):
            assert part.shape == (hi - lo, base.config._tab.n_pad), (lo, hi)
            assert part.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


def test_controlled_couple_forms_each_step_map_once(monkeypatch):
    # a controlled step linearizes its base in the control sweep alone:
    # over a 3-step run, each of the three bases has its 128 step maps
    # formed exactly once, cell by cell
    import schrodmix.linearized as linearized_mod

    formed = []  # (base, step), holding each base so no id is reused
    former = linearized_mod._tangent_coefficients

    def counted(base, lo, hi):
        formed.extend((base, n) for n in range(lo, hi))
        return former(base, lo, hi)

    monkeypatch.setattr(linearized_mod, "_tangent_coefficients", counted)
    y0 = random_h1_field(GRID, 0.5, 3.0, 10, 0)
    x0 = y0 + random_h1_field(GRID, 1e-3, 2.0, 10, 1)
    synchronous_coupling_experiment(
        y0, x0, 3, NoiseSpec(), damped_cfg(), 13, use_control=True, time_level=2,
        galerkin_cutoff=8)
    monkeypatch.undo()
    bases = {id(base): base for base, _ in formed}
    assert len(bases) == 3
    for key in bases:
        assert sorted(n for base, n in formed if id(base) == key) == list(range(128))


def test_response_adjoint_identity():
    """Each column pairs with the endpoint like the time integral of its
    control against the backward run; the control enters through -i g,
    hence the Im.  Midpoint quadrature on each step, where g is constant."""
    cfg = SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=2.0**-10)
    z = sample_noise_path(NoiseSpec(), (3, 0, 0, 0))
    u0 = random_h1_field(GRID, 0.5, 3.0, 1, 0)
    base = solve_nls(u0, z, 1.0, cfg)
    phi1 = random_h1_field(GRID, 1.0, 2.0, 4, 2)
    mat, keys, _ = control_response_matrix(base, (0, 1), 2, GRID.k_max)
    assert len(keys) == 28
    phi = solve_adjoint_backward(base, phi1)
    phi_mid = 0.5 * (phi.coeffs[:-1] + phi.coeffs[1:])
    t_mid = 0.5 * (phi.times[:-1] + phi.times[1:])
    for col, (k, j, l, comp) in zip(mat.T, keys):
        v1 = full_band_coeffs(col)
        lhs = float(np.real(np.sum(v1 * np.conj(phi1.coeffs))))
        g = comp * 2.0 ** (j / 2.0) * haar_eval(j, l, t_mid)  # on e_k, per step
        rhs = float(np.sum(np.imag(g * np.conj(phi_mid[:, k + GRID.k_max]))) * cfg.dt)
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs), (k, j, l, comp)


def test_h1_coords_round_trip():
    rng = np.random.default_rng(8)
    c = rng.standard_normal(GRID.n_coeff) + 1j * rng.standard_normal(GRID.n_coeff)
    x = h1_coords(c, GRID.k_max, GRID.k_max)
    assert x.shape == (2 * GRID.n_coeff,)
    back = full_band_coeffs(x)
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
    mat, keys, _ = control_response_matrix(base, (0, 1), 2, 5)
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


def test_response_matrix_refuses_a_non_integer_level_or_cutoff():
    # a whole float or a bool is not a level or a cutoff; numpy integers are
    base = zero_base(free_cfg())
    for level, cutoff, name in ((2.0, 5, "time basis level"), (True, 5, "time basis level"),
                                (2, 4.0, "cutoff"), (2, False, "cutoff")):
        with pytest.raises(ValidationError, match="%s must be an integer, got" % name):
            control_response_matrix(base, (0,), level, cutoff)
    with pytest.raises(ValidationError, match="time basis level must be an integer"):
        assemble_gramian(base, (0,), 2.0, 5)
    with pytest.raises(ValidationError, match="target cutoff must be an integer"):
        assemble_gramian(base, (0,), 1, 3, target_cutoff=1.0)
    got, _, _ = control_response_matrix(base, (0,), np.int64(1), np.int32(3))
    want, _, _ = control_response_matrix(base, (0,), 1, 3)
    assert got.tobytes() == want.tobytes()
    assert assemble_gramian(base, (0,), np.int64(1), np.int64(3)).column_count == 6


def test_gramian_zero_base_structure():
    """Free flow cannot move control mass across modes."""
    cfg = free_cfg()
    base = zero_base(cfg)
    a, _, _ = control_response_matrix(base, (0,), 1, 3)
    g = a @ a.T
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

    def gram(modes):
        a, _, _ = control_response_matrix(base, modes, 1, 3)
        return a @ a.T

    g_small, g_big = gram((0,)), gram((0, 1))
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
