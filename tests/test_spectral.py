"""Grids, transforms, Sobolev weights and norms, damping profiles, and the
energy and power integrals of dynamics that read them."""

import math

import numpy as np
import pytest

from schrodmix import (
    FourierField,
    Grid,
    ValidationError,
    basis_field,
    bump_damping,
    constant_damping,
    energy,
    plane_wave,
    sobolev_norm,
    to_physical,
    to_spectral,
    zero_damping,
    zero_field,
)
from schrodmix.dynamics import SolverConfig, energy_series, lp_power_integral, pad_points
from schrodmix.spectral import (
    ROOT_2PI,
    DampingProfile,
    hs_norm_sq,
    l2_inner,
    mode_weights,
    real_inner,
    synth,
)

GRID = Grid(128, 42)


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.n_coeff) + 1j * rng.standard_normal(grid.n_coeff)
    return FourierField(grid, scale * c)


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid(127, 42)  # odd sample count
    with pytest.raises(ValidationError):
        Grid(64, 0)
    with pytest.raises(ValidationError):
        Grid(64, 32)  # needs n_points >= 2*k_max + 2


def test_grid_points():
    g = Grid(64, 20)
    assert g.n_coeff == 41
    assert g.points[0] == 0.0
    assert np.all(np.diff(g.points) > 0)
    assert g.points[-1] < 2 * math.pi
    np.testing.assert_allclose(g.points[1], 2 * math.pi / 64, rtol=1e-15)


def test_to_physical_single_mode():
    f = basis_field(GRID, 0, 1.0)
    vals = to_physical(f)
    np.testing.assert_allclose(vals, np.full(GRID.n_points, 1.0 / ROOT_2PI), atol=1e-14)


def test_to_physical_zero():
    vals = to_physical(zero_field(GRID))
    assert np.all(vals == 0)


@pytest.mark.parametrize("n,k", [(32, 10), (64, 20), (128, 42)])
def test_transform_round_trip(n, k):
    g = Grid(n, k)
    f = random_field(g, 7)
    back = to_spectral(to_physical(f), g)
    np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=1e-12, atol=1e-12)


def test_to_spectral_constant():
    vals = np.full(GRID.n_points, 2.5 + 0j)
    f = to_spectral(vals, GRID)
    np.testing.assert_allclose(f.coeff(0), 2.5 * ROOT_2PI, rtol=1e-13)
    rest = np.delete(f.coeffs, GRID.k_max)
    np.testing.assert_allclose(rest, 0, atol=1e-12)


def test_to_spectral_plane_wave():
    vals = np.exp(1j * GRID.points)
    f = to_spectral(vals, GRID)
    np.testing.assert_allclose(f.coeff(1), ROOT_2PI, rtol=1e-12)
    rest = np.delete(f.coeffs, GRID.k_max + 1)
    np.testing.assert_allclose(rest, 0, atol=1e-12)


def test_transform_length_mismatch():
    with pytest.raises(ValidationError):
        to_spectral(np.zeros(63), Grid(64, 20))
    with pytest.raises(ValidationError):
        FourierField(GRID, np.zeros(5))


def test_field_finite_check():
    c = np.zeros(GRID.n_coeff, dtype=complex)
    c[0] = np.nan
    with pytest.raises(ValidationError):
        FourierField(GRID, c)


def test_field_arithmetic_and_grid_mismatch():
    f = basis_field(GRID, 1, 2.0)
    g = basis_field(GRID, 2, 3.0)
    s = f + g
    assert s.coeff(1) == 2.0 and s.coeff(2) == 3.0
    d = s - g
    np.testing.assert_allclose(d.coeffs, f.coeffs)
    np.testing.assert_allclose((f * 0.5).coeffs, 0.5 * f.coeffs)
    np.testing.assert_allclose((-f).coeffs, -f.coeffs)
    other = basis_field(Grid(64, 20), 1, 1.0)
    with pytest.raises(ValidationError):
        f + other


def test_plane_wave_is_scaled_basis():
    pw = plane_wave(GRID, 3, 0.7)
    bf = basis_field(GRID, 3, 0.7)
    np.testing.assert_allclose(pw.coeffs, ROOT_2PI * bf.coeffs, rtol=1e-15)
    # physical amplitude of the plane wave is the requested one
    np.testing.assert_allclose(np.abs(to_physical(pw)), 0.7, rtol=1e-12)


def test_sobolev_norm_values():
    e0 = basis_field(GRID, 0, 1.0)
    for s in (-1.0, 0.0, 0.5, 2.0):
        np.testing.assert_allclose(sobolev_norm(e0, s), 1.0, rtol=1e-15)
    e1 = basis_field(GRID, 1, 1.0)
    np.testing.assert_allclose(sobolev_norm(e1, 1.0), math.sqrt(2.0), rtol=1e-14)
    f = basis_field(GRID, 2, 3.0)
    np.testing.assert_allclose(sobolev_norm(f, 2.0), 15.0, rtol=1e-14)


def test_sobolev_monotone_in_s():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(GRID.n_coeff) + 1j * rng.standard_normal(GRID.n_coeff)
    c[GRID.k_max] = 0.0  # concentrate on |k| >= 1
    f = FourierField(GRID, c / math.sqrt(np.sum(np.abs(c) ** 2)))
    norms = [sobolev_norm(f, s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))


def test_parseval():
    f = random_field(GRID, 3)
    spectral = sobolev_norm(f, 0.0) ** 2
    vals = to_physical(f)
    physical = np.mean(np.abs(vals) ** 2) * 2 * math.pi
    np.testing.assert_allclose(physical, spectral, rtol=1e-10)


def test_l2_and_real_inner():
    f = basis_field(GRID, 1, 2.0)
    g = basis_field(GRID, 1, 3.0j)
    assert l2_inner(f, f) == pytest.approx(4.0)
    # <f, g> = 2 * conj(3i) = -6i
    np.testing.assert_allclose(l2_inner(f, g), -6.0j, atol=1e-15)
    np.testing.assert_allclose(real_inner(f, g), 0.0, atol=1e-15)
    np.testing.assert_allclose(real_inner(f, g, s=1.0), 0.0, atol=1e-15)
    np.testing.assert_allclose(real_inner(f, f, s=1.0), 8.0, rtol=1e-15)


def test_pad_points():
    assert pad_points(42, 3) == 180
    assert pad_points(42, 3) >= 4 * 42 + 2
    n = pad_points(20, 5)
    assert n % 2 == 0 and n >= 6 * 20 + 2
    # five-smooth: no prime factor above 5
    m = n
    for q in (2, 3, 5):
        while m % q == 0:
            m //= q
    assert m == 1


def test_energy_zero_field():
    assert energy(zero_field(GRID)) == 0.0


def test_energy_constant_one():
    f = to_spectral(np.ones(GRID.n_points, dtype=complex), GRID)
    np.testing.assert_allclose(energy(f, 3), 1.5 * math.pi, rtol=1e-10)
    # p = 5: pi + (2 pi / 6) = pi + pi/3
    np.testing.assert_allclose(energy(f, 5), math.pi + math.pi / 3.0, rtol=1e-10)


def test_energy_plane_wave():
    f = plane_wave(GRID, 1, 1.0)
    np.testing.assert_allclose(energy(f, 3), 2.5 * math.pi, rtol=1e-10)


def test_energy_validation():
    f = zero_field(GRID)
    for p in (4, 1):
        with pytest.raises(ValidationError):
            energy(f, p)
        with pytest.raises(ValidationError):
            energy_series(f.coeffs[None, :], p)


def test_energy_dominates_l2():
    for seed in range(4):
        f = random_field(GRID, seed, scale=0.3)
        assert energy(f, 3) >= 0.5 * sobolev_norm(f, 0.0) ** 2 - 1e-12
    assert energy(zero_field(GRID), 3) == 0.0


def test_hs_norm_sq_batched():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((4, GRID.n_coeff)) + 1j * rng.standard_normal((4, GRID.n_coeff))
    batch = hs_norm_sq(block, 1.0)
    singles = [sobolev_norm(FourierField(GRID, row), 1.0) ** 2 for row in block]
    np.testing.assert_allclose(batch, singles, rtol=1e-13)


def test_lp_power_integral_cubic_shortcut():
    f = random_field(GRID, 9, scale=0.5)
    val = lp_power_integral(f.coeffs, 3)
    np.testing.assert_allclose(val, np.sum(np.abs(f.coeffs) ** 2), rtol=1e-12)


def test_lp_power_integral_resolves_its_power():
    # the padded grid comes from p: |u|^4 at p = 5 matches a far finer grid
    f = random_field(GRID, 10, scale=0.5)
    fine = np.mean(np.abs(synth(f.coeffs, 8 * GRID.n_points)) ** 4) * 2.0 * math.pi
    np.testing.assert_allclose(lp_power_integral(f.coeffs, 5), fine, rtol=1e-12)
    with pytest.raises(ValidationError):
        lp_power_integral(f.coeffs, 4)


def test_mode_weights_cached_read_only():
    w = mode_weights(GRID.k_max, 1.0)
    assert mode_weights(GRID.k_max, 1.0) is w
    assert mode_weights(GRID.k_max, 1) is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    k = GRID.modes.astype(float)
    np.testing.assert_array_equal(w, 1.0 + k**2)
    np.testing.assert_array_equal(mode_weights(GRID.k_max, 0.0), np.ones(GRID.n_coeff))


def test_damping_profiles():
    z = zero_damping(GRID)
    assert z.is_zero and np.all(z.values == 0)
    c = constant_damping(GRID, 0.25)
    assert not c.is_zero
    np.testing.assert_allclose(c.values, 0.25)
    b = bump_damping(GRID, 1.5, math.pi, 1.5)
    assert np.all(b.values >= 0)
    assert b.values.max() <= 1.5 * math.exp(-1.0) + 1e-12
    x = GRID.points
    outside = np.abs(x - math.pi) >= 1.5
    assert np.all(b.values[outside] == 0)
    assert b.values[np.argmin(np.abs(x - math.pi))] > 0
    assert "bump" in b.describe()
    # at() is the closed form the constructors use, on any grid
    fine = Grid(4 * GRID.n_points, GRID.k_max)
    for prof, twin in ((z, zero_damping(fine)), (c, constant_damping(fine, 0.25)),
                       (b, bump_damping(fine, 1.5, math.pi, 1.5))):
        np.testing.assert_array_equal(prof.at(GRID.points), prof.values)
        np.testing.assert_array_equal(prof.at(fine.points), twin.values)


@pytest.mark.parametrize("width", [1e-3, 5e-324])
def test_bump_narrower_than_grid_spacing_rejected(width):
    # such a bump damps one grid point (1e-3) or none at all (5e-324)
    spacing = 2 * math.pi / GRID.n_points
    with pytest.raises(ValidationError, match="below the grid spacing") as err:
        bump_damping(GRID, 1.0, math.pi, width)
    assert repr(width) in str(err.value) and repr(spacing) in str(err.value)
    assert bump_damping(GRID, 1.0, math.pi, spacing).values.max() > 0


def test_damping_profiles_compare_by_closed_form():
    a = bump_damping(GRID, 1.0, math.pi, 1.5)
    b = bump_damping(GRID, 1.0, math.pi, 1.5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != bump_damping(GRID, 1.0, math.pi, 1.4)
    assert a != constant_damping(GRID, 0.0) and zero_damping(GRID) == zero_damping(GRID)
    # so do the solver configs that hold them
    cfg = lambda d, dt=2.0**-7: SolverConfig(grid=GRID, damping=d, dt=dt)
    assert cfg(a) == cfg(b) and hash(cfg(a)) == hash(cfg(b))
    assert cfg(a) != cfg(b, 2.0**-8)


def test_damping_validation():
    with pytest.raises(ValidationError):
        constant_damping(GRID, -0.1)
    with pytest.raises(ValidationError):
        bump_damping(GRID, 1.0, math.pi, 0.0)
    with pytest.raises(ValidationError):
        bump_damping(GRID, 1.0, math.pi, 4.0)  # width must stay below pi
    # raw samples would be lost on the solver's padded grid
    with pytest.raises(ValidationError):
        DampingProfile(GRID, np.full(GRID.n_points, 0.3))
    with pytest.raises(ValidationError):
        DampingProfile(GRID, np.full(GRID.n_points, 0.3), "ramp", (0.3,))
