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
    zero_damping,
    zero_field,
)
from schrodmix.dynamics import SolverConfig, energy_series, lp_power_integral, pad_points
from schrodmix.spectral import (
    ROOT_2PI,
    TWO_PI,
    DampingProfile,
    analyze,
    hs_norm_sq,
    mode_weights,
    synth,
)

GRID = Grid(42)
N = 128  # physical samples the transform tests evaluate GRID's fields on
X = TWO_PI * np.arange(N) / N


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.n_coeff) + 1j * rng.standard_normal(grid.n_coeff)
    return FourierField(grid, scale * c)


def test_grid_validation():
    for k_max in (0, -1):
        with pytest.raises(ValidationError, match="k_max must be >= 1"):
            Grid(k_max)
    # a float band, even a whole one, would fail only later, inside numpy
    for k_max in (2.5, 20.0, True):
        with pytest.raises(ValidationError, match="k_max must be an integer"):
            Grid(k_max)
    assert Grid(np.int64(20)) == Grid(20)


def test_grid_is_its_band():
    g = Grid(20)
    assert g.n_coeff == 41
    np.testing.assert_array_equal(g.modes, np.arange(-20, 21))
    assert g == Grid(k_max=20) and g != Grid(21)
    # no physical sample count: the solver picks its padded grid from p
    assert not hasattr(g, "n_points") and not hasattr(g, "points")


def test_to_physical_single_mode():
    f = basis_field(GRID, 0, 1.0)
    vals = synth(f.coeffs, N)
    np.testing.assert_allclose(vals, np.full(N, 1.0 / ROOT_2PI), atol=1e-14)


def test_to_physical_zero():
    vals = synth(zero_field(GRID).coeffs, N)
    assert np.all(vals == 0)


@pytest.mark.parametrize("n,k", [(32, 10), (64, 20), (128, 42)])
def test_transform_round_trip(n, k):
    g = Grid(k)
    f = random_field(g, 7)
    back = analyze(synth(f.coeffs, n), k)
    np.testing.assert_allclose(back, f.coeffs, rtol=1e-12, atol=1e-12)
    # a batch of rows transforms row by row
    rows = np.stack([f.coeffs, 2j * f.coeffs])
    np.testing.assert_allclose(analyze(synth(rows, n), k), rows, rtol=1e-12, atol=1e-12)


def test_to_spectral_constant():
    vals = np.full(N, 2.5 + 0j)
    f = FourierField(GRID, analyze(vals, GRID.k_max))
    np.testing.assert_allclose(f.coeff(0), 2.5 * ROOT_2PI, rtol=1e-13)
    rest = np.delete(f.coeffs, GRID.k_max)
    np.testing.assert_allclose(rest, 0, atol=1e-12)


def test_to_spectral_plane_wave():
    vals = np.exp(1j * X)
    f = FourierField(GRID, analyze(vals, GRID.k_max))
    np.testing.assert_allclose(f.coeff(1), ROOT_2PI, rtol=1e-12)
    rest = np.delete(f.coeffs, GRID.k_max + 1)
    np.testing.assert_allclose(rest, 0, atol=1e-12)


def test_transform_length_mismatch():
    with pytest.raises(ValidationError):
        analyze(np.zeros(40), 20)  # 41 modes need at least 41 samples
    with pytest.raises(ValidationError):
        synth(np.zeros(41), 40)
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
    other = basis_field(Grid(20), 1, 1.0)
    with pytest.raises(ValidationError):
        f + other


def test_plane_wave_is_scaled_basis():
    pw = plane_wave(GRID, 3, 0.7)
    bf = basis_field(GRID, 3, 0.7)
    np.testing.assert_allclose(pw.coeffs, ROOT_2PI * bf.coeffs, rtol=1e-15)
    # physical amplitude of the plane wave is the requested one
    np.testing.assert_allclose(np.abs(synth(pw.coeffs, N)), 0.7, rtol=1e-12)


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
    vals = synth(f.coeffs, N)
    physical = np.mean(np.abs(vals) ** 2) * 2 * math.pi
    np.testing.assert_allclose(physical, spectral, rtol=1e-10)


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
    f = FourierField(GRID, analyze(np.ones(N, dtype=complex), GRID.k_max))
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


def test_hs_norm_sq_keeps_the_plain_bits():
    # one real block formed in place is w * (c.real**2 + c.imag**2) reduced
    # bit for bit, on a block, a single row and a real row
    rng = np.random.default_rng(6)
    block = rng.standard_normal((5, GRID.n_coeff)) + 1j * rng.standard_normal((5, GRID.n_coeff))
    block[0, :3] = [complex(-0.0, 0.0), complex(np.inf, 1.0), complex(1e-170, -1e150)]
    for c in (block, block[1], block[2].real):
        for s in (0.0, 1.0, 2.5, -1.5):
            w = mode_weights(GRID.k_max, s)
            want = np.add.reduce(w * (c.real**2 + c.imag**2), axis=-1)
            assert hs_norm_sq(c, s).tobytes() == want.tobytes(), (c.shape, s)


def test_lp_power_integral_cubic_shortcut():
    f = random_field(GRID, 9, scale=0.5)
    val = lp_power_integral(f.coeffs, 3)
    np.testing.assert_allclose(val, np.sum(np.abs(f.coeffs) ** 2), rtol=1e-12)


def test_lp_power_integral_resolves_its_power():
    # the padded grid comes from p: |u|^4 at p = 5 matches a far finer grid
    f = random_field(GRID, 10, scale=0.5)
    fine = np.mean(np.abs(synth(f.coeffs, 8 * N)) ** 4) * 2.0 * math.pi
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
    x = X
    z = zero_damping(GRID)
    assert np.all(z.at(x) == 0)
    c = constant_damping(GRID, 0.25)
    np.testing.assert_allclose(c.at(x), 0.25)
    b = bump_damping(GRID, 1.5, math.pi, 1.5)
    assert np.all(b.at(x) >= 0)
    assert b.at(x).max() <= 1.5 * math.exp(-1.0) + 1e-12
    outside = np.abs(x - math.pi) >= 1.5
    assert np.all(b.at(x)[outside] == 0)
    assert b.at(x)[np.argmin(np.abs(x - math.pi))] > 0
    # at() is the closed form the constructors use, on any points; the band
    # a profile carries does not enter it
    fine = TWO_PI * np.arange(4 * N) / (4 * N)
    other = Grid(20)
    for prof, twin in ((z, zero_damping(other)), (c, constant_damping(other, 0.25)),
                       (b, bump_damping(other, 1.5, math.pi, 1.5))):
        np.testing.assert_array_equal(prof.at(fine), twin.at(fine))


@pytest.mark.parametrize("width", [1e-3, 5e-324])
def test_bump_narrower_than_grid_spacing_rejected(width):
    # such a bump damps one point of the padded grid (1e-3) or none (5e-324);
    # the profile alone is fine, the solver that samples it refuses it
    bump = bump_damping(GRID, 1.0, math.pi, width)
    for p in (3, 5):
        spacing = TWO_PI / pad_points(GRID.k_max, p)
        with pytest.raises(ValidationError, match="below the grid spacing") as err:
            SolverConfig(grid=GRID, damping=bump, p=p)
        assert repr(width) in str(err.value) and repr(spacing) in str(err.value)


@pytest.mark.parametrize("p, n_pad", [(3, 180), (5, 256)])
def test_bump_width_floor_is_the_padded_spacing(p, n_pad):
    """The floor is the spacing of the padded grid SolverConfig._tab
    samples a(x) on."""
    spacing = TWO_PI / n_pad
    assert pad_points(GRID.k_max, p) == n_pad
    below = bump_damping(GRID, 1.0, math.pi, np.nextafter(spacing, 0.0))
    with pytest.raises(ValidationError, match="below the grid spacing 2pi/%d" % n_pad):
        SolverConfig(grid=GRID, damping=below, p=p)
    cfg = SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, spacing), p=p)
    assert cfg._tab.decay.min() < 1.0  # it damps a padded point


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
    # a direct construction is refused exactly as the constructors refuse
    for kind, params, match in (
        ("ramp", (0.3,), "unknown damping kind"),
        ("constant", (), "takes 1 parameters"),
        ("constant", (-0.1,), "constant must be >= 0"),
        ("bump", (-1.0, math.pi, 1.5), "amplitude must be >= 0"),
        ("bump", (1.0, math.pi, 4.0), "sit in"),
    ):
        with pytest.raises(ValidationError, match=match):
            DampingProfile(GRID, kind, params)
    # nor can raw samples be passed for the closed form
    with pytest.raises(ValidationError, match="unknown damping kind"):
        DampingProfile(GRID, np.full(N, 0.3))
    assert DampingProfile(GRID, "bump", (1, math.pi, 1.5)) == bump_damping(GRID, 1.0, math.pi, 1.5)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("constant", (math.nan,)),
        ("bump", (math.nan, math.pi, 1.5)),
        ("bump", (1.0, math.inf, 1.5)),
        ("bump", (1.0, math.pi, math.nan)),
    ],
    ids=["value", "amplitude", "center", "width"],
)
def test_damping_refuses_non_finite_parameters(kind, params):
    # as FourierField refuses non-finite coefficients: a NaN constant made
    # a(x) NaN, and a bump at an infinite center damped nothing
    with pytest.raises(ValidationError, match="%s damping parameters must be finite" % kind):
        DampingProfile(GRID, kind, params)
