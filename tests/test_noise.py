"""Haar system, coefficient density, and noise path sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodmix import NoisePath, NoiseSpec, RhoSpec, ValidationError
from schrodmix.noise import (
    _PPF_CHUNK,
    haar_basis,
    haar_cells,
    haar_eval,
    haar_inner,
    haar_time_keys,
    sample_noise_path,
    sample_noise_paths,
)


def test_haar_eval_level_zero():
    assert haar_eval(0, 0, 0.5) == 1
    assert haar_eval(0, 0, 0.0) == 1
    assert haar_eval(0, 0, 1.0) == 0
    assert haar_eval(0, 0, -0.1) == 0


def test_haar_eval_level_one():
    assert haar_eval(1, 0, 0.2) == 1
    assert haar_eval(1, 0, 0.3) == -1
    assert haar_eval(1, 0, 0.6) == 0
    # left-closed, right-open cells
    assert haar_eval(1, 0, 0.0) == 1
    assert haar_eval(1, 0, 0.25) == -1
    assert haar_eval(1, 0, 0.5) == 0
    assert haar_eval(1, 1, 0.5) == 1


def test_haar_eval_deeper_cell():
    assert haar_eval(2, 3, 0.80) == 1
    assert haar_eval(2, 3, 0.90) == -1
    assert haar_eval(2, 3, 0.70) == 0


def test_haar_eval_vectorized():
    t = np.array([0.1, 0.3, 0.7])
    np.testing.assert_array_equal(haar_eval(1, 0, t), [1, -1, 0])


def test_haar_eval_index_errors():
    with pytest.raises(ValidationError):
        haar_eval(-1, 0, 0.5)
    with pytest.raises(ValidationError):
        haar_eval(0, 1, 0.5)
    with pytest.raises(ValidationError):
        haar_eval(2, 4, 0.5)
    with pytest.raises(ValidationError):
        haar_eval(2, -1, 0.5)


@pytest.mark.parametrize(
    "name, value",
    [("amplitudes", (math.inf, 0.1)), ("haar_c", math.inf), ("haar_q", math.inf)],
)
def test_noise_spec_refuses_non_finite_parameters(name, value):
    # an infinite amplitude or haar_c made sup_bound inf
    with pytest.raises(ValidationError, match="%s must be finite" % name):
        NoiseSpec(**{name: value})


def test_haar_cells_match_haar_eval():
    """Each key's table row is haar_eval at the cell midpoints, on the
    coarsest cells the level allows and on 4x finer ones; the control basis
    row of the key is that times 2^(j/2), and the rows are orthonormal."""
    for level in range(7):
        for n_cells in (2 ** (level + 1), 2 ** (level + 3)):
            idx, sign = haar_cells(level, n_cells)
            assert idx.shape == sign.shape == (level + 1, n_cells)
            basis = haar_basis(level, n_cells)
            assert basis.shape == (len(haar_time_keys(level)), n_cells)
            t_mid = (np.arange(n_cells) + 0.5) / n_cells
            for p, (j, l) in enumerate(haar_time_keys(level)):
                row = np.where(idx[j] == l, sign[j], 0.0)
                np.testing.assert_array_equal(row, haar_eval(j, l, t_mid))
                np.testing.assert_array_equal(basis[p], 2.0 ** (j / 2.0) * row)
            gram = basis @ basis.T / n_cells
            np.testing.assert_allclose(gram, np.eye(len(basis)), rtol=0, atol=1e-14)


def test_haar_cells_validation():
    for level, n_cells in ((2, 12), (2, 4), (0, 1), (0, 0), (-1, 4)):
        with pytest.raises(ValidationError):
            haar_cells(level, n_cells)
        with pytest.raises(ValidationError):
            haar_basis(level, n_cells)


def test_haar_orthonormality_small_levels():
    """Exact rational inner products on levels up to 3."""
    keys = haar_time_keys(3)
    for a, (j, l) in enumerate(keys):
        for jp, lp in keys[a:]:
            got = haar_inner(j, l, jp, lp, normalized=True)
            want = Fraction(1) if (j, l) == (jp, lp) else Fraction(0)
            assert got == want


def test_haar_inner_unnormalized_diagonal():
    # sup-normalized functions have L2 mass 2^-j
    assert haar_inner(2, 1, 2, 1) == Fraction(1, 4)
    assert haar_inner(0, 0, 0, 0) == Fraction(1)


def test_rho_density_basics():
    rho = RhoSpec()
    x = np.linspace(-1, 1, 20001)
    mass = np.trapezoid(rho.pdf(x), x)
    np.testing.assert_allclose(mass, 1.0, atol=1e-10)
    assert rho.pdf(0.0) == pytest.approx(1.0)
    assert rho.pdf(1.0) == pytest.approx(0.0)
    assert rho.pdf(-1.2) == 0.0 and rho.pdf(1.2) == 0.0


def test_rho_cdf_matches_quadrature():
    rho = RhoSpec()
    for q in (-0.9, -0.5, 0.0, 0.3, 0.8):
        x = np.linspace(-1, q, 40001)
        np.testing.assert_allclose(rho.cdf(q), np.trapezoid(rho.pdf(x), x), atol=1e-8)
    np.testing.assert_allclose(rho.cdf(-1.0), 0.0, atol=1e-15)
    np.testing.assert_allclose(rho.cdf(1.0), 1.0, atol=1e-15)


def test_rho_ppf_inverts_cdf():
    rho = RhoSpec()
    u = np.linspace(1e-6, 1 - 1e-6, 513)
    x = rho.ppf(u)
    np.testing.assert_allclose(rho.cdf(x), u, atol=1e-11)
    assert np.all(x >= -1) and np.all(x <= 1)


# (u, x_hi, x_lo): the exact inverse x = x_hi + x_lo as a double-double,
# computed once with mpmath at 140 digits (no test dependency on it).  The
# points reach within 40 ulp of 0 and 1, where the closed-form CDF cancels,
# and include x near +-0.9 and +-0.71, either side of the series switch.
_PPF_REFERENCE = (
    (5e-324, -1.0, 1.817838871445603e-108),
    (1e-300, -1.0, 1.0673179995528817e-100),
    (1e-17, -0.9999977005330765, -4.610283578507887e-18),
    (2.0**-53, -0.9999948702376763, -3.427051448303054e-17),
    (40 * 2.0**-53, -0.9999824564596279, -1.4437367510903444e-17),
    (1e-09, -0.998932681800447, 9.070477762680451e-18),
    (0.0009295937314318801, -0.8956474847137046, 1.959794017791754e-18),
    (0.019837981362766, -0.7069553035356905, -4.419135506539764e-17),
    (0.25, -0.26474189536615045, -1.5713307370783479e-18),
    (0.5, 0.0, 0.0),
    (0.75, 0.26474189536615045, 1.5713307370783479e-18),
    (0.980162018637234, 0.7069553035356902, 3.76814803410379e-17),
    (0.9991853475558014, 0.9001541027351572, -1.533017894185662e-18),
    (1 - 1e-09, 0.998932681810509, -1.6398238012586106e-17),
    (1 - 40 * 2.0**-53, 0.9999824564596279, 1.4437367510903444e-17),
    (1 - 2.0**-53, 0.9999948702376763, 3.427051448303054e-17),
)


def test_rho_ppf_tail_accuracy():
    u, x_hi, x_lo = np.array(_PPF_REFERENCE).T
    x = RhoSpec().ppf(u)
    # x - x_hi is exact where the two are close, so this is the true error
    assert np.max(np.abs((x - x_hi) - x_lo)) <= 2.3e-16
    assert RhoSpec().ppf(0.5) == 0.0
    np.testing.assert_array_equal(RhoSpec().ppf(np.array([0.0, 1.0])), [-1.0, 1.0])


def test_rho_ppf_is_the_same_across_chunks():
    # the Newton steps run over fixed chunks of draws; each draw, in any
    # chunk and at any offset in it, is the draw taken alone, bit for bit
    u = np.random.default_rng(77).random((3, _PPF_CHUNK - 5))
    u[0, :3] = (0.0, 0.5, 1.0)
    x = RhoSpec().ppf(u)
    assert u.size > 2 * _PPF_CHUNK and x.shape == u.shape
    alone = np.array([RhoSpec().ppf(v) for v in u.reshape(-1)]).reshape(u.shape)
    assert x.tobytes() == alone.tobytes()


def test_rho_ppf_rejects_outside_unit_interval():
    rho = RhoSpec()
    for bad in (np.nan, -1e-300, 1.0 + 2.0**-52, np.inf):
        with pytest.raises(ValidationError, match="outside"):
            rho.ppf(np.array([0.5, bad]))


def test_rho_sampling_statistics():
    rho = RhoSpec()
    rng = np.random.default_rng(2024)
    draws = rho.ppf(rng.random(10**6))
    assert np.all(np.abs(draws) <= 1.0)
    assert abs(draws.mean()) < 3e-3
    assert abs(np.mean(draws <= 0.0) - 0.5) < 2e-3
    # var = 1/3 - 2/pi^2 for the raised cosine on [-1, 1]
    np.testing.assert_allclose(draws.var(), 1.0 / 3.0 - 2.0 / math.pi**2, atol=3e-3)


def test_noise_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec(modes=())
    with pytest.raises(ValidationError):
        NoiseSpec(modes=(0, 0), amplitudes=(0.1, 0.1))
    with pytest.raises(ValidationError):
        NoiseSpec(modes=(0, 1), amplitudes=(0.1,))
    with pytest.raises(ValidationError):
        NoiseSpec(amplitudes=(0.1, -0.2))
    with pytest.raises(ValidationError, match="q > 1"):
        NoiseSpec(haar_q=1.0)
    with pytest.raises(ValidationError):
        NoiseSpec(haar_c=-0.5)
    with pytest.raises(ValidationError):
        NoiseSpec(level_max=0)
    with pytest.raises(ValidationError):
        NoiseSpec(level_max=17)
    # a float or a flag would be truncated to a mode, and a float level
    # would fail only later, inside numpy
    for modes in ((0, 1.5), (0, 1.0), (True, 2)):
        with pytest.raises(ValidationError, match="noise mode must be an integer"):
            NoiseSpec(modes=modes, amplitudes=(0.1, 0.1))
    for level in (3.0, 3.5, True):
        with pytest.raises(ValidationError, match="level_max must be an integer"):
            NoiseSpec(level_max=level)
    spec = NoiseSpec(modes=(np.int64(0), np.int32(2)), level_max=np.int64(3))
    assert spec.modes == (0, 2) and spec.level_max == 3 and spec.n_cells == 16


def test_noise_spec_derived_quantities():
    spec = NoiseSpec()
    assert spec.n_cells == 128
    assert spec.n_xi_pairs == 127
    np.testing.assert_allclose(spec.level_weights, 0.5 * np.arange(1, 7.0) ** -2.0)
    want = 0.15 * math.sqrt(2.0) * (1.0 + spec.level_weights.sum())
    np.testing.assert_allclose(spec.sup_bound(0), want, rtol=1e-14)
    np.testing.assert_allclose(spec.sup_bound(1), want, rtol=1e-14)


def test_sample_determinism_and_batch_equivalence():
    spec = NoiseSpec()
    rec = (11, 1, 4, 9)
    a = sample_noise_path(spec, rec)
    b = sample_noise_path(spec, rec)
    np.testing.assert_array_equal(a.cells, b.cells)
    batch = sample_noise_paths(spec, [(3, 0, 0, 0), rec, (5, 0, 0, 1)])
    np.testing.assert_array_equal(batch[1].cells, a.cells)
    c = sample_noise_path(spec, (11, 1, 4, 10))
    assert np.any(c.cells != a.cells)
    # a path does not depend on the block it is sampled in, to the last bit
    for size in (1, 64, 65):
        records = [(size, i, 2, 0) for i in range(size)]
        for path, r in zip(sample_noise_paths(spec, records), records):
            assert path.cells.tobytes() == sample_noise_path(spec, r).cells.tobytes()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(size=st.integers(1, 70), data=st.data())
def test_sampled_path_is_the_same_in_any_block(size, data):
    # the Newton inverse runs a fixed step count elementwise, so no draw
    # depends on its block neighbours
    spec = NoiseSpec()
    seeds = st.tuples(*[st.integers(0, 2**31 - 1)] * 4)
    records = data.draw(st.lists(seeds, min_size=size, max_size=size))
    pos = data.draw(st.integers(0, size - 1))
    alone = sample_noise_path(spec, records[pos])
    assert sample_noise_paths(spec, records)[pos].cells.tobytes() == alone.cells.tobytes()


def test_path_shape_and_sup_bound():
    spec = NoiseSpec()
    for seed in range(40):
        path = sample_noise_path(spec, (seed, 0, 0, 0))
        assert path.cells.shape == (2, 128)
        # cells carry eta without the amplitude factor
        assert np.abs(path.cells).max() <= math.sqrt(2.0) * (1.0 + spec.level_weights.sum())
        for m in range(2):
            assert path.sup_norm(m) <= spec.sup_bound(m) + 1e-12


def test_minimal_level_path_is_two_cell():
    spec = NoiseSpec(level_max=1)
    path = sample_noise_path(spec, (0, 0, 0, 0))
    assert path.cells.shape == (2, 4)
    assert spec.n_xi_pairs == 3


def test_time_average_equals_level_zero_term():
    """Levels j >= 1 integrate to zero, so the path mean is the h0 draw.

    The draw count depends only on level_max, so zeroing the level weights
    through haar_c isolates the level-0 coefficient from the same stream.
    """
    spec = NoiseSpec()
    flat = NoiseSpec(haar_c=0.0)
    rec = (7, 1, 0, 3)
    path = sample_noise_path(spec, rec)
    base = sample_noise_path(flat, rec)
    for m in range(2):
        assert np.ptp(base.cells[m].real) == 0.0
        np.testing.assert_allclose(path.cells[m].mean(), base.cells[m][0], atol=1e-12)


def test_path_cells_validation():
    spec = NoiseSpec()
    with pytest.raises(ValidationError):
        NoisePath(spec, np.zeros((2, 64), dtype=complex))


def test_shifted_subtracts():
    spec = NoiseSpec()
    path = sample_noise_path(spec, (4, 0, 0, 0))
    delta = np.full((2, 128), 0.25 + 0.1j)
    moved = path.shifted(delta)
    np.testing.assert_allclose(moved.cells, path.cells - delta, rtol=1e-15)
    with pytest.raises(ValidationError):
        path.shifted(np.zeros((2, 3)))
