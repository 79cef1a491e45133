"""Saturating sets, regularized pseudo-inverse, shift synthesis, contraction."""

import math

import numpy as np
import pytest

from schrodmix import (
    Grid,
    NoiseSpec,
    SolverConfig,
    StabilizationReport,
    ValidationError,
    bump_damping,
    contraction_test,
    equivalent_norm,
    markov_step,
    pseudo_inverse_apply,
    regularized_pinv_solve,
    report_dict,
    report_from_dict,
    saturation_span,
    sobolev_norm,
    solve_nls,
    stabilizing_shift,
    zero_damping,
    zero_field,
)
from schrodmix.config import random_h1_field
from schrodmix.control import (
    build_control_basis_map,
    compact_T_apply,
    largest_interval,
    realize_shift_cells,
    saturate_once,
)
from schrodmix.linearized import h1_coords
from schrodmix.noise import sample_noise_path
from schrodmix.spectral import ROOT_2PI

GRID = Grid(20)
DT = 2.0**-7


def damped_cfg():
    return SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=DT)


def noisy_base(seed=3, amp=0.5):
    cfg = damped_cfg()
    z = sample_noise_path(NoiseSpec(), (seed, 0, 0, 0))
    u0 = random_h1_field(GRID, amp, 3.0, seed, 0)
    return solve_nls(u0, z, 1.0, cfg), z, u0, cfg


def test_saturate_once_rule():
    out = saturate_once(frozenset({0, 1}), frozenset({0, 1}))
    assert out == frozenset({-1, 0, 1, 2})


def test_saturation_span_grows_interval():
    for n in range(5):
        span, interval = saturation_span({0, 1}, n)
        assert span == frozenset(range(-n, n + 2))
        assert interval == (-n, n + 1)


def test_saturation_fixed_point():
    span, interval = saturation_span({2}, 5)
    assert span == frozenset({2})
    assert interval == (2, 2)


def test_saturation_shifted_base():
    span, interval = saturation_span({5, 6}, 2)
    assert span >= frozenset(range(3, 9))
    assert interval == (3, 8)


def test_saturation_parity_invariant():
    span, _ = saturation_span({0, 2}, 3)
    assert all(k % 2 == 0 for k in span)
    span, _ = saturation_span({-4, 2, 6}, 4)
    assert all(k % 2 == 0 for k in span)


def test_saturation_validation():
    assert saturation_span({0, 1}, 0)[0] == frozenset({0, 1})
    with pytest.raises(ValidationError):
        saturation_span({0, 1}, -1)
    with pytest.raises(ValidationError):
        saturation_span(set(), 2)


def test_largest_interval():
    assert largest_interval({1, 2, 3, 7, 8}) == (1, 3)
    assert largest_interval({5}) == (5, 5)
    assert largest_interval({4, 6, 8}) == (4, 4)


def test_pinv_identity_matrix():
    a = np.eye(2)
    t = np.array([3.0, -1.0])
    c = regularized_pinv_solve(a, 1.0, t)
    np.testing.assert_allclose(c, t / 2.0, rtol=1e-14)


def test_pinv_diagonal_closed_form():
    a = np.diag([2.0, 1.0])
    t = np.array([1.0, 1.0])
    c = regularized_pinv_solve(a, 0.5, t)
    np.testing.assert_allclose(c, [2.0 / 4.5, 1.0 / 1.5], rtol=1e-14)


def test_pinv_validation():
    with pytest.raises(ValidationError):
        regularized_pinv_solve(np.eye(2), 0.0, np.ones(2))
    with pytest.raises(ValidationError):
        regularized_pinv_solve(np.eye(2), -1.0, np.ones(2))


def test_pinv_gamma_monotonicity():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 9))
    t = rng.standard_normal(4)
    gammas = (1.0, 0.1, 0.01, 0.001)
    residuals = []
    norms = []
    for g in gammas:
        c = regularized_pinv_solve(a, g, t)
        residuals.append(np.linalg.norm(a @ c - t))
        norms.append(np.linalg.norm(c))
    assert all(r1 >= r2 - 1e-14 for r1, r2 in zip(residuals, residuals[1:]))
    assert all(n1 <= n2 + 1e-14 for n1, n2 in zip(norms, norms[1:]))
    # the regularized solution never beats the zero control's residual
    for r in residuals:
        assert r <= np.linalg.norm(t) + 1e-10


def test_control_basis_map_columns():
    base, z, u0, cfg = noisy_base(seed=5)
    cmap = build_control_basis_map(base, (0, 1), 1, 4)
    assert cmap.column_count == 2 * 3 * 2
    assert cmap.matrix.shape == (2 * (2 * 4 + 1), cmap.column_count)
    assert len(cmap.column_keys) == cmap.column_count
    # the modes are the column keys' first entries, in the order given
    assert [key[0] for key in cmap.column_keys] == [0] * 6 + [1] * 6
    assert cmap.time_level == 1
    assert cmap.galerkin_cutoff == 4


def test_pseudo_inverse_apply_fits_the_field_coordinates():
    # a target field is fitted in the map's H1 Galerkin coordinates
    base, z, u0, cfg = noisy_base(seed=5)
    cmap = build_control_basis_map(base, (0, 1), 1, 4)
    target = random_h1_field(GRID, 0.1, 2.0, 50, 0)
    c_field = pseudo_inverse_apply(cmap, 1e-2, target)
    vec = h1_coords(target.coeffs, GRID.k_max, 4)
    direct = regularized_pinv_solve(cmap.matrix, 1e-2, vec)
    np.testing.assert_array_equal(c_field, direct)


def test_compact_map_vanishes_on_zero_base():
    cfg = damped_cfg()
    base = solve_nls(zero_field(GRID), None, 1.0, cfg)
    w = random_h1_field(GRID, 1.0, 2.5, 3, 0)
    out = compact_T_apply(base, w)
    assert sobolev_norm(out, 1.0) <= 3e-13


def test_compact_map_real_linearity():
    base, z, u0, cfg = noisy_base(seed=7)
    w1 = random_h1_field(GRID, 0.5, 2.5, 8, 0)
    w2 = random_h1_field(GRID, 0.7, 2.5, 8, 1)
    lhs = compact_T_apply(base, 2.0 * w1 - 0.5 * w2)
    rhs = 2.0 * compact_T_apply(base, w1) - 0.5 * compact_T_apply(base, w2)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-10, atol=1e-12)


def test_realize_shift_constant_column():
    base, z, u0, cfg = noisy_base(seed=5)
    spec = z.spec
    cmap = build_control_basis_map(base, spec.modes, 0, 3)
    coeffs = np.zeros(cmap.column_count)
    coeffs[0] = 1.0  # column (k=0, h0, real component)
    delta = realize_shift_cells(cmap, coeffs, spec)
    assert delta.shape == (2, spec.n_cells)
    want = 1.0 / (spec.amplitudes[0] * ROOT_2PI)
    np.testing.assert_allclose(delta[0], want, rtol=1e-14)
    np.testing.assert_allclose(delta[1], 0, atol=1e-15)


def test_realize_shift_validation():
    base, z, u0, cfg = noisy_base(seed=5)
    cmap = build_control_basis_map(base, (0, 2), 0, 3)
    with pytest.raises(ValidationError):
        realize_shift_cells(cmap, np.zeros(cmap.column_count), z.spec)
    shallow = NoiseSpec(level_max=1)
    deep_map = build_control_basis_map(base, (0, 1), 2, 3)
    with pytest.raises(ValidationError):
        realize_shift_cells(deep_map, np.zeros(deep_map.column_count), shallow)


def test_realized_shift_matches_response_to_first_order():
    """Shifting the noise by eps * realize_shift_cells(c) moves the endpoint
    by -eps A c: this pins the sign and the 1/(b_k sqrt(2pi)) scale the two
    readers of the control basis share.  The gap left is the O(dt^2) one
    between the tangent scheme and the derivative of the nonlinear step
    (3.4e-5 here, 9e-6 at half the step); a sign or scale slip misses by O(1)."""
    spec = NoiseSpec(modes=(0, 1), amplitudes=(0.3, 0.3))
    cfg = damped_cfg()
    z = sample_noise_path(spec, (17, 0, 0, 0))
    x = random_h1_field(GRID, 0.1, 3.0, 17, 0)
    base = solve_nls(x, z, 1.0, cfg)
    cmap = build_control_basis_map(base, spec.modes, 2, GRID.k_max)
    c = np.random.default_rng(18).standard_normal(cmap.column_count)
    delta = realize_shift_cells(cmap, c, spec)
    eps = 1e-5
    moved = markov_step(x, z.shifted(eps * delta), cfg) - base.endpoint
    got = h1_coords(moved.coeffs, GRID.k_max, GRID.k_max) / eps
    want = -cmap.matrix @ c
    assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)


def test_stabilizing_shift_identical_states():
    base, z, u0, cfg = noisy_base(seed=11)
    cmap = build_control_basis_map(base, z.spec.modes, 1, 4)
    shift = stabilizing_shift(base, u0, 1e-2, cmap)
    np.testing.assert_array_equal(shift.path.cells, z.cells)
    assert shift.shift_norm == 0.0
    np.testing.assert_allclose(shift.coefficients, 0, atol=1e-12)


def test_stabilizing_shift_scales_linearly():
    base, z, u0, cfg = noisy_base(seed=11)
    cmap = build_control_basis_map(base, z.spec.modes, 1, 4)
    bump = random_h1_field(GRID, 1e-2, 2.0, 12, 0)
    full = stabilizing_shift(base, u0 + bump, 1e-2, cmap)
    half = stabilizing_shift(base, u0 + 0.5 * bump, 1e-2, cmap)
    np.testing.assert_allclose(half.coefficients, 0.5 * full.coefficients, rtol=1e-8)
    delta_full = z.cells - full.path.cells
    delta_half = z.cells - half.path.cells
    np.testing.assert_allclose(delta_half, 0.5 * delta_full, rtol=1e-8, atol=1e-16)


def test_precomputed_images_give_the_general_shift():
    # the separation row of a map built with x is the tangent image T would
    # form itself; the shift measures the separation it acts on
    base, z, u0, cfg = noisy_base(seed=11)
    bump = random_h1_field(GRID, 1e-2, 2.0, 12, 0)
    x = u0 + bump
    plain = build_control_basis_map(base, z.spec.modes, 1, 4)
    riding = build_control_basis_map(base, z.spec.modes, 1, 4, x=x)
    assert riding.matrix.tobytes() == plain.matrix.tobytes()
    assert plain.x is None and plain.tangent is None and riding.x is x
    assert plain.base() is base and riding.base() is base
    want = stabilizing_shift(base, x, 1e-2, plain)
    got = stabilizing_shift(base, x, 1e-2, riding)
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.path.cells.tobytes() == want.path.cells.tobytes()
    assert got.separation == want.separation == equivalent_norm(x - u0, cfg)
    # a map without a separation row serves any x
    for scale in (0.5, 2.0):
        xs = u0 + scale * bump
        own = build_control_basis_map(base, z.spec.modes, 1, 4, x=xs)
        got = stabilizing_shift(base, xs, 1e-2, plain)
        assert got.coefficients.tobytes() == stabilizing_shift(base, xs, 1e-2, own).coefficients.tobytes()


def test_precomputed_images_for_another_base_or_x_are_refused():
    base, z, u0, cfg = noisy_base(seed=11)
    bump = random_h1_field(GRID, 1e-2, 2.0, 12, 0)
    x = u0 + bump
    plain = build_control_basis_map(base, z.spec.modes, 1, 4)
    riding = build_control_basis_map(base, z.spec.modes, 1, 4, x=x)
    other = solve_nls(u0, sample_noise_path(z.spec, (12, 0, 0, 0)), 1.0, cfg)
    for cmap in (plain, riding):
        with pytest.raises(ValidationError, match="another base"):
            stabilizing_shift(other, x, 1e-2, cmap)
    with pytest.raises(ValidationError, match="another x"):
        stabilizing_shift(base, u0 + 0.5 * bump, 1e-2, riding)


def test_stabilizing_shift_requires_noise_base():
    cfg = damped_cfg()
    base = solve_nls(random_h1_field(GRID, 0.5, 3.0, 1, 0), None, 1.0, cfg)
    cmap = build_control_basis_map(base, (0, 1), 1, 4)
    with pytest.raises(ValidationError):
        stabilizing_shift(base, zero_field(GRID), 1e-2, cmap)


def test_equivalent_norm_without_damping_is_h1():
    cfg = SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT)
    w = random_h1_field(GRID, 0.8, 2.5, 21, 0)
    np.testing.assert_allclose(equivalent_norm(w, cfg), sobolev_norm(w, 1.0), rtol=1e-12)
    assert equivalent_norm(zero_field(GRID), cfg) == 0.0


def test_contraction_report_live():
    _, z, u0, cfg = noisy_base(seed=13)
    bump = random_h1_field(GRID, 1e-3, 2.0, 14, 0)
    rep = contraction_test(u0, u0 + bump, z, 1e-2, cfg, time_level=1, galerkin_cutoff=4)
    assert rep.q_ratio > 0 and rep.uncontrolled_ratio > 0
    assert rep.separation > 0
    assert rep.shift_norm > 0
    assert rep.success == (rep.q_ratio < 1.0)
    assert not rep.degenerate
    assert rep.norm_kind == "h1_after_group(tau0=1)"
    np.testing.assert_allclose(rep.separation, equivalent_norm(bump, cfg), rtol=1e-12)


def test_contraction_identical_states_degenerate():
    _, z, u0, cfg = noisy_base(seed=13)
    rep = contraction_test(u0, u0, z, 1e-2, cfg, time_level=1, galerkin_cutoff=4)
    assert rep.degenerate
    assert rep.q_ratio == 0.0 and rep.uncontrolled_ratio == 0.0
    assert rep.success
    assert rep.shift_norm == 0.0


def test_stabilization_report_json_round_trip():
    rep = StabilizationReport(
        gamma=1e-3,
        q_ratio=0.7,
        uncontrolled_ratio=1.1,
        shift_norm=0.2,
        success=True,
        norm_kind="h1",
        separation=0.05,
        seeds=(1, 2),
    )
    back = report_from_dict(StabilizationReport, report_dict(rep))
    assert back == rep
    legacy = report_dict(rep)
    legacy.pop("degenerate")
    assert not report_from_dict(StabilizationReport, legacy).degenerate
