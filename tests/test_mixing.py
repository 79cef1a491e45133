"""Chains, ensembles, observable dictionaries, decay and mixing reports."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from schrodmix import (
    CouplingReport,
    DecayReport,
    Ensemble,
    FourierField,
    Functional,
    Grid,
    MixReport,
    NoiseSpec,
    ObservableDictionary,
    SolverConfig,
    ValidationError,
    attractor_proximity,
    basis_field,
    bump_damping,
    contraction_test,
    decay_experiment,
    default_dictionary,
    dual_lipschitz_estimate,
    equivalent_norm,
    evolve_ensemble,
    linear_group,
    loglinear_fit,
    markov_step,
    mixing_experiment,
    phase_theta,
    pseudo_inverse_apply,
    report_dict,
    run_chain,
    sample_noise_paths,
    sobolev_norm,
    solve_linearized,
    solve_nls,
    synchronous_coupling_experiment,
    zero_field,
)
from schrodmix.control import build_control_basis_map, realize_shift_cells
from schrodmix.config import random_h1_field
from schrodmix.mixing import (
    ENSEMBLE_BLOCK,
    SOLO_TAG,
    chain_seed_record,
    solo_paths,
    warm_start,
)

GRID = Grid(20)
DT = 2.0**-7


def damped_cfg(**kw):
    return SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.0, math.pi, 1.5), dt=DT, **kw)


def small_spec():
    return NoiseSpec(amplitudes=(0.1, 0.1))


def test_functional_cos_coeff_values():
    f = Functional("cos_coeff", 0.5, k=1, alpha=2.0, beta=0.3)
    assert f.sup_const == 0.5
    assert f.lip_const == 1.0
    c = np.zeros((3, GRID.n_coeff), dtype=complex)
    c[1, 1 + GRID.k_max] = 0.7 + 0.4j
    got = f.values(c, GRID.k_max)
    want = 0.5 * np.cos(2.0 * np.array([0.0, 0.7, 0.0]) + 0.3)
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_functional_cos_mod_is_phase_invariant():
    f = Functional("cos_mod", 0.5, k=1, alpha=2.0, beta=0.3)
    assert f.lip_const == 1.0
    c = np.zeros((2, GRID.n_coeff), dtype=complex)
    c[0, 1 + GRID.k_max] = 0.7 + 0.4j
    c[1, 1 + GRID.k_max] = (0.7 + 0.4j) * np.exp(1j * 1.234)
    got = f.values(c, GRID.k_max)
    np.testing.assert_allclose(got[0], got[1], rtol=1e-14)
    want = 0.5 * np.cos(2.0 * abs(0.7 + 0.4j) + 0.3)
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_functional_exp_anchor():
    w = random_h1_field(GRID, 0.5, 2.0, 1, 0)
    f = Functional("exp_anchor", 0.5, anchor=np.asarray(w.coeffs, complex))
    assert f.lip_const == 0.5
    c = np.stack([w.coeffs, zero_field(GRID).coeffs])
    got = f.values(c, GRID.k_max)
    np.testing.assert_allclose(got[0], 0.5, rtol=1e-14)
    np.testing.assert_allclose(got[1], 0.5 * math.exp(-sobolev_norm(w, 1.0)), rtol=1e-12)


def test_dictionary_certification():
    with pytest.raises(ValidationError, match="unit ball"):
        ObservableDictionary(GRID, (Functional("cos_coeff", 0.9, k=0, alpha=1.0),))
    with pytest.raises(ValidationError, match="outside the band"):
        ObservableDictionary(GRID, (Functional("cos_coeff", 0.5, k=99, alpha=1.0),))
    d = default_dictionary(GRID)
    assert len(d) == 12  # three modes, two phases, two probe kinds
    assert d.max_lip <= 1.0 + 1e-12
    anchored = default_dictionary(GRID, anchors=(random_h1_field(GRID, 1.0, 2.0, 2, 0),))
    assert len(anchored) == 13


@pytest.mark.parametrize("make, match", [
    (lambda: Functional("bogus", 0.4), "unknown functional kind 'bogus'"),
    (lambda: Functional("exp_anchor", 0.4), "needs 9 anchor coefficients"),
    (lambda: Functional("exp_anchor", 0.4, anchor=np.zeros(7, complex)),
     "needs 9 anchor coefficients"),
], ids=["unknown_kind", "no_anchor", "anchor_off_the_band"])
def test_dictionary_refuses_a_bad_functional_at_construction(make, match):
    # each built and failed only in means, the first two with a TypeError
    with pytest.raises(ValidationError, match=match):
        ObservableDictionary(Grid(4), (make(),))


def test_dual_lipschitz_point_masses():
    d = default_dictionary(GRID)
    base = np.zeros((1, GRID.n_coeff), dtype=complex)
    for delta in (1e-1, 1e-2):
        moved = base.copy()
        moved[0, GRID.k_max] = delta
        est = dual_lipschitz_estimate(base, moved, d)
        assert est <= delta * d.max_lip + 1e-14
        assert est > 0


def test_dual_lipschitz_symmetry_and_triangle():
    d = default_dictionary(GRID)
    rng = np.random.default_rng(0)

    def cloud(seed):
        r = np.random.default_rng(seed)
        return 0.3 * (
            r.standard_normal((20, GRID.n_coeff)) + 1j * r.standard_normal((20, GRID.n_coeff))
        )

    a, b, c = cloud(1), cloud(2), cloud(3)
    ab = dual_lipschitz_estimate(a, b, d)
    ba = dual_lipschitz_estimate(b, a, d)
    assert ab == ba
    ac = dual_lipschitz_estimate(a, c, d)
    bc = dual_lipschitz_estimate(b, c, d)
    assert ac <= ab + bc + 1e-15
    assert dual_lipschitz_estimate(a, a, d) == 0.0


def test_run_chain_and_warm_start():
    cfg = damped_cfg()
    spec = small_spec()
    u0 = random_h1_field(GRID, 0.5, 3.0, 4, 0)
    states = run_chain(u0, 3, spec, cfg, master_seed=42)
    assert len(states) == 4
    np.testing.assert_array_equal(states[0].coeffs, u0.coeffs)
    again = run_chain(u0, 3, spec, cfg, master_seed=42)
    for a, b in zip(states, again):
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
    warm = warm_start(u0, 3, spec, cfg, master_seed=42)
    np.testing.assert_array_equal(warm.coeffs, states[-1].coeffs)


def test_solo_paths_are_the_solo_records_drawn_alone():
    spec = small_spec()
    paths = solo_paths(spec, 42, range(4))
    for n, path in enumerate(paths):
        (drawn,) = sample_noise_paths(spec, [chain_seed_record(42, SOLO_TAG, 0, n)])
        assert drawn.cells.tobytes() == path.cells.tobytes()
        (alone,) = solo_paths(spec, 42, [n])
        assert alone.cells.tobytes() == path.cells.tobytes()
    assert solo_paths(spec, 42, range(0)) == []


def test_ensemble_evolution_matches_chain_records():
    """Ensemble rows follow the per-chain seed records independently."""
    cfg = damped_cfg()
    spec = small_spec()
    u0 = random_h1_field(GRID, 0.4, 3.0, 6, 0)
    ens = Ensemble.from_field(u0, 3, master_seed=9, tag=1)
    assert ens.n_chains == 3
    out = evolve_ensemble(ens, spec, cfg, n_steps=2)
    assert out.step_index == 2
    from schrodmix.noise import sample_noise_paths
    from schrodmix import markov_step

    for i in range(3):
        state = u0
        for n in range(2):
            (z,) = sample_noise_paths(spec, [chain_seed_record(9, 1, i, n)])
            state = markov_step(state, z, cfg)
        # batched FFT rows can differ from a solo transform in the last ulp
        np.testing.assert_allclose(out.coeffs[i], state.coeffs, rtol=1e-12, atol=1e-14)


def test_loglinear_fit_recovers_line():
    x = np.arange(8.0)
    y = 3.0 * np.exp(-0.41 * x)
    slope, intercept, r = loglinear_fit(x, y)
    np.testing.assert_allclose(slope, -0.41, rtol=1e-12)
    np.testing.assert_allclose(intercept, math.log(3.0), rtol=1e-12)
    np.testing.assert_allclose(r, -1.0, rtol=1e-12)


def test_loglinear_fit_degenerate_inputs():
    assert all(math.isnan(v) for v in loglinear_fit([1.0], [2.0]))
    assert all(math.isnan(v) for v in loglinear_fit([1.0, 2.0], [1.0, -1.0]))
    slope, intercept, r = loglinear_fit([1.0, 2.0], [5.0, 5.0])
    assert abs(slope) < 1e-12 and math.isnan(r)


def test_decay_experiment_zero_initial_is_degenerate():
    rep = decay_experiment(zero_field(GRID), 2.0, damped_cfg())
    assert rep.degenerate
    assert math.isnan(rep.beta_hat)


def test_decay_experiment_damped_run():
    cfg = damped_cfg(store_stride=16)
    u0 = random_h1_field(GRID, 0.5, 3.0, 7, 0)
    rep = decay_experiment(u0, 8.0, cfg)
    assert not rep.degenerate
    assert rep.beta_hat > 0
    assert rep.energies[-1] < rep.energies[0]
    assert rep.window_start == int(np.searchsorted(rep.times, 4.0))
    back = report_dict(rep)
    assert back["beta_hat"] == pytest.approx(rep.beta_hat)
    assert len(back["energies"]) == len(rep.energies)


def test_mixing_identical_data_flags_floor():
    cfg = damped_cfg()
    spec = small_spec()
    u0 = random_h1_field(GRID, 0.4, 3.0, 5, 0)
    rep = mixing_experiment(u0, u0, 40, 2, spec, cfg, master_seed=77)
    assert rep.below_floor_step == 0
    assert rep.fit_stop == 0
    assert math.isnan(rep.gamma_hat)
    assert rep.distances[0] == 0.0
    assert np.all(rep.distances <= 3.0 * rep.noise_floor)
    np.testing.assert_allclose(rep.noise_floor, 2.0 / math.sqrt(40), rtol=1e-15)


def test_mixing_report_shapes_and_json():
    cfg = damped_cfg()
    spec = small_spec()
    u0a = basis_field(GRID, 0, 1.2)
    u0b = random_h1_field(GRID, 0.5, 2.5, 8, 1)
    rep = mixing_experiment(u0a, u0b, 30, 2, spec, cfg, master_seed=5)
    assert rep.distances.shape == (3,)
    assert rep.alt_distances.shape == (3,)
    assert rep.n_chains == 30 and rep.n_steps == 2
    assert rep.distances[0] > 0
    d = report_dict(rep)
    assert len(d["distances"]) == 3
    assert d["master_seed"] == 5
    assert d["config_digest"] == ""


def test_coupling_marginals_match_solo_chains():
    """Same-noise coupling leaves each marginal equal to its solo chain."""
    cfg = damped_cfg()
    spec = small_spec()
    y0 = random_h1_field(GRID, 0.5, 3.0, 10, 0)
    x0 = random_h1_field(GRID, 0.4, 3.0, 10, 1)
    n = 3
    rep = synchronous_coupling_experiment(y0, x0, n, spec, cfg, master_seed=13)
    ys = run_chain(y0, n, spec, cfg, master_seed=13)
    xs = run_chain(x0, n, spec, cfg, master_seed=13)
    for i in range(n + 1):
        want = equivalent_norm(ys[i] - xs[i], cfg)
        np.testing.assert_allclose(rep.separations[i], want, rtol=1e-14)
    assert rep.ratios.shape == (n,)
    np.testing.assert_allclose(rep.ratios, rep.separations[1:] / rep.separations[:-1])
    assert not rep.use_control
    assert np.all(rep.shift_norms == 0.0)


def test_uncontrolled_coupling_takes_the_controlled_steps(monkeypatch):
    # with and without control a coupled step has one shape: y's stored
    # unit run, and x's step beside the next base (the last one alone)
    import schrodmix.mixing as mixing_mod

    calls = {}
    for name in ("solve_nls", "solve_nls_batch", "markov_step_batch"):
        def counted(*a, _f=getattr(mixing_mod, name), _name=name, **k):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*a, **k)

        monkeypatch.setattr(mixing_mod, name, counted)
    cfg = damped_cfg()
    y0 = random_h1_field(GRID, 0.5, 3.0, 10, 0)
    x0 = random_h1_field(GRID, 0.4, 3.0, 10, 1)
    synchronous_coupling_experiment(y0, x0, 3, small_spec(), cfg, master_seed=13)
    monkeypatch.undo()
    assert calls == {"solve_nls": 1, "solve_nls_batch": 2, "markov_step_batch": 1}


@pytest.mark.parametrize("stride", [1, 4])
def test_controlled_coupling_step_is_the_contraction_test(stride):
    # one controlled coupled step is the contraction experiment on the same
    # states and realization, bit for bit; both solve their base at every
    # step whatever the stride of cfg
    cfg = damped_cfg(store_stride=stride)
    spec = small_spec()
    y0 = random_h1_field(GRID, 0.5, 3.0, 10, 0)
    x0 = y0 + random_h1_field(GRID, 1e-3, 2.0, 10, 1)
    kw = dict(time_level=1, galerkin_cutoff=4)
    rep = synchronous_coupling_experiment(y0, x0, 1, spec, cfg, 13, use_control=True, **kw)
    (zeta,) = sample_noise_paths(spec, [chain_seed_record(13, SOLO_TAG, 0, 0)])
    want = contraction_test(y0, x0, zeta, rep.gamma, cfg, **kw)
    got = (rep.ratios[0], rep.shift_norms[0], rep.separations[0])
    assert got == (want.q_ratio, want.shift_norm, want.separation)
    assert want.shift_norm > 0 and not want.degenerate


def _six_sweep_shift(y, x, zeta, gamma, cfg, time_level, galerkin_cutoff):
    """A controlled step's base and shift as separate sweeps: the stored
    base, the control sweep, the tangent run and the free group of T."""
    base = solve_nls(y, zeta, 1.0, replace(cfg, store_stride=1))
    cmap = build_control_basis_map(base, zeta.spec.modes, time_level, galerkin_cutoff)
    w, t = x - y, float(base.times[-1])
    phase = cmath.exp(-1j * phase_theta(base, t))
    d = solve_linearized(base, w).endpoint - phase * linear_group(w, t, cfg)
    coeffs = pseudo_inverse_apply(cmap, gamma, d)
    return base, zeta.shifted(realize_shift_cells(cmap, coeffs, zeta.spec)), coeffs


def test_controlled_coupling_matches_six_sweep_composition(monkeypatch):
    # three sweeps per step (the separation in the control sweep, the
    # measured free image shared with T, x's step beside the next base) give every reported number of six separate sweeps, bitwise
    import schrodmix.control as control_mod
    import schrodmix.mixing as mixing_mod

    calls = {}
    for mod, name in ((control_mod, "linear_group"), (control_mod, "solve_linearized"),
                      (mixing_mod, "solve_nls"), (mixing_mod, "solve_nls_batch"),
                      (mixing_mod, "markov_step_batch")):
        def counted(*a, _f=getattr(mod, name), _name=name, **k):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*a, **k)

        monkeypatch.setattr(mod, name, counted)
    cfg = damped_cfg()
    spec = small_spec()
    y0 = random_h1_field(GRID, 0.5, 3.0, 10, 0)
    x0 = y0 + random_h1_field(GRID, 1e-3, 2.0, 10, 1)
    kw = dict(time_level=2, galerkin_cutoff=6)
    rep = synchronous_coupling_experiment(y0, x0, 3, spec, cfg, 13, use_control=True, **kw)
    monkeypatch.undo()
    # one free-group sweep per measurement, T's own included; no tangent
    # run; one stored sweep per step
    assert calls == {
        "linear_group": 4,
        "solve_nls": 1,
        "solve_nls_batch": 2,
        "markov_step_batch": 1,
    }

    norm = lambda f: equivalent_norm(f, cfg)
    y, x = y0, x0
    seps, shift_norms = [norm(y - x)], []
    for n in range(3):
        (zeta,) = sample_noise_paths(spec, [chain_seed_record(13, SOLO_TAG, 0, n)])
        base, xi, coeffs = _six_sweep_shift(y, x, zeta, rep.gamma, cfg, **kw)
        y, x = base.endpoint, markov_step(x, xi, cfg)
        seps.append(norm(y - x))
        shift_norms.append(float(np.linalg.norm(coeffs)))
    seps = np.asarray(seps)
    assert rep.separations.tobytes() == seps.tobytes()
    assert rep.ratios.tobytes() == (seps[1:] / seps[:-1]).tobytes()
    assert rep.shift_norms.tobytes() == np.asarray(shift_norms).tobytes()
    assert rep.norm_kind == "h1_after_group(tau0=1)"


def test_contraction_test_matches_six_sweep_composition():
    cfg = damped_cfg()
    (zeta,) = sample_noise_paths(small_spec(), [chain_seed_record(14, SOLO_TAG, 0, 0)])
    y = random_h1_field(GRID, 0.5, 3.0, 14, 0)
    x = y + random_h1_field(GRID, 1e-3, 2.0, 14, 1)
    kw = dict(time_level=2, galerkin_cutoff=6)
    rep = contraction_test(y, x, zeta, 1e-2, cfg, **kw)

    norm = lambda f: equivalent_norm(f, cfg)
    base, xi, coeffs = _six_sweep_shift(y, x, zeta, 1e-2, cfg, **kw)
    sep0 = norm(y - x)
    assert rep.separation == sep0
    assert rep.q_ratio == norm(base.endpoint - markov_step(x, xi, cfg)) / sep0
    assert rep.uncontrolled_ratio == norm(base.endpoint - markov_step(x, zeta, cfg)) / sep0
    assert rep.shift_norm == float(np.linalg.norm(coeffs))


def test_coupling_report_json():
    rep = CouplingReport(
        separations=np.array([1.0, 0.5]),
        ratios=np.array([0.5]),
        shift_norms=np.array([0.0]),
        use_control=False,
        gamma=1e-2,
        master_seed=3,
        norm_kind="h1",
    )
    d = report_dict(rep)
    assert d["separations"] == [1.0, 0.5]
    assert d["norm_kind"] == "h1"


def test_attractor_proximity():
    with pytest.raises(ValidationError):
        attractor_proximity([])
    zeros = [zero_field(GRID) for _ in range(3)]
    out = attractor_proximity(zeros)
    np.testing.assert_array_equal(out["tail_h1"], 0.0)
    np.testing.assert_array_equal(out["hs_norm"], 0.0)
    assert out["tail_cutoff"] == GRID.k_max // 2
    low = basis_field(GRID, 1, 2.0)
    high = basis_field(GRID, 15, 2.0)
    vals = attractor_proximity([low, high], s=1.25)
    assert vals["tail_h1"][0] == 0.0
    np.testing.assert_allclose(vals["tail_h1"][1], 2.0 * math.sqrt(1.0 + 225.0), rtol=1e-12)
    np.testing.assert_allclose(vals["hs_norm"][0], 2.0 * 2.0**0.625, rtol=1e-12)
    # a state's values do not depend on how many states are stacked with it
    states = [random_h1_field(GRID, 0.5, 2.0, 60 + i, 0) for i in range(65)]
    block = attractor_proximity(states)
    for i, st in enumerate(states):
        alone = attractor_proximity([st])
        assert block["tail_h1"][i] == alone["tail_h1"][0]
        assert block["hs_norm"][i] == alone["hs_norm"][0]
