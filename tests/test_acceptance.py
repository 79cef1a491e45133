"""Quantitative qualification gate for the whole package.

One test per headline property, each at its stated tolerance and wall-clock
budget.  Every test prints a single PASS/FAIL line with the measured numbers
(visible under pytest -s); the assertion message carries the same detail so
a plain pytest run is self-describing on failure.
"""

import math
import time
from fractions import Fraction

import numpy as np

from schrodmix import (
    Ensemble,
    FourierField,
    Grid,
    NoiseSpec,
    SolverConfig,
    basis_field,
    build_control_basis_map,
    bump_damping,
    chain_seed_record,
    constant_damping,
    decay_experiment,
    duality_pairing,
    energy,
    energy_series,
    equivalent_norm,
    evolve_ensemble,
    haar_inner,
    markov_step,
    mixing_experiment,
    nmult,
    nnonres,
    nres,
    plane_wave,
    run_chain,
    sample_noise_paths,
    saturation_span,
    sobolev_norm,
    solve_adjoint_backward,
    solve_linearized,
    solve_nls,
    stabilizing_shift,
    warm_start,
    zero_damping,
    zero_field,
)
from schrodmix.config import random_h1_field
from schrodmix.linearized import assemble_gramian, control_response_matrix, mode_coord_indices
from schrodmix.mixing import ENSEMBLE_BLOCK
from schrodmix.spectral import hs_norm_sq

GRID = Grid(42)
DT = 2.0**-7


def _verdict(name, ok, detail, elapsed, budget):
    ok = bool(ok) and elapsed < budget
    line = "%-34s %s  %s  [%.1fs < %ds]" % (
        name,
        "PASS" if ok else "FAIL",
        detail,
        elapsed,
        budget,
    )
    print(line)
    assert ok, line


def _free_cfg(dt, stride=10**9):
    return SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=dt, store_stride=stride)


def test_01_plane_wave_exact_and_second_order():
    """A single plane wave is an exact orbit of both substeps, so its error
    sits at round-off for every dt; the order-two halving factor is therefore
    measured on generic multi-mode data against a fine-step reference."""
    t0 = time.time()
    u0 = plane_wave(GRID, 1, 1.0)
    end = solve_nls(u0, None, 1.0, _free_cfg(1e-4)).endpoint
    exact = np.exp(-2.0j) * u0.coeffs
    err_pw = float(np.linalg.norm(end.coeffs - exact) / np.linalg.norm(exact))

    ug = random_h1_field(GRID, 0.8, 3.0, 5, 0)
    ref = solve_nls(ug, None, 1.0, _free_cfg(2.0**-13)).endpoint
    errs = []
    for dt in (2.0**-9, 2.0**-10):
        e = solve_nls(ug, None, 1.0, _free_cfg(dt)).endpoint
        errs.append(float(np.linalg.norm(e.coeffs - ref.coeffs) / np.linalg.norm(ref.coeffs)))
    factor = errs[0] / errs[1]
    ok = err_pw <= 1e-6 and factor >= 3.5
    _verdict(
        "plane-wave exactness / order 2",
        ok,
        "err=%.2e halving x%.2f" % (err_pw, factor),
        time.time() - t0,
        10,
    )


def test_02_energy_and_l2_conservation():
    t0 = time.time()
    u = random_h1_field(GRID, 0.8, 3.0, 5, 0)
    traj = solve_nls(u, None, 1.0, _free_cfg(1e-4, stride=1000))
    energies = energy_series(traj.coeffs)
    e_drift = float(np.abs(energies - energies[0]).max() / abs(energies[0]))
    l2 = np.sqrt(hs_norm_sq(traj.coeffs, 0.0))
    l2_drift = float(np.abs(l2 - l2[0]).max() / l2[0])
    ok = e_drift <= 1e-8 and l2_drift <= 1e-8
    _verdict(
        "energy / L2 conservation",
        ok,
        "energy drift=%.2e L2 drift=%.2e" % (e_drift, l2_drift),
        time.time() - t0,
        10,
    )


def test_03_dissipative_decay_trend():
    t0 = time.time()
    cfg_const = SolverConfig(
        grid=GRID, damping=constant_damping(GRID, 0.1), dt=DT, store_stride=2**7
    )
    rep_const = decay_experiment(random_h1_field(GRID, 1e-3, 3.0, 3, 0), 40.0, cfg_const)
    rel = abs(rep_const.beta_hat - 0.2) / 0.2

    cfg_bump = SolverConfig(
        grid=GRID, damping=bump_damping(GRID, 1.5, math.pi, 1.5), dt=DT, store_stride=2**7
    )
    rep_bump = decay_experiment(random_h1_field(GRID, 1.2, 3.0, 3, 1), 200.0, cfg_bump)
    ratio = rep_bump.energies[-1] / rep_bump.energies[0]
    ok = (
        rep_bump.beta_hat > 0
        and abs(rep_bump.r_value) >= 0.95
        and ratio < 0.1
        and rel <= 0.15
    )
    _verdict(
        "damped energy decay",
        ok,
        "bump beta=%.3f r=%.3f E200/E0=%.1e; const beta=%.4f (2a rel err %.1e)"
        % (rep_bump.beta_hat, rep_bump.r_value, ratio, rep_const.beta_hat, rel),
        time.time() - t0,
        120,
    )


def test_04_duality_pairing_constant_in_time():
    t0 = time.time()
    cfg = SolverConfig(grid=GRID, damping=bump_damping(GRID, 1.5, math.pi, 1.5), dt=DT)
    spec = NoiseSpec()
    u0 = random_h1_field(GRID, 0.9, 3.0, 17, 0)
    (zeta,) = sample_noise_paths(spec, [chain_seed_record(17, 0, 0, 0)])
    base = solve_nls(u0, zeta, 1.0, cfg)
    worst = 0.0
    for i in range(20):
        v0 = random_h1_field(GRID, 1.0, 2.0, 1234, i)
        phi1 = random_h1_field(GRID, 1.0, 2.0, 4321, i)
        run = solve_linearized(base, v0)
        bw = solve_adjoint_backward(base, phi1)
        vals = [duality_pairing(run, bw, t) for t in np.linspace(0.0, 1.0, 9)]
        drift = max(vals) - min(vals)
        worst = max(worst, drift / (sobolev_norm(v0, 0.0) * sobolev_norm(phi1, 0.0)))
    ok = worst <= 1e-6
    _verdict(
        "duality pairing drift",
        ok,
        "max rel drift=%.2e over 20 pairs" % worst,
        time.time() - t0,
        60,
    )


def _brute_nmult(f1, f2, f3):
    g = f1.grid
    out = np.zeros(g.n_coeff, dtype=complex)
    for k1 in g.modes:
        for k2 in g.modes:
            for k3 in g.modes:
                kk = k1 - k2 + k3
                if abs(kk) <= g.k_max:
                    out[kk + g.k_max] += f1.coeff(k1) * np.conj(f2.coeff(k2)) * f3.coeff(k3)
    return out / (2.0 * math.pi)


def _brute_nres(f1, f2, f3):
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


def test_05_resonance_decomposition():
    t0 = time.time()
    small = Grid(3)
    rng = np.random.default_rng(9)
    fields = [
        FourierField(small, rng.standard_normal(7) + 1j * rng.standard_normal(7))
        for _ in range(3)
    ]
    total = nmult(fields)
    res = nres(fields)
    non = nnonres(fields)
    recon = float(np.abs((res.coeffs + non.coeffs) - total.coeffs).max())
    split_exact = np.array_equal(non.coeffs, total.coeffs - res.coeffs)
    scale = float(np.abs(total.coeffs).max())
    bf_total = float(np.abs(total.coeffs - _brute_nmult(*fields)).max())
    bf_res = float(np.abs(res.coeffs - _brute_nres(*fields)).max())

    amp = 1.3
    u = basis_field(GRID, 1, amp)
    res_u = nres([u, u, u])
    non_u = nnonres([u, u, u])
    cf_res = abs(res_u.coeff(1) - amp**3 / math.pi)
    cf_non = abs(non_u.coeff(1) + amp**3 / (2.0 * math.pi))
    ok = (
        split_exact
        and recon <= 1e-12 * scale
        and bf_total <= 1e-12 * scale
        and bf_res <= 1e-12 * scale
        and cf_res <= 1e-12
        and cf_non <= 1e-12
    )
    _verdict(
        "resonance decomposition",
        ok,
        "recon=%.1e brute(total)=%.1e brute(res)=%.1e closed forms %.1e/%.1e"
        % (recon, bf_total, bf_res, cf_res, cf_non),
        time.time() - t0,
        5,
    )


def test_06_gramian_saturation():
    t0 = time.time()
    damp = bump_damping(GRID, 1.5, math.pi, 1.5)
    cfg = SolverConfig(grid=GRID, damping=damp, dt=DT)
    spec = NoiseSpec()
    seed = 99
    u0 = random_h1_field(GRID, 1.0, 3.0, seed, 0)
    y = warm_start(u0, 6, spec, cfg, seed)
    (zeta,) = sample_noise_paths(spec, [chain_seed_record(seed, 0, 0, 6)])
    base = solve_nls(y, zeta, 1.0, cfg)

    rep01 = assemble_gramian(base, (0, 1), 2, 8, target_cutoff=2)
    rep0 = assemble_gramian(base, (0,), 2, 8, target_cutoff=2)
    ratio = rep01.target_subspace_min_eig / rep0.target_subspace_min_eig

    m01, _, _ = control_response_matrix(base, (0, 1), 2, 8)
    m0, _, _ = control_response_matrix(base, (0,), 2, 8)
    mono = float(np.linalg.eigvalsh(m01 @ m01.T - m0 @ m0.T).min())

    cfg0 = SolverConfig(grid=GRID, damping=zero_damping(GRID), dt=DT)
    zbase = solve_nls(zero_field(GRID), None, 1.0, cfg0)
    mz, _, _ = control_response_matrix(zbase, (0,), 2, 8)
    gz = mz @ mz.T
    mask = np.zeros(gz.shape[0], bool)
    mask[mode_coord_indices(0, 8)] = True
    cross = float(np.abs(gz[np.ix_(mask, ~mask)]).max())

    ok = ratio > 10.0 and cross <= 1e-10 and mono >= -1e-10
    _verdict(
        "Gramian saturation",
        ok,
        "min-eig ratio=%.0f zero-base cross=%.1e monotonicity=%.1e" % (ratio, cross, mono),
        time.time() - t0,
        300,
    )


def test_07_saturating_sets():
    t0 = time.time()
    spans_ok = True
    for n in range(21):
        final, _ = saturation_span(frozenset({0, 1}), n)
        if not set(range(-n, n + 2)) <= final:
            spans_ok = False
    even_bases = [
        frozenset(b)
        for b in (
            {0, 2}, {2, 4}, {4, 6}, {0, 4}, {2, 6},
            {6, 8}, {0, 6}, {2, 8}, {4, 8}, {0, 8},
        )
    ]
    parity_ok = True
    for b in even_bases:
        final, _ = saturation_span(b, 6)
        if any(k % 2 for k in final):
            parity_ok = False
    ok = spans_ok and parity_ok
    _verdict(
        "saturating sets",
        ok,
        "[-n, n+1] reached for n<=20; 10 even bases stay even",
        time.time() - t0,
        1,
    )


def test_08_stabilization_contracts():
    t0 = time.time()
    damp = bump_damping(GRID, 1.5, math.pi, 1.5)
    cfg = SolverConfig(grid=GRID, damping=damp, dt=DT)
    spec = NoiseSpec(amplitudes=(0.5, 0.5))
    seed = 2026

    def eq(f):
        return equivalent_norm(f, cfg)

    u0 = random_h1_field(GRID, 1.0, 3.0, seed, 0)
    states = run_chain(u0, 57, spec, cfg, seed)
    paths = sample_noise_paths(spec, [chain_seed_record(seed, 0, 0, n) for n in range(57)])

    def one_draw(n, gamma):
        y, zeta = states[n], paths[n]
        base = solve_nls(y, zeta, 1.0, cfg)
        v0 = random_h1_field(GRID, 1e-3, 3.0, seed, 1000 + n)
        x = y + v0
        sy = base.endpoint
        qu = eq(markov_step(x, zeta, cfg) - sy) / eq(v0)
        shift = stabilizing_shift(build_control_basis_map(base, 3, 12, x), gamma)
        qc = eq(markov_step(x, shift.path, cfg) - sy) / eq(v0)
        return qu, qc

    gammas = (1e-4, 1e-3, 1e-2, 1e-1)
    g_star = min(((g, one_draw(6, g)[1]) for g in gammas), key=lambda kv: kv[1])[0]
    qu_all, qc_all = [], []
    for n in range(7, 57):
        qu, qc = one_draw(n, g_star)
        qu_all.append(qu)
        qc_all.append(qc)
    qu_all, qc_all = np.array(qu_all), np.array(qc_all)
    n_contract = int((qc_all < 1.0).sum())

    y, zeta = states[7], paths[7]
    base = solve_nls(y, zeta, 1.0, cfg)
    v0 = random_h1_field(GRID, 1e-3, 3.0, seed, 1007)
    s_full = stabilizing_shift(build_control_basis_map(base, 3, 12, y + v0), g_star).shift_norm
    s_half = stabilizing_shift(build_control_basis_map(base, 3, 12, y + 0.5 * v0), g_star).shift_norm
    lin = abs(s_half - 0.5 * s_full) / s_full

    ok = (
        n_contract >= 35
        and float(np.median(qc_all)) < float(np.median(qu_all))
        and lin <= 1e-8
    )
    _verdict(
        "pseudo-inverse stabilization",
        ok,
        "contract %d/50 med_u=%.3f med_c=%.3f shift linearity=%.1e (gamma=%.0e)"
        % (n_contract, np.median(qu_all), np.median(qc_all), lin, g_star),
        time.time() - t0,
        600,
    )


def test_09_ensemble_mixing_decay():
    t0 = time.time()
    damp = bump_damping(GRID, 0.8, math.pi, 1.5)
    cfg = SolverConfig(grid=GRID, damping=damp, dt=DT)
    spec = NoiseSpec(amplitudes=(0.05, 0.05))
    seed = 2026
    ca = np.zeros(GRID.n_coeff, dtype=complex)
    ca[GRID.k_max] = 2.2
    ua = FourierField(GRID, ca)
    ub = random_h1_field(GRID, 0.35, 2.2, seed, 1)

    rep = mixing_experiment(ua, ub, 400, 60, spec, cfg, seed)
    threshold = 3.0 * rep.noise_floor
    same = mixing_experiment(ua, ua, 400, 20, spec, cfg, 7)

    ok = (
        rep.noise_floor == 2.0 / math.sqrt(400.0)
        and float(rep.distances.min()) < threshold
        and rep.gamma_hat > 0
        and abs(rep.r_value) >= 0.9
        and float(same.distances.max()) < rep.noise_floor
    )
    _verdict(
        "ensemble mixing decay",
        ok,
        "d0=%.2f min=%.3f<%.1f gamma=%.3f r=%.3f; identical max=%.4f<floor %.1f"
        % (
            rep.distances[0],
            rep.distances.min(),
            threshold,
            rep.gamma_hat,
            rep.r_value,
            same.distances.max(),
            rep.noise_floor,
        ),
        time.time() - t0,
        1800,
    )


def test_10_haar_machinery():
    t0 = time.time()
    keys = [(0, 0)] + [(j, l) for j in range(1, 7) for l in range(2**j)]
    ortho_ok = all(
        haar_inner(keys[a][0], keys[a][1], keys[b][0], keys[b][1], normalized=True)
        == Fraction(1 if a == b else 0)
        for a in range(len(keys))
        for b in range(a, len(keys))
    )

    spec = NoiseSpec()
    flat = NoiseSpec(haar_c=0.0)
    records = [(2026, 0, 0, n) for n in range(1000)]
    paths = sample_noise_paths(spec, records)
    bases = sample_noise_paths(flat, records)
    sup_ok = all(
        p.sup_norm(m) <= spec.sup_bound(m) + 1e-12 for p in paths for m in range(2)
    )
    fluct = max(
        abs(p.cells[m].mean() - b.cells[m][0])
        for p, b in zip(paths, bases)
        for m in range(2)
    )
    c0 = np.array([[b.cells[m][0] for m in range(2)] for b in bases])
    parts = np.concatenate([c0.real.ravel(), c0.imag.ravel()])
    mean_bound = 5.0 * float(parts.std()) / math.sqrt(1000.0)
    ens_mean = float(np.abs(c0.mean(axis=0)).max())

    grid = Grid(20)
    cfg = SolverConfig(grid=grid, damping=bump_damping(grid, 1.0, math.pi, 1.5), dt=DT)
    u0 = random_h1_field(grid, 0.4, 3.0, 6, 0)
    chain_a = run_chain(u0, 3, spec, cfg, 12)
    chain_b = run_chain(u0, 3, spec, cfg, 12)
    chain_ok = all(
        np.array_equal(a.coeffs, b.coeffs) for a, b in zip(chain_a, chain_b)
    )
    ens = Ensemble.from_field(u0, ENSEMBLE_BLOCK + 6, master_seed=3, tag=2)
    stepped = evolve_ensemble(ens, spec, cfg)
    # each row, in either block, is its chain stepped alone on its own record
    rows_ok = all(
        np.array_equal(stepped.coeffs[i], markov_step(u0, path, cfg).coeffs)
        for i in (0, 63, 64, 69)
        for path in sample_noise_paths(spec, [chain_seed_record(3, 2, i, 0)])
    )

    ok = ortho_ok and sup_ok and fluct <= 1e-12 and ens_mean <= mean_bound and chain_ok and rows_ok
    _verdict(
        "Haar machinery / determinism",
        ok,
        "127 fns orthonormal=%s sup_ok=%s fluct=%.1e mean=%.3f<=%.3f rows_ok=%s"
        % (ortho_ok, sup_ok, fluct, ens_mean, mean_bound, rows_ok),
        time.time() - t0,
        30,
    )
