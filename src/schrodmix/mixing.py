"""Markov chains, ensembles, certified observable dictionaries, and the
experiments that probe decay, mixing, and coupled stabilization.

The coupled step has one body, _coupled_steps: y under zeta, and x under a
noise xi that is zeta itself or zeta shifted by the stabilizing control.
synchronous_coupling_experiment runs it with and without control, and
contraction_test is one controlled step of it beside x's plain step.

Randomness discipline: every noise path is drawn from an integer record
(master_seed, tag, chain, step) with the mode index appended inside the
sampler.  Tags separate independent ensembles (0 = the solo stream of
solo_paths, which drives solo chains, coupled pairs and forced runs; 1/2 =
the two ensembles of a mixing run), so rerunning any experiment with the
same master seed reproduces identical states no matter how the batch is
chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import build_control_basis_map, equivalent_norm, stabilizing_shift
from .dynamics import (
    SolverConfig,
    energy_series,
    markov_step,
    markov_step_batch,
    solve_nls,
    solve_nls_batch,
)
from .noise import NoisePath, NoiseSpec, sample_noise_paths
from .spectral import FourierField, Grid, ValidationError, hs_norm_sq

SOLO_TAG = 0
ENSEMBLE_TAGS = (1, 2)


def chain_seed_record(master_seed: int, tag: int, chain: int, step: int) -> tuple:
    return (int(master_seed), int(tag), int(chain), int(step))


def solo_paths(spec: NoiseSpec, master_seed: int, steps) -> list:
    """The solo chain's paths at the given steps, drawn in one call from the
    records (master_seed, SOLO_TAG, 0, n): the one stream that drives solo
    chains, coupled pairs and forced runs.  A path is the same whether it is
    drawn alone or in a block."""
    records = [chain_seed_record(master_seed, SOLO_TAG, 0, n) for n in steps]
    return sample_noise_paths(spec, records)


# Chains are advanced in row blocks of this many chains.  A row's result is
# bitwise the same in any block (no per-step quantity is a product over
# rows), so the size does not set the bits: it bounds the memory that one
# block's padded buffers hold at once.
ENSEMBLE_BLOCK = 64


def run_chain(u0: FourierField, n_steps: int, spec: NoiseSpec, cfg: SolverConfig,
              master_seed: int) -> list:
    """Iterate the unit-time Markov step; returns states at steps 0..n_steps."""
    states = [u0]
    for path in solo_paths(spec, master_seed, range(n_steps)):
        states.append(markov_step(states[-1], path, cfg))
    return states


def warm_start(u0: FourierField, n_steps: int, spec: NoiseSpec, cfg: SolverConfig,
               master_seed: int) -> FourierField:
    return run_chain(u0, n_steps, spec, cfg, master_seed)[-1]


@dataclass
class Ensemble:
    """A population of chain states advancing under independent noise."""

    coeffs: np.ndarray = field(repr=False)
    step_index: int = 0
    master_seed: int = 0
    tag: int = 1

    @classmethod
    def from_field(cls, u0: FourierField, n_chains: int, master_seed: int, tag: int) -> "Ensemble":
        coeffs = np.tile(u0.coeffs, (n_chains, 1)).astype(np.complex128)
        return cls(coeffs, 0, int(master_seed), int(tag))

    @property
    def n_chains(self) -> int:
        return self.coeffs.shape[0]


def evolve_ensemble(ens: Ensemble, spec: NoiseSpec, cfg: SolverConfig, n_steps: int = 1) -> Ensemble:
    """Advance every chain; chain i at step n draws its path from the record
    (master_seed, tag, i, n).  Rows are stepped in fixed blocks of
    ENSEMBLE_BLOCK chains, one block after the other."""
    coeffs = ens.coeffs.copy()
    for lo in range(0, ens.n_chains, ENSEMBLE_BLOCK):
        hi = min(lo + ENSEMBLE_BLOCK, ens.n_chains)
        block = coeffs[lo:hi]
        for n in range(ens.step_index, ens.step_index + n_steps):
            records = [chain_seed_record(ens.master_seed, ens.tag, i, n) for i in range(lo, hi)]
            paths = sample_noise_paths(spec, records)
            block = markov_step_batch(block, paths, cfg)
        coeffs[lo:hi] = block
    return Ensemble(coeffs, ens.step_index + n_steps, ens.master_seed, ens.tag)


# ---------------------------------------------------------------------------
# certified observable dictionary


@dataclass(frozen=True)
class Functional:
    """One certified test functional with sup and Lipschitz constants.

    cos_coeff: scale * cos(alpha * Re u_hat(k) + beta); extracting one real
    coefficient is 1-Lipschitz from H1, so lip <= scale * alpha.
    cos_mod: scale * cos(alpha * |u_hat(k)| + beta); the coefficient modulus
    is also 1-Lipschitz from H1 and is invariant under phase rotation, which
    keeps the probe steady while dispersion spins the coefficient.
    exp_anchor: scale * exp(-||u - w||_H1), with lip <= scale.
    """

    kind: str
    scale: float
    k: int = 0
    alpha: float = 1.0
    beta: float = 0.0
    anchor: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("cos_coeff", "cos_mod", "exp_anchor"):
            raise ValidationError("unknown functional kind %r" % (self.kind,))

    @property
    def sup_const(self) -> float:
        return self.scale

    @property
    def lip_const(self) -> float:
        if self.kind in ("cos_coeff", "cos_mod"):
            return self.scale * self.alpha
        return self.scale

    def values(self, coeffs: np.ndarray, k_max: int) -> np.ndarray:
        if self.kind == "cos_coeff":
            re = coeffs[:, self.k + k_max].real
            return self.scale * np.cos(self.alpha * re + self.beta)
        if self.kind == "cos_mod":
            mod = np.abs(coeffs[:, self.k + k_max])
            return self.scale * np.cos(self.alpha * mod + self.beta)
        d = coeffs - self.anchor[None, :]
        return self.scale * np.exp(-np.sqrt(hs_norm_sq(d, 1.0)))


@dataclass(frozen=True)
class ObservableDictionary:
    """A finite family of functionals, each inside the unit dual-Lipschitz ball."""

    grid: Grid
    functionals: tuple

    def __post_init__(self):
        for f in self.functionals:
            if f.sup_const + f.lip_const > 1.0 + 1e-12:
                raise ValidationError(
                    "functional exceeds the unit ball: sup+lip=%.3f"
                    % (f.sup_const + f.lip_const)
                )
            if f.kind in ("cos_coeff", "cos_mod") and abs(f.k) > self.grid.k_max:
                raise ValidationError("functional probes a mode outside the band")
            if f.kind == "exp_anchor" and np.shape(f.anchor) != (self.grid.n_coeff,):
                raise ValidationError("exp_anchor needs %d anchor coefficients" % self.grid.n_coeff)

    def __len__(self) -> int:
        return len(self.functionals)

    @property
    def max_lip(self) -> float:
        return max(f.lip_const for f in self.functionals)

    def means(self, coeffs: np.ndarray) -> np.ndarray:
        k_max = self.grid.k_max
        return np.array([f.values(coeffs, k_max).mean() for f in self.functionals])


def default_dictionary(grid: Grid, anchors=(), coeff_modes=(0, 1, 2),
                       phases=(0.0, math.pi / 2), alpha: float = 1.0) -> ObservableDictionary:
    funcs = []
    scale = 1.0 / (1.0 + alpha)
    for k in coeff_modes:
        for beta in phases:
            funcs.append(Functional("cos_coeff", scale, k=k, alpha=alpha, beta=beta))
            funcs.append(Functional("cos_mod", scale, k=k, alpha=alpha, beta=beta))
    for w in anchors:
        funcs.append(Functional("exp_anchor", 0.5, anchor=np.asarray(w.coeffs, complex)))
    return ObservableDictionary(grid, tuple(funcs))


def dual_lipschitz_estimate(coeffs_a: np.ndarray, coeffs_b: np.ndarray,
                            dictionary: ObservableDictionary) -> float:
    """Lower bound for the dual-Lipschitz distance of the empirical laws of
    two coefficient blocks (one chain a row): the largest mean discrepancy
    over the certified dictionary."""
    return float(np.max(np.abs(dictionary.means(coeffs_a) - dictionary.means(coeffs_b))))


# ---------------------------------------------------------------------------
# fits and experiment reports


def loglinear_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line through (x, log y); returns (slope, intercept, r)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or np.any(y <= 0):
        return float("nan"), float("nan"), float("nan")
    ly = np.log(y)
    slope, intercept = np.polyfit(x, ly, 1)
    if np.ptp(ly) == 0.0 or np.ptp(x) == 0.0:
        r = float("nan")
    else:
        r = float(np.corrcoef(x, ly)[0, 1])
    return float(slope), float(intercept), r


@dataclass
class DecayReport:
    times: np.ndarray
    energies: np.ndarray
    beta_hat: float
    r_value: float
    window_start: int
    degenerate: bool
    horizon: float


def decay_experiment(u0: FourierField, horizon: float, cfg: SolverConfig) -> DecayReport:
    """Unforced damped run; fits log E on the trailing half of the horizon."""
    traj = solve_nls(u0, None, horizon, cfg)
    energies = energy_series(traj.coeffs, cfg.p)
    window = int(np.searchsorted(traj.times, horizon / 2.0))
    tail = energies[window:]
    if energies[0] <= 0.0 or np.any(tail <= 0.0):
        return DecayReport(traj.times, energies, float("nan"), float("nan"),
                           window, True, horizon)
    slope, _, r = loglinear_fit(traj.times[window:], tail)
    return DecayReport(traj.times, energies, -slope, r, window, False, horizon)


@dataclass
class MixReport:
    distances: np.ndarray
    alt_distances: np.ndarray
    noise_floor: float
    fit_stop: int
    gamma_hat: float
    alt_gamma_hat: float
    r_value: float
    below_floor_step: int
    n_chains: int
    n_steps: int
    master_seed: int
    config_digest: str = ""


def mixing_experiment(
    u0_a: FourierField,
    u0_b: FourierField,
    n_chains: int,
    n_steps: int,
    spec: NoiseSpec,
    cfg: SolverConfig,
    master_seed: int,
) -> MixReport:
    """Evolve two independent ensembles and track their dictionary distance.

    The Monte Carlo noise floor 2/sqrt(M) censors the geometric fit: only the
    leading steps with distance above 3x the floor enter the log-linear fit.
    The alternate dictionary double-checks that the fitted rate is not an
    artifact of one particular functional family.
    """
    grid = cfg.grid
    zero = FourierField(grid, np.zeros(grid.n_coeff, complex))
    dictionary = default_dictionary(grid, anchors=(u0_a, u0_b, zero))
    alt_dictionary = default_dictionary(
        grid,
        anchors=(0.5 * (u0_a + u0_b), u0_b, 0.5 * u0_a),
        coeff_modes=(0, 1, 3),
        phases=(0.7, 2.1),
        alpha=2.0,
    )
    ens_a = Ensemble.from_field(u0_a, n_chains, master_seed, ENSEMBLE_TAGS[0])
    ens_b = Ensemble.from_field(u0_b, n_chains, master_seed, ENSEMBLE_TAGS[1])
    dists = [dual_lipschitz_estimate(ens_a.coeffs, ens_b.coeffs, dictionary)]
    alt_dists = [dual_lipschitz_estimate(ens_a.coeffs, ens_b.coeffs, alt_dictionary)]
    for _ in range(n_steps):
        ens_a = evolve_ensemble(ens_a, spec, cfg)
        ens_b = evolve_ensemble(ens_b, spec, cfg)
        dists.append(dual_lipschitz_estimate(ens_a.coeffs, ens_b.coeffs, dictionary))
        alt_dists.append(dual_lipschitz_estimate(ens_a.coeffs, ens_b.coeffs, alt_dictionary))
    dists = np.asarray(dists)
    alt_dists = np.asarray(alt_dists)
    floor = 2.0 / math.sqrt(n_chains)
    thr = 3.0 * floor

    steps = np.arange(len(dists))

    def fit_window(curve):
        below = np.nonzero(curve <= thr)[0]
        below_step = int(below[0]) if len(below) else -1
        if below_step == 0:
            # indistinguishable at this ensemble size from the start
            return 0, 0, float("nan"), float("nan")
        stop = below_step if below_step > 0 else len(curve)
        slope, _, r = loglinear_fit(steps[:stop], curve[:stop])
        return below_step, stop, slope, r

    below_step, fit_stop, slope, r = fit_window(dists)
    _, _, alt_slope, _ = fit_window(alt_dists)
    return MixReport(
        distances=dists,
        alt_distances=alt_dists,
        noise_floor=floor,
        fit_stop=fit_stop,
        gamma_hat=-slope,
        alt_gamma_hat=-alt_slope,
        r_value=r,
        below_floor_step=below_step,
        n_chains=n_chains,
        n_steps=n_steps,
        master_seed=master_seed,
    )


def attractor_proximity(states, s: float = 1.25) -> dict:
    """Tail mass and H^s size along a chain: the high-band H1 norm above
    k_max/2 and the full H^s norm, per state."""
    if len(states) == 0:
        raise ValidationError("need at least one state")
    grid = states[0].grid
    coeffs = np.stack([st.coeffs for st in states])
    cut = grid.k_max // 2
    tail = np.sqrt(hs_norm_sq(coeffs * (np.abs(grid.modes) > cut), 1.0))
    hs = np.sqrt(hs_norm_sq(coeffs, s))
    return {"tail_h1": tail, "hs_norm": hs, "s": s, "tail_cutoff": cut}


@dataclass
class CouplingReport:
    separations: np.ndarray
    ratios: np.ndarray
    shift_norms: np.ndarray
    use_control: bool
    gamma: float
    master_seed: int
    norm_kind: str


@dataclass
class StabilizationReport:
    """Outcome of one controlled-coupling contraction test."""

    gamma: float
    q_ratio: float
    uncontrolled_ratio: float
    shift_norm: float
    success: bool
    norm_kind: str
    separation: float
    seeds: tuple = ()
    degenerate: bool = False


# The name reports give the norm separations are measured in: equivalent_norm,
# the H1 norm after one time unit of the damped free group.
_NORM_KIND = "h1_after_group(tau0=1)"


def _coupled_steps(y0: FourierField, x0: FourierField, zetas, cfg: SolverConfig,
                   control) -> tuple:
    """The coupled step, once per realization in zetas: y under zeta_n, and
    x under xi_n, either zeta_n itself (control None) or zeta_n shifted by
    the stabilizing control of control = (gamma, time_level, galerkin_cutoff).

    Returns (y, x, separations, shift_norms): the final pair, the separation
    before each step and after the last, in equivalent_norm, and the norm of
    each step's control coefficients (0 unshifted).

    y's unit run is stored at store_stride 1, whatever cfg's stride, because
    the control linearizes it at every step.  A controlled step takes three
    sweeps: the control sweep marches x - y with its columns (T's tangent
    image), the shift measures the separation it acts on as the norm of T's
    own free image, and x's step under xi_n runs in one stored block with
    the next base, y_{n+1} under zeta_{n+1}; the last x step runs alone.
    Every row steps on its own, so each output is what separate solves
    give, bit for bit.
    """
    base_cfg = replace(cfg, store_stride=1)
    y, x = y0, x0
    seps = []
    shift_norms = []
    if zetas:
        base_y = solve_nls(y, zetas[0], 1.0, base_cfg)
    for n, zeta in enumerate(zetas):
        if control is None:
            xi, sep, shift_norm = zeta, equivalent_norm(x - y, cfg), 0.0
        else:
            gamma, time_level, galerkin_cutoff = control
            cmap = build_control_basis_map(base_y, zeta.spec.modes, time_level, galerkin_cutoff, x=x)
            shift = stabilizing_shift(base_y, x, gamma, cmap)
            xi, sep, shift_norm = shift.path, shift.separation, shift.shift_norm
        seps.append(sep)
        shift_norms.append(shift_norm)
        y = base_y.endpoint
        if n + 1 < len(zetas):
            pair = np.stack([x.coeffs, y.coeffs])
            x_run, base_y = solve_nls_batch(pair, [xi, zetas[n + 1]], base_cfg)
            x = x_run.endpoint
        else:
            x = FourierField(cfg.grid, markov_step_batch(x.coeffs[None, :], [xi], cfg)[0])
    seps.append(equivalent_norm(x - y, cfg))
    return y, x, seps, shift_norms


def synchronous_coupling_experiment(
    y0: FourierField,
    x0: FourierField,
    n_steps: int,
    spec: NoiseSpec,
    cfg: SolverConfig,
    master_seed: int,
    use_control: bool = False,
    gamma: float = 1e-2,
    time_level: int = 2,
    galerkin_cutoff: int = 8,
) -> CouplingReport:
    """Drive two chains through _coupled_steps with the same per-step noise
    realizations from the solo stream; optionally shift the second chain's
    realization with the stabilizing control.

    Without control each chain's marginal law is exactly the solo run_chain
    law (identical seeds give identical states); with control the x chain
    follows the shifted realization.  The per-step separation ratios are
    recorded either way.
    """
    zetas = solo_paths(spec, master_seed, range(n_steps))
    control = (gamma, time_level, galerkin_cutoff) if use_control else None
    _, _, seps, shift_norms = _coupled_steps(y0, x0, zetas, cfg, control)
    seps = np.asarray(seps)
    ratios = np.divide(seps[1:], seps[:-1], out=np.full(n_steps, np.nan), where=seps[:-1] > 0)
    return CouplingReport(
        separations=seps,
        ratios=ratios,
        shift_norms=np.asarray(shift_norms),
        use_control=use_control,
        gamma=gamma,
        master_seed=master_seed,
        norm_kind=_NORM_KIND,
    )


def contraction_test(
    y: FourierField,
    x: FourierField,
    zeta: NoisePath,
    gamma: float,
    cfg: SolverConfig,
    time_level: int = 2,
    galerkin_cutoff: int = 8,
    seeds: tuple = (),
) -> StabilizationReport:
    """One controlled coupled step from (y, x) under zeta, beside x's plain
    step under zeta: each separation after the step over the one before.
    Separations are measured in equivalent_norm."""
    control = (gamma, time_level, galerkin_cutoff)
    s_y, _, (sep0, sep1), (shift_norm,) = _coupled_steps(y, x, [zeta], cfg, control)
    plain = markov_step(x, zeta, cfg)
    # x = y leaves nothing to contract; 0/0 is reported as 0 by convention
    degenerate = sep0 == 0.0
    q = 0.0 if degenerate else sep1 / sep0
    q_plain = 0.0 if degenerate else equivalent_norm(s_y - plain, cfg) / sep0
    return StabilizationReport(
        gamma=gamma,
        q_ratio=q,
        uncontrolled_ratio=q_plain,
        shift_norm=shift_norm,
        success=bool(q < 1.0),
        norm_kind=_NORM_KIND,
        separation=sep0,
        seeds=tuple(seeds),
        degenerate=degenerate,
    )
