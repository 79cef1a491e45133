"""Strang-split pseudospectral integrator for the damped, forced flow

    i u_t + u_xx + i a(x) u = |u|^{p-1} u + f(t, x),   x on the 2pi torus,

with p >= 3 odd.  One step of size dt is the symmetric composition

    P_half . unpad o [D_half . N . D_half] o pad . P_half

of the exact free phase P_half = exp(-i k^2 dt/2), applied in spectral
space, and, on a zero-padded physical grid, the exact pointwise decay
D_half = exp(-a(x) dt/2) around the nonlinear/forcing substep N.  The padded
grid keeps products of band-limited factors alias-free.  Without forcing N is
the exact modulus-preserving rotation u -> u exp(-i |u|^{p-1} dt), with
forcing a two-stage explicit midpoint rule.  The damping a(x) is localized,
so it is applied where it is diagonal, on the padded grid the substep needs
anyway: a step costs one padded inverse FFT and one padded FFT.

One kernel, _split_steps, runs every flow that shares this splitting: it
takes the middle substep N as a parameter.  Its substeps are the forced
step above and the frozen-coefficient tangent step, both the one explicit
midpoint rule _midpoint with their own right-hand sides; that tangent step
with c1 negated, run in reverse order on conjugated phases, its exact
adjoint (D_half is real and diagonal, so its own adjoint); the unforced
rotation; and the identity, which makes linear_group the damped free group.
The frozen coefficients of the tangent step belong to the base run they
linearize: Trajectory.tangent_coefficients builds them once per base.

Everything that depends on p and its padded grid lives here, beside the
nonlinearity: pad_points, the energy and lp_power_integral.  So does the
noise forcing: steps_per_cell is the one check that a NoiseSpec can force a
SolverConfig, and _noise_drive the one builder of sum_k b_k eta_k e^{ikx}.

All state arrays carry the mode axis last and arbitrary batch axes in
front, which is what keeps ensemble runs affordable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import SimpleNamespace

import numpy as np

from .noise import NoisePath, NoiseSpec
from .spectral import (
    ROOT_2PI,
    TWO_PI,
    DampingProfile,
    FourierField,
    Grid,
    ValidationError,
    analyze,
    hs_norm_sq,
    synth,
)

DEFAULT_DT = 2.0**-7
MAX_DT = 1.0e-2
H1_BLOWUP = 1.0e6
_TIME_TOL = 1.0e-9


class BlowUpError(RuntimeError):
    """Signals that the H1 norm crossed the blow-up guard during a run.

    row is the index, within its block, of the chain with the largest H1
    norm, or of the first chain whose norm is NaN (0 for a single chain);
    h1_norm is that chain's norm.
    """

    def __init__(self, step: int, time: float, norm: float, row: int = 0):
        super().__init__(
            "H1 norm %.3e of row %d crossed the blow-up guard at step %d (t=%.6f)"
            % (norm, row, step, time)
        )
        self.step = step
        self.time = time
        self.h1_norm = norm
        self.row = row


@dataclass(frozen=True)
class SolverConfig:
    """Everything the stepper needs besides the state itself."""

    grid: Grid
    damping: DampingProfile
    dt: float = DEFAULT_DT
    p: int = 3
    store_stride: int = 1

    def __post_init__(self):
        if not (0.0 < self.dt <= MAX_DT * (1 + 1e-12)):
            raise ValidationError("dt must sit in (0, %g], got %r" % (MAX_DT, self.dt))
        _check_power(self.p)
        if self.store_stride < 1 or int(self.store_stride) != self.store_stride:
            raise ValidationError("store_stride must be a positive integer")
        if self.damping.grid != self.grid:
            raise ValidationError("damping profile lives on a different grid")
        if self.damping.kind == "bump":
            # a narrower bump damps at most one point of the padded grid
            # that _step_tables samples a(x) on, or none
            width, n_pad = self.damping.params[2], pad_points(self.grid.k_max, self.p)
            if width < TWO_PI / n_pad:
                raise ValidationError(
                    "bump width %r is below the grid spacing 2pi/%d = %r of the padded grid"
                    % (width, n_pad, TWO_PI / n_pad)
                )

    def steps_for(self, horizon: float) -> int:
        n = horizon / self.dt
        n = int(round(n)) if math.isfinite(n) else 0  # 1e308 / dt overflows
        if n < 1 or abs(n * self.dt - horizon) > _TIME_TOL * max(1.0, horizon):
            raise ValidationError(
                "horizon %r is not an integer multiple of dt=%r" % (horizon, self.dt)
            )
        return n

    @cached_property
    def _tab(self) -> SimpleNamespace:
        return _step_tables(self.grid, self.damping, self.dt, self.p)


def _check_power(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ValidationError("p must be odd and >= 3, got %r" % (p,))


def _five_smooth_even(n: int) -> int:
    """Smallest even integer >= n with no prime factor beyond 5 (FFT friendly)."""
    m = n if n % 2 == 0 else n + 1
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 2


def pad_points(k_max: int, p: int) -> int:
    """Physical resolution that keeps p-fold products of band-K fields alias-free."""
    return _five_smooth_even((p + 1) * k_max + 2)


def _step_tables(grid: Grid, damping: DampingProfile, dt: float, p: int) -> SimpleNamespace:
    """Per-step tables of the split step of size dt.

    phase_in and phase_out are the half-step phases with the padding scales
    folded in; decay is D_half sampled on the padded grid.
    """
    k = grid.modes
    n_pad = pad_points(grid.k_max, p)
    x_pad = 2.0 * math.pi * np.arange(n_pad) / n_pad
    phase_half = np.exp(-1j * k.astype(float) ** 2 * (dt / 2.0))
    return SimpleNamespace(
        n_pad=n_pad,
        k_max=grid.k_max,
        phase_in=phase_half * (n_pad / ROOT_2PI),
        phase_out=phase_half * (ROOT_2PI / n_pad),
        decay=np.exp(-damping.at(x_pad) * (dt / 2.0)),
        x_pad=x_pad,
    )


def _amp_pow(v: np.ndarray, p: int) -> np.ndarray:
    a2 = v.real**2 + v.imag**2
    return a2 if p == 3 else a2 ** ((p - 1) // 2)


def _split_steps(u: np.ndarray, tab, steps, substep):
    """The one Strang step loop: yields (n, u) after each step n of steps.

    Step n is P_half . unpad o [D_half . substep(n, .) . D_half] o pad . P_half,
    with substep(n, v) acting on the padded physical grid.  Padding writes
    modes 0..K to the front of the padded spectrum and -K..-1 to its back,
    two slice products; unpadding reads the same slices back.  The padded
    spectrum (its zero band written once) and the physical grid are two
    buffers allocated once per sweep, which the FFTs fill through out=: the
    inverse FFT writes the physical grid, the forward FFT writes over the
    block the substep returned.  Only the yielded u is fresh each step, so a
    caller may keep it.
    """
    kk, n_pad = tab.k_max, tab.n_pad
    shape = u.shape[:-1] + (n_pad,)
    w = np.zeros(shape, dtype=np.complex128)
    phys = np.empty(shape, dtype=np.complex128)
    head, tail = w[..., : kk + 1], w[..., n_pad - kk :]
    in_pos, in_neg = tab.phase_in[kk:], tab.phase_in[:kk]
    out_pos, out_neg = tab.phase_out[kk:], tab.phase_out[:kk]
    for n in steps:
        np.multiply(u[..., kk:], in_pos, out=head)
        np.multiply(u[..., :kk], in_neg, out=tail)
        # the decays are applied in place: a fresh block-sized temporary for
        # each lets glibc trim and refault the heap top every step
        v = np.fft.ifft(w, out=phys)
        v *= tab.decay
        v = substep(n, v)
        v *= tab.decay
        spec = np.fft.fft(v, out=v)
        u = np.empty(u.shape, dtype=np.complex128)
        np.multiply(spec[..., : kk + 1], out_pos, out=u[..., kk:])
        np.multiply(spec[..., n_pad - kk :], out_neg, out=u[..., :kk])
        yield n, u


def _identity(n, v):
    return v


def _midpoint(w, rhs, dt, buf):
    """The one explicit midpoint step w + dt rhs(w + (dt/2) rhs(w)), written
    over w; rhs(z, out) writes the right-hand side at z into out.  buf holds
    the slope and the stage, two padded blocks allocated once per sweep: a
    fresh complex temporary per operation on a 64-row block is 180 KB, past
    glibc's initial 128 KB mmap threshold, and the page faults of such
    temporaries made the control sweep 20% slower.
    """
    k, m = buf
    np.add(w, np.multiply(0.5 * dt, rhs(w, k), out=k), out=m)
    return np.add(w, np.multiply(dt, rhs(m, k), out=k), out=w)


def _forced_rhs(z, out, f, p: int):
    """-i(|z|^{p-1} z + f) into out: the forced substep's rhs for _midpoint."""
    np.add(np.multiply(_amp_pow(z, p), z, out=out), f, out=out)
    return np.multiply(-1j, out, out=out)


def steps_per_cell(spec: NoiseSpec, cfg: SolverConfig) -> int:
    """Solver steps per noise cell: the one check that spec can force a run
    under cfg, every noise mode inside the grid band and dt dividing the cell
    width, so that every step sees a constant drive."""
    spu = cfg.steps_for(1.0)
    if spu % spec.n_cells != 0:
        raise ValidationError(
            "dt must divide the noise cell width: %d solver steps per unit time "
            "vs %d cells (SolverConfig/NoiseSpec cross constraint)" % (spu, spec.n_cells)
        )
    for k in spec.modes:
        if abs(k) > cfg.grid.k_max:
            raise ValidationError("noise mode %d outside the grid band" % k)
    return spu // spec.n_cells


def _mode_waves(modes, tab) -> np.ndarray:
    """exp(ikx) of each mode k on the padded grid of tab, (len(modes), n_pad)."""
    return np.exp(1j * np.multiply.outer(np.asarray(modes, float), tab.x_pad))


def _noise_drive(rows, cfg: SolverConfig):
    """Physical-space noise forcing of a block of chains.

    rows[i] lists the unit-interval paths chain i runs through, one per time
    unit; drive(step) has shape (len(rows), n_pad).  The forcing is constant
    on each noise cell, so it is built once per cell into one buffer, which
    drive returns until the next cell overwrites it.  The forcing is an
    explicit sum over the few active modes, not vals @ exps: a matrix product
    picks its BLAS kernel by the number of rows, so a chain's forcing would
    depend on the block it is stepped in.  The sum gives every row the same
    bits.  Every entry must be a NoisePath carrying the first one's
    NoiseSpec, amplitudes too.
    """
    if not all(isinstance(path, NoisePath) for row in rows for path in row):
        raise ValidationError("every forcing entry must be a NoisePath")
    spec = rows[0][0].spec
    if any(path.spec != spec for row in rows for path in row):
        raise ValidationError("paths must share one noise spec")
    per_cell = steps_per_cell(spec, cfg)
    spu = per_cell * spec.n_cells
    amp = np.asarray(spec.amplitudes)[:, None]
    stack = np.array([[amp * p.cells for p in row] for row in rows])  # (B, units, modes, cells)
    exps = _mode_waves(spec.modes, cfg._tab)

    out = np.empty((len(rows), cfg._tab.n_pad), dtype=np.complex128)
    built = None

    def drive(step: int):
        nonlocal built
        unit, within = divmod(step, spu)
        cell = (unit, within // per_cell)
        if cell != built:
            vals = stack[:, unit, :, cell[1]]
            np.multiply(vals[:, 0, None], exps[0], out=out)
            for j in range(1, len(exps)):
                np.add(out, vals[:, j, None] * exps[j], out=out)
            built = cell
        return out

    return drive


def _row_drive(paths, cfg: SolverConfig):
    """Forcing of one chain through paths, as row 0 of the block builder.

    Single-chain runs step a 1-D state: a (1, n_coeff) block costs about 10%
    more per step.
    """
    block = _noise_drive([paths], cfg)
    return lambda step: block(step)[0]


def _evolve(u: np.ndarray, cfg: SolverConfig, n_steps: int, drive, collect: bool):
    """Nonlinear flow over n_steps.  u has shape (..., n_coeff); drive(n) is
    the padded physical forcing of step n, or drive is None.  Returns
    (times, stored, final)."""
    tab = cfg._tab
    dt, p = cfg.dt, cfg.p
    thr2 = H1_BLOWUP**2
    if drive is not None:
        buf = tuple(np.empty(u.shape[:-1] + (tab.n_pad,), dtype=np.complex128) for _ in range(2))

    def substep(n, v):
        if drive is None:
            return v * np.exp(-1j * dt * _amp_pow(v, p))
        return _midpoint(v, partial(_forced_rhs, f=drive(n), p=p), dt, buf)

    times = [0.0]
    stored = [u] if collect else []
    for n, u in _split_steps(u, tab, range(n_steps), substep):
        h1 = hs_norm_sq(u, 1.0)
        if not (h1.max() <= thr2):  # NaN compares false, so it trips too
            row = int(np.argmax(h1))
            raise BlowUpError(n + 1, (n + 1) * dt, float(np.sqrt(h1.flat[row])), row)
        if collect and ((n + 1) % cfg.store_stride == 0 or n + 1 == n_steps):
            times.append((n + 1) * dt)
            stored.append(u)
    return np.asarray(times), stored, u


@dataclass
class Trajectory:
    """Stored states of one run: times[i] pairs with coeffs[i]."""

    grid: Grid
    times: np.ndarray
    coeffs: np.ndarray = field(repr=False)
    config: SolverConfig = None
    forcing: object = None

    @property
    def n_stored(self) -> int:
        return len(self.times)

    def state(self, i: int) -> FourierField:
        return FourierField(self.grid, self.coeffs[i])

    @property
    def endpoint(self) -> FourierField:
        return self.state(-1)

    def index_at(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > _TIME_TOL * max(1.0, abs(t)):
            raise ValidationError("time %r not on the stored grid" % (t,))
        return i

    def state_at(self, t: float) -> FourierField:
        return self.state(self.index_at(t))

    def norms(self, s: float = 1.0) -> np.ndarray:
        return np.sqrt(hs_norm_sq(self.coeffs, s))

    @cached_property
    def tangent_coefficients(self) -> tuple:
        """The frozen coefficients of the tangent flow along this run.

        The derivative of |u|^{p-1} u at the midpoint state u of each step:
        c1 = ((p+1)/2)|u|^{p-1} (real) and c2 = ((p-1)/2)|u|^{p-3} u^2, on
        the padded grid, shape (n_steps, n_pad) each.  Built on first use
        and kept as long as the run.
        """
        cfg = self.config
        if cfg.store_stride != 1:
            raise ValidationError("linearization needs a base stored at every step")
        p = cfg.p
        u = synth(0.5 * (self.coeffs[:-1] + self.coeffs[1:]), cfg._tab.n_pad)
        c1 = ((p + 1) / 2.0) * _amp_pow(u, p)
        c2 = ((p - 1) / 2.0) * (u**2 if p == 3 else u**2 * _amp_pow(u, p - 2))
        return c1, c2


def _as_path_list(forcing, horizon: float):
    if forcing is None:
        return None
    if isinstance(forcing, NoisePath):
        if horizon > 1.0 + _TIME_TOL:
            raise ValidationError("a single noise path covers at most one time unit")
        return [forcing]
    try:
        paths = list(forcing)
    except TypeError:
        raise ValidationError("forcing must be None, a NoisePath, or a sequence of them") from None
    if abs(horizon - len(paths)) > _TIME_TOL:
        raise ValidationError(
            "%d concatenated paths cover horizon %d, got %r" % (len(paths), len(paths), horizon)
        )
    return paths


def solve_nls(u0: FourierField, forcing, horizon: float, cfg: SolverConfig) -> Trajectory:
    """Integrate from u0 over [0, horizon] and return the stored trajectory.

    forcing: None for the unforced flow, a NoisePath for one unit interval,
    or a sequence of NoisePath objects for an integer horizon.  Steps are
    validated to align with the dyadic noise cells so every step sees a
    constant drive.
    """
    if u0.grid != cfg.grid:
        raise ValidationError("initial state lives on a different grid")
    n_steps = cfg.steps_for(horizon)
    paths = _as_path_list(forcing, horizon)
    drive = _row_drive(paths, cfg) if paths is not None else None
    times, stored, _ = _evolve(u0.coeffs.astype(np.complex128), cfg, n_steps, drive, True)
    return Trajectory(cfg.grid, times, np.stack(stored), cfg, forcing)


def markov_step(u0: FourierField, path: NoisePath, cfg: SolverConfig) -> FourierField:
    """Time-one solution map driving the unit-interval Markov chain: the
    endpoint of solve_nls over one time unit."""
    return solve_nls(u0, path, 1.0, cfg).endpoint


def _block_unit_run(coeffs: np.ndarray, paths, cfg: SolverConfig, collect: bool):
    """_evolve of a block over one time unit, row i under paths[i]; a block
    of no rows takes no steps."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (len(paths), cfg.grid.n_coeff):
        raise ValidationError("need one row of %d coefficients per path, got shape %r"
                              % (cfg.grid.n_coeff, coeffs.shape))
    if not paths:
        return np.zeros(1), [coeffs], coeffs
    drive = _noise_drive([[p] for p in paths], cfg)
    return _evolve(coeffs, cfg, cfg.steps_for(1.0), drive, collect)


def markov_step_batch(coeffs: np.ndarray, paths, cfg: SolverConfig) -> np.ndarray:
    """Batched unit step: coeffs (B, n_coeff) under per-row noise paths."""
    return _block_unit_run(coeffs, paths, cfg, False)[2]


def solve_nls_batch(coeffs: np.ndarray, paths, cfg: SolverConfig) -> list:
    """Stored unit runs of a block, one Trajectory per row: row i of coeffs
    under paths[i], stored at cfg's stride.  Rows step independently, so
    run i is solve_nls(row i, paths[i], 1.0, cfg) bit for bit."""
    times, stored, _ = _block_unit_run(coeffs, paths, cfg, True)
    return [
        Trajectory(cfg.grid, times.copy(), np.stack([u[i] for u in stored]), cfg, path)
        for i, path in enumerate(paths)
    ]


def linear_group(u0: FourierField, t: float, cfg: SolverConfig) -> FourierField:
    """Damped free group S_a(t) of cfg's splitting: the split step with the
    identity substep, at the step t/n closest to cfg.dt.

    Each step is the exact spectral half phases around two exact pointwise
    half-step decays exp(-a(x) dt/2) on the padded grid of cfg.p, so for a
    zero potential the linearized solver under cfg and this map take the
    same steps and agree to round-off.
    """
    if u0.grid != cfg.grid:
        raise ValidationError("state and solver config live on different grids")
    if t < 0:
        raise ValidationError("group time must be nonnegative")
    u = u0.coeffs.astype(np.complex128)
    if t > 0:
        n = max(1, int(round(t / cfg.dt)))
        tab = _step_tables(cfg.grid, cfg.damping, t / n, cfg.p)
        for _, u in _split_steps(u, tab, range(n), _identity):
            pass
    return FourierField(u0.grid, u)


_SYNTH_BLOCK = 128  # rows per padded synthesis in _padded_power_mean


def _padded_power_mean(coeffs: np.ndarray, q: int, p: int) -> np.ndarray:
    """Mean of |u|^(q-1) on the padded grid of p along the last axis, each
    row on its own: the one body behind the energy and lp_power_integral.
    Rows are synthesized _SYNTH_BLOCK at a time, so a long run never holds
    more than one small padded block."""
    c = np.asarray(coeffs, dtype=np.complex128)
    rows = c.reshape(-1, c.shape[-1])
    m = pad_points((c.shape[-1] - 1) // 2, p)
    out = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], _SYNTH_BLOCK):
        v = synth(rows[lo : lo + _SYNTH_BLOCK], m)
        out[lo : lo + _SYNTH_BLOCK] = np.mean(_amp_pow(v, q), axis=-1)
    return out.reshape(c.shape[:-1])


def energy_series(coeffs: np.ndarray, p: int = 3) -> np.ndarray:
    """(1/2)int |u|^2 + (1/2)int |u_x|^2 + 1/(p+1) int |u|^{p+1} along the
    last axis: the one energy body, for one state or a stack of them."""
    _check_power(p)
    c = np.asarray(coeffs, dtype=np.complex128)
    return 0.5 * hs_norm_sq(c, 1.0) + _padded_power_mean(c, p + 2, p) * TWO_PI / (p + 1)


def energy(f: FourierField, p: int = 3) -> float:
    """energy_series of one field, as a float."""
    return float(energy_series(f.coeffs, p))


def lp_power_integral(coeffs: np.ndarray, p: int) -> np.ndarray:
    """int |u|^{p-1} dx along the last axis, exact for band-limited u; at
    p = 3 it is the squared L2 norm (Parseval)."""
    _check_power(p)
    if p == 3:
        return hs_norm_sq(coeffs, 0.0)
    return _padded_power_mean(coeffs, p, p) * TWO_PI


def phase_theta(traj: Trajectory, t: float) -> float:
    """Accumulated resonant phase ((p+1)/4pi) int_0^t ||u||_{L^{p-1}}^{p-1} ds.

    The integral is the trapezoid over the solver's steps, so traj must be
    stored at every step.
    """
    if traj.config.store_stride != 1:
        raise ValidationError("the resonant phase needs a run stored at every step")
    i = traj.index_at(t)
    p = traj.config.p
    vals = lp_power_integral(traj.coeffs[: i + 1], p)
    integral = float(np.trapezoid(vals, traj.times[: i + 1]))
    return (p + 1) / (4.0 * math.pi) * integral


def _check_factors(factors):
    p = len(factors)
    if p < 3 or p % 2 == 0:
        raise ValidationError("need an odd number >= 3 of factors, got %d" % p)
    grid = factors[0].grid
    for f in factors:
        if f.grid != grid:
            raise ValidationError("factors live on different grids")
    return p, grid


def nmult(factors) -> FourierField:
    """Alternating product u1 bar(u2) u3 ... of p fields, dealiased."""
    p, grid = _check_factors(factors)
    pad = pad_points(grid.k_max, p)
    prod = np.ones(pad, dtype=np.complex128)
    for i, f in enumerate(factors):
        v = synth(f.coeffs, pad)
        prod *= v if i % 2 == 0 else np.conj(v)
    return FourierField(grid, analyze(prod, grid.k_max))


def nres(factors) -> FourierField:
    """Resonant part: for each odd slot m the frequency constraint pins the
    m-th factor's mode, and the remaining factors collapse to the mean of
    their alternating product over the torus; each such term contributes
    u_m times that mean.  Single-resonant terms are counted once per slot,
    so coinciding factors are counted with multiplicity."""
    p, grid = _check_factors(factors)
    pad = pad_points(grid.k_max, p)
    phys = [synth(f.coeffs, pad) for f in factors]
    out = np.zeros(grid.n_coeff, dtype=np.complex128)
    for m in range(0, p, 2):  # odd slots in 1-based counting
        prod = np.ones(pad, dtype=np.complex128)
        for i in range(p):
            if i == m:
                continue
            prod *= phys[i] if i % 2 == 0 else np.conj(phys[i])
        out += factors[m].coeffs * complex(np.mean(prod))
    return FourierField(grid, out)


def nnonres(factors) -> FourierField:
    return nmult(factors) - nres(factors)


def trajectory_remainder(traj: Trajectory, t: float) -> FourierField:
    """The smoothing remainder of the run stored in traj, at time t: u(t)
    minus the phase-adjusted damped free evolution of u(0).

    The remainder is the smoothing diagnostic: it carries the gain of
    regularity that the full flow enjoys over its linear part once the
    resonant phase has been removed.
    """
    theta = phase_theta(traj, t)
    lin = linear_group(traj.state(0), t, traj.config)
    return traj.state_at(t) - cmath.exp(-1j * theta) * lin
