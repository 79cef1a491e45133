"""Strang-split pseudospectral integrator for the damped, forced flow

    i u_t + u_xx + i a(x) u = |u|^{p-1} u + f(t, x),   x on the 2pi torus,

with p >= 3 odd.  One step S of size dt is the symmetric composition

    P_half . unpad o [D_half . N . D_half] o pad . P_half

of the exact free phase P_half = exp(-i k^2 dt/2), applied in spectral
space, and, on a zero-padded physical grid, the exact pointwise decay
D_half = exp(-a(x) dt/2) around the nonlinear substep N.  The padded grid
keeps products of band-limited factors alias-free.  The damping a(x) is
localized, so it is applied where it is diagonal, on the padded grid the
substep needs anyway: a step costs one padded inverse FFT and one padded FFT.

The noise forcing f = sum_k b_k eta_k e^{ikx} lives on a few modes and is
constant on a step, so it is split out of the substep: a forced step is

    P_half . F . unpad o [D_half . N . D_half] o pad . F . P_half

with the exact half kick F u = u - i (dt/2) f_hat on the noise modes'
coefficients alone, f_hat_k = sqrt(2pi) b_k eta_k.  The kicks sit inside
the free half phases, so the free flow carries the forcing by the midpoint
rule, as it did when f sat inside N; the decays carry it as D_half^2 h + h
for 2 D_half h, a change of O((a dt)^2) in the kick.

The physical-space part of a step is one pointwise factor v -> g v, the
two decays folded in.  With s = |D_half v|^{p-1}: unforced, N is the exact
modulus-preserving rotation z -> z exp(-i s dt), so g = D_half^2
exp(-i dt s), formed as one complex exp of -a dt - i dt s; forced, N is
the two-stage explicit midpoint rule for -i |z|^{p-1} z, whose stage
z - i (dt/2) s z keeps the form z -> z (scalar of |z|^2), so with
t = s (1 + (dt s/2)^2)^{(p-1)/2}, the midpoint stage's |.|^{p-1}, it is

    g = D_half^2 (1 - dt^2 t s/2 - i dt t),

built by real arithmetic on |v|^{p-1} into one complex block.  These are
the plain two-stage and D . rotation . D products to a few ulp, not their
bits: the substep's bits are its own, as the tangent's are.

The state rides from step to step as its padded spectrum: two
consecutive half phases meet as the one full-step phase exp(-i k^2 dt),
written from the forward FFT's output straight into the next step's
input, and the trailing and next leading half kicks are added to the
noise modes' columns of the spectrum on either side of it.  A state is
unpadded, through the half phase, only where a caller keeps it: a stored
stride, the cell end of a control sweep, the last step.  The blow-up
guard reads the H1 norm off the spectrum's band with the padding scale
in its weights.

One kernel, _split_steps, runs every flow that shares this splitting: it
takes the middle substep as a parameter, and the substep owns the whole
physical-space part of its step, the two decays D_half included.  The
forced and unforced substeps multiply by their factor g, and the identity
substep, the damped free group's, by D_half^2.  The tangent substep of
linearized folds its decays into its own map: the frozen-coefficient
midpoint step between two decays is one real-linear map
w -> a_n w + b_n conj(w) per step, which linearized forms from the stored
base for the steps it is about to take.  Run with conj(a_n), on
conjugated phases, in reverse step order, the same map is the exact
real-L2 adjoint (D_half is real and diagonal); with the identity between
the decays the loop is linear_group, the damped free group.  The kernel
also applies the half kicks: the noise's to every chain of a forced run,
and a control column's to its row of linearized's tangent sweep.

Everything that depends on p and its padded grid lives here, beside the
nonlinearity: pad_points, the energy and lp_power_integral.  So does the
noise forcing: steps_per_cell is the one check that a NoiseSpec can force a
SolverConfig, and _noise_drive the one builder of its half kicks.

All state arrays carry the mode axis last and arbitrary batch axes in
front, which is what keeps ensemble runs affordable.  Every operation of a
step acts on each row alone (elementwise, or a per-row FFT or reduction),
so a row's bits do not depend on its block.  A stored run is one block,
allocated before its first step and filled as its steps finish.
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
    check_integer,
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
    check_integer("p", p)
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
    folded in, for the pad before a sweep's first step and the unpad of a
    state a caller keeps; phase is the full-step phase exp(-i k^2 dt) that
    carries the padded spectrum from one step to the next.  On the padded
    grid: decay is D_half, decay2 is D_half^2, log_decay2 its log -a dt, and
    rate is -dt D_half^(p-1), so rate |v|^{p-1} is -dt |D_half v|^{p-1};
    half_rate and decay2x2, rate/2 and 2 D_half^2 (exact scalings), serve
    the forced substep.
    h1 weighs the squared real and imaginary parts of the spectrum's band,
    modes 0..K then -K..-1, so that their sum is the H1 norm squared of the
    unpadded state.
    """
    k = grid.modes.astype(float)
    kk = grid.k_max
    n_pad = pad_points(kk, p)
    x_pad = 2.0 * math.pi * np.arange(n_pad) / n_pad
    a = damping.at(x_pad)
    phase_half = np.exp(-1j * k**2 * (dt / 2.0))
    decay = np.exp(-a * (dt / 2.0))
    decay2, decay_p = decay * decay, decay ** (p - 1)
    k_pad = np.concatenate([k[kk:], k[:kk]])
    return SimpleNamespace(
        n_pad=n_pad,
        k_max=kk,
        phase_in=phase_half * (n_pad / ROOT_2PI),
        phase_out=phase_half * (ROOT_2PI / n_pad),
        phase=np.exp(-1j * k**2 * dt),
        decay=decay,
        decay2=decay2,
        log_decay2=-a * dt,
        rate=-dt * decay_p,
        half_rate=-0.5 * dt * decay_p,
        decay2x2=2.0 * decay2,
        h1=np.repeat((1.0 + k_pad**2) * (TWO_PI / n_pad**2), 2),
    )


def _amp_pow(v: np.ndarray, p: int, out=None) -> np.ndarray:
    """|v|^(p-1), formed in out[0] with out[1] for |Im v|^2: out is a pair
    of real blocks of v's shape, a fresh pair when None.  The operations and
    operand order are those of (v.real**2 + v.imag**2) ** ((p - 1) // 2), so
    the bits are the same."""
    a2, b2 = out if out is not None else (np.empty(v.shape), np.empty(v.shape))
    np.add(np.square(v.real, out=a2), np.square(v.imag, out=b2), out=a2)
    if p != 3:
        a2 **= (p - 1) // 2
    return a2


def _unpad(spec: np.ndarray, tab, out=None) -> np.ndarray:
    """The state a step's yielded spectrum stands for: its band through the
    trailing half phase, with the padding scale, into out (fresh if None)."""
    kk, n_pad = tab.k_max, tab.n_pad
    if out is None:
        out = np.empty(spec.shape[:-1] + (2 * kk + 1,), dtype=np.complex128)
    np.multiply(spec[..., : kk + 1], tab.phase_out[kk:], out=out[..., kk:])
    np.multiply(spec[..., n_pad - kk :], tab.phase_out[:kk], out=out[..., :kk])
    return out


def _h1_guard(spec: np.ndarray, tab, sq: np.ndarray) -> np.ndarray:
    """hs_norm_sq(_unpad(spec, tab), 1.0) of each row, read off the band of
    spec: the squared parts go into the real block sq of shape
    spec.shape[:-1] + (2 (2K+1),), are weighed elementwise by tab.h1 and
    summed by a per-row np.add.reduce, so a row's value does not depend on
    its block."""
    kk, n_pad = tab.k_max, tab.n_pad
    np.square(spec[..., : kk + 1].view(np.float64), out=sq[..., : 2 * kk + 2])
    np.square(spec[..., n_pad - kk :].view(np.float64), out=sq[..., 2 * kk + 2 :])
    sq *= tab.h1
    return np.add.reduce(sq, axis=-1)


def _split_steps(u, tab, steps, substep, blocks=None, kick=None):
    """The one Strang step loop: yields (n, spec) after each step n of steps.

    Step n is P_half . unpad o substep(n, .) o pad . P_half, with substep(n, v)
    the whole physical-space part of the step, decays included, acting on
    the padded physical grid.  The state rides between steps as its padded
    spectrum.  The first step's input is u through the leading half phase,
    with the padding scale: modes 0..K at the front of the padded spectrum
    and -K..-1 at its back, two slice products.  Each later input is the
    band of the previous step's spectrum times the full-step phase, two
    slice products from the forward FFT's output into the next input.  The
    yielded spec is that output, which stands for the state _unpad(spec,
    tab) after step n; the next step overwrites it, so a caller that keeps
    a state unpads it before it asks for the next step.  The padded
    spectrum (zero outside the band) and the physical grid are two buffers
    allocated once per sweep, which the FFTs fill through out=: the
    inverse FFT writes the physical grid, and the forward FFT writes it
    over with the spectrum.  blocks, when given, is that pair for u's
    rows, so a caller that sweeps many times allocates them once.  u None
    goes on from blocks as a previous sweep over them left it: its last
    spectrum, still in the physical block, is the first step's state, and
    rows that join a block there must be zero in both buffers.

    kick, when given, is (rows, modes, half): half(n) is step n's half kick
    h, a block of shape u[rows].shape[:-1] + (len(modes),), and the
    substep of step n runs between two kicks u[rows] -> u[rows] + h on the
    coefficients of modes, inside the two free half phases.  Both enter
    the padded spectrum with the padding scale, one column add per mode:
    the leading kick into the step's input, the trailing one into its
    output, so the yielded spectrum is the kicked state's.
    """
    kk, n_pad = tab.k_max, tab.n_pad
    if blocks is None:
        shape = u.shape[:-1] + (n_pad,)
        blocks = np.zeros(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128)
    w, phys = blocks
    head, tail = w[..., : kk + 1], w[..., n_pad - kk :]
    spec = phys if u is None else None
    if u is not None:
        np.multiply(u[..., kk:], tab.phase_in[kk:], out=head)
        np.multiply(u[..., :kk], tab.phase_in[:kk], out=tail)
    full_pos, full_neg = tab.phase[kk:], tab.phase[:kk]
    if kick is not None:
        rows, modes, half = kick
        cols = [(rows, k % n_pad) for k in modes]
        lead = n_pad / ROOT_2PI
    for n in steps:
        if spec is not None:
            np.multiply(spec[..., : kk + 1], full_pos, out=head)
            np.multiply(spec[..., n_pad - kk :], full_neg, out=tail)
        if kick is not None:
            h = lead * half(n)
            for j, at in enumerate(cols):
                w[at] += h[..., j]
        spec = np.fft.fft(substep(n, np.fft.ifft(w, out=phys)), out=phys)
        if kick is not None:
            for j, at in enumerate(cols):
                spec[at] += h[..., j]
        yield n, spec


def _decays(tab, n, v):
    """The identity between the two half-step decays, in place: the
    substep of the damped free group."""
    v *= tab.decay2
    return v


def _rotation(tab, p: int, amp, g, n, v):
    """The unforced substep, in place: v times g = D_half^2 exp(-i dt s),
    s = |D_half v|^{p-1}, formed as exp(-a dt - i dt s) in the complex
    block g with |v|^{p-1} in amp, _amp_pow's pair."""
    np.multiply(_amp_pow(v, p, amp), tab.rate, out=g.imag)
    np.copyto(g.real, tab.log_decay2)
    v *= np.exp(g, out=g)
    return v


def _midpoint_factor(tab, p: int, amp, g, n, v):
    """The forced substep, in place: the two-stage explicit midpoint rule
    for -i |z|^{p-1} z between the two decays, which is v times
    g = D_half^2 (1 - dt^2 t s/2 - i dt t), with s = |D_half v|^{p-1} and
    t = s (1 + (dt s/2)^2)^{(p-1)/2} the midpoint stage's |.|^{p-1}.  g is
    built by real arithmetic in amp, _amp_pow's pair, into the complex
    block g."""
    s = _amp_pow(v, p, amp)
    s *= tab.half_rate  # -dt s/2
    t = np.square(s, out=amp[1])
    t += 1.0
    if p != 3:
        t **= (p - 1) // 2
    t *= s  # -dt t/2
    np.multiply(t, tab.decay2x2, out=g.imag)  # -D_half^2 dt t
    s *= g.imag  # D_half^2 dt^2 t s/2
    np.subtract(tab.decay2, s, out=g.real)
    v *= g
    return v


def steps_per_cell(spec: NoiseSpec, cfg: SolverConfig) -> int:
    """Solver steps per noise cell: the one check that spec can force a run
    under cfg, every noise mode inside the grid band and dt dividing the cell
    width, so that every step sees a constant kick."""
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


def _noise_drive(rows, cfg: SolverConfig):
    """The noise forcing of a block of chains, as the kick of _split_steps.

    rows[i] lists the unit-interval paths chain i runs through, one per time
    unit.  Returns (Ellipsis, modes, half): half(step) is the half kick
    h = -i (dt/2) sqrt(2pi) b_k eta_k of each row on each noise mode k, a
    (len(rows), len(modes)) block, formed elementwise (so a row has the bits
    it has alone) once per noise cell into one buffer, which half returns
    until the next cell overwrites it.  Every entry must be a NoisePath
    carrying the first one's NoiseSpec, amplitudes too.
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
    scale = -0.5j * cfg.dt * ROOT_2PI
    out = np.empty((len(rows), len(spec.modes)), dtype=np.complex128)
    built = None

    def half(step: int):
        nonlocal built
        unit, within = divmod(step, spu)
        cell = (unit, within // per_cell)
        if cell != built:
            np.multiply(stack[:, unit, :, cell[1]], scale, out=out)
            built = cell
        return out

    return Ellipsis, spec.modes, half


def _row_drive(paths, cfg: SolverConfig):
    """The kick of one chain through paths, as row 0 of the block builder.

    Single-chain runs step a 1-D state: a (1, n_coeff) block costs about 10%
    more per step.
    """
    rows, modes, block = _noise_drive([paths], cfg)
    return rows, modes, lambda step: block(step)[0]


def _evolve(u: np.ndarray, cfg: SolverConfig, n_steps: int, kick, collect: bool):
    """Nonlinear flow over n_steps.  u has shape (..., n_coeff); kick is the
    noise forcing as _split_steps' kick, or None.  Returns (times, stored,
    final).

    With collect, the run is stored at cfg's stride, the final step always
    included, in one block of shape (..., n_stored, n_coeff) allocated
    before the first step: the states are unpadded straight into its rows
    as their steps finish, so stored[..., j, :] is the j-th stored state of
    each chain and stored[i] the whole run of row i of a (B, n_coeff)
    block, and final is a view of the last state.  Without collect, times
    and stored are None, and only the last step is unpadded.  Every block
    a step writes is allocated once per sweep: |v|^{p-1} goes into a pair
    of real blocks, the substep's factor into a complex one, and the
    guard's squares into a real one.
    """
    tab = cfg._tab
    dt, p, stride = cfg.dt, cfg.p, cfg.store_stride
    thr2 = H1_BLOWUP**2
    pad = u.shape[:-1] + (tab.n_pad,)
    factor = _rotation if kick is None else _midpoint_factor
    amp, g = (np.empty(pad), np.empty(pad)), np.empty(pad, dtype=np.complex128)
    substep = partial(factor, tab, p, amp, g)
    sq = np.empty(u.shape[:-1] + (2 * u.shape[-1],))

    times = stored = None
    if collect:
        n_stored = 1 - (-n_steps // stride)  # step 0, then ceil(n_steps / stride) steps
        times = np.zeros(n_stored)
        stored = np.empty(u.shape[:-1] + (n_stored, u.shape[-1]), dtype=np.complex128)
        stored[..., 0, :] = u
        j = 1
    for n, spec in _split_steps(u, tab, range(n_steps), substep, kick=kick):
        h1 = _h1_guard(spec, tab, sq)
        if not (h1.max() <= thr2):  # NaN compares false, so it trips too
            row = int(np.argmax(h1))
            raise BlowUpError(n + 1, (n + 1) * dt, float(np.sqrt(h1.flat[row])), row)
        if collect and (n + 1) % stride == 0 and n + 1 < n_steps:
            times[j] = (n + 1) * dt
            _unpad(spec, tab, stored[..., j, :])
            j += 1
    if collect:
        times[-1] = n_steps * dt
    return times, stored, _unpad(spec, tab, stored[..., -1, :] if collect else None)


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


def _solve(u0: FourierField, forcing, horizon: float, cfg: SolverConfig, collect: bool):
    """The one prologue of a single-chain run: checks, step count and kick,
    then _evolve from u0."""
    if u0.grid != cfg.grid:
        raise ValidationError("initial state lives on a different grid")
    n_steps = cfg.steps_for(horizon)
    paths = _as_path_list(forcing, horizon)
    kick = _row_drive(paths, cfg) if paths is not None else None
    return _evolve(u0.coeffs.astype(np.complex128), cfg, n_steps, kick, collect)


def solve_nls(u0: FourierField, forcing, horizon: float, cfg: SolverConfig) -> Trajectory:
    """Integrate from u0 over [0, horizon] and return the stored trajectory.

    forcing: None for the unforced flow, a NoisePath for one unit interval,
    or a sequence of NoisePath objects for an integer horizon.  Steps are
    validated to align with the dyadic noise cells so every step sees a
    constant kick.
    """
    times, stored, _ = _solve(u0, forcing, horizon, cfg, True)
    return Trajectory(cfg.grid, times, stored, cfg, forcing)


def markov_step(u0: FourierField, path: NoisePath, cfg: SolverConfig) -> FourierField:
    """Time-one solution map driving the unit-interval Markov chain: the
    endpoint of solve_nls over one time unit, stepped without storing the
    states between."""
    return FourierField(cfg.grid, _solve(u0, path, 1.0, cfg, False)[2])


def _block_unit_run(coeffs: np.ndarray, paths, cfg: SolverConfig, collect: bool):
    """_evolve of a block over one time unit, row i under paths[i]; a block
    of no rows takes no steps."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (len(paths), cfg.grid.n_coeff):
        raise ValidationError("need one row of %d coefficients per path, got shape %r"
                              % (cfg.grid.n_coeff, coeffs.shape))
    if not paths:
        return np.zeros(1), coeffs[:, None], coeffs
    kick = _noise_drive([[p] for p in paths], cfg)
    return _evolve(coeffs, cfg, cfg.steps_for(1.0), kick, collect)


def markov_step_batch(coeffs: np.ndarray, paths, cfg: SolverConfig) -> np.ndarray:
    """Batched unit step: coeffs (B, n_coeff) under per-row noise paths."""
    return _block_unit_run(coeffs, paths, cfg, False)[2]


def solve_nls_batch(coeffs: np.ndarray, paths, cfg: SolverConfig) -> list:
    """Stored unit runs of a block, one Trajectory per row: row i of coeffs
    under paths[i], stored at cfg's stride.  Rows step independently, so
    run i is solve_nls(row i, paths[i], 1.0, cfg) bit for bit.  Run i's
    coeffs is a copy of its row of the one block _evolve fills, not a view,
    so a caller that drops a run frees its states."""
    times, stored, _ = _block_unit_run(coeffs, paths, cfg, True)
    return [
        Trajectory(cfg.grid, times.copy(), stored[i].copy(), cfg, path)
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
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError("group time must be finite and nonnegative, got %r" % (t,))
    u = u0.coeffs.astype(np.complex128)
    if t > 0:
        n = max(1, int(round(t / cfg.dt)))
        tab = _step_tables(cfg.grid, cfg.damping, t / n, cfg.p)
        for _, spec in _split_steps(u, tab, range(n), partial(_decays, tab)):
            pass
        u = _unpad(spec, tab)
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
