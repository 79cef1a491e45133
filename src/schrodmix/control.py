"""Saturating mode algebra, regularized pseudo-inverse control, and the
one-step contraction experiment.

The stabilizing shift cancels, through the noise modes, the compact part

    T(y, zeta)(w) = v(1) - exp(-i theta_y(1)) S_a(1) w

of the linearized step (v the tangent flow along the y trajectory from w).
Coefficients come from the Tikhonov-regularized pseudo-inverse
c = A^T (A A^T + gamma I)^{-1} d over the Haar-in-time control basis, and the
realized control is subtracted from the driving noise path, so the shifted
realization stays inside the span the noise itself lives on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import SolverConfig, Trajectory, linear_group, markov_step, phase_theta, solve_nls
from .linearized import control_response_matrix, h1_coords, solve_linearized
from .noise import NoisePath, NoiseSpec, haar_basis
from .spectral import FourierField, ROOT_2PI, ValidationError, hs_norm_sq


def saturate_once(base: frozenset, previous: frozenset) -> frozenset:
    """One generation step: previous together with {2k - l : k in base, l in previous}."""
    out = set(previous)
    for k in base:
        for l in previous:
            out.add(2 * k - l)
    return frozenset(out)


def saturation_span(base, iterations: int):
    """Iterate saturate_once from the base set.

    Returns (final_set, interval) with interval the largest contiguous run of
    integers inside the final set, as an inclusive (lo, hi) pair.
    """
    if iterations < 0:
        raise ValidationError("iterations must be >= 0")
    b = frozenset(int(k) for k in base)
    if not b:
        raise ValidationError("base set must be nonempty")
    current = b
    for _ in range(iterations):
        current = saturate_once(b, current)
    interval = largest_interval(current)
    return current, interval


def largest_interval(values) -> tuple:
    vals = sorted(values)
    best = (vals[0], vals[0])
    lo = vals[0]
    prev = vals[0]
    for v in vals[1:]:
        if v == prev + 1:
            prev = v
        else:
            if prev - lo > best[1] - best[0]:
                best = (lo, prev)
            lo = prev = v
    if prev - lo > best[1] - best[0]:
        best = (lo, prev)
    return best


def regularized_pinv_solve(a: np.ndarray, gamma: float, target: np.ndarray) -> np.ndarray:
    """c = A^T (A A^T + gamma I)^{-1} target, the gamma-regularized least-norm fit."""
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    a = np.asarray(a, dtype=float)
    target = np.asarray(target, dtype=float)
    gram = a @ a.T + gamma * np.eye(a.shape[0])
    return a.T @ np.linalg.solve(gram, target)


@dataclass
class ControlBasisMap:
    """Matrix of final-time responses of the control basis, plus its layout."""

    matrix: np.ndarray = field(repr=False)
    column_keys: list = field(repr=False)
    modes: tuple = ()
    time_level: int = 0
    galerkin_cutoff: int = 0

    @property
    def column_count(self) -> int:
        return self.matrix.shape[1]


def build_control_basis_map(
    base: Trajectory, modes, time_level: int, galerkin_cutoff: int
) -> ControlBasisMap:
    matrix, keys = control_response_matrix(base, modes, time_level, galerkin_cutoff)
    return ControlBasisMap(
        matrix=matrix,
        column_keys=keys,
        modes=tuple(int(k) for k in modes),
        time_level=time_level,
        galerkin_cutoff=galerkin_cutoff,
    )


def pseudo_inverse_apply(cmap: ControlBasisMap, gamma: float, target) -> np.ndarray:
    """Control coefficients steering toward a target field (or coordinate vector)."""
    if isinstance(target, FourierField):
        target = h1_coords(target.coeffs, target.grid.k_max, cmap.galerkin_cutoff)
    target = np.asarray(target, dtype=float)
    if target.shape != (cmap.matrix.shape[0],):
        raise ValidationError("target coordinates do not match the map")
    return regularized_pinv_solve(cmap.matrix, gamma, target)


def compact_T_apply(base: Trajectory, w: FourierField) -> FourierField:
    """T(y, zeta)(w): tangent endpoint minus phase-adjusted damped free flow."""
    run = solve_linearized(base, w)
    theta = phase_theta(base, float(base.times[-1]))
    cfg = base.config
    lin = linear_group(w, float(base.times[-1]), cfg.damping, cfg.dt, cfg.p)
    return run.endpoint - cmath.exp(-1j * theta) * lin


def realize_shift_cells(cmap: ControlBasisMap, coeffs: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Convert control coefficients into per-mode Haar cell increments.

    The control field sum_i c_i htilde_i(t) comp_i e_{k_i} enters the equation
    the same way the noise does, so as a shift of eta_k it is divided by
    b_k sqrt(2pi).  htilde_i = 2^(j/2) h_{jl} is read on the noise cells from
    the same haar_basis table the response matrix reads on the solver steps,
    and the columns are added in map order.  Controls on a mode with zero
    amplitude, or finer than the noise cells, cannot be realized.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (cmap.column_count,):
        raise ValidationError("coefficient vector does not match the map")
    if cmap.time_level > spec.level_max:
        raise ValidationError("control level %d finer than the noise cells" % cmap.time_level)
    basis = haar_basis(cmap.time_level, spec.n_cells)
    delta = np.zeros((len(spec.modes), spec.n_cells), dtype=np.complex128)
    for c, (k, j, l, comp) in enumerate(cmap.column_keys):
        if k not in spec.modes:
            raise ValidationError("control mode %d is not a noise mode" % k)
        m = spec.modes.index(k)
        b = spec.amplitudes[m]
        if b == 0:
            raise ValidationError("mode %d has zero noise amplitude" % k)
        delta[m] += coeffs[c] * comp * basis[2**j - 1 + l] / (b * ROOT_2PI)
    return delta


@dataclass
class ShiftResult:
    path: NoisePath
    coefficients: np.ndarray
    shift_norm: float


def stabilizing_shift(
    base_y: Trajectory, x: FourierField, gamma: float, cmap: ControlBasisMap
) -> ShiftResult:
    """Shifted noise xi = zeta - R^gamma T(y, zeta)(x - y) for the coupled step.

    base_y must be the stored unit-interval run from y under the realization
    zeta (its forcing record), with the control map assembled on it.
    """
    zeta = base_y.forcing
    if not isinstance(zeta, NoisePath):
        raise ValidationError("base trajectory must record its driving noise path")
    y0 = base_y.state(0)
    d = compact_T_apply(base_y, x - y0)
    coeffs = pseudo_inverse_apply(cmap, gamma, d)
    delta = realize_shift_cells(cmap, coeffs, zeta.spec)
    xi = zeta.shifted(delta)
    return ShiftResult(path=xi, coefficients=coeffs, shift_norm=float(np.linalg.norm(coeffs)))


def equivalent_norm(w: FourierField, cfg: SolverConfig, tau0: float = 1.0) -> float:
    """H1 norm after riding the damped free group for tau0 time units.

    A practical stand-in for the norm in which the damped group is a strict
    contraction; the plain H1 norm can grow transiently under S_a.
    """
    out = linear_group(w, tau0, cfg.damping, cfg.dt, cfg.p)
    return float(math.sqrt(hs_norm_sq(out.coeffs, 1.0)))


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


def contraction_test(
    y: FourierField,
    x: FourierField,
    zeta: NoisePath,
    gamma: float,
    cfg: SolverConfig,
    time_level: int = 2,
    galerkin_cutoff: int = 8,
    tau0: float = 1.0,
    seeds: tuple = (),
) -> StabilizationReport:
    """Run S(y, zeta) against S(x, xi) with the stabilizing shift and compare
    the coupled separation to the initial one, alongside the unshifted run.
    Separations are measured in equivalent_norm with the given tau0."""
    cfg = replace(cfg, store_stride=1)  # the base is linearized at every step
    base_y = solve_nls(y, zeta, 1.0, cfg)
    cmap = build_control_basis_map(base_y, zeta.spec.modes, time_level, galerkin_cutoff)
    shift = stabilizing_shift(base_y, x, gamma, cmap)

    s_y = base_y.endpoint
    s_x_shifted = markov_step(x, shift.path, cfg)
    s_x_plain = markov_step(x, zeta, cfg)

    norm = lambda f: equivalent_norm(f, cfg, tau0)
    sep0 = norm(y - x)
    # x = y leaves nothing to contract; 0/0 is reported as 0 by convention
    degenerate = sep0 == 0.0
    q = 0.0 if degenerate else norm(s_y - s_x_shifted) / sep0
    q_plain = 0.0 if degenerate else norm(s_y - s_x_plain) / sep0
    return StabilizationReport(
        gamma=gamma,
        q_ratio=q,
        uncontrolled_ratio=q_plain,
        shift_norm=shift.shift_norm,
        success=bool(q < 1.0),
        norm_kind="h1_after_group(tau0=%g)" % tau0,
        separation=sep0,
        seeds=tuple(seeds),
        degenerate=degenerate,
    )
