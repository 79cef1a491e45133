"""Saturating mode algebra and the regularized pseudo-inverse control of a
coupled step.  The coupled step itself, and the contraction test that is one
controlled step of it, live in mixing (_coupled_steps).

The stabilizing shift cancels, through the noise modes, the compact part

    T(y, zeta)(w) = v(1) - exp(-i theta_y(1)) S_a(1) w

of the linearized step (v the tangent flow along the y trajectory from w).
Coefficients come from the Tikhonov-regularized pseudo-inverse
c = A^T (A A^T + gamma I)^{-1} d over the Haar-in-time control basis, and the
realized control is subtracted from the driving noise path, so the shifted
realization stays inside the span the noise itself lives on.

A control map serves one shift: build_control_basis_map(base, time_level,
galerkin_cutoff, x) reads the noise modes off the path that drove base,
checks that its controls can be realized as shifts of that noise, and
marches the separation w = x - y(0) as one more, unforced row of the
control sweep, so the map also holds T's tangent image v(1).
stabilizing_shift(cmap, gamma) reads base, x and the noise from the map,
forms T's free image S_a(1) w, and returns the norm of the separation it
acts on, measured on that same free image: equivalent_norm(w).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    SolverConfig,
    Trajectory,
    linear_group,
    markov_step,  # unused here; bound for the benchmark tracer, which wraps it
    phase_theta,
    solve_nls,  # unused here; bound for the benchmark tracer, which wraps it
)
from .linearized import control_response_matrix, h1_coords, solve_linearized
from .noise import NoisePath, NoiseSpec, haar_basis
from .spectral import FourierField, ROOT_2PI, ValidationError, sobolev_norm


def saturate_once(base: frozenset, previous: frozenset) -> frozenset:
    """One generation step: previous together with {2k - l : k in base, l in previous}."""
    out = set(previous)
    for k in base:
        for l in previous:
            out.add(2 * k - l)
    return frozenset(out)


def saturation_base(base, iterations: int) -> frozenset:
    """The one check of saturation_span's arguments; returns the base set."""
    if iterations < 0:
        raise ValidationError("iterations must be >= 0")
    b = frozenset(int(k) for k in base)
    if not b:
        raise ValidationError("base set must be nonempty")
    return b


def saturation_span(base, iterations: int):
    """Iterate saturate_once from the base set.

    Returns (final_set, interval) with interval the largest contiguous run of
    integers inside the final set, as an inclusive (lo, hi) pair.
    """
    current = b = saturation_base(base, iterations)
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


def check_gamma(gamma: float) -> None:
    """The one check of the Tikhonov weight of regularized_pinv_solve."""
    if not (math.isfinite(gamma) and gamma > 0):  # nan passes a sign test
        raise ValidationError("gamma must be finite and positive, got %r" % (gamma,))


def regularized_pinv_solve(a: np.ndarray, gamma: float, target: np.ndarray) -> np.ndarray:
    """c = A^T (A A^T + gamma I)^{-1} target, the gamma-regularized least-norm fit."""
    check_gamma(gamma)
    a = np.asarray(a, dtype=float)
    target = np.asarray(target, dtype=float)
    gram = a @ a.T + gamma * np.eye(a.shape[0])
    return a.T @ np.linalg.solve(gram, target)


@dataclass
class ControlBasisMap:
    """The control map of one shift: the final-time responses of the
    control basis along base, in H1 Galerkin coordinates, with their
    layout, and the x whose separation x - y(0) was marched with them, with
    its tangent endpoint."""

    matrix: np.ndarray = field(repr=False)
    column_keys: list = field(repr=False)
    base: Trajectory = field(repr=False)
    x: FourierField = field(repr=False)
    tangent: FourierField = field(repr=False)
    time_level: int
    galerkin_cutoff: int

    @property
    def column_count(self) -> int:
        return self.matrix.shape[1]


def build_control_basis_map(
    base: Trajectory, time_level: int, galerkin_cutoff: int, x: FourierField
) -> ControlBasisMap:
    """The control map on base for the shift of x: its columns control the
    modes of the noise path that drove base, and its sweep also marches
    x - y(0)."""
    zeta = base.forcing
    if not isinstance(zeta, NoisePath):
        raise ValidationError("base trajectory must record its driving noise path")
    check_shift_level(time_level, zeta.spec)
    matrix, keys, tangent = control_response_matrix(
        base, zeta.spec.modes, time_level, galerkin_cutoff, x - base.state(0)
    )
    return ControlBasisMap(matrix, keys, base, x, tangent, time_level, galerkin_cutoff)


def pseudo_inverse_apply(cmap: ControlBasisMap, gamma: float, target: FourierField) -> np.ndarray:
    """Control coefficients steering toward a target field, fitted in the
    map's H1 Galerkin coordinates."""
    coords = h1_coords(target.coeffs, target.grid.k_max, cmap.galerkin_cutoff)
    return regularized_pinv_solve(cmap.matrix, gamma, coords)


def compact_T_apply(
    base: Trajectory, w: FourierField, tangent: FourierField = None, free: FourierField = None
) -> FourierField:
    """T(y, zeta)(w): tangent endpoint minus phase-adjusted damped free flow.

    tangent and free, when given, are v(1) and S_a(1) w already formed for
    this base and w; each one not given is formed here.
    """
    horizon = float(base.times[-1])
    if tangent is None:
        tangent = solve_linearized(base, w).endpoint
    if free is None:
        free = linear_group(w, horizon, base.config)
    theta = phase_theta(base, horizon)
    return tangent - cmath.exp(-1j * theta) * free


def check_shift_level(time_level: int, spec: NoiseSpec) -> None:
    """The one check that controls of time_level can be realized as shifts
    of spec's noise, which is constant on cells of level spec.level_max and
    divides each shift of mode k by its amplitude b_k."""
    if time_level > spec.level_max:
        raise ValidationError("control level %d finer than the noise cells" % time_level)
    for k, b in zip(spec.modes, spec.amplitudes):
        if b == 0:
            raise ValidationError("mode %d has zero noise amplitude" % k)


def realize_shift_cells(cmap: ControlBasisMap, coeffs: np.ndarray) -> np.ndarray:
    """Convert control coefficients into per-mode Haar cell increments of
    the noise that drove the map's base.

    The control field sum_i c_i htilde_i(t) comp_i e_{k_i} enters the equation
    the same way the noise does, so as a shift of eta_k it is divided by
    b_k sqrt(2pi).  htilde_i = 2^(j/2) h_{jl} is read on the noise cells from
    the same haar_basis table the response matrix reads on the solver steps,
    and the columns are added in map order.
    """
    spec = cmap.base.forcing.spec
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (cmap.column_count,):
        raise ValidationError("coefficient vector does not match the map")
    basis = haar_basis(cmap.time_level, spec.n_cells)
    delta = np.zeros((len(spec.modes), spec.n_cells), dtype=np.complex128)
    for c, (k, j, l, comp) in enumerate(cmap.column_keys):
        m = spec.modes.index(k)
        delta[m] += coeffs[c] * comp * basis[2**j - 1 + l] / (spec.amplitudes[m] * ROOT_2PI)
    return delta


@dataclass
class ShiftResult:
    path: NoisePath
    coefficients: np.ndarray
    shift_norm: float
    separation: float


def stabilizing_shift(cmap: ControlBasisMap, gamma: float) -> ShiftResult:
    """Shifted noise xi = zeta - R^gamma T(y, zeta)(x - y) for the coupled
    step, with y the map's base, the stored unit-interval run from y under
    the realization zeta (its forcing record), and x the map's x.  T's
    tangent image is the map's separation row.  The result's separation is
    the H1 norm of the free image T uses, S_a(h)(x - y) at the base's
    horizon h: equivalent_norm(x - y) for a unit-interval base.
    """
    base = cmap.base
    w = cmap.x - base.state(0)
    free = linear_group(w, float(base.times[-1]), base.config)
    d = compact_T_apply(base, w, cmap.tangent, free)
    coeffs = pseudo_inverse_apply(cmap, gamma, d)
    return ShiftResult(
        path=base.forcing.shifted(realize_shift_cells(cmap, coeffs)),
        coefficients=coeffs,
        shift_norm=float(np.linalg.norm(coeffs)),
        separation=sobolev_norm(free, 1.0),
    )


def equivalent_norm(w: FourierField, cfg: SolverConfig) -> float:
    """H1 norm after riding the damped free group for one time unit.

    A practical stand-in for the norm in which the damped group is a strict
    contraction; the plain H1 norm can grow transiently under S_a.  Every
    operation of S_a is sign-symmetric, so S_a(-w) = -S_a(w) bit for bit and
    the norm of w - v is that of v - w.
    """
    return sobolev_norm(linear_group(w, 1.0, cfg), 1.0)
