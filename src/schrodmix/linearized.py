"""Linearization along a stored trajectory, its backward adjoint, and the
controllability Gramian assembled from the control response matrix.

The forward tangent flow solves

    i v_t + v_xx + i a(x) v = ((p+1)/2)|u|^{p-1} v + ((p-1)/2)|u|^{p-3} u^2 conj(v) + g

with u frozen per substep (midpoint interpolation of the stored base), using
the same splitting as the nonlinear stepper.  The backward flow applies the
exact real-L2 adjoint of each forward substep in reverse order, so the real
pairing Re<v(t), phi(t)> is conserved to round-off by construction, and the
stored states solve

    i phi_t + phi_xx - i a(x) phi = ((p+1)/2)|u|^{p-1} phi - ((p-1)/2)|u|^{p-3} u^2 conj(phi).

Gramian coordinates use the real H1 inner product Re<.,.>_{H1} restricted to
a Galerkin band |k| <= cutoff, where the coordinate map
(Re u_k, Im u_k) -> sqrt(1+k^2) (Re u_k, Im u_k) is a real isometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .dynamics import Trajectory, _split_steps
from .noise import haar_basis, haar_time_keys
from .spectral import FourierField, ROOT_2PI, ValidationError, synth

_TIME_TOL = 1.0e-9


@dataclass
class LinearizedRun:
    """Tangent or adjoint states stored on the base trajectory's time grid."""

    base: Trajectory
    times: np.ndarray
    coeffs: np.ndarray = field(repr=False)

    def state(self, i: int) -> FourierField:
        return FourierField(self.base.grid, self.coeffs[i])

    @property
    def endpoint(self) -> FourierField:
        return self.state(-1)


def _base_tables(base: Trajectory):
    """Frozen-coefficient data per step: c1 real, c2 complex on the padded grid."""
    cfg = base.config
    if cfg.store_stride != 1:
        raise ValidationError("linearization needs a base stored at every step")
    tab = cfg._tab
    mids = 0.5 * (base.coeffs[:-1] + base.coeffs[1:])
    u = synth(mids, tab.n_pad)
    a2 = u.real**2 + u.imag**2
    p = cfg.p
    r = a2 if p == 3 else a2 ** ((p - 1) // 2)
    w = u**2 if p == 3 else u**2 * a2 ** ((p - 3) // 2)
    c1 = ((p + 1) / 2.0) * r
    c2 = ((p - 1) / 2.0) * w
    return tab, c1, c2


def _forward_steps(v, tab, c1, c2, dt, drive_phys, collect):
    """March v (batch, C) through all steps; drive_phys(n) physical or None."""
    stored = [v] if collect else []

    def substep(n, w):
        g = None if drive_phys is None else drive_phys(n)
        return _midpoint(w, c1[n], c2[n], dt, g)

    for _, v in _split_steps(v, tab, range(c1.shape[0]), substep):
        if collect:
            stored.append(v)
    return stored, v


def _midpoint(w, c1, c2, dt, g):
    def rhs(z):
        out = -1j * (c1 * z + c2 * np.conj(z))
        if g is not None:
            out = out - 1j * g
        return out

    wm = w + (0.5 * dt) * rhs(w)
    return w + dt * rhs(wm)


def _midpoint_adjoint(w, c1, c2, dt):
    def rhs(z):
        return 1j * (c1 * z - c2 * np.conj(z))

    wm = w + (0.5 * dt) * rhs(w)
    return w + dt * rhs(wm)


def solve_linearized(base: Trajectory, v0: FourierField) -> LinearizedRun:
    """Unforced tangent flow along base from v0."""
    if v0.grid != base.grid:
        raise ValidationError("direction lives on a different grid")
    tab, c1, c2 = _base_tables(base)
    stored, _ = _forward_steps(
        v0.coeffs.astype(np.complex128), tab, c1, c2, base.config.dt, None, True
    )
    return LinearizedRun(base, base.times.copy(), np.stack(stored))


def solve_adjoint_backward(base: Trajectory, phi1: FourierField) -> LinearizedRun:
    """Backward adjoint flow: phi at every base time, phi(T) = phi1.

    Applies the exact real-L2 adjoint of each forward substep in reverse, so
    Re<v(t_n), phi(t_n)> is constant in n for any tangent solution v.
    """
    if phi1.grid != base.grid:
        raise ValidationError("terminal state lives on a different grid")
    tab, c1, c2 = _base_tables(base)
    adj = SimpleNamespace(
        **{**vars(tab), "phase_in": np.conj(tab.phase_in), "phase_out": np.conj(tab.phase_out)}
    )
    dt = base.config.dt
    phi = phi1.coeffs.astype(np.complex128)
    stored = [phi]

    def substep(n, w):
        return _midpoint_adjoint(w, c1[n], c2[n], dt)

    for _, phi in _split_steps(phi, adj, range(c1.shape[0] - 1, -1, -1), substep):
        stored.append(phi)
    stored.reverse()
    return LinearizedRun(base, base.times.copy(), np.stack(stored))


def duality_pairing(v_run: LinearizedRun, phi_run: LinearizedRun, t: float) -> float:
    """Re sum_k v_hat(t,k) conj(phi_hat(t,k)) at a stored time."""
    i = int(np.argmin(np.abs(v_run.times - t)))
    if abs(v_run.times[i] - t) > _TIME_TOL * max(1.0, abs(t)):
        raise ValidationError("time %r not stored" % (t,))
    j = int(np.argmin(np.abs(phi_run.times - t)))
    return float(np.sum(v_run.coeffs[i] * np.conj(phi_run.coeffs[j])).real)


# ---------------------------------------------------------------------------
# control basis and Gramian


def h1_coords(coeffs: np.ndarray, k_max: int, cutoff: int) -> np.ndarray:
    """Real H1 coordinates of the band |k| <= cutoff; batched on leading axes."""
    if cutoff > k_max:
        raise ValidationError("cutoff exceeds the stored band")
    c = np.asarray(coeffs)[..., k_max - cutoff : k_max + cutoff + 1]
    k = np.arange(-cutoff, cutoff + 1, dtype=float)
    w = np.sqrt(1.0 + k**2)
    out = np.empty(c.shape[:-1] + (2 * c.shape[-1],), dtype=float)
    out[..., 0::2] = w * c.real
    out[..., 1::2] = w * c.imag
    return out


def coords_to_coeffs(x: np.ndarray, cutoff: int, k_max: int) -> np.ndarray:
    """Inverse of h1_coords, zero outside the cutoff band."""
    x = np.asarray(x, dtype=float)
    k = np.arange(-cutoff, cutoff + 1, dtype=float)
    w = np.sqrt(1.0 + k**2)
    band = (x[..., 0::2] + 1j * x[..., 1::2]) / w
    out = np.zeros(x.shape[:-1] + (2 * k_max + 1,), dtype=np.complex128)
    out[..., k_max - cutoff : k_max + cutoff + 1] = band
    return out


def mode_coord_indices(target_cutoff: int, cutoff: int) -> np.ndarray:
    """Coordinate positions of the modes |k| <= target_cutoff inside h1_coords."""
    if target_cutoff > cutoff:
        raise ValidationError("target band exceeds the Galerkin band")
    sel = []
    for k in range(-target_cutoff, target_cutoff + 1):
        i = k + cutoff
        sel.extend((2 * i, 2 * i + 1))
    return np.asarray(sel, dtype=int)


def control_response_matrix(base: Trajectory, modes, time_level: int, cutoff: int):
    """Final-time responses of the unit control basis, in H1 coordinates.

    Columns run over (mode k in modes) x (Haar time key) x (component 1, i);
    the time functions are L2-normalized over the base's one time unit, so
    the basis is orthonormal in L2(0,1) x L2(torus).  Returns (matrix, column_keys).
    """
    cfg = base.config
    n_steps = base.n_stored - 1
    if abs(n_steps * cfg.dt - 1.0) > _TIME_TOL:
        raise ValidationError("the control basis needs a base over one time unit")
    keys = haar_time_keys(time_level)
    basis = haar_basis(time_level, n_steps)
    modes = tuple(int(k) for k in modes)
    for k in modes:
        if abs(k) > base.grid.k_max:
            raise ValidationError("control mode %d outside the band" % k)
    col_keys = []
    for k in modes:
        for key in keys:
            for comp in (1.0, 1.0j):
                col_keys.append((k, key[0], key[1], comp))
    n_cols = len(col_keys)

    # per-step drive amplitudes of exp(ikx) per column: comp * 2^(j/2) h_jl / sqrt(2pi)
    vals = np.zeros((n_steps, n_cols, len(modes)), dtype=np.complex128)
    for c, (k, j, l, comp) in enumerate(col_keys):
        vals[:, c, modes.index(k)] = comp * basis[2**j - 1 + l] / ROOT_2PI

    tab, c1, c2 = _base_tables(base)
    rows = np.exp(1j * np.multiply.outer(np.asarray(modes, float), tab.x_pad))

    def drive(n):
        return vals[n] @ rows

    v0 = np.zeros((n_cols, base.grid.n_coeff), dtype=np.complex128)
    _, final = _forward_steps(v0, tab, c1, c2, cfg.dt, drive, False)
    matrix = h1_coords(final, base.grid.k_max, cutoff).T.copy()  # (n_x, n_cols)
    return matrix, col_keys


@dataclass
class GramianReport:
    """Spectral summary of G = A A^T in real H1 Galerkin coordinates."""

    modes: tuple
    time_basis_level: int
    galerkin_cutoff: int
    target_cutoff: int
    eigenvalues: np.ndarray
    target_subspace_min_eig: float
    quadrature_steps: int
    column_count: int


def gramian_matrix(base: Trajectory, modes, time_level: int, cutoff: int) -> np.ndarray:
    a, _ = control_response_matrix(base, modes, time_level, cutoff)
    return _symmetric_gram(a)


def _symmetric_gram(a: np.ndarray) -> np.ndarray:
    """A A^T, symmetrized against round-off."""
    g = a @ a.T
    return 0.5 * (g + g.T)


def assemble_gramian(
    base: Trajectory, modes, time_level: int, cutoff: int, target_cutoff: int = 2
) -> GramianReport:
    """Gramian of the control response map over the Haar-in-time control basis."""
    a, cols = control_response_matrix(base, modes, time_level, cutoff)
    g = _symmetric_gram(a)
    eigs = np.linalg.eigvalsh(g)[::-1].copy()
    sel = mode_coord_indices(target_cutoff, cutoff)
    sub = g[np.ix_(sel, sel)]
    min_eig = float(np.linalg.eigvalsh(sub)[0])
    return GramianReport(
        modes=tuple(int(k) for k in modes),
        time_basis_level=time_level,
        galerkin_cutoff=cutoff,
        target_cutoff=target_cutoff,
        eigenvalues=eigs,
        target_subspace_min_eig=min_eig,
        quadrature_steps=base.n_stored - 1,
        column_count=len(cols),
    )
