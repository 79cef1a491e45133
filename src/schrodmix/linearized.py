"""Linearization along a stored trajectory, its backward adjoint, and the
controllability Gramian assembled from the control response matrix.

The forward tangent flow solves

    i v_t + v_xx + i a(x) v = ((p+1)/2)|u|^{p-1} v + ((p-1)/2)|u|^{p-3} u^2 conj(v) + g

with u frozen per substep (midpoint interpolation of the stored base), using
the same splitting as the nonlinear stepper.  The frozen coefficients (c1, c2)
belong to the base: Trajectory.tangent_coefficients builds them once, on a
base stored at every step, and every tangent, adjoint and control solve on
that base reads them there.  The substep is one midpoint rule for
w' = -i(c1 w + c2 conj(w)).  Its real-L2 transpose is the same rule with c1
negated, so the backward flow runs that rule in reverse step order with
conjugated phases; the real pairing Re<v(t), phi(t)> is then conserved to
round-off by construction, and the stored states solve

    i phi_t + phi_xx - i a(x) phi = ((p+1)/2)|u|^{p-1} phi - ((p-1)/2)|u|^{p-3} u^2 conj(phi).

Tangent and adjoint runs are Trajectory objects on the base's grid, times and
solver config.

The control response matrix is the one forced tangent solve.  Its columns
are driven by the Haar-in-time control basis, and a column is exactly zero
before its Haar function's support begins, so each column is marched only
from there: at time level 3 that is 63% of the dense column steps, at level
6 53%, with every bit of the result unchanged.

Gramian coordinates use the real H1 inner product Re<.,.>_{H1} restricted to
a Galerkin band |k| <= cutoff, where the coordinate map
(Re u_k, Im u_k) -> sqrt(1+k^2) (Re u_k, Im u_k) is a real isometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dynamics import _TIME_TOL, Trajectory, _split_steps
from .noise import haar_basis, haar_time_keys
from .spectral import FourierField, ROOT_2PI, ValidationError, mode_weights


def _forward_steps(v, tab, c1, c2, dt, steps, drive_ig=None):
    """Tangent steps of v (batch, C): yields (n, v) after each step n of steps.

    drive_ig(n) is i g of step n on the padded grid, or drive_ig is None.
    """
    buf = _midpoint_buffers(v, tab)

    def substep(n, w):
        return _midpoint(w, c1[n], c2[n], dt, None if drive_ig is None else drive_ig(n), buf)

    return _split_steps(v, tab, steps, substep)


def _midpoint_buffers(v, tab) -> tuple:
    """The three padded scratch blocks _midpoint needs for a sweep of v."""
    shape = v.shape[:-1] + (tab.n_pad,)
    return tuple(np.empty(shape, dtype=np.complex128) for _ in range(3))


def _midpoint(w, c1, c2, dt, ig, buf):
    """One midpoint step of w' = -i(c1 w + c2 conj(w)) - ig, written over w.

    The operations are those of the plain expression, in its order, so the
    bits are too; they only write into buf, allocated once per sweep.  A
    fresh temporary per operation on a 60-row control block is 170 KB, past
    glibc's 128 KB mmap threshold, and the page faults of those temporaries
    made the control sweep 20% slower.
    """
    a, b, m = buf

    def rhs(z):
        np.multiply(c1, z, out=a)
        np.multiply(c2, np.conjugate(z, out=b), out=b)
        np.multiply(-1j, np.add(a, b, out=a), out=a)
        if ig is not None:
            np.subtract(a, ig, out=a)
        return a

    np.add(w, np.multiply(0.5 * dt, rhs(w), out=a), out=m)
    return np.add(w, np.multiply(dt, rhs(m), out=a), out=w)


def solve_linearized(base: Trajectory, v0: FourierField) -> Trajectory:
    """Unforced tangent flow along base from v0."""
    if v0.grid != base.grid:
        raise ValidationError("direction lives on a different grid")
    cfg = base.config
    c1, c2 = base.tangent_coefficients
    v = v0.coeffs.astype(np.complex128)
    stored = [v]
    for _, v in _forward_steps(v, cfg._tab, c1, c2, cfg.dt, range(c1.shape[0])):
        stored.append(v)
    return Trajectory(base.grid, base.times.copy(), np.stack(stored), cfg)


def solve_adjoint_backward(base: Trajectory, phi1: FourierField) -> Trajectory:
    """Backward adjoint flow: phi at every base time, phi(T) = phi1.

    Applies the exact real-L2 adjoint of each forward substep in reverse (the
    tangent midpoint rule with c1 negated, and conjugated phases), so
    Re<v(t_n), phi(t_n)> is constant in n for any tangent solution v.
    """
    if phi1.grid != base.grid:
        raise ValidationError("terminal state lives on a different grid")
    cfg = base.config
    c1, c2 = base.tangent_coefficients
    tab = cfg._tab
    adj = SimpleNamespace(
        **{**vars(tab), "phase_in": np.conj(tab.phase_in), "phase_out": np.conj(tab.phase_out)}
    )
    phi = phi1.coeffs.astype(np.complex128)
    stored = [phi]

    buf = _midpoint_buffers(phi, tab)

    def substep(n, w):
        return _midpoint(w, -c1[n], c2[n], cfg.dt, None, buf)

    for _, phi in _split_steps(phi, adj, range(c1.shape[0] - 1, -1, -1), substep):
        stored.append(phi)
    stored.reverse()
    return Trajectory(base.grid, base.times.copy(), np.stack(stored), cfg)


def duality_pairing(v_run: Trajectory, phi_run: Trajectory, t: float) -> float:
    """Re sum_k v_hat(t,k) conj(phi_hat(t,k)) at a time both runs store."""
    v, phi = v_run.coeffs[v_run.index_at(t)], phi_run.coeffs[phi_run.index_at(t)]
    return float(np.sum(v * np.conj(phi)).real)


# ---------------------------------------------------------------------------
# control basis and Gramian


def check_bands(cutoff: int, k_max: int = None, target_cutoff: int = 0) -> None:
    """The one check of the Galerkin band |k| <= cutoff: it lies inside the
    stored band |k| <= k_max, when given, and holds the target band
    |k| <= target_cutoff."""
    if k_max is not None and cutoff > k_max:
        raise ValidationError("cutoff exceeds the stored band")
    if target_cutoff > cutoff:
        raise ValidationError("target band exceeds the Galerkin band")


def h1_coords(coeffs: np.ndarray, k_max: int, cutoff: int) -> np.ndarray:
    """Real H1 coordinates of the band |k| <= cutoff; batched on leading axes."""
    check_bands(cutoff, k_max)
    c = np.asarray(coeffs)[..., k_max - cutoff : k_max + cutoff + 1]
    w = np.sqrt(mode_weights(cutoff, 1.0))
    out = np.empty(c.shape[:-1] + (2 * c.shape[-1],), dtype=float)
    out[..., 0::2] = w * c.real
    out[..., 1::2] = w * c.imag
    return out


def mode_coord_indices(target_cutoff: int, cutoff: int) -> np.ndarray:
    """Coordinate positions of the modes |k| <= target_cutoff inside h1_coords."""
    check_bands(cutoff, target_cutoff=target_cutoff)
    sel = []
    for k in range(-target_cutoff, target_cutoff + 1):
        i = k + cutoff
        sel.extend((2 * i, 2 * i + 1))
    return np.asarray(sel, dtype=int)


def control_response_matrix(
    base: Trajectory, modes, time_level: int, cutoff: int, separation: FourierField = None
):
    """Final-time responses of the unit control basis, in H1 coordinates.

    Columns run over (mode k in modes) x (Haar time key) x (component 1, i);
    the time functions are L2-normalized over the base's one time unit, so
    the basis is orthonormal in L2(0,1) x L2(torus).  Returns (matrix, column_keys).

    With a separation w, the sweep also marches w as one more row, unforced
    and from step 0: its drive row is exactly zero and every row steps on
    its own, so the row is solve_linearized(base, w) bit for bit and the
    columns are unchanged.  Returns (matrix, column_keys, v(1)) then.

    A column is exactly zero until its Haar function's support begins, so
    the columns are marched in order of their first forced step (the first
    nonzero of their haar_basis row), and only the active ones: a column
    joins the block as a zero row on the control cell where its support
    begins.  The drive is constant on a control cell, and the active
    columns' drive is a prefix of the sorted amplitudes, so i g is built
    once per cell.
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

    # per-cell drive amplitudes of exp(ikx) per column: comp * 2^(j/2) h_jl / sqrt(2pi)
    per_cell = n_steps >> (time_level + 1)
    vals = np.zeros((n_steps // per_cell, n_cols, len(modes)), dtype=np.complex128)
    for c, (k, j, l, comp) in enumerate(col_keys):
        vals[:, c, modes.index(k)] = comp * basis[2**j - 1 + l, ::per_cell] / ROOT_2PI

    # each column's first forced step, read off its basis row
    first = np.argmax(basis != 0, axis=1)[[2**j - 1 + l for _, j, l, _ in col_keys]]
    order = np.argsort(first, kind="stable")
    vals, first = vals[:, order], first[order]

    tab = cfg._tab
    c1, c2 = base.tangent_coefficients
    rows = np.exp(1j * np.multiply.outer(np.asarray(modes, float), tab.x_pad))
    # the separation, if any, is row 0 and the columns follow it
    if separation is None:
        v = np.zeros((0, base.grid.n_coeff), dtype=np.complex128)
    else:
        if separation.grid != base.grid:
            raise ValidationError("separation lives on a different grid")
        v = separation.coeffs.astype(np.complex128)[None, :]
    off = len(v)
    for lo in range(0, n_steps, per_cell):
        m = int(np.searchsorted(first, lo, side="right"))
        if off + m > len(v):
            v = np.concatenate([v, np.zeros((off + m - len(v), v.shape[1]), dtype=np.complex128)])
        # exact whatever m is: each entry of vals is purely real or purely
        # imaginary, with one nonzero per row
        ig = np.zeros((off + m, tab.n_pad), dtype=np.complex128)
        ig[off:] = 1j * (vals[lo // per_cell, :m] @ rows)
        for _, v in _forward_steps(v, tab, c1, c2, cfg.dt, range(lo, lo + per_cell), lambda n: ig):
            pass
    final = np.empty_like(v[off:])
    final[order] = v[off:]
    matrix = h1_coords(final, base.grid.k_max, cutoff).T.copy()  # (n_x, n_cols)
    if separation is None:
        return matrix, col_keys
    return matrix, col_keys, FourierField(base.grid, v[0].copy())


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


def assemble_gramian(
    base: Trajectory, modes, time_level: int, cutoff: int, target_cutoff: int = 2
) -> GramianReport:
    """Gramian of the control response map over the Haar-in-time control basis."""
    a, cols = control_response_matrix(base, modes, time_level, cutoff)
    g = a @ a.T
    g = 0.5 * (g + g.T)  # symmetrized against round-off
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
