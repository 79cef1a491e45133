"""Linearization along a stored trajectory, its backward adjoint, and the
controllability Gramian assembled from the control response matrix.

The forward tangent flow solves

    i v_t + v_xx + i a(x) v = ((p+1)/2)|u|^{p-1} v + ((p-1)/2)|u|^{p-3} u^2 conj(v) + g

with u frozen per substep (midpoint interpolation of the stored base), using
the same splitting as the nonlinear stepper.  The frozen rhs
-i(c1 w + c2 conj(w)) is real-linear, so its explicit midpoint step between
the two half-step decays is one pointwise map per step,
w -> a_n w + b_n conj(w).  _tangent_coefficients forms the maps of any
range of steps from a base stored at every step; step n's map reads the
base's states n and n+1 alone.  The tangent and adjoint solves form every
step's maps at once, and the control sweep forms each control cell's just
before it marches that cell, so no base holds its maps after a solve.  The
substep is _tangent_map, run by dynamics._split_steps like every other
substep.  A forcing g enters as in the nonlinear step, as the two half
kicks -i (dt/2) g_hat around it, inside the free half phases: a kick is
affine with identity derivative, so the map stays the unforced one.  The
real-L2 transpose of the map is w -> conj(a_n) w + b_n conj(w), so the
backward flow is the same substep with (conj(a_n), b_n), on conjugated
phase tables, in reverse step order; the real pairing Re<v(t), phi(t)> is
then conserved to round-off by construction, and the stored states solve

    i phi_t + phi_xx - i a(x) phi = ((p+1)/2)|u|^{p-1} phi - ((p-1)/2)|u|^{p-3} u^2 conj(phi).

Tangent and adjoint runs are Trajectory objects on the base's grid, times and
solver config, each stored in one block allocated before its first step:
the tangent fills its rows forward, the adjoint backward, from phi(T).

The control response matrix is the one forced tangent solve.  Its columns
are forced by the Haar-in-time control basis, each as a kick on its one
mode's coefficient, and a column is exactly zero before its Haar function's
support begins, so each column is marched only from there: at time level 3
that is 63% of the dense column steps, at level 6 53%, with every bit of the
result unchanged.

Gramian coordinates use the real H1 inner product Re<.,.>_{H1} restricted to
a Galerkin band |k| <= cutoff, where the coordinate map
(Re u_k, Im u_k) -> sqrt(1+k^2) (Re u_k, Im u_k) is a real isometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dynamics import _TIME_TOL, Trajectory, _amp_pow, _split_steps, _unpad
from .noise import haar_basis, haar_time_keys
from .spectral import FourierField, ValidationError, check_integer, mode_weights, synth


def _padded_blocks(lead: tuple, tab) -> list:
    """A sweep's three zeroed complex blocks of shape lead + (n_pad,)."""
    return [np.zeros(lead + (tab.n_pad,), dtype=np.complex128) for _ in range(3)]


def _tangent_coefficients(base: Trajectory, lo: int, hi: int) -> tuple:
    """The maps (a, b) of the tangent flow along base for steps lo..hi-1,
    row i the map of step lo + i.

    Step n freezes the derivative of |u|^{p-1} u at the midpoint state u
    of the step: c1 = ((p+1)/2)|u|^{p-1} (real) and
    c2 = ((p-1)/2)|u|^{p-3} u^2, on the padded grid.  The explicit
    midpoint step of w' = -i(c1 w + c2 conj(w)) between the two
    half-step decays D is exactly the real-linear map
    w -> a_n w + b_n conj(w), with

        a_n = D^2 (1 - i dt c1 + (dt^2/2)(|c2|^2 - c1^2)),   b_n = -i dt D^2 c2,

    since the rhs applied twice is (|c2|^2 - c1^2) w; |c2| is
    ((p-1)/(p+1)) c1, so |c2|^2 - c1^2 = -(4p/(p+1)^2) c1^2.  a and b
    have shape (hi - lo, n_pad) each.  Every operation acts on one row
    alone, so the maps of any range are bitwise those rows of the maps
    over all steps.
    """
    cfg = base.config
    if cfg.store_stride != 1:
        raise ValidationError("linearization needs a base stored at every step")
    tab, dt, p = cfg._tab, cfg.dt, cfg.p
    u = synth(0.5 * (base.coeffs[lo:hi] + base.coeffs[lo + 1 : hi + 1]), tab.n_pad)
    c1 = _amp_pow(u, p)
    c1 *= (p + 1) / 2.0
    # c2 and then b are formed over u, so the build holds u, c1 and a
    c2 = np.square(u, out=u) if p == 3 else np.multiply(_amp_pow(u, p - 2), u * u, out=u)
    c2 *= (p - 1) / 2.0
    d2 = tab.decay2
    a = np.empty_like(u)
    np.multiply(c1, -dt * d2, out=a.imag)
    re = np.square(c1, out=a.real)
    re *= -0.5 * dt * dt * 4.0 * p / (p + 1) ** 2
    re += 1.0
    re *= d2
    b = np.multiply(c2, (-1j * dt) * d2, out=c2)
    return a, b


def _tangent_map(w, a, b, t):
    """One tangent substep on the padded grid, written over w: the map
    A(w) = a w + b conj(w); t is a scratch block of w's shape."""
    np.conjugate(w, out=t)
    t *= b
    w *= a
    w += t
    return w


def _tangent_steps(v, maps, tab, steps, kick=None, blocks=None):
    """Tangent steps of v (..., C) under maps = (a, b): yields (n, spec)
    after each step n of steps, which index the rows of a and b, with spec
    _split_steps' padded spectrum.  kick, when given, is _split_steps' kick
    of the forcing; blocks, when given, are the padded spectrum (zero),
    physical grid and scratch blocks of v's rows, and v None goes on from
    them as _split_steps does."""
    a, b = maps
    spec, phys, t = blocks if blocks is not None else _padded_blocks(v.shape[:-1], tab)
    substep = lambda n, w: _tangent_map(w, a[n], b[n], t)
    return _split_steps(v, tab, steps, substep, (spec, phys), kick)


def solve_linearized(base: Trajectory, v0: FourierField) -> Trajectory:
    """Unforced tangent flow along base from v0, each state unpadded into
    its row of one block as its step finishes."""
    if v0.grid != base.grid:
        raise ValidationError("direction lives on a different grid")
    cfg = base.config
    n_steps = base.n_stored - 1
    maps = _tangent_coefficients(base, 0, n_steps)
    stored = np.empty(base.coeffs.shape, dtype=np.complex128)
    stored[0] = v0.coeffs
    tab = cfg._tab
    for n, spec in _tangent_steps(stored[0], maps, tab, range(n_steps)):
        _unpad(spec, tab, stored[n + 1])
    return Trajectory(base.grid, base.times.copy(), stored, cfg)


def solve_adjoint_backward(base: Trajectory, phi1: FourierField) -> Trajectory:
    """Backward adjoint flow: phi at every base time, phi(T) = phi1.

    Runs the tangent substep with (conj(a_n), b_n), on conjugated phase
    tables, in reverse step order: the exact real-L2 adjoint of each forward
    step, so Re<v(t_n), phi(t_n)> is constant in n for any tangent solution v.
    The block is filled from its last row back: step n writes phi(t_n).
    """
    if phi1.grid != base.grid:
        raise ValidationError("terminal state lives on a different grid")
    cfg = base.config
    a, b = _tangent_coefficients(base, 0, base.n_stored - 1)
    tab = cfg._tab
    adj = SimpleNamespace(
        **{**vars(tab), **{k: np.conj(getattr(tab, k)) for k in ("phase_in", "phase_out", "phase")}}
    )
    stored = np.empty(base.coeffs.shape, dtype=np.complex128)
    stored[-1] = phi1.coeffs
    for n, spec in _tangent_steps(stored[-1], (np.conj(a), b), adj, range(len(a) - 1, -1, -1)):
        _unpad(spec, adj, stored[n])
    return Trajectory(base.grid, base.times.copy(), stored, cfg)


def duality_pairing(v_run: Trajectory, phi_run: Trajectory, t: float) -> float:
    """Re sum_k v_hat(t,k) conj(phi_hat(t,k)) at a time both runs store."""
    v, phi = v_run.coeffs[v_run.index_at(t)], phi_run.coeffs[phi_run.index_at(t)]
    return float(np.sum(v * np.conj(phi)).real)


# ---------------------------------------------------------------------------
# control basis and Gramian


def check_bands(cutoff: int, k_max: int = None, target_cutoff: int = 0) -> None:
    """The one check of the Galerkin band |k| <= cutoff: both cutoffs are
    nonnegative, the band lies inside the stored band |k| <= k_max, when
    given, and holds the target band |k| <= target_cutoff."""
    for name, c in (("cutoff", cutoff), ("target cutoff", target_cutoff)):
        check_integer(name, c)
        if c < 0:
            raise ValidationError("%s must be >= 0, got %d" % (name, c))
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
    the basis is orthonormal in L2(0,1) x L2(torus).  Returns (matrix,
    column_keys, tangent), tangent None without a separation.

    With a separation w, the sweep also marches w as one more row, unforced
    and from step 0: the kicks reach the column rows alone and every row
    steps on its own, so the row is solve_linearized(base, w) bit for bit,
    the columns are unchanged, and tangent is its endpoint v(1).

    A column is exactly zero until its Haar function's support begins, so
    the columns are marched in order of their first forced step (the first
    nonzero of their haar_basis row), and only the active ones: a column
    joins the block as a zero row on the control cell where its support
    begins.  The forcing is constant on a control cell, and a cell's steps
    read the kick table's slice of the active columns, a prefix of the
    sorted ones, at that cell.
    The cell's tangent maps are formed just before its steps: the sweep
    holds a cell's maps, never the whole base's.
    """
    cfg = base.config
    n_steps = base.n_stored - 1
    if abs(n_steps * cfg.dt - 1.0) > _TIME_TOL:
        raise ValidationError("the control basis needs a base over one time unit")
    check_bands(cutoff, base.grid.k_max)
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

    # the kick table, (columns, modes, control cells): each column's half
    # kick on the coefficient of e_k over each cell, -i (dt/2) comp 2^(j/2)
    # h_jl, for the forcing comp 2^(j/2) h_jl e_k
    per_cell = n_steps >> (time_level + 1)
    kicks = np.zeros((n_cols, len(modes), n_steps // per_cell), dtype=np.complex128)
    for c, (k, j, l, comp) in enumerate(col_keys):
        kicks[c, modes.index(k)] = (-0.5j * cfg.dt * comp) * basis[2**j - 1 + l, ::per_cell]

    # each column's first forced step, read off its basis row
    first = np.argmax(basis != 0, axis=1)[[2**j - 1 + l for _, j, l, _ in col_keys]]
    order = np.argsort(first, kind="stable")
    kicks, first = kicks[order], first[order]

    tab = cfg._tab
    # the separation, if any, is row 0 and the columns follow it
    if separation is not None and separation.grid != base.grid:
        raise ValidationError("separation lives on a different grid")
    off = 0 if separation is None else 1
    # padded blocks for every row, allocated once per map; a cell steps its
    # rows through the leading slices, and kicks only the column rows.  The
    # first cell pads its rows, the separation and zero columns; each later
    # one goes on from the spectrum the last left, a joining column a zero
    # row of both blocks.
    spec, phys, t = _padded_blocks((off + n_cols,), tab)
    for lo in range(0, n_steps, per_cell):
        m = int(np.searchsorted(first, lo, side="right"))
        c = lo // per_cell
        r = off + m
        v = None
        if lo == 0:
            v = np.zeros((r, base.grid.n_coeff), dtype=np.complex128)
            if separation is not None:
                v[0] = separation.coeffs
        maps = _tangent_coefficients(base, lo, lo + per_cell)
        kick = slice(off, r), modes, kicks[:m, :, c : c + 1], per_cell
        cell = _tangent_steps(v, maps, tab, range(per_cell), kick, (spec[:r], phys[:r], t[:r]))
        for _ in cell:
            pass
    v = _unpad(phys[:r], tab)
    final = np.empty_like(v[off:])
    final[order] = v[off:]
    matrix = h1_coords(final, base.grid.k_max, cutoff).T.copy()  # (n_x, n_cols)
    tangent = None if separation is None else FourierField(base.grid, v[0])
    return matrix, col_keys, tangent


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
    a, cols, _ = control_response_matrix(base, modes, time_level, cutoff)
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
