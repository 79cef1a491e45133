"""Degenerate Haar-wavelet noise living on finitely many spatial modes.

One unit time interval carries, per active mode k, a complex process

    eta_k(t) = (xi_1 + i xi_2) h_0(t)
             + sum_{j=1..J} sum_{l<2^j} c j^{-q} (xi_1^{jl} + i xi_2^{jl}) h_{jl}(t)

with sup-normalized Haar functions h (h_0 = 1 on [0,1); h_{jl} is +1 on the
left half of [l 2^-j, (l+1) 2^-j) and -1 on the right half) and i.i.d. xi
drawn from a compactly supported Lipschitz density on [-1, 1].  The physical
forcing field is sum_k b_k eta_k(t) e^{ikx}, which dynamics builds.  Paths
are piecewise constant on the 2^(J+1) dyadic cells of [0,1), which is how
they are stored.

The Haar cell layout, which h_{jl} covers a cell and with which sign, is the
one table haar_cells; path synthesis and haar_inner read it, and haar_eval is
its pointwise reference.  The L2-normalized control basis 2^(j/2) h_{jl} on
the cells is the one table haar_basis, built from haar_cells; the control
response matrix (linearized) and the realized control shift (control) both
read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .spectral import ValidationError, check_integer

# ppf solves G(e) = q for e = 1 - |x|, where G(e) = e/2 - sin(pi e)/(2 pi) is
# the mass of the density on [1 - e, 1].  For e < _SERIES_E, G is summed as
# (pi^2 e^3 / 12) sum_n _SERIES[n] z^n with z = (pi e)^2, which is free of
# the cancellation of the closed form; the first omitted term is below 2e-21
# relative there.
_SERIES_E = 0.25
_SERIES = tuple((-1) ** n * 6.0 / math.factorial(2 * n + 3) for n in range(9))
_NEWTON_STEPS = 4
_PPF_CHUNK = 4096  # draws per pass of ppf's Newton steps


def haar_eval(j: int, l: int, t):
    """Sup-normalized Haar function; (j, l) = (0, 0) is the constant one."""
    _check_haar_index(j, l)
    t = np.asarray(t, dtype=float)
    if j == 0:
        return np.where((t >= 0.0) & (t < 1.0), 1.0, 0.0)
    width = 2.0**-j
    left = l * width
    mid = left + width / 2.0
    right = left + width
    out = np.zeros_like(t)
    out[(t >= left) & (t < mid)] = 1.0
    out[(t >= mid) & (t < right)] = -1.0
    return out


def _check_haar_index(j: int, l: int):
    if j < 0 or l < 0:
        raise ValidationError("Haar indices must be nonnegative")
    if j == 0 and l != 0:
        raise ValidationError("level 0 has the single constant function")
    if j >= 1 and l >= 2**j:
        raise ValidationError("level %d admits l < %d, got %d" % (j, 2**j, l))


def haar_time_keys(level: int):
    """(j, l) keys of the Haar functions up to a level, in coefficient order."""
    check_integer("time basis level", level)
    if level < 0:
        raise ValidationError("time basis level must be >= 0")
    keys = [(0, 0)]
    for j in range(1, level + 1):
        keys.extend((j, l) for l in range(2**j))
    return keys


def haar_cells(level: int, n_cells: int):
    """The Haar cell table on n_cells uniform cells of [0, 1).

    Returns (idx, sign), both of shape (level + 1, n_cells): on cell c, the
    level-j function h_{j, idx[j, c]} is the one whose support holds the cell,
    and sign[j, c] (+1.0 or -1.0) is its value there.  Row 0 is the constant
    h_0.
    """
    if level < 0:
        raise ValidationError("Haar level must be >= 0, got %d" % level)
    if n_cells < 1 or n_cells % 2 ** (level + 1) != 0:
        raise ValidationError(
            "Haar level %d needs a cell count divisible by %d, got %d"
            % (level, 2 ** (level + 1), n_cells)
        )
    c = np.arange(n_cells)
    idx = np.zeros((level + 1, n_cells), dtype=np.intp)
    sign = np.ones((level + 1, n_cells))
    for j in range(1, level + 1):
        per = n_cells >> j  # cells per support
        idx[j] = c // per
        sign[j, c % per >= per // 2] = -1.0
    return idx, sign


def haar_basis(level: int, n_cells: int) -> np.ndarray:
    """The L2-normalized Haar control basis on n_cells uniform cells of [0, 1).

    Row 2^j - 1 + l holds 2^(j/2) h_{jl} on every cell, so the rows run over
    haar_time_keys(level) in order and are orthonormal in L2(0, 1).
    """
    idx, sign = haar_cells(level, n_cells)
    out = np.zeros((2 ** (level + 1) - 1, n_cells))
    c = np.arange(n_cells)
    for j in range(level + 1):
        out[2**j - 1 + idx[j], c] = 2.0 ** (j / 2.0) * sign[j]
    return out


def haar_inner(j: int, l: int, jp: int, lp: int, normalized: bool = False) -> Fraction:
    """Exact L2(0,1) inner product of two Haar functions (dyadic arithmetic).

    With normalized=True both factors are scaled to unit L2 norm first; the
    result is still exact because off-diagonal pairs vanish identically and
    the diagonal scaling 2^j is an integer.
    """
    _check_haar_index(j, l)
    _check_haar_index(jp, lp)
    res = max(j, jp) + 1
    idx, sign = haar_cells(res - 1, 2**res)
    s1 = np.where(idx[j] == l, sign[j], 0.0)
    s2 = np.where(idx[jp] == lp, sign[jp], 0.0)
    raw = Fraction(int(np.sum(s1 * s2)), 2**res)
    if not normalized:
        return raw
    if raw == 0:
        return Fraction(0)
    # nonzero only on the diagonal, where the scaling is 2^((j+jp)/2) = 2^j
    return raw * Fraction(2 ** ((j + jp) // 2))


class RhoSpec:
    """Sampling density for the Haar coefficients: raised cosine on [-1, 1].

    pdf(x) = (1 + cos(pi x)) / 2, which is Lipschitz, supported on [-1, 1]
    and positive at the origin.  The CDF is closed form.  ppf inverts it by
    symmetry on the tail mass: with q = min(u, 1 - u) and e = 1 - |x| it
    solves G(e) = e/2 - sin(pi e)/(2 pi) = q by Newton steps, G'(e) =
    sin^2(pi e / 2), from the lower bound e = cbrt(12 q / pi^2), each step
    clipped into the bracket [lo, hi] the steps have found.  G is summed as a
    series for small e, so the tails near +-1 keep full accuracy.  The step
    count is fixed and every operation is elementwise, so a draw is a
    deterministic function of its own uniform alone, whatever array it is in.
    """

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1.0, 0.5 * (1.0 + np.cos(math.pi * x)), 0.0)

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        return 0.5 * (x + 1.0) + np.sin(math.pi * x) / (2.0 * math.pi)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise ValidationError("ppf argument outside [0, 1]")
        flat = u.reshape(-1)
        out = np.empty_like(flat)
        # fixed chunks bound the Newton temporaries whatever the draw count
        for lo in range(0, flat.size, _PPF_CHUNK):
            _ppf_into(flat[lo : lo + _PPF_CHUNK], out[lo : lo + _PPF_CHUNK])
        return out.reshape(u.shape)[()]


def _ppf_into(u: np.ndarray, e: np.ndarray) -> None:
    """RhoSpec.ppf of the 1-D draws u, written into e."""
    q = np.minimum(u, 1.0 - u)  # 1 - u is exact for u >= 1/2
    # G(e) <= pi^2 e^3 / 12, so this is a lower bound; it is <= 0.85 as q <= 1/2
    np.cbrt(q * (12.0 / math.pi**2), out=e)
    lo, hi = e.copy(), np.ones_like(e)
    g, d = np.empty_like(e), np.empty_like(e)
    for _ in range(_NEWTON_STEPS):
        # G(e) = (y - sin y) / (2 pi) with y = pi e, so the rounding of y
        # moves e by half an ulp rather than G by half an ulp of e/2
        np.multiply(e, math.pi, out=g)
        np.sin(g, out=d)
        np.subtract(g, d, out=g)
        g /= 2.0 * math.pi
        small = e < _SERIES_E
        es = e[small]
        z = (math.pi * es) ** 2
        s = np.full_like(z, _SERIES[-1])
        for c in _SERIES[-2::-1]:
            s = s * z + c
        g[small] = (math.pi**2 / 12.0) * es**3 * s
        # the closed bracket; where G(e) = q it closes on e, which stays
        np.copyto(lo, e, where=g <= q)
        np.copyto(hi, e, where=g >= q)
        np.multiply(e, math.pi / 2.0, out=d)
        np.sin(d, out=d)
        np.square(d, out=d)  # G'(e) = sin^2(pi e / 2)
        g -= q
        with np.errstate(invalid="ignore"):  # 0/0 at e = q = 0
            np.divide(g, d, out=g)
        e -= g
        np.fmax(e, lo, out=e)  # a NaN step lands on lo
        np.fmin(e, hi, out=e)
    np.subtract(1.0, e, out=e)
    np.copysign(e, u - 0.5, out=e)


@dataclass(frozen=True)
class NoiseSpec:
    """Static description of the forcing law: active modes, amplitudes, decay."""

    modes: tuple = (0, 1)
    amplitudes: tuple = (0.15, 0.15)
    haar_c: float = 0.5
    haar_q: float = 2.0
    level_max: int = 6

    def __post_init__(self):
        if len(self.modes) == 0:
            raise ValidationError("at least one active mode is required")
        for k in self.modes:
            check_integer("noise mode", k)
        if len(set(self.modes)) != len(self.modes):
            raise ValidationError("duplicate noise modes")
        if len(self.amplitudes) != len(self.modes):
            raise ValidationError("one amplitude per mode")
        for name in ("amplitudes", "haar_c", "haar_q"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError("%s must be finite, got %r" % (name, getattr(self, name)))
        if not all(b >= 0 for b in self.amplitudes):
            raise ValidationError("amplitudes must be >= 0")
        if not self.haar_q > 1.0:
            raise ValidationError("level decay exponent must satisfy q > 1")
        if not self.haar_c >= 0:
            raise ValidationError("haar_c must be >= 0")
        check_integer("level_max", self.level_max)
        if not (1 <= self.level_max <= 16):
            raise ValidationError("level_max must sit in 1..16")
        object.__setattr__(self, "modes", tuple(int(k) for k in self.modes))
        object.__setattr__(self, "amplitudes", tuple(float(b) for b in self.amplitudes))

    @property
    def n_cells(self) -> int:
        return 2 ** (self.level_max + 1)

    @property
    def level_weights(self) -> np.ndarray:
        j = np.arange(1, self.level_max + 1, dtype=float)
        return self.haar_c * j**-self.haar_q

    @property
    def n_xi_pairs(self) -> int:
        return 2 ** (self.level_max + 1) - 1

    def sup_bound(self, mode_index: int) -> float:
        """max_t |b_k eta_k(t)| <= b_k sqrt(2) (1 + sum_j c_j)."""
        return self.amplitudes[mode_index] * math.sqrt(2.0) * (1.0 + float(self.level_weights.sum()))


@dataclass(frozen=True)
class NoisePath:
    """One sampled unit-interval realization: per-mode values on dyadic cells.

    cells[m, c] holds eta_k(t) (without the amplitude b_k) for the m-th active
    mode on cell [c 2^-(J+1), (c+1) 2^-(J+1)).
    """

    spec: NoiseSpec
    cells: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.cells, dtype=np.complex128)
        if c.shape != (len(self.spec.modes), self.spec.n_cells):
            raise ValidationError(
                "cells shape %r does not match spec (%d modes, %d cells)"
                % (c.shape, len(self.spec.modes), self.spec.n_cells)
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "cells", c)

    def sup_norm(self, mode_index: int) -> float:
        return float(np.abs(self.cells[mode_index]).max()) * self.spec.amplitudes[mode_index]

    def shifted(self, delta_cells: np.ndarray) -> "NoisePath":
        delta = np.asarray(delta_cells, dtype=np.complex128)
        if delta.shape != self.cells.shape:
            raise ValidationError("shift shape mismatch")
        return NoisePath(self.spec, self.cells - delta)


# the one sampling density of the Haar coefficients
_RHO = RhoSpec()


def _mode_uniforms(spec: NoiseSpec, seed_record, mode_index: int) -> np.ndarray:
    entropy = tuple(int(v) for v in seed_record) + (int(mode_index),)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return rng.random((spec.n_xi_pairs, 2))


def sample_noise_path(spec: NoiseSpec, seed_record) -> NoisePath:
    """Draw one path.  seed_record is a tuple of nonnegative ints; the stream
    for mode index m is derived from seed_record + (m,), so identical records
    always reproduce identical paths regardless of how many are drawn."""
    return sample_noise_paths(spec, [seed_record])[0]


def sample_noise_paths(spec: NoiseSpec, seed_records) -> list:
    """Batch variant of sample_noise_path: the uniforms of every record go
    through one RhoSpec.ppf call (fixed-count elementwise Newton steps), so a
    path is bitwise the same as the record drawn alone."""
    records = [tuple(int(v) for v in r) for r in seed_records]
    n_modes = len(spec.modes)
    if not records:
        return []
    stack = np.empty((len(records), n_modes, spec.n_xi_pairs, 2), dtype=float)
    for i, rec in enumerate(records):
        for m in range(n_modes):
            stack[i, m] = _mode_uniforms(spec, rec, m)
    # z[..., p] is key p of haar_time_keys.  Gathers and elementwise sums only
    # (no matrix product over records), so a path is the same in any block.
    z = _RHO.ppf(stack).view(np.complex128)[..., 0]
    del stack
    idx, sign = haar_cells(spec.level_max, spec.n_cells)
    # the synthesis accumulates into one buffer, level by level
    vals = np.take(z, idx[0], axis=-1)
    level = np.empty_like(vals)
    for j, w in enumerate(spec.level_weights, start=1):
        first = 2**j - 1
        # the indices lie in range by construction, and "clip" lets take
        # write into level unbuffered
        np.take(w * z[..., first : first + 2**j], idx[j], axis=-1, out=level, mode="clip")
        level *= sign[j]
        vals += level
    return [NoisePath(spec, row) for row in vals]
