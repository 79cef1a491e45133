"""Grids, Fourier fields, Sobolev weights and norms, and damping profiles
for 2pi-periodic complex fields.

Fields are stored as coefficients in the orthonormal basis
e_k(x) = exp(ikx)/sqrt(2pi), k = -k_max..k_max.  Coefficient arrays are
ordered by increasing k, so index i holds mode k = i - k_max.  A Grid is
the band alone: physical samples live on whatever uniform grid
x_j = 2pi j / n a caller asks for, such as the solver's padded one.  The
transforms synth and analyze accept arbitrary leading batch axes; the mode
axis is always last.
Nothing here depends on the power p: the energy lives in dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ROOT_2PI = math.sqrt(2.0 * math.pi)
TWO_PI = 2.0 * math.pi


class ValidationError(ValueError):
    """Raised when a constructor or operation receives inconsistent input."""


def check_integer(name: str, value) -> None:
    """The one check that a count such as k_max or the power p is an
    integer: a float, even a whole one, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError("%s must be an integer, got %r" % (name, value))


@dataclass(frozen=True)
class Grid:
    """The symmetric spectral band |k| <= k_max of 2pi-periodic fields."""

    k_max: int = 42

    def __post_init__(self):
        check_integer("k_max", self.k_max)
        if self.k_max < 1:
            raise ValidationError("k_max must be >= 1, got %r" % (self.k_max,))

    @property
    def n_coeff(self) -> int:
        return 2 * self.k_max + 1

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)


def synth(coeffs: np.ndarray, n_out: int) -> np.ndarray:
    """Evaluate coefficient arrays (..., 2K+1) on n_out physical points."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    k_max = (coeffs.shape[-1] - 1) // 2
    if n_out < 2 * k_max + 1:
        raise ValidationError("n_out=%d too small for k_max=%d" % (n_out, k_max))
    work = np.zeros(coeffs.shape[:-1] + (n_out,), dtype=np.complex128)
    work[..., : k_max + 1] = coeffs[..., k_max:]
    work[..., n_out - k_max :] = coeffs[..., :k_max]
    out = np.fft.ifft(work)
    out *= n_out / ROOT_2PI
    return out


def analyze(values: np.ndarray, k_max: int) -> np.ndarray:
    """Project physical samples (..., n) onto modes |k| <= k_max."""
    values = np.asarray(values, dtype=np.complex128)
    n = values.shape[-1]
    if n < 2 * k_max + 1:
        raise ValidationError("%d samples cannot carry k_max=%d" % (n, k_max))
    spec = np.fft.fft(values) * (ROOT_2PI / n)
    return np.concatenate([spec[..., n - k_max :], spec[..., : k_max + 1]], axis=-1)


class FourierField:
    """Immutable band-limited field: a Grid plus one coefficient per mode."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.n_coeff,):
            raise ValidationError(
                "coefficient shape %r does not match grid (expected (%d,))"
                % (coeffs.shape, grid.n_coeff)
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FourierField is immutable")

    def coeff(self, k: int) -> complex:
        if abs(k) > self.grid.k_max:
            raise ValidationError("mode %d outside band |k|<=%d" % (k, self.grid.k_max))
        return complex(self.coeffs[k + self.grid.k_max])

    def _check_same_grid(self, other: "FourierField"):
        if self.grid != other.grid:
            raise ValidationError("fields live on different grids")

    def __add__(self, other):
        self._check_same_grid(other)
        return FourierField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same_grid(other)
        return FourierField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return FourierField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return FourierField(self.grid, -self.coeffs)

    def __repr__(self):
        return "FourierField(k_max=%d, |coeffs|_max=%.3g)" % (
            self.grid.k_max,
            float(np.abs(self.coeffs).max()),
        )


def zero_field(grid: Grid) -> FourierField:
    return FourierField(grid, np.zeros(grid.n_coeff, dtype=np.complex128))


def basis_field(grid: Grid, k: int, amplitude: complex = 1.0) -> FourierField:
    """amplitude * e_k, with e_k the *normalized* exponential."""
    c = np.zeros(grid.n_coeff, dtype=np.complex128)
    if abs(k) > grid.k_max:
        raise ValidationError("mode %d outside band" % k)
    c[k + grid.k_max] = amplitude
    return FourierField(grid, c)


def plane_wave(grid: Grid, k: int, amplitude: complex = 1.0) -> FourierField:
    """Field whose physical values are amplitude * exp(ikx)."""
    return basis_field(grid, k, amplitude * ROOT_2PI)


@lru_cache(maxsize=None)
def mode_weights(k_max: int, s: float) -> np.ndarray:
    """The one Sobolev weight table (1+k^2)^s, k = -k_max..k_max: cached
    per (k_max, s) and read-only, so no caller can alter the shared copy."""
    k = np.arange(-k_max, k_max + 1)
    w = (1.0 + k.astype(float) ** 2) ** s
    w.flags.writeable = False
    return w


def hs_norm_sq(coeffs: np.ndarray, s: float) -> np.ndarray:
    """Squared H^s norm along the last axis, each row reduced on its own.
    The weighted |c|^2 is formed in one real block, in place, in the
    operations of w * (c.real**2 + c.imag**2), so the bits are the same."""
    c = np.asarray(coeffs)
    w = mode_weights((c.shape[-1] - 1) // 2, s)
    a2 = c.real**2
    a2 += c.imag**2
    a2 *= w
    return np.add.reduce(a2, axis=-1)


def sobolev_norm(f: FourierField, s: float) -> float:
    return float(np.sqrt(hs_norm_sq(f.coeffs, s)))


# damping kind -> the names of its closed-form parameters, in order; a
# config file sets each one as the [solver] key damping_<name>
DAMPING_PARAMS = {"zero": (), "constant": ("value",), "bump": ("amplitude", "center", "width")}


@dataclass(frozen=True)
class DampingProfile:
    """Smooth nonnegative damping coefficient a(x), held as its closed form.

    A profile is one of the closed forms the constructors below build, so it
    is C-infinity by construction and can be evaluated on any grid, such as
    the solver's padded one; raw samples are not accepted.  A direct
    construction is checked as the constructors check; profiles compare and
    hash by (grid, kind, params).
    """

    grid: Grid
    kind: str = "zero"
    params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in DAMPING_PARAMS:
            raise ValidationError(
                "unknown damping kind %r, not one of %s" % (self.kind, tuple(DAMPING_PARAMS))
            )
        params = tuple(float(v) for v in self.params)
        names = DAMPING_PARAMS[self.kind]
        if len(params) != len(names):
            raise ValidationError(
                "%s damping takes %d parameters, got %d" % (self.kind, len(names), len(params))
            )
        if not all(math.isfinite(v) for v in params):
            raise ValidationError(
                "%s damping parameters must be finite, got %r" % (self.kind, params)
            )
        if self.kind == "constant" and params[0] < 0:
            raise ValidationError("damping constant must be >= 0")
        if self.kind == "bump":
            amplitude, _, width = params
            if amplitude < 0:
                raise ValidationError("bump amplitude must be >= 0")
            if not (0 < width < math.pi):
                raise ValidationError("bump width must sit in (0, pi)")
        object.__setattr__(self, "params", params)

    def at(self, x: np.ndarray) -> np.ndarray:
        """The closed-form a(x) at any points x, such as a finer grid's."""
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return np.full_like(x, self.params[0])
        amplitude, center, width = self.params
        s = (np.mod(x - center + math.pi, TWO_PI) - math.pi) / width
        vals = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        vals[inside] = amplitude * np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return vals


def zero_damping(grid: Grid) -> DampingProfile:
    return DampingProfile(grid, "zero")


def constant_damping(grid: Grid, value: float) -> DampingProfile:
    return DampingProfile(grid, "constant", (value,))


def bump_damping(grid: Grid, amplitude: float, center: float, width: float) -> DampingProfile:
    """C-infinity bump A*exp(-1/(1-s^2)), s = wrapped(x-center)/width, |s| < 1.

    The width must sit in (0, pi); SolverConfig also holds it to at least
    the spacing of the padded grid that the solver samples a(x) on.
    """
    return DampingProfile(grid, "bump", (amplitude, center, width))
