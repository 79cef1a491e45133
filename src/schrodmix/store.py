"""Persistence: CSV/binary trajectory files, noise path tables, JSON reports,
and the run manifest that makes results reproducible byte for byte.

All text output uses '.' decimals, '\n' line endings, and %.17g floats, so a
rerun from the same manifest produces identical bytes.  JSON is written with
sorted keys for the same reason.  Every file goes through one atomic write.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from importlib import metadata
from typing import get_type_hints

import numpy as np

from .noise import NoisePath, NoiseSpec
from .spectral import Grid, ValidationError

_MAGIC = b"SMIX"
_BIN_VERSION = 1
_HEADER = struct.Struct("<4sBBHIHH")  # magic, version, flags, n_coeff, n_stored, k_max, n_points


def package_version() -> str:
    try:
        return metadata.version("schrodmix")
    except metadata.PackageNotFoundError:
        return "0.0.0+local"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# writing and numeric tables


def _write_atomic(path, data) -> None:
    """Write data (str or bytes) to a temporary file beside path, which then
    replaces path: a reader never sees a torn file, and a failed write
    leaves the old file and no temporary behind."""
    tmp = "%s.tmp" % path
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


_TABLE_CHUNK = 4096  # rows per % operation
_TRAJECTORY_HEADER = "t,mode,re,im"
_NOISE_HEADER = "cell_index,t_left,mode_k,re,im"


def _write_table(path, header: str, fmt: str, *columns) -> None:
    """header, then one fmt line (one % conversion per column) per row of
    the equal-length 1-D columns, formatted a chunk of rows at a time.  The
    columns are stacked as float64, so a %d column holds integers < 2**53."""
    table = np.column_stack(columns)
    buf = bytearray(header.encode("ascii") + b"\n")
    for lo in range(0, len(table), _TABLE_CHUNK):
        chunk = table[lo : lo + _TABLE_CHUNK]
        buf += (fmt * len(chunk) % tuple(chunk.ravel().tolist())).encode("ascii")
    _write_atomic(path, buf)


def _read_table(path, header: str, what: str, index_cols) -> np.ndarray:
    """The rows under header as an (n_rows, n_cols) float array, with the
    columns index_cols checked to hold integers."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValidationError("unexpected %s CSV header: %r" % (what, first.split(",")))
        empty = all(line.isspace() for line in fh)
    n_cols = header.count(",") + 1
    if empty:  # np.loadtxt would warn that the input holds no data
        return np.zeros((0, n_cols))
    try:
        data = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValidationError("malformed %s CSV row: %s" % (what, exc)) from None
    if data.shape[1] != n_cols:
        raise ValidationError("%s CSV rows need %d columns, got %d" % (what, n_cols, data.shape[1]))
    idx = data[:, index_cols]
    bad = (idx != np.trunc(idx)) | (np.abs(idx) >= 2.0**31)
    if bad.any():
        raise ValidationError("%s CSV holds a non-integer index %s" % (what, idx[bad][0]))
    return data


# ---------------------------------------------------------------------------
# trajectories


def write_trajectory_csv(path, times: np.ndarray, coeffs: np.ndarray) -> None:
    """One row per (time, mode): t, mode, re, im."""
    times = np.asarray(times, dtype=float)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2 or coeffs.shape[0] != len(times):
        raise ValidationError("coeffs must be (n_stored, n_coeff) matching times")
    n_stored, n_coeff = coeffs.shape
    modes = np.tile(np.arange(n_coeff) - (n_coeff - 1) // 2, n_stored)
    flat = coeffs.ravel()
    t = np.repeat(times, n_coeff)
    _write_table(path, _TRAJECTORY_HEADER, "%.17g,%d,%.17g,%.17g\n", t, modes, flat.real, flat.imag)


def read_trajectory_csv(path):
    """Returns (times, coeffs): every block of rows lists each mode of one
    symmetric band once, at one time."""
    data = _read_table(path, _TRAJECTORY_HEADER, "trajectory", [1])
    if len(data) == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    band = np.unique(data[:, 1])
    k_max = int(band[-1])
    if len(band) != 2 * k_max + 1 or band[0] != -k_max:
        raise ValidationError("trajectory CSV does not cover a symmetric band")
    if len(data) % len(band) != 0:
        raise ValidationError("row count is not a multiple of the band size")
    t, mode, re, im = data.reshape(-1, len(band), 4).transpose(2, 0, 1)
    col = mode.astype(np.intp) + k_max
    if np.any(np.sort(col, axis=1) != np.arange(len(band))):
        raise ValidationError("a mode repeats inside one time block")
    if np.any(t != t[:, :1]):
        raise ValidationError("mixed times inside one block")
    row = np.arange(len(col))[:, None]
    coeffs = np.empty(col.shape, dtype=np.complex128)
    coeffs.real[row, col] = re
    coeffs.imag[row, col] = im
    return t[:, 0].copy(), coeffs


def write_trajectory_bin(path, times: np.ndarray, coeffs: np.ndarray, grid: Grid) -> None:
    """Compact little-endian container: 16-byte header, times, coefficients."""
    times = np.asarray(times, dtype="<f8")
    coeffs = np.asarray(coeffs, dtype="<c16")
    if coeffs.ndim != 2 or coeffs.shape[0] != len(times):
        raise ValidationError("coeffs must be (n_stored, n_coeff) matching times")
    if coeffs.shape[1] != grid.n_coeff:
        raise ValidationError("coefficient width does not match the grid band")
    header = _HEADER.pack(
        _MAGIC, _BIN_VERSION, 0, coeffs.shape[1], coeffs.shape[0], grid.k_max, grid.n_points
    )
    _write_atomic(path, b"".join((header, times.tobytes(), coeffs.tobytes())))


def read_trajectory_bin(path):
    """Returns (times, coeffs, grid)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValidationError("truncated trajectory container")
    magic, version, flags, n_coeff, n_stored, k_max, n_points = _HEADER.unpack_from(raw)
    if magic != _MAGIC or version != _BIN_VERSION or flags != 0:
        raise ValidationError("not a trajectory container (bad magic/version)")
    if n_coeff != 2 * k_max + 1:
        raise ValidationError("header band size inconsistent")
    off = _HEADER.size
    t_bytes = 8 * n_stored
    c_bytes = 16 * n_stored * n_coeff
    if len(raw) != off + t_bytes + c_bytes:
        raise ValidationError("container length does not match its header")
    times = np.frombuffer(raw, dtype="<f8", count=n_stored, offset=off).copy()
    coeffs = (
        np.frombuffer(raw, dtype="<c16", count=n_stored * n_coeff, offset=off + t_bytes)
        .reshape(n_stored, n_coeff)
        .copy()
    )
    return times, coeffs, Grid(n_points=n_points, k_max=k_max)


def write_curve_csv(path, header, rows) -> None:
    """Experiment curve: a header line, then one line per row; a column whose
    first value is an integer is written %d, any other at full precision."""
    columns = list(zip(*rows)) or [()]  # no rows: the header alone
    is_int = [bool(col) and isinstance(col[0], (int, np.integer)) for col in columns]
    fmt = ",".join("%d" if i else "%.17g" for i in is_int)
    _write_table(path, ",".join(header), fmt + "\n", *columns)


# ---------------------------------------------------------------------------
# noise paths


def write_noise_path_csv(path, noise: NoisePath) -> None:
    """Cell table of eta_k (amplitudes b_k are *not* folded in; they live in
    the NoiseSpec, so shifted paths and raw draws share one format)."""
    spec = noise.spec
    cell = np.repeat(np.arange(spec.n_cells), len(spec.modes))
    mode = np.tile(spec.modes, spec.n_cells)
    flat = noise.cells.T.ravel()
    fmt = "%d,%.17g,%d,%.17g,%.17g\n"
    _write_table(path, _NOISE_HEADER, fmt, cell, cell / spec.n_cells, mode, flat.real, flat.imag)


def read_noise_path_csv(path, spec: NoiseSpec) -> NoisePath:
    """The path a noise CSV holds: every (cell, mode) of spec exactly once."""
    data = _read_table(path, _NOISE_HEADER, "noise", [0, 2])
    c, k = data[:, 0].astype(np.intp), data[:, 2].astype(np.intp)
    unknown = ~np.isin(k, spec.modes)
    if unknown.any():
        raise ValidationError("mode %d not in the noise spec" % k[unknown][0])
    outside = (c < 0) | (c >= spec.n_cells)
    if outside.any():
        raise ValidationError("cell index %d out of range" % c[outside][0])
    off = data[:, 1] != c / spec.n_cells
    if off.any():
        i = int(np.argmax(off))
        raise ValidationError(
            "noise CSV row %d: t_left %r is not the left end of cell %d"
            % (i + 1, float(data[i, 1]), c[i])
        )
    m = np.argmax(k[:, None] == np.asarray(spec.modes), axis=1)
    counts = np.bincount(m * spec.n_cells + c, minlength=len(spec.modes) * spec.n_cells)
    if counts.max() > 1:
        m_rep, c_rep = divmod(int(np.argmax(counts > 1)), spec.n_cells)
        raise ValidationError("noise CSV repeats cell %d of mode %d" % (c_rep, spec.modes[m_rep]))
    if counts.min() == 0:
        raise ValidationError("noise CSV does not cover every (cell, mode)")
    cells = np.empty((len(spec.modes), spec.n_cells), dtype=np.complex128)
    cells.real[m, c] = data[:, 3]
    cells.imag[m, c] = data[:, 4]
    return NoisePath(spec, cells, None)


# ---------------------------------------------------------------------------
# reports and manifests


# JSON form of each report field type: the reports are flat dataclasses, and
# a field's annotation alone says how it is written and read back.
_TO_JSON = {
    float: float,
    int: int,
    bool: bool,
    str: str,
    tuple: list,
    list: list,
    np.ndarray: lambda a: [float(v) for v in a],
}
_FROM_JSON = {**_TO_JSON, tuple: tuple, np.ndarray: lambda v: np.asarray(v, dtype=float)}


@functools.cache
def _field_types(cls) -> tuple:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def report_dict(obj) -> dict:
    """JSON-ready dict of a report dataclass: one key per field, floats, ints
    and bools cast, arrays as lists of floats, tuples as lists."""
    return {name: _TO_JSON[tp](getattr(obj, name)) for name, tp in _field_types(type(obj))}


def report_from_dict(cls, d: dict):
    """Inverse of report_dict; a field missing from d takes its default."""
    return cls(**{name: _FROM_JSON[tp](d[name]) for name, tp in _field_types(cls) if name in d})


def write_json_report(path, payload) -> None:
    """Write a dict or a report dataclass as sorted-key JSON."""
    if not isinstance(payload, dict):
        payload = report_dict(payload)
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def utc_stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunManifest:
    """What ran, from which config digest and seed, and what it produced.

    The output digests are the reproducibility contract: rerunning the same
    config and seed on a clean checkout must reproduce every digest (the
    timestamps are informational and excluded from that claim).
    """

    kind: str
    config_digest: str
    master_seed: int
    version: str = field(default_factory=package_version)
    started_at: str = ""
    finished_at: str = ""
    outputs: list = field(default_factory=list)

    def add_output(self, path) -> None:
        self.outputs.append(
            {
                "path": os.path.basename(path),
                "sha256": file_digest(path),
                "bytes": os.path.getsize(path),
            }
        )


def write_manifest(path, manifest: RunManifest) -> None:
    write_json_report(path, manifest)


def read_manifest(path) -> RunManifest:
    return report_from_dict(RunManifest, read_json_report(path))
