"""Persistence: CSV/binary trajectory files, noise path tables, JSON reports,
and the run manifest that makes results reproducible byte for byte.

All text output uses '.' decimals, '\n' line endings, and %.17g floats, so a
rerun from the same manifest produces identical bytes.  JSON is written with
sorted keys for the same reason.  Every file goes through one atomic write:
its bytes reach <name>.tmp a chunk at a time (a table a block of rows at a
time, a binary container as its header and two array buffers), so no table
or container is ever held whole in memory, and only a complete .tmp
replaces <name> (os.replace).  A write that fails, mid-stream or at the replace, removes the
.tmp and leaves the old file as it was.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import struct
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from typing import get_type_hints

import numpy as np

from . import __version__
from .noise import NoisePath, NoiseSpec
from .spectral import Grid, ValidationError

_MAGIC = b"SMIX"
_BIN_VERSION = 1
# magic, version, flags, n_coeff, n_stored, k_max, reserved (written as 0,
# never read: older files hold a point count there and read back the same)
_HEADER = struct.Struct("<4sBBHIHH")
_DIGEST_BLOCK = 1 << 16  # bytes per read of file_digest


def file_digest(path) -> str:
    h = hashlib.sha256()
    buf = bytearray(_DIGEST_BLOCK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


# ---------------------------------------------------------------------------
# writing and numeric tables


def _write_atomic(path, data) -> None:
    """Write data to a temporary file beside path, which then replaces path:
    a reader never sees a torn file, and a failed write leaves the old file
    and no temporary behind.  data is a str, bytes, or an iterable of
    bytes-like chunks (C-contiguous arrays included), each written to the
    temporary file as it comes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    chunks = (data,) if isinstance(data, (bytes, bytearray)) else data
    tmp = "%s.tmp" % path
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


_TABLE_CHUNK = 4096  # rows per % operation and per chunk written
_TRAJECTORY_HEADER = "t,mode,re,im"
_NOISE_HEADER = "cell_index,t_left,mode_k,re,im"


def _write_table(path, header: str, fmt: str, *columns) -> None:
    """header, then one fmt line (one % conversion per column, comma
    separated) per row of the equal-length 1-D columns."""
    _write_atomic(path, _table_chunks(header, fmt, columns))


def _table_chunks(header: str, fmt: str, columns):
    """The bytes of _write_table, _TABLE_CHUNK rows at a time.  Each chunk
    stacks its column slices as float64, so a %d column is checked to hold
    integers below 2**53 in magnitude, which float64 carries exactly."""
    yield header.encode("ascii") + b"\n"
    names = header.split(",")
    int_cols = [j for j, conv in enumerate(fmt.rstrip("\n").split(",")) if conv == "%d"]
    n_rows = len(columns[0])
    for lo in range(0, n_rows, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, n_rows)
        chunk = np.column_stack([col[lo:hi] for col in columns]).astype(float, copy=False)
        for j in int_cols:
            v = chunk[:, j]
            bad = (v != np.trunc(v)) | ~(np.abs(v) < 2.0**53)
            if bad.any():
                raise ValidationError(
                    "column %r holds %s, not an integer below 2**53 in magnitude"
                    % (names[j], columns[j][lo + int(np.argmax(bad))])
                )
        yield (fmt * (hi - lo) % tuple(chunk.ravel().tolist())).encode("ascii")


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
    """One row per (time, mode): t, mode, re, im, for the modes -K..K of a
    width 2K+1."""
    times = np.asarray(times, dtype=float)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    if times.ndim != 1 or coeffs.ndim != 2 or coeffs.shape[0] != len(times):
        raise ValidationError("coeffs must be (n_stored, n_coeff) matching times")
    if coeffs.shape[1] % 2 != 1:  # read_trajectory_csv wants the band -K..K
        raise ValidationError("coeffs width %d is not 2K+1 for a symmetric band" % coeffs.shape[1])
    if len(times) == 0:  # a header alone would not say the band
        raise ValidationError("a trajectory CSV needs at least one state")
    _write_atomic(path, _trajectory_chunks(times, coeffs))


def _trajectory_chunks(times: np.ndarray, coeffs: np.ndarray):
    """The bytes of write_trajectory_csv, whole states of about _TABLE_CHUNK
    rows at a time.  Each time is formatted once and each mode once: a
    state's rows are t joined with the mode tails ",k,%.17g,%.17g\n", and
    the % operation fills in the state's (re, im) pairs."""
    yield (_TRAJECTORY_HEADER + "\n").encode("ascii")
    n_coeff = coeffs.shape[1]
    k_max = (n_coeff - 1) // 2
    tails = [""] + [",%d,%%.17g,%%.17g\n" % (i - k_max) for i in range(n_coeff)]
    t_text = ["%.17g" % t for t in times.tolist()]
    per = max(1, _TABLE_CHUNK // max(n_coeff, 1))
    for lo in range(0, len(t_text), per):
        template = "".join(t.join(tails) for t in t_text[lo : lo + per])
        values = coeffs[lo : lo + per].view(np.float64).ravel().tolist()
        yield (template % tuple(values)).encode("ascii")


def read_trajectory_csv(path):
    """Returns (times, coeffs): every block of rows lists each mode of one
    symmetric band once, at one time.  Beyond the parsed table, only coeffs
    and small masks are allocated: each row's integer index takes the cells
    its parsed mode held, and its (re, im) pair is read as one complex."""
    data = _read_table(path, _TRAJECTORY_HEADER, "trajectory", [1])
    if len(data) == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    mode = data[:, 1]
    k_max = int(mode.max())
    n_band = 2 * k_max + 1
    col = mode.view(np.intp)
    col[...] = mode + k_max
    # every mode of -k_max..k_max occurs; a band wider than the table cannot
    if col.min() != 0 or n_band > len(data) or not np.bincount(col).all():
        raise ValidationError("trajectory CSV does not cover a symmetric band")
    if len(data) % n_band != 0:
        raise ValidationError("row count is not a multiple of the band size")
    shape = (len(data) // n_band, n_band)
    col = col.reshape(shape)
    col += n_band * np.arange(shape[0])[:, None]  # the flat index into coeffs
    hit = np.zeros(len(data), dtype=bool)
    hit[col] = True
    if not hit.all():
        raise ValidationError("a mode repeats inside one time block")
    t = data[:, 0].reshape(shape)
    if np.any(t != t[:, :1]):
        raise ValidationError("mixed times inside one block")
    coeffs = np.empty(shape, dtype=np.complex128)
    coeffs.reshape(-1)[col] = data[:, 2:4].view(np.complex128).reshape(shape)
    return t[:, 0].copy(), coeffs


def write_trajectory_bin(path, times: np.ndarray, coeffs: np.ndarray, grid: Grid) -> None:
    """Compact little-endian container: 16-byte header, times, coefficients."""
    times = np.ascontiguousarray(times, dtype="<f8")
    coeffs = np.ascontiguousarray(coeffs, dtype="<c16")
    if coeffs.ndim != 2 or coeffs.shape[0] != len(times):
        raise ValidationError("coeffs must be (n_stored, n_coeff) matching times")
    if coeffs.shape[1] != grid.n_coeff:
        raise ValidationError("coefficient width does not match the grid band")
    header = _HEADER.pack(_MAGIC, _BIN_VERSION, 0, coeffs.shape[1], coeffs.shape[0], grid.k_max, 0)
    _write_atomic(path, (header, times, coeffs))


def read_trajectory_bin(path):
    """Returns (times, coeffs, grid)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValidationError("truncated trajectory container")
        magic, version, flags, n_coeff, n_stored, k_max, _ = _HEADER.unpack(head)
        if magic != _MAGIC or version != _BIN_VERSION or flags != 0:
            raise ValidationError("not a trajectory container (bad magic/version)")
        if n_coeff != 2 * k_max + 1:
            raise ValidationError("header band size inconsistent")
        if os.fstat(fh.fileno()).st_size != _HEADER.size + 8 * n_stored + 16 * n_stored * n_coeff:
            raise ValidationError("container length does not match its header")
        times = np.empty(n_stored, dtype="<f8")
        coeffs = np.empty((n_stored, n_coeff), dtype="<c16")
        if fh.readinto(times) != times.nbytes or fh.readinto(coeffs) != coeffs.nbytes:
            raise ValidationError("container length does not match its header")
    return times, coeffs, Grid(k_max)


def write_curve_csv(path, header, rows) -> None:
    """Experiment curve: a header line, then one line per row; a column whose
    first value is an integer is written %d, and every later value in it
    must be an integer below 2**53 in magnitude (ValidationError otherwise),
    any other column at full precision."""
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
    return NoisePath(spec, cells)


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
    """Inverse of report_dict; a field missing from d takes its default, and
    a missing field without one is a ValidationError naming it."""
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValidationError("%s lacks field(s) %s" % (cls.__name__, ", ".join(missing)))
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
    version: str = __version__
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
