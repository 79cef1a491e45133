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

A table is read back in the order its writer writes it, and any other
order is refused.  A trajectory CSV is read a chunk of whole states at a
time into its coefficient block, which is allocated once from a line count
of the file, so no table of the whole file is held beside the block; a
noise CSV is compared with the (cell, t_left, mode) columns its writer
emits for the spec.  A refusal names the faulty row by its number in the
whole table.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
import struct
import warnings
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
_DIGEST_BLOCK = 1 << 16  # bytes per read of file_digest and _count_lines


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


def _table_chunks(header: str, fmt: str, columns):
    """The bytes of a table, _TABLE_CHUNK rows at a time: header, then one
    fmt line (one % conversion per column, comma separated) per row of the
    equal-length 1-D columns.  Each chunk stacks its column slices as
    float64, so a %d column is checked to hold integers below 2**53 in
    magnitude, which float64 carries exactly."""
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


def _check_header(fh, header: str, what: str) -> None:
    """Reads the first line of the open table fh, which must be header."""
    first = fh.readline().rstrip("\n")
    if first != header:
        raise ValidationError("unexpected %s CSV header: %r" % (what, first.split(",")))


def _load_rows(fh, what: str, n_cols: int, max_rows, done: int) -> np.ndarray:
    """The next max_rows rows of the open table fh (all of them when None)
    as an (n, n_cols) float array.  Blank lines are skipped and not
    counted.  numpy counts the row it refuses from where this read starts,
    so done, the rows read before it, is added: a refusal names the row's
    number in the whole table."""
    try:
        with warnings.catch_warnings():
            # a blank line, or no row left at all: neither is a fault
            warnings.filterwarnings("ignore", r"(Input line \d+|loadtxt: input) contained no data")
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=max_rows)
    except ValueError as exc:
        # numpy takes the width from the read's first row: a wrong one there is refused below
        width = re.search(r"changed from (\d+) to", str(exc))
        if not width or int(width[1]) == n_cols:
            msg = re.sub(r"at row (\d+)", lambda m: "at row %d" % (int(m[1]) + done), str(exc),
                         count=1)
            raise ValidationError("malformed %s CSV row: %s" % (what, msg)) from None
        data = np.zeros((1, int(width[1])))
    if len(data) == 0:
        return np.zeros((0, n_cols))
    if data.shape[1] != n_cols:
        raise ValidationError("%s CSV row %d has %d columns, where the writer puts %d"
                              % (what, done + 1, data.shape[1], n_cols))
    return data


def _count_lines(path) -> int:
    """The '\n'-ended lines of the file at path, plus a last line without
    one: an upper bound on the rows of a table with '\n' or '\r\n' line
    ends.  The file is read, and its newlines counted, in binary blocks."""
    n, last = 0, b"\n"
    with open(path, "rb", buffering=0) as fh:
        while block := fh.read(_DIGEST_BLOCK):
            n, last = n + block.count(b"\n"), block[-1:]
    return n + (last != b"\n")


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
    """Returns (times, coeffs) from a table in write_trajectory_csv's order:
    each state's rows list the modes -K..K in turn, at one time.

    K is minus the first row's mode.  The rows are parsed a chunk of whole
    states at a time into the (n_states, 2K+1) coefficient block, which is
    allocated once from a line count of the file.  Each chunk is checked
    against the band's mode column and one time per state, then its
    (re, im) pairs are copied into the block as they lie.  A refusal names
    the faulty row by its number in the whole table.
    """
    with open(path, encoding="utf-8") as fh:
        _check_header(fh, _TRAJECTORY_HEADER, "trajectory")
        load = functools.partial(_load_rows, fh, "trajectory", 4)
        data = load(1, 0)
        if len(data) == 0:
            return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
        if not 0 <= -data[0, 1] < 2**31:  # a fractional mode is refused with the rest
            raise ValidationError(
                "trajectory CSV row 1: mode %r does not start a band -K..K" % float(data[0, 1]))
        k_max = int(-data[0, 1])
        n_band = 2 * k_max + 1
        per = max(1, _TABLE_CHUNK // n_band) * n_band  # rows per chunk
        data = np.concatenate([data, load(per - 1, 1)])
        times = np.empty((_count_lines(path) - 1) // n_band)  # less the header's line
        coeffs = np.empty((len(times), n_band), dtype=np.complex128)
        done = 0  # rows read
        while len(data):
            _check_states(data, k_max, done)
            lo, stop = done // n_band, (done + len(data)) // n_band
            if stop > len(times):  # lines ended by a lone '\r' escape the count
                times, coeffs = np.resize(times, 2 * stop), np.resize(coeffs, (2 * stop, n_band))
            times[lo:stop] = data[::n_band, 0]
            coeffs[lo:stop] = data[:, 2:4].view(np.complex128).reshape(-1, n_band)
            done += len(data)
            data = load(per, done) if len(data) == per else data[:0]
    if stop < len(times):  # blank lines were counted
        return times[:stop].copy(), coeffs[:stop].copy()
    return times, coeffs


def _check_states(data: np.ndarray, k_max: int, done: int) -> None:
    """Checks rows, which start a state done rows into the table, for the
    writer's order: the modes -k_max..k_max in turn at their state's first
    time, in whole states.  The first row that fails is named."""
    n_band = 2 * k_max + 1
    n = len(data)
    modes = np.arange(n) % n_band - k_max
    block_t = np.repeat(data[::n_band, 0], n_band)[:n]
    bad = (data[:, 1] != modes) | (data[:, 0] != block_t)
    if bad.any():
        i = int(np.argmax(bad))
        if data[i, 1] != modes[i]:
            raise ValidationError(
                "trajectory CSV row %d: mode %r, where the writer of the band -%d..%d puts %d"
                % (done + i + 1, float(data[i, 1]), k_max, k_max, modes[i]))
        raise ValidationError(
            "mixed times inside one block: trajectory CSV row %d has t %r, its block %r"
            % (done + i + 1, float(data[i, 0]), float(block_t[i])))
    if n % n_band:
        raise ValidationError("trajectory CSV row count %d is not a multiple of the band size %d"
                              % (done + n, n_band))


def write_trajectory_bin(path, times: np.ndarray, coeffs: np.ndarray, grid: Grid) -> None:
    """Compact little-endian container: 16-byte header, times, coefficients."""
    times = np.ascontiguousarray(times, dtype="<f8")
    coeffs = np.ascontiguousarray(coeffs, dtype="<c16")
    if coeffs.ndim != 2 or coeffs.shape[0] != len(times):
        raise ValidationError("coeffs must be (n_stored, n_coeff) matching times")
    if coeffs.shape[1] != grid.n_coeff:
        raise ValidationError("coefficient width does not match the grid band")
    if coeffs.shape[1] > 0xFFFF or len(times) > 0xFFFFFFFF:  # the header's u16 and u32
        raise ValidationError(
            "a trajectory container holds at most 65535 modes and 2**32 - 1 states")
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
    _write_atomic(path, _table_chunks(",".join(header), fmt + "\n", columns))


# ---------------------------------------------------------------------------
# noise paths


def _noise_columns(spec: NoiseSpec):
    """The (cell, t_left, mode) columns of spec's noise table: each cell in
    turn, its modes in spec's order."""
    cell = np.repeat(np.arange(spec.n_cells), len(spec.modes))
    return cell, cell / spec.n_cells, np.tile(spec.modes, spec.n_cells)


def write_noise_path_csv(path, noise: NoisePath) -> None:
    """Cell table of eta_k (amplitudes b_k are *not* folded in; they live in
    the NoiseSpec, so shifted paths and raw draws share one format)."""
    flat = noise.cells.T.ravel()
    fmt = "%d,%.17g,%d,%.17g,%.17g\n"
    columns = (*_noise_columns(noise.spec), flat.real, flat.imag)
    _write_atomic(path, _table_chunks(_NOISE_HEADER, fmt, columns))


def read_noise_path_csv(path, spec: NoiseSpec) -> NoisePath:
    """The path a noise CSV holds, in write_noise_path_csv's order for spec:
    its (cell, t_left, mode) columns must be those the writer emits."""
    with open(path, encoding="utf-8") as fh:
        _check_header(fh, _NOISE_HEADER, "noise")
        data = _load_rows(fh, "noise", 5, None, 0)
    want = np.column_stack(_noise_columns(spec))
    bad = data[: len(want), :3] != want[: len(data)]  # the rows both hold
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), 3)
        raise ValidationError(
            "noise CSV row %d: %s %r, where the writer of this spec puts %r"
            % (i + 1, _NOISE_HEADER.split(",")[j], float(data[i, j]), float(want[i, j])))
    if len(data) != len(want):
        raise ValidationError("noise CSV has %d rows, where the spec has %d (cell, mode)"
                              % (len(data), len(want)))
    pairs = data[:, 3:5].view(np.complex128).reshape(spec.n_cells, len(spec.modes))
    return NoisePath(spec, pairs.T.copy())


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
