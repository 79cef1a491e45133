"""Persistence: CSV/binary trajectory files, noise path tables, JSON reports,
and the run manifest that makes results reproducible byte for byte.

All text output uses '.' decimals, '\n' line endings, and %.17g floats, so a
rerun from the same manifest produces identical bytes.  JSON is written with
sorted keys for the same reason.
"""

from __future__ import annotations

import contextlib
import csv
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

FLOAT_FMT = "%.17g"


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
# trajectories


def write_trajectory_csv(path, times: np.ndarray, coeffs: np.ndarray) -> None:
    """One row per (time, mode): t, mode, re, im."""
    times = np.asarray(times, dtype=float)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 2 or coeffs.shape[0] != len(times):
        raise ValidationError("coeffs must be (n_stored, n_coeff) matching times")
    k_max = (coeffs.shape[1] - 1) // 2
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "mode", "re", "im"])
        for i, t in enumerate(times):
            row_t = FLOAT_FMT % t
            for j in range(coeffs.shape[1]):
                c = coeffs[i, j]
                w.writerow([row_t, j - k_max, FLOAT_FMT % c.real, FLOAT_FMT % c.imag])


def read_trajectory_csv(path):
    """Returns (times, coeffs) with the mode axis reassembled from the rows."""
    times = []
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != ["t", "mode", "re", "im"]:
            raise ValidationError("unexpected trajectory CSV header: %r" % (header,))
        for rec in r:
            rows.append((float(rec[0]), int(rec[1]), float(rec[2]), float(rec[3])))
    if not rows:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    modes = sorted({m for _, m, _, _ in rows})
    k_max = max(modes)
    if modes != list(range(-k_max, k_max + 1)):
        raise ValidationError("trajectory CSV does not cover a symmetric band")
    n_coeff = 2 * k_max + 1
    if len(rows) % n_coeff != 0:
        raise ValidationError("row count is not a multiple of the band size")
    n_stored = len(rows) // n_coeff
    coeffs = np.zeros((n_stored, n_coeff), dtype=np.complex128)
    for i in range(n_stored):
        block = rows[i * n_coeff : (i + 1) * n_coeff]
        times.append(block[0][0])
        if len({m for _, m, _, _ in block}) != n_coeff:
            raise ValidationError("a mode repeats inside one time block")
        for t, m, re, im in block:
            if t != block[0][0]:
                raise ValidationError("mixed times inside one block")
            coeffs[i, m + k_max] = complex(re, im)
    return np.asarray(times), coeffs


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
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(times.tobytes())
        fh.write(coeffs.tobytes())


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
    """Experiment curve: a header line, then one line per row, integers as
    %d and floats at full precision."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_curve_cell(v) for v in row) + "\n")


def _curve_cell(v) -> str:
    return "%d" % v if isinstance(v, (int, np.integer)) else FLOAT_FMT % v


# ---------------------------------------------------------------------------
# noise paths


def write_noise_path_csv(path, noise: NoisePath) -> None:
    """Cell table of eta_k (amplitudes b_k are *not* folded in; they live in
    the NoiseSpec, so shifted paths and raw draws share one format)."""
    n_cells = noise.spec.n_cells
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["cell_index", "t_left", "mode_k", "re", "im"])
        for c in range(n_cells):
            t_left = FLOAT_FMT % (c / n_cells)
            for m, k in enumerate(noise.spec.modes):
                v = noise.cells[m, c]
                w.writerow([c, t_left, k, FLOAT_FMT % v.real, FLOAT_FMT % v.imag])


def read_noise_path_csv(path, spec: NoiseSpec) -> NoisePath:
    cells = np.zeros((len(spec.modes), spec.n_cells), dtype=np.complex128)
    seen = np.zeros(cells.shape, dtype=bool)
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != ["cell_index", "t_left", "mode_k", "re", "im"]:
            raise ValidationError("unexpected noise CSV header: %r" % (header,))
        for rec in r:
            c = int(rec[0])
            k = int(rec[2])
            if k not in spec.modes:
                raise ValidationError("mode %d not in the noise spec" % k)
            if not (0 <= c < spec.n_cells):
                raise ValidationError("cell index %d out of range" % c)
            m = spec.modes.index(k)
            if seen[m, c]:
                raise ValidationError("noise CSV repeats cell %d of mode %d" % (c, k))
            seen[m, c] = True
            cells[m, c] = complex(float(rec[3]), float(rec[4]))
    if not seen.all():
        raise ValidationError("noise CSV does not cover every (cell, mode)")
    return NoisePath(spec, cells, None, note="loaded")


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
    """Write a dict or a report dataclass as sorted-key JSON.  The text goes
    to a temporary file beside path, which then replaces path, so a reader
    never sees a torn file."""
    if not isinstance(payload, dict):
        payload = report_dict(payload)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    tmp = "%s.tmp" % path
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


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
