"""Self-tests of the benchmark, run from the repository root:

    python3 -m pytest -q benchmark/selftest.py

Tiny sizes of each workload go through the same set-up, operation, checks
and tracing as a real run; each output check is shown to reject a corrupted
output; the compare command is checked on made-up runs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare as C
import run as R
import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SM = R.load_package(ROOT)


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_tiny_run(workload, tmp_path):
    record, result = R.measure(SM, ROOT, workload, 3, 0.0, False, size="tiny",
                               work_root=str(tmp_path))
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3  # warm-up, one timed operation, its probe
    assert all(v > 0 for v in _values(result).values())


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_tiny_traced_run_isolates_layers(workload, tmp_path):
    # the traced operations must reproduce the untraced digests, or they fail
    record, result = R.measure(SM, ROOT, workload, 3, 0.0, True, size="tiny",
                               work_root=str(tmp_path))
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0
    v = _values(result)
    assert v["dynamics.fft_per_step"] > 0 and v["dynamics.fft_per_step"] == int(v["dynamics.fft_per_step"])
    assert v["config.load_s"] > 0 and v["store.digest_s"] > 0
    if workload == "trajectory_io":
        assert v["noise.calls"] == 0 and v["linearized.calls"] == 0
        assert v["mixing.evolve_calls"] == 0 and v["control.shift_calls"] == 0
        assert v["store.bytes_read"] > 0 and v["spectral.fft_calls"] > 0
    if workload == "ensemble_mix":
        assert v["linearized.calls"] == 0 and v["control.shift_calls"] == 0
        assert v["noise.paths"] == v["dynamics.chain_steps"] > 0
        assert v["mixing.evolve_samples"] == v["mixing.evolve_calls"] == 2
    if workload == "controlled_coupling":
        assert v["linearized.calls"] > 0 and v["control.shift_calls"] == 1
        assert v["dynamics.batch_calls"] == v["dynamics.solve_calls"] == 1


def _outputs(workload, tmp_path):
    prep = W.prepare(SM, workload, 5, str(tmp_path), "tiny")
    out = str(tmp_path / "out")
    W.run_operation(SM, prep, out)
    return prep, out


def test_flipped_byte_in_trajectory_bin_is_rejected(tmp_path):
    prep, out = _outputs("trajectory_io", tmp_path)
    path = os.path.join(out, "trajectory.bin")
    with open(path, "r+b") as fh:
        fh.seek(-9, os.SEEK_END)  # lowest mantissa byte of the last value
        byte = fh.read(1)
        fh.seek(-9, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0x01]))
    with pytest.raises(W.CheckFailed, match="bitwise"):
        W.check_content(SM, prep, out)
    with pytest.raises(W.CheckFailed, match="manifest"):
        W.check_manifest(out, prep.workload.outputs)


def test_nan_in_mix_curve_is_rejected(tmp_path):
    prep, out = _outputs("ensemble_mix", tmp_path)
    path = os.path.join(out, "mix_curve.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    step, _, alt = lines[-1].split(",")
    lines[-1] = ",".join((step, "nan", alt))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(W.CheckFailed, match="outside"):
        W.check_content(SM, prep, out)


def test_missing_manifest_entry_is_rejected(tmp_path):
    prep, out = _outputs("controlled_coupling", tmp_path)
    path = os.path.join(out, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["outputs"] = manifest["outputs"][1:]
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(W.CheckFailed, match="manifest lists"):
        W.check_manifest(out, prep.workload.outputs)


def test_changed_digest_between_operations_counts_as_failed(tmp_path):
    prep = W.prepare(SM, "trajectory_io", 5, str(tmp_path), "tiny")
    loop = R.Loop(SM, prep, str(tmp_path / "out"))
    loop.once()
    loop.reference = {name: "0" * 64 for name in loop.reference}
    loop.once()
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "digests differ" in loop.errors[0]


def test_without_src_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(os.path.join(ROOT, "benchmark"), str(tmp_path / "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "trajectory_io", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _write_runs(path, workload, walls, seeds=None):
    with open(path, "w") as fh:
        for seed, wall in zip(seeds or range(len(walls)), walls):
            fh.write(json.dumps({"record": {"workload": workload, "seed": seed, "trace": 0}}) + "\n")
            fh.write(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
                "wall_s": {"value": wall, "unit": "s"}}}) + "\n")


SPEC = {"workloads": [{"name": "w"}], "per_layer": [],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}


@pytest.mark.parametrize("change,expected", [
    ([0.80 + 0.001 * i for i in range(10)], "improved"),
    ([1.20 + 0.001 * i for i in range(10)], "regressed"),
    ([1.0005 + 0.001 * i for i in range(10)], "unchanged"),
])
def test_compare_verdicts(tmp_path, change, expected):
    parent = [1.0 + 0.001 * i for i in range(10)]
    _write_runs(tmp_path / "p", "w", parent)
    _write_runs(tmp_path / "c", "w", change)
    (row,), unpaired = C.compare(C.read_runs(str(tmp_path / "p")), C.read_runs(str(tmp_path / "c")), SPEC)
    assert row["verdict"] == expected
    assert row["pairs"] == 10 and unpaired == []


def test_compare_pairs_runs_by_seed(tmp_path):
    # the same values in another file order: every pair is a tie, not a win
    _write_runs(tmp_path / "p", "w", [1.0, 2.0, 3.0, 4.0], seeds=[1, 2, 3, 4])
    _write_runs(tmp_path / "c", "w", [5.0, 3.0, 2.0, 1.0], seeds=[5, 3, 2, 1])
    (row,), unpaired = C.compare(C.read_runs(str(tmp_path / "p")), C.read_runs(str(tmp_path / "c")), SPEC)
    assert row["pairs"] == 3 and row["win"] == 0.0
    assert sorted(unpaired) == [("w", "change", 5), ("w", "parent", 4)]


def test_compare_reports_wide_spread_as_unresolved():
    parent = [1.0, 1.3, 0.8, 1.25, 0.9, 1.2, 0.85, 1.1]
    change = [0.95, 1.28, 0.82, 1.2, 0.92, 1.15, 0.9, 1.05]
    assert C.verdict(parent, change, list(zip(parent, change)), "lower", 0.1, False)[0] == "unresolved"
