"""tools/kind_digests.py: the byte-identity check of a change that must not
move any output runs every experiment kind, and the value report and move
comparison of a change that does."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schrodmix.config import KINDS

ROOT = Path(__file__).resolve().parents[1]


def _tool(*args, **kw):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kind_digests.py"), *args],
        capture_output=True, text=True, check=True, timeout=300, **kw,
    ).stdout


@pytest.fixture(scope="module")
def digests():
    return json.loads(_tool(str(ROOT)))


@pytest.fixture(scope="module")
def values_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("values") / "values.json"
    path.write_text(_tool("--values", str(ROOT)))
    return path


def test_kind_digests_covers_every_kind(digests):
    for p in (3, 5):
        for kind in KINDS:
            assert "p%d/%s" % (p, kind) in digests
    assert {"p3/simulate_forced", "p3/couple_control", "p3/couple_b", "p3/decay_constant"} <= set(
        digests)
    edges = ("couple_0", "couple_1", "couple_control_0", "couple_control_1", "stabilize_delta_0",
             "simulate_stride_3")
    assert {"p%d/%s" % (p, case) for p in (3, 5) for case in edges} <= set(digests)
    for case, files in digests.items():
        assert files and all(len(h) == 64 for h in files.values()), case
        # the manifest enters as the config digest alone: it carries timestamps
        assert "manifest.json:config_digest" in files, case
        assert "manifest.json" not in files, case
    assert "noise_path_001.csv" in digests["p5/simulate_forced"]


def test_values_cover_every_case_and_output(digests, values_file):
    values = json.loads(values_file.read_text())
    assert set(values) == set(digests)
    for case, files in digests.items():
        for name in set(files) - {"manifest.json:config_digest"}:
            assert any(field.startswith(name + ":") for field in values[case]), (case, name)
    sim = values["p3/simulate_stride_3"]
    # a trajectory's end states are its 41 modes as (re, im), and the
    # binary container reads back to the CSV's values
    assert len(sim["trajectory.csv:first"]) == len(sim["trajectory.csv:last"]) == 82
    assert sim["trajectory.csv:t:count"] == 108 * 41
    assert {k.replace(".bin", ".csv"): v for k, v in sim.items() if ".bin" in k} == {
        k: v for k, v in sim.items() if ".csv" in k and k.startswith("trajectory")}
    assert len(values["p3/gramian"]["gramian.json:eigenvalues"]) == 34


def test_compare_reports_no_move_against_itself(values_file):
    lines = _tool("--compare", str(values_file), str(values_file)).splitlines()
    assert len(lines) > 500
    assert all(float(line.split()[0]) == 0.0 for line in lines)


def test_compare_names_a_field_scaled_by_one_part_in_1e8(values_file, tmp_path):
    values = json.loads(values_file.read_text())
    case, field = "p5/couple_control", "couple.json:shift_norms"
    values[case][field][1] *= 1 + 1e-8
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(values))
    lines = _tool("--compare", str(values_file), str(moved)).splitlines()
    move, *where = lines[0].split()
    assert where == [case, field]
    shift = values[case][field]
    assert float(move) == pytest.approx(shift[1] / (1 + 1e-8) * 1e-8 / max(shift), rel=1e-3)
    assert all(float(line.split()[0]) == 0.0 for line in lines[1:])


GOLDEN = ROOT / "tests" / "golden" / "kind_values.json"
VALUES_TOL = 1e-9


def _moves_over(golden, fresh, tol=VALUES_TOL):
    """The --compare lines of golden against fresh whose move exceeds tol:
    each names its move, case and field."""
    lines = _tool("--compare", str(golden), str(fresh)).splitlines()
    return [line for line in lines if not float(line.split()[0]) <= tol]


def test_values_match_the_golden_file(values_file, tmp_path):
    """Every output value of every case stays within 1e-9 of its field's
    largest |value| in tests/golden/kind_values.json: the values contract,
    which holds across machines where the digests do not.  A change that
    moves values on purpose regenerates the file with

        python3 tools/kind_digests.py --values . > tests/golden/kind_values.json

    and reports the --compare of the old file against the new one."""
    over = _moves_over(GOLDEN, values_file)
    assert not over, "values moved past %g (move, case, field):\n%s" % (VALUES_TOL, "\n".join(over))
    # one field scaled by (1 + 1e-8) must fail, by name
    values = json.loads(values_file.read_text())
    case, field = "p3/stabilize", "stabilize.json:q_ratio"
    values[case][field] *= 1 + 1e-8
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(values))
    (line,) = _moves_over(GOLDEN, moved)
    move, *where = line.split()
    assert where == [case, field] and float(move) == pytest.approx(1e-8, rel=1e-3)


def test_kind_digests_refuses_a_package_outside_the_checkout(tmp_path):
    # tmp_path has no src/schrodmix, so the import falls through to the
    # copy on PYTHONPATH
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kind_digests.py"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 2
    assert "not from %s" % (tmp_path / "src") in run.stderr
    assert run.stdout == ""
