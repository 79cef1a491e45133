"""tools/step_ab.py: the A/B timing of the unit Markov step from two
checkouts, at a tiny size."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_step_ab_writes_its_record(tmp_path):
    # one pair of fresh processes on the same checkout at k_max 8: every
    # case is timed on both sides, and the record names the machine
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_ab.py"), str(ROOT), str(ROOT),
         "--label", "tiny", "--pairs", "1", "--repeat", "1", "--k-max", "8", "--rows", "1,3",
         "--out", str(tmp_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    record = json.loads((tmp_path / "BENCH_step_tiny.json").read_text())
    assert record["rows"] == [1, 3] and record["pairs"] == 1 and record["k_max"] == 8
    assert set(record["cases"]) == {"markov_step", "markov_step_batch/1", "markov_step_batch/3"}
    for case in record["cases"].values():
        for side in ("old", "new"):
            s = case[side]
            assert len(s["per_process_s"]) == 1 and s["best_s"] > 0
            assert s["q1_s"] <= s["median_s"] <= s["q3_s"]
        assert len(case["ratios_old_over_new"]) == 1 and case["new_wins"] in (0, 1)
    assert record["old"]["src_sha256"] == record["new"]["src_sha256"]
    machine = record["machine"]
    assert machine["numpy"] and isinstance(machine["cpu_dispatch"], list)
    assert str(ROOT) not in json.dumps(record)


def test_step_ab_refuses_a_checkout_without_the_package(tmp_path):
    # a checkout whose src holds no schrodmix must not be timed as the
    # copy on the path
    (tmp_path / "src").mkdir()
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_ab.py"), str(tmp_path), str(tmp_path),
         "--child", "--k-max", "8", "--rows", "1", "--repeat", "1"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 2, out.stderr
