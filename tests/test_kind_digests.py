"""tools/kind_digests.py: the byte-identity check of a change that must not
move any output runs every experiment kind."""

import json
import subprocess
import sys
from pathlib import Path

from schrodmix.config import KINDS

ROOT = Path(__file__).resolve().parents[1]


def test_kind_digests_covers_every_kind():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kind_digests.py"), str(ROOT)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    digests = json.loads(run.stdout)
    for p in (3, 5):
        for kind in KINDS:
            assert "p%d/%s" % (p, kind) in digests
    assert {"p3/simulate_forced", "p3/couple_control", "p3/stabilize_tau0_0.5"} <= set(digests)
    edges = ("couple_0", "couple_1", "couple_control_0", "couple_control_1", "stabilize_delta_0")
    assert {"p%d/%s" % (p, case) for p in (3, 5) for case in edges} <= set(digests)
    for case, files in digests.items():
        assert files and all(len(h) == 64 for h in files.values()), case
    assert "noise_path_001.csv" in digests["p5/simulate_forced"]
