"""The documented API: README's library quick start runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(block, "README.md (library quick start)", "exec"), names)
    # the plane wave keeps its amplitude sqrt(2pi) over the unit run
    t_end, amp = map(float, capsys.readouterr().out.split())
    assert t_end == 1.0 and abs(amp - np.sqrt(2 * np.pi)) < 1e-9
    states = names["states"]
    assert len(states) == 11 and all(np.all(np.isfinite(s.coeffs)) for s in states)
