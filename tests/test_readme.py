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


def test_readme_kind_table_is_the_config_table():
    """The Command line section's table of keys per kind is config's table
    of kinds, row for row, with initial* and initial_b* spelled out."""
    from schrodmix.config import _KINDS

    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    stars = {
        "initial*": ("initial", "initial_amplitude", "initial_mode", "initial_tail"),
        "initial_b*": ("initial_b", "initial_b_amplitude", "initial_b_mode", "initial_b_tail"),
    }
    noise = {"always": "always", "never": "never", "when forced": "forced"}
    rows = {}
    for line in section.splitlines():
        match = re.fullmatch(r"\| `(\w+)` \| (.*) \| ([\w ]+) \|", line)
        if match:
            kind, keys, reads = match.groups()
            names = re.findall(r"`([\w*]+)`", keys)
            rows[kind] = ([k for name in names for k in stars.get(name, (name,))], noise[reads])
    assert rows == {kind: (list(spec.keys), spec.noise) for kind, spec in _KINDS.items()}
