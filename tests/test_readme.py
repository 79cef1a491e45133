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
    of kinds, row for row, with solve* and [noise] spelled out and each
    flag's keys in the last column; and its list of initial data parameters
    is INITIAL_PARAMS."""
    from schrodmix.config import _KINDS, INITIAL_PARAMS, When, parse_config_text

    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    stars = {"solve*": ("k_max", "dt", "p", "damping", "initial"),
             "[noise]": tuple(parse_config_text("")["noise"])}

    def names(cell):
        found = re.findall(r"`([\w*\[\]]+)`", cell)
        return [k for name in found for k in stars.get(name, (name,))]

    rows = {}
    for line in section.splitlines():
        match = re.fullmatch(r"\| `(\w+)` \| (.*?) \|(.*)\|", line)
        if match:
            kind, keys, flags = match.groups()
            groups = {}
            for part in filter(None, flags.strip().split("; ")):
                side, flag, rest = re.fullmatch(r"(with|without) `(\w+)`: (.*)", part).groups()
                groups[side, flag] = names(rest)
            rows[kind] = (names(keys), groups)
    want = {}
    for kind, spec in _KINDS.items():
        groups = {}
        for w in (e for e in spec.reads if isinstance(e, When)):
            for side, keys in (("with", w.then), ("without", w.otherwise)):
                if keys:
                    groups[side, w.flag] = list(keys)
        want[kind] = ([e for e in spec.reads if not isinstance(e, When)], groups)
    assert rows == want
    listed = re.search(r"- `initial`, by `config.INITIAL_PARAMS`: (.*?);", section, re.S).group(1)
    listed = re.sub(r"\s+", " ", listed)
    assert listed == ", ".join(
        "`%s` %s" % (kind, " and ".join("`%s`" % p for p in params) if params else "none")
        for kind, params in INITIAL_PARAMS.items()
    )
