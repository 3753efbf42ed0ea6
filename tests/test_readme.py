"""The README's library example runs against the current API, and its
experiment table names the CLI's experiments and their output columns."""

import json
import pathlib
import re

from geopump import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    p_n, p_closed = (float(v) for v in capsys.readouterr().out.split())
    assert abs(p_n - 0.4788) < 1e-4  # the values its comments state
    assert p_closed == 0.5


def test_readme_experiment_table_matches_the_committed_outputs():
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| `([^`]*)`.*\|$",
                      README.read_text(encoding="utf-8"), re.MULTILINE)
    assert tuple(name for name, _ in rows) == cli.EXPERIMENTS
    for name, columns in rows:
        stem = name.replace("-", "_")
        columns = columns.split(", ")
        if name == "initial-states":  # one p_n_w<w> column per weight pair
            assert columns == ["cycle", "p_n_w<w>..."]
            config = json.loads((ROOT / "configs" / f"{stem}.json").read_text(encoding="utf-8"))
            columns = ["cycle"] + [f"p_n_w{w_g:g}" for w_g, _ in
                                   config["params"]["initial_weights"]]
        with open(ROOT / "out" / f"{stem}.csv", encoding="utf-8") as fh:
            assert fh.readline() == ",".join(columns) + "\n"
