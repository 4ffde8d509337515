"""The README's Library examples run against the current API."""

import json
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_examples_run(tmp_path, monkeypatch):
    blocks = library_blocks()
    assert len(blocks) >= 2
    # the example that runs a manifest loads manifest.json
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema": "paracurv-manifest/1",
        "manifold": {"kind": "builtin", "name": "heisenberg", "n": 1},
        "sampling": {"seed": 7, "count": 20},
        "checks": ["axioms", "classification", "space_form"],
    }))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
