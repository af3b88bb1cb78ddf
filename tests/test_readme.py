"""The README's code runs against the current API."""

import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_quickstart_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Library:\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the block names demos/data by a path relative to the repository root
    exec(compile(block, "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))
