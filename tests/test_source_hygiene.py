"""Source hygiene of src/mteval, checked on the syntax tree (no linter needed).

Every imported name is used in its module, and every name a module's
``__all__`` lists is defined there, so each public name keeps one import
path: its defining module.  Only the command line opens a file for
writing: the library reads inputs and returns values, and the CLI writes
every output table.

Importing mteval generates no code: no module imports `dataclasses` or a
namedtuple factory, or calls `exec` or `eval`.  Each ``@dataclass``
writes the source of its methods and runs `exec` on it at import; the 22
records that were dataclasses cost 13-20 ms of every run's start-up on a
2-vCPU machine, and a short run is mostly start-up; as plain classes the
same records cost well under 1 ms.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mteval").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (``from __future__`` aside) that the module never loads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def exported_but_not_defined(tree: ast.Module) -> list[str]:
    """Names in ``__all__`` that no top-level def, class or assignment of the module binds."""
    exported, defined = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {target.id for target in targets if isinstance(target, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


def writing_opens(tree: ast.Module) -> list[str]:
    """Calls of the builtin ``open`` whose mode writes (w, a, x or +) or is not a string literal."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [keyword.value for keyword in node.keywords if keyword.arg == "mode"]
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                    lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def generated_code(tree: ast.Module) -> list[str]:
    """Imports of `dataclasses` or of a namedtuple factory, and calls of `exec` or `eval`, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names if alias.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.module == "dataclasses" or {"namedtuple", "NamedTuple"} & set(names):
                found.append((node.lineno, f"from {node.module} import {', '.join(names)}"))
        elif isinstance(node, ast.Attribute) and node.attr in ("namedtuple", "NamedTuple"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval"):
            found.append((node.lineno, f"{node.func.id}()"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_importing_generates_no_code(path):
    assert generated_code(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_code_generation_check_sees_every_form():
    tree = ast.parse(
        "import dataclasses\n"
        "import collections, typing\n"
        "from dataclasses import dataclass, field\n"
        "from collections import namedtuple\n"
        "from typing import NamedTuple, Sequence\n"
        "Point = collections.namedtuple('Point', 'x y')\n"
        "class Pair(typing.NamedTuple):\n"
        "    a: int\n"
        "exec(source)\n"
        "value = eval(text)\n"
        "model.eval()\n"
        "from typing import Iterable\n"
    )
    assert generated_code(tree) == [
        "line 1: import dataclasses",
        "line 3: from dataclasses import dataclass, field",
        "line 4: from collections import namedtuple",
        "line 5: from typing import NamedTuple, Sequence",
        "line 6: namedtuple",
        "line 7: NamedTuple",
        "line 9: exec()",
        "line 10: eval()",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_all_lists_only_names_defined_in_the_module(path):
    assert exported_but_not_defined(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_checks_see_a_stale_import_and_a_re_export():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from mteval.errors import ConfigError, DataError\n"
        "from mteval.flow import FlowSolution\n"
        "__all__ = ['FlowSolution', 'check']\n"
        "def check(x: np.ndarray) -> None:\n"
        "    raise DataError(os.path.sep)\n"
    )
    assert unused_imports(tree) == ["line 4: ConfigError", "line 5: FlowSolution"]
    assert exported_but_not_defined(tree) == ["FlowSolution"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_cli_opens_files_for_writing(path):
    assert path.name == "cli.py" or writing_opens(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_write_check_sees_every_writing_mode():
    tree = ast.parse(
        "open(p)\n"
        "open(p, 'rb', encoding=None)\n"
        "open(p, mode='r')\n"
        "os.fdopen(handle, 'wb')\n"
        "open(p, 'w', encoding='utf-8')\n"
        "with open(p, mode='a') as handle:\n"
        "    pass\n"
        "open(p, 'xb')\n"
        "open(p, 'r+')\n"
        "open(p, chosen_mode)\n"
    )
    assert writing_opens(tree) == ["line 5", "line 6", "line 8", "line 9", "line 10"]
