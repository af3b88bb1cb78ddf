"""Every function the library defines is one something runs.

Under a profiler, in this process, the test runs every subcommand on the
demo configs, `score` on a JSON copy of the de-en dataset (its judgements
as lists), `score` on de-en at similarity threshold 0 and top_k 1 (so rows
cut at 3 x top_k run out and `SimilarityCandidates.full_row` ranks them
again), `evaluate` on the benchmark's smoke contextual corpus, and the
five demo scripts.  Each function or method defined at module or class
level in src/mteval must then have been called, unless it is a dunder, a
decorator (it runs at import) or a name the benchmark's tracer wraps.
Code that nothing runs leaves the library, for the tests to keep as an
oracle if they need it.
"""

import ast
import contextlib
import csv
import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
import runpy
import sys
from pathlib import Path

import pytest

import mteval
from mteval.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mteval"
DEMOS = ROOT / "demos"
PERFBENCH = ROOT / "perfbench"

def defined_functions() -> dict[str, object]:
    """The code object of each function and method defined at module or class level in src/mteval, by name."""
    found = {}

    def visit(module, namespace, prefix):
        for attr, value in vars(namespace).items():
            qualname = prefix + attr
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            accessors = [value.fget, value.fset, value.fdel] if isinstance(value, property) else [value]
            for value in accessors:
                if getattr(value, "__module__", None) != module or getattr(value, "__qualname__", None) != qualname:
                    continue  # imported, nested, or not a function
                if isinstance(value, type):
                    visit(module, value, qualname + ".")
                elif inspect.isfunction(value):
                    found[module.removeprefix("mteval.") + "." + qualname] = inspect.unwrap(value).__code__

    for info in pkgutil.iter_modules(mteval.__path__):
        module = importlib.import_module(f"mteval.{info.name}")
        visit(module.__name__, module, "")
    return found


def decorator_names() -> set[str]:
    """Every name src/mteval applies as a decorator."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for decorator in getattr(node, "decorator_list", []):
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None))
    return names


def traced_names() -> set[str]:
    """The `module.function` names in perfbench/tracer.py's TRACED, read from its syntax tree."""
    for node in ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["TRACED"]:
            return {f"{module}.{name}" for module, names in ast.literal_eval(node.value).items() for name in names}
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def exempt(name: str, decorators: set[str], traced: set[str]) -> bool:
    last = name.rpartition(".")[2]
    return (last.startswith("__") and last.endswith("__")) or last in decorators or name in traced


def deen_copy(tmp_path: Path, name: str, **overrides) -> Path:
    """run_deen.json written to ``tmp_path / name`` with ``overrides`` set, every input it names read from demos/data."""
    config = json.loads((DEMOS / "data" / "run_deen.json").read_text(encoding="utf-8"))
    config["dataset"] = str(DEMOS / "data" / config["dataset"])
    config["resources"] = {key: str(DEMOS / "data" / value) for key, value in config["resources"].items()}
    path = tmp_path / name
    path.write_text(json.dumps(config | overrides), encoding="utf-8")
    return path


def json_copy_config(tmp_path: Path) -> Path:
    """run_deen.json over a JSON copy of deen.tsv, every other input read from demos/data."""
    with open(DEMOS / "data" / "deen.tsv", encoding="utf-8", newline="") as handle:
        records = list(csv.DictReader(handle, delimiter="\t", quoting=csv.QUOTE_NONE))
    for record in records:  # a list of number strings, which the JSON loader reads as the TSV column
        record["judgements"] = record["judgements"].split(",")
    (tmp_path / "deen.json").write_text(json.dumps(records), encoding="utf-8")
    return deen_copy(tmp_path, "run_deen_json.json", dataset=str(tmp_path / "deen.json"))


def smoke_contextual_config(tmp_path: Path) -> Path:
    """The benchmark's smoke evaluate-contextual corpus, generated by perfbench/run.py loaded without bytecode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        bench = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, bench)  # its dataclasses look their module up there
        spec.loader.exec_module(bench)
        bench.synth.generate(bench.WORKLOADS["smoke"]["evaluate-contextual"], bench.DEFAULT_SEED, tmp_path / "input")
    return tmp_path / "input" / "run.json"


def test_every_library_function_is_reached(tmp_path):
    deen, sven = str(DEMOS / "data" / "run_deen.json"), str(DEMOS / "data" / "run_sven.json")
    runs = [[command, "--config", config] for config in (deen, sven) for command in ("score", "evaluate", "ablate")]
    runs.append(["crosslingual", "--fit-config", deen, "--eval-config", sven])
    runs.append(["score", "--config", str(json_copy_config(tmp_path))])
    runs.append(["score", "--config", str(deen_copy(tmp_path, "run_deen_top1.json", similarity={"threshold": 0, "top_k": 1}))])
    runs.append(["evaluate", "--config", str(smoke_contextual_config(tmp_path))])
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for k, argv in enumerate(runs):
                assert main([*argv, "--out", str(tmp_path / f"out{k}")]) == 0, argv
            for script in sorted(DEMOS.glob("*.py")):
                runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.setprofile(previous)

    functions, decorators, traced = defined_functions(), decorator_names(), traced_names()
    unreached = sorted(name for name, code in functions.items() if code not in called and not exempt(name, decorators, traced))
    assert unreached == [], "defined in src/mteval but reached by no CLI run or demo: " + ", ".join(unreached)
