"""The benchmark's tracer names mteval functions; refactors must keep them."""

import importlib
import importlib.util
from pathlib import Path

import mteval.cli
import mteval.pipeline

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_exists_in_its_module():
    missing = [
        f"mteval.{module}.{function}"
        for module, functions in load_traced().items()
        for function in functions
        if not callable(getattr(importlib.import_module(f"mteval.{module}"), function, None))
    ]
    assert missing == []


def test_cli_binds_build_resources():
    # perfbench/child.py wraps this binding to time the set-up
    assert mteval.cli.build_resources is mteval.pipeline.build_resources
