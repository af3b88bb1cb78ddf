"""Each benchmark workload, run once on its default-seed corpus, reproduces its recorded digest."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["ablate-lexical", "evaluate-contextual", "score-static"]


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py, loaded without writing bytecode next to it; it imports its siblings by name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    return module


def test_every_full_workload_is_checked(bench):
    assert sorted(bench.WORKLOADS["full"]) == WORKLOADS


def require_openblas() -> None:
    """Skip, naming numpy's BLAS, unless it is an OpenBLAS build: only OpenBLAS reads OPENBLAS_CORETYPE."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError, ValueError) as error:  # numpy < 1.26 has no mode="dicts"
        pytest.skip(f"cannot read numpy's BLAS build ({type(error).__name__}: {error}), so a forced kernel proves nothing")
    if "openblas" not in name.lower():
        pytest.skip(f"numpy's BLAS is {name}, not OpenBLAS: OPENBLAS_CORETYPE has no effect there")


# the default kernel, then one that rounds some products differently (Prescott has no FMA or AVX)
KERNELS = [(None, ""), ("Prescott", "-Prescott")]


@pytest.mark.parametrize(
    "workload, kernel",
    [pytest.param(workload, kernel, id=workload + suffix) for kernel, suffix in KERNELS for workload in WORKLOADS],
)
def test_workload_matches_its_recorded_digest(tmp_path, bench, workload, kernel):
    # run as the benchmark runs it: perfbench/child.py in a fresh process, one BLAS thread
    env = bench.child_env()
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        require_openblas()
        env["OPENBLAS_CORETYPE"] = kernel
    spec = bench.WORKLOADS["full"][workload]
    info = bench.synth.generate(spec, bench.DEFAULT_SEED, tmp_path / "input")
    config, out, stdout = tmp_path / "input" / "run.json", tmp_path / "out", tmp_path / "stdout"
    argv = [sys.executable, str(PERFBENCH / "child.py"), str(tmp_path / "stamp"), "-", "--"]
    argv += [spec.command, "--config", str(config), "--threads", "1", "--out", str(out)]
    with open(stdout, "wb") as handle:
        run = subprocess.run(argv, env=env, stdout=handle, stderr=subprocess.PIPE, timeout=120)
    assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
    assert bench.checks.check(spec.command, json.loads(config.read_text(encoding="utf-8")), info, out) == []
    digests = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    assert bench.checks.digest(out, stdout) == digests[workload]
