import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: sha256 of each demo script's stdout; every printed number is part of the contract
DEMO_STDOUT_SHA256 = {
    "ablation_walkthrough.py": "13384cec96d4ba4ff046c8b3eaf3f38f1567b1bd28b68aea87c21cdb7e3cb546",
    "cli_pipeline.py": "1bf0eb6f5443ca14d039222d1e33717c92bf4f28080d249316557ecbaba2ab51",
    "decontextualized_metrics.py": "6d1f791f869c95dfa6f545c6dc759d05d6dcef7fa790a4208de8dd77c6b88a92",
    "ensemble_and_evaluation.py": "bd404c5e22a198757070c3b817f5008199bfa3e571f60157186db75c01c5462d",
    "metrics_tour.py": "7efa98711782cd1e5116dee861afce5d7a12bff815841b05c2bd79effbc6aba9",
}


def test_every_demo_script_is_pinned():
    assert sorted(path.name for path in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("script", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, f"demos/{script}"], cwd=ROOT, env=env, capture_output=True, check=False, timeout=120
    )
    assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256[script]
