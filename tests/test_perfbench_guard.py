"""The benchmark's tracer names mteval functions; refactors must keep them."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import mteval.cli
import mteval.pipeline
from mteval.embeddings import EmbeddingStore, load_contextual, load_static
from mteval.vsm import build_similarity_matrix, build_vocabulary

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_similarity_build_keeps_what_the_tracer_reads():
    # the tracer binds each call's arguments to read its store and order,
    # and records the result's nnz_off_diagonal()
    vocab = build_vocabulary([["x", "y"]])
    store = EmbeddingStore(dim=2, table={"x": np.array([1.0, 0.0]), "y": np.array([1.0, 0.2])})
    bound = inspect.signature(build_similarity_matrix).bind(vocab, store)
    bound.apply_defaults()
    assert bound.arguments["store"] is store
    assert bound.arguments["order"] == "vocabulary"
    assert build_similarity_matrix(*bound.args, **bound.kwargs).nnz_off_diagonal() == 1


def test_load_static_length_counts_the_vector_rows(tmp_path):
    # the tracer reports len(load_static(...)) as embeddings.load_static.records:
    # one per distinct kept token, so blank lines and a repeated token add nothing
    path = tmp_path / "vectors.txt"
    path.write_text("4 2\ncat 1 0\n\ndog 0 1\n   \ncat 0.5 0.5\nemu 1 1\n\n", encoding="utf-8")
    assert len(load_static(path, {"cat", "dog", "emu"})) == 3


def test_load_contextual_length_counts_the_data_rows(tmp_path):
    # the tracer reports len(load_contextual(...)) as embeddings.load_contextual.records:
    # one per data row of the file, so blank lines add nothing
    path = tmp_path / "ctx.tsv"
    rows = ["s1\tsource\t0\tcat\t1 0", "s1\tsource\t1\tcat\t0 1", "", "s2\thypothesis\t0\tdog\t1 1", "  "]
    path.write_text("segment_id\tside\ttoken_index\ttoken\tvector\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert len(load_contextual(path)) == 3


def test_a_traced_ablate_records_the_model_selection_and_its_fits(tmp_path):
    # the CLI's ensemble steps go by the names the tracer wraps, so a traced
    # run sees them; each lockstep fit is one span, under its selection
    spans_path, env = tmp_path / "spans.json", dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", XDG_CACHE_HOME=str(tmp_path / "cache"))
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(tmp_path / "stamp"), str(spans_path), "--"]
    argv += ["ablate", "--config", str(ROOT / "demos" / "data" / "run_deen.json"), "--out", str(tmp_path / "out")]
    run = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    names = [name for name, *_ in spans]
    assert names.count("ensemble.select_model") == 1
    fits = [span for span in spans if span[0] == "ensemble.fit_mlp"]
    assert len(fits) == 2  # the candidates on the selection split, then the refits of the MLP winners
    assert all(spans[parent][0] == "ensemble.select_model" for _, _, _, parent, _ in fits)
