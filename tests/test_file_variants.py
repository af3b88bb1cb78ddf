"""Every text input loads the same with a UTF-8 byte-order mark or CRLF line ends,
and every TSV input the same with blank or whitespace-only lines."""

import json
import shutil
from pathlib import Path

import pytest

from mteval.cli import main
from mteval.config import load_run_config
from mteval.corpus import load_dataset
from mteval.embeddings import load_contextual, load_static
from mteval.pipeline import load_external_scores
from mteval.tokenization import load_wordpiece_vocab

from oracles import table_rows

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

CONTEXTUAL = (
    "segment_id\tside\ttoken_index\ttoken\tvector\n"
    "s1\tsource\t0\tcat\t1.0 2.0\n"
    "s1\thypothesis\t0\tcat\t3.0 4.0\n"
)
DATASET_JSON = json.dumps(
    [
        {
            "id": "a1",
            "src_lang": "de",
            "tgt_lang": "en",
            "source": "der hund",
            "reference": "the dog",
            "hypothesis": "a dog",
            "judgements": [70, 80],
        }
    ]
)


def load_demo_vectors(path):
    words = {line.split(" ", 1)[0] for line in (DEMO_DATA / "vectors.txt").read_text(encoding="utf-8").splitlines()[1:]}
    return load_static(path, words)


def store_fields(store):
    return {token: vector.tolist() for token, vector in store.items()}


def record_fields(table):
    return [(*fields, tuple(vector)) for *fields, vector in table_rows(table)]


def config_fields(config):
    # paths resolve against the config's own directory; compare what they name
    fields = {key: value.name if isinstance(value, Path) else value for key, value in vars(config).items()}
    fields["resources"] = {key: path.name for key, path in config.resources.items()}
    return fields


# (file name, demo file or literal text, loader, comparable view of the result)
LOADERS = {
    "static": ("vectors.txt", DEMO_DATA / "vectors.txt", load_demo_vectors, store_fields),
    "contextual": ("ctx.tsv", CONTEXTUAL, load_contextual, record_fields),
    "dataset-tsv": ("deen.tsv", DEMO_DATA / "deen.tsv", load_dataset, lambda dataset: dataset),
    "dataset-json": ("deen.json", DATASET_JSON, load_dataset, lambda dataset: dataset),
    "external": ("deen_external.tsv", DEMO_DATA / "deen_external.tsv", load_external_scores, lambda scores: scores),
    "wordpiece": ("wordpiece.txt", DEMO_DATA / "wordpiece.txt", load_wordpiece_vocab, lambda vocab: vocab),
    "run-config": ("run_deen.json", DEMO_DATA / "run_deen.json", load_run_config, config_fields),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loader_accepts_a_byte_order_mark(tmp_path, kind):
    name, source, loader, view = LOADERS[kind]
    text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
    loaded = {}
    for variant, prefix in (("plain", ""), ("bom", "\ufeff")):
        # same file name in sibling directories: dataset names come from the stem
        folder = tmp_path / variant
        folder.mkdir()
        path = folder / name
        path.write_bytes((prefix + text).encode("utf-8"))
        loaded[variant] = view(loader(path))
    assert loaded["bom"] == loaded["plain"]


@pytest.mark.parametrize("kind", ["contextual", "dataset-tsv", "external"])
def test_tsv_loaders_skip_blank_and_whitespace_only_lines(tmp_path, kind):
    name, source, loader, view = LOADERS[kind]
    text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
    header, *rows = text.splitlines()
    loaded = {}
    for variant, lines in (("plain", [header] + rows), ("blank", [header] + [f"{row}\n\n \t \n\t" for row in rows] + [""])):
        folder = tmp_path / variant
        folder.mkdir()
        path = folder / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")  # the blank variant ends in an empty line
        loaded[variant] = view(loader(path))
    assert loaded["blank"] == loaded["plain"]


def test_crlf_inputs_give_identical_outputs(tmp_path):
    outputs = {}
    for variant in ("lf", "crlf"):
        folder = tmp_path / variant
        shutil.copytree(DEMO_DATA, folder)
        if variant == "crlf":
            for path in folder.iterdir():
                path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["evaluate", "--config", str(folder / "run_deen.json")]) == 0
        out = folder / "out" / "deen"
        outputs[variant] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert outputs["crlf"] == outputs["lf"]
    assert outputs["lf"]
