import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mteval.cli
import mteval.pipeline
from mteval.cli import build_parser, main
from mteval.config import load_run_config
from mteval.errors import ConfigError
from test_perfbench_digests import bench  # noqa: F401  (a fixture: perfbench/run.py, loaded without bytecode)

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
HEADER = "id\tsrc_lang\ttgt_lang\tsource\treference\thypothesis\tjudgements\tpos_source\tpos_reference\tpos_hypothesis"


def write_run(tmp_path, n=15, metrics=("scm", "wmd", "bleu"), seed=11, config_name="config.json"):
    rows = [HEADER]
    for i in range(n):
        ref = "the dog" + " runs" * (1 + i)
        hyp = "the dog" + " runs" * (2 + i)
        judgements = f"{(i * 7) % 5 - 2}.5,{(i * 3) % 4}"
        rows.append(f"s{i}\tde\ten\tquelle {i}\t{ref}\t{hyp}\t{judgements}\t\t\t")
    (tmp_path / "data.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    words = ["the", "dog", "runs"]
    vectors = ["3 2", "the 1.0 0.0", "dog 0.5 0.5", "runs 0.0 1.0"]
    (tmp_path / "static.txt").write_text("\n".join(vectors) + "\n", encoding="utf-8")
    (tmp_path / "vocab.txt").write_text("\n".join(["[UNK]", "quelle"] + words) + "\n", encoding="utf-8")

    config = {
        "dataset": "data.tsv",
        "mode": "reference_based",
        "metrics": list(metrics),
        "resources": {"static_embeddings": "static.txt", "wordpiece_vocab": "vocab.txt"},
        "split": {"ratio": 0.8, "seed": seed},
        "mlp": {"max_epochs": 40},
        "output_dir": "out",
    }
    config_path = tmp_path / config_name
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path


def test_score_writes_tables(tmp_path):
    config = write_run(tmp_path)
    assert main(["score", "--config", str(config)]) == 0
    scores = (tmp_path / "out" / "scores.tsv").read_text(encoding="utf-8").splitlines()
    assert scores[0].split("\t") == [
        "segment_id",
        "scm",
        "wmd",
        "bleu",
        "reg_chars_anchor",
        "reg_chars_hypothesis",
        "reg_pieces_anchor",
        "reg_pieces_hypothesis",
    ]
    assert len(scores) == 16
    assert scores[1].startswith("s0\t")
    # no unscorable segments in this corpus
    flags = (tmp_path / "out" / "flags.tsv").read_text(encoding="utf-8").splitlines()
    assert flags == ["segment_id\tmetric\tflag"]


def test_score_is_thread_invariant_and_rerunnable(tmp_path):
    config = write_run(tmp_path)
    assert main(["score", "--config", str(config)]) == 0
    first = (tmp_path / "out" / "scores.tsv").read_bytes()
    assert main(["score", "--config", str(config), "--threads", "4"]) == 0
    assert (tmp_path / "out" / "scores.tsv").read_bytes() == first


def test_score_honours_out_override(tmp_path):
    config = write_run(tmp_path)
    target = tmp_path / "elsewhere"
    assert main(["score", "--config", str(config), "--out", str(target)]) == 0
    assert (target / "scores.tsv").is_file()
    assert not (tmp_path / "out").exists()


def test_evaluate_reports_ensembles(tmp_path, capsys):
    config = write_run(tmp_path)
    assert main(["evaluate", "--config", str(config)]) == 0
    printed = capsys.readouterr().out
    assert "RegEMT" in printed and "Reg-base" in printed
    correlations = (tmp_path / "out" / "correlations.tsv").read_text(encoding="utf-8").splitlines()
    assert correlations[0] == "metric\tspearman_to_gold"
    names = [line.split("\t")[0] for line in correlations[1:]]
    assert names[-2:] == ["RegEMT", "Reg-base"]
    matrix = (tmp_path / "out" / "correlation_matrix.tsv").read_text(encoding="utf-8").splitlines()
    assert matrix[0].split("\t") == ["metric"] + names
    assert len(matrix) == len(names) + 1
    # reruns are bit-identical
    first = (tmp_path / "out" / "correlations.tsv").read_bytes()
    assert main(["evaluate", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "correlations.tsv").read_bytes() == first


def test_evaluate_without_reg_base_exits_one_and_writes_nothing(tmp_path, capsys):
    config = write_run(tmp_path)
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["reg_base"] = False
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["configuration error: evaluate reports Reg-base and needs reg_base features enabled"]
    assert not (tmp_path / "out").exists()


def test_evaluate_without_reg_base_refuses_before_reading_any_input(tmp_path, capsys, monkeypatch):
    # a missing vectors file would be a data error (exit 2) had any input been read first
    payload = json.loads((DEMO_DATA / "run_deen.json").read_text(encoding="utf-8"))
    payload["dataset"] = str(DEMO_DATA / payload["dataset"])
    payload["resources"] = {key: str(DEMO_DATA / value) for key, value in payload["resources"].items()}
    payload["resources"]["static_embeddings"] = "missing.txt"
    payload["reg_base"] = False
    payload["output_dir"] = str(tmp_path / "out")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    monkeypatch.setattr(mteval.cli, "load_dataset", lambda *args: pytest.fail("evaluate read the dataset"))
    assert main(["evaluate", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["configuration error: evaluate reports Reg-base and needs reg_base features enabled"]
    assert not (tmp_path / "out").exists()


def test_evaluate_reports_zero_for_two_constant_columns(tmp_path):
    ids = [line.split("\t")[0] for line in (DEMO_DATA / "deen_external.tsv").read_text(encoding="utf-8").splitlines()[1:]]
    external = tmp_path / "constant.tsv"
    external.write_text("segment_id\tconst_a\tconst_b\n" + "".join(f"{i}\t1.0\t2.0\n" for i in ids), encoding="utf-8")
    payload = json.loads((DEMO_DATA / "run_deen.json").read_text(encoding="utf-8"))
    payload["dataset"] = str(DEMO_DATA / payload["dataset"])
    payload["resources"] = {key: str(DEMO_DATA / value) for key, value in payload["resources"].items()}
    payload["resources"]["external_scores"] = str(external)
    payload["output_dir"] = str(tmp_path / "out")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--config", str(config)]) == 0
    rows = [line.split("\t") for line in (tmp_path / "out" / "correlation_matrix.tsv").read_text(encoding="utf-8").splitlines()]
    header, by_name = rows[0], {row[0]: row for row in rows[1:]}
    assert by_name["const_a"][header.index("const_b")] == "0.000000"


def write_contextual_run(tmp_path):
    """The demo de-en dataset, source_based, with 8-d occurrence vectors made from each token and its position."""
    rows = ["segment_id\tside\ttoken_index\ttoken\tvector"]
    words = set()
    for line in (DEMO_DATA / "deen.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split("\t")
        for side, text in (("source", fields[3]), ("hypothesis", fields[5])):
            for position, token in enumerate(text.split()):
                words.add(token)
                base = sum(map(ord, token))
                vector = [((base * (j + 3) + 31 * position) % 199 - 99) / 97 for j in range(8)]
                rows.append("\t".join([fields[0], side, str(position), token, " ".join(map(repr, vector))]))
    (tmp_path / "contextual.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    # every word is one piece, so the decontextualized metrics see every record's token
    (tmp_path / "vocab.txt").write_text("\n".join(["[UNK]"] + sorted(words)) + "\n", encoding="utf-8")
    payload = {
        "dataset": str(DEMO_DATA / "deen.tsv"),
        "mode": "source_based",
        "metrics": ["scm_decontextualized", "wmd_decontextualized_tfidf", "wmd_contextual", "wmd_contextual_tfidf"],
        "resources": {"contextual_records": "contextual.tsv", "wordpiece_vocab": "vocab.txt"},
        "split": {"ratio": 0.5, "seed": 17},
        "mlp": {"hidden": 16, "max_epochs": 200, "patience": 15},
        "output_dir": "out",
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    return config


# sha256 of each output file, recorded before the contextual loader moved onto the shared vector parser
CONTEXTUAL_EVALUATE_SHA256 = {
    "correlation_matrix.tsv": "388cd725c76224374488868267e6e545ccf584a27c0e5ae8996bab438c29d052",
    "correlations.tsv": "3d4e74a9a1e4f6fb8eef0a538eda69f109e36e8de578a4c012586782fd19338c",
    "flags.tsv": "1addd40ba7c95bca7f4e08361a37a96760c89b69def5542abf33b0909856221f",
}


def test_contextual_evaluate_outputs_are_pinned(tmp_path):
    config = write_contextual_run(tmp_path)
    assert main(["evaluate", "--config", str(config)]) == 0
    out = tmp_path / "out"
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}
    assert got == CONTEXTUAL_EVALUATE_SHA256


def test_verbose_flag_before_or_after_the_subcommand(tmp_path):
    config = write_run(tmp_path)
    assert main(["score", "-v", "--config", str(config)]) == 0
    parser = build_parser()
    for argv, verbose in (
        (["score", "--config", "c.json"], False),
        (["-v", "score", "--config", "c.json"], True),
        (["score", "-v", "--config", "c.json"], True),
        (["evaluate", "--config", "c.json", "--verbose"], True),
    ):
        assert parser.parse_args(argv).verbose is verbose


def test_logging_does_not_change_outputs(tmp_path, caplog):
    config = write_run(tmp_path, n=30)
    outputs = []
    for argv in (["evaluate"], ["evaluate", "-v"], ["-v", "evaluate"]):
        caplog.clear()
        with caplog.at_level("DEBUG" if "-v" in argv else "WARNING"):
            assert main(argv + ["--config", str(config)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted((tmp_path / "out").iterdir())})
        if "-v" in argv:
            assert any(message.startswith("mlp fit:") for message in caplog.messages)
    assert outputs[0]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_verbose_run_logs_the_transport_batch(tmp_path, caplog):
    config = write_run(tmp_path)
    with caplog.at_level("INFO"):
        assert main(["score", "-v", "--config", str(config)]) == 0
    lines = [message for message in caplog.messages if message.startswith("transport:")]
    # each of the 15 segments leaves one wmd problem after pre-matching ("the" and
    # "dog" to "runs"), solved in two augmentations and a round that finds none
    assert lines == ["transport: 15 problems, largest 2 x 1, 3 lockstep rounds, 30 augmentations"]


def test_verbose_run_logs_the_similarity_fill(tmp_path, caplog):
    config = write_run(tmp_path, metrics=("scm", "scm_tfidf"))
    with caplog.at_level("INFO"):
        assert main(["score", "-v", "--config", str(config)]) == 0
    lines = [message for message in caplog.messages if message.startswith("built ")]
    # "dog" is at 45 degrees to "the" and to "runs" (value 0.5 each); "the" and
    # "runs" are orthogonal, and no row has more than two partners to cut
    assert lines == [
        f"built {order}-order similarity matrix over 19 words terms: 2 off-diagonal entries, 0 rows cut at the stored depth"
        for order in ("idf_descending", "vocabulary")
    ]


def test_ablate_writes_curve(tmp_path):
    config = write_run(tmp_path)
    assert main(["ablate", "--config", str(config)]) == 0
    lines = (tmp_path / "out" / "ablation.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,eliminated,remaining,test_rho"
    # 7 features (3 metrics + 4 reg_base) -> steps 0..6
    assert len(lines) == 8
    assert lines[1].startswith("0,,7,")
    assert lines[-1].split(",")[2] == "1"


def test_ablate_runs_with_a_batch_size_beyond_memory(tmp_path):
    # both sizes mean one batch an epoch; buffers sized by the option would not fit in memory
    curves = []
    for batch_size in (2**62, 10**6):
        payload = json.loads((DEMO_DATA / "run_deen.json").read_text(encoding="utf-8"))
        payload["dataset"] = str(DEMO_DATA / payload["dataset"])
        payload["resources"] = {key: str(DEMO_DATA / value) for key, value in payload["resources"].items()}
        payload["mlp"]["batch_size"] = batch_size
        payload["output_dir"] = str(tmp_path / str(batch_size))
        config = tmp_path / f"run-{batch_size}.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["ablate", "--config", str(config)]) == 0
        curves.append((tmp_path / str(batch_size) / "ablation.csv").read_bytes())
    assert curves[0] == curves[1]


def test_ablate_rejects_fewer_than_two_features(tmp_path, capsys):
    config = write_run(tmp_path, metrics=("bleu",))
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["reg_base"] = False
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["ablate", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: ablate needs at least 2 features")
    assert not (tmp_path / "out" / "ablation.csv").exists()


def test_crosslingual_degenerate_pair(tmp_path, capsys):
    fit = write_run(tmp_path, config_name="fit.json")
    eval_ = write_run(tmp_path, config_name="eval.json", seed=12)
    code = main(["crosslingual", "--fit-config", str(fit), "--eval-config", str(eval_)])
    assert code == 0
    assert "RegEMT-X" in capsys.readouterr().out
    lines = (tmp_path / "out" / "crosslingual.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "fit_dataset\teval_dataset\ttest_rho"
    assert lines[1].startswith("data\tdata\t")


def test_crosslingual_splits_the_eval_dataset_with_its_own_seed(tmp_path, monkeypatch):
    splits = []
    featurize = mteval.cli.dataset_features

    def spy(dataset, config, resources, seed, train_ratio):
        split = featurize(dataset, config, resources, seed, train_ratio)
        splits.append(tuple(split.test.segment_ids))
        return split

    monkeypatch.setattr(mteval.cli, "dataset_features", spy)
    fit = write_run(tmp_path, config_name="fit.json", seed=11)
    for eval_seed in (12, 13):
        eval_ = write_run(tmp_path, config_name="eval.json", seed=eval_seed)
        assert main(["crosslingual", "--fit-config", str(fit), "--eval-config", str(eval_)]) == 0
    fit_a, eval_a, fit_b, eval_b = splits
    assert fit_a == fit_b
    assert eval_a != eval_b


def test_crosslingual_rejects_mismatched_metrics(tmp_path, capsys):
    fit = write_run(tmp_path, config_name="fit.json")
    eval_ = write_run(tmp_path, config_name="eval.json", metrics=("bleu",))
    code = main(["crosslingual", "--fit-config", str(fit), "--eval-config", str(eval_)])
    assert code == 1
    assert "identical metrics" in capsys.readouterr().err


def test_crosslingual_mismatch_names_each_differing_setting(tmp_path, capsys):
    fit = write_run(tmp_path, config_name="fit.json")
    eval_ = write_run(tmp_path, config_name="eval.json")
    payload = json.loads(eval_.read_text(encoding="utf-8"))
    eval_.write_text(json.dumps(payload | {"similarity": {"top_k": 5}}), encoding="utf-8")
    assert main(["crosslingual", "--fit-config", str(fit), "--eval-config", str(eval_)]) == 1
    assert capsys.readouterr().err == (
        "configuration error: fit and eval configs must enable identical metrics in the same mode;"
        " they differ in similarity_top_k (100 vs 5)\n"
    )


@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_static_vector_exits_two(tmp_path, capsys, component):
    config = write_run(tmp_path)
    (tmp_path / "static.txt").write_text(f"3 2\nthe 1.0 0.0\ndog {component} 0.5\nruns 0.0 1.0\n", encoding="utf-8")
    assert main(["score", "--config", str(config)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("data error: ") and err[0].endswith("static.txt:3: non-finite vector component")


@pytest.mark.parametrize("component", ["nan", "oops"])
def test_a_bad_value_of_an_unused_word_does_not_stop_score(tmp_path, component):
    # only the rows of the dataset's words are parsed; the others are checked for their field count
    config = write_run(tmp_path)
    assert main(["score", "--config", str(config)]) == 0
    clean = (tmp_path / "out" / "scores.tsv").read_bytes()
    vectors = f"4 2\nthe 1.0 0.0\ncat {component} 0.5\ndog 0.5 0.5\nruns 0.0 1.0\n"
    (tmp_path / "static.txt").write_text(vectors, encoding="utf-8")
    assert main(["score", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "scores.tsv").read_bytes() == clean


def test_score_writes_no_static_vector_cache_entry(tmp_path, cache_home):
    config = write_run(tmp_path)
    assert main(["score", "--config", str(config)]) == 0
    assert list((cache_home / "mteval").glob("static-*")) == []


def _spoil_dataset_json(tmp_path, payload):
    (tmp_path / "data.json").write_bytes('[\n  {"id": "caf\u00e9"}\n]\n'.encode("latin-1"))
    payload["dataset"] = "data.json"
    return "data.json", 2


def _spoil_contextual(tmp_path, payload):
    lines = ["segment_id\tside\ttoken_index\ttoken\tvector", "s0\treference\t0\tthe\t1.0 0.0", "s0\thypothesis\t0\tcaf\u00e9\t0.0 1.0"]
    (tmp_path / "contextual.tsv").write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    payload["resources"]["contextual_records"] = "contextual.tsv"
    payload["metrics"] = ["wmd_contextual"]
    return "contextual.tsv", 3


def _spoil_external(tmp_path, payload):
    ids = [f"s{i}" for i in range(15)]
    text = "segment_id\tcaf\u00e9\n" + "".join(f"{i}\t1.0\n" for i in ids)
    (tmp_path / "external.tsv").write_bytes(text.encode("latin-1"))
    payload["resources"]["external_scores"] = "external.tsv"
    return "external.tsv", 1


def _spoil_appended(name, line):
    def spoil(tmp_path, payload):
        number = (tmp_path / name).read_bytes().count(b"\n") + 1
        with open(tmp_path / name, "ab") as handle:
            handle.write(line.encode("latin-1"))
        return name, number

    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        _spoil_appended("data.tsv", "s99\tde\ten\tcaf\u00e9\tthe dog\tthe dog\t1.0\t\t\t\n"),
        _spoil_dataset_json,
        _spoil_appended("static.txt", "caf\u00e9 1.0 1.0\n"),
        _spoil_contextual,
        _spoil_appended("vocab.txt", "caf\u00e9\n"),
        _spoil_external,
        _spoil_appended("config.json", '{"caf\u00e9": 1}\n'),
    ],
    ids=["dataset-tsv", "dataset-json", "static", "contextual", "wordpiece", "external", "config"],
)
def test_undecodable_input_exits_two_naming_the_file(tmp_path, capsys, spoil):
    # every loader reads UTF-8; a Latin-1 byte is a data error at its line, not a bug
    config = write_run(tmp_path)
    payload = json.loads(config.read_text(encoding="utf-8"))
    name, line = spoil(tmp_path, payload)
    if name != "config.json":
        config.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert main(["score", "--config", str(config)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("data error: ") and err[0].endswith(f"{name}:{line}: not valid UTF-8 (invalid continuation byte)")


def test_bad_config_exits_one(tmp_path, capsys):
    config = write_run(tmp_path)
    payload = json.loads(config.read_text(encoding="utf-8"))
    del payload["split"]["seed"]
    payload["metrics"] = ["bleu", "sacrebleu"]
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["score", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "seed" in err and "sacrebleu" in err


@pytest.mark.parametrize(
    ("section", "key", "value"),
    [
        ("mlp", "batch_size", 0),
        ("mlp", "hidden", "x"),
        ("mlp", "hidden", 2.5),
        ("mlp", "hidden", True),
        ("mlp", "max_epochs", 0),
        ("mlp", "patience", -1),
        ("mlp", "learning_rate", "fast"),
        ("mlp", "learning_rate", 0),
        ("mlp", "learning_rate", float("inf")),
        ("mlp", "val_fraction", 0),
        ("mlp", "val_fraction", 1.0),
        ("similarity", "top_k", "many"),
        ("similarity", "top_k", 2.7),
        ("similarity", "threshold", [1]),
        ("similarity", "threshold", True),
        ("similarity", "threshold", float("nan")),
        ("similarity", "exponent", float("nan")),
        ("similarity", "exponent", 0),
        (None, "output_dir", 5),
        (None, "output_dir", ""),
        # integers past a float's range, or past sys.maxsize where an integer is expected
        pytest.param("similarity", "threshold", 10**400, id="similarity-threshold-10**400"),
        pytest.param("similarity", "exponent", 10**400, id="similarity-exponent-10**400"),
        pytest.param("similarity", "top_k", 10**400, id="similarity-top_k-10**400"),
        pytest.param("mlp", "learning_rate", 10**400, id="mlp-learning_rate-10**400"),
        pytest.param("mlp", "hidden", 10**400, id="mlp-hidden-10**400"),
    ],
)
def test_bad_config_value_exits_one_naming_the_key(tmp_path, capsys, section, key, value):
    config = write_run(tmp_path)
    payload = json.loads(config.read_text(encoding="utf-8"))
    if section is None:
        payload[key] = value
    else:
        payload.setdefault(section, {})[key] = value
    config.write_text(json.dumps(payload), encoding="utf-8")  # NaN and Infinity as Python's json writes them
    assert main(["evaluate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    name = key if section is None else f"{section}.{key}"
    assert f"'{name}' must be" in err


@pytest.mark.parametrize("static", ["static.txt", None, "missing.txt"], ids=["all-paths", "no-path", "missing-file"])
def test_run_problems_are_reported_together_before_any_file_is_read(tmp_path, capsys, static):
    config = write_run(tmp_path, metrics=("scm", "wmd", "bleu", "compositionality"))
    rows = (tmp_path / "data.tsv").read_text(encoding="utf-8").splitlines()
    rows[1] = rows[1].replace("\tthe dog runs\t", "\t\t", 1)  # s0 loses its reference; no row has PoS tags
    (tmp_path / "data.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    payload = json.loads(config.read_text(encoding="utf-8"))
    if static is None:
        del payload["resources"]["static_embeddings"]
    else:
        payload["resources"]["static_embeddings"] = static
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["score", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: configuration problems:")
    assert err.count("configuration error:") == 1
    assert "segment 's0' lacks pos_reference or pos_hypothesis tags for compositionality" in err
    assert "segment 's0' has no reference but mode is reference_based" in err
    assert ("static_embeddings path required by: scm, wmd" in err) == (static is None)


# sha256 of every output of the demo runs, one directory per command, recorded before
# the metric table replaced parsing metric names
DEMO_SHA256 = {
    "deen/score/scores.tsv": "39e4ade87f999e131ccb71f0cc319771c08980c7c5e3ea5a831bab0ad124b993",
    "deen/score/flags.tsv": "9dc4d0ae64a400d8931f0302830a2f14519c1de70fefb9082f1f1fe95efbdebc",
    "deen/evaluate/flags.tsv": "9dc4d0ae64a400d8931f0302830a2f14519c1de70fefb9082f1f1fe95efbdebc",
    "deen/evaluate/correlations.tsv": "e0467470f102c7cb073ef43263dd18d56be91f401844bb30bfc61b1e416fe779",
    "deen/evaluate/correlation_matrix.tsv": "e7a2c5833673fd63c98a348ff5d9887202fdfcbb76f85cf3b8783c59f6d7ba76",
    "deen/ablate/ablation.csv": "69ea27c5684ef05ca0893338f2366f8d653142733d960b52a76543bea765f5af",
    "sven/score/scores.tsv": "c45eae813a2c676f810077f6e0c9058cd374e61075f69477687be638b1ab683b",
    "sven/score/flags.tsv": "1addd40ba7c95bca7f4e08361a37a96760c89b69def5542abf33b0909856221f",
    "sven/evaluate/flags.tsv": "1addd40ba7c95bca7f4e08361a37a96760c89b69def5542abf33b0909856221f",
    "sven/evaluate/correlations.tsv": "e4889652be34ec5fb7b81036970015d5d75854031ba0c21d83c8f65e1118c126",
    "sven/evaluate/correlation_matrix.tsv": "e26b8bf8f17587bd2b11c0ff316fbab62b09c98ee3ddf92837fa7e75c403eb94",
    "sven/ablate/ablation.csv": "0bd7f3cf8c202cd256791b9a39e1e3277faeb1f1b7e8cf1c686dd40b4985a267",
    "crosslingual/crosslingual.tsv": "92d7495e1b7d2af1dab74f9bfcade603ca4e8aa168608d546e36e21c91508f8e",
}


def test_demo_outputs_are_pinned(tmp_path):
    for pair in ("deen", "sven"):
        for command in ("score", "evaluate", "ablate"):
            config = DEMO_DATA / f"run_{pair}.json"
            assert main([command, "--config", str(config), "--out", str(tmp_path / pair / command)]) == 0
    fit, report = DEMO_DATA / "run_deen.json", DEMO_DATA / "run_sven.json"
    out = tmp_path / "crosslingual"
    assert main(["crosslingual", "--fit-config", str(fit), "--eval-config", str(report), "--out", str(out)]) == 0
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert got == DEMO_SHA256


#: A CLI process whose atexit probe, registered before `main`'s own handler, runs after it
FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("freeze count at exit:", gc.get_freeze_count()))
from mteval.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_a_cli_process_freezes_the_collector_at_exit_and_writes_the_pinned_tables(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(DEMO_DATA.parent.parent / "src")}
    argv = [sys.executable, "-c", FREEZE_PROBE, "score", "--config", str(DEMO_DATA / "run_deen.json"), "--out", str(tmp_path)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    count = int(run.stdout.removeprefix("freeze count at exit:").strip())
    assert count > 0
    for table in ("scores.tsv", "flags.tsv"):
        assert hashlib.sha256((tmp_path / table).read_bytes()).hexdigest() == DEMO_SHA256[f"deen/score/{table}"]


def test_an_in_process_main_call_leaves_the_collector_unfrozen(tmp_path):
    before = gc.get_freeze_count()
    assert main(["score", "--config", str(DEMO_DATA / "run_deen.json"), "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


#: A process that calls `main` once per output directory, with a `gc.freeze` that says when it runs
REPEAT_PROBE = """
import gc, sys
freeze = gc.freeze
gc.freeze = lambda: (print("freeze"), freeze())
from mteval.cli import main
for out in sys.argv[2:]:
    assert main(["score", "--config", sys.argv[1], "--out", out]) == 0
"""


def test_repeated_in_process_main_calls_freeze_the_collector_once_at_exit(tmp_path):
    # atexit._ncallbacks() counts the slots of unregistered handlers too, so count the runs
    env = {**os.environ, "PYTHONPATH": str(DEMO_DATA.parent.parent / "src")}
    outs = [str(tmp_path / str(run)) for run in range(3)]
    argv = [sys.executable, "-c", REPEAT_PROBE, str(DEMO_DATA / "run_deen.json"), *outs]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["freeze"]


@pytest.mark.parametrize(("command", "fits"), [("evaluate", 2), ("ablate", 12)])
def test_diverging_mlp_fits_print_one_warning_line(tmp_path, command, fits):
    # a learning rate of 1e300 overflows every fit: numpy's own RuntimeWarnings, a dozen lines, stay silent
    config = demo_copy(tmp_path, "deen")
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["mlp"]["learning_rate"] = 1e300
    config.write_text(json.dumps(payload), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(DEMO_DATA.parent.parent / "src")}
    argv = [sys.executable, "-m", "mteval.cli", command, "--config", str(config), "--out", str(tmp_path / "out")]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    warning = f"WARNING mteval.ensemble: mlp: {fits} of {fits} fits diverged (validation loss not finite); each keeps its best finite epoch"
    assert (run.returncode, run.stderr.splitlines()) == (0, [warning]), run.stderr


def test_lowercase_scores_a_title_cased_copy_like_the_original(tmp_path):
    config = demo_copy(tmp_path, "deen")
    lines = (tmp_path / "data" / "deen.tsv").read_text(encoding="utf-8").splitlines()
    texts = [lines[0].split("\t").index(side) for side in ("source", "reference", "hypothesis")]
    cased = [lines[0]]
    for line in lines[1:]:
        fields = line.split("\t")
        for i in texts:
            fields[i] = " ".join(token.title() for token in fields[i].split(" "))
        cased.append("\t".join(fields))
    (tmp_path / "data" / "cased.tsv").write_text("\n".join(cased) + "\n", encoding="utf-8")
    payload = json.loads(config.read_text(encoding="utf-8"))

    def score(name, dataset, lowercase):
        """scores.tsv and flags.tsv of the demo run on ``dataset``."""
        payload.update(dataset=dataset, lowercase=lowercase)
        run = tmp_path / "data" / f"run_{name}.json"
        run.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["score", "--config", str(run), "--out", str(tmp_path / name)]) == 0
        return [(tmp_path / name / table).read_bytes() for table in ("scores.tsv", "flags.tsv")]

    original = score("original", "deen.tsv", False)
    assert score("folded", "cased.tsv", True) == original
    assert score("cased", "cased.tsv", False)[0] != original[0]


def test_scores_do_not_depend_on_the_order_of_the_dataset_lines(tmp_path, bench):
    # at top_k 2 and threshold 0 the row budget binds, so the pairs the similarity
    # build keeps follow the order it takes terms in, which must come from the terms alone
    spec = bench.WORKLOADS["smoke"]["ablate-lexical"]
    bench.synth.generate(spec, 1, tmp_path)
    config = tmp_path / "run.json"
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["similarity"] = {"top_k": 2, "threshold": 0}
    header, *lines = (tmp_path / "dataset.tsv").read_text(encoding="utf-8").splitlines()
    random.Random(0).shuffle(lines)
    (tmp_path / "shuffled.tsv").write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")

    def rows(dataset):
        """scores.tsv's rows by segment id."""
        payload["dataset"] = f"{dataset}.tsv"
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["score", "--config", str(config), "--out", str(tmp_path / dataset)]) == 0
        table = (tmp_path / dataset / "scores.tsv").read_text(encoding="utf-8").splitlines()
        return {row.split("\t", 1)[0]: row for row in table[1:]}

    original = rows("dataset")
    assert len(original) == spec.n_segments
    assert rows("shuffled") == original


def demo_copy(tmp_path, pair, ratio=None, external=True):
    """A copy of demos/data whose run_<pair>.json has the given split ratio or no external scores."""
    data = tmp_path / "data"
    if not data.exists():
        shutil.copytree(DEMO_DATA, data)
    config = data / f"run_{pair}.json"
    payload = json.loads(config.read_text(encoding="utf-8"))
    if ratio is not None:
        payload["split"]["ratio"] = ratio
    if not external:
        del payload["resources"]["external_scores"]
    config.write_text(json.dumps(payload), encoding="utf-8")
    return config


@pytest.mark.parametrize("change", ["missing", "renamed"])
def test_crosslingual_rejects_different_feature_columns(tmp_path, capsys, change):
    fit = demo_copy(tmp_path, "deen")
    report = demo_copy(tmp_path, "sven", external=change != "missing")
    if change == "renamed":
        external = tmp_path / "data" / "sven_external.tsv"
        external.write_text(external.read_text(encoding="utf-8").replace("\tcomet", "\tbleurt", 1), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["crosslingual", "--fit-config", str(fit), "--eval-config", str(report), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: fit and eval configs must yield the same feature columns")
    assert "'comet'" in err[0]
    assert not (out / "crosslingual.tsv").exists()


def test_external_scores_missing_a_segment_are_reported_with_the_file_before_scoring(tmp_path, capsys, monkeypatch):
    config = demo_copy(tmp_path, "deen")
    external = tmp_path / "data" / "deen_external.tsv"
    lines = external.read_text(encoding="utf-8").splitlines(keepends=True)
    external.write_text("".join(line for line in lines if not line.startswith("deen02b\t")), encoding="utf-8")
    scored = []
    monkeypatch.setattr(mteval.pipeline, "score_segments", lambda *args: scored.append(args))
    assert main(["score", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {external}: external column 'chrf' has no score for segment 'deen02b'"
    ]
    assert scored == []


@pytest.mark.parametrize(
    ("command", "ratio", "side"),
    [("evaluate", 0.95, "test"), ("ablate", 0.95, "test"), ("evaluate", 0.01, "train"), ("ablate", 0.01, "train")],
)
def test_split_leaving_a_side_under_two_segments_exits_two(tmp_path, capsys, command, ratio, side):
    # run_deen.json's dataset has 9 sources: ratio 0.95 keeps all 9 for training, 0.01 none
    config = demo_copy(tmp_path, "deen", ratio=ratio)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: dataset 'deen': split ratio {ratio} leaves 0 segments on the {side} side; need at least 2"]
    assert not (tmp_path / "out").exists()


def test_crosslingual_fit_split_without_a_train_side_exits_two(tmp_path, capsys):
    fit = demo_copy(tmp_path, "deen", ratio=0.01)
    report = demo_copy(tmp_path, "sven")
    assert main(["crosslingual", "--fit-config", str(fit), "--eval-config", str(report), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: dataset 'deen': split ratio 0.01 leaves 0 segments on the train side; need at least 2"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("fit_ratio", "eval_ratio", "rho"),
    [(0.95, None, "0.800000"), (None, 0.01, "0.979866")],  # fit on all of de-en; report on all of sv-en
)
def test_crosslingual_uses_one_side_of_each_split(tmp_path, fit_ratio, eval_ratio, rho):
    fit = demo_copy(tmp_path, "deen", ratio=fit_ratio)
    report = demo_copy(tmp_path, "sven", ratio=eval_ratio)
    assert main(["crosslingual", "--fit-config", str(fit), "--eval-config", str(report), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "crosslingual.tsv").read_text(encoding="utf-8").splitlines()
    assert lines == ["fit_dataset\teval_dataset\ttest_rho", f"deen\tsven\t{rho}"]


def test_malformed_dataset_exits_two(tmp_path, capsys):
    config = write_run(tmp_path)
    (tmp_path / "data.tsv").write_text(HEADER + "\ns0\tde\ten\tbroken row\n", encoding="utf-8")
    assert main(["score", "--config", str(config)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(("name", "text"), [("data.tsv", HEADER + "\n"), ("data.json", "[]\n")], ids=["tsv", "json"])
def test_empty_dataset_exits_two(tmp_path, capsys, name, text):
    config = write_run(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["dataset"] = name
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["score", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {tmp_path / name}: no segments"]


def test_missing_input_file_exits_two(tmp_path, capsys):
    config = write_run(tmp_path)
    (tmp_path / "static.txt").unlink()
    assert main(["score", "--config", str(config)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("error", "message"),
    [
        (RuntimeError("transportation solver failed to converge"), "transportation solver failed to converge"),
        (IndexError("first line\n  second line"), "first line second line"),
        (KeyError(), "KeyError"),
    ],
)
def test_internal_error_exits_three_on_one_line(tmp_path, capsys, monkeypatch, error, message):
    def fail(*args):
        raise error

    monkeypatch.setattr("mteval.metrics.solve_transport_batch", fail)
    config = write_run(tmp_path)
    assert main(["score", "--config", str(config)]) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_interrupt_is_not_reported_as_internal_error(tmp_path, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr("mteval.metrics.solve_transport_batch", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["score", "--config", str(write_run(tmp_path))])


# ---------------------------------------------------------------------------
# run-config parsing
# ---------------------------------------------------------------------------


def test_load_run_config_resolves_paths_relative_to_file(tmp_path):
    config = write_run(tmp_path)
    run = load_run_config(config)
    assert run.dataset_path == tmp_path / "data.tsv"
    assert run.resources == {"static_embeddings": tmp_path / "static.txt", "wordpiece_vocab": tmp_path / "vocab.txt"}
    assert run.output_dir == tmp_path / "out"
    assert run.seed == 11
    assert run.split_ratio == 0.8
    assert run.mlp_options == {"max_epochs": 40}
    assert run.metric_config.metrics == ("scm", "wmd", "bleu")


def test_load_run_config_collects_all_problems(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "mode": "sideways",
                "metrics": ["bleu", "rouge"],
                "split": {"ratio": 2.0},
                "surprise": True,
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    message = str(err.value)
    for fragment in ("dataset", "mode", "rouge", "seed", "ratio", "surprise"):
        assert fragment in message


def test_load_run_config_rejects_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(path)
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "nope.json")
    path.write_text('["not", "an", "object"]', encoding="utf-8")
    with pytest.raises(ConfigError, match="object"):
        load_run_config(path)



# ---------------------------------------------------------------------------
# user-facing error paths: one row per problem, each a one-line message
# ---------------------------------------------------------------------------


def _set(*keys_and_value):
    """Set payload[k1][k2]... = value in the run config."""
    *keys, value = keys_and_value

    def spoil(tmp_path, payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return spoil


def _row(**columns):
    """Replace columns of data.tsv's first data row (line 2)."""

    def spoil(tmp_path, payload):
        lines = (tmp_path / "data.tsv").read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        for column, value in columns.items():
            fields[HEADER.split("\t").index(column)] = value
        lines[1] = "\t".join(fields)
        (tmp_path / "data.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    return spoil


def _file(name, text, *key):
    """Write ``name`` and point the config key (default: the dataset) at it."""

    def spoil(tmp_path, payload):
        (tmp_path / name).write_text(text, encoding="utf-8")
        _set(*(key or ("dataset",)), name)(tmp_path, payload)

    return spoil


def _source_based_bleu(tmp_path, payload):
    payload["mode"] = "source_based"
    payload["metrics"] = ["bleu"]


def _json_field(column, value):
    """Rewrite data.tsv as data.json, with the first record's ``column`` set to ``value``."""

    def spoil(tmp_path, payload):
        lines = (tmp_path / "data.tsv").read_text(encoding="utf-8").splitlines()
        records = [dict(zip(HEADER.split("\t"), line.split("\t"))) for line in lines[1:]]
        records[0][column] = value
        (tmp_path / "data.json").write_text(json.dumps(records), encoding="utf-8")
        payload["dataset"] = "data.json"

    return spoil


def _json_text(edit):
    """Rewrite data.tsv as data.json, its text passed through ``edit``."""

    def spoil(tmp_path, payload):
        _json_field("id", "s0")(tmp_path, payload)
        text = (tmp_path / "data.json").read_text(encoding="utf-8")
        assert edit(text) != text
        (tmp_path / "data.json").write_text(edit(text), encoding="utf-8")

    return spoil


def _config_text(edit):
    """Write the run config as its JSON text passed through ``edit``."""

    def spoil(tmp_path, payload):
        text = json.dumps(payload)
        assert edit(text) != text
        return edit(text)

    return spoil


LONG_INTEGER = "1" + "0" * 5000  # 5,001 digits, past Python's int-string limit
DEEP_NESTING = "[" * 100_000 + "]" * 100_000
FIRST_JUDGEMENTS = '"judgements": "-2.5,0"'  # in data.json's first record


def _no_features(tmp_path, payload):
    payload["metrics"] = []
    payload["reg_base"] = False


def _header_only_records(tmp_path, payload):
    (tmp_path / "records.tsv").write_text("segment_id\tside\ttoken_index\ttoken\tvector\n", encoding="utf-8")
    payload["metrics"] = ["wmd_contextual"]
    payload["resources"]["contextual_records"] = "records.tsv"


EXTERNAL_WITH_NAN = "segment_id\text\n" + "".join(f"s{i}\t{'nan' if i == 1 else '0.5'}\n" for i in range(15))
INVALID_CONFIG = "config.json: invalid configuration:\n  - "

ERROR_TABLE = {
    # configuration problems name the config file and the key
    "section-not-object": (_set("mlp", [1]), 1, INVALID_CONFIG + "'mlp' must be an object"),
    "unknown-section-key": (_set("split", "shuffle", True), 1, INVALID_CONFIG + "unknown keys under 'split': ['shuffle']"),
    "removed-full-matrix-key": (
        _set("compositionality_full_matrix", True), 1, INVALID_CONFIG + "unknown keys: ['compositionality_full_matrix']"
    ),
    "metrics-not-list": (_set("metrics", "bleu"), 1, INVALID_CONFIG + "'metrics' must be a list of metric names"),
    "bad-dataset-format": (_set("dataset_format", "csv"), 1, INVALID_CONFIG + "'dataset_format' must be 'tsv' or 'json'"),
    "non-boolean-flag": (_set("lowercase", "yes"), 1, INVALID_CONFIG + "'lowercase' must be a boolean"),
    "empty-resource-path": (
        _set("resources", "static_embeddings", ""), 1, INVALID_CONFIG + "'resources.static_embeddings' must be a nonempty path"
    ),
    "metric-enabled-twice": (_set("metrics", ["bleu", "bleu"]), 1, INVALID_CONFIG + "metric 'bleu' enabled twice"),
    "reference-only-source-based": (
        _source_based_bleu, 1, INVALID_CONFIG + "metric 'bleu' needs a same-language reference and cannot run source_based"
    ),
    # a config file that JSON does not define
    "config-repeated-key": (
        _config_text(lambda text: text.replace("{", '{"dataset": "absent.tsv", ', 1)), 1,
        "config.json: not valid JSON (repeated key 'dataset')",
    ),
    "config-long-integer": (
        _config_text(lambda text: text.replace('"seed": 11', f'"seed": {LONG_INTEGER}')), 1,
        "config.json: not valid JSON (Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "config-deep-nesting": (
        _config_text(lambda text: text.replace('"output_dir": "out"', f'"output_dir": {DEEP_NESTING}')), 1,
        "config.json: not valid JSON (maximum recursion depth exceeded",
    ),
    # a run config that enables nothing to score
    "no-features": (
        _no_features, 1, "configuration error: no features configured: enable metrics, reg_base, or external scores"
    ),
    # dataset problems, most naming the file and the line or record
    "empty-id": (_row(id=""), 2, "data.tsv:2: segment id must be nonempty"),
    "empty-source": (_row(source=""), 2, "data.tsv:2: segment 's0': source must be nonempty"),
    "non-finite-judgement": (_row(judgements="nan,1"), 2, "data.tsv:2: segment 's0': non-finite judgement nan"),
    "pos-without-text": (
        _row(reference="", pos_reference="DET NOUN"), 2, "data.tsv:2: segment 's0': pos_reference given but the text side is missing"
    ),
    "mixed-language-pairs": (
        _row(tgt_lang="fr"), 2, "data.tsv:3: dataset 'data' mixes language pairs: [('de', 'en'), ('de', 'fr')]"
    ),
    "duplicate-id": (_row(id="s1"), 2, "data.tsv:3: duplicate segment id 's1' in dataset 'data'"),
    "bad-tsv-header": (_file("other.tsv", "id\tsource\n"), 2, "other.tsv:1: header must be ["),
    "unsupported-format": (
        _file("data.csv", "id,source\n"), 2, "data.csv: unsupported dataset format 'csv' (expected tsv or json)"
    ),
    "invalid-json": (_file("data.json", "[{"), 2, "data.json: not valid JSON (Expecting property name"),
    "json-repeated-key": (
        _json_text(lambda text: text.replace('{"id": "s0"', '{"id": "s0", "id": "s99"', 1)), 2,
        "data.json: not valid JSON (repeated key 'id')",
    ),
    "json-long-integer": (
        _json_text(lambda text: text.replace(FIRST_JUDGEMENTS, f'"judgements": [{LONG_INTEGER}]')), 2,
        "data.json: not valid JSON (Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "json-deep-nesting": (
        _json_text(lambda text: text.replace(FIRST_JUDGEMENTS, f'"judgements": {DEEP_NESTING}')), 2,
        "data.json: not valid JSON (maximum recursion depth exceeded",
    ),
    "json-not-array": (_file("data.json", "{}"), 2, "data.json: expected a JSON array of records"),
    "json-record-not-object": (_file("data.json", "[1]"), 2, "data.json:record 0: expected an object"),
    "json-id-with-tab": (_json_field("id", "s0\tX"), 2, "data.json:record 0: segment id 's0\\tX' holds a tab or a line break"),
    "json-id-with-newline": (_json_field("id", "s0\nY"), 2, "data.json:record 0: segment id 's0\\nY' holds a tab or a line break"),
    # a field holds a string or null (judgements also numbers, pos_* also lists of tags), not any value made into text
    "json-id-number": (_json_field("id", 0), 2, "data.json:record 0: field 'id' is not text: 0"),
    "json-source-boolean": (_json_field("source", True), 2, "data.json:record 0: field 'source' is not text: true"),
    "json-reference-object": (
        _json_field("reference", {"a": 1}), 2, 'data.json:record 0: field \'reference\' is not text: {"a": 1}'
    ),
    "json-pos-number-list": (_json_field("pos_source", [1]), 2, "data.json:record 0: field 'pos_source' is not text: [1]"),
    # other inputs
    "non-finite-external": (
        _file("external.tsv", EXTERNAL_WITH_NAN, "resources", "external_scores"), 2, "external.tsv:3: non-finite value in column 'ext'"
    ),
    "empty-tsv-file": (_file("data.tsv", ""), 2, "data.tsv: empty file"),
    "header-only-contextual-records": (_header_only_records, 2, "records.tsv: no records"),
    "empty-wordpiece-vocab": (
        _file("vocab.txt", "", "resources", "wordpiece_vocab"), 2, "vocab.txt: WordPiece vocabulary is empty"
    ),
    "wordpiece-vocab-without-unk": (
        _file("vocab.txt", "the\ndog\n", "resources", "wordpiece_vocab"),
        2,
        "vocab.txt: unknown-token '[UNK]' missing from the vocabulary",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_TABLE))
def test_input_error_exits_with_its_code_and_names_where(tmp_path, capsys, case):
    spoil, code, fragment = ERROR_TABLE[case]
    config = write_run(tmp_path)
    payload = json.loads(config.read_text(encoding="utf-8"))
    text = spoil(tmp_path, payload)  # the config file's text, from the spoils that write it as it is
    config.write_text(json.dumps(payload) if text is None else text, encoding="utf-8")
    assert main(["score", "--config", str(config)]) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " if code == 1 else "data error: ")
    assert fragment in err
    assert err.count("\n") == 1 + fragment.count("\n")  # one line, then one per problem of an invalid config file
    assert not (tmp_path / "out").exists()


def test_bad_judgements_cell_names_its_location_once(tmp_path, capsys):
    config = write_run(tmp_path)
    _row(judgements="1,x")(tmp_path, {})
    assert main(["score", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / 'data.tsv'}:2: bad judgements field '1,x'\n"


@pytest.mark.parametrize("vocab", ["without-unk", "missing"])
def test_unread_wordpiece_vocab_is_not_loaded(tmp_path, vocab):
    config = write_run(tmp_path, metrics=("bleu",))
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["reg_base"] = False
    del payload["resources"]["static_embeddings"]
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["score", "--config", str(config)]) == 0
    want = (tmp_path / "out" / "scores.tsv").read_bytes()
    if vocab == "missing":
        (tmp_path / "vocab.txt").unlink()
    else:
        (tmp_path / "vocab.txt").write_text("the\ndog\n", encoding="utf-8")
    shutil.rmtree(tmp_path / "out")
    assert main(["score", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "scores.tsv").read_bytes() == want


@pytest.mark.parametrize("command", ["score", "evaluate", "ablate", "crosslingual"])
@pytest.mark.parametrize(("seed", "code"), [(-1, 1), (2**70, 0)], ids=["negative", "past-64-bits"])
def test_split_seed_must_be_non_negative(tmp_path, capsys, command, seed, code):
    if command == "crosslingual":
        fit = write_run(tmp_path, config_name="fit.json", seed=seed)
        argv = ["crosslingual", "--fit-config", str(fit), "--eval-config", str(write_run(tmp_path, config_name="eval.json"))]
    else:
        argv = [command, "--config", str(write_run(tmp_path, seed=seed))]
    assert main(argv) == code
    err = capsys.readouterr().err
    problem = "'split.seed' must be an integer >= 0, got -1"
    assert err == ("" if code == 0 else f"configuration error: {argv[2]}: invalid configuration:\n  - {problem}\n")
