import math
import re

import numpy as np
import pytest

import mteval.metrics
import mteval.pipeline
from mteval.corpus import Dataset, Segment
from mteval.ensemble import FeatureMatrix
from mteval.errors import ConfigError, DataError
from mteval.metrics import REG_BASE_FEATURES, MetricConfig, Resources, score_segment, score_segments
from mteval.pipeline import (
    build_resources,
    dataset_features,
    load_external_scores,
    score_dataset,
)
from mteval.vsm import build_similarity_matrix

METRIC_SET = (
    "scm",
    "scm_tfidf",
    "wmd",
    "wmd_tfidf",
    "scm_decontextualized",
    "wmd_decontextualized",
    "wmd_contextual",
    "wmd_contextual_tfidf",
    "bleu",
)


def make_dataset(n=6, oov_hypothesis_at=None):
    segments = []
    for i in range(n):
        hyp = "the dog" + " runs" * (1 + i % 3)
        if i == oov_hypothesis_at:
            hyp = "cat cat"
        segments.append(
            Segment(
                id=f"seg{i}",
                src_lang="de",
                tgt_lang="en",
                source=f"der hund w{i}",
                reference="the dog" + " runs" * (1 + i % 2),
                hypothesis=hyp,
                judgements=(float(i % 4) - 1.5, float(i % 3)),
            )
        )
    return Dataset(segments=segments, name="tiny")


def token_vector(token):
    return np.array([float(sum(map(ord, token)) % 7), float(len(token))])


def write_inputs(tmp_path, dataset):
    static = tmp_path / "static.txt"
    words = sorted({w for s in dataset.segments for w in (s.reference + " " + s.hypothesis).split() if w != "cat"})
    lines = [f"{len(words)} 2"]
    lines += [f"{w} {token_vector(w)[0]} {token_vector(w)[1]}" for w in words]
    static.write_text("\n".join(lines) + "\n", encoding="utf-8")

    vocab = tmp_path / "vocab.txt"
    pieces = sorted({w for s in dataset.segments for w in (s.source + " " + s.reference + " " + s.hypothesis).split()})
    vocab.write_text("\n".join(["[UNK]"] + pieces) + "\n", encoding="utf-8")

    ctx = tmp_path / "contextual.tsv"
    rng = np.random.default_rng(123)
    rows = ["segment_id\tside\ttoken_index\ttoken\tvector"]
    for segment in dataset.segments:
        for side, text in (("source", segment.source), ("reference", segment.reference), ("hypothesis", segment.hypothesis)):
            for i, token in enumerate(text.split()):
                vec = token_vector(token) + 0.05 * rng.normal(size=2)
                rows.append(f"{segment.id}\t{side}\t{i}\t{token}\t{vec[0]} {vec[1]}")
    ctx.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return static, ctx, vocab


def run_paths(static, ctx, vocab):
    return {"static_embeddings": static, "contextual_records": ctx, "wordpiece_vocab": vocab}


@pytest.fixture
def tiny_run(tmp_path):
    dataset = make_dataset(oov_hypothesis_at=4)
    static, ctx, vocab = write_inputs(tmp_path, dataset)
    config = MetricConfig(mode="reference_based", metrics=METRIC_SET)
    resources = build_resources(config, dataset, run_paths(static, ctx, vocab))
    return dataset, config, resources


def test_build_resources_populates_what_the_config_needs(tiny_run):
    dataset, config, resources = tiny_run
    assert {vector.shape for vector in resources.stores["words"].values()} == {(2,)}
    assert resources.wp_vocab is not None
    assert set(resources.stores) == {"words", "pieces"}
    assert len(resources.contextual) and set(resources.vocabs) == {"words", "pieces", "contextual"}
    # one document per segment side: 6 segments x (source, reference, hypothesis)
    assert resources.vocabs["words"].n_docs == 18
    assert resources.vocabs["pieces"].n_docs == 18
    # contextual df unit is the (segment, side) record group
    assert resources.vocabs["contextual"].n_docs == 18
    assert set(resources.sims) == {
        ("words", "vocabulary"),
        ("words", "idf_descending"),
        ("pieces", "vocabulary"),
    }


def test_build_resources_ranks_candidates_once_per_term_space(tmp_path, monkeypatch):
    dataset = make_dataset(oov_hypothesis_at=4)
    static, ctx, vocab = write_inputs(tmp_path, dataset)
    ranked = []
    rank = mteval.pipeline.similarity_candidates
    monkeypatch.setattr(
        mteval.pipeline, "similarity_candidates", lambda terms, *args: ranked.append(terms) or rank(terms, *args)
    )
    config = MetricConfig(mode="reference_based", metrics=METRIC_SET + ("scm_decontextualized_tfidf",))
    resources = build_resources(config, dataset, run_paths(static, ctx, vocab))
    assert len(resources.sims) == 4
    assert len(ranked) == 2
    assert {id(terms) for terms in ranked} == {id(resources.vocabs["words"]), id(resources.vocabs["pieces"])}
    for (space, order), matrix in resources.sims.items():
        terms, store = resources.vocabs[space], resources.stores[space]
        assert matrix.rows == build_similarity_matrix(terms, store, order).rows


def test_build_resources_reports_missing_paths_together():
    config = MetricConfig(mode="reference_based", metrics=("scm", "wmd_contextual"))
    with pytest.raises(ConfigError) as err:
        build_resources(config, make_dataset())
    message = str(err.value)
    assert "static_embeddings" in message
    assert "contextual_records" in message
    assert "wordpiece_vocab" in message


def test_build_resources_names_an_unknown_resource_key(tmp_path):
    config = MetricConfig(mode="reference_based", metrics=("bleu",), reg_base=False)
    with pytest.raises(ConfigError, match="unknown resource key 'static_vectors'"):
        build_resources(config, make_dataset(), {"static_vectors": tmp_path / "missing.txt"})


def test_build_resources_needs_pos_tags():
    config = MetricConfig(mode="reference_based", metrics=("compositionality",), reg_base=False)
    with pytest.raises(ConfigError, match="pos"):
        build_resources(config, make_dataset())  # no tags


def test_build_resources_needs_references():
    dataset = make_dataset()
    seg = dataset.segments[2]
    dataset.segments[2] = Segment(seg.id, seg.src_lang, seg.tgt_lang, seg.source, None, seg.hypothesis, seg.judgements)
    config = MetricConfig(mode="reference_based", metrics=("bleu",), reg_base=False)
    with pytest.raises(ConfigError, match="no reference"):
        build_resources(config, dataset)


def test_score_dataset_shape_and_flags(tiny_run):
    dataset, config, resources = tiny_run
    features, flags, placeholders = score_dataset(dataset, config, resources)
    assert features.feature_names == list(METRIC_SET) + list(REG_BASE_FEATURES)
    assert features.segment_ids == [f"seg{i}" for i in range(6)]
    assert np.all(np.isfinite(features.rows))
    # the all-OOV hypothesis is unscorable for the static-embedding WMDs
    assert "wmd" in flags["seg4"] and "wmd_tfidf" in flags["seg4"]
    assert set(placeholders) == set(METRIC_SET)
    # distances fall back to the worst (largest) observed value
    wmd_col = features.rows[:, features.feature_names.index("wmd")]
    assert placeholders["wmd"] == max(wmd_col[i] for i in range(6) if i != 4)
    assert wmd_col[4] == placeholders["wmd"]


def test_each_side_text_is_wordpiece_tokenized_once(tmp_path, monkeypatch):
    dataset = make_dataset(oov_hypothesis_at=4)
    static, ctx, vocab = write_inputs(tmp_path, dataset)
    texts = {text for s in dataset.segments for text in (s.source, s.reference, s.hypothesis)}
    calls = []
    tokenize = mteval.metrics.wordpiece_tokenize
    monkeypatch.setattr(mteval.metrics, "wordpiece_tokenize", lambda text, wp: calls.append(text) or tokenize(text, wp))
    config = MetricConfig(mode="reference_based", metrics=METRIC_SET + ("wmd_decontextualized_tfidf",), reg_base=True)
    resources = build_resources(config, dataset, run_paths(static, ctx, vocab))
    score_dataset(dataset, config, resources)
    assert sorted(calls) == sorted(texts)


def test_score_dataset_deterministic_across_threads(tiny_run):
    # Scoring runs on one thread; what could now break determinism is the
    # dataset-wide transport batch, so compare it with segment-by-segment
    # scoring, and a rerun with the first run.
    dataset, config, resources = tiny_run
    single, flags1, _ = score_dataset(dataset, config, resources)
    again, flags2, _ = score_dataset(dataset, config, resources)
    assert np.array_equal(single.rows, again.rows)
    assert single.segment_ids == again.segment_ids
    assert flags1 == flags2
    batched = score_segments(dataset.segments, config, resources)
    one_by_one = [score_segment(segment, config, resources) for segment in dataset.segments]
    assert [list(flags.items()) for _, flags in batched] == [list(flags.items()) for _, flags in one_by_one]
    for (b, _), (o, _) in zip(batched, one_by_one, strict=True):
        assert list(b) == list(o)
        assert np.array_equal(list(b.values()), list(o.values()), equal_nan=True)


def test_dataset_features_placeholder_uses_train_worst_only(tiny_run):
    dataset, config, resources = tiny_run
    split = dataset_features(dataset, config, resources, seed=5)
    assert split.train.n + split.test.n == 6
    assert len(split.gold_train) == split.train.n
    assert len(split.train_sources) == split.train.n
    col = split.train.feature_names.index("wmd")
    train_vals = [
        split.train.rows[i, col]
        for i, sid in enumerate(split.train.segment_ids)
        if "wmd" not in split.flags.get(sid, {})
    ]
    assert split.placeholders["wmd"] == max(train_vals)
    # the worst train value, not the overall worst, fills the gaps
    flagged = [sid for sid, f in split.flags.items() if "wmd" in f]
    assert flagged == ["seg4"]
    for matrix in (split.train, split.test):
        for i, sid in enumerate(matrix.segment_ids):
            if sid in flagged:
                assert matrix.rows[i, col] == split.placeholders["wmd"]


def test_dataset_features_requires_judgements(tiny_run):
    dataset, config, resources = tiny_run
    bare = Dataset(
        segments=[
            Segment(id="a", src_lang="d", tgt_lang="e", source="x y", reference="x", hypothesis="x"),
            Segment(id="b", src_lang="d", tgt_lang="e", source="z w", reference="x", hypothesis="x"),
        ],
        name="bare",
    )
    with pytest.raises(DataError, match="judgements"):
        dataset_features(bare, MetricConfig(mode="reference_based", metrics=()), Resources(wp_vocab=resources.wp_vocab), seed=1)


# ---------------------------------------------------------------------------
# external score columns
# ---------------------------------------------------------------------------


def test_load_external_scores(tmp_path):
    path = tmp_path / "ext.tsv"
    path.write_text("segment_id\tcomet\tprism\nseg0\t0.5\t1.5\nseg1\t-0.25\t2.0\n", encoding="utf-8")
    scores = load_external_scores(path)
    assert list(scores) == ["comet", "prism"]
    assert scores["comet"]["seg1"] == -0.25


def test_load_external_scores_errors(tmp_path):
    path = tmp_path / "ext.tsv"
    path.write_text("id\tcomet\nseg0\t1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="segment_id"):
        load_external_scores(path)
    path.write_text("segment_id\n", encoding="utf-8")
    with pytest.raises(DataError, match="no feature columns"):
        load_external_scores(path)
    path.write_text("segment_id\ta\ta\nseg0\t1\t2\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate feature"):
        load_external_scores(path)
    path.write_text("segment_id\ta\tsegment_id\nseg0\t1\t2\n", encoding="utf-8")
    with pytest.raises(DataError, match="ext.tsv: duplicate feature columns, or one named 'segment_id'"):
        load_external_scores(path)
    for header in ("segment_id\t\ta", "segment_id\t \ta"):
        path.write_text(f"{header}\nseg0\t1\t2\n", encoding="utf-8")
        with pytest.raises(DataError, match="ext.tsv: a feature column has an empty or blank name"):
            load_external_scores(path)
    # a name with leading or trailing whitespace would pass the reserved-name and native-metric checks,
    # or print like another column
    for header, name in (("segment_id\ta\tRegEMT ", "'RegEMT '"), ("segment_id\ta\t bleu", "' bleu'"), ("segment_id\ta\ta ", "'a '")):
        path.write_text(f"{header}\nseg0\t1\t2\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: column name {name} has leading or trailing whitespace$"):
            load_external_scores(path)
    path.write_text("segment_id\tRegEMT\nseg0\t1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="reserved"):
        load_external_scores(path)
    path.write_text("segment_id\ta\nseg0\toops\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2:"):
        load_external_scores(path)
    path.write_text("segment_id\ta\nseg0\t1\nseg0\t2\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate segment"):
        load_external_scores(path)


def test_external_columns_join_by_segment_id(tmp_path):
    dataset = make_dataset(n=3)
    _, _, vocab = write_inputs(tmp_path, dataset)
    ext = tmp_path / "ext.tsv"
    ext.write_text(
        "segment_id\tcomet\nseg2\t0.3\nseg0\t0.1\nseg1\t0.2\n", encoding="utf-8"
    )
    config = MetricConfig(mode="reference_based", metrics=("bleu",))
    resources = build_resources(config, dataset, {"wordpiece_vocab": vocab, "external_scores": ext})
    features, _, _ = score_dataset(dataset, config, resources)
    col = features.feature_names.index("comet")
    assert features.rows[:, col].tolist() == [0.1, 0.2, 0.3]


def test_external_column_missing_segment_is_an_error(tmp_path):
    dataset = make_dataset(n=3)
    _, _, vocab = write_inputs(tmp_path, dataset)
    ext = tmp_path / "ext.tsv"
    ext.write_text("segment_id\tcomet\nseg0\t0.1\nseg1\t0.2\n", encoding="utf-8")
    config = MetricConfig(mode="reference_based", metrics=("bleu",))
    with pytest.raises(DataError, match="ext.tsv: external column 'comet' has no score for segment 'seg2'"):
        build_resources(config, dataset, {"wordpiece_vocab": vocab, "external_scores": ext})


def test_external_column_name_collision_with_native(tmp_path):
    dataset = make_dataset(n=3)
    _, _, vocab = write_inputs(tmp_path, dataset)
    ext = tmp_path / "ext.tsv"
    ext.write_text("segment_id\tbleu\nseg0\t0.1\nseg1\t0.2\nseg2\t0.3\n", encoding="utf-8")
    config = MetricConfig(mode="reference_based", metrics=("bleu",))
    with pytest.raises(ConfigError, match="collide"):
        build_resources(config, dataset, {"wordpiece_vocab": vocab, "external_scores": ext})


def test_score_dataset_needs_some_feature():
    dataset = make_dataset(n=2)
    config = MetricConfig(mode="reference_based", metrics=(), reg_base=False)
    with pytest.raises(ConfigError, match="no features"):
        score_dataset(dataset, config, Resources())
