"""The records of src/mteval keep the constructors and behaviour they had as dataclasses.

The records are plain classes, so that importing mteval generates no code
(see test_source_hygiene.py).  `SIGNATURES` is each constructor's
``inspect.signature`` as it read when the records were dataclasses: the
parameter names in order, each with its default's ``repr``, `REQUIRED`
for none, or `FACTORY` where a ``default_factory`` gave every instance a
fresh container (now a None default).  Every parameter is
positional-or-keyword.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from mteval.config import RunConfig
from mteval.corpus import Segment
from mteval.embeddings import ContextualTable
from mteval.ensemble import FeatureMatrix, MlpParams
from mteval.metrics import MetricConfig, MetricInfo, Resources
from mteval.pipeline import SplitFeatures
from mteval.tokenization import WordPieceVocab, wordpiece_tokenize
from mteval.vsm import SimilarityMatrix

REQUIRED, FACTORY = "required", "factory"

SIGNATURES = {
    "corpus.Segment": [
        ("id", REQUIRED), ("src_lang", REQUIRED), ("tgt_lang", REQUIRED), ("source", REQUIRED), ("reference", REQUIRED),
        ("hypothesis", REQUIRED), ("judgements", "()"), ("pos_source", "None"), ("pos_reference", "None"),
        ("pos_hypothesis", "None"),
    ],
    "corpus.Dataset": [("segments", REQUIRED), ("name", "''")],
    "tokenization.WordPieceVocab": [("entries", REQUIRED)],
    "vsm.Vocabulary": [("terms", REQUIRED), ("index", REQUIRED), ("df", REQUIRED), ("n_docs", REQUIRED)],
    "vsm.SimilarityMatrix": [("dim", REQUIRED), ("rows", FACTORY)],
    "vsm.SimilarityCandidates": [
        ("n_terms", REQUIRED), ("threshold", REQUIRED), ("exponent", REQUIRED), ("top_k", REQUIRED), ("embedded", REQUIRED),
        ("normalized", REQUIRED), ("block", REQUIRED), ("rows", REQUIRED), ("truncated", REQUIRED),
        ("_last_block", "(-1, array([], shape=(0, 0), dtype=float64))"),
    ],
    "flow.FlowSolution": [("plan", REQUIRED), ("cost", REQUIRED), ("n_sources", REQUIRED), ("n_sinks", REQUIRED)],
    "metrics.MetricInfo": [("family", REQUIRED), ("space", "'none'"), ("weighting", "'nnx'")],
    "metrics.MetricConfig": [
        ("mode", REQUIRED), ("metrics", REQUIRED), ("reg_base", "True"), ("lowercase", "False"),
        ("similarity_threshold", "0.1"), ("similarity_exponent", "2.0"), ("similarity_top_k", "100"),
    ],
    "metrics.Resources": [
        ("wp_vocab", "None"), ("contextual", "None"), ("vocabs", FACTORY), ("stores", FACTORY), ("sims", FACTORY),
        ("external", FACTORY), ("lowercase", "False"),
    ],
    "ensemble.FeatureMatrix": [("rows", REQUIRED), ("feature_names", REQUIRED), ("segment_ids", REQUIRED)],
    "ensemble.MlpParams": [("w1", REQUIRED), ("b1", REQUIRED), ("w2", REQUIRED), ("b2", REQUIRED)],
    "ensemble.EnsembleModel": [
        ("kind", REQUIRED), ("feature_names", REQUIRED), ("mean", REQUIRED), ("std", REQUIRED), ("weights", "None"),
        ("intercept", "None"), ("mlp", "None"),
    ],
    "pipeline.SplitFeatures": [
        ("train", REQUIRED), ("test", REQUIRED), ("gold_train", REQUIRED), ("gold_test", REQUIRED), ("train_sources", REQUIRED),
        ("flags", FACTORY), ("placeholders", FACTORY),
    ],
    "config.RunConfig": [
        ("dataset_path", REQUIRED), ("seed", REQUIRED), ("metric_config", REQUIRED), ("dataset_format", "None"),
        ("resources", FACTORY), ("split_ratio", "0.8"), ("mlp_options", FACTORY), ("output_dir", "None"),
    ],
}


def record_class(name):
    module, _, cls = name.partition(".")
    return getattr(importlib.import_module(f"mteval.{module}"), cls)


def config():
    return MetricConfig("reference_based", ("scm", "bleu"))


def empty_features():
    return FeatureMatrix(np.zeros((0, 1)), ["a"], [])


#: A builder of each record with a former ``default_factory`` field that leaves every such field out
FACTORY_BUILDS = {
    "vsm.SimilarityMatrix": lambda: SimilarityMatrix(3),
    "metrics.Resources": lambda: Resources(),
    "pipeline.SplitFeatures": lambda: SplitFeatures(empty_features(), empty_features(), [], [], []),
    "config.RunConfig": lambda: RunConfig(Path("data.tsv"), 17, config()),
}



def arguments():
    """Valid arguments for every parameter of each record's constructor, no two the same object."""
    segment = Segment("s1", "de", "en", "der hund", "the dog", "a dog", (70.0,), ("DET", "NOUN"), ("DET", "NOUN"), ("DET", "NOUN"))
    features = {"rows": np.zeros((1, 1)), "feature_names": ["a"], "segment_ids": ["s1"]}
    mlp = {"w1": np.zeros((1, 2)), "b1": np.zeros(2), "w2": np.zeros(2), "b2": 0.25}
    return {
        "corpus.Segment": dict(zip([name for name, _ in SIGNATURES["corpus.Segment"]], vars(segment).values())),
        "corpus.Dataset": {"segments": [segment], "name": "d"},
        "tokenization.WordPieceVocab": {"entries": ("[UNK]", "dog")},
        "vsm.Vocabulary": {"terms": ["dog"], "index": {"dog": 0}, "df": {"dog": 1}, "n_docs": 1},
        "vsm.SimilarityMatrix": {"dim": 1, "rows": {0: {}}},
        "vsm.SimilarityCandidates": {
            "n_terms": 1, "threshold": 0.5, "exponent": 3.0, "top_k": 1, "embedded": np.arange(1), "normalized": np.ones((1, 2)),
            "block": 1, "rows": {}, "truncated": set(), "_last_block": (0, np.ones((1, 1))),
        },
        "flow.FlowSolution": {"plan": np.zeros((1, 1)), "cost": 0.5, "n_sources": 1, "n_sinks": 1},
        "metrics.MetricInfo": {"family": "wmd", "space": "pieces", "weighting": "nfx"},
        "metrics.MetricConfig": {
            "mode": "source_based", "metrics": ("wmd_decontextualized",), "reg_base": False, "lowercase": True,
            "similarity_threshold": 0.5, "similarity_exponent": 3.0, "similarity_top_k": 7,
        },
        "metrics.Resources": {
            "wp_vocab": WordPieceVocab(("[UNK]",)), "contextual": ContextualTable(np.empty((0, 2)), [], [], [], [], []),
            "vocabs": {}, "stores": {}, "sims": {}, "external": {}, "lowercase": True,
        },
        "ensemble.FeatureMatrix": features,
        "ensemble.MlpParams": mlp,
        "ensemble.EnsembleModel": {
            "kind": "mlp", "feature_names": ["a"], "mean": np.zeros(1), "std": np.ones(1), "weights": np.ones(1),
            "intercept": 0.5, "mlp": MlpParams(**mlp),
        },
        "pipeline.SplitFeatures": {
            "train": FeatureMatrix(**features), "test": FeatureMatrix(**features), "gold_train": [1.0], "gold_test": [2.0],
            "train_sources": ["der hund"], "flags": {"bleu": {}}, "placeholders": {"wmd": 1.0},
        },
        "config.RunConfig": {
            "dataset_path": Path("d.tsv"), "seed": 3, "metric_config": config(), "dataset_format": "tsv",
            "resources": {"static_embeddings": Path("v.txt")}, "split_ratio": 0.5, "mlp_options": {"hidden": 2},
            "output_dir": Path("out"),
        },
    }


FROZEN = ["corpus.Segment", "tokenization.WordPieceVocab", "metrics.MetricInfo", "metrics.MetricConfig"]


def test_the_table_covers_every_record():
    assert len(SIGNATURES) == 15
    assert {name: list(values) for name, values in arguments().items()} == {
        name: [param for param, _ in params] for name, params in SIGNATURES.items()
    }
    assert set(FACTORY_BUILDS) == {name for name, params in SIGNATURES.items() if FACTORY in dict(params).values()}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_constructor_signature_is_the_dataclass_one(name):
    params = list(inspect.signature(record_class(name)).parameters.values())
    assert [param.name for param in params] == [param for param, _ in SIGNATURES[name]]
    assert {param.kind for param in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    for param, (_, default) in zip(params, SIGNATURES[name]):
        if default == REQUIRED:
            assert param.default is inspect.Parameter.empty, param.name
        elif default == FACTORY:
            assert param.default is None, param.name
        else:
            assert repr(param.default) == default, param.name


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_each_argument_is_kept_under_its_parameter_name(name):
    values = arguments()[name]
    for record in (record_class(name)(**values), record_class(name)(*values.values())):
        assert all(getattr(record, param) is value for param, value in values.items())


@pytest.mark.parametrize("name", sorted(FACTORY_BUILDS))
def test_a_former_default_factory_gives_each_instance_its_own_container(name):
    first, second = FACTORY_BUILDS[name](), FACTORY_BUILDS[name]()
    fields = [param for param, default in SIGNATURES[name] if default == FACTORY]
    for field in fields:
        assert getattr(first, field) == {} and getattr(first, field) is not getattr(second, field), field
    getattr(first, fields[0])["key"] = 1.0
    assert getattr(second, fields[0]) == {}


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_refuses_assignment(name):
    record = record_class(name)(**arguments()[name])
    for field, _ in SIGNATURES[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_metric_configs_compare_and_hash_by_value():
    first, second = config(), config()
    assert first is not second and first == second and hash(first) == hash(second)
    assert not first != second
    other = MetricConfig("reference_based", ("scm", "wmd"))
    assert first != other and other != first
    assert MetricConfig("reference_based", ("scm", "bleu"), similarity_top_k=5) != first
    assert first != ("reference_based", ("scm", "bleu"))


def test_a_memo_beside_the_fields_does_not_count_in_equality():
    used, fresh = WordPieceVocab(("[UNK]", "dog", "##s")), WordPieceVocab(("[UNK]", "dog", "##s"))
    assert wordpiece_tokenize("dogs", used) == ["dog", "##s"] and used._splits != fresh._splits
    assert used == fresh and hash(used) == hash(fresh)
    assert MetricInfo("scm", "words") == MetricInfo("scm", "words", "nnx") != MetricInfo("scm", "pieces")
