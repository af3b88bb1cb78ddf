"""Dataset-level scoring in three steps: build resources, score, split.

`build_resources` loads what the configured metrics read and builds
vocabularies and similarity matrices over a dataset.  `score_dataset`
turns the dataset into the feature table: metric scores (placeholders in
unscorable cells), then the Reg-base and external columns.
`dataset_features` partitions that table along the train/test split.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path

from mteval.corpus import Dataset, dataset_gold, split_by_source
from mteval.embeddings import decontextualize, load_contextual, load_static
from mteval.ensemble import FeatureMatrix
from mteval.errors import ConfigError, DataError, tsv_rows, utf8_loader
from mteval.metrics import (
    METRICS,
    REG_BASE_FEATURES,
    MetricConfig,
    Resources,
    compute_placeholders,
    reg_base_features,
    score_segments,
)
from mteval.tokenization import load_wordpiece_vocab
from mteval.vsm import Vocabulary, build_similarity_matrix, build_vocabulary, similarity_candidates

__all__ = [
    "RESERVED_FEATURE_NAMES",
    "RESOURCE_KEYS",
    "SplitFeatures",
    "build_resources",
    "dataset_features",
    "feature_names",
    "load_external_scores",
    "score_dataset",
]

logger = logging.getLogger(__name__)

#: The run config's resource keys, in the order their missing paths are reported
RESOURCE_KEYS = ("static_embeddings", "wordpiece_vocab", "contextual_records", "external_scores")
#: The resource keys each term space reads
_SPACE_PATHS = {
    "words": ("static_embeddings",),
    "pieces": ("contextual_records", "wordpiece_vocab"),
    "contextual": ("contextual_records",),
    "none": (),
}

#: Column names reserved for the ensembles in reports; external-scores
#: files may not reuse them.
RESERVED_FEATURE_NAMES = ("RegEMT", "Reg-base")


@utf8_loader
def load_external_scores(path: str | Path) -> dict[str, dict[str, float]]:
    """Read precomputed per-segment scores to join as extra feature columns.

    TSV with header ``segment_id`` + one column per feature; returns
    feature name -> segment id -> value, preserving column order.
    """
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        header, rows = tsv_rows(handle, path)
        if header[0] != "segment_id":
            raise DataError(f"{path}: first column must be 'segment_id', got {header[:1]}")
        names = header[1:]
        if not names:
            raise DataError(f"{path}: no feature columns")
        if not all(name.strip() for name in names):
            raise DataError(f"{path}: a feature column has an empty or blank name")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate feature columns, or one named 'segment_id'")
        for name in names:
            if name != name.strip():
                raise DataError(f"{path}: column name {name!r} has leading or trailing whitespace")
            if name in RESERVED_FEATURE_NAMES:
                raise ConfigError(f"{path}: column name {name!r} is reserved for the ensembles")
        scores: dict[str, dict[str, float]] = {name: {} for name in names}
        for lineno, row in rows:
            segment_id = row[0]
            if segment_id in scores[names[0]]:
                raise DataError(f"{path}:{lineno}: duplicate segment id {segment_id!r}")
            for name, cell in zip(names, row[1:]):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric value {cell!r} in column {name!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"{path}:{lineno}: non-finite value in column {name!r}")
                scores[name][segment_id] = value
    return scores


def build_resources(config: MetricConfig, dataset: Dataset, paths: dict[str, str | Path] | None = None) -> Resources:
    """Check what the run needs, then load only that and precompute vocabularies / similarity matrices.

    ``paths`` maps resource keys (`RESOURCE_KEYS`, as in a run config) to
    files.  Unknown keys, missing required paths and segments the configured
    metrics cannot score are all reported in one ConfigError, before any
    file is read.
    """
    paths = paths or {}
    needed: dict[str, list[str]] = {}  # path key -> the metrics (and reg_base) needing it
    for name in config.metrics:
        for key in _SPACE_PATHS[METRICS[name].space]:
            needed.setdefault(key, []).append(name)
    if config.reg_base:
        needed.setdefault("wordpiece_vocab", []).append("reg_base")
    problems = [f"unknown resource key {key!r}" for key in paths if key not in RESOURCE_KEYS]
    problems += [
        f"{key} path required by: " + ", ".join(needed[key])
        for key in RESOURCE_KEYS
        if key in needed and paths.get(key) is None
    ]
    if "compositionality" in config.metrics:
        anchor_field = f"pos_{config.anchor_side}"
        for segment in dataset.segments:
            if getattr(segment, anchor_field) is None or segment.pos_hypothesis is None:
                problems.append(
                    f"segment {segment.id!r} lacks {anchor_field} or pos_hypothesis tags for compositionality"
                )
                break
    for segment in dataset.segments:
        if getattr(segment, config.anchor_side) is None:
            problems.append(f"segment {segment.id!r} has no reference but mode is reference_based")
            break
    if problems:
        raise ConfigError("configuration problems:\n  - " + "\n  - ".join(problems))

    resources = Resources(lowercase=config.lowercase)
    if "wordpiece_vocab" in needed:
        resources.wp_vocab = load_wordpiece_vocab(paths["wordpiece_vocab"])
    if "static_embeddings" in needed:  # the vocabulary first: only its terms' vectors are parsed
        words = resources.vocabs["words"] = _side_vocabulary(dataset, resources, "words")
        resources.stores["words"] = load_static(paths["static_embeddings"], words.index)
    if "contextual_records" in needed:
        table = resources.contextual = load_contextual(paths["contextual_records"])
        if not len(table):
            raise DataError(f"{paths['contextual_records']}: no records")
        resources.vocabs["contextual"] = build_vocabulary(table.documents())
        if any(METRICS[name].space == "pieces" for name in config.metrics):
            resources.stores["pieces"] = decontextualize(table)
            resources.vocabs["pieces"] = _side_vocabulary(dataset, resources, "pieces")

    similarity = (config.similarity_threshold, config.similarity_exponent, config.similarity_top_k)
    candidates = {}  # both orders of a term space share one ranking of every term's partners
    for space, order in sorted({METRICS[name].similarity_key for name in config.metrics} - {None}):
        vocab, store = resources.vocabs[space], resources.stores[space]
        if space not in candidates:
            candidates[space] = similarity_candidates(vocab, store, *similarity)
        matrix = resources.sims[(space, order)] = build_similarity_matrix(
            vocab, store, order, *similarity, candidates=candidates[space]
        )
        logger.info(
            "built %s-order similarity matrix over %d %s terms: "
            "%d off-diagonal entries, %d rows cut at the stored depth",
            order, len(vocab.terms), space, matrix.nnz_off_diagonal(), len(candidates[space].truncated),
        )

    if paths.get("external_scores") is not None:
        resources.external = load_external_scores(paths["external_scores"])
        column, scored = next(iter(resources.external.items()))  # every row fills every column
        if missing := [segment.id for segment in dataset.segments if segment.id not in scored]:
            raise DataError(f"{paths['external_scores']}: external column {column!r} has no score for segment {missing[0]!r}")
        native = set(config.metrics) | set(REG_BASE_FEATURES)
        clash = native & set(resources.external)
        if clash:
            raise ConfigError(f"external score columns collide with native features: {sorted(clash)}")
    return resources


def _side_vocabulary(dataset: Dataset, resources: Resources, space: str) -> Vocabulary:
    """The term space's vocabulary over one document per segment side, the df unit for every vocabulary."""
    sides = (text for segment in dataset.segments for text in (segment.source, segment.reference, segment.hypothesis))
    return build_vocabulary([resources.tokens(space, text) for text in sides if text is not None])


def feature_names(config: MetricConfig, resources: Resources) -> list[str]:
    """Native metric columns + Reg-base surface columns + external columns."""
    return list(config.metrics) + (list(REG_BASE_FEATURES) if config.reg_base else []) + list(resources.external)


def score_dataset(
    dataset: Dataset,
    config: MetricConfig,
    resources: Resources,
    placeholder_ids: set[str] | None = None,
) -> tuple[FeatureMatrix, dict[str, dict[str, str]], dict[str, float]]:
    """The feature table: one row per segment, in dataset order, columns in feature_names order.

    Scores every segment (see `score_segments`), then appends the Reg-base
    and external columns.  Each NaN cell of an unscorable metric gets the
    metric's placeholder: the worst value over the segments in
    ``placeholder_ids``, or over every segment when it is None.  Returns the
    feature matrix, the per-segment flags, and the placeholders used.
    """
    names = feature_names(config, resources)
    if not names:
        raise ConfigError("no features configured: enable metrics, reg_base, or external scores")
    vectors = score_segments(dataset.segments, config, resources)
    observed = [v for v in vectors if placeholder_ids is None or v.segment_id in placeholder_ids]
    placeholders = compute_placeholders(observed, list(config.metrics))
    rows = []
    for segment, vector in zip(dataset.segments, vectors):
        scores = vector.scores
        row = [placeholders[name] if math.isnan(scores[name]) else scores[name] for name in config.metrics]
        if config.reg_base:
            row.extend(reg_base_features(segment, resources, config))
        row.extend(resources.external[name][segment.id] for name in resources.external)
        rows.append(row)
    flags = {v.segment_id: v.flags for v in vectors if v.flags}
    return FeatureMatrix(rows, names, [s.id for s in dataset.segments]), flags, placeholders


class SplitFeatures:
    """Feature matrices and gold scores of one dataset, split by source."""

    def __init__(
        self, train: FeatureMatrix, test: FeatureMatrix, gold_train: list[float], gold_test: list[float],
        train_sources: list[str], flags: dict[str, dict[str, str]] | None = None, placeholders: dict[str, float] | None = None,
    ):
        self.train, self.test, self.train_sources = train, test, train_sources
        self.gold_train, self.gold_test = gold_train, gold_test
        self.flags = {} if flags is None else flags
        self.placeholders = {} if placeholders is None else placeholders


def dataset_features(
    dataset: Dataset,
    config: MetricConfig,
    resources: Resources,
    seed: int,
    train_ratio: float = 0.8,
) -> SplitFeatures:
    """Score a dataset and partition the features along the train/test split.

    Unscorable cells are filled with the worst value observed on the train
    split only, so nothing about the test distribution leaks into training.
    """
    gold = dataset_gold(dataset)
    train_ds, test_ds = split_by_source(dataset, train_ratio, seed)
    train_ids = {s.id for s in train_ds.segments}
    features, flags, placeholders = score_dataset(dataset, config, resources, train_ids)
    row_of = {segment_id: i for i, segment_id in enumerate(features.segment_ids)}
    train_rows = [row_of[s.id] for s in train_ds.segments]
    test_rows = [row_of[s.id] for s in test_ds.segments]
    return SplitFeatures(
        train=features.take_rows(train_rows),
        test=features.take_rows(test_rows),
        gold_train=[gold[i] for i in train_rows],
        gold_test=[gold[i] for i in test_rows],
        train_sources=[s.source for s in train_ds.segments],
        flags=flags,
        placeholders=placeholders,
    )

