"""Dataset-level scoring: load resources, score every segment, build features.

Bridges the per-segment metrics and the ensemble/evaluation layers: builds
vocabularies and similarity matrices over a dataset, scores every segment
(with one batched transport solve), substitutes placeholders for
unscorable cells, and assembles the rectangular feature matrix with
Reg-base and external columns appended.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from mteval.corpus import Dataset, dataset_gold, split_by_source
from mteval.embeddings import decontextualize, group_records, load_contextual, load_static
from mteval.ensemble import FeatureMatrix
from mteval.errors import ConfigError, DataError, tsv_rows, utf8_loader
from mteval.metrics import (
    METRICS,
    REG_BASE_FEATURES,
    MetricConfig,
    MetricVector,
    Resources,
    compute_placeholders,
    reg_base_features,
    score_segments,
)
from mteval.tokenization import load_wordpiece_vocab
from mteval.vsm import build_similarity_matrix, build_vocabulary, similarity_candidates

__all__ = [
    "RESERVED_FEATURE_NAMES",
    "RESOURCE_KEYS",
    "SplitFeatures",
    "assemble_features",
    "build_resources",
    "dataset_features",
    "feature_names",
    "load_external_scores",
    "score_dataset",
    "score_features",
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
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate feature columns")
        for name in names:
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

    resources = Resources()
    if paths.get("wordpiece_vocab") is not None:
        resources.wp_vocab = load_wordpiece_vocab(paths["wordpiece_vocab"])
    if "static_embeddings" in needed:
        resources.stores["words"] = load_static(paths["static_embeddings"])
    if "contextual_records" in needed:
        records = load_contextual(paths["contextual_records"])
        resources.contextual_groups = group_records(records)
        group_docs = [
            [record.token for record in resources.contextual_groups[key]]
            for key in sorted(resources.contextual_groups)
        ]
        resources.vocabs["contextual"] = build_vocabulary(group_docs)
        if any(METRICS[name].space == "pieces" for name in config.metrics):
            resources.stores["pieces"] = decontextualize(records)
    for space in resources.stores:
        resources.vocabs[space] = build_vocabulary(_side_documents(dataset, resources, space, config.lowercase))

    similarity = (config.similarity_threshold, config.similarity_exponent, config.similarity_top_k)
    candidates = {}  # both orders of a term space share one ranking of every term's partners
    for space, order in sorted({METRICS[name].similarity_key for name in config.metrics} - {None}):
        vocab, store = resources.vocabs[space], resources.stores[space]
        if space not in candidates:
            candidates[space] = similarity_candidates(vocab, store, *similarity)
        logger.info("building %s-order similarity matrix over %d %s terms", order, len(vocab.terms), space)
        resources.sims[(space, order)] = build_similarity_matrix(
            vocab, store, order, *similarity, candidates=candidates[space]
        )

    if paths.get("external_scores") is not None:
        resources.external = load_external_scores(paths["external_scores"])
        native = set(config.metrics) | set(REG_BASE_FEATURES)
        clash = native & set(resources.external)
        if clash:
            raise ConfigError(f"external score columns collide with native features: {sorted(clash)}")
    return resources


def _side_documents(dataset: Dataset, resources: Resources, space: str, lowercase: bool) -> list[list[str]]:
    """One document per segment side, the df unit for every vocabulary."""
    documents = []
    for segment in dataset.segments:
        for text in (segment.source, segment.reference, segment.hypothesis):
            if text is not None:
                documents.append(resources.tokens(space, text, lowercase))
    return documents


def score_dataset(dataset: Dataset, config: MetricConfig, resources: Resources) -> list[MetricVector]:
    """Score every segment, in dataset order (see `score_segments`)."""
    return score_segments(dataset.segments, config, resources)


def feature_names(config: MetricConfig, resources: Resources) -> list[str]:
    """Native metric columns + Reg-base surface columns + external columns."""
    return list(config.metrics) + (list(REG_BASE_FEATURES) if config.reg_base else []) + list(resources.external)


def assemble_features(
    dataset: Dataset, config: MetricConfig, resources: Resources, vectors: list[MetricVector]
) -> FeatureMatrix:
    """The feature table, one row per segment, columns in feature_names order."""
    names = feature_names(config, resources)
    rows = []
    for segment, vector in zip(dataset.segments, vectors):
        row = [vector.scores[name] for name in config.metrics]
        if config.reg_base:
            row.extend(reg_base_features(segment, resources, config.mode, config.lowercase))
        for name in resources.external:
            try:
                row.append(resources.external[name][segment.id])
            except KeyError:
                raise DataError(
                    f"external column {name!r} has no score for segment {segment.id!r}"
                ) from None
        rows.append(row)
    if not names:
        raise ConfigError("no features configured: enable metrics, reg_base, or external scores")
    return FeatureMatrix(rows, names, [s.id for s in dataset.segments])


def score_features(
    dataset: Dataset,
    config: MetricConfig,
    resources: Resources,
    placeholder_ids: set[str] | None = None,
) -> tuple[FeatureMatrix, dict[str, dict[str, str]], dict[str, float]]:
    """Score, fill placeholders, assemble features, collect flags.

    Each NaN cell of an unscorable metric gets the metric's placeholder:
    the worst value over the segments in ``placeholder_ids``, or over every
    segment when it is None.  Returns the feature matrix, the per-segment
    flags, and the placeholders used.
    """
    vectors = score_dataset(dataset, config, resources)
    observed = [v for v in vectors if placeholder_ids is None or v.segment_id in placeholder_ids]
    placeholders = compute_placeholders(observed, list(config.metrics))
    for vector in vectors:
        for name, value in vector.scores.items():
            if math.isnan(value):
                vector.scores[name] = placeholders[name]
    features = assemble_features(dataset, config, resources, vectors)
    flags = {v.segment_id: dict(v.flags) for v in vectors if v.flags}
    return features, flags, placeholders


@dataclass
class SplitFeatures:
    """Feature matrices and gold scores of one dataset, split by source."""

    train: FeatureMatrix
    test: FeatureMatrix
    gold_train: list[float]
    gold_test: list[float]
    train_sources: list[str]
    flags: dict[str, dict[str, str]] = field(default_factory=dict)
    placeholders: dict[str, float] = field(default_factory=dict)


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
    features, flags, placeholders = score_features(dataset, config, resources, train_ids)
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
