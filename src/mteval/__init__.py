"""Segment-level machine-translation quality metrics and regressive ensembles.

The library computes surface metrics (sentence BLEU, length features),
embedding metrics (soft cosine measure, word mover's distance over static,
decontextualized, or contextual token vectors), and a part-of-speech
transition metric, then ensembles them with a trained regressor (RegEMT)
and evaluates everything by Spearman correlation to segment-level
judgements, including cross-lingual transfer and correlation-driven
ablation.
"""

from mteval.corpus import Dataset, GoldScore, Segment, average_judgements, load_dataset, split_by_source
from mteval.embeddings import ContextualRecord, EmbeddingStore, decontextualize, load_static
from mteval.ensemble import (
    EnsembleModel,
    FeatureMatrix,
    StandardizationParams,
    fit_linear,
    fit_mlp,
    predict,
    select_model,
    standardize_apply,
    standardize_fit,
)
from mteval.evaluation import AblationCurve, CorrelationReport, ablation, correlation_report, cross_lingual_eval
from mteval.metrics import (
    FlowSolution,
    MetricConfig,
    MetricVector,
    TransitionMatrix,
    UnscorableSegment,
    compositionality,
    reg_base_features,
    scm,
    score_segment,
    sentence_bleu,
    transition_graph,
    wmd,
    wmd_contextual,
)
from mteval.stats import spearman
from mteval.tokenization import WordPieceVocab, load_wordpiece_vocab, whitespace_tokenize, wordpiece_tokenize
from mteval.vsm import SimilarityMatrix, Vocabulary, WeightedBow, bow_nfx, bow_nnx, build_similarity_matrix, build_vocabulary

__version__ = "0.1.0"

__all__ = [
    "AblationCurve",
    "ContextualRecord",
    "CorrelationReport",
    "Dataset",
    "EmbeddingStore",
    "EnsembleModel",
    "FeatureMatrix",
    "FlowSolution",
    "GoldScore",
    "MetricConfig",
    "MetricVector",
    "Segment",
    "SimilarityMatrix",
    "StandardizationParams",
    "TransitionMatrix",
    "UnscorableSegment",
    "Vocabulary",
    "WeightedBow",
    "WordPieceVocab",
    "ablation",
    "average_judgements",
    "bow_nfx",
    "bow_nnx",
    "build_similarity_matrix",
    "build_vocabulary",
    "compositionality",
    "correlation_report",
    "cross_lingual_eval",
    "decontextualize",
    "fit_linear",
    "fit_mlp",
    "load_dataset",
    "load_static",
    "load_wordpiece_vocab",
    "predict",
    "reg_base_features",
    "scm",
    "score_segment",
    "select_model",
    "sentence_bleu",
    "spearman",
    "split_by_source",
    "standardize_apply",
    "standardize_fit",
    "transition_graph",
    "whitespace_tokenize",
    "wmd",
    "wmd_contextual",
    "wordpiece_tokenize",
]
