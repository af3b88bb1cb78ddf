"""Evaluation protocol: correlations to gold, ablation, cross-lingual transfer.

Everything is judged by Spearman's rank correlation, on features already
split by source (`pipeline.dataset_features`).  `evaluate` reports each
feature's test correlation plus the RegEMT and Reg-base ensembles and their
pairwise correlation matrix; `ablation` repeatedly drops the most redundant
feature and refits; `cross_lingual_eval` fits on one split's train side and
reports on another's test side.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np

from mteval.ensemble import FeatureMatrix, predict, select_model
from mteval.errors import ConfigError
from mteval.metrics import REG_BASE_FEATURES
from mteval.pipeline import SplitFeatures
from mteval.stats import spearman

__all__ = [
    "AblationStep",
    "CorrelationReport",
    "EvaluationResult",
    "ablation",
    "correlation_report",
    "cross_lingual_eval",
    "evaluate",
]

logger = logging.getLogger(__name__)


class CorrelationReport:
    """Pairwise Spearman matrix of features plus each one's rho to gold."""

    def __init__(self, names: list[str], matrix: dict[tuple[str, str], float], to_gold: dict[str, float]):
        self.names, self.matrix, self.to_gold = names, matrix, to_gold


def correlation_report(features: FeatureMatrix, gold: list[float]) -> CorrelationReport:
    """All pairwise feature correlations and each feature's rho to gold."""
    if features.n != len(gold):
        raise ValueError("gold length does not match feature rows")
    names = list(features.feature_names)
    matrix = {(name, name): 1.0 for name in names} | _pairwise_spearman(features)
    to_gold = {name: spearman(features.rows[:, i], gold) for i, name in enumerate(names)}
    return CorrelationReport(names=names, matrix=matrix, to_gold=to_gold)


def _pairwise_spearman(features: FeatureMatrix) -> dict[tuple[str, str], float]:
    """`spearman` of every pair of distinct columns, measured once and stored under both orders."""
    columns = dict(zip(features.feature_names, features.rows.T))
    matrix = {}
    for a, b in itertools.combinations(features.feature_names, 2):
        matrix[(a, b)] = matrix[(b, a)] = spearman(columns[a], columns[b])
    return matrix


class AblationStep:
    def __init__(self, step: int, eliminated: str | None, remaining_count: int, test_rho: float):
        # ``eliminated`` is None on the step-0 full-ensemble record
        self.step, self.eliminated, self.remaining_count, self.test_rho = step, eliminated, remaining_count, test_rho


def ablation(split: SplitFeatures, *, seed: int, mlp_options: dict | None = None) -> list[AblationStep]:
    """Iteratively drop the feature most correlated with any other and refit.

    Pairwise |rho| is measured once, on the train split only; ties go to
    the lexicographically smaller name.  Step 0 records the full ensemble,
    and the curve ends once the single-feature model has been recorded.
    Every step's model comes from one `select_model` call.
    """
    train = split.train
    remaining = list(train.feature_names)
    if len(remaining) < 2:
        raise ValueError("ablation needs at least 2 features")

    # the order depends on the train table only, so every subset is known before any fit
    redundancy = {pair: abs(rho) for pair, rho in _pairwise_spearman(train).items()}
    steps, subsets = [AblationStep(0, None, len(remaining), 0.0)], [list(remaining)]
    for step_no in range(1, len(train.feature_names)):
        # the feature with the largest |rho| to any other remaining feature
        victim = min(remaining, key=lambda a: (-max(redundancy[(a, b)] for b in remaining if b != a), a))
        remaining.remove(victim)
        steps.append(AblationStep(step_no, victim, len(remaining), 0.0))
        subsets.append(list(remaining))
        logger.debug("ablation step %d: dropped %s (%d left)", step_no, victim, len(remaining))
    models = select_model(
        [train.select(names) for names in subsets], split.gold_train, seed=seed, sources=split.train_sources, mlp_options=mlp_options
    )
    for step, names, model in zip(steps, subsets, models):
        step.test_rho = spearman(predict(model, split.test.select(names)), split.gold_test)
    return steps


class EvaluationResult:
    """Test-split correlations of every feature and both ensembles."""

    def __init__(self, report: CorrelationReport, regemt_kind: str, reg_base_kind: str):
        self.report, self.regemt_kind, self.reg_base_kind = report, regemt_kind, reg_base_kind


def evaluate(split: SplitFeatures, *, seed: int, mlp_options: dict | None = None) -> EvaluationResult:
    """Fit RegEMT (all features) and Reg-base (surface features) on the train
    side in one `select_model` call, then report test-side Spearman
    correlations for every feature and both ensemble prediction columns,
    plus their pairwise matrix."""
    base_names = list(REG_BASE_FEATURES)
    if not set(base_names) <= set(split.train.feature_names):
        raise ConfigError("evaluate reports Reg-base and needs reg_base features enabled")
    regemt, reg_base = select_model(
        [split.train, split.train.select(base_names)], split.gold_train, seed=seed, sources=split.train_sources, mlp_options=mlp_options
    )
    predictions = predict(regemt, split.test)
    base_predictions = predict(reg_base, split.test.select(base_names))
    extended = FeatureMatrix(
        np.hstack([split.test.rows, predictions[:, None], base_predictions[:, None]]),
        list(split.test.feature_names) + ["RegEMT", "Reg-base"],
        list(split.test.segment_ids),
    )
    report = correlation_report(extended, split.gold_test)
    return EvaluationResult(report=report, regemt_kind=regemt.kind, reg_base_kind=reg_base.kind)


def cross_lingual_eval(
    fit_split: SplitFeatures, eval_split: SplitFeatures, *, seed: int, mlp_options: dict | None = None
) -> float:
    """RegEMT transfer: the Spearman rho on ``eval_split``'s test side of
    the ensemble fit on ``fit_split``'s train side.  Both must hold the same
    feature columns (predict refuses misaligned names)."""
    (model,) = select_model(
        [fit_split.train], fit_split.gold_train, seed=seed, sources=fit_split.train_sources, mlp_options=mlp_options
    )
    return spearman(predict(model, eval_split.test), eval_split.gold_test)
