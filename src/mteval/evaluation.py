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
from mteval.pipeline import RESERVED_FEATURE_NAMES, SplitFeatures
from mteval.stats import spearman

__all__ = ["ablation", "correlation_report", "cross_lingual_eval", "evaluate"]

logger = logging.getLogger(__name__)


def correlation_report(features: FeatureMatrix, gold: list[float]) -> tuple[dict[str, float], dict[tuple[str, str], float]]:
    """Each feature's rho to gold, in column order, and the Spearman of every pair of features, 1.0 on the diagonal."""
    if features.n != len(gold):
        raise ValueError("gold length does not match feature rows")
    names = features.feature_names
    matrix = {(name, name): 1.0 for name in names} | _pairwise_spearman(features)
    return {name: spearman(features.rows[:, i], gold) for i, name in enumerate(names)}, matrix


def _pairwise_spearman(features: FeatureMatrix) -> dict[tuple[str, str], float]:
    """`spearman` of every pair of distinct columns, measured once and stored under both orders."""
    columns = dict(zip(features.feature_names, features.rows.T))
    matrix = {}
    for a, b in itertools.combinations(features.feature_names, 2):
        matrix[(a, b)] = matrix[(b, a)] = spearman(columns[a], columns[b])
    return matrix


def ablation(split: SplitFeatures, *, seed: int, mlp_options: dict | None = None) -> list[tuple[str | None, float]]:
    """Iteratively drop the feature most correlated with any other and refit.

    Pairwise |rho| is measured once, on the train split only; ties go to
    the lexicographically smaller name.  Returns one ``(eliminated,
    test_rho)`` pair per step: step 0 is the full ensemble, named None, and
    step k has dropped k features, down to the single-feature model.
    Every step's model comes from one `select_model` call.
    """
    train = split.train
    remaining = list(train.feature_names)
    if len(remaining) < 2:
        raise ValueError("ablation needs at least 2 features")

    # the order depends on the train table only, so every subset is known before any fit
    redundancy = {pair: abs(rho) for pair, rho in _pairwise_spearman(train).items()}
    eliminated, subsets = [None], [list(remaining)]
    while len(remaining) > 1:
        # the feature with the largest |rho| to any other remaining feature
        victim = min(remaining, key=lambda a: (-max(redundancy[(a, b)] for b in remaining if b != a), a))
        remaining.remove(victim)
        eliminated.append(victim)
        subsets.append(list(remaining))
        logger.debug("ablation step %d: dropped %s (%d left)", len(subsets) - 1, victim, len(remaining))
    models = select_model(
        [train.select(names) for names in subsets], split.gold_train, seed=seed, sources=split.train_sources, mlp_options=mlp_options
    )
    test_rhos = [spearman(predict(model, split.test.select(names)), split.gold_test) for names, model in zip(subsets, models)]
    return list(zip(eliminated, test_rhos))


def evaluate(
    split: SplitFeatures, *, seed: int, mlp_options: dict | None = None
) -> tuple[dict[str, float], dict[tuple[str, str], float], dict[str, str]]:
    """Fit RegEMT (all features) and Reg-base (surface features) on the train
    side in one `select_model` call, and return `correlation_report` on the
    test side of every feature and both ensemble prediction columns, plus
    each ensemble's model kind ("linear" or "mlp") by column name."""
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
        [*split.test.feature_names, *RESERVED_FEATURE_NAMES],
        list(split.test.segment_ids),
    )
    return *correlation_report(extended, split.gold_test), dict(zip(RESERVED_FEATURE_NAMES, (regemt.kind, reg_base.kind)))


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
