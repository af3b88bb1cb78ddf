"""Regressive ensembles over metric features (RegEMT and Reg-base).

Features are z-standardized, then a linear least-squares model and a
one-hidden-layer perceptron are fit against gold judgements; whichever
scores the higher Spearman correlation on a source-disjoint validation
subset is refit on the full training data.  Reg-base is the same machinery
restricted to the four surface length features.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from mteval._rng import round_half_up
from mteval.corpus import split_sources
from mteval.stats import spearman

__all__ = [
    "EnsembleModel",
    "FeatureMatrix",
    "MlpParams",
    "StandardizationParams",
    "fit_linear",
    "fit_mlp",
    "mlp_forward",
    "mlp_gradients",
    "mlp_loss",
    "predict",
    "select_model",
    "standardize_apply",
    "standardize_fit",
]

logger = logging.getLogger(__name__)

#: Spearman differences below this are ties, resolved in favour of linear.
SELECTION_TIE = 1e-9


@dataclass
class FeatureMatrix:
    """n segments x m features, with names and ids pinned to the rows."""

    rows: np.ndarray
    feature_names: list[str]
    segment_ids: list[str]

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        n, m = self.rows.shape
        if len(self.feature_names) != m:
            raise ValueError(f"{len(self.feature_names)} names for {m} feature columns")
        if len(self.segment_ids) != n:
            raise ValueError(f"{len(self.segment_ids)} ids for {n} rows")
        if len(set(self.feature_names)) != m:
            raise ValueError("feature names must be unique")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("feature matrix contains non-finite cells")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def m(self) -> int:
        return self.rows.shape[1]

    def select(self, names: list[str]) -> FeatureMatrix:
        """Column-subset copy in the order of ``names``."""
        indices = [self.feature_names.index(name) for name in names]
        return FeatureMatrix(self.rows[:, indices].copy(), list(names), list(self.segment_ids))

    def take_rows(self, indices: list[int]) -> FeatureMatrix:
        return FeatureMatrix(
            self.rows[indices].copy(),
            list(self.feature_names),
            [self.segment_ids[i] for i in indices],
        )


@dataclass
class StandardizationParams:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-d arrays of equal length")
        if np.any(self.std <= 0):
            raise ValueError("std must be strictly positive")

    @classmethod
    def identity(cls, m: int) -> StandardizationParams:
        return cls(np.zeros(m), np.ones(m))


@dataclass
class MlpParams:
    """Weights of the one-hidden-layer perceptron (ReLU hidden, linear out)."""

    w1: np.ndarray  # (m, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float


@dataclass
class EnsembleModel:
    kind: str  # "linear" | "mlp"
    feature_names: list[str]
    standardization: StandardizationParams
    weights: np.ndarray | None = None  # linear
    intercept: float | None = None  # linear
    mlp: MlpParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "linear" and (self.weights is None or self.intercept is None):
            raise ValueError("linear model needs weights and intercept")
        if self.kind == "mlp" and self.mlp is None:
            raise ValueError("mlp model needs its parameter block")


def standardize_fit(features: FeatureMatrix) -> StandardizationParams:
    """Per-feature mean and population std; constant columns get std 1."""
    if features.n < 2:
        raise ValueError("standardization needs at least 2 rows")
    rows = features.rows
    constant = np.all(rows == rows[0], axis=0)
    mean = np.where(constant, rows[0], rows.mean(axis=0))
    std = np.where(constant, 1.0, rows.std(axis=0))
    std = np.where(std > 0, std, 1.0)
    return StandardizationParams(mean=mean, std=std)


def standardize_apply(features: FeatureMatrix, params: StandardizationParams) -> FeatureMatrix:
    if features.m != len(params.mean):
        raise ValueError(f"matrix has {features.m} features, params cover {len(params.mean)}")
    rows = (features.rows - params.mean) / params.std
    return FeatureMatrix(rows, list(features.feature_names), list(features.segment_ids))


def fit_linear(
    features: FeatureMatrix,
    gold: list[float],
    standardization: StandardizationParams | None = None,
) -> EnsembleModel:
    """Least squares min ||Xw + b - y||^2 by normal equations damped by 1e-8 I.

    ``features`` should already be standardized; pass the params used so
    predict can reapply them (identity is assumed otherwise).
    """
    y = np.asarray(gold, dtype=float)
    if features.n != len(y):
        raise ValueError("gold length does not match feature rows")
    if features.n < 2:
        raise ValueError("linear fit needs at least 2 rows")
    design = np.hstack([features.rows, np.ones((features.n, 1))])
    gram = design.T @ design + 1e-8 * np.eye(features.m + 1)
    solution = np.linalg.solve(gram, design.T @ y)
    return EnsembleModel(
        kind="linear",
        feature_names=list(features.feature_names),
        standardization=standardization or StandardizationParams.identity(features.m),
        weights=solution[:-1],
        intercept=float(solution[-1]),
    )


def mlp_forward(params: MlpParams, rows: np.ndarray) -> np.ndarray:
    hidden = np.maximum(rows @ params.w1 + params.b1, 0.0)
    return hidden @ params.w2 + params.b2


def mlp_loss(params: MlpParams, rows: np.ndarray, y: np.ndarray) -> float:
    delta = mlp_forward(params, rows) - y
    return float(np.mean(delta * delta))


def mlp_gradients(params: MlpParams, rows: np.ndarray, y: np.ndarray, out: MlpParams | None = None) -> MlpParams:
    """Analytic MSE gradients (ReLU subgradient 0 at the kink); with ``out``,
    they are written into its arrays, its b2 replaced, and ``out`` returned."""
    if out is None:
        out = MlpParams(np.empty_like(params.w1), np.empty_like(params.b1), np.empty_like(params.w2), 0.0)
    pre = rows @ params.w1 + params.b1
    hidden = np.maximum(pre, 0.0)
    delta = (hidden @ params.w2 + params.b2 - y) * (2.0 / len(y))
    np.matmul(hidden.T, delta, out=out.w2)
    out.b2 = float(np.add.reduce(delta))
    d_hidden = delta[:, None] * params.w2 * (pre > 0)
    np.matmul(rows.T, d_hidden, out=out.w1)
    np.add.reduce(d_hidden, axis=0, out=out.b1)
    return out


def _unpack(theta: np.ndarray, m: int, hidden: int) -> MlpParams:
    """Views of a flat [w1, b1, w2, b2] vector as an MlpParams."""
    k = m * hidden
    return MlpParams(w1=theta[:k].reshape(m, hidden), b1=theta[k : k + hidden], w2=theta[k + hidden : -1], b2=theta[-1])


def fit_mlp(
    features: FeatureMatrix,
    gold: list[float],
    seed: int,
    standardization: StandardizationParams | None = None,
    hidden: int = 100,
    learning_rate: float = 1e-3,
    batch_size: int = 32,
    max_epochs: int = 500,
    patience: int = 25,
    val_fraction: float = 0.1,
) -> EnsembleModel:
    """Adam-trained MLP with early stopping on an internal validation slice.

    Deterministic for a fixed seed: initialization, the validation split,
    and every epoch's batch order all come from one seeded generator, and
    the best-validation parameters are restored at the end.
    """
    y = np.asarray(gold, dtype=float)
    rows = features.rows
    n, m = rows.shape
    if n != len(y):
        raise ValueError("gold length does not match feature rows")
    if n < 10:
        raise ValueError("mlp fit needs at least 10 rows; use the linear model below that")

    rng = np.random.default_rng(seed)
    limit1 = np.sqrt(6.0 / (m + hidden))
    limit2 = np.sqrt(6.0 / (hidden + 1))
    w1 = rng.uniform(-limit1, limit1, size=(m, hidden))
    w2 = rng.uniform(-limit2, limit2, size=hidden)
    # Adam is elementwise, so one flat [w1, b1, w2, b2] vector takes the same steps
    theta = np.concatenate([w1.ravel(), np.zeros(hidden), w2, [0.0]])

    n_val = min(max(1, round_half_up(val_fraction * n)), n - 1)  # at least one row to fit on
    order = rng.permutation(n)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    rows_fit, y_fit = rows[fit_idx], y[fit_idx]
    rows_val, y_val = rows[val_idx], y[val_idx]

    # every step updates these buffers in place, in the order of the
    # textbook Adam expressions, so each element rounds exactly as there
    live = _unpack(theta, m, hidden)
    live.b2 = theta[-1:]  # a view, so the forward pass sees every step
    grad, update, scale, moment1, moment2 = np.zeros((5, len(theta)))
    grads = _unpack(grad, m, hidden)  # views: mlp_gradients fills grad but its last cell
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best = theta.copy()
    best_val = np.inf
    best_epoch = epochs = stale = 0
    for epochs in range(1, max_epochs + 1):
        batch_order = rng.permutation(len(fit_idx))
        rows_epoch, y_epoch = rows_fit[batch_order], y_fit[batch_order]
        for start in range(0, len(fit_idx), batch_size):
            stop = start + batch_size
            grad[-1] = mlp_gradients(live, rows_epoch[start:stop], y_epoch[start:stop], out=grads).b2
            step += 1
            moment1 *= beta1
            moment1 += np.multiply(grad, 1 - beta1, out=update)
            moment2 *= beta2
            moment2 += np.multiply(np.square(grad, out=update), 1 - beta2, out=update)
            np.divide(moment1, 1 - beta1**step, out=update)  # m1_hat
            update *= learning_rate
            np.sqrt(np.divide(moment2, 1 - beta2**step, out=scale), out=scale)  # sqrt(m2_hat)
            scale += eps
            theta -= np.divide(update, scale, out=update)
        val_mse = mlp_loss(live, rows_val, y_val)
        if val_mse < best_val:
            best_val = val_mse
            best = theta.copy()
            best_epoch = epochs
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    logger.debug("mlp fit: %d epochs run, best epoch %d, validation MSE %.6g", epochs, best_epoch, best_val)

    return EnsembleModel(
        kind="mlp",
        feature_names=list(features.feature_names),
        standardization=standardization or StandardizationParams.identity(m),
        mlp=_unpack(best, m, hidden),
    )


def predict(model: EnsembleModel, features: FeatureMatrix) -> np.ndarray:
    """Standardize with the model's stored params, then run the forward pass.

    Feature names must match the fitted list exactly, order included, so a
    cross-lingual caller cannot silently feed misaligned columns.
    """
    if list(features.feature_names) != list(model.feature_names):
        raise ValueError(
            f"feature names {features.feature_names} do not match the model's {model.feature_names}"
        )
    rows = standardize_apply(features, model.standardization).rows
    if model.kind == "linear":
        return rows @ model.weights + model.intercept
    return mlp_forward(model.mlp, rows)


def select_model(
    features: FeatureMatrix,
    gold: list[float],
    seed: int,
    sources: list[str] | None = None,
    mlp_options: dict | None = None,
) -> EnsembleModel:
    """Fit linear and MLP on 80% of the sources, keep the validation winner.

    The 80/20 split is source-disjoint, shuffled by a generator derived
    from seed+1; the winner by validation Spearman (ties and degenerate
    validations go to linear) is refit on all rows before returning.
    """
    y = np.asarray(gold, dtype=float)
    if features.n != len(y):
        raise ValueError("gold length does not match feature rows")
    if features.n < 2:
        raise ValueError("model selection needs at least 2 rows")
    if sources is None:
        sources = list(features.segment_ids)
    if len(sources) != features.n:
        raise ValueError("sources must align with feature rows")
    mlp_options = dict(mlp_options or {})

    kind = "linear"
    fit_sources = set(split_sources(sources, 0.8, seed + 1)[0])
    fit_idx = [i for i, s in enumerate(sources) if s in fit_sources]
    val_idx = [i for i, s in enumerate(sources) if s not in fit_sources]
    if len(fit_idx) >= 2 and len(val_idx) >= 2:
        sub = features.take_rows(fit_idx)
        sub_params = standardize_fit(sub)
        sub_std = standardize_apply(sub, sub_params)
        y_fit = y[fit_idx]
        holdout = features.take_rows(val_idx)
        y_val = y[val_idx]

        linear_model = fit_linear(sub_std, y_fit, standardization=sub_params)
        rho_linear = spearman(predict(linear_model, holdout), y_val)
        rho_mlp = -np.inf
        if len(fit_idx) >= 10:
            mlp_model = fit_mlp(sub_std, y_fit, seed=seed, standardization=sub_params, **mlp_options)
            rho_mlp = spearman(predict(mlp_model, holdout), y_val)
        if rho_mlp - rho_linear > SELECTION_TIE:
            kind = "mlp"
        logger.debug(
            "model selection: linear %.4f vs mlp %s -> %s",
            rho_linear,
            "skipped" if rho_mlp == -np.inf else f"{rho_mlp:.4f}",
            kind,
        )

    params = standardize_fit(features)
    standardized = standardize_apply(features, params)
    if kind == "mlp":
        return fit_mlp(standardized, y, seed=seed, standardization=params, **mlp_options)
    return fit_linear(standardized, y, standardization=params)
