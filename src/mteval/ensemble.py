"""Regressive ensembles over metric features (RegEMT and Reg-base).

Features are z-standardized, then a linear least-squares model and a
one-hidden-layer perceptron are fit against gold judgements; whichever
scores the higher Spearman correlation on a source-disjoint validation
subset is refit on the full training data.  Reg-base is the same machinery
restricted to the four surface length features.
"""

from __future__ import annotations

import logging

import numpy as np

from mteval._rng import round_half_up
from mteval.corpus import split_sources
from mteval.stats import spearman

__all__ = [
    "EnsembleModel",
    "FeatureMatrix",
    "MlpParams",
    "fit_linear",
    "fit_mlp",
    "mlp_forward",
    "mlp_gradients",
    "mlp_loss",
    "predict",
    "select_model",
    "standardize",
]

logger = logging.getLogger(__name__)

#: Spearman differences below this are ties, resolved in favour of linear.
SELECTION_TIE = 1e-9

#: Activation cells (fits x batch rows x hidden units) of one lockstep group.
#: It bounds the group's three activation buffers (2 MiB each).
LOCKSTEP_CELLS = 1 << 18


class FeatureMatrix:
    """n segments x m features, with names and ids pinned to the rows."""

    def __init__(self, rows: np.ndarray, feature_names: list[str], segment_ids: list[str]):
        self.rows, self.feature_names, self.segment_ids = np.asarray(rows, dtype=float), feature_names, segment_ids
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


class MlpParams:
    """Weights of the one-hidden-layer perceptron (ReLU hidden, linear out): w1 is (m, hidden), b1 and w2 (hidden,)."""

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: float):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2


class EnsembleModel:
    """A "linear" (weights, intercept) or "mlp" model on columns standardized by the mean and std of its fit rows."""

    def __init__(
        self, kind: str, feature_names: list[str], mean: np.ndarray, std: np.ndarray,
        weights: np.ndarray | None = None, intercept: float | None = None, mlp: MlpParams | None = None,
    ):
        self.kind, self.feature_names, self.mean, self.std = kind, feature_names, mean, std
        self.weights, self.intercept, self.mlp = weights, intercept, mlp
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "linear" and (self.weights is None or self.intercept is None):
            raise ValueError("linear model needs weights and intercept")
        if self.kind == "mlp" and self.mlp is None:
            raise ValueError("mlp model needs its parameter block")


def standardize(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows - mean) / std per column, with that mean and population std; a constant column keeps std 1."""
    if len(rows) < 2:
        raise ValueError("standardization needs at least 2 rows")
    constant = np.all(rows == rows[0], axis=0)
    mean = np.where(constant, rows[0], rows.mean(axis=0))
    std = np.where(constant, 1.0, rows.std(axis=0))
    std = np.where(std > 0, std, 1.0)
    return (rows - mean) / std, mean, std


def fit_linear(features: FeatureMatrix, gold: list[float]) -> EnsembleModel:
    """Least squares min ||Xw + b - y||^2 by normal equations damped by 1e-8 I.

    X is ``features`` standardized by their own mean and std; the model
    keeps those, so predict takes raw features.
    """
    y = np.asarray(gold, dtype=float)
    if features.n != len(y):
        raise ValueError("gold length does not match feature rows")
    if features.n < 2:
        raise ValueError("linear fit needs at least 2 rows")
    standardized, mean, std = standardize(features.rows)
    design = np.hstack([standardized, np.ones((features.n, 1))])
    gram = design.T @ design + 1e-8 * np.eye(features.m + 1)
    solution = np.linalg.solve(gram, design.T @ y)
    return EnsembleModel(
        kind="linear",
        feature_names=list(features.feature_names),
        mean=mean,
        std=std,
        weights=solution[:-1],
        intercept=float(solution[-1]),
    )


def mlp_forward(params: MlpParams, rows: np.ndarray) -> np.ndarray:
    hidden = np.maximum(rows @ params.w1 + params.b1, 0.0)
    return hidden @ params.w2 + params.b2


def mlp_loss(params: MlpParams, rows: np.ndarray, y: np.ndarray) -> float:
    delta = mlp_forward(params, rows) - y
    return float(np.mean(delta * delta))


def mlp_gradients(params: MlpParams, rows: np.ndarray, y: np.ndarray) -> MlpParams:
    """Analytic MSE gradients (ReLU subgradient 0 at the kink), by the pass every training step takes."""
    (m, hidden), y = params.w1.shape, np.asarray(y, dtype=float)
    g_w1, g_b1, g_w2, g_b2 = np.empty((m, hidden)), np.empty((1, hidden)), np.empty((1, hidden)), np.empty(1)
    stacked = ([params.w1], params.b1[None], params.w2[None], np.full(1, params.b2, dtype=float))
    _stacked_gradients([rows], stacked, y[None], ([g_w1], g_b1, g_w2, g_b2), np.empty((3, 1, len(y) + len(y) % 2, hidden)))
    return MlpParams(g_w1, g_b1[0], g_w2[0], g_b2[0])


def _stacked_gradients(rows, params, y, grads, work) -> None:
    """Write into ``grads`` (laid out as `_views` says) the MSE gradients of F fits on (F, b) targets.

    Each matrix product is its fit's own 2-d call through `np.dot`, which
    reaches the same BLAS routine as `@` with less per-call overhead (a
    tier-1 test pins the two to the same bits), on operands that start
    16-byte aligned, as a one-fit pass's fresh arrays do (some OpenBLAS
    kernels round a vector at an 8-byte offset differently); so ``work``
    is at least (3, F, b, hidden) with an even batch axis.  The stacked work
    rounds element by element or sums along the batch axis, so each fit's
    gradients are bit for bit its one-fit ones."""
    (w1, b1, w2, b2), (g_w1, g_b1, g_w2, g_b2) = params, grads
    (f, b), delta = y.shape, np.empty((len(y), y.shape[1] + y.shape[1] % 2))[:, : y.shape[1]]
    pre, hidden, d_hidden = work[:, :f, :b]
    for i, x in enumerate(rows):
        np.dot(x, w1[i], out=pre[i])
    pre += b1[:, None]
    np.maximum(pre, 0.0, out=hidden)
    for i in range(f):
        np.dot(hidden[i], w2[i], out=delta[i])
    delta += b2[:, None]
    delta -= y
    delta *= 2.0 / b
    np.multiply(delta[:, :, None], w2[:, None], out=d_hidden)
    d_hidden *= pre > 0
    np.add.reduce(delta, axis=1, out=g_b2)
    np.add.reduce(d_hidden, axis=1, out=g_b1)
    for i, x in enumerate(rows):
        np.dot(hidden[i].T, delta[i], out=g_w2[i])
        np.dot(x.T, d_hidden[i], out=g_w1[i])


def _layout(ms: list[int], hidden: int) -> list[int]:
    """Cells of each block of a vector packing F fits: their w1 blocks, F b1 rows, F w2 rows, F b2.

    Each w1 block and b1 and w2 row gets an even count, so it starts 16-byte aligned, as a fresh array does."""
    row = hidden + hidden % 2
    return [m * hidden + m * hidden % 2 for m in ms] + [row] * 2 * len(ms) + [1] * len(ms)


def _views(theta: np.ndarray, ms: list[int], hidden: int) -> tuple:
    """(w1 list, b1, w2, b2) views of a vector packed as `_layout` lays it out, b1 and w2 as (F, hidden)."""
    starts, f = np.cumsum([0, *_layout(ms, hidden)]), len(ms)
    w1 = [theta[start : start + m * hidden].reshape(m, hidden) for start, m in zip(starts, ms)]
    b1, w2 = theta[starts[f] : -f].reshape(2, f, -1)[:, :, :hidden]
    return w1, b1, w2, theta[-f:]


def fit_mlp(
    candidates: list[FeatureMatrix], gold: list[float], seed: int, hidden: int = 100, learning_rate: float = 1e-3,
    batch_size: int = 32, max_epochs: int = 500, patience: int = 25, val_fraction: float = 0.1,
) -> list[EnsembleModel]:
    """Adam-trained MLP of each candidate against ``gold``, in candidate order.

    Each fit standardizes its candidate by its own mean and std (the model
    keeps them, so predict takes raw features), stops early on an internal
    validation slice, draws its start, split and batch orders from its own
    generator of ``seed``, and returns its best-validation parameters.  The
    fits step in lockstep in groups of at most LOCKSTEP_CELLS activation
    cells, each bit for bit its candidate's fit alone; each group logs one
    INFO line.
    """
    y = np.asarray(gold, dtype=float)
    for features in candidates:
        if features.n != len(y):
            raise ValueError("gold length does not match feature rows")
        if features.n < 10:
            raise ValueError("mlp fit needs at least 10 rows; use the linear model below that")
    size = max(1, LOCKSTEP_CELLS // (min(batch_size, max(1, len(y))) * hidden))
    options = (y, seed, hidden, learning_rate, batch_size, max_epochs, patience, val_fraction)
    return [model for start in range(0, len(candidates), size) for model in _fit_lockstep(candidates[start : start + size], *options)]


def _fit_lockstep(candidates, y, seed, hidden, learning_rate, batch_size, max_epochs, patience, val_fraction) -> list[EnsembleModel]:
    """`fit_mlp` of one lockstep group of candidates."""
    n, f, ms = len(y), len(candidates), [features.m for features in candidates]
    n_val = min(max(1, round_half_up(val_fraction * n)), n - 1)  # at least one row to fit on
    n_fit, models, rngs, splits = n - n_val, [], [], []
    # Adam is elementwise, so one flat vector of every fit's parameters takes
    # each fit's own steps; each step updates these buffers in place, in the
    # order of the textbook Adam expressions, so each element rounds exactly as there
    theta = np.zeros(sum(_layout(ms, hidden)))
    grad, update, scale, moment1, moment2 = np.zeros((5, len(theta)))
    params, grads = _views(theta, ms, hidden), _views(grad, ms, hidden)
    for i, (features, m) in enumerate(zip(candidates, ms)):
        rows, mean, std = standardize(features.rows)
        rng, limit1, limit2 = np.random.default_rng(seed), np.sqrt(6.0 / (m + hidden)), np.sqrt(6.0 / (hidden + 1))
        params[0][i][...] = rng.uniform(-limit1, limit1, size=(m, hidden))
        params[2][i] = rng.uniform(-limit2, limit2, size=hidden)
        order = rng.permutation(n)
        val_idx, fit_idx = order[:n_val], order[n_val:]
        rngs.append(rng)
        splits.append((rows[fit_idx], y[fit_idx], rows[val_idx], y[val_idx]))
        models.append(EnsembleModel("mlp", list(features.feature_names), mean, std, mlp=MlpParams(*(v[i].copy() for v in params))))

    rows_per_batch = min(batch_size, n_fit)  # sizes the buffers by the rows, not the option
    work = np.empty((3, f, rows_per_batch + rows_per_batch % 2, hidden))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best_val, best_epoch, epochs, stale = [np.inf] * f, [0] * f, [0] * f, [0] * f
    live, step = list(range(f)), 0
    for epoch in range(1, max_epochs + 1):
        batch_orders = [rngs[j].permutation(n_fit) for j in live]
        rows_epoch = [splits[j][0][order] for j, order in zip(live, batch_orders)]
        y_epoch = np.array([splits[j][1][order] for j, order in zip(live, batch_orders)])
        for start in range(0, n_fit, batch_size):
            stop = start + batch_size
            _stacked_gradients([x[start:stop] for x in rows_epoch], params, y_epoch[:, start:stop], grads, work)
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
        for i, j in enumerate(live):
            epochs[j] = epoch
            val_mse = mlp_loss(MlpParams(*(v[i] for v in params)), *splits[j][2:])
            if val_mse < best_val[j]:
                best_val[j], best_epoch[j], stale[j] = val_mse, epoch, 0
                models[j].mlp = MlpParams(*(v[i].copy() for v in params))  # copies: theta steps on
            else:
                stale[j] += 1
        keep = np.array([stale[j] < max(1, patience) for j in live])  # a fit that just improved runs on
        if not keep.all():  # drop the stopped fits' cells from every vector
            cells = np.repeat(np.tile(keep, 4), _layout(ms, hidden))
            theta, moment1, moment2 = theta[cells], moment1[cells], moment2[cells]
            live, ms = [j for j, k in zip(live, keep) if k], [m for m, k in zip(ms, keep) if k]
            if not live:
                break
            grad, update, scale = np.zeros((3, len(theta)))
            params, grads = _views(theta, ms, hidden), _views(grad, ms, hidden)

    logger.info("mlp: %d fits in lockstep, %d steps, epochs run %s", f, step, ",".join(map(str, epochs)))
    for j in range(f):
        logger.debug("mlp fit: %d epochs run, best epoch %d, validation MSE %.6g", epochs[j], best_epoch[j], best_val[j])
    return models


def predict(model: EnsembleModel, features: FeatureMatrix) -> np.ndarray:
    """Standardize by the model's stored mean and std, then run the forward pass.

    Feature names must match the fitted list exactly, order included, so a
    cross-lingual caller cannot silently feed misaligned columns.
    """
    if list(features.feature_names) != list(model.feature_names):
        raise ValueError(
            f"feature names {features.feature_names} do not match the model's {model.feature_names}"
        )
    rows = (features.rows - model.mean) / model.std
    if model.kind == "linear":
        return rows @ model.weights + model.intercept
    return mlp_forward(model.mlp, rows)


def select_model(
    candidates: list[FeatureMatrix], gold: list[float], seed: int, sources: list[str] | None = None, mlp_options: dict | None = None
) -> list[EnsembleModel]:
    """Fit linear and MLP on 80% of the sources, keep each candidate's validation winner.

    The candidates share their rows (column subsets of one table, say), so
    they share the source-disjoint 80/20 split, shuffled by a generator of
    seed+1.  The winner by validation Spearman (ties and degenerate splits
    go to linear) is refit on all rows.  The MLPs are two `fit_mlp` batches,
    every candidate on the split, then the MLP winners' refits; each model
    is bit for bit its candidate's selection alone, logged at INFO.
    """
    y = np.asarray(gold, dtype=float)
    if any(features.n != len(y) for features in candidates):
        raise ValueError("gold length does not match feature rows")
    if len(y) < 2:
        raise ValueError("model selection needs at least 2 rows")
    if any(features.segment_ids != candidates[0].segment_ids for features in candidates):
        raise ValueError("candidates must share their rows")
    if sources is None:
        sources = list(candidates[0].segment_ids)
    if len(sources) != len(y):
        raise ValueError("sources must align with feature rows")
    mlp_options = dict(mlp_options or {})

    kinds = ["linear"] * len(candidates)
    fit_sources = set(split_sources(sources, 0.8, seed + 1)[0])
    fit_idx = [i for i, s in enumerate(sources) if s in fit_sources]
    val_idx = [i for i, s in enumerate(sources) if s not in fit_sources]
    if len(fit_idx) >= 2 and len(val_idx) >= 2:
        subsets, y_fit, y_val = [features.take_rows(fit_idx) for features in candidates], y[fit_idx], y[val_idx]
        mlps = fit_mlp(subsets, y_fit, seed, **mlp_options) if len(fit_idx) >= 10 else [None] * len(candidates)
        for i, (subset, mlp_model) in enumerate(zip(subsets, mlps)):
            holdout = candidates[i].take_rows(val_idx)
            rho_linear = spearman(predict(fit_linear(subset, y_fit), holdout), y_val)
            rho_mlp = spearman(predict(mlp_model, holdout), y_val) if mlp_model else -np.inf
            kinds[i] = "mlp" if rho_mlp - rho_linear > SELECTION_TIE else "linear"
            outcome = "skipped -> linear" if mlp_model is None else f"{rho_mlp:.4f} -> {kinds[i]} by {abs(rho_mlp - rho_linear):.4f}"
            logger.info("model selection: linear %.4f vs mlp %s", rho_linear, outcome)
    else:
        logger.info("model selection: no source-disjoint validation split -> linear")

    refit = iter(fit_mlp([features for features, kind in zip(candidates, kinds) if kind == "mlp"], y, seed, **mlp_options))
    return [next(refit) if kind == "mlp" else fit_linear(features, y) for features, kind in zip(candidates, kinds)]
