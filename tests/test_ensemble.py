import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mteval.ensemble
from mteval._rng import round_half_up
from mteval.ensemble import (
    EnsembleModel,
    FeatureMatrix,
    MlpParams,
    fit_linear,
    fit_mlp,
    mlp_forward,
    mlp_gradients,
    mlp_loss,
    predict,
    select_model,
    standardize,
)
from mteval.stats import spearman

from oracles import finite_difference_gradients, loop_fit_mlp
from test_perfbench_digests import require_openblas


def matrix(rows, names=None, ids=None):
    rows = np.asarray(rows, dtype=float)
    names = names or [f"f{j}" for j in range(rows.shape[1])]
    ids = ids or [f"s{i}" for i in range(rows.shape[0])]
    return FeatureMatrix(rows, names, ids)


def random_matrix(rng, n, m):
    return matrix(rng.normal(size=(n, m)))


def standardized(features):
    """The rows a fit on ``features`` trains on: standardized by their own mean and std."""
    return standardize(features.rows)[0]


# ---------------------------------------------------------------------------
# feature matrix plumbing
# ---------------------------------------------------------------------------


def test_feature_matrix_validation():
    with pytest.raises(ValueError, match="2-d"):
        FeatureMatrix(np.zeros(3), ["a"], ["x", "y", "z"])
    with pytest.raises(ValueError, match="names"):
        matrix(np.zeros((2, 2)), names=["a"])
    with pytest.raises(ValueError, match="ids"):
        matrix(np.zeros((2, 2)), ids=["only"])
    with pytest.raises(ValueError, match="unique"):
        matrix(np.zeros((2, 2)), names=["a", "a"])
    with pytest.raises(ValueError, match="non-finite"):
        matrix([[np.nan, 1.0]])


def test_feature_matrix_select_and_take_rows():
    m = matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], names=["a", "b", "c"], ids=["x", "y"])
    sub = m.select(["c", "a"])
    assert sub.rows.tolist() == [[3.0, 1.0], [6.0, 4.0]]
    assert sub.feature_names == ["c", "a"]
    rows = m.take_rows([1])
    assert rows.rows.tolist() == [[4.0, 5.0, 6.0]]
    assert rows.segment_ids == ["y"]


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def test_standardize_centers_and_scales():
    rng = np.random.default_rng(0)
    m = random_matrix(rng, 50, 4)
    out, mean, std = standardize(m.rows)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)
    # population std, not the n-1 sample flavour
    assert np.allclose(std, m.rows.std(axis=0), atol=0)


def test_standardize_constant_column_gets_unit_std():
    m = matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    out, mean, std = standardize(m.rows)
    assert std[1] == 1.0
    assert out[:, 1].tolist() == [0.0, 0.0, 0.0]


def test_standardize_roundtrip():
    rng = np.random.default_rng(1)
    m = random_matrix(rng, 20, 3)
    out, mean, std = standardize(m.rows)
    back = out * std + mean
    assert np.allclose(back, m.rows, atol=1e-12, rtol=0)


def test_standardize_errors():
    with pytest.raises(ValueError, match="2 rows"):
        standardize(matrix([[1.0, 2.0]]).rows)


# ---------------------------------------------------------------------------
# linear model
# ---------------------------------------------------------------------------


def test_fit_linear_two_point_line():
    # standardized, the points sit at -1 and 1, so the line is 0.5 x + 0.5
    model = fit_linear(matrix([[0.0], [1.0]]), [0.0, 1.0])
    assert abs(model.weights[0] - 0.5) < 1e-6
    assert abs(model.intercept - 0.5) < 1e-6


def test_fit_linear_recovers_exact_coefficients():
    rng = np.random.default_rng(2)
    m = random_matrix(rng, 40, 3)
    w_true = np.array([2.0, -1.0, 0.5])
    y = m.rows @ w_true + 4.0
    model = fit_linear(m, y)
    raw_weights = model.weights / model.std  # back from standardized to raw feature units
    assert np.allclose(raw_weights, w_true, atol=1e-6)
    assert abs(model.intercept - raw_weights @ model.mean - 4.0) < 1e-6
    assert np.allclose(predict(model, m), y, atol=1e-6)


def test_fit_linear_matches_lstsq_oracle():
    rng = np.random.default_rng(3)
    m = random_matrix(rng, 50, 5)
    y = rng.normal(size=50)
    model = fit_linear(m, y)
    design = np.hstack([standardize(m.rows)[0], np.ones((50, 1))])
    oracle, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.allclose(model.weights, oracle[:-1], atol=1e-6)
    assert abs(model.intercept - oracle[-1]) < 1e-6


def test_fit_linear_errors():
    with pytest.raises(ValueError, match="gold length"):
        fit_linear(matrix(np.zeros((3, 2))), [1.0, 2.0])
    with pytest.raises(ValueError, match="2 rows"):
        fit_linear(matrix([[1.0]]), [1.0])


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 5:
        rows = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        params = MlpParams(
            w1=rng.normal(size=(3, 4)) * 0.5,
            b1=rng.normal(size=4) * 0.1,
            w2=rng.normal(size=4) * 0.5,
            b2=float(rng.normal()),
        )
        # stay away from ReLU kinks where the subgradient is ambiguous
        pre = rows @ params.w1 + params.b1
        if np.min(np.abs(pre)) < 1e-3:
            continue
        analytic = mlp_gradients(params, rows, y)
        numeric = finite_difference_gradients(
            lambda p: mlp_loss(MlpParams(**p), rows, y),
            {"w1": params.w1, "b1": params.b1, "w2": params.w2, "b2": params.b2},
        )
        for name in ("w1", "b1", "w2", "b2"):
            a = np.asarray(getattr(analytic, name), dtype=float)
            n = np.asarray(numeric[name], dtype=float)
            scale = np.linalg.norm(a) + np.linalg.norm(n) + 1e-12
            assert np.linalg.norm(a - n) / scale < 1e-7, name
        checked += 1


def assert_dot_matches_matmul(a, b, out):
    want = a @ b
    np.dot(a, b, out=out)
    assert out.tobytes() == want.tobytes(), (a.shape, b.shape)


@pytest.mark.parametrize("hidden", [8, 100])
def test_np_dot_and_matmul_give_the_same_bits_on_every_lockstep_product(hidden):
    # the lockstep step forms its four products with np.dot (less per-call overhead);
    # a numpy or BLAS build that routes np.dot and @ differently must fail here
    rng = np.random.default_rng(hidden)
    ms, n = list(range(1, 13)), 45
    theta, grad = rng.normal(size=(2, sum(mteval.ensemble._layout(ms, hidden))))
    (w1, _, w2, _), (g_w1, _, g_w2, _) = mteval.ensemble._views(theta, ms, hidden), mteval.ensemble._views(grad, ms, hidden)
    for b in (32, 13, 1):  # full batches, a partial last one, a single row
        pre, hidden_out, d_hidden = np.empty((3, len(ms), 32, hidden))[:, :, :b]
        delta = np.empty((len(ms), b))
        for i, m in enumerate(ms):
            x = rng.normal(size=(n, m))[rng.permutation(n)][5 : 5 + b]  # a row slice of the epoch's gathered rows
            d_hidden[i] = rng.normal(size=(b, hidden)) * (rng.random((b, hidden)) < 0.5)  # ReLU's zeros
            assert_dot_matches_matmul(x, w1[i], pre[i])  # 2-d x 2-d
            assert_dot_matches_matmul(np.maximum(pre[i], 0.0, out=hidden_out[i]), w2[i], delta[i])  # matrix x vector
            assert_dot_matches_matmul(hidden_out[i].T, delta[i], g_w2[i])  # transposed view x vector, into a _views slice
            assert_dot_matches_matmul(x.T, d_hidden[i], g_w1[i])  # transposed view x matrix, into a _views slice


def test_fit_mlp_is_deterministic():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 40, 3)
    y = (m.rows @ np.array([1.0, -2.0, 0.5])).tolist()
    (a,) = fit_mlp([m], y, 11, hidden=8, max_epochs=30)
    (b,) = fit_mlp([m], y, 11, hidden=8, max_epochs=30)
    assert np.array_equal(predict(a, m), predict(b, m))
    (c,) = fit_mlp([m], y, 12, hidden=8, max_epochs=30)
    assert not np.array_equal(predict(a, m), predict(c, m))


def test_fit_mlp_learns_a_noisy_linear_map():
    rng = np.random.default_rng(6)
    m = random_matrix(rng, 120, 2)
    y = m.rows @ np.array([2.0, -1.0]) + 0.05 * rng.normal(size=120)
    (model,) = fit_mlp([m], y, 7)
    pred = predict(model, m)
    residual = float(np.mean((pred - y) ** 2))
    assert residual < 0.2 * float(np.var(y))
    assert spearman(pred, y) > 0.9


@pytest.mark.parametrize(("n", "val_fraction"), [(20, 0.99), (256, 0.999), (320, 0.999)])
def test_fit_mlp_keeps_a_row_to_fit_on(monkeypatch, n, val_fraction):
    # a validation slice rounding to every row would leave the random initialisation untrained
    steps = []
    gradients = mteval.ensemble._stacked_gradients
    monkeypatch.setattr(mteval.ensemble, "_stacked_gradients", lambda *args, **kwargs: steps.append(1) or gradients(*args, **kwargs))
    features = random_matrix(np.random.default_rng(n), n, 2)
    fit_mlp([features], features.rows[:, 0], 3, hidden=4, max_epochs=2, val_fraction=val_fraction)
    assert len(steps) == 2


# (n, m, hidden, batch_size, learning_rate, max_epochs, patience)
MLP_CASES = [
    (37, 3, 1, 8, 1e-3, 30, 30),
    (37, 3, 1, 8, 0.05, 60, 2),
    (50, 4, 8, 7, 0.03, 80, 2),
    (50, 4, 8, 7, 1e-3, 25, 25),
    (12, 2, 8, 64, 0.01, 25, 25),
    (80, 5, 100, 32, 0.02, 60, 3),
    (80, 5, 100, 13, 1e-3, 15, 15),
    (25, 12, 100, 100, 0.05, 40, 2),
]


def test_fit_mlp_matches_the_per_block_adam_loop(caplog):
    rng = np.random.default_rng(31)
    stopped = {"early": 0, "full": 0}
    for n, m, hidden, batch_size, learning_rate, max_epochs, patience in MLP_CASES:
        features = random_matrix(rng, n, m)
        y = np.tanh(features.rows[:, 0]) * features.rows[:, -1] + 0.3 * rng.normal(size=n)
        seed = int(rng.integers(1000))
        options = dict(
            hidden=hidden, learning_rate=learning_rate, batch_size=batch_size, max_epochs=max_epochs, patience=patience
        )
        caplog.clear()
        with caplog.at_level("DEBUG", logger="mteval.ensemble"):
            (got,) = fit_mlp([features], y, seed, **options)
        want = loop_fit_mlp(standardized(features), y, seed=seed, **options)
        for name in ("w1", "b1", "w2", "b2"):
            a, b = np.asarray(getattr(got.mlp, name)), np.asarray(getattr(want, name))
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), (name, n, hidden, batch_size)
        (line,) = [message for message in caplog.messages if message.startswith("mlp fit:")]
        epochs = int(line.split()[2])
        stopped["early" if epochs < max_epochs else "full"] += 1
    assert min(stopped.values()) >= 3, stopped


def test_fit_mlp_matches_the_per_block_adam_loop_for_every_fit_of_a_batch(monkeypatch, caplog):
    # F = 1..12 fits of mixed widths stepped in lockstep, each bit for bit its own one-at-a-time loop
    rng = np.random.default_rng(47)
    seen = {"partial last batch": 0, "stops differ": 0, "early beside full": 0, "groups": 0}
    for n_fits in range(1, 13):
        n = int(rng.integers(12, 60))
        hidden = [1, 100, 8, 3, 37, 64][n_fits % 6]
        max_epochs = int(rng.integers(8, 30))
        options = dict(
            hidden=hidden,
            learning_rate=float(rng.choice([1e-3, 0.05, 0.2])),
            batch_size=int(rng.integers(5, 30)),
            max_epochs=max_epochs,
            patience=int(rng.choice([2, 3, max_epochs])),
        )
        cells = 1 << 18 if n_fits % 4 else 2 * options["batch_size"] * hidden  # groups of at most two fits
        monkeypatch.setattr(mteval.ensemble, "LOCKSTEP_CELLS", cells)
        # the candidates are column subsets of one table, against its gold, as model selection fits them
        table = random_matrix(rng, n, 12)
        y = np.tanh(table.rows[:, 0]) * table.rows[:, -1] + 0.3 * rng.normal(size=n)
        columns = [rng.permutation(12)[: rng.integers(1, 13)] for _ in range(n_fits)]
        candidates = [table.select([table.feature_names[j] for j in picked]) for picked in columns]
        seed = int(rng.integers(1000))
        caplog.clear()
        with caplog.at_level("DEBUG", logger="mteval.ensemble"):
            models = fit_mlp(candidates, y, seed, **options)
        for features, model in zip(candidates, models):
            want = loop_fit_mlp(standardized(features), y, seed=seed, **options)
            for name in ("w1", "b1", "w2", "b2"):
                a, b = np.asarray(getattr(model.mlp, name)), np.asarray(getattr(want, name))
                assert a.shape == b.shape and a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), (name, n_fits, features.m, hidden)
        epochs = [int(message.split()[2]) for message in caplog.messages if message.startswith("mlp fit:")]
        assert len(epochs) == n_fits
        n_fit = n - round_half_up(0.1 * n)
        seen["partial last batch"] += n_fit % options["batch_size"] > 0
        seen["stops differ"] += len(set(epochs)) > 1
        seen["early beside full"] += min(epochs) < max_epochs == max(epochs)
        seen["groups"] += cells < 1 << 18 and n_fits > 2
    assert min(seen.values()) >= 2, seen
    with pytest.raises(ValueError, match="gold length"):
        fit_mlp([candidates[0], random_matrix(rng, n + 1, 2)], y, 1)


def test_fit_mlp_matches_the_per_block_adam_loop_at_odd_widths_and_predicts_as_fresh_arrays(caplog):
    # odd hidden widths, odd feature counts and odd batch rows would put packed blocks and rows at odd
    # elements (8-byte offsets) if the layout did not pad them; a fresh array starts 16-byte aligned
    rng = np.random.default_rng(53)
    table = random_matrix(rng, 50, 9)
    y = np.tanh(table.rows[:, 0]) * table.rows[:, -1] + 0.3 * rng.normal(size=50)
    candidates = [table.select(table.feature_names[:m]) for m in (1, 3, 5, 9, 4)]
    for hidden, batch_size in ((1, 7), (3, 7), (37, 8)):  # 45 rows to fit on: last batches of 3, 3 and 5 rows
        options = dict(hidden=hidden, learning_rate=0.05, batch_size=batch_size, max_epochs=30, patience=2)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="mteval.ensemble"):
            models = fit_mlp(candidates, y, 5, **options)
        for features, model in zip(candidates, models):
            want = loop_fit_mlp(standardized(features), y, seed=5, **options)
            for name in ("w1", "b1", "w2", "b2"):
                a, b = np.asarray(getattr(model.mlp, name)), np.asarray(getattr(want, name))
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, features.m, hidden)
            fresh = MlpParams(model.mlp.w1.copy(), model.mlp.b1.copy(), model.mlp.w2.copy(), float(model.mlp.b2))
            rows = (features.rows - model.mean) / model.std
            assert predict(model, features).tobytes() == mlp_forward(fresh, rows).tobytes(), (features.m, hidden)
        epochs = {int(message.split()[2]) for message in caplog.messages if message.startswith("mlp fit:")}
        assert len(epochs) > 1  # some fits stop while others step on, so the stop mask drops padded blocks


def test_lockstep_fits_match_their_one_fit_loop_under_the_prescott_kernel():
    # Prescott's gemv rounds a vector operand at an 8-byte offset differently, the default kernel does not;
    # the two one-fit comparisons rerun in a child process, since OpenBLAS reads its kernel at load
    require_openblas()
    tests = (
        test_fit_mlp_matches_the_per_block_adam_loop_for_every_fit_of_a_batch,
        test_fit_mlp_matches_the_per_block_adam_loop_at_odd_widths_and_predicts_as_fresh_arrays,
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *[f"{__file__}::{test.__name__}" for test in tests]]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
    run = subprocess.run(argv, cwd=Path(__file__).parent.parent, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0 and f"{len(tests)} passed" in run.stdout, run.stdout[-6000:] + run.stderr[-2000:]


def test_fit_mlp_logs_its_fits_steps_and_epochs(caplog):
    rng = np.random.default_rng(8)
    table = random_matrix(rng, 30, 5)
    y = table.rows[:, 0] + rng.normal(size=30)
    candidates = [table.select(table.feature_names[:m]) for m in (1, 3, 5)]
    with caplog.at_level("INFO", logger="mteval.ensemble"):
        fit_mlp(candidates, y, 1, hidden=4, batch_size=10, learning_rate=0.1, max_epochs=40, patience=3)
        assert fit_mlp([], [], 0, hidden=4) == []
    (line,) = [message for message in caplog.messages if message.startswith("mlp:")]
    # "mlp: <fits> fits in lockstep, <steps> steps, epochs run <e1>,<e2>,..."
    words = line.split()
    epochs = [int(e) for e in words[-1].split(",")]
    assert int(words[1]) == 3 and len(epochs) == 3
    # 27 rows to fit on, in batches of 10: three steps an epoch, until the last fit stops
    assert int(words[5]) == 3 * max(epochs)
    assert len(set(epochs)) > 1


def test_fit_mlp_steps_its_lockstep_groups_in_one_call(monkeypatch, caplog):
    # a traced fit_mlp is one span however many groups it steps, so it never calls itself
    calls, fit = [], mteval.ensemble.fit_mlp
    monkeypatch.setattr(mteval.ensemble, "fit_mlp", lambda *args, **kwargs: calls.append(1) or fit(*args, **kwargs))
    monkeypatch.setattr(mteval.ensemble, "LOCKSTEP_CELLS", 10 * 4)  # one fit of 10-row batches and 4 units a group
    rng = np.random.default_rng(10)
    candidates = [random_matrix(rng, 20, 2) for _ in range(3)]
    with caplog.at_level("INFO", logger="mteval.ensemble"):
        models = mteval.ensemble.fit_mlp(candidates, rng.normal(size=20), 0, hidden=4, batch_size=10, max_epochs=2)
    assert len(calls) == 1 and len(models) == 3
    assert sum(message.startswith("mlp: 1 fits in lockstep") for message in caplog.messages) == 3


def test_fit_mlp_logs_where_it_stopped(caplog):
    rng = np.random.default_rng(9)
    features = random_matrix(rng, 60, 3)
    y = features.rows[:, 0] + 0.5 * rng.normal(size=60)
    with caplog.at_level("DEBUG", logger="mteval.ensemble"):
        fit_mlp([features], y, 3, hidden=8, learning_rate=0.05, max_epochs=200, patience=4)
        fit_mlp([features], y, 3, hidden=8, max_epochs=6, patience=6)
    early, full = [message.split() for message in caplog.messages if message.startswith("mlp fit:")]
    # "mlp fit: <epochs> epochs run, best epoch <epoch>, validation MSE <mse>"
    epochs, best = int(early[2]), int(early[7].rstrip(","))
    assert epochs < 200
    assert best == epochs - 4
    assert float(early[-1]) > 0
    assert int(full[2]) == 6
    assert 1 <= int(full[7].rstrip(",")) <= 6


def test_fit_mlp_needs_ten_rows():
    rng = np.random.default_rng(7)
    m = random_matrix(rng, 9, 2)
    with pytest.raises(ValueError, match="10 rows"):
        fit_mlp([m], list(range(9)), 1)


# ---------------------------------------------------------------------------
# prediction contract
# ---------------------------------------------------------------------------


def test_predict_rejects_mismatched_feature_names():
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 20, 2)
    model = fit_linear(m, rng.normal(size=20))
    renamed = matrix(m.rows, names=["f1", "f0"])
    with pytest.raises(ValueError, match="feature names"):
        predict(model, renamed)


def test_predict_applies_stored_standardization():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, 30, 2)
    y = m.rows @ np.array([1.5, -0.5]) + 2.0
    model, mlp_model = fit_linear(m, y), fit_mlp([m], y, seed=4)[0]
    _, mean, std = standardize(m.rows)
    for fitted in (model, mlp_model):
        assert fitted.mean.tobytes() == mean.tobytes()
        assert fitted.std.tobytes() == std.tobytes()
    # predict takes RAW features and standardizes internally, on both branches
    assert np.allclose(predict(model, m), y, atol=1e-6)
    assert predict(mlp_model, m).tobytes() == mlp_forward(mlp_model.mlp, (m.rows - mlp_model.mean) / mlp_model.std).tobytes()


def test_select_model_invariant_to_affine_feature_rescaling():
    rng = np.random.default_rng(10)
    m = random_matrix(rng, 60, 3)
    y = (m.rows @ np.array([1.0, 2.0, -1.0])).tolist()
    shifted_rows = m.rows * np.array([10.0, 0.5, 3.0]) + np.array([100.0, -7.0, 0.0])
    shifted = matrix(shifted_rows)
    # each fit standardizes its own input, so model selection and both fits see the same rows
    fits = {
        "select_model": lambda features: select_model([features], y, seed=3)[0],
        "fit_linear": lambda features: fit_linear(features, y),
        "fit_mlp": lambda features: fit_mlp([features], y, 3)[0],
    }
    for name, fit in fits.items():
        assert np.allclose(predict(fit(m), m), predict(fit(shifted), shifted), atol=1e-6), name


# ---------------------------------------------------------------------------
# model selection
# ---------------------------------------------------------------------------


def test_select_model_prefers_linear_for_linear_gold():
    # exactly linear gold: the linear model ranks the holdout perfectly, so
    # the mlp can at best tie, and ties go to linear
    rng = np.random.default_rng(11)
    m = random_matrix(rng, 80, 2)
    y = m.rows @ np.array([3.0, 1.0]) + 0.5
    (model,) = select_model([m], y, seed=5)
    assert model.kind == "linear"
    assert spearman(predict(model, m), y) > 0.99


def test_select_model_prefers_mlp_for_interaction_gold():
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(240, 2))
    y = rows[:, 0] * rows[:, 1]  # zero linear signal, clean interaction
    (model,) = select_model([matrix(rows)], y, seed=5)
    assert model.kind == "mlp"
    assert spearman(predict(model, matrix(rows)), y) > 0.5


def test_select_model_tie_goes_to_linear():
    # constant gold: both validation correlations degenerate to 0 -> linear
    rng = np.random.default_rng(13)
    m = random_matrix(rng, 40, 2)
    (model,) = select_model([m], [1.0] * 40, seed=2)
    assert model.kind == "linear"


def test_select_model_falls_back_without_a_usable_split():
    rng = np.random.default_rng(14)
    m = random_matrix(rng, 12, 2)
    y = (m.rows @ np.array([1.0, 1.0])).tolist()
    # a single source cannot be split -> linear on everything, no error
    (model,) = select_model([m], y, seed=1, sources=["same"] * 12)
    assert model.kind == "linear"
    assert np.allclose(predict(model, m), y, atol=1e-6)


def test_select_model_source_disjoint_validation():
    # with 5 sources and the pinned 80/20 split, the mlp branch must see
    # only whole sources; easiest observable: deterministic across calls
    rng = np.random.default_rng(15)
    m = random_matrix(rng, 50, 2)
    y = rng.normal(size=50)
    sources = [f"doc{i % 5}" for i in range(50)]
    (a,) = select_model([m], y, seed=9, sources=sources)
    (b,) = select_model([m], y, seed=9, sources=sources)
    assert a.kind == b.kind
    assert np.array_equal(predict(a, m), predict(b, m))


def test_select_model_is_one_selection_per_candidate(caplog):
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(120, 4))
    y = rows[:, 0] * rows[:, 1] + 0.1 * rows[:, 2]
    full = matrix(rows)
    candidates = [full, full.select(["f0", "f1"]), full.select(["f2", "f3"]), full.select(["f2"])]
    sources = [f"doc{i % 30}" for i in range(120)]
    options = {"hidden": 16, "max_epochs": 40}
    with caplog.at_level("INFO", logger="mteval.ensemble"):
        batch = select_model(candidates, y, seed=4, sources=sources, mlp_options=options)
    lines = [message for message in caplog.messages if message.startswith("model selection:")]
    singles = [select_model([c], y, seed=4, sources=sources, mlp_options=options)[0] for c in candidates]
    kinds = [model.kind for model in batch]
    assert "mlp" in kinds and "linear" in kinds
    for got, want, candidate, line in zip(batch, singles, candidates, lines):
        assert got.kind == want.kind
        assert predict(got, candidate).tobytes() == predict(want, candidate).tobytes()
        # "model selection: linear <rho> vs mlp <rho> -> <winner> by <margin>"
        words = line.split()
        rho_linear, rho_mlp, margin = float(words[3]), float(words[6]), float(words[-1])
        assert words[-3] == got.kind
        assert margin == pytest.approx(abs(rho_mlp - rho_linear), abs=2e-4)
        assert (rho_mlp > rho_linear) == (got.kind == "mlp")
    assert len(lines) == len(candidates)
    with pytest.raises(ValueError, match="share their rows"):
        select_model([full, matrix(rows, ids=[f"t{i}" for i in range(120)])], y, seed=4)


def test_select_model_errors():
    rng = np.random.default_rng(16)
    m = random_matrix(rng, 10, 2)
    with pytest.raises(ValueError, match="gold length"):
        select_model([m], [1.0] * 9, seed=0)
    with pytest.raises(ValueError, match="sources"):
        select_model([m], list(range(10)), seed=0, sources=["a"] * 9)


def test_ensemble_model_invariants():
    with pytest.raises(ValueError, match="kind"):
        EnsembleModel(kind="forest", feature_names=[], mean=np.zeros(0), std=np.ones(0))
    with pytest.raises(ValueError, match="weights"):
        EnsembleModel(kind="linear", feature_names=[], mean=np.zeros(0), std=np.ones(0))
    with pytest.raises(ValueError, match="parameter block"):
        EnsembleModel(kind="mlp", feature_names=[], mean=np.zeros(0), std=np.ones(0))
