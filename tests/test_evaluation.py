import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mteval.evaluation
from mteval.cli import _write_ablation, _write_table
from mteval.corpus import Dataset, Segment
from mteval.ensemble import FeatureMatrix
from mteval.errors import ConfigError
from mteval.evaluation import (
    ablation,
    correlation_report,
    cross_lingual_eval,
    evaluate,
)
from mteval.metrics import REG_BASE_FEATURES, MetricConfig, Resources
from mteval.pipeline import SplitFeatures, dataset_features
from mteval.stats import spearman
from mteval.tokenization import WordPieceVocab
from oracles import loop_ablation_order


def matrix(rows, names=None, ids=None):
    rows = np.asarray(rows, dtype=float)
    names = names or [f"f{j}" for j in range(rows.shape[1])]
    ids = ids or [f"s{i}" for i in range(rows.shape[0])]
    return FeatureMatrix(rows, names, ids)


# ---------------------------------------------------------------------------
# correlation report
# ---------------------------------------------------------------------------


def test_correlation_report_matches_elementwise_spearman():
    rng = np.random.default_rng(0)
    m = matrix(rng.normal(size=(30, 3)), names=["a", "b", "c"])
    gold = rng.normal(size=30)
    to_gold, pairs = correlation_report(m, list(gold))
    assert list(to_gold) == ["a", "b", "c"]
    for i, x in enumerate("abc"):
        assert pairs[x, x] == 1.0
        assert abs(to_gold[x] - spearman(m.rows[:, i], gold)) < 1e-15
        for j, y in enumerate("abc"):
            assert pairs[x, y] == pairs[y, x]
            assert abs(pairs[x, y] - spearman(m.rows[:, i], m.rows[:, j])) < 1e-15


def test_correlation_report_duplicate_column_and_gold_feature():
    rng = np.random.default_rng(1)
    col = rng.normal(size=20)
    m = matrix(np.column_stack([col, col, rng.normal(size=20)]), names=["a", "a_copy", "b"])
    to_gold, pairs = correlation_report(m, list(col))
    assert pairs["a", "a_copy"] == 1.0
    assert to_gold["a"] == 1.0


def test_correlation_report_tsv_outputs(tmp_path):
    m = matrix([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]], names=["x", "y"])
    to_gold, pairs = correlation_report(m, [1.0, 2.0, 3.0])
    matrix_path = tmp_path / "matrix.tsv"
    gold_path = tmp_path / "gold.tsv"
    _write_table(matrix_path, ["metric", *to_gold], ([a, *(pairs[a, b] for b in to_gold)] for a in to_gold))
    _write_table(gold_path, ["metric", "spearman_to_gold"], to_gold.items())
    lines = matrix_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric\tx\ty"
    assert lines[1].startswith("x\t1.000000\t")
    lines = gold_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric\tspearman_to_gold"
    assert lines[1] == "x\t1.000000"


def test_correlation_report_alignment_error():
    with pytest.raises(ValueError):
        correlation_report(matrix(np.zeros((3, 1))), [1.0, 2.0])


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------


def ablation_fixture(rng, n=60):
    signal = rng.normal(size=n)
    noise = rng.normal(size=n)
    rows = np.column_stack([signal, signal, noise])
    names = ["f_copy", "f_signal", "f_noise"]
    gold = signal + 0.1 * rng.normal(size=n)
    train = matrix(rows[: n // 2], names=names)
    test = matrix(rows[n // 2 :], names=names)
    return train, test, list(gold[: n // 2]), list(gold[n // 2 :])


def whole_split(train, test, gold_train, gold_test):
    """The split `ablation` takes, one source per train segment as `select_model` assumes without sources."""
    return SplitFeatures(train, test, gold_train, gold_test, list(train.segment_ids))


def test_ablation_two_features_curve_shape():
    rng = np.random.default_rng(2)
    train, test, gold_train, gold_test = ablation_fixture(rng)
    curve = ablation(
        whole_split(train.select(["f_signal", "f_noise"]), test.select(["f_signal", "f_noise"]), gold_train, gold_test), seed=1
    )
    assert [eliminated for eliminated, _ in curve] == [None, "f_noise"]


def test_ablation_drops_duplicate_before_noise():
    rng = np.random.default_rng(3)
    train, test, gold_train, gold_test = ablation_fixture(rng)
    curve = ablation(whole_split(train, test, gold_train, gold_test), seed=1)
    # the rho=1 duplicate pair dominates; lexicographic tie-break picks f_copy
    assert [eliminated for eliminated, _ in curve] == [None, "f_copy", "f_noise"]
    # the single survivor is the signal, so the last rho stays high
    assert curve[-1][1] > 0.8


def test_ablation_order_matches_pairwise_table():
    # planted structure: a ~ b strongly, c ~ d moderately, everything else weak
    rng = np.random.default_rng(4)
    n = 80
    base1 = rng.normal(size=n)
    base2 = rng.normal(size=n)
    rows = np.column_stack(
        [
            base1,
            base1 + 0.05 * rng.normal(size=n),  # b: |rho| to a ~ 1
            base2,
            base2 + 0.6 * rng.normal(size=n),  # d: |rho| to c moderate
        ]
    )
    names = ["a", "b", "c", "d"]
    gold = list(base1 + base2)
    train = matrix(rows, names=names)
    test = matrix(rows, names=names)

    def strongest(remaining):
        cols = {x: train.rows[:, names.index(x)] for x in remaining}
        worst = {}
        for x in remaining:
            worst[x] = max(abs(spearman(cols[x], cols[y])) for y in remaining if y != x)
        top = max(worst.values())
        return min(x for x in remaining if worst[x] == top)

    expected = []
    remaining = list(names)
    while len(remaining) > 1:
        victim = strongest(remaining)
        expected.append(victim)
        remaining.remove(victim)

    curve = ablation(whole_split(train, test, gold, gold), seed=7)
    assert [eliminated for eliminated, _ in curve[1:]] == expected


def test_ablation_step_zero_equals_full_ensemble_rho():
    from mteval.ensemble import predict, select_model

    rng = np.random.default_rng(5)
    train, test, gold_train, gold_test = ablation_fixture(rng)
    curve = ablation(whole_split(train, test, gold_train, gold_test), seed=9)
    (model,) = select_model([train], gold_train, seed=9)
    want = spearman(predict(model, test), gold_test)
    assert curve[0] == (None, want)


def test_ablation_and_evaluate_equal_one_selection_per_subset():
    # one select_model call per run is, bit for bit, one single-candidate call per feature subset
    from mteval.ensemble import predict, select_model

    rng = np.random.default_rng(21)
    rows = rng.normal(size=(160, 7))
    rows[:, 1] = rows[:, 0] + 0.3 * rng.normal(size=160)
    gold = rows[:, 0] * rows[:, 2] + 0.5 * rows[:, 3] + 0.2 * rng.normal(size=160)
    names = ["f0", "f1", "f2", *REG_BASE_FEATURES]
    ids = [f"s{i}" for i in range(160)]
    sources = [f"doc{i % 40}" for i in range(120)]
    split = SplitFeatures(
        matrix(rows[:120], names, ids[:120]), matrix(rows[120:], names, ids[120:]), list(gold[:120]), list(gold[120:]), sources
    )
    options = {"hidden": 12, "max_epochs": 60, "patience": 5}

    def selected(subset):
        (model,) = select_model([split.train.select(subset)], split.gold_train, seed=6, sources=sources, mlp_options=options)
        return model, spearman(predict(model, split.test.select(subset)), split.gold_test)

    curve = ablation(split, seed=6, mlp_options=options)
    kinds = []
    for step, (_, test_rho) in enumerate(curve):
        dropped = {eliminated for eliminated, _ in curve[1 : step + 1]}
        model, rho = selected([name for name in names if name not in dropped])
        kinds.append(model.kind)
        assert test_rho == rho, step
    assert "mlp" in kinds and "linear" in kinds

    to_gold, _, ensemble_kinds = evaluate(split, seed=6, mlp_options=options)
    (regemt, regemt_rho), (reg_base, reg_base_rho) = selected(names), selected(list(REG_BASE_FEATURES))
    assert ensemble_kinds == {"RegEMT": regemt.kind, "Reg-base": reg_base.kind}
    assert (to_gold["RegEMT"], to_gold["Reg-base"]) == (regemt_rho, reg_base_rho)


def test_ablation_is_deterministic():
    rng = np.random.default_rng(6)
    train, test, gold_train, gold_test = ablation_fixture(rng)
    a = ablation(whole_split(train, test, gold_train, gold_test), seed=3)
    b = ablation(whole_split(train, test, gold_train, gold_test), seed=3)
    assert a == b


def test_ablation_needs_two_features():
    rng = np.random.default_rng(7)
    train, test, gold_train, gold_test = ablation_fixture(rng)
    with pytest.raises(ValueError):
        ablation(whole_split(train.select(["f_signal"]), test.select(["f_signal"]), gold_train, gold_test), seed=1)


def test_ablation_csv_format(tmp_path):
    rng = np.random.default_rng(8)
    train, test, gold_train, gold_test = ablation_fixture(rng)
    curve = ablation(whole_split(train, test, gold_train, gold_test), seed=2)
    path = tmp_path / "ablation.csv"
    _write_ablation(path, curve)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,eliminated,remaining,test_rho"
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == ["0,,3", "1,f_copy,2", "2,f_noise,1"]
    assert [float(line.rsplit(",", 1)[1]) for line in lines[1:]] == [round(rho, 6) for _, rho in curve]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ablation_order_matches_the_per_step_loop(data):
    # fewer than 10 rows keeps model selection linear-only; small integers make exact |rho| ties
    n = data.draw(st.integers(3, 9), label="rows")
    k = data.draw(st.integers(2, 7), label="columns")
    fresh = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    columns = [data.draw(fresh)]
    while len(columns) < k:
        kind = data.draw(st.sampled_from(["fresh", "duplicate", "negated", "constant"]))
        if kind == "fresh":
            columns.append(data.draw(fresh))
        elif kind == "constant":
            columns.append([data.draw(st.integers(-2, 2))] * n)
        else:
            twin = data.draw(st.sampled_from(columns))
            columns.append(twin if kind == "duplicate" else [-x for x in twin])
    names = data.draw(st.permutations([f"f{j}" for j in range(k)]))
    train = matrix(np.array(columns, dtype=float).T, names=list(names))
    gold = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    curve = ablation(whole_split(train, train, gold, gold), seed=1)
    assert [eliminated for eliminated, _ in curve[1:]] == loop_ablation_order(train)


@pytest.mark.parametrize("k", [3, 7])
def test_ablation_measures_each_train_pair_once(monkeypatch, k):
    calls = []
    measure = mteval.evaluation.spearman
    monkeypatch.setattr(mteval.evaluation, "spearman", lambda a, b: calls.append(1) or measure(a, b))
    rng = np.random.default_rng(k)
    train = matrix(rng.normal(size=(8, k)))
    gold = rng.normal(size=8).tolist()
    ablation(whole_split(train, train, gold, gold), seed=1)
    # each pair once, plus the test rho of each of the k fits
    assert len(calls) == k * (k - 1) // 2 + k


# ---------------------------------------------------------------------------
# dataset-level evaluation
# ---------------------------------------------------------------------------

WP = WordPieceVocab(entries=("[UNK]", "the", "dog", "runs", "der", "hund"))


def make_dataset(name, n, rng, gold=None):
    segments = []
    for i in range(n):
        hyp = "the dog" + " runs" * (1 + i % 4)
        ref = "the dog" + " runs" * (1 + i % 3)
        segments.append(
            Segment(
                id=f"{name}-{i}",
                src_lang="de",
                tgt_lang="en",
                source=f"der hund {i}",
                reference=ref,
                hypothesis=hyp,
                judgements=(float(gold[i]) if gold is not None else float(rng.normal()),),
            )
        )
    return Dataset(segments=segments, name=name)


def external_feature(dataset, values):
    return {segment.id: float(v) for segment, v in zip(dataset.segments, values)}


def test_evaluate_dataset_reports_both_ensembles():
    rng = np.random.default_rng(9)
    n = 40
    f1 = rng.normal(size=n)
    dataset = make_dataset("wmt", n, rng, gold=2.0 * f1)
    config = MetricConfig(mode="reference_based", metrics=("bleu",))
    resources = Resources(wp_vocab=WP, external={"f1": external_feature(dataset, f1)})
    split = dataset_features(dataset, config, resources, seed=4)
    to_gold, pairs, kinds = evaluate(split, seed=4)
    names = list(to_gold)
    assert names[-2:] == ["RegEMT", "Reg-base"]
    assert "bleu" in names and "f1" in names
    assert set(REG_BASE_FEATURES) <= set(names)
    assert set(pairs) == {(a, b) for a in names for b in names}
    assert split.train.n + split.test.n == n
    assert list(kinds) == ["RegEMT", "Reg-base"]
    assert set(kinds.values()) <= {"linear", "mlp"}
    # gold is exactly 2*f1, so the ensemble must rank the test split perfectly
    assert to_gold["f1"] == 1.0
    assert to_gold["RegEMT"] == 1.0


def test_evaluate_dataset_requires_reg_base():
    rng = np.random.default_rng(10)
    dataset = make_dataset("wmt", 10, rng)
    config = MetricConfig(mode="reference_based", metrics=("bleu",), reg_base=False)
    split = dataset_features(dataset, config, Resources(wp_vocab=WP), seed=1)
    with pytest.raises(ConfigError, match="reg_base"):
        evaluate(split, seed=1)


def test_cross_lingual_degenerate_transfer_equals_in_domain():
    from mteval.ensemble import predict, select_model

    rng = np.random.default_rng(11)
    n = 30
    f1 = rng.normal(size=n)
    dataset = make_dataset("pair", n, rng, gold=f1 + 0.2 * rng.normal(size=n))
    config = MetricConfig(mode="reference_based", metrics=("bleu",))
    resources = Resources(wp_vocab=WP, external={"f1": external_feature(dataset, f1)})
    split = dataset_features(dataset, config, resources, seed=6)
    got = cross_lingual_eval(split, split, seed=6)
    (model,) = select_model([split.train], split.gold_train, seed=6, sources=split.train_sources)
    want = float(spearman(predict(model, split.test), split.gold_test))
    assert got == want


def test_cross_lingual_gold_equals_shared_feature():
    rng = np.random.default_rng(12)
    f_fit = rng.normal(size=30)
    f_eval = rng.normal(size=24)
    fit_ds = make_dataset("fit", 30, rng, gold=3.0 * f_fit)
    eval_ds = make_dataset("eval", 24, rng, gold=5.0 * f_eval)
    config = MetricConfig(mode="reference_based", metrics=("bleu",), reg_base=False)
    fit_res = Resources(wp_vocab=WP, external={"f1": external_feature(fit_ds, f_fit)})
    eval_res = Resources(wp_vocab=WP, external={"f1": external_feature(eval_ds, f_eval)})
    fit_split = dataset_features(fit_ds, config, fit_res, seed=2)
    eval_split = dataset_features(eval_ds, config, eval_res, seed=2)
    rho = cross_lingual_eval(fit_split, eval_split, seed=2)
    assert rho == 1.0
