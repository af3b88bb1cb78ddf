"""Release acceptance gate.

Each test here is one gate criterion, pinned to an explicit tolerance and
checked against an independent oracle (exhaustive enumeration, dense
arithmetic, finite differences) or a synthetic dataset with a known
answer.  Every test prints a single verdict line so a log scan shows the
whole gate at once (run with -s to see the lines for passing tests).
"""

import functools
import math
import time

import numpy as np

from mteval.corpus import Dataset, Segment, split_by_source
from mteval.embeddings import decontextualize
from mteval.ensemble import FeatureMatrix, MlpParams, mlp_gradients, mlp_loss, predict, select_model
from mteval.cli import _write_ablation
from mteval.evaluation import ablation, cross_lingual_eval, evaluate
from mteval.flow import solve_transport
from mteval.metrics import METRICS, MetricConfig, Resources, scm, score_segment
from mteval.pipeline import SplitFeatures, dataset_features
from mteval.stats import spearman
from mteval.tokenization import WordPieceVocab
from mteval.vsm import build_similarity_matrix, build_vocabulary

from oracles import (
    brute_force_transport,
    contextual_table,
    dense_scm_oracle,
    finite_difference_gradients,
    naive_decontextualize,
    sparse_similarity,
    spearman_oracle,
)

#: Reduced MLP budget for the synthetic-protocol criteria; keeps the gate
#: inside its runtime bounds without touching any model default.
FAST_MLP = {"hidden": 40, "max_epochs": 40, "patience": 8}


def verdict(label):
    """One printed PASS/FAIL line per criterion, on top of the assert."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")
            return result

        return run

    return wrap


# ---------------------------------------------------------------------------
# exact-arithmetic criteria
# ---------------------------------------------------------------------------


@verdict("transport optimum matches exhaustive enumeration (1000 instances, 1e-9)")
def test_transport_optimum_matches_exhaustive_enumeration():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 9))
        supplies = rng.uniform(0.1, 1.0, size=n)
        demands = rng.uniform(0.1, 1.0, size=m)
        demands *= supplies.sum() / demands.sum()
        ex = rng.normal(size=(n, dim))
        ey = rng.normal(size=(m, dim))
        costs = np.linalg.norm(ex[:, None, :] - ey[None, :, :], axis=2)
        got = solve_transport(supplies, demands, costs).cost
        want = brute_force_transport(supplies, demands, costs)
        assert abs(got - want) <= 1e-9, (supplies, demands, costs)
    assert time.monotonic() - started < 30.0


@verdict("soft cosine sparse path matches dense arithmetic (1000 triples, 1e-12)")
def test_scm_sparse_path_matches_dense_arithmetic():
    rng = np.random.default_rng(202)

    def random_bow(dim):
        entries = {}
        while not entries:
            entries = {i: float(rng.integers(1, 5)) for i in range(dim) if rng.random() < 0.5}
        return entries

    for _ in range(1000):
        dim = int(rng.integers(2, 11))
        raw = rng.uniform(0.0, 1.0, size=(dim, dim))
        dense = (raw + raw.T) / 2.0
        np.fill_diagonal(dense, 1.0)
        matrix = sparse_similarity(dense)
        x = random_bow(dim)
        y = random_bow(dim)
        xv = np.zeros(dim)
        yv = np.zeros(dim)
        for i, w in x.items():
            xv[i] = w
        for i, w in y.items():
            yv[i] = w
        got = scm(x, y, matrix)
        want = dense_scm_oracle(xv, yv, dense)
        assert abs(got - want) <= 1e-12, (x, y)


@verdict("spearman matches average-rank pearson oracle (1000 pairs, 1e-12; exact +-1)")
def test_spearman_matches_rank_pearson_oracle():
    rng = np.random.default_rng(303)

    def draw(k, continuous):
        while True:
            values = rng.normal(size=k) if continuous else rng.integers(0, 6, size=k).astype(float)
            if len(set(values.tolist())) >= 2:
                return values

    for trial in range(1000):
        k = int(rng.integers(3, 41))
        a = draw(k, continuous=trial % 3 == 0)
        b = draw(k, continuous=trial % 5 == 0)
        assert abs(spearman(a, b) - spearman_oracle(a, b)) <= 1e-12
    for _ in range(50):
        k = int(rng.integers(2, 31))
        x = np.cumsum(rng.uniform(0.1, 1.0, size=k))
        y = x**3
        assert spearman(x, y) == 1.0
        assert spearman(x, -y) == -1.0


@verdict("mlp analytic gradients match central differences (20 points, 1e-4)")
def test_mlp_gradients_match_central_differences():
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 20:
        m = int(rng.integers(2, 6))
        hidden = int(rng.integers(3, 9))
        n = int(rng.integers(3, 8))
        rows = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        params = MlpParams(
            w1=rng.normal(size=(m, hidden)) * 0.5,
            b1=rng.normal(size=hidden) * 0.1,
            w2=rng.normal(size=hidden) * 0.5,
            b2=float(rng.normal()),
        )
        # central differences are meaningless at a ReLU kink; resample
        if np.min(np.abs(rows @ params.w1 + params.b1)) < 1e-3:
            continue
        analytic = mlp_gradients(params, rows, y)
        numeric = finite_difference_gradients(
            lambda p: mlp_loss(MlpParams(**p), rows, y),
            {"w1": params.w1, "b1": params.b1, "w2": params.w2, "b2": params.b2},
        )
        for name in ("w1", "b1", "w2", "b2"):
            a = np.asarray(getattr(analytic, name), dtype=float)
            f = np.asarray(numeric[name], dtype=float)
            scale = np.linalg.norm(a) + np.linalg.norm(f) + 1e-12
            assert np.linalg.norm(a - f) / scale < 1e-4, name
        checked += 1


@verdict("decontextualized vectors equal naive per-token means (300 sets, 1e-12)")
def test_decontextualized_vectors_equal_naive_means():
    rng = np.random.default_rng(909)
    sides = ("source", "reference", "hypothesis")
    for _ in range(300):
        dim = int(rng.integers(1, 7))
        # each row its own token_index: the table rejects a repeated (segment_id, side, token_index)
        rows = [
            (f"s{rng.integers(3)}", str(rng.choice(sides)), i, f"t{rng.integers(6)}", rng.normal(size=dim))
            for i in range(int(rng.integers(1, 40)))
        ]
        store = decontextualize(contextual_table(rows))
        want = naive_decontextualize(rows)
        assert set(store) == set(want)
        for token, vec in want.items():
            assert np.max(np.abs(store[token] - vec)) <= 1e-12


@verdict("source splits disjoint with round-half-up sizes (1000 datasets)")
def test_source_splits_are_disjoint_and_sized():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        n_sources = int(rng.integers(2, 26))
        ratio = float(rng.uniform(0.15, 0.85))
        seed = int(rng.integers(0, 2**31))
        segments = []
        for s in range(n_sources):
            for _ in range(int(rng.integers(1, 4))):
                segments.append(
                    Segment(
                        id=f"g{len(segments)}",
                        src_lang="de",
                        tgt_lang="en",
                        source=f"quelle {s}",
                        reference="r",
                        hypothesis="h",
                    )
                )
        dataset = Dataset(segments=segments, name="split-check")
        train, test = split_by_source(dataset, ratio, seed)
        assert not (set(train.unique_sources()) & set(test.unique_sources()))
        assert len(train.unique_sources()) == math.floor(ratio * n_sources + 0.5)
        assert len(train) + len(test) == len(dataset)
        assert {s.id for s in train.segments} | {s.id for s in test.segments} == {
            s.id for s in dataset.segments
        }


# ---------------------------------------------------------------------------
# identity-segment sanity
# ---------------------------------------------------------------------------


def identity_fixture():
    """A segment whose hypothesis equals its reference, with full resources."""
    segment = Segment(
        id="s1",
        src_lang="de",
        tgt_lang="en",
        source="der hund",
        reference="the dog runs",
        hypothesis="the dog runs",
        pos_source=("DET", "NOUN"),
        pos_reference=("DET", "NOUN", "VERB"),
        pos_hypothesis=("DET", "NOUN", "VERB"),
    )
    config = MetricConfig(mode="reference_based", metrics=tuple(METRICS))
    static = {
        "the": np.array([1.0, 0.0, 0.0]),
        "dog": np.array([0.0, 1.0, 0.0]),
        "runs": np.array([0.0, 0.0, 1.0]),
        "der": np.array([0.5, 0.5, 0.0]),
        "hund": np.array([0.0, 0.5, 0.5]),
    }
    side_docs = [["der", "hund"], ["the", "dog", "runs"], ["the", "dog", "runs"]]
    vocabs = {"words": build_vocabulary(side_docs), "pieces": build_vocabulary(side_docs)}  # every word is a single piece
    rows = []
    for side, tokens in (
        ("source", ["der", "hund"]),
        ("reference", ["the", "dog", "runs"]),
        ("hypothesis", ["the", "dog", "runs"]),
    ):
        for i, token in enumerate(tokens):
            rows.append(("s1", side, i, token, static[token] + 0.25))
    table = contextual_table(rows)
    vocabs["contextual"] = build_vocabulary(table.documents())
    stores = {"words": static, "pieces": decontextualize(table)}
    sims = {}
    for space in stores:
        for order in ("vocabulary", "idf_descending"):
            sims[(space, order)] = build_similarity_matrix(vocabs[space], stores[space], order=order)
    resources = Resources(
        wp_vocab=WordPieceVocab(entries=("[UNK]", "the", "dog", "runs", "der", "hund")),
        contextual=table,
        vocabs=vocabs,
        stores=stores,
        sims=sims,
    )
    return segment, config, resources


@verdict("identity segment exact: scm*/bleu = 1, wmd*/compositionality = 0")
def test_identity_segment_scores_are_exact():
    segment, config, resources = identity_fixture()
    scores, flags = score_segment(segment, config, resources)
    assert flags == {}
    for name in METRICS:
        if name.startswith("scm") or name == "bleu":
            assert scores[name] == 1.0, name
        else:
            assert scores[name] == 0.0, name


# ---------------------------------------------------------------------------
# synthetic-protocol criteria
# ---------------------------------------------------------------------------


def synthetic_judged_dataset(seed, n_segments=2000, segs_per_source=20, langs=("de", "en"), source_word="quelle"):
    """A judged dataset whose gold is a noisy linear law over 8 features.

    gold = 0.5 f1 + 0.3 f2 + 0.2 f3 + noise (sigma = 0.3 of the signal std);
    f4..f8 are pure distractors.  The features ride along as external score
    columns, so the full evaluation protocol runs on a known answer.
    """
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_segments, 8))
    signal = 0.5 * feats[:, 0] + 0.3 * feats[:, 1] + 0.2 * feats[:, 2]
    gold = signal + rng.normal(0.0, 0.3 * signal.std(), size=n_segments)
    external = {f"f{k + 1}": {} for k in range(8)}
    segments = []
    for i in range(n_segments):
        seg_id = f"seg{i:04d}"
        segments.append(
            Segment(
                id=seg_id,
                src_lang=langs[0],
                tgt_lang=langs[1],
                source=f"{source_word} {i // segs_per_source}",
                reference="w" + " w" * (i % 3),
                hypothesis="w" + " w" * (i % 5),
                judgements=(float(gold[i]),),
            )
        )
        for k in range(8):
            external[f"f{k + 1}"][seg_id] = float(feats[i, k])
    resources = Resources(wp_vocab=WordPieceVocab(entries=("[UNK]", "w")), external=external)
    return Dataset(segments=segments, name=f"synthetic-{seed}"), resources


@verdict("ensemble beats best single feature by >= 0.03 in >= 9/10 seeds, < 2 min")
def test_ensemble_beats_best_single_feature():
    config = MetricConfig(mode="reference_based", metrics=())
    started = time.monotonic()
    wins = 0
    for seed in range(10):
        dataset, resources = synthetic_judged_dataset(1000 + seed)
        to_gold, _, kinds = evaluate(dataset_features(dataset, config, resources, seed), seed=seed, mlp_options=FAST_MLP)
        best_single = max(v for name, v in to_gold.items() if name not in kinds)
        if to_gold["RegEMT"] - best_single >= 0.03:
            wins += 1
    elapsed = time.monotonic() - started
    assert wins >= 9, f"ensemble gain reached in only {wins}/10 seeds"
    assert elapsed < 120.0, elapsed


@verdict("transferred ensemble rho within 0.1 of in-domain rho (10 seeds)")
def test_transfer_rho_close_to_in_domain_rho():
    config = MetricConfig(mode="reference_based", metrics=())
    for seed in range(10):
        fit_ds, fit_res = synthetic_judged_dataset(2000 + seed, n_segments=600, langs=("de", "en"))
        eval_ds, eval_res = synthetic_judged_dataset(
            3000 + seed, n_segments=600, langs=("fi", "en"), source_word="lähde"
        )
        eval_split = dataset_features(eval_ds, config, eval_res, seed)
        in_domain, _, _ = evaluate(eval_split, seed=seed, mlp_options=FAST_MLP)
        transferred = cross_lingual_eval(
            dataset_features(fit_ds, config, fit_res, seed), eval_split, seed=seed, mlp_options=FAST_MLP
        )
        gap = abs(transferred - in_domain["RegEMT"])
        assert gap <= 0.1, f"seed {seed}: transfer gap {gap:.3f}"


@verdict("ablation: full set at step 0, one drop per step, twins eliminated first")
def test_ablation_eliminates_duplicates_first(tmp_path):
    rng = np.random.default_rng(77)
    n = 2000
    feats = rng.normal(size=(n, 8))
    signal = 0.5 * feats[:, 0] + 0.3 * feats[:, 1] + 0.2 * feats[:, 2]
    gold = signal + rng.normal(0.0, 0.3 * signal.std(), size=n)
    columns = {f"f{k + 1}": feats[:, k] for k in range(8)}
    columns["f1_twin"] = feats[:, 0].copy()
    columns["f2_twin"] = feats[:, 1].copy()
    names = ["f1", "f1_twin", "f2", "f2_twin", "f3", "f4", "f5", "f6", "f7", "f8"]
    matrix = FeatureMatrix(
        np.column_stack([columns[name] for name in names]), names, [f"seg{i}" for i in range(n)]
    )
    train, test = matrix.take_rows(list(range(1600))), matrix.take_rows(list(range(1600, n)))
    gold_train, gold_test = gold[:1600].tolist(), gold[1600:].tolist()
    sources = [f"doc{i // 20}" for i in range(1600)]

    curve = ablation(SplitFeatures(train, test, gold_train, gold_test, sources), seed=7, mlp_options=FAST_MLP)

    # step 0 is the untouched full ensemble
    (model,) = select_model([train], gold_train, seed=7, sources=sources, mlp_options=FAST_MLP)
    full_rho = float(spearman(predict(model, test), gold_test))
    assert curve[0] == (None, full_rho)

    # exactly one elimination per step, down to a single survivor
    assert len(curve) == len(names)
    victims = [eliminated for eliminated, _ in curve[1:]]
    assert len(set(victims)) == len(names) - 1

    # duplicated columns go before anything that is not strongly paired
    worst = {
        a: max(abs(spearman(columns[a][:1600], columns[b][:1600])) for b in names if b != a)
        for a in names
    }
    weakly_paired = {name for name in names if worst[name] < 0.9}
    first_weak = min(victims.index(name) for name in victims if name in weakly_paired)
    for pair in ({"f1", "f1_twin"}, {"f2", "f2_twin"}):
        dropped_at = min(victims.index(name) for name in pair if name in victims)
        assert dropped_at < first_weak, pair

    # deterministic: a rerun reproduces the curve bit for bit
    rerun = ablation(SplitFeatures(train, test, gold_train, gold_test, sources), seed=7, mlp_options=FAST_MLP)
    assert rerun == curve

    # and the emitted CSV carries the same curve
    out = tmp_path / "curve.csv"
    _write_ablation(out, curve)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,eliminated,remaining,test_rho"
    assert len(lines) == len(names) + 1
    assert lines[1] == f"0,,{len(names)},{full_rho:.6f}"
    assert lines[2:] == [f"{k},{victim},{len(names) - k},{curve[k][1]:.6f}" for k, victim in enumerate(victims, 1)]
