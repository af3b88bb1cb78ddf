import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval.corpus import Segment
from mteval.embeddings import decontextualize
from mteval.errors import ConfigError, DataError
from mteval.metrics import (
    EMPTY_BOW_FLAG,
    METRICS,
    MetricConfig,
    Resources,
    UnscorableSegment,
    compositionality,
    compute_placeholders,
    reg_base_features,
    scm,
    score_segment,
    score_segments,
    sentence_bleu,
    wmd,
    wmd_contextual,
)
import mteval.metrics as metrics_module
from mteval.flow import solve_transport, solve_transport_batch
from mteval.metrics import _soft_quadratic, _transport_cost
from mteval.tokenization import WordPieceVocab
from mteval.vsm import (
    SimilarityMatrix,
    bow_nfx,
    bow_nnx,
    build_similarity_matrix,
    build_vocabulary,
)

from oracles import (
    brute_force_transport,
    contextual_table,
    dense_scm_oracle,
    dense_similarity,
    graph_compositionality,
    loop_soft_quadratic,
    sparse_similarity,
    transition_graph,
)


def store_from(table):
    return {k: np.array(v, dtype=float) for k, v in table.items()}


def random_bow(rng, dim, density=0.6):
    entries = {}
    for i in range(dim):
        if rng.random() < density:
            entries[i] = float(rng.integers(1, 5))
    return entries


def random_similarity(rng, dim):
    vocab = build_vocabulary([[f"t{i}" for i in range(dim)]])
    store = store_from({f"t{i}": rng.normal(size=3) for i in range(dim)})
    return build_similarity_matrix(vocab, store, threshold=0.05, top_k=dim)


# ---------------------------------------------------------------------------
# soft cosine measure
# ---------------------------------------------------------------------------


def test_scm_self_similarity_is_exactly_one():
    rng = np.random.default_rng(0)
    matrix = random_similarity(rng, 5)
    x = {0: 2.0, 3: 1.0}
    assert scm(x, x, matrix) == 1.0


def test_scm_identity_matrix_disjoint_supports():
    matrix = SimilarityMatrix(dim=4)
    x = {0: 1.0, 1: 2.0}
    y = {2: 1.0, 3: 2.0}
    assert scm(x, y, matrix) == 0.0


def test_scm_empty_side_scores_zero():
    matrix = SimilarityMatrix(dim=2)
    assert scm({}, {0: 1.0}, matrix) == 0.0
    assert scm({0: 1.0}, {0: 0.0}, matrix) == 0.0


def test_scm_and_wmd_reject_a_negative_weight_on_either_side():
    vocab = build_vocabulary([["a", "b"]])
    store = store_from({"a": [0.0, 1.0], "b": [1.0, 0.0]})
    matrix = SimilarityMatrix(dim=2)
    good, bad = {0: 1.0}, {0: 2.0, 1: -0.5}
    for x, y in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=r"^negative weight -0\.5 at term index 1$"):
            scm(x, y, matrix)
        with pytest.raises(ValueError, match=r"^negative weight -0\.5 at term index 1$"):
            wmd(x, y, store, vocab)
    # the first negative entry is named, x before y, ahead of the empty-side score,
    # the unscorable side and the term index outside the vocabulary
    first = {0: -1.0, 1: -2.0}
    with pytest.raises(ValueError, match="at term index 0$"):
        scm({}, first, matrix)
    with pytest.raises(ValueError, match="-2.0 at term index 1$"):
        scm({1: -2.0}, first, matrix)
    with pytest.raises(ValueError, match="at term index 0$"):
        wmd({7: 1.0}, first, store, vocab)
    with pytest.raises(ValueError, match="at term index 0$"):
        wmd(first, {}, store, vocab)


def test_scm_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        matrix = random_similarity(rng, dim)
        x = random_bow(rng, dim)
        y = random_bow(rng, dim)
        if not any(x.values()) or not any(y.values()):
            continue
        xv = np.zeros(dim)
        yv = np.zeros(dim)
        for i, w in x.items():
            xv[i] = w
        for i, w in y.items():
            yv[i] = w
        want = dense_scm_oracle(xv, yv, dense_similarity(matrix))
        assert abs(scm(x, y, matrix) - want) < 1e-12


def test_scm_symmetric_and_in_unit_interval():
    rng = np.random.default_rng(9)
    for _ in range(100):
        dim = int(rng.integers(2, 8))
        matrix = random_similarity(rng, dim)
        x = random_bow(rng, dim)
        y = random_bow(rng, dim)
        got = scm(x, y, matrix)
        assert got == scm(y, x, matrix)
        assert -1e-12 <= got <= 1.0 + 1e-12


def test_soft_quadratic_matches_the_per_term_loop_bit_for_bit():
    rng = np.random.default_rng(303)
    for _ in range(300):
        dim = int(rng.integers(1, 30))
        dense = np.eye(dim)
        density = float(rng.choice([0.0, 0.1, 0.5, 1.0]))  # rows from none to every other term
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < density:
                    dense[i, j] = dense[j, i] = float(rng.uniform(1e-3, 1.0))
        matrix = sparse_similarity(dense)
        for i in range(dim):
            if rng.random() < 0.1:
                matrix.rows[i] = {}  # an empty row
        x, y = (
            {i: float(rng.uniform(0.1, 7.0)) for i in range(dim) if rng.random() < share}
            for share in rng.choice([0.05, 0.3, 1.0], size=2)  # bags shorter and longer than the rows
        )
        for a, b in ((x, y), (y, x), (x, x), (x, dict(x))):
            assert _soft_quadratic(a, b, matrix).hex() == loop_soft_quadratic(a, b, matrix).hex()


@st.composite
def psd_scm_instances(draw):
    """A similarity matrix from nonnegative vectors (so positive semidefinite) and two bags."""
    dim = draw(st.integers(1, 8))
    coordinate = st.floats(0.0, 4.0, allow_subnormal=False)
    table = {f"t{i}": np.array(draw(st.lists(coordinate, min_size=3, max_size=3))) for i in range(dim)}
    exponent = draw(st.sampled_from([1.0, 2.0]))
    vocab = build_vocabulary([list(table)])
    # no threshold and no budget: every entry is max(0, cosine)^exponent of a Gram matrix
    matrix = build_similarity_matrix(vocab, store_from(table), threshold=0.0, exponent=exponent, top_k=dim)
    weight = st.floats(0.01, 100.0)
    bag = st.dictionaries(st.integers(0, dim - 1), weight, min_size=1)
    return matrix, draw(bag), draw(bag)


@settings(max_examples=300, deadline=None)
@given(psd_scm_instances())
def test_scm_properties(instance):
    matrix, x, y = instance
    assert scm(x, dict(x), matrix) == 1.0
    got = scm(x, y, matrix)
    # Cauchy-Schwarz bounds the score by 1; only the last rounding step may pass it
    assert 0.0 <= got <= 1.0 + 1e-12
    assert abs(got - scm(y, x, matrix)) <= 1e-12


# ---------------------------------------------------------------------------
# word mover's distance
# ---------------------------------------------------------------------------


def wmd_fixture(rng, n_terms=6, dim=3):
    vocab = build_vocabulary([[f"t{i}" for i in range(n_terms)]])
    store = store_from({f"t{i}": rng.normal(size=dim) for i in range(n_terms)})
    return vocab, store


def expected_wmd(x, y, store, vocab):
    ix = sorted(i for i, w in x.items() if w > 0 and vocab.terms[i] in store)
    iy = sorted(i for i, w in y.items() if w > 0 and vocab.terms[i] in store)
    a = np.array([x[i] for i in ix])
    b = np.array([y[i] for i in iy])
    a, b = a / a.sum(), b / b.sum()
    costs = np.array([[np.linalg.norm(store[vocab.terms[i]] - store[vocab.terms[j]]) for j in iy] for i in ix])
    return brute_force_transport(a, b, costs)


def test_wmd_identity_is_exactly_zero():
    rng = np.random.default_rng(1)
    vocab, store = wmd_fixture(rng)
    x = {0: 2.0, 2: 1.0, 4: 3.0}
    assert wmd(x, x, store, vocab) == 0.0


def test_wmd_single_tokens_is_embedding_distance():
    vocab = build_vocabulary([["a", "b"]])
    store = store_from({"a": [0.0, 0.0], "b": [3.0, 4.0]})
    x = {0: 5.0}
    y = {1: 0.5}
    assert abs(wmd(x, y, store, vocab) - 5.0) < 1e-12


def test_wmd_matches_brute_force_oracle():
    # the enumeration oracle is exponential, so keep sides at <= 4 terms
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        vocab, store = wmd_fixture(rng, n_terms=int(rng.integers(3, 8)))
        x = random_bow(rng, len(vocab), density=0.4)
        y = random_bow(rng, len(vocab), density=0.4)
        if not any(x.values()) or not any(y.values()):
            continue
        if len(x) > 4 or len(y) > 4:
            continue
        want = expected_wmd(x, y, store, vocab)
        assert abs(wmd(x, y, store, vocab) - want) < 1e-9
        checked += 1


def test_wmd_is_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        vocab, store = wmd_fixture(rng)
        x = random_bow(rng, len(vocab))
        y = random_bow(rng, len(vocab))
        if not any(x.values()) or not any(y.values()):
            continue
        assert abs(wmd(x, y, store, vocab) - wmd(y, x, store, vocab)) < 1e-12


def test_wmd_triangle_consistency():
    rng = np.random.default_rng(4)
    for _ in range(50):
        vocab, store = wmd_fixture(rng)
        bows = [random_bow(rng, len(vocab)) for _ in range(3)]
        if not all(any(b.values()) for b in bows):
            continue
        x, y, z = bows
        d = lambda a, b: wmd(a, b, store, vocab)
        assert d(x, z) <= d(x, y) + d(y, z) + 1e-9


def test_wmd_weight_scale_invariance():
    # scores depend on the l1-normalized weights only
    rng = np.random.default_rng(5)
    vocab, store = wmd_fixture(rng)
    x = {0: 1.0, 1: 2.0}
    y = {2: 3.0, 3: 1.0}
    x10 = {i: 10.0 * w for i, w in x.items()}
    assert abs(wmd(x, y, store, vocab) - wmd(x10, y, store, vocab)) < 1e-12


def test_embedding_scaling_scales_wmd_and_fixes_scm():
    rng = np.random.default_rng(6)
    vocab, store = wmd_fixture(rng)
    scaled = {t: 7.0 * v for t, v in store.items()}
    x = random_bow(rng, len(vocab))
    y = random_bow(rng, len(vocab))
    base = wmd(x, y, store, vocab)
    assert abs(wmd(x, y, scaled, vocab) - 7.0 * base) < 1e-9
    s_base = build_similarity_matrix(vocab, store, threshold=0.05)
    s_scaled = build_similarity_matrix(vocab, scaled, threshold=0.05)
    assert np.allclose(dense_similarity(s_base), dense_similarity(s_scaled), atol=1e-12, rtol=0)
    assert abs(scm(x, y, s_base) - scm(x, y, s_scaled)) < 1e-12


def test_wmd_unscorable_when_all_oov():
    vocab = build_vocabulary([["a", "b"]])
    store = store_from({"a": [1.0]})
    x = {1: 1.0}  # "b" has no vector
    y = {0: 1.0}
    with pytest.raises(UnscorableSegment):
        wmd(x, y, store, vocab)
    with pytest.raises(UnscorableSegment):
        wmd(y, x, store, vocab)


def test_wmd_drops_terms_of_zero_or_nan_weight_bit_for_bit():
    # the dropped term's vector is on the other side too, so it would take part in the pre-match
    rng = np.random.default_rng(28)
    vocab, store = wmd_fixture(rng)
    y = {0: 1.0, 3: 2.0, 5: 1.0}
    x = {1: 1.0, 3: 1.0, 4: 2.0}
    for dropped in (0.0, float("nan")):
        padded = {**x, 0: dropped, 5: dropped}
        assert wmd(padded, y, store, vocab).hex() == wmd(x, y, store, vocab).hex()
        assert wmd(y, padded, store, vocab).hex() == wmd(y, x, store, vocab).hex()


def euclidean_costs(ex, ey):
    return np.sqrt(((ex[:, None, :] - ey[None, :, :]) ** 2).sum(axis=2))


def test_prematched_transport_equals_full_solve():
    # Shared terms and repeated vectors give zero-cost cells; shipping the
    # shared mass there first must leave the optimum unchanged.
    rng = np.random.default_rng(12)
    for trial in range(300):
        nx, ny = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        ex = rng.normal(size=(nx, 3))
        ey = rng.normal(size=(ny, 3))
        shared = int(rng.integers(0, min(nx, ny) + 1))
        ey[:shared] = ex[:shared]
        if rng.random() < 0.5:
            ex[nx - 1] = ex[0]
        if rng.random() < 0.5:
            ey[ny - 1] = ey[0]
        if trial % 2:
            wx, wy = rng.integers(1, 4, size=nx).astype(float), rng.integers(1, 4, size=ny).astype(float)
        else:
            wx, wy = rng.uniform(0.1, 1.0, size=nx), rng.uniform(0.1, 1.0, size=ny)
        full = solve_transport(wx / wx.sum(), wy / wy.sum(), euclidean_costs(ex, ey)).cost
        assert abs(_transport_cost(wx, wy, ex, ey) - full) < 1e-12


def test_identical_sides_score_exactly_zero_without_the_solver(monkeypatch):
    def refuse(*args):
        raise AssertionError("solver called on a fully pre-matched problem")

    monkeypatch.setattr(metrics_module, "solve_transport", refuse)
    rng = np.random.default_rng(13)
    vocab, store = wmd_fixture(rng)
    x = {0: 2.0, 2: 1.0, 4: 3.0}
    assert wmd(x, x, store, vocab) == 0.0
    vectors = rng.normal(size=(4, 3))
    vectors[3] = vectors[1]  # two terms sharing one vector
    weights = rng.uniform(0.1, 1.0, size=4)
    assert _transport_cost(weights, weights.copy(), vectors, vectors.copy()) == 0.0
    tokens = [f"w{i}" for i in range(4)]
    assert wmd_contextual((tokens, vectors), (list(tokens), vectors.copy())) == 0.0


# ---------------------------------------------------------------------------
# contextual word mover's distance
# ---------------------------------------------------------------------------


def side(tokens, vectors):
    """A side as `ContextualTable.side_of` gives it: its tokens and one vector row per token."""
    return list(tokens), np.array(vectors, dtype=float).reshape(len(tokens), -1)


def test_wmd_contextual_identity_and_single_pair():
    rx = side(["a", "b"], [[1.0, 2.0], [0.0, 1.0]])
    ry = side(["a", "b"], [[1.0, 2.0], [0.0, 1.0]])
    assert wmd_contextual(rx, ry) == 0.0
    one_x = side(["a"], [[0.0, 0.0]])
    one_y = side(["b"], [[3.0, 4.0]])
    assert abs(wmd_contextual(one_x, one_y) - 5.0) < 1e-12


def test_wmd_contextual_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        nx, ny = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rx = side([f"w{i}" for i in range(nx)], rng.normal(size=(nx, 3)))
        ry = side([f"v{j}" for j in range(ny)], rng.normal(size=(ny, 3)))
        a = np.full(nx, 1.0 / nx)
        b = np.full(ny, 1.0 / ny)
        costs = np.array([[np.linalg.norm(r - s) for s in ry[1]] for r in rx[1]])
        want = brute_force_transport(a, b, costs)
        assert abs(wmd_contextual(rx, ry) - want) < 1e-9


def test_wmd_contextual_nfx_weighting():
    # vocab over three (segment, side) documents; "the" is everywhere -> idf 0
    docs = [["the", "cat"], ["the", "dog"], ["the"]]
    vocab = build_vocabulary(docs)
    rx = side(["the", "cat"], [0.0, 1.0])
    ry = side(["the", "dog"], [10.0, 2.0])
    # zero-idf "the" occurrences drop out on both sides: distance |1 - 2| = 1
    assert abs(wmd_contextual(rx, ry, weighting="nfx", vocab=vocab) - 1.0) < 1e-12
    only_the = side(["the"], [0.0])
    with pytest.raises(UnscorableSegment):
        wmd_contextual(only_the, ry, weighting="nfx", vocab=vocab)


def test_wmd_contextual_argument_validation():
    rx = side(["a"], [1.0])
    with pytest.raises(UnscorableSegment):
        wmd_contextual(([], np.empty((0, 1))), rx)
    with pytest.raises(UnscorableSegment):
        wmd_contextual(rx, ([], np.empty((0, 1))))
    with pytest.raises(ValueError):
        wmd_contextual(rx, rx, weighting="binary")
    with pytest.raises(ValueError):
        wmd_contextual(rx, rx, weighting="nfx")  # no vocab


# ---------------------------------------------------------------------------
# compositionality
# ---------------------------------------------------------------------------


def test_transition_graph_single_tag_is_zero_matrix():
    tags, probs = transition_graph(["N"])
    assert tags == ("N",)
    assert probs.tolist() == [[0.0]]


def test_transition_graph_counts_and_normalizes():
    tags, probs = transition_graph(["N", "V", "N"])
    assert tags == ("N", "V")
    assert probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    _, probs = transition_graph(["N", "N", "V"])
    assert probs[0].tolist() == [0.5, 0.5]


def test_transition_graph_rejects_empty():
    with pytest.raises(ValueError):
        transition_graph([])


def test_compositionality_identity_and_single_diagonal():
    x = ["N", "N"]
    assert compositionality(x, x) == 0.0
    y = ["N", "V"]
    assert compositionality(x, y) == 1.0


def test_compositionality_hand_summed_diagonals():
    # x: N->N->V->N  diag: N 1/2 (of N's two transitions), V 0
    # y: N->V->V     diag: N 0, V 1/2... (V row: V->V once of one) = 1.0
    x = ["N", "N", "V", "N"]
    y = ["N", "V", "V"]
    want = abs(0.5 - 0.0) + abs(0.0 - 1.0)
    assert abs(compositionality(x, y) - want) < 1e-12
    assert compositionality(x, y) == compositionality(y, x)


def test_compositionality_union_covers_disjoint_tags():
    x = ["A", "A"]
    y = ["B", "B"]
    assert compositionality(x, y) == 2.0


def tag_pairs():
    """Random tag sequences, one tag, one repeated tag, and disjoint tag sets."""
    tags = st.sampled_from(["DET", "NOUN", "VERB", "ADJ", "ADP"])
    random = st.lists(tags, min_size=1, max_size=30)
    single = tags.map(lambda t: [t])
    repeated = st.tuples(tags, st.integers(2, 12)).map(lambda pair: [pair[0]] * pair[1])
    sides = st.one_of(random, single, repeated)
    disjoint = st.tuples(
        st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=12),
        st.lists(st.sampled_from(["X", "Y", "Z"]), min_size=1, max_size=12),
    )
    return st.one_of(st.tuples(sides, sides), disjoint)


@settings(max_examples=400, deadline=None)
@given(tag_pairs())
def test_compositionality_from_tag_counts_matches_the_graph_oracle_bit_for_bit(pair):
    x, y = pair
    got = compositionality(x, y)
    assert got.hex() == graph_compositionality(x, y).hex()
    assert compositionality(tuple(x), tuple(y)).hex() == got.hex()  # Segment holds tuples


def test_compositionality_rejects_an_empty_side():
    for x, y in (([], ["N"]), (["N"], [])):
        with pytest.raises(ValueError, match="empty tag list"):
            compositionality(x, y)


# ---------------------------------------------------------------------------
# sentence BLEU
# ---------------------------------------------------------------------------


def test_bleu_perfect_match():
    tokens = "the quick brown fox jumps".split()
    assert sentence_bleu(tokens, tokens) == 1.0


def test_bleu_zero_overlap_and_empty_hypothesis():
    assert sentence_bleu("a b c".split(), "x y z".split()) == 0.0
    assert sentence_bleu("a b".split(), []) == 0.0


def test_bleu_worked_case():
    # ref "the cat sat", hyp "the cat": p1 = 2/2, p2 = (1+1)/(1+1),
    # p3 = p4 = smoothed 1; brevity = e^(1 - 3/2) = e^-0.5
    got = sentence_bleu("the cat sat".split(), "the cat".split())
    assert abs(got - math.exp(-0.5)) < 1e-15


def test_bleu_clipping_ignores_reference_repetition():
    hyp = "the dog".split()
    once = sentence_bleu("the dog barks".split(), hyp)
    twice = sentence_bleu("the the dog barks".split(), hyp)
    # clipped unigram count for one "the" is 1 either way; only the brevity
    # penalty moves, so compare with it factored out
    assert abs(once / math.exp(1 - 3 / 2) - twice / math.exp(1 - 4 / 2)) < 1e-12


def test_bleu_clipping_limits_hypothesis_repetition():
    got = sentence_bleu("the cat".split(), "the the the".split())
    # unigram: clipped 1 of 3; bigram: 0 matches -> smoothed 1/3; trigram 1/2; 4-gram 1/1
    want = (1 / 3 * 1 / 3 * 1 / 2 * 1.0) ** 0.25
    assert abs(got - want) < 1e-12


def test_bleu_rejects_reference_counts_of_the_wrong_depth():
    ref, hyp = "the cat sat on the mat".split(), "the cat sat on a mat".split()
    with pytest.raises(ValueError, match="reference_counts holds 2 orders, BLEU-4 reads 4"):
        sentence_bleu(ref, hyp, reference_counts=metrics_module._ngram_counts(ref)[:2])


# ---------------------------------------------------------------------------
# Reg-base surface features
# ---------------------------------------------------------------------------

WP = WordPieceVocab(entries=("[UNK]", "ab", "abcd", "un", "##aff", "##able", "the", "dog", "runs", "der", "hund"))


def make_segment(**kwargs):
    defaults = dict(
        id="s1",
        src_lang="de",
        tgt_lang="en",
        source="der hund",
        reference="the dog runs",
        hypothesis="the dog runs",
    )
    defaults.update(kwargs)
    return Segment(**defaults)


def test_reg_base_features_direct_counts():
    segment = make_segment(source="ab", reference=None, hypothesis="abcd")
    got = reg_base_features(segment, Resources(wp_vocab=WP), MetricConfig("source_based", ()))
    assert got.tolist() == [2.0, 4.0, 1.0, 1.0]


def test_reg_base_features_multi_piece_tokens():
    segment = make_segment(source="unaffable", reference="ab", hypothesis="unaffable")
    got = reg_base_features(segment, Resources(wp_vocab=WP), MetricConfig("source_based", ()))
    assert got.tolist() == [9.0, 9.0, 3.0, 3.0]
    got = reg_base_features(segment, Resources(wp_vocab=WP), MetricConfig("reference_based", ()))
    assert got.tolist() == [2.0, 9.0, 1.0, 3.0]


def test_reg_base_features_missing_reference():
    segment = make_segment(reference=None)
    with pytest.raises(DataError):
        reg_base_features(segment, Resources(wp_vocab=WP), MetricConfig("reference_based", ()))


# ---------------------------------------------------------------------------
# configuration and registry
# ---------------------------------------------------------------------------


def test_metric_registry_shape():
    assert set(METRICS) == {
        "scm",
        "scm_tfidf",
        "wmd",
        "wmd_tfidf",
        "scm_decontextualized",
        "scm_decontextualized_tfidf",
        "wmd_decontextualized",
        "wmd_decontextualized_tfidf",
        "wmd_contextual",
        "wmd_contextual_tfidf",
        "compositionality",
        "bleu",
    }
    assert METRICS["scm"].higher_is_better and not METRICS["wmd"].higher_is_better
    assert METRICS["bleu"].higher_is_better and not METRICS["compositionality"].higher_is_better


def test_source_based_mode_rejects_reference_only_metrics():
    MetricConfig(mode="source_based", metrics=("wmd_decontextualized", "compositionality"))
    for name in ("scm", "scm_tfidf", "wmd", "wmd_tfidf", "bleu"):
        with pytest.raises(ConfigError):
            MetricConfig(mode="source_based", metrics=(name,))


def test_metric_config_validation():
    with pytest.raises(ConfigError):
        MetricConfig(mode="round_trip", metrics=())
    with pytest.raises(ConfigError):
        MetricConfig(mode="reference_based", metrics=("bleu", "bleu"))
    with pytest.raises(ConfigError):
        MetricConfig(mode="reference_based", metrics=("rouge",))
    with pytest.raises(ConfigError):
        MetricConfig(mode="reference_based", metrics=(), similarity_top_k=0)
    assert MetricConfig(mode="reference_based", metrics=()).anchor_side == "reference"
    assert MetricConfig(mode="source_based", metrics=()).anchor_side == "source"


def test_needed_similarity_keys():
    def needed(metrics):
        return {METRICS[name].similarity_key for name in metrics} - {None}

    assert needed(("scm", "scm_tfidf", "scm_decontextualized", "wmd")) == {
        ("words", "vocabulary"),
        ("words", "idf_descending"),
        ("pieces", "vocabulary"),
    }
    assert needed(("bleu",)) == set()


# (higher_is_better, reference_only) of every metric, as literals
METRIC_DIRECTIONS = {
    "scm": (True, True),
    "scm_tfidf": (True, True),
    "wmd": (False, True),
    "wmd_tfidf": (False, True),
    "scm_decontextualized": (True, False),
    "scm_decontextualized_tfidf": (True, False),
    "wmd_decontextualized": (False, False),
    "wmd_decontextualized_tfidf": (False, False),
    "wmd_contextual": (False, False),
    "wmd_contextual_tfidf": (False, False),
    "compositionality": (False, False),
    "bleu": (True, True),
}


@pytest.mark.parametrize("name", sorted(METRIC_DIRECTIONS))
def test_metric_table_entry_matches_its_name(name):
    info = METRICS[name]
    assert info.family in ("scm", "wmd", "bleu", "compositionality")
    assert info.space in ("words", "pieces", "contextual", "none")
    assert info.weighting in ("nnx", "nfx")
    assert name.startswith(info.family)
    assert ("_decontextualized" in name) == (info.space == "pieces")
    assert ("_contextual" in name) == (info.space == "contextual")
    assert name.endswith("_tfidf") == (info.weighting == "nfx")
    assert (info.higher_is_better, info.reference_only) == METRIC_DIRECTIONS[name]


# ---------------------------------------------------------------------------
# score_segment end to end
# ---------------------------------------------------------------------------

ALL_METRICS = tuple(METRICS)


def identity_fixture():
    segment = make_segment(
        pos_source=("NOUN", "NOUN"),
        pos_reference=("DET", "NOUN", "VERB"),
        pos_hypothesis=("DET", "NOUN", "VERB"),
    )
    config = MetricConfig(mode="reference_based", metrics=ALL_METRICS)
    static = store_from(
        {
            "the": [1.0, 0.0, 0.0],
            "dog": [0.0, 1.0, 0.0],
            "runs": [0.0, 0.0, 1.0],
            "der": [0.5, 0.5, 0.0],
            "hund": [0.0, 0.5, 0.5],
        }
    )
    side_docs = [["der", "hund"], ["the", "dog", "runs"], ["the", "dog", "runs"]]
    vocabs = {"words": build_vocabulary(side_docs), "pieces": build_vocabulary(side_docs)}  # every word is a single piece in WP
    rows = []
    for side, tokens in (("source", ["der", "hund"]), ("reference", ["the", "dog", "runs"]), ("hypothesis", ["the", "dog", "runs"])):
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
        wp_vocab=WP,
        contextual=table,
        vocabs=vocabs,
        stores=stores,
        sims=sims,
    )
    return segment, config, resources


def test_score_segment_identity_values():
    segment, config, resources = identity_fixture()
    scores, flags = score_segment(segment, config, resources)
    assert set(scores) == set(ALL_METRICS)
    assert flags == {}
    for name in ALL_METRICS:
        if name.startswith("scm") or name == "bleu":
            assert scores[name] == 1.0, name
        else:
            assert scores[name] == 0.0, name


def test_score_segment_flags_oov_hypothesis():
    segment, config, resources = identity_fixture()
    bad = make_segment(
        hypothesis="zzz qqq",
        pos_source=("DET", "NOUN"),
        pos_reference=("DET", "NOUN", "VERB"),
        pos_hypothesis=("X", "X"),
    )
    scores, flags = score_segment(bad, config, resources)
    # SCM against an all-OOV side is the defined 0 with a flag
    assert scores["scm"] == 0.0
    assert flags["scm"] == EMPTY_BOW_FLAG
    # WMD is unscorable: NaN, filled in later by the pipeline's placeholders
    assert math.isnan(scores["wmd"])
    assert "wmd" in flags


def test_score_segment_source_based_anchor():
    segment, _, resources = identity_fixture()
    config = MetricConfig(mode="source_based", metrics=("wmd_contextual", "compositionality"))
    scores, _ = score_segment(segment, config, resources)
    # source "der hund" vs identical-vector hypothesis tokens is a real flow
    assert scores["wmd_contextual"] > 0.0
    # source tags NOUN,NOUN vs hypothesis DET,NOUN,VERB; the source's
    # self-transition scores 1.0 where the reference tags would score 0.0
    x = ["NOUN", "NOUN"]
    y = ["DET", "NOUN", "VERB"]
    assert scores["compositionality"] == compositionality(x, y) == 1.0


def test_score_segments_solves_pending_problems_every_chunk_cells(monkeypatch):
    _, _, resources = identity_fixture()
    hypotheses = ["der hund runs", "the hund", "dog der the", "runs runs hund", "hund the dog"]
    segments = [make_segment(id=f"s{i}", hypothesis=hypothesis) for i, hypothesis in enumerate(hypotheses)]
    config = MetricConfig(mode="reference_based", metrics=("wmd", "wmd_tfidf"))
    calls = []

    def counted(problems):
        calls.append(len(problems))
        return solve_transport_batch(problems)

    monkeypatch.setattr("mteval.metrics.solve_transport_batch", counted)
    want = score_segments(segments, config, resources)
    assert [count for count in calls if count] == [2 * len(segments)]
    calls.clear()
    monkeypatch.setattr("mteval.metrics.CHUNK_CELLS", 5)
    got = score_segments(segments, config, resources)
    assert len([count for count in calls if count]) > 1 and sum(calls) == 2 * len(segments)  # each problem solved once
    assert [scores for scores, _ in got] == [scores for scores, _ in want]
    assert all(value > 0.0 for scores, _ in got for value in scores.values())


def shared_anchor_fixture():
    """Three sources with four hypotheses each, as in MQM data: every system translates the same source."""
    rng = np.random.default_rng(5)
    references = ["the dog runs fast", "a cat sleeps here now", "the cat runs now now"]
    words = sorted({word for reference in references for word in reference.split()})
    static = store_from({word: rng.normal(size=4) for word in words})
    segments = []

    def tags(text):
        return tuple(rng.choice(["DET", "NOUN", "VERB"], size=len(text.split())).tolist())

    for i, reference in enumerate(references):
        variants = [reference, "the the dog now", "zzz qqq", " ".join(reversed(reference.split()))]
        for j, hypothesis in enumerate(variants):
            segments.append(
                make_segment(
                    id=f"s{i}.{j}", source=f"quelle {i}", reference=reference, hypothesis=hypothesis,
                    pos_reference=tags(reference), pos_hypothesis=None if (i, j) == (1, 3) else tags(hypothesis),
                )
            )
    vocab = build_vocabulary([s.reference.split() for s in segments] + [s.source.split() for s in segments])
    sims = {("words", order): build_similarity_matrix(vocab, static, order=order) for order in ("vocabulary", "idf_descending")}

    def fresh():
        return Resources(vocabs={"words": vocab}, stores={"words": static}, sims=sims)

    config = MetricConfig(mode="reference_based", metrics=("scm", "scm_tfidf", "bleu", "compositionality"))
    return segments, config, fresh


def test_score_segments_computes_each_anchor_state_once(monkeypatch):
    segments, config, fresh = shared_anchor_fixture()
    resources = fresh()
    self_products, ngram_calls = Counter(), Counter()
    soft_quadratic, ngram_counts = metrics_module._soft_quadratic, metrics_module._ngram_counts

    def counted_quadratic(x, y, matrix):
        if x is y:
            self_products[(id(matrix), id(x))] += 1
        return soft_quadratic(x, y, matrix)

    def counted_ngrams(tokens, *args):
        ngram_calls[tuple(tokens)] += 1
        return ngram_counts(tokens, *args)

    monkeypatch.setattr(metrics_module, "_soft_quadratic", counted_quadratic)
    monkeypatch.setattr(metrics_module, "_ngram_counts", counted_ngrams)
    scored = score_segments(segments, config, resources)
    references = sorted({s.reference for s in segments})
    assert len(segments) == 4 * len(references)
    for name in ("scm", "scm_tfidf"):
        info = METRICS[name]
        matrix = resources.sims[info.similarity_key]
        for reference in references:
            anchor = resources.bag("words", info.weighting, reference)
            assert self_products[(id(matrix), id(anchor))] == 1, (name, reference)
    assert ngram_calls == Counter({tuple(reference.split()): 1 for reference in references})
    assert sum(1 for _, flags in scored if "scm" in flags) == 3 and "compositionality" in scored[7][1]

    monkeypatch.undo()
    for segment, (scores, flags) in zip(segments, scored):
        alone_scores, alone_flags = score_segment(segment, config, fresh())
        assert {k: v.hex() for k, v in scores.items()} == {k: v.hex() for k, v in alone_scores.items()}
        assert flags == alone_flags
        x, y = (resources.bag("words", "nnx", text) for text in (segment.reference, segment.hypothesis))
        if "scm" not in flags:  # the public one-pair calls, without the shared anchor state
            assert scores["scm"].hex() == scm(x, y, resources.sims[("words", "vocabulary")]).hex()
        assert scores["bleu"].hex() == sentence_bleu(segment.reference.split(), segment.hypothesis.split()).hex()
        if segment.pos_hypothesis is not None:
            want = graph_compositionality(segment.pos_reference, segment.pos_hypothesis)
            assert scores["compositionality"].hex() == want.hex()


def test_both_wmd_weightings_share_one_cost_matrix_per_segment_and_space(monkeypatch):
    # "the" is in every document, so nfx drops it (idf 0) from every side it is on
    rng = np.random.default_rng(28)
    references = ["the dog runs fast", "the cat sleeps", "the zzz dog dog"]
    hypotheses = ["the dog runs fast", "the", "the fast cats run", "the qqq runs", "dog the cat cat runs"]
    segments = [
        make_segment(id=f"s{i}.{j}", reference=reference, hypothesis=hypothesis)
        for i, reference in enumerate(references) for j, hypothesis in enumerate(hypotheses)
    ]
    wp = WordPieceVocab(entries=("[UNK]", "the", "dog", "runs", "fast", "cat", "##s", "sleeps", "run"))
    words = ("the", "dog", "runs", "fast", "cat", "cats", "sleeps", "run")  # no vector for zzz and qqq
    pieces = ("the", "dog", "runs", "fast", "cat", "##s", "sleeps", "run", "[UNK]")
    resources = Resources(wp_vocab=wp, stores={
        "words": store_from({word: rng.normal(size=5) for word in words}),
        "pieces": store_from({piece: rng.normal(size=5) for piece in pieces}),
    })
    for space in ("words", "pieces"):
        resources.vocabs[space] = build_vocabulary([resources.tokens(space, s.reference) for s in segments] + [resources.tokens(space, h) for h in hypotheses])
        assert resources.vocabs[space].idf("the") == 0.0
    config = MetricConfig(mode="reference_based", metrics=("wmd", "wmd_tfidf", "wmd_decontextualized", "wmd_decontextualized_tfidf"))
    builds = []
    costs = metrics_module._costs
    monkeypatch.setattr(metrics_module, "_costs", lambda ex, ey: builds.append((len(ex), len(ey))) or costs(ex, ey))
    scored = score_segments(segments, config, resources)
    monkeypatch.undo()
    # every segment is scorable under nnx in both spaces: one build each
    assert len(builds) == 2 * len(segments)

    checked = Counter()
    for segment, (scores, flags) in zip(segments, scored):
        for name in config.metrics:
            info = METRICS[name]
            store, vocab = resources.stores[info.space], resources.vocabs[info.space]
            make_bow = bow_nfx if info.weighting == "nfx" else bow_nnx
            x, y = (make_bow(resources.tokens(info.space, text), vocab) for text in (segment.reference, segment.hypothesis))
            try:
                want = wmd(x, y, store, vocab)
            except UnscorableSegment as exc:
                assert math.isnan(scores[name]) and flags[name] == str(exc)
                checked["unscorable", info.weighting] += 1
                continue
            assert scores[name].hex() == want.hex(), (segment.id, name)
            # the sides' own stacks of positive-weight terms, as each weighting built them alone
            ix, iy = ([i for i in sorted(bow) if bow[i] > 0 and vocab.terms[i] in store] for bow in (x, y))
            alone = _transport_cost(*(np.array([bow[i] for i in terms]) for bow, terms in ((x, ix), (y, iy))), *(np.stack([store[vocab.terms[i]] for i in terms]) for terms in (ix, iy)))
            assert want.hex() == alone.hex()
            checked["dropped" if len(ix) < len(x) or len(iy) < len(y) else "kept", info.weighting] += 1
    # nfx scored sub-blocks and flagged the hypothesis "the"; nnx scored everything
    assert checked["unscorable", "nfx"] == 2 * len(references) and not checked["unscorable", "nnx"]
    assert checked["dropped", "nfx"] > 0 and checked["dropped", "nnx"] > 0


def test_score_segments_logs_its_segments_anchors_and_flags(caplog):
    segments, config, fresh = shared_anchor_fixture()
    with caplog.at_level("INFO", logger="mteval.metrics"):
        score_segments(segments, config, fresh())
    assert caplog.messages == [
        "scoring: 12 segments, 3 distinct reference sides, flagged segments: scm 3, scm_tfidf 3, bleu 0, compositionality 1"
    ]


def test_score_segments_rejects_a_segment_without_its_anchor():
    # hand-built segments reach score_segments without build_resources' check
    segments = [make_segment(id="s1"), make_segment(id="s2", reference=None)]
    config = MetricConfig(mode="reference_based", metrics=("bleu",))
    with pytest.raises(DataError, match=r"^segment 's2' has no reference but mode is reference_based$"):
        score_segments(segments, config, Resources())


# ---------------------------------------------------------------------------
# placeholders
# ---------------------------------------------------------------------------


def test_compute_placeholders_follows_metric_direction():
    nan = float("nan")
    scores = [{"bleu": 0.7, "wmd": 0.5, "scm": nan}, {"bleu": 0.3, "wmd": 1.2, "scm": nan}]
    placeholders = compute_placeholders(scores, ["bleu", "wmd", "scm"])
    assert placeholders["bleu"] == 0.3  # higher is better -> worst is min
    assert placeholders["wmd"] == 1.2  # distance -> worst is max
    assert placeholders["scm"] == 0.0  # nothing observed -> 0.0
