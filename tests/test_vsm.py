import itertools
import math

import numpy as np
import pytest

from mteval.vsm import (
    SIMILARITY_ORDERS,
    SimilarityCandidates,
    Vocabulary,
    WeightedBow,
    bow_nfx,
    bow_nnx,
    build_similarity_matrix,
    build_vocabulary,
    similarity_candidates,
    term_processing_order,
)

import mteval.vsm as vsm_module

from oracles import dense_similarity, greedy_similarity_rows, loop_similarity_candidates


def store_from(table):
    return {k: np.array(v, dtype=float) for k, v in table.items()}


def test_build_vocabulary_counts_document_frequency():
    vocab = build_vocabulary([["a", "b"], ["b"]])
    assert vocab.terms == ["a", "b"]
    assert vocab.index == {"a": 0, "b": 1}
    assert vocab.df == {"a": 1, "b": 2}
    assert vocab.n_docs == 2


def test_build_vocabulary_df_is_document_level():
    vocab = build_vocabulary([["a", "a"]])
    assert vocab.df["a"] == 1


def test_build_vocabulary_empty():
    vocab = build_vocabulary([])
    assert len(vocab) == 0
    assert vocab.n_docs == 0


def test_bow_nnx_counts_and_drops_oov():
    vocab = build_vocabulary([["a", "b"]])
    assert bow_nnx(["a", "a", "b"], vocab).entries == {0: 2.0, 1: 1.0}
    assert bow_nnx([], vocab).entries == {}
    assert bow_nnx(["zzz"], vocab).entries == {}


def test_bow_nfx_hand_table():
    # 10 documents: "every" in all of them, "rare" in one, "mid" in five
    docs = [["every"] for _ in range(10)]
    docs[0] = ["every", "rare", "mid"]
    for i in range(1, 5):
        docs[i] = ["every", "mid"]
    vocab = build_vocabulary(docs)
    bow = bow_nfx(["every", "rare", "mid", "mid"], vocab)
    # ubiquitous term gets weight 0, the rest tf * ln(N / df)
    assert bow.entries[vocab.index["every"]] == 0.0
    assert abs(bow.entries[vocab.index["rare"]] - math.log(10 / 1)) < 1e-12
    assert abs(bow.entries[vocab.index["mid"]] - 2 * math.log(10 / 5)) < 1e-12


def test_bow_nfx_unseen_df_falls_back_to_one():
    vocab = Vocabulary(terms=["a"], index={"a": 0}, df={}, n_docs=4)
    bow = bow_nfx(["a"], vocab)
    assert abs(bow.entries[0] - math.log(4)) < 1e-12


def test_bow_nfx_needs_documents():
    vocab = build_vocabulary([])
    with pytest.raises(ValueError):
        bow_nfx(["a"], vocab)


def test_weighted_bow_rejects_negative_weights():
    with pytest.raises(ValueError):
        WeightedBow(entries={0: -0.5})
    assert WeightedBow(entries={}).is_zero()
    assert WeightedBow(entries={0: 0.0}).is_zero()
    assert not WeightedBow(entries={0: 0.1}).is_zero()


def test_term_processing_order():
    vocab = build_vocabulary([["a", "b", "c"], ["b", "c"], ["c"]])
    assert term_processing_order(vocab, "vocabulary") == [0, 1, 2]
    # rarest first (highest idf); df a=1 < b=2 < c=3
    assert term_processing_order(vocab, "idf_descending") == [0, 1, 2][::1]
    vocab2 = build_vocabulary([["c", "b", "a"], ["b", "c"], ["c"]])
    assert term_processing_order(vocab2, "idf_descending") == [2, 1, 0]
    with pytest.raises(ValueError):
        term_processing_order(vocab, "alphabetical")


def test_similarity_identical_embeddings():
    vocab = build_vocabulary([["x", "y"]])
    store = store_from({"x": [1.0, 0.0], "y": [2.0, 0.0]})
    matrix = build_similarity_matrix(vocab, store, threshold=0.0)
    assert matrix.entry(0, 1) == 1.0
    assert matrix.entry(1, 0) == 1.0
    assert matrix.entry(0, 0) == 1.0


def test_similarity_negative_cosines_leave_identity():
    vocab = build_vocabulary([["x", "y"]])
    store = store_from({"x": [1.0, 0.0], "y": [-1.0, 0.0]})
    matrix = build_similarity_matrix(vocab, store)
    assert dense_similarity(matrix).tolist() == np.eye(2).tolist()


def test_similarity_threshold_above_one_gives_identity():
    rng = np.random.default_rng(3)
    vocab = build_vocabulary([[f"t{i}" for i in range(8)]])
    store = store_from({f"t{i}": rng.normal(size=4) for i in range(8)})
    matrix = build_similarity_matrix(vocab, store, threshold=1.0001)
    assert matrix.nnz_off_diagonal() == 0


def test_similarity_symmetry_range_and_budget():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        top_k = int(rng.integers(1, 4))
        vocab = build_vocabulary([[f"t{i}" for i in range(n)], [f"t{i}" for i in range(0, n, 2)]])
        store = store_from({f"t{i}": rng.normal(size=3) for i in range(n)})
        order = ("vocabulary", "idf_descending")[trial % 2]
        matrix = build_similarity_matrix(vocab, store, order=order, threshold=0.05, top_k=top_k)
        dense = dense_similarity(matrix)
        assert np.array_equal(dense, dense.T)
        assert dense.min() >= 0.0 and dense.max() <= 1.0
        assert np.all(np.diag(dense) == 1.0)
        off_per_row = (dense > 0).sum(axis=1) - 1
        assert off_per_row.max() <= top_k


def test_similarity_quadratic_form_positive():
    # the soft-cosine denominator sqrt(x' S x) must stay real and positive
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        vocab = build_vocabulary([[f"t{i}" for i in range(n)]])
        store = store_from({f"t{i}": rng.normal(size=3) for i in range(n)})
        dense = dense_similarity(build_similarity_matrix(vocab, store, threshold=0.05, top_k=2))
        x = np.abs(rng.normal(size=n))
        assert x @ dense @ x > 0


def test_similarity_top_k_one_greedy_trace():
    # Hand trace: e1=(1,0), e2=(0.99,0.141), e3=(0,1), e4=(0.141,0.99).
    # cos(1,2)^2 ~ 0.9803, cos(3,4)^2 ~ 0.9803, cos(2,4)^2 ~ 0.0769, cos(1,3)=0.
    # vocabulary order with top_k=1: term 1 pairs with 2; term 3 pairs with 4.
    def unit(theta):
        return [math.cos(theta), math.sin(theta)]

    vocab = build_vocabulary([["t1", "t2", "t3", "t4"]])
    store = store_from({"t1": unit(0.0), "t2": unit(0.1), "t3": unit(math.pi / 2), "t4": unit(math.pi / 2 - 0.1)})
    matrix = build_similarity_matrix(vocab, store, order="vocabulary", threshold=0.05, top_k=1)
    assert matrix.entry(0, 1) > 0.9
    assert matrix.entry(2, 3) > 0.9
    assert matrix.nnz_off_diagonal() == 2


def test_similarity_order_changes_kept_entries():
    # t_rare (df 1) loves t_hub; so does t_common (df 2). With top_k=1 on
    # t_hub the winner is whoever is processed first: vocabulary order gives
    # it to t_common, idf_descending order to t_rare.
    docs = [["t_common", "t_hub", "t_rare"], ["t_common", "t_hub"], ["t_hub"]]
    vocab = build_vocabulary(docs)
    store = store_from({"t_common": [1.0, 0.05], "t_hub": [1.0, 0.0], "t_rare": [1.0, -0.05]})
    by_vocab = build_similarity_matrix(vocab, store, order="vocabulary", threshold=0.5, top_k=1)
    by_idf = build_similarity_matrix(vocab, store, order="idf_descending", threshold=0.5, top_k=1)
    i_common, i_hub, i_rare = vocab.index["t_common"], vocab.index["t_hub"], vocab.index["t_rare"]
    assert by_vocab.entry(i_common, i_hub) > 0
    assert by_vocab.entry(i_rare, i_hub) == 0.0
    assert by_idf.entry(i_rare, i_hub) > 0
    assert by_idf.entry(i_common, i_hub) == 0.0


def test_similarity_skips_terms_without_embeddings():
    vocab = build_vocabulary([["known", "mystery", "other"]])
    store = store_from({"known": [1.0, 0.0], "other": [1.0, 0.0]})
    matrix = build_similarity_matrix(vocab, store, threshold=0.0)
    i_mystery = vocab.index["mystery"]
    assert all(matrix.entry(i_mystery, j) == 0.0 for j in range(3) if j != i_mystery)
    assert matrix.entry(vocab.index["known"], vocab.index["other"]) == 1.0


def random_similarity_instance(rng):
    """Vocabulary and store of 2-60 terms: clustered, duplicate and zero vectors, some terms without one."""
    n = int(rng.integers(2, 61))
    dim = int(rng.integers(1, 6))
    terms = [f"t{i}" for i in range(n)]
    docs = [[t for t in terms if rng.random() < 0.5] for _ in range(int(rng.integers(1, 6)))] + [terms]
    centroids = rng.normal(size=(int(rng.integers(1, 5)), dim))
    table = {}
    for term in terms:
        draw = rng.random()
        if draw < 0.1:
            continue  # no vector
        if draw < 0.15:
            table[term] = np.zeros(dim)
        elif draw < 0.3 and table:
            table[term] = table[f"t{int(rng.choice([int(t[1:]) for t in table]))}"].copy()
        else:
            # a few decimals only, so distinct terms tie on their values too
            noisy = centroids[rng.integers(len(centroids))] + 0.3 * rng.normal(size=dim)
            table[term] = np.round(noisy, int(rng.integers(0, 3)))
    return build_vocabulary(docs), table


def clustered_similarity_instance(rng, n=120, dim=4, n_clusters=3):
    """Vocabulary and store of ``n`` terms in a few tight clusters: every term has dozens of mutual partners."""
    centroids = rng.normal(size=(n_clusters, dim))
    table = {f"c{i}": centroids[i % n_clusters] + 0.2 * rng.normal(size=dim) for i in range(n)}
    terms = list(table)
    docs = [[t for t in terms if rng.random() < 0.5] for _ in range(3)] + [terms]
    return build_vocabulary(docs), store_from(table)


def test_similarity_matches_the_one_at_a_time_greedy_oracle(monkeypatch):
    rng = np.random.default_rng(2024)
    full_rows = []
    ranked_again = SimilarityCandidates.full_row
    monkeypatch.setattr(SimilarityCandidates, "full_row", lambda self, i: full_rows.append(i) or ranked_again(self, i))
    # clustered instances have more than 3 * top_k mutual partners per term, so
    # the builds run past stored rows and rank them again
    instances = [random_similarity_instance(rng) for _ in range(400)]
    instances += [clustered_similarity_instance(rng) for _ in range(6)]
    for vocab, store in instances:
        threshold = float(rng.choice([0.0, 0.05, 0.1, 0.5, 1.0]))
        exponent = float(rng.choice([1.0, 2.0, 3.0]))
        top_k = int(rng.integers(1, 6))
        candidates = similarity_candidates(vocab, store, threshold, exponent, top_k)
        assert all(len(partners) == len(values) <= 3 * top_k for partners, values in candidates.rows.values())
        for i in candidates.truncated:
            # a row ranked again begins with its stored prefix, bit for bit
            partners, values = ranked_again(candidates, i)
            assert partners[: 3 * top_k].tobytes() == candidates.rows[i][0].tobytes(), i
            assert values[: 3 * top_k].tobytes() == candidates.rows[i][1].tobytes(), i
        for order in SIMILARITY_ORDERS:
            want = greedy_similarity_rows(vocab, store, order, threshold, exponent, top_k)
            got = build_similarity_matrix(vocab, store, order, threshold, exponent, top_k, candidates=candidates)
            assert got.rows == want
            # the same values bit for bit, inserted in the same order
            assert all(list(got.rows[i].items()) == list(want[i].items()) for i in want)
            assert build_similarity_matrix(vocab, store, order, threshold, exponent, top_k).rows == want
    # rows whose stored candidates ran out were ranked again
    assert full_rows


def assert_same_rows(got, want):
    assert got.keys() == want.keys()
    for i, (want_partners, want_values) in want.items():
        partners, values = got[i]
        assert partners.dtype == want_partners.dtype and partners.tobytes() == want_partners.tobytes(), i
        assert values.dtype == want_values.dtype and values.tobytes() == want_values.tobytes(), i


def test_similarity_candidates_match_the_per_term_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(404)
    instances = [random_similarity_instance(rng) for _ in range(150)]
    # one embedded term; a zero vector beside a term without one; a wide clustered vocabulary
    instances.append((build_vocabulary([["solo"]]), store_from({"solo": [1.0, 2.0]})))
    instances.append((build_vocabulary([["zero", "none", "one"]]), store_from({"zero": [0.0, 0.0], "one": [1.0, 0.0]})))
    centroids = rng.normal(size=(3, 4))
    clustered = {f"c{i}": centroids[i % 3] + 0.2 * rng.normal(size=4) for i in range(150)}
    instances.append((build_vocabulary([list(clustered)]), store_from(clustered)))
    truncated_rows = 0
    for vocab, store in instances:
        n_embedded = sum(term in store for term in vocab.terms)
        # blocks of one term, of a few terms, and of every term at once
        block = int(rng.choice([1, 2, 3, max(1, n_embedded - 1), max(1, n_embedded), n_embedded + 1]))
        monkeypatch.setattr(vsm_module, "CANDIDATE_BLOCK_CELLS", block * max(1, n_embedded))
        threshold = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        exponent = float(rng.choice([1.0, 2.0, 3.0]))
        top_k = int(rng.choice([1, 2, 5, 40]))
        got = similarity_candidates(vocab, store, threshold, exponent, top_k)
        rows, truncated, full_rows = loop_similarity_candidates(vocab, store, threshold, exponent, top_k)
        assert_same_rows(got.rows, rows)
        assert got.truncated == truncated
        assert_same_rows({i: got.full_row(i) for i in truncated}, full_rows)
        truncated_rows += len(truncated)
    assert truncated_rows


def test_blocked_candidate_values_are_the_per_term_cosines(monkeypatch):
    """The blocked product rounds differently from one product per term, but only in the last bits."""
    rng = np.random.default_rng(1912)
    instances = [random_similarity_instance(rng) for _ in range(150)] + [clustered_similarity_instance(rng, n=300)]
    compared_rows = 0
    for vocab, store in instances:
        n_embedded = sum(term in store for term in vocab.terms)
        block = int(rng.choice([1, 3, 7, max(1, n_embedded)]))
        monkeypatch.setattr(vsm_module, "CANDIDATE_BLOCK_CELLS", block * max(1, n_embedded))
        threshold = float(rng.choice([0.0, 0.1, 0.5]))
        exponent = float(rng.choice([1.0, 2.0, 3.0]))
        top_k = int(rng.choice([1, 2, 5, 40]))
        candidates = similarity_candidates(vocab, store, threshold, exponent, top_k)
        rows = dict(candidates.rows) | {i: candidates.full_row(i) for i in candidates.truncated}
        for k, i in enumerate(candidates.embedded.tolist()):
            # max(0, cosine)^exponent from term k's own matrix-vector product
            want = np.clip(candidates.normalized @ candidates.normalized[k], 0.0, 1.0) ** exponent
            partners, values = rows[i]
            position = np.searchsorted(candidates.embedded, partners)
            assert np.all(np.abs(values - want[position]) <= 1e-12), i
            if np.any(np.abs(want - threshold) <= 1e-12):
                continue
            # the per-term partners, in the per-term ranking up to the order of
            # values within 1e-12 of each other: even two identical vectors can
            # round differently in different columns of one matrix product
            keep = (want >= threshold) & (want > 0.0) & (np.arange(len(want)) != k)
            assert np.array_equal(np.sort(partners), candidates.embedded[keep]), i
            assert np.all(np.diff(want[position]) <= 1e-12), i
            compared_rows += 1
    assert compared_rows > 1000


def test_full_row_takes_one_block_product_per_run_of_calls_into_that_block(monkeypatch):
    """The builds rank truncated rows again mostly in increasing index, several from
    one block, so `full_row` keeps the product of the last block it took."""
    vocab, store = clustered_similarity_instance(np.random.default_rng(29), n=400)
    monkeypatch.setattr(vsm_module, "CANDIDATE_BLOCK_CELLS", 40 * 400)  # blocks of 40 of the 400 terms
    candidates = similarity_candidates(vocab, store, 0.0, 1.0, 1)
    assert len(candidates.embedded) == 400 and candidates.block == 40
    products, blocks = [], []
    values, full_row = SimilarityCandidates._values, SimilarityCandidates.full_row
    monkeypatch.setattr(SimilarityCandidates, "_values", lambda self, lo: products.append(lo) or values(self, lo))

    def spied_full_row(self, i):
        blocks.append(int(np.searchsorted(self.embedded, i)) // self.block * self.block)
        return full_row(self, i)

    monkeypatch.setattr(SimilarityCandidates, "full_row", spied_full_row)
    for order in SIMILARITY_ORDERS:
        build_similarity_matrix(vocab, store, order, 0.0, 1.0, 1, candidates=candidates)
    runs = [lo for lo, _ in itertools.groupby(blocks)]
    assert products == runs
    assert len(set(blocks)) > 1 and len(runs) < len(blocks), (len(runs), len(blocks))


@pytest.mark.parametrize(
    "table, i",
    [
        pytest.param({"a": [1.0, 0.0], "c": [1.0, 0.1], "d": [0.9, 0.2]}, 1, id="between-embedded-terms"),
        pytest.param({"a": [1.0, 0.0], "b": [1.0, 0.1]}, 2, id="past-the-last-embedded-term"),
        pytest.param({"a": [1.0, 0.0], "b": [1.0, 0.1]}, 4, id="past-the-vocabulary"),
        pytest.param({}, 0, id="no-vectors"),
    ],
)
def test_full_row_of_a_term_without_a_vector_is_a_key_error(table, i):
    vocab = build_vocabulary([["a", "b", "c", "d"]])
    store = store_from(table)
    candidates = similarity_candidates(vocab, store, threshold=0.1, top_k=1)
    with pytest.raises(KeyError, match=f"term index {i} "):
        candidates.full_row(i)
    if not store:  # nothing to rank: no row, and builds in both orders keep only the diagonal
        assert candidates.rows == {} and candidates.truncated == set()
        for order in SIMILARITY_ORDERS:
            assert build_similarity_matrix(vocab, store, order, 0.1, top_k=1, candidates=candidates).nnz_off_diagonal() == 0


def test_similarity_candidates_must_match_the_build():
    vocab = build_vocabulary([["x", "y"]])
    store = store_from({"x": [1.0, 0.0], "y": [1.0, 0.1]})
    candidates = similarity_candidates(vocab, store, threshold=0.1, exponent=2.0, top_k=3)
    with pytest.raises(ValueError, match="other parameters"):
        build_similarity_matrix(vocab, store, threshold=0.1, exponent=2.0, top_k=4, candidates=candidates)
    with pytest.raises(ValueError, match="top_k"):
        similarity_candidates(vocab, store, top_k=0)

