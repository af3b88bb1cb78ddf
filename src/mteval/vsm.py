"""Vocabularies, SMART-weighted bag-of-words vectors, and the sparse
term-similarity matrix used by the soft cosine measure.

Two SMART weighting schemes are supported: nnx (raw term frequency) and
nfx (term frequency discounted by ln(n_docs / df)).  The similarity matrix
holds pairwise term similarities max(0, cosine)^exponent, thresholded,
symmetric, with at most ``top_k`` off-diagonal nonzeros per row; the
diagonal is implicitly 1.  Which pairs survive the per-row budget depends
on the order terms are processed in: vocabulary order for the nnx metrics,
decreasing inverse document frequency for the nfx ones.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

SIMILARITY_ORDERS = ("vocabulary", "idf_descending")

# Defaults follow the published defaults of the sparse term-similarity
# implementation this construction mirrors; override via configuration.
DEFAULT_THRESHOLD = 0.1
DEFAULT_EXPONENT = 2.0
DEFAULT_TOP_K = 100

#: Cells of the block of term rows ranked together, small enough to stay in cache
CANDIDATE_BLOCK_CELLS = 2**18


class Vocabulary:
    """Terms in first-occurrence order with document frequencies."""

    def __init__(self, terms: list[str], index: dict[str, int], df: dict[str, int], n_docs: int):
        self.terms, self.index, self.df, self.n_docs = terms, index, df, n_docs

    def __len__(self) -> int:
        return len(self.terms)

    def idf(self, term: str) -> float:
        """ln(n_docs / df); unseen terms fall back to df = 1."""
        if self.n_docs < 1:
            raise ValueError("idf undefined for an empty vocabulary (n_docs = 0)")
        df = self.df.get(term, 0)
        return math.log(self.n_docs / max(df, 1))


class WeightedBow:
    """Sparse nonnegative term-index -> weight map over one vocabulary."""

    def __init__(self, entries: dict[int, float] | None = None):
        self.entries = {} if entries is None else entries
        for index, weight in self.entries.items():
            if weight < 0:
                raise ValueError(f"negative weight {weight} at term index {index}")

    def is_zero(self) -> bool:
        return not any(weight > 0 for weight in self.entries.values())


def build_vocabulary(documents: Sequence[Sequence[str]]) -> Vocabulary:
    """Collect terms in first-occurrence order and count document frequencies."""
    terms: list[str] = []
    index: dict[str, int] = {}
    df: dict[str, int] = {}
    for document in documents:
        seen: set[str] = set()
        for token in document:
            if token not in index:
                index[token] = len(terms)
                terms.append(token)
                df[token] = 0
            if token not in seen:
                seen.add(token)
                df[token] += 1
    return Vocabulary(terms=terms, index=index, df=df, n_docs=len(documents))


def bow_nnx(tokens: Iterable[str], vocab: Vocabulary) -> WeightedBow:
    """Raw term-frequency weights; tokens outside the vocabulary are dropped."""
    entries: dict[int, float] = {}
    for token in tokens:
        idx = vocab.index.get(token)
        if idx is not None:
            entries[idx] = entries.get(idx, 0.0) + 1.0
    return WeightedBow(entries=entries)


def bow_nfx(tokens: Iterable[str], vocab: Vocabulary) -> WeightedBow:
    """tf x idf weights with idf = ln(n_docs / df); df 0 is treated as 1."""
    if vocab.n_docs < 1:
        raise ValueError("nfx weighting needs a vocabulary with n_docs >= 1")
    counts = bow_nnx(tokens, vocab).entries
    return WeightedBow(entries={idx: tf * vocab.idf(vocab.terms[idx]) for idx, tf in counts.items()})


class SimilarityMatrix:
    """Sparse symmetric term-similarity matrix, diagonal implicitly 1."""

    def __init__(self, dim: int, rows: dict[int, dict[int, float]] | None = None):
        self.dim, self.rows = dim, {} if rows is None else rows

    def entry(self, i: int, j: int) -> float:
        if i == j:
            return 1.0
        return self.rows.get(i, {}).get(j, 0.0)

    def nnz_off_diagonal(self) -> int:
        return sum(len(row) for row in self.rows.values()) // 2


def term_processing_order(vocab: Vocabulary, order: str) -> list[int]:
    if order == "vocabulary":
        return list(range(len(vocab)))
    if order == "idf_descending":
        # descending idf == ascending df; ties fall back to vocabulary order
        return sorted(range(len(vocab)), key=lambda i: (vocab.df.get(vocab.terms[i], 0), i))
    raise ValueError(f"unknown similarity order {order!r}; expected one of {SIMILARITY_ORDERS}")


class SimilarityCandidates:
    """Each embedded term's best partners: the part of the build both orders share.

    ``rows[i]`` holds term i's partners whose value max(0, cosine)^exponent
    reaches ``threshold`` and is above 0, as (vocabulary indices, values)
    in decreasing value with ties in increasing vocabulary index, cut to
    the first ``3 * top_k``.  ``truncated`` names the rows that were cut;
    `full_row` ranks such a row again from the same product, bit for bit.
    The products are taken for fixed blocks of ``block`` embedded terms,
    rows ``[b * block, (b + 1) * block)``, one matrix product per block.
    """

    def __init__(
        self, n_terms: int, threshold: float, exponent: float, top_k: int, embedded: np.ndarray, normalized: np.ndarray,
        block: int, rows: dict[int, tuple[np.ndarray, np.ndarray]], truncated: set[int],
        _last_block: tuple[int, np.ndarray] = (-1, np.empty((0, 0))),
    ):
        self.n_terms, self.threshold, self.exponent, self.top_k = n_terms, threshold, exponent, top_k
        self.embedded, self.normalized, self.block, self.rows, self.truncated = embedded, normalized, block, rows, truncated
        #: the last block `full_row` took the product of, by its first row: builds
        #: mostly rank rows again in increasing index, several from one block
        self._last_block = _last_block

    def full_row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        k = int(np.searchsorted(self.embedded, i))
        if k == len(self.embedded) or self.embedded[k] != i:
            raise KeyError(f"term index {i} has no vector, so no ranked partners")
        lo = k - k % self.block
        if self._last_block[0] != lo:
            self._last_block = (lo, self._values(lo))
        return self._ranked([k], self._last_block[1][k - lo : k - lo + 1], None)[0]

    def _values(self, lo: int) -> np.ndarray:
        """max(0, cosine)^exponent of the block of embedded terms from ``lo`` against every embedded term."""
        # one matrix product per fixed block: a row's bits depend on its block,
        # so `full_row` takes the same block's product again
        values = self.normalized[lo : lo + self.block] @ self.normalized.T
        np.clip(values, 0.0, 1.0, out=values)
        values **= self.exponent
        return values

    def _ranked(self, ks: Sequence[int], values: np.ndarray, limit: int | None) -> list[tuple[np.ndarray, np.ndarray]]:
        """The ranked partners of embedded terms ``ks``, given their rows of `_values`; at most ``limit`` each."""
        keep = (values >= self.threshold) & (values > 0.0)
        keep[np.arange(len(ks)), ks] = False
        flat, counts, starts, padded = _left_aligned(keep, values)
        if limit is not None and padded.shape[1] > limit:
            # drop what falls below each row's limit-th largest value before
            # the sort: a partition is linear, a sort of long rows is not
            keep &= values >= -np.partition(padded, limit - 1, axis=1)[:, limit - 1 : limit]
            flat, counts, starts, padded = _left_aligned(keep, values)
        # one stable sort per row: decreasing value, ties in increasing index
        order = np.argsort(padded, axis=1, kind="stable")[:, :limit]
        chosen = flat[(order + starts[:, None])[order < counts[:, None]]]
        partners, kept = self.embedded[chosen % len(self.embedded)], values.ravel()[chosen]
        bounds = np.cumsum(np.minimum(counts, order.shape[1])).tolist()
        return [(partners[lo:hi], kept[lo:hi]) for lo, hi in zip([0] + bounds, bounds)]


def _left_aligned(keep: np.ndarray, values: np.ndarray):
    """Flat indices, counts and row starts of the kept cells, and their negated
    values left-aligned in one matrix padded with +inf."""
    flat = np.flatnonzero(keep)
    rows = flat // keep.shape[1]
    counts = np.bincount(rows, minlength=len(keep))
    starts = np.cumsum(counts) - counts
    padded = np.full((len(keep), counts.max()), np.inf)
    padded[rows, np.arange(len(flat)) - starts[rows]] = -values.ravel()[flat]
    return flat, counts, starts, padded


def similarity_candidates(
    vocab: Vocabulary,
    store: dict[str, np.ndarray],
    threshold: float = DEFAULT_THRESHOLD,
    exponent: float = DEFAULT_EXPONENT,
    top_k: int = DEFAULT_TOP_K,
) -> SimilarityCandidates:
    """Rank every embedded term's partners once, for the builds in any order."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    embedded = [i for i, term in enumerate(vocab.terms) if term in store]
    vectors = np.stack([store[vocab.terms[i]] for i in embedded]).astype(float) if embedded else np.zeros((0, 0))
    norms = np.linalg.norm(vectors, axis=1)
    nonzero = norms > 0
    normalized = np.zeros_like(vectors)
    normalized[nonzero] = vectors[nonzero] / norms[nonzero, None]
    block = max(1, CANDIDATE_BLOCK_CELLS // max(1, len(embedded)))
    candidates = SimilarityCandidates(
        len(vocab), threshold, exponent, top_k, np.array(embedded, dtype=np.intp), normalized, block, {}, set()
    )
    # deep enough that the greedy builds rarely run past a stored row and rank it again
    depth = 3 * top_k
    for lo in range(0, len(embedded), block):
        ks = range(lo, min(lo + block, len(embedded)))
        for k, (partners, values) in zip(ks, candidates._ranked(ks, candidates._values(lo), depth + 1)):
            i = embedded[k]
            if len(partners) > depth:
                candidates.truncated.add(i)
                partners, values = partners[:depth], values[:depth]
            candidates.rows[i] = (partners, values)
    return candidates


def build_similarity_matrix(
    vocab: Vocabulary,
    store: dict[str, np.ndarray],
    order: str = "vocabulary",
    threshold: float = DEFAULT_THRESHOLD,
    exponent: float = DEFAULT_EXPONENT,
    top_k: int = DEFAULT_TOP_K,
    *,
    candidates: SimilarityCandidates | None = None,
) -> SimilarityMatrix:
    """Greedy budgeted construction of the term-similarity matrix.

    Terms are processed in ``order``; for each term the candidate partners
    (terms that have an embedding) are visited in decreasing
    max(0, cosine)^exponent, ties in increasing vocabulary index, and a
    symmetric pair is inserted whenever its value reaches ``threshold`` and
    both rows still have budget left.  Terms without an embedding keep only
    their diagonal.  ``candidates``, from `similarity_candidates` with the
    same vocabulary, store and parameters, lets builds in several orders
    share one ranking pass.
    """
    parameters = (len(vocab), threshold, exponent, top_k)
    if candidates is None:
        candidates = similarity_candidates(vocab, store, threshold, exponent, top_k)
    elif (candidates.n_terms, candidates.threshold, candidates.exponent, candidates.top_k) != parameters:
        raise ValueError("similarity candidates were ranked for another vocabulary or other parameters")
    matrix = SimilarityMatrix(dim=len(vocab))
    budget = [0] * len(vocab)  # plain Python: rows are short, numpy's per-call cost would dominate
    for i in term_processing_order(vocab, order):
        if i not in candidates.rows or budget[i] >= top_k:
            continue
        # While row i is filled no other row's budget moves, so every
        # candidate's eligibility is known up front and the first free
        # ones are exactly those the one-at-a-time walk would insert.
        need = top_k - budget[i]
        row_i = matrix.rows.get(i, {})
        pairs = _free_pairs(*candidates.rows[i], budget, top_k, row_i, need)
        if len(pairs) < need and i in candidates.truncated:
            pairs = _free_pairs(*candidates.full_row(i), budget, top_k, row_i, need)
        if not pairs:
            continue
        matrix.rows.setdefault(i, {}).update(pairs)
        for j, value in pairs:
            matrix.rows.setdefault(j, {})[i] = value
            budget[j] += 1
        budget[i] += len(pairs)
    return matrix


def _free_pairs(partners, values, budget, top_k, row_i, need) -> list[tuple[int, float]]:
    """The first ``need`` (partner, value) pairs whose partner has budget left and is not in ``row_i``."""
    pairs = zip(partners.tolist(), values.tolist())
    return list(islice(((j, value) for j, value in pairs if budget[j] < top_k and j not in row_i), need))
