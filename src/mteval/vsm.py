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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from mteval.embeddings import EmbeddingStore

SIMILARITY_ORDERS = ("vocabulary", "idf_descending")

# Defaults follow the published defaults of the sparse term-similarity
# implementation this construction mirrors; override via configuration.
DEFAULT_THRESHOLD = 0.1
DEFAULT_EXPONENT = 2.0
DEFAULT_TOP_K = 100


@dataclass
class Vocabulary:
    """Terms in first-occurrence order with document frequencies."""

    terms: list[str]
    index: dict[str, int]
    df: dict[str, int]
    n_docs: int

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def idf(self, term: str) -> float:
        """ln(n_docs / df); unseen terms fall back to df = 1."""
        if self.n_docs < 1:
            raise ValueError("idf undefined for an empty vocabulary (n_docs = 0)")
        df = self.df.get(term, 0)
        return math.log(self.n_docs / max(df, 1))


@dataclass
class WeightedBow:
    """Sparse nonnegative term-index -> weight map over one vocabulary."""

    entries: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
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


@dataclass
class SimilarityMatrix:
    """Sparse symmetric term-similarity matrix, diagonal implicitly 1."""

    dim: int
    rows: dict[int, dict[int, float]] = field(default_factory=dict)

    def entry(self, i: int, j: int) -> float:
        if i == j:
            return 1.0
        return self.rows.get(i, {}).get(j, 0.0)

    def nnz_off_diagonal(self) -> int:
        return sum(len(row) for row in self.rows.values()) // 2

    def to_dense(self) -> np.ndarray:
        dense = np.eye(self.dim)
        for i, row in self.rows.items():
            for j, value in row.items():
                dense[i, j] = value
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SimilarityMatrix":
        """Wrap a symmetric array with unit diagonal and entries in [0, 1]."""
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {dense.shape}")
        if not np.allclose(np.diag(dense), 1.0):
            raise ValueError("similarity matrix diagonal must be 1")
        if not np.array_equal(dense, dense.T):
            raise ValueError("similarity matrix must be symmetric")
        if dense.min() < 0.0 or dense.max() > 1.0 + 1e-12:
            raise ValueError("similarity entries must lie in [0, 1]")
        matrix = cls(dim=dense.shape[0])
        n = dense.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if dense[i, j] != 0.0:
                    matrix._insert(i, j, float(dense[i, j]))
        return matrix

    def _insert(self, i: int, j: int, value: float) -> None:
        self.rows.setdefault(i, {})[j] = value
        self.rows.setdefault(j, {})[i] = value


def term_processing_order(vocab: Vocabulary, order: str) -> list[int]:
    if order == "vocabulary":
        return list(range(len(vocab)))
    if order == "idf_descending":
        # descending idf == ascending df; ties fall back to vocabulary order
        return sorted(range(len(vocab)), key=lambda i: (vocab.df.get(vocab.terms[i], 0), i))
    raise ValueError(f"unknown similarity order {order!r}; expected one of {SIMILARITY_ORDERS}")


def build_similarity_matrix(
    vocab: Vocabulary,
    store: EmbeddingStore,
    order: str = "vocabulary",
    threshold: float = DEFAULT_THRESHOLD,
    exponent: float = DEFAULT_EXPONENT,
    top_k: int = DEFAULT_TOP_K,
) -> SimilarityMatrix:
    """Greedy budgeted construction of the term-similarity matrix.

    Terms are processed in ``order``; for each term the candidate partners
    (terms that have an embedding) are visited in decreasing
    max(0, cosine)^exponent, and a symmetric pair is inserted whenever its
    value reaches ``threshold`` and both rows still have budget left.
    Terms without an embedding keep only their diagonal.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    matrix = SimilarityMatrix(dim=len(vocab))
    embedded = [i for i, term in enumerate(vocab.terms) if term in store]
    if len(embedded) < 2:
        return matrix

    vectors = np.stack([store[vocab.terms[i]] for i in embedded]).astype(float)
    norms = np.linalg.norm(vectors, axis=1)
    nonzero = norms > 0
    normalized = np.zeros_like(vectors)
    normalized[nonzero] = vectors[nonzero] / norms[nonzero, None]
    position = {term_index: k for k, term_index in enumerate(embedded)}
    embedded_arr = np.array(embedded)

    budget = {i: 0 for i in embedded}
    for i in term_processing_order(vocab, order):
        if i not in position or budget[i] >= top_k:
            continue
        sims = normalized @ normalized[position[i]]
        values = np.clip(sims, 0.0, 1.0) ** exponent
        # descending value, ties resolved by vocabulary index
        candidate_order = np.lexsort((embedded_arr, -values))
        row_i = matrix.rows.get(i, {})
        for k in candidate_order:
            value = float(values[k])
            if value < threshold or value <= 0.0:
                break
            j = int(embedded_arr[k])
            if j == i or j in row_i:
                continue
            if budget[j] >= top_k:
                continue
            matrix._insert(i, j, value)
            row_i = matrix.rows[i]
            budget[i] += 1
            budget[j] += 1
            if budget[i] >= top_k:
                break
    return matrix
