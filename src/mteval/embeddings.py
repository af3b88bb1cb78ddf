"""Token vector stores: static lookup tables and decontextualization.

Static vectors are read from the word-vector text format (header line
``<count> <dim>``, then ``<token> v1 ... v_dim`` per line).  Contextual
per-occurrence vectors are ingested from a TSV produced outside this
library; no model inference happens here.  Decontextualization collapses
the occurrence vectors into a static table by per-token averaging, which
lets the embedding metrics run without on-the-fly inference.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from mteval.errors import DataError, tsv_rows, utf8_loader

logger = logging.getLogger(__name__)

SIDES = ("source", "reference", "hypothesis")
_CONTEXTUAL_COLUMNS = ["segment_id", "side", "token_index", "token", "vector"]


@dataclass
class EmbeddingStore:
    """token -> vector table with a single declared dimension."""

    dim: int
    table: dict[str, np.ndarray]

    def __contains__(self, token: str) -> bool:
        return token in self.table

    def __getitem__(self, token: str) -> np.ndarray:
        return self.table[token]

    def get(self, token: str):
        return self.table.get(token)

    def __len__(self) -> int:
        return len(self.table)


@dataclass(frozen=True)
class ContextualRecord:
    """One (token, context) occurrence vector for a segment side."""

    segment_id: str
    side: str
    token_index: int
    token: str
    vector: np.ndarray

    def __post_init__(self):
        if self.side not in SIDES:
            raise DataError(f"bad side {self.side!r}; expected one of {SIDES}")
        if self.token_index < 0:
            raise DataError(f"negative token_index {self.token_index}")
        if not np.all(np.isfinite(self.vector)):
            raise DataError(f"non-finite vector for {self.segment_id!r}/{self.side}[{self.token_index}]")


@utf8_loader
def load_static(path: str | Path) -> EmbeddingStore:
    """Load a word-vector text file.

    The header count is informative only (a mismatch logs a warning), but
    every row must carry exactly ``dim`` values under the vector rule of
    `_parse_vectors`.  A duplicated token keeps the last vector seen and
    logs a warning.  A malformed file is reported at its first bad line.
    """
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        header = handle.readline().split()
    try:
        count, dim = map(int, header)
    except ValueError:  # a field that is not an integer, or not two fields
        raise DataError(f"{path}:1: expected integer header '<count> <dim>'") from None
    if dim <= 0:
        raise DataError(f"{path}:1: dimension must be positive, got {dim}")

    def read_rows():
        with open(path, encoding="utf-8-sig") as handle:
            handle.readline()
            for lineno, line in enumerate(handle, start=2):
                if line.isspace():
                    continue
                line = line.rstrip("\n").rstrip(" ")
                if line.count(" ") != dim:
                    raise DataError(f"{path}:{lineno}: expected 1 token + {dim} values, got {line.count(' ') + 1} fields")
                token, _, text = line.partition(" ")
                yield lineno, token, text

    linenos, tokens, values, fault = _parse_vectors(path, read_rows)
    table: dict[str, np.ndarray] = {}
    for token, lineno, vector in zip(tokens, linenos, values):  # stops at the first bad row
        if token in table:
            logger.warning("%s:%d: duplicate token %r, keeping the later vector", path, lineno, token)
        table[token] = vector
    if fault is not None:
        raise fault
    if len(table) != count:
        logger.warning("%s: header declares %d tokens but %d were read", path, count, len(table))
    return EmbeddingStore(dim=dim, table=table)


def _parse_vectors(path: Path, read_rows):
    """Parse the vector texts of ``read_rows()`` with one streaming ``np.loadtxt`` pass.

    The vector rule of both loaders: single-space separators, trailing
    spaces ignored, numpy's number syntax (ASCII digits, no ``_``), finite
    values.  ``read_rows()`` opens the file and yields (line number, item,
    vector text) per row, raising DataError at a malformed one.  Returns
    (line numbers, items, (n, dim) values, fault): ``fault`` is the
    DataError of the first bad line or None, and the values stop before
    it.  numpy pulls rows one at a time, so a number it cannot parse is on
    the last row handed over; the rows before it are then parsed again.
    """
    linenos: list[int] = []
    items: list = []
    fault = None

    def texts():
        nonlocal fault
        try:
            for lineno, item, text in read_rows():
                linenos.append(lineno)
                items.append(item)
                yield text
        except DataError as exc:
            fault = exc

    try:
        values = _loadtxt(texts())
    except UnicodeDecodeError:  # a ValueError too, but not a number's fault
        raise
    except ValueError:
        bad = len(linenos) - 1
        values = _loadtxt(text for _, _, text in itertools.islice(read_rows(), bad))
        fault = DataError(f"{path}:{linenos[bad]}: non-numeric vector component")
    non_finite = ~np.isfinite(values).all(axis=1)
    if non_finite.any():
        first = int(non_finite.argmax())
        fault = DataError(f"{path}:{linenos[first]}: non-finite vector component")
        values = values[:first]
    return linenos, items, values, fault


def _loadtxt(texts) -> np.ndarray:
    """One (n, dim) float matrix of space-separated number texts, none of them empty."""
    first = next(texts, None)
    if first is None:  # np.loadtxt warns on empty input
        return np.empty((0, 0))
    return np.loadtxt(itertools.chain([first], texts), dtype=float, delimiter=" ", comments=None, ndmin=2)


@utf8_loader
def load_contextual(path: str | Path) -> list[ContextualRecord]:
    """Load contextual occurrence vectors from TSV.

    Columns (header row required): segment_id, side, token_index, token,
    vector -- the vector under the rule of `_parse_vectors`, like a static
    one.  The triple (segment_id, side, token_index) must be unique; all
    vectors share the first one's dimension, as rows of one matrix.  A
    malformed file is reported at its first bad line.
    """
    path = Path(path)

    def read_rows():
        dim = None
        with open(path, encoding="utf-8-sig") as handle:
            header, rows = tsv_rows(handle, path)
            if header != _CONTEXTUAL_COLUMNS:
                raise DataError(f"{path}:1: header must be {_CONTEXTUAL_COLUMNS}, got {header}")
            for lineno, (segment_id, side, raw_index, token, text) in rows:
                try:
                    token_index = int(raw_index)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: malformed token_index {raw_index!r}") from None
                text = text.rstrip(" ")
                if not text:
                    raise DataError(f"{path}:{lineno}: empty vector")
                size = text.count(" ") + 1
                dim = dim or size
                if size != dim:
                    raise DataError(f"{path}:{lineno}: vector has {size} components, expected {dim}")
                yield lineno, (segment_id, side, token_index, token), text

    linenos, items, values, fault = _parse_vectors(path, read_rows)
    records: list[ContextualRecord] = []
    seen: set[tuple[str, str, int]] = set()
    for lineno, (segment_id, side, token_index, token), vector in zip(linenos, items, values):
        key = (segment_id, side, token_index)
        if key in seen:
            raise DataError(f"{path}:{lineno}: duplicate (segment_id, side, token_index) {key}")
        seen.add(key)
        try:
            records.append(ContextualRecord(segment_id, side, token_index, token, vector))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    if fault is not None:
        raise fault
    return records


def decontextualize(records: Sequence[ContextualRecord]) -> EmbeddingStore:
    """Average all occurrence vectors of each token string into one vector."""
    if not records:
        raise DataError("cannot decontextualize an empty record list")
    dim = len(records[0].vector)
    occurrences: dict[str, list[np.ndarray]] = {}
    for record in records:
        if len(record.vector) != dim:
            raise DataError(f"mixed vector dimensions: {len(record.vector)} vs {dim}")
        occurrences.setdefault(record.token, []).append(record.vector)
    # each sum runs left to right in record order, into a new array
    table = {token: functools.reduce(np.add, vectors) / len(vectors) for token, vectors in occurrences.items()}
    return EmbeddingStore(dim=dim, table=table)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, with zero vectors mapped to 0.0 instead of NaN."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"vector length mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def group_records(records: Iterable[ContextualRecord]) -> dict[tuple[str, str], list[ContextualRecord]]:
    """Index records by (segment_id, side), each group sorted by token_index."""
    groups: dict[tuple[str, str], list[ContextualRecord]] = {}
    for record in records:
        groups.setdefault((record.segment_id, record.side), []).append(record)
    for group in groups.values():
        group.sort(key=lambda r: r.token_index)
    return groups
