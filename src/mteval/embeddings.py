"""Token vector stores: static lookup tables and decontextualization.

Static vectors are read from the word-vector text format (header line
``<count> <dim>``, then ``<token> v1 ... v_dim`` per line).  Contextual
per-occurrence vectors are ingested from a TSV produced outside this
library; no model inference happens here.  Decontextualization collapses
the occurrence vectors into a static table by per-token averaging, which
lets the embedding metrics run without on-the-fly inference.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from mteval.errors import DataError, utf8_loader

logger = logging.getLogger(__name__)

SIDES = ("source", "reference", "hypothesis")


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
    every row must carry exactly ``dim`` finite values; trailing spaces, as
    the original word2vec tool writes them, are ignored.  A duplicated token
    keeps the last vector seen and logs a warning.  A malformed file is
    reported at its first bad line.  numpy parses all values in one pass,
    so numbers follow its syntax: ASCII digits and no ``_`` grouping.
    """
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}:1: expected header '<count> <dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataError(f"{path}:1: expected integer header '<count> <dim>'") from None
        if dim <= 0:
            raise DataError(f"{path}:1: dimension must be positive, got {dim}")
        tokens, linenos, values, fault = _static_rows(handle, path, dim)
    non_finite = ~np.isfinite(values).all(axis=1)
    if non_finite.any():
        first = int(non_finite.argmax())
        fault = DataError(f"{path}:{linenos[first]}: non-finite vector component")
        values = values[:first]
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


def _static_rows(handle, path: Path, dim: int, limit: int | None = None):
    """Parse the data rows after the header, or only the first ``limit`` of them.

    Returns (tokens, line numbers, (n, dim) values, fault), where ``fault``
    is the DataError of the first malformed row, or None.  The values cover
    the rows before the fault, so the caller can still report an earlier
    non-finite row first.  Python splits off each token; one ``np.loadtxt``
    call parses every value.  It pulls rows one at a time, so a number it
    cannot parse is on the last row handed to it; the rows before that one
    are then parsed again from a fresh handle.
    """
    tokens: list[str] = []
    linenos: list[int] = []
    fault = None

    def value_texts():
        nonlocal fault
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            if len(tokens) == limit:
                return
            line = line.rstrip("\n").rstrip(" ")
            if line.count(" ") != dim:
                fault = DataError(f"{path}:{lineno}: expected 1 token + {dim} values, got {line.count(' ') + 1} fields")
                return
            token, _, text = line.partition(" ")
            tokens.append(token)
            linenos.append(lineno)
            yield text

    texts = value_texts()
    first = next(texts, None)
    if first is None:  # np.loadtxt warns on empty input
        return tokens, linenos, np.empty((0, dim)), fault
    try:
        values = np.loadtxt(itertools.chain([first], texts), dtype=float, delimiter=" ", comments=None, ndmin=2)
    except UnicodeDecodeError:  # a ValueError too, but not a number's fault
        raise
    except ValueError:
        bad = len(tokens) - 1
        with open(path, encoding="utf-8-sig") as again:
            again.readline()
            before = _static_rows(again, path, dim, limit=bad)
        return *before[:3], DataError(f"{path}:{linenos[bad]}: non-numeric vector component")
    return tokens, linenos, values, fault


@utf8_loader
def load_contextual(path: str | Path) -> list[ContextualRecord]:
    """Load contextual occurrence vectors from TSV.

    Columns (header row required): segment_id, side, token_index, token,
    vector -- the vector being space-separated reals.  The triple
    (segment_id, side, token_index) must be unique; all vectors must share
    one dimension.
    """
    path = Path(path)
    expected = ["segment_id", "side", "token_index", "token", "vector"]
    records: list[ContextualRecord] = []
    seen: set[tuple[str, str, int]] = set()
    dim = None
    with open(path, encoding="utf-8-sig") as handle:
        header = handle.readline().rstrip("\n").split("\t")
        if header != expected:
            raise DataError(f"{path}:1: header must be {expected}, got {header}")
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(expected):
                raise DataError(f"{path}:{lineno}: expected {len(expected)} columns, got {len(parts)}")
            segment_id, side, raw_index, token, raw_vector = parts
            try:
                token_index = int(raw_index)
                vector = np.array([float(v) for v in raw_vector.split()], dtype=float)
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed token_index or vector") from None
            if dim is None:
                dim = len(vector)
            elif len(vector) != dim:
                raise DataError(f"{path}:{lineno}: vector has {len(vector)} components, expected {dim}")
            key = (segment_id, side, token_index)
            if key in seen:
                raise DataError(f"{path}:{lineno}: duplicate (segment_id, side, token_index) {key}")
            seen.add(key)
            try:
                records.append(
                    ContextualRecord(segment_id=segment_id, side=side, token_index=token_index, token=token, vector=vector)
                )
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return records


def decontextualize(records: Sequence[ContextualRecord]) -> EmbeddingStore:
    """Average all occurrence vectors of each token string into one vector."""
    if not records:
        raise DataError("cannot decontextualize an empty record list")
    dim = len(records[0].vector)
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for record in records:
        if len(record.vector) != dim:
            raise DataError(f"mixed vector dimensions: {len(record.vector)} vs {dim}")
        if record.token in sums:
            sums[record.token] = sums[record.token] + record.vector
            counts[record.token] += 1
        else:
            sums[record.token] = record.vector.astype(float)
            counts[record.token] = 1
    table = {token: sums[token] / counts[token] for token in sums}
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
