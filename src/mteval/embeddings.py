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
import hashlib
import io
import itertools
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from mteval.errors import DataError, tsv_rows, utf8_loader

logger = logging.getLogger(__name__)

SIDES = ("source", "reference", "hypothesis")
_CONTEXTUAL_COLUMNS = ["segment_id", "side", "token_index", "token", "vector"]
_ITEM_FIELDS = {"static": "s", "contextual": "ssis"}  # the fields of each loader's row items: "s" str, "i" int


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

    def read_rows(handle):
        handle.readline()
        for lineno, line in enumerate(handle, start=2):
            if line.isspace():
                continue
            line = line.rstrip("\n").rstrip(" ")
            if line.count(" ") != dim:
                raise DataError(f"{path}:{lineno}: expected 1 token + {dim} values, got {line.count(' ') + 1} fields")
            token, _, text = line.partition(" ")
            yield lineno, token, text

    linenos, tokens, values, fault = _cached_parse(path, "static", read_rows, dim)
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


def _parse_vectors(path: Path, read_rows, digest):
    """Parse the vector texts of ``read_rows`` with one streaming ``np.loadtxt`` pass.

    The vector rule of both loaders: single-space separators, trailing
    spaces ignored, numpy's number syntax (ASCII digits, no ``_``), finite
    values.  ``read_rows(handle)`` yields (line number, item, vector text)
    per row of the file, every byte read of which goes into ``digest``, and
    raises DataError at a malformed row.  Returns (line numbers, items,
    (n, dim) values, fault): ``fault`` is the DataError of the first bad
    line or None, and the values stop before it.  numpy pulls rows one at
    a time, so a number it cannot parse is on the last row handed over;
    the rows before it are then parsed again.
    """
    linenos: list[int] = []
    items: list = []
    fault = None

    def texts(handle):
        nonlocal fault
        try:
            for lineno, item, text in read_rows(handle):
                linenos.append(lineno)
                items.append(item)
                yield text
        except DataError as exc:
            fault = exc

    with io.TextIOWrapper(io.BufferedReader(_Hashed(path, digest), 1 << 20), encoding="utf-8-sig") as handle:
        try:
            values = _loadtxt(texts(handle))
        except UnicodeDecodeError:  # a ValueError too, but not a number's fault
            raise
        except ValueError:
            bad = len(linenos) - 1
            with open(path, encoding="utf-8-sig") as again:
                values = _loadtxt(text for _, _, text in itertools.islice(read_rows(again), bad))
            fault = DataError(f"{path}:{linenos[bad]}: non-numeric vector component")
    non_finite = ~np.isfinite(values).all(axis=1)
    if non_finite.any():
        first = int(non_finite.argmax())
        fault = DataError(f"{path}:{linenos[first]}: non-finite vector component")
        values = values[:first]
    return linenos, items, values, fault


class _Hashed(io.FileIO):
    """A binary file that feeds every byte its ``readinto`` reads into ``digest``."""

    def __init__(self, path, digest):
        super().__init__(path)
        self.digest = digest

    def readinto(self, buffer) -> int:
        size = super().readinto(buffer)
        self.digest.update(memoryview(buffer)[:size])
        return size


def _cached_parse(path: Path, kind: str, read_rows, dim: int | None = None):
    """`_parse_vectors` through an on-disk cache of parses without fault.

    An entry in ``$XDG_CACHE_HOME/mteval`` (default ``~/.cache/mteval``) is
    keyed by the sha256 of the loader, numpy's version, this module's and
    `mteval.errors`'s source (the row rule and layout) and the bytes parsed.
    A hit stands for every check of every row but those of the shapes,
    ``dim`` and finiteness, which it repeats.  Any cache failure falls back
    to the parse.  One INFO line per load tells which.
    """
    entry = digest = None
    try:
        directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mteval"
        source = b"".join(Path(__file__).with_name(name).read_bytes() for name in ("embeddings.py", "errors.py"))
        prefix = f"mteval {kind} vectors, numpy {np.__version__}, source {hashlib.sha256(source).hexdigest()}\n"
        digest, key = hashlib.sha256(prefix.encode()), hashlib.sha256(prefix.encode())
        with open(path, "rb") as handle:
            while block := handle.read(1 << 20):
                key.update(block)
        entry = directory / f"{kind}-{key.hexdigest()}.npy"
        parsed = _read_entry(entry, kind, dim)
        logger.info("%s: vector cache hit, %s", path, entry)
        return parsed
    except Exception as exc:  # no entry, or a spoiled one: parse the file
        spoiled = "" if isinstance(exc, FileNotFoundError) else f" ({type(exc).__name__}: {exc})"
    parsed = linenos, items, values, fault = _parse_vectors(path, read_rows, digest or hashlib.sha256())
    status = "not written: a faulty or empty file, or no cache directory"
    try:
        if entry is not None and fault is None and linenos:
            _write_entry(entry := directory / f"{kind}-{digest.hexdigest()}.npy", kind, linenos, items, values)
            status = "written"
    except Exception as exc:  # an unwritable cache is no reason to fail the load
        status = f"not written: {exc}"
    logger.info("%s: vector cache miss%s, %s %s", path, spoiled, entry, status)
    return parsed


def _write_entry(entry: Path, kind: str, linenos, items, values) -> None:
    """Write a parse atomically, as `np.save` arrays one after another: line numbers, values, item fields."""
    arrays = [np.array(linenos, dtype=np.int64), values]
    for field, column in zip(_ITEM_FIELDS[kind], [items] if kind == "static" else zip(*items)):
        if field == "i":
            arrays.append(np.array(column, dtype=np.int64))
        else:  # UTF-8 bytes and int64 code-point offsets
            offsets = np.cumsum([0, *map(len, column)], dtype=np.int64)
            arrays += [np.frombuffer("".join(column).encode(), dtype=np.uint8), offsets]
    entry.parent.mkdir(parents=True, exist_ok=True)
    handle, temp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
    try:
        with os.fdopen(handle, "wb") as out:
            for array in arrays:
                np.save(out, array)
        os.replace(temp, entry)
    except BaseException:
        os.unlink(temp)
        raise


def _read_entry(entry: Path, kind: str, dim: int | None):
    """The `_parse_vectors` result an entry holds; ValueError unless it fits the loader."""
    with open(entry, "rb") as handle:
        load = functools.partial(np.load, handle, allow_pickle=False)
        linenos, values, columns = load().tolist(), load(), []
        for field in _ITEM_FIELDS[kind]:
            if field == "i":
                columns.append(load().tolist())
            else:
                text, offsets = load().tobytes().decode(), load().tolist()
                columns.append([text[start:end] for start, end in zip(offsets, offsets[1:])])
        n, width = values.shape
        fits = values.dtype == np.float64 and 0 < width == (dim or width) and {len(linenos), *map(len, columns)} == {n}
        if not (fits and handle.read(1) == b"" and np.isfinite(values).all()):
            raise ValueError("the cache entry does not fit the loader")
    return linenos, columns[0] if kind == "static" else list(zip(*columns)), values, None


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

    def read_rows(handle):
        dim = None
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

    linenos, items, values, fault = _cached_parse(path, "contextual", read_rows)
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


def group_records(records: Iterable[ContextualRecord]) -> dict[tuple[str, str], list[ContextualRecord]]:
    """Index records by (segment_id, side), each group sorted by token_index."""
    groups: dict[tuple[str, str], list[ContextualRecord]] = {}
    for record in records:
        groups.setdefault((record.segment_id, record.side), []).append(record)
    for group in groups.values():
        group.sort(key=lambda r: r.token_index)
    return groups
