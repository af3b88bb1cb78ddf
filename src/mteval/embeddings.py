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
import io
import itertools
import logging
import os
from pathlib import Path
from typing import Container, Iterable, Sequence

import numpy as np

from mteval.errors import DataError, Frozen, tsv_rows, utf8_loader

logger = logging.getLogger(__name__)

SIDES = ("source", "reference", "hypothesis")
_CONTEXTUAL_COLUMNS = ["segment_id", "side", "token_index", "token", "vector"]


class EmbeddingStore:
    """token -> vector table with a single declared dimension."""

    def __init__(self, dim: int, table: dict[str, np.ndarray]):
        self.dim, self.table = dim, table

    def __contains__(self, token: str) -> bool:
        return token in self.table

    def __getitem__(self, token: str) -> np.ndarray:
        return self.table[token]

    def __len__(self) -> int:
        return len(self.table)


class ContextualRecord(Frozen):
    """One (token, context) occurrence vector for a segment side."""

    def __init__(self, segment_id: str, side: str, token_index: int, token: str, vector: np.ndarray):
        self._set(locals())
        if self.side not in SIDES:
            raise DataError(f"bad side {self.side!r}; expected one of {SIDES}")
        if self.token_index < 0:
            raise DataError(f"negative token_index {self.token_index}")
        if not np.all(np.isfinite(self.vector)):
            raise DataError(f"non-finite vector for {self.segment_id!r}/{self.side}[{self.token_index}]")


@utf8_loader
def load_static(path: str | Path, keep: Container[str]) -> EmbeddingStore:
    """Load the vectors of the tokens in ``keep`` from a word-vector text file.

    Every row must carry one token and exactly ``dim`` fields, but only the
    rows of kept tokens are parsed, under the vector rule of `_parse_vectors`.
    The header count of distinct tokens is informative only (a mismatch logs
    a warning).  A duplicated kept token keeps the last vector seen and logs
    a warning.  A malformed file is reported at its first bad line.
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
    distinct: set[str] = set()

    def read_rows(handle):
        handle.readline()
        for lineno, line in enumerate(handle, start=2):
            if line.isspace():
                continue
            line = line.rstrip("\n").rstrip(" ")
            if line.count(" ") != dim:
                raise DataError(f"{path}:{lineno}: expected 1 token + {dim} values, got {line.count(' ') + 1} fields")
            token, _, text = line.partition(" ")
            distinct.add(token)
            if token in keep:
                yield lineno, token, text

    linenos, tokens, values, fault = _parse_vectors(path, read_rows)
    table: dict[str, np.ndarray] = {}
    for token, lineno, vector in zip(tokens, linenos, values):  # stops at the first bad row
        if token in table:
            logger.warning("%s:%d: duplicate token %r, keeping the later vector", path, lineno, token)
        table[token] = vector
    if fault is not None:
        raise fault
    if len(distinct) != count:
        logger.warning("%s: header declares %d tokens but %d were read", path, count, len(distinct))
    return EmbeddingStore(dim=dim, table=table)


def _parse_vectors(path: Path, read_rows, digest=None):
    """Parse the vector texts of ``read_rows`` with one streaming ``np.loadtxt`` pass.

    The vector rule of both loaders: single-space separators, trailing
    spaces ignored, numpy's number syntax (ASCII digits, no ``_``), finite
    values.  ``read_rows(handle)`` yields (line number, item, vector text)
    per row to parse, and raises DataError at a malformed line; every byte
    read of the file goes into ``digest``, when given.  An item is one
    string without a newline.  Returns (line numbers, items, (n, dim)
    values, fault): ``fault`` is the DataError of the first bad line or
    None, and the values stop before it.  numpy pulls rows one at a time,
    so a number it cannot parse is on the last row handed over; the rows
    before it are then parsed again.
    """
    linenos: list[int] = []
    items: list[str] = []
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

    raw = io.FileIO(path) if digest is None else _Hashed(path, digest)
    with io.TextIOWrapper(io.BufferedReader(raw, 1 << 20), encoding="utf-8-sig") as handle:
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


def _cached_parse(path: Path, read_rows, item_rule):
    """`_parse_vectors` of a contextual file through an on-disk cache of parses without fault.

    An entry in ``$XDG_CACHE_HOME/mteval`` (default ``~/.cache/mteval``) is
    keyed by the sha256 of numpy's version, this module's and
    `mteval.errors`'s source (the row rule and layout) and the bytes parsed.
    A hit stands for every check of every row but those of the shapes,
    finiteness and ``item_rule``, which it repeats: that rule turns each
    item into the loader's form, and an item it rejects with a ValueError
    spoils the entry.  Any cache failure falls back to the parse.  One INFO
    line per load tells which.
    """
    import hashlib  # only here: runs that read no contextual file skip its import
    entry = digest = None
    try:
        directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mteval"
        source = b"".join(Path(__file__).with_name(name).read_bytes() for name in ("embeddings.py", "errors.py"))
        prefix = f"mteval contextual vectors, numpy {np.__version__}, source {hashlib.sha256(source).hexdigest()}\n"
        digest, key = hashlib.sha256(prefix.encode()), hashlib.sha256(prefix.encode())
        with open(path, "rb") as handle:
            while block := handle.read(1 << 20):
                key.update(block)
        entry = directory / f"contextual-{key.hexdigest()}.npz"
        linenos, items, values = _read_entry(entry)
        parsed = linenos, [item_rule(item) for item in items], values, None
        logger.info("%s: vector cache hit, %s", path, entry)
        return parsed
    except Exception as exc:  # no entry, or a spoiled one: parse the file
        spoiled = "" if isinstance(exc, FileNotFoundError) else f" ({type(exc).__name__}: {exc})"
    linenos, items, values, fault = _parse_vectors(path, read_rows, digest or hashlib.sha256())
    status = "not written: a faulty or empty file, or no cache directory"
    try:
        if entry is not None and fault is None and linenos:
            _write_entry(entry := directory / f"contextual-{digest.hexdigest()}.npz", linenos, items, values)
            status = "written"
    except Exception as exc:  # an unwritable cache is no reason to fail the load
        status = f"not written: {exc}"
    logger.info("%s: vector cache miss%s, %s %s", path, spoiled, entry, status)
    return linenos, [item_rule(item) for item in items], values, fault


def _write_entry(entry: Path, linenos, items, values) -> None:
    """Write a parse as an owner-only npz archive, not through a link: line numbers, values, items in UTF-8 lines."""
    entry.parent.mkdir(parents=True, exist_ok=True)
    text = np.frombuffer("\n".join(items).encode(), dtype=np.uint8)
    with os.fdopen(os.open(entry, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o600), "wb") as out:
        np.savez(out, linenos=np.array(linenos, dtype=np.int64), values=values, items=text)


def _read_entry(entry: Path):
    """The line numbers, items and values an entry holds; ValueError unless they fit together."""
    arrays = []
    with open(entry, "rb") as handle, np.load(handle, allow_pickle=False) as archive:  # np.load leaks a failed path
        for name in ("linenos", "values", "items"):
            with archive.zip.open(f"{name}.npy") as member:
                arrays.append(np.lib.format.read_array(member, allow_pickle=False))
                if member.read(1):  # zipfile checks a member's CRC-32 only once a read reaches the member's end
                    raise ValueError(f"the cache entry's {name} member holds bytes past its array")
    linenos, values, items = arrays[0].tolist(), arrays[1], arrays[2].tobytes().decode().split("\n")  # not splitlines()
    n, width = values.shape
    fits = values.dtype == np.float64 and width > 0 and len(linenos) == len(items) == n
    if not (fits and np.isfinite(values).all()):
        raise ValueError("the cache entry does not fit the loader")
    return linenos, items, values


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
            yield lineno, f"{segment_id}\t{side}\t{token_index}\t{token}", text  # tab-split fields hold no tab

    def item_rule(item: str) -> tuple[str, str, int, str]:
        segment_id, side, index_text, token = item.split("\t")
        return segment_id, side, int(index_text), token

    linenos, items, values, fault = _cached_parse(path, read_rows, item_rule)
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
