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
from typing import Container

import numpy as np

from mteval.errors import DataError, tsv_rows, utf8_loader

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


class ContextualTable:
    """Contextual occurrence vectors as one table, one array per column, checked once as arrays.

    Row i is one token occurrence: ``vectors[i]`` of the (n, dim) float64
    matrix, and entry i of the object arrays ``segment_id``, ``side`` and
    ``token`` and the int64 arrays ``token_index`` and ``lineno`` (its line
    in the file).  The first row in file order that repeats an earlier
    (segment_id, side, token_index), or has a side not in `SIDES` or a
    negative token_index, is a DataError that starts with its line number.
    A (segment_id, side) group is a row range of one stable sort by
    (segment_id, side, token_index).
    """

    def __init__(self, vectors: np.ndarray, segment_id, side, token_index, token, lineno):
        self.vectors, self.token_index = vectors, np.asarray(token_index, dtype=np.int64)
        self.segment_id, self.side, self.token = (np.asarray(column, dtype=object) for column in (segment_id, side, token))
        self.lineno = np.asarray(lineno, dtype=np.int64)
        order = np.lexsort((self.token_index, self.side, self.segment_id))
        segment_id, side, token_index = (column[order] for column in (self.segment_id, self.side, self.token_index))
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (segment_id[1:] != segment_id[:-1]) | (side[1:] != side[:-1])
        repeat = np.zeros(len(order), dtype=bool)  # an earlier row of the same triple sorts first
        repeat[order[1:]] = ~starts[1:] & (token_index[1:] == token_index[:-1])
        bad_side = ~np.isin(self.side, SIDES)
        bad = repeat | bad_side | (self.token_index < 0)
        if bad.any():
            row = int(bad.argmax())
            key = (self.segment_id[row], self.side[row], int(self.token_index[row]))
            if repeat[row]:
                problem = f"duplicate (segment_id, side, token_index) {key}"
            elif bad_side[row]:
                problem = f"bad side {key[1]!r}; expected one of {SIDES}"
            else:
                problem = f"negative token_index {key[2]}"
            raise DataError(f"{self.lineno[row]}: {problem}")
        starts = np.flatnonzero(starts)
        self._groups = dict(zip(zip(segment_id[starts].tolist(), side[starts].tolist()), np.split(order, starts[1:])))

    def __len__(self) -> int:
        return len(self.vectors)

    def side_of(self, segment_id: str, side: str) -> tuple[list[str], np.ndarray]:
        """One side's tokens and vectors in token_index order, a take of its rows; none for a side without rows."""
        rows = self._groups.get((segment_id, side), np.arange(0))
        return self.token[rows].tolist(), self.vectors.take(rows, axis=0)

    def documents(self) -> list[list[str]]:
        """Each (segment_id, side) group's tokens in token_index order, the groups in sorted order."""
        return [self.token[rows].tolist() for rows in self._groups.values()]


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


def _cached_parse(path: Path, read_rows, items_rule):
    """`_parse_vectors` of a contextual file through an on-disk cache of parses without fault.

    An entry in ``$XDG_CACHE_HOME/mteval`` (default ``~/.cache/mteval``) is
    keyed by the sha256 of numpy's version, this module's and
    `mteval.errors`'s source (the row rule and layout) and the bytes parsed.
    A hit stands for every check of every row but those of the shapes,
    finiteness and ``items_rule``, which it repeats: that rule turns the
    items into the loader's form, and items it rejects with a ValueError
    spoil the entry.  Any cache failure falls back to the parse.  One INFO
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
        parsed = linenos, items_rule(items), values, None
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
    return linenos[: len(values)], items_rule(items[: len(values)]), values, fault  # the rows before a fault


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
def load_contextual(path: str | Path) -> ContextualTable:
    """Load contextual occurrence vectors from TSV as one table.

    Columns (header row required): segment_id, side, token_index, token,
    vector -- the vector under the rule of `_parse_vectors`, like a static
    one.  The side is one of `SIDES`, the token_index a nonnegative 64-bit
    integer, and the triple (segment_id, side, token_index) unique; all
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
            if not -(2**63) <= token_index < 2**63:
                raise DataError(f"{path}:{lineno}: token_index {token_index} is out of the 64-bit range")
            text = text.rstrip(" ")
            if not text:
                raise DataError(f"{path}:{lineno}: empty vector")
            size = text.count(" ") + 1
            dim = dim or size
            if size != dim:
                raise DataError(f"{path}:{lineno}: vector has {size} components, expected {dim}")
            yield lineno, f"{segment_id}\t{side}\t{token_index}\t{token}", text  # tab-split fields hold no tab

    def split_items(items: list[str]) -> tuple:
        """The segment_id, side, token_index and token columns of the items."""
        fields = np.array([item.split("\t") for item in items] or np.empty((0, 4)), dtype=object)
        segment_id, side, token_index, token = fields.T  # a ValueError unless each item has four fields
        return segment_id, side, token_index.astype(np.int64), token

    linenos, columns, values, fault = _cached_parse(path, read_rows, split_items)
    try:
        table = ContextualTable(values, *columns, linenos)
    except DataError as exc:  # a row the table's checks reject, before any fault of the parse
        raise DataError(f"{path}:{exc}") from None
    if fault is not None:
        raise fault
    return table


def decontextualize(table: ContextualTable) -> EmbeddingStore:
    """Average all occurrence vectors of each token string into one vector."""
    if not len(table):
        raise DataError("cannot decontextualize an empty table")
    occurrences: dict[str, list[int]] = {}
    for row, token in enumerate(table.token.tolist()):
        occurrences.setdefault(token, []).append(row)
    vectors = table.vectors
    # each sum runs left to right in file order over row views, into a new array
    store = {token: functools.reduce(np.add, map(vectors.__getitem__, rows)) / len(rows) for token, rows in occurrences.items()}
    return EmbeddingStore(dim=vectors.shape[1], table=store)
