"""Evaluation datasets: loading, judgement averaging, source-disjoint splits.

A dataset is a flat list of segments, one per (source, hypothesis) pair,
optionally carrying a reference, human judgements, and part-of-speech tags
for each side.  Two on-disk layouts are read:

* TSV, UTF-8, with a header row and columns
  ``id  src_lang  tgt_lang  source  reference  hypothesis  judgements
  pos_source  pos_reference  pos_hypothesis``.
  ``judgements`` holds comma-separated reals, ``pos_*`` space-separated
  tags; ``reference``, ``judgements``, and ``pos_*`` may be empty.
* JSON: an array of records with the same field names (absent fields are
  treated like empty columns).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable

from mteval._rng import Xorshift64Star, round_half_up
from mteval.errors import DataError, Frozen, tsv_rows, utf8_loader

_TSV_COLUMNS = [
    "id",
    "src_lang",
    "tgt_lang",
    "source",
    "reference",
    "hypothesis",
    "judgements",
    "pos_source",
    "pos_reference",
    "pos_hypothesis",
]


class Segment(Frozen):
    """One evaluation unit: a hypothesis with the texts it is judged against."""

    def __init__(
        self, id: str, src_lang: str, tgt_lang: str, source: str, reference: str | None, hypothesis: str,
        judgements: tuple[float, ...] = (), pos_source: tuple[str, ...] | None = None,
        pos_reference: tuple[str, ...] | None = None, pos_hypothesis: tuple[str, ...] | None = None,
    ):
        self._set(locals())
        if not self.id:
            raise DataError("segment id must be nonempty")
        if any(char in self.id for char in "\t\n\r"):  # it would break the rows of every output table
            raise DataError(f"segment id {self.id!r} holds a tab or a line break")
        if not self.hypothesis:
            raise DataError(f"segment {self.id!r}: hypothesis must be nonempty")
        if not self.source:
            raise DataError(f"segment {self.id!r}: source must be nonempty")
        for value in self.judgements:
            if not math.isfinite(value):
                raise DataError(f"segment {self.id!r}: non-finite judgement {value!r}")
        for name, text in (("pos_source", self.source), ("pos_reference", self.reference), ("pos_hypothesis", self.hypothesis)):
            tags = getattr(self, name)
            if tags is None:
                continue
            if text is None:
                raise DataError(f"segment {self.id!r}: {name} given but the text side is missing")
            if len(tags) != len(text.split()):
                raise DataError(
                    f"segment {self.id!r}: {name} has {len(tags)} tags "
                    f"for {len(text.split())} whitespace tokens"
                )


class _IndexedError(DataError):
    """A dataset problem first seen at ``index`` in its segment list."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class Dataset:
    """Segments sharing one language pair, ids unique."""

    def __init__(self, segments: list[Segment], name: str = ""):
        self.segments, self.name = segments, name
        seen: set[str] = set()
        for index, seg in enumerate(self.segments):
            if seg.id in seen:
                raise _IndexedError(index, f"duplicate segment id {seg.id!r} in dataset {self.name!r}")
            seen.add(seg.id)
        pairs = [(seg.src_lang, seg.tgt_lang) for seg in self.segments]
        for index, pair in enumerate(pairs):
            if pair != pairs[0]:
                raise _IndexedError(index, f"dataset {self.name!r} mixes language pairs: {sorted(set(pairs))}")

    def __eq__(self, other):
        return (self.segments, self.name) == (other.segments, other.name) if other.__class__ is Dataset else NotImplemented

    def __len__(self) -> int:
        return len(self.segments)

    def unique_sources(self) -> list[str]:
        """Distinct source texts in first-occurrence order."""
        return list(dict.fromkeys(seg.source for seg in self.segments))


def _parse_judgements(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError as exc:
        raise DataError(f"bad judgements field {raw!r}") from exc


def _parse_pos(raw: str) -> tuple[str, ...] | None:
    raw = raw.strip()
    return tuple(raw.split()) if raw else None


def _located_segment(fields: dict[str, str], where: str) -> tuple[str, Segment]:
    """(where, the segment of one row's fields); a bad field is a DataError at ``where``."""
    try:
        return where, Segment(
            id=fields["id"].strip(),
            src_lang=fields["src_lang"].strip(),
            tgt_lang=fields["tgt_lang"].strip(),
            source=fields["source"],
            reference=fields["reference"] if fields["reference"] else None,
            hypothesis=fields["hypothesis"],
            judgements=_parse_judgements(fields["judgements"]),
            pos_source=_parse_pos(fields["pos_source"]),
            pos_reference=_parse_pos(fields["pos_reference"]),
            pos_hypothesis=_parse_pos(fields["pos_hypothesis"]),
        )
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


@utf8_loader
def load_dataset(path: str | Path, format: str | None = None) -> Dataset:
    """Load a dataset from a TSV or JSON file.

    ``format`` is "tsv" or "json"; when omitted it is taken from the file
    suffix.  Row order is preserved.  Malformed rows, a repeated id and a
    second language pair raise DataError naming the offending line (TSV) or
    record (JSON); a file with no segments raises DataError.
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format == "tsv":
        located = _load_tsv(path)
    elif format == "json":
        located = _load_json(path)
    else:
        raise DataError(f"{path}: unsupported dataset format {format!r} (expected tsv or json)")
    if not located:
        raise DataError(f"{path}: no segments")
    try:
        return Dataset(segments=[segment for _, segment in located], name=path.stem)
    except _IndexedError as exc:
        raise DataError(f"{located[exc.index][0]}: {exc}") from None


def _load_tsv(path: Path) -> list[tuple[str, Segment]]:
    with open(path, encoding="utf-8-sig") as handle:
        header, rows = tsv_rows(handle, path)
        if header != _TSV_COLUMNS:
            raise DataError(f"{path}:1: header must be {_TSV_COLUMNS}, got {header}")
        return [_located_segment(dict(zip(_TSV_COLUMNS, row)), f"{path}:{lineno}") for lineno, row in rows]


def _load_json(path: Path) -> list[tuple[str, Segment]]:
    with open(path, encoding="utf-8-sig") as handle:
        try:
            records = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(records, list):
        raise DataError(f"{path}: expected a JSON array of records")
    segments = []
    for index, record in enumerate(records):
        where = f"{path}:record {index}"
        if not isinstance(record, dict):
            raise DataError(f"{where}: expected an object")
        fields = {}
        for column in _TSV_COLUMNS:
            value = record.get(column)
            if isinstance(value, list):  # judgements as in the TSV column, tags space-separated
                value = ",".join(_json_judgement(e, where) for e in value) if column == "judgements" else " ".join(map(str, value))
            fields[column] = "" if value is None else str(value)
        segments.append(_located_segment(fields, where))
    return segments


def _json_judgement(element, where: str) -> str:
    """A JSON judgement as the TSV column's text: a number (not a boolean), or a string holding exactly one number."""
    text = repr(element) if type(element) in (int, float) else element if isinstance(element, str) else None
    try:
        float(text)
    except (TypeError, ValueError):
        raise DataError(f"{where}: bad judgement {json.dumps(element, ensure_ascii=False)}") from None
    return text


def average_judgements(segment: Segment) -> float:
    """Gold standard for a segment: the arithmetic mean of its judgements.

    math.fsum keeps the mean exactly rounded, hence invariant under
    permutation of the judgement list.
    """
    if not segment.judgements:
        raise DataError(f"segment {segment.id!r} has no judgements")
    return math.fsum(segment.judgements) / len(segment.judgements)


def dataset_gold(dataset: Dataset) -> list[float]:
    """Averaged judgements for every segment, aligned with dataset order."""
    return [average_judgements(seg) for seg in dataset.segments]


def split_sources(sources: Iterable[str], ratio: float, seed: int) -> tuple[list[str], list[str]]:
    """Shuffle the distinct ``sources`` and cut them into two parts.

    Distinct sources are taken in first-occurrence order, shuffled by the
    pinned generator (see mteval._rng), and the first
    ``round(ratio * n_sources)`` form the first part.  Deterministic for a
    fixed (sources, ratio, seed).
    """
    unique = list(dict.fromkeys(sources))
    Xorshift64Star(seed).shuffle(unique)
    cut = round_half_up(ratio * len(unique))
    return unique[:cut], unique[cut:]


def split_by_source(dataset: Dataset, train_ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split a dataset so that each unique source text lands wholly on one side.

    The train side holds the first part of `split_sources` over the
    dataset's sources.
    """
    if not 0.0 < train_ratio < 1.0:
        raise ValueError(f"train_ratio must lie in (0, 1), got {train_ratio}")
    sources = dataset.unique_sources()
    if len(sources) < 2:
        raise DataError(f"dataset {dataset.name!r} has {len(sources)} unique sources; need at least 2 to split")
    train_sources = set(split_sources(sources, train_ratio, seed)[0])
    train = [seg for seg in dataset.segments if seg.source in train_sources]
    test = [seg for seg in dataset.segments if seg.source not in train_sources]
    return (
        Dataset(segments=train, name=f"{dataset.name}/train"),
        Dataset(segments=test, name=f"{dataset.name}/test"),
    )
