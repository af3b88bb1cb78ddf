"""Error taxonomy: configuration problems vs malformed input data.

The split matters to the command line, which exits 1 on ConfigError and 2
on DataError.  Both subclass ValueError so library callers can catch one
type.  Every loader wears `utf8_loader`; TSV loaders read through `tsv_rows`,
JSON loaders through `json_document`.  Every immutable record derives from `Frozen`.
"""

import functools
import json
from pathlib import Path


class ConfigError(ValueError):
    """Invalid run configuration (unknown metric, missing resource, ...)."""


class DataError(ValueError):
    """Malformed input file contents (bad row, dimension mismatch, ...)."""


class Frozen:
    """A record whose fields, its `__init__`'s parameters, are set once by ``self._set(locals())``.

    Assigning or deleting any attribute afterwards raises AttributeError.
    Records of one class are equal, and hash, by their fields' values only,
    so a memo kept beside the fields does not count.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _set(self, values: dict) -> None:
        self.__dict__.update({name: values[name] for name in self._fields})

    def _values(self) -> tuple:
        values = self.__dict__
        return tuple(values[name] for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())


def utf8_loader(load):
    """Make ``load(path, ...)`` report text that is not UTF-8 as a DataError at its line."""

    @functools.wraps(load)
    def loader(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except UnicodeDecodeError:
            raw = Path(path).read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = raw.count(b"\n", 0, exc.start) + 1
                raise DataError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
            raise

    return loader


def tsv_rows(handle, path):
    """The header fields of a tab-separated file and an iterator over its data rows.

    The iterator yields (line number, fields), skipping empty and
    whitespace-only lines; a row whose field count differs from the
    header's is a DataError at its line.  Fields are split on tabs alone:
    no quoting, no field-length limit.
    """
    header = handle.readline()
    if not header:
        raise DataError(f"{path}: empty file")
    header = header.rstrip("\n").split("\t")

    def rows():
        for lineno, line in enumerate(handle, start=2):
            if line.isspace():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(fields)}")
            yield lineno, fields

    return header, rows()


def json_document(path, error):
    """The JSON value in ``path``; bad syntax, a repeated key, a too-long integer or too-deep nesting is ``error`` naming the file."""
    text = Path(path).read_text(encoding="utf-8-sig")  # undecodable text reaches `utf8_loader`, which names its line
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None


def _unique_keys(pairs: list) -> dict:
    """One JSON object's (key, value) pairs as a dict; a repeated key is a ValueError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(key for key in obj if keys.count(key) > 1)!r}")
    return obj
