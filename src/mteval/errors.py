"""Error taxonomy: configuration problems vs malformed input data.

The split matters to the command line, which exits 1 on ConfigError and 2
on DataError.  Both subclass ValueError so library callers can catch one
type.
"""

import functools
from pathlib import Path


class ConfigError(ValueError):
    """Invalid run configuration (unknown metric, missing resource, ...)."""


class DataError(ValueError):
    """Malformed input file contents (bad row, dimension mismatch, ...)."""


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
