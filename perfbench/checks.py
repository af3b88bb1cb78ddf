"""Output checks for one mteval run of a benchmark workload.

Every measured run must exit 0 and write each expected file with one row
per segment (or per feature) and only finite numbers.  Where per-segment
scores are written, the planted exact-match segments must score exactly
1.0 on the similarity metrics and 0.0 on the distances, and the planted
no-embedding segments must be flagged.  `digest` fingerprints the output
bytes, which must not differ between the runs of a set.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

OUTPUTS = {
    "score": ("scores.tsv", "flags.tsv"),
    "evaluate": ("correlations.tsv", "correlation_matrix.tsv", "flags.tsv"),
    "ablate": ("ablation.csv",),
}
REG_BASE_COLUMNS = 4


def digest(out_dir: Path, stdout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(stdout.read_bytes())
    return h.hexdigest()


def _rows(path: Path, delimiter: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle, delimiter=delimiter, quoting=csv.QUOTE_NONE))


def _numbers(rows: list[list[str]], first: int, where: str, problems: list[str]) -> list[list[float]]:
    out = []
    for row in rows[1:]:
        try:
            values = [float(cell) for cell in row[first:]]
        except ValueError:
            problems.append(f"{where}: non-numeric cell in row {row[0]!r}")
            return []
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{where}: non-finite value in row {row[0]!r}")
        out.append(values)
    return out


def _exact_score(metric: str) -> float | None:
    """What an exact-match segment must score, or None if not pinned."""
    if metric.startswith("scm") or metric == "bleu":
        return 1.0
    if metric.startswith("wmd") or metric == "compositionality":
        return 0.0
    return None


def check(command: str, config: dict, info: dict, out_dir: Path) -> list[str]:
    """Problems found in the outputs of one run; empty when all is well."""
    problems = [f"missing output {name}" for name in OUTPUTS[command] if not (out_dir / name).is_file()]
    if problems:
        return problems
    n_segments = info["segments"]
    n_features = len(config["metrics"]) + REG_BASE_COLUMNS + info["external_columns"]

    if command == "score":
        rows = _rows(out_dir / "scores.tsv", "\t")
        header = rows[0]
        if len(rows) - 1 != n_segments or len(header) != n_features + 1:
            problems.append(f"scores.tsv is {len(rows) - 1} x {len(header) - 1}, expected {n_segments} x {n_features}")
            return problems
        values = _numbers(rows, 1, "scores.tsv", problems)
        by_id = {row[0]: v for row, v in zip(rows[1:], values)}
        for segment_id in info["exact"]:
            if segment_id not in by_id:
                problems.append(f"exact-match segment {segment_id} is missing from scores.tsv")
            for metric, value in zip(header[1:], by_id.get(segment_id, ())):
                want = _exact_score(metric) if metric in config["metrics"] else None
                if want is not None and value != want:
                    problems.append(f"exact-match segment {segment_id} scores {value} on {metric}, expected {want}")
    elif command == "evaluate":
        rows = _rows(out_dir / "correlations.tsv", "\t")
        if len(rows) - 1 != n_features + 2:
            problems.append(f"correlations.tsv has {len(rows) - 1} rows, expected {n_features + 2}")
        _numbers(rows, 1, "correlations.tsv", problems)
        rows = _rows(out_dir / "correlation_matrix.tsv", "\t")
        if len(rows) - 1 != n_features + 2 or any(len(row) != n_features + 3 for row in rows):
            problems.append("correlation_matrix.tsv is not square over the features and both ensembles")
        _numbers(rows, 1, "correlation_matrix.tsv", problems)
    else:
        rows = _rows(out_dir / "ablation.csv", ",")
        if len(rows) - 1 != n_features:
            problems.append(f"ablation.csv has {len(rows) - 1} steps, expected {n_features}")
        _numbers(rows, 3, "ablation.csv", problems)

    if "flags.tsv" in OUTPUTS[command] and any(m.startswith("wmd") for m in config["metrics"]):
        flagged = {row[0] for row in _rows(out_dir / "flags.tsv", "\t")[1:]}
        for segment_id in info["noembed"]:
            if segment_id not in flagged:
                problems.append(f"no-embedding segment {segment_id} is missing from flags.tsv")
    return problems
