"""Run configuration: one JSON document describing a full scoring run.

Schema (relative paths resolve against the config file's directory)::

    {
      "dataset": "mqm-zh-en.tsv",            // required, as are mode and metrics
      "dataset_format": "tsv",               // optional; inferred from suffix
      "mode": "reference_based",             // or "source_based"
      "metrics": ["scm", "wmd", "bleu"],
      "reg_base": true,
      "lowercase": false,
      "similarity": {"threshold": 0.1, "exponent": 2.0, "top_k": 100},
      "resources": {
        "static_embeddings": "vectors.txt",
        "contextual_records": "contextual.tsv",
        "wordpiece_vocab": "wordpiece.txt",
        "external_scores": "external.tsv"
      },
      "split": {"ratio": 0.8, "seed": 7},    // seed is mandatory, >= 0
      "mlp": {"hidden": 100, "learning_rate": 0.001, "batch_size": 32,
              "max_epochs": 500, "patience": 25, "val_fraction": 0.1},
      "output_dir": "runs/mqm"               // optional
    }

Validation is exhaustive: every problem found is reported in one error.
Numbers must lie in their `_RANGES`; ``output_dir`` is a nonempty string.
"""

from __future__ import annotations

import sys
from math import inf
from pathlib import Path

from mteval.errors import ConfigError, json_document, utf8_loader
from mteval.metrics import METRICS, MODES, MetricConfig
from mteval.pipeline import RESOURCE_KEYS
from mteval.vsm import DEFAULT_EXPONENT, DEFAULT_THRESHOLD, DEFAULT_TOP_K

__all__ = ["RunConfig", "load_run_config"]

_TOP_KEYS = {
    "dataset",
    "dataset_format",
    "mode",
    "metrics",
    "reg_base",
    "lowercase",
    "similarity",
    "resources",
    "split",
    "mlp",
    "output_dir",
}
_SPLIT_KEYS = {"ratio", "seed"}
#: section -> key -> (integers only, open interval of valid values); real values are compared as floats
_RANGES = {
    "similarity": {"threshold": (False, -inf, inf), "exponent": (False, 0, inf), "top_k": (True, 0, sys.maxsize)},
    "split": {"ratio": (False, 0, 1)},
    "mlp": {
        "hidden": (True, 0, sys.maxsize), "learning_rate": (False, 0, inf), "batch_size": (True, 0, sys.maxsize),
        "max_epochs": (True, 0, sys.maxsize), "patience": (True, 0, sys.maxsize), "val_fraction": (False, 0, 1),
    },
}


class RunConfig:
    def __init__(
        self, dataset_path: Path, seed: int, metric_config: MetricConfig, dataset_format: str | None = None,
        resources: dict[str, Path] | None = None, split_ratio: float = 0.8, mlp_options: dict | None = None,
        output_dir: Path | None = None,
    ):
        self.dataset_path, self.seed, self.metric_config = dataset_path, seed, metric_config
        self.dataset_format, self.split_ratio, self.output_dir = dataset_format, split_ratio, output_dir
        self.resources = {} if resources is None else resources  # resource key -> resolved path
        self.mlp_options = {} if mlp_options is None else mlp_options


@utf8_loader
def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    payload = json_document(path, ConfigError)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return _parse(payload, base_dir=path.parent, where=str(path))


def _parse(payload: dict, base_dir: Path, where: str) -> RunConfig:
    problems: list[str] = []

    unknown = set(payload) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown keys: {sorted(unknown)}")
    sections: dict[str, dict] = {}
    for key, allowed in (
        ("similarity", _RANGES["similarity"]),
        ("resources", RESOURCE_KEYS),
        ("split", _SPLIT_KEYS),
        ("mlp", _RANGES["mlp"]),
    ):
        section = payload.get(key, {})
        if not isinstance(section, dict):
            problems.append(f"'{key}' must be an object")
            continue
        sections[key] = section
        bad = set(section).difference(allowed)
        if bad:
            problems.append(f"unknown keys under '{key}': {sorted(bad)}")
        for name, (integer, low, high) in _RANGES.get(key, {}).items():
            value = section.get(name)
            number = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
            try:
                in_range = number and low < (value if integer else float(value)) < high
            except OverflowError:  # an integer too large for a float
                in_range = False
            if name in section and not in_range:
                kind = "an integer" if integer else "a number"
                problems.append(f"'{key}.{name}' must be {kind} in ({low}, {high}), got {value!r}")

    dataset = payload.get("dataset")
    if not isinstance(dataset, str) or not dataset:
        problems.append("'dataset' (path) is required")

    mode = payload.get("mode")
    if mode not in MODES:
        problems.append(f"'mode' must be one of {MODES}, got {mode!r}")

    metrics = payload.get("metrics")
    if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
        problems.append("'metrics' must be a list of metric names")
        metrics = []
    unknown_metrics = [m for m in metrics if m not in METRICS]
    if unknown_metrics:
        problems.append(f"unknown metrics: {unknown_metrics}; known: {sorted(METRICS)}")

    split, similarity, resources = (sections.get(key, {}) for key in ("split", "similarity", "resources"))
    seed = split.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append("'split.seed' (integer) is mandatory; runs must be reproducible")
        seed = 0
    elif seed < 0:
        problems.append(f"'split.seed' must be an integer >= 0, got {seed}")

    fmt = payload.get("dataset_format")
    if fmt is not None and fmt not in ("tsv", "json"):
        problems.append(f"'dataset_format' must be 'tsv' or 'json', got {fmt!r}")

    for flag in ("reg_base", "lowercase"):
        if flag in payload and not isinstance(payload[flag], bool):
            problems.append(f"'{flag}' must be a boolean")
    output_dir = payload.get("output_dir")
    if "output_dir" in payload and (not isinstance(output_dir, str) or not output_dir):
        problems.append(f"'output_dir' must be a nonempty path string, got {output_dir!r}")

    for key, value in resources.items():
        if key in RESOURCE_KEYS and (not isinstance(value, str) or not value):
            problems.append(f"'resources.{key}' must be a nonempty path string")

    metric_config = None
    if not problems:
        try:
            metric_config = MetricConfig(
                mode=mode,
                metrics=tuple(metrics),
                reg_base=payload.get("reg_base", True),
                lowercase=payload.get("lowercase", False),
                similarity_threshold=float(similarity.get("threshold", DEFAULT_THRESHOLD)),
                similarity_exponent=float(similarity.get("exponent", DEFAULT_EXPONENT)),
                similarity_top_k=similarity.get("top_k", DEFAULT_TOP_K),
            )
        except ConfigError as exc:
            problems.append(str(exc))

    if problems:
        raise ConfigError(f"{where}: invalid configuration:\n  - " + "\n  - ".join(problems))

    return RunConfig(
        dataset_path=base_dir / dataset,
        seed=seed,
        metric_config=metric_config,
        dataset_format=fmt,
        resources={key: base_dir / value for key, value in resources.items()},
        split_ratio=float(split.get("ratio", 0.8)),
        mlp_options=dict(sections.get("mlp", {})),
        output_dir=(base_dir / output_dir) if output_dir is not None else None,
    )
