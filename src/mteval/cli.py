"""Command-line front-end: score, evaluate, ablate, crosslingual.

Each subcommand reads a JSON run config (see mteval.config for the schema)
and writes UTF-8, LF-terminated tables with 6-decimal fixed-point reals
into the output directory.  Identical config and inputs produce
bit-identical outputs.  --threads is accepted and has no effect.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 internal
error (a bug: the transport solver failing to converge, or any other
uncaught exception), each with a one-line message.  A Spearman
correlation left undefined by two constant inputs is reported as 0.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import logging
import sys
from pathlib import Path

from mteval import __version__
from mteval.config import RunConfig, load_run_config
from mteval.corpus import load_dataset
from mteval.errors import ConfigError, DataError
from mteval.evaluation import ablation, cross_lingual_eval, evaluate
from mteval.pipeline import SplitFeatures, build_resources, dataset_features, feature_names, score_dataset

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mteval",
        description="Translation quality metrics, regressive ensembles, and their evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    verbose_help = "log progress to stderr (default: off)"
    parser.add_argument("-v", "--verbose", action="store_true", help=verbose_help)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd: argparse.ArgumentParser) -> None:
        # no default here, so a -v given before the subcommand is not reset
        cmd.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS, help=verbose_help)
        cmd.add_argument("--threads", type=int, default=1, help="accepted, has no effect")
        cmd.add_argument("--out", type=Path, default=None, help="output directory (default: config output_dir, else '.')")

    for name, func, summary in (
        ("score", cmd_score, "dump per-segment metric scores"),
        ("evaluate", cmd_evaluate, "test-split correlations of all metrics, RegEMT, and Reg-base"),
        ("ablate", cmd_ablate, "correlation-driven feature elimination curve"),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument("--config", type=Path, required=True, help="JSON run config")
        common(command)
        command.set_defaults(func=func)

    crosslingual = sub.add_parser("crosslingual", help="fit on one language pair, report on another")
    crosslingual.add_argument("--fit-config", type=Path, required=True, help="JSON run config of the fitting pair")
    crosslingual.add_argument("--eval-config", type=Path, required=True, help="JSON run config of the reported pair")
    common(crosslingual)
    crosslingual.set_defaults(func=cmd_crosslingual)
    return parser


def _load_run(config: RunConfig):
    dataset = load_dataset(config.dataset_path, config.dataset_format)
    return dataset, build_resources(config.metric_config, dataset, config.resources)


def _split(config: RunConfig, dataset, resources, *sides: str) -> SplitFeatures:
    """Score a run's dataset and split its features by source; a DataError unless each named side holds 2 segments."""
    split = dataset_features(dataset, config.metric_config, resources, config.seed, config.split_ratio)
    for side in sides:
        count = getattr(split, side).n
        if count < 2:
            raise DataError(
                f"dataset {dataset.name!r}: split ratio {config.split_ratio} leaves {count} segments on the {side} side; need at least 2"
            )
    return split


def _out_dir(args, config: RunConfig) -> Path:
    out = args.out or config.output_dir or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_table(path: Path, header: list[str], rows) -> None:
    """A UTF-8, LF-terminated, tab-separated table: float cells as 6-decimal fixed point, the rest as str."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in [header, *rows]:
            handle.write("\t".join(f"{cell:.6f}" if isinstance(cell, float) else str(cell) for cell in row) + "\n")


def _write_flags(path: Path, flags: dict[str, dict[str, str]]) -> None:
    rows = ([segment_id, metric, flag] for segment_id in sorted(flags) for metric, flag in sorted(flags[segment_id].items()))
    _write_table(path, ["segment_id", "metric", "flag"], rows)


def _write_ablation(path: Path, curve: list[tuple[str | None, float]]) -> None:
    """ablation.csv, through csv.writer: an external column name may hold a comma."""
    import csv  # only here: the other subcommands skip its import
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["step", "eliminated", "remaining", "test_rho"])
        for step, (eliminated, rho) in enumerate(curve):  # one step per feature, so step k leaves len(curve) - k
            writer.writerow([step, eliminated or "", len(curve) - step, f"{rho:.6f}"])


def cmd_score(args) -> int:
    config = load_run_config(args.config)
    dataset, resources = _load_run(config)
    features, flags, _ = score_dataset(dataset, config.metric_config, resources)
    out = _out_dir(args, config)
    rows = ([segment_id, *row] for segment_id, row in zip(features.segment_ids, features.rows))
    _write_table(out / "scores.tsv", ["segment_id", *features.feature_names], rows)
    _write_flags(out / "flags.tsv", flags)
    logger.info("wrote %s and %s", out / "scores.tsv", out / "flags.tsv")
    return 0


def cmd_evaluate(args) -> int:
    config = load_run_config(args.config)
    if not config.metric_config.reg_base:  # before any input is read; `evaluate` checks it too
        raise ConfigError("evaluate reports Reg-base and needs reg_base features enabled")
    split = _split(config, *_load_run(config), "train", "test")
    to_gold, matrix, kinds = evaluate(split, seed=config.seed, mlp_options=config.mlp_options)
    out = _out_dir(args, config)
    _write_table(out / "correlations.tsv", ["metric", "spearman_to_gold"], to_gold.items())
    _write_table(out / "correlation_matrix.tsv", ["metric", *to_gold], ([a, *(matrix[a, b] for b in to_gold)] for a in to_gold))
    _write_flags(out / "flags.tsv", split.flags)
    print(f"test segments: {split.test.n} (train {split.train.n})")
    for name, kind in kinds.items():
        print(f"{name} ({kind}): {to_gold[name]:.6f}")
    return 0


def cmd_ablate(args) -> int:
    config = load_run_config(args.config)
    dataset, resources = _load_run(config)
    n_features = len(feature_names(config.metric_config, resources))
    if n_features < 2:
        raise ConfigError(f"ablate needs at least 2 features (metrics, reg_base, external scores), got {n_features}")
    curve = ablation(_split(config, dataset, resources, "train", "test"), seed=config.seed, mlp_options=config.mlp_options)
    out = _out_dir(args, config)
    _write_ablation(out / "ablation.csv", curve)
    logger.info("wrote %s", out / "ablation.csv")
    return 0


def cmd_crosslingual(args) -> int:
    fit_config = load_run_config(args.fit_config)
    eval_config = load_run_config(args.eval_config)
    if fit_config.metric_config != eval_config.metric_config:
        raise ConfigError("fit and eval configs must enable identical metrics in the same mode")
    fit_dataset, fit_resources = _load_run(fit_config)
    eval_dataset, eval_resources = _load_run(eval_config)
    fit_names = feature_names(fit_config.metric_config, fit_resources)
    eval_names = feature_names(eval_config.metric_config, eval_resources)
    if fit_names != eval_names:
        raise ConfigError(f"fit and eval configs must yield the same feature columns: fit {fit_names}, eval {eval_names}")
    fit_split = _split(fit_config, fit_dataset, fit_resources, "train")
    eval_split = _split(eval_config, eval_dataset, eval_resources, "test")
    rho = cross_lingual_eval(fit_split, eval_split, seed=fit_config.seed, mlp_options=fit_config.mlp_options)
    out = _out_dir(args, fit_config)
    row = [fit_dataset.name, eval_dataset.name, rho]
    _write_table(out / "crosslingual.tsv", ["fit_dataset", "eval_dataset", "test_rho"], [row])
    print(f"RegEMT-X ({fit_dataset.name} -> {eval_dataset.name}): {rho:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    atexit.unregister(gc.freeze)  # registered once per process, however often main runs
    atexit.register(gc.freeze)  # at exit only: the interpreter's last collections then skip the whole heap
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: report it on one line
        print(f"internal error: {' '.join(str(exc).split()) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
