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
import logging
import sys
from pathlib import Path

from mteval import __version__
from mteval.config import RunConfig, load_run_config
from mteval.corpus import load_dataset
from mteval.ensemble import FeatureMatrix
from mteval.errors import ConfigError, DataError
from mteval.evaluation import ablation, cross_lingual_eval, evaluate_dataset
from mteval.pipeline import build_resources, dataset_features, feature_names, score_features

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

    score = sub.add_parser("score", help="dump per-segment metric scores")
    score.add_argument("--config", type=Path, required=True, help="JSON run config")
    common(score)
    score.set_defaults(func=cmd_score)

    evaluate = sub.add_parser("evaluate", help="test-split correlations of all metrics, RegEMT, and Reg-base")
    evaluate.add_argument("--config", type=Path, required=True, help="JSON run config")
    common(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    ablate = sub.add_parser("ablate", help="correlation-driven feature elimination curve")
    ablate.add_argument("--config", type=Path, required=True, help="JSON run config")
    common(ablate)
    ablate.set_defaults(func=cmd_ablate)

    crosslingual = sub.add_parser("crosslingual", help="fit on one language pair, report on another")
    crosslingual.add_argument("--fit-config", type=Path, required=True, help="JSON run config of the fitting pair")
    crosslingual.add_argument("--eval-config", type=Path, required=True, help="JSON run config of the reported pair")
    common(crosslingual)
    crosslingual.set_defaults(func=cmd_crosslingual)
    return parser


def _load_run(config: RunConfig):
    dataset = load_dataset(config.dataset_path, config.dataset_format)
    return dataset, build_resources(config.metric_config, dataset, config.resources)


def _out_dir(args, config: RunConfig) -> Path:
    out = args.out or config.output_dir or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_scores_tsv(path: Path, features: FeatureMatrix) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("segment_id\t" + "\t".join(features.feature_names) + "\n")
        for segment_id, row in zip(features.segment_ids, features.rows):
            handle.write(segment_id + "\t" + "\t".join(f"{cell:.6f}" for cell in row) + "\n")


def _write_flags_tsv(path: Path, flags: dict[str, dict[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("segment_id\tmetric\tflag\n")
        for segment_id in sorted(flags):
            for metric in sorted(flags[segment_id]):
                handle.write(f"{segment_id}\t{metric}\t{flags[segment_id][metric]}\n")


def cmd_score(args) -> int:
    config = load_run_config(args.config)
    dataset, resources = _load_run(config)
    features, flags, _ = score_features(dataset, config.metric_config, resources)
    out = _out_dir(args, config)
    _write_scores_tsv(out / "scores.tsv", features)
    _write_flags_tsv(out / "flags.tsv", flags)
    logger.info("wrote %s and %s", out / "scores.tsv", out / "flags.tsv")
    return 0


def cmd_evaluate(args) -> int:
    config = load_run_config(args.config)
    dataset, resources = _load_run(config)
    result = evaluate_dataset(
        dataset,
        config.metric_config,
        resources,
        seed=config.seed,
        train_ratio=config.split_ratio,
        mlp_options=config.mlp_options,
    )
    out = _out_dir(args, config)
    result.report.write_to_gold_tsv(out / "correlations.tsv")
    result.report.write_matrix_tsv(out / "correlation_matrix.tsv")
    _write_flags_tsv(out / "flags.tsv", result.flags)
    print(
        f"test segments: {result.n_test} (train {result.n_train})\n"
        f"RegEMT ({result.regemt_kind}): {result.report.to_gold['RegEMT']:.6f}\n"
        f"Reg-base ({result.reg_base_kind}): {result.report.to_gold['Reg-base']:.6f}"
    )
    return 0


def cmd_ablate(args) -> int:
    config = load_run_config(args.config)
    dataset, resources = _load_run(config)
    n_features = len(feature_names(config.metric_config, resources))
    if n_features < 2:
        raise ConfigError(f"ablate needs at least 2 features (metrics, reg_base, external scores), got {n_features}")
    split = dataset_features(dataset, config.metric_config, resources, config.seed, config.split_ratio)
    curve = ablation(
        split.train,
        split.test,
        split.gold_train,
        split.gold_test,
        seed=config.seed,
        sources=split.train_sources,
        mlp_options=config.mlp_options,
    )
    out = _out_dir(args, config)
    curve.write_csv(out / "ablation.csv")
    logger.info("wrote %s", out / "ablation.csv")
    return 0


def cmd_crosslingual(args) -> int:
    fit_config = load_run_config(args.fit_config)
    eval_config = load_run_config(args.eval_config)
    if fit_config.metric_config != eval_config.metric_config:
        raise ConfigError("fit and eval configs must enable identical metrics in the same mode")
    fit_dataset, fit_resources = _load_run(fit_config)
    eval_dataset, eval_resources = _load_run(eval_config)
    rho = cross_lingual_eval(
        fit_dataset,
        eval_dataset,
        fit_config.metric_config,
        fit_resources,
        eval_resources,
        seed=fit_config.seed,
        train_ratio=fit_config.split_ratio,
        eval_seed=eval_config.seed,
        eval_train_ratio=eval_config.split_ratio,
        mlp_options=fit_config.mlp_options,
    )
    out = _out_dir(args, fit_config)
    with open(out / "crosslingual.tsv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("fit_dataset\teval_dataset\ttest_rho\n")
        handle.write(f"{fit_dataset.name}\t{eval_dataset.name}\t{rho:.6f}\n")
    print(f"RegEMT-X ({fit_dataset.name} -> {eval_dataset.name}): {rho:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
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
