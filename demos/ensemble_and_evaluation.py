"""Fitting the regressive ensembles and reading an evaluation report.

Part one shows model selection on synthetic features: a linear law is won
by the linear regressor, an interaction law by the MLP.  Part two runs the
full protocol on the bundled toy corpus: score every metric, split by
source text, fit RegEMT and Reg-base on the train side, and report
test-split Spearman correlations for each feature and both ensembles.

Run:  python3 demos/ensemble_and_evaluation.py
"""

from pathlib import Path

import numpy as np

from mteval.config import load_run_config
from mteval.corpus import load_dataset
from mteval.ensemble import FeatureMatrix, predict, select_model
from mteval.evaluation import evaluate
from mteval.pipeline import build_resources, dataset_features
from mteval.stats import spearman

DATA = Path(__file__).parent / "data"


def demo_model_selection():
    print("1. model selection on synthetic gold standards")
    rng = np.random.default_rng(42)
    rows = rng.normal(size=(300, 2))
    features = FeatureMatrix(rows, ["f1", "f2"], [f"s{i}" for i in range(300)])
    sources = [f"doc{i // 10}" for i in range(300)]

    linear_gold = (2.0 * rows[:, 0] - rows[:, 1]).tolist()
    (model,) = select_model([features], linear_gold, seed=3, sources=sources)
    print(f"  gold = 2*f1 - f2          -> picked {model.kind!r}")

    interaction_gold = (rows[:, 0] * rows[:, 1]).tolist()
    (model,) = select_model([features], interaction_gold, seed=3, sources=sources)
    rho = spearman(predict(model, features), interaction_gold)
    print(f"  gold = f1 * f2            -> picked {model.kind!r} (fit rho {rho:.3f};")
    print("   no linear combination of f1 and f2 can rank that law)")


def demo_full_protocol():
    print("\n2. the full protocol on the bundled de-en toy corpus")
    config = load_run_config(DATA / "run_deen.json")
    dataset = load_dataset(config.dataset_path, config.dataset_format)
    resources = build_resources(config.metric_config, dataset, config.resources)
    split = dataset_features(dataset, config.metric_config, resources, config.seed, config.split_ratio)
    result = evaluate(split, seed=config.seed, mlp_options=config.mlp_options)
    print(f"  {len(dataset)} segments -> {split.train.n} train / {split.test.n} test (split by source text)")
    print(f"  RegEMT selected the {result.regemt_kind} regressor\n")
    print("  test-split Spearman to the human judgements:")
    for name, rho in sorted(result.report.to_gold.items(), key=lambda kv: -kv[1]):
        marker = " <- ensemble" if name in ("RegEMT", "Reg-base") else ""
        print(f"    {name:<22} {rho:+.3f}{marker}")
    print("\n  (a handful of test segments makes these correlations coarse;")
    print("   the mechanics, not the numbers, are the point of this demo)")


if __name__ == "__main__":
    demo_model_selection()
    demo_full_protocol()
