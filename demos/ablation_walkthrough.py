"""Watching the ablation loop strip redundant predictors.

The loop measures pairwise |Spearman| between the remaining features on
the train split, drops whichever feature is most correlated with any
other (ties to the lexicographically smaller name), refits the ensemble,
and records the test correlation.  Duplicated signals fall first; the
curve shows how long performance survives the pruning.

Run:  python3 demos/ablation_walkthrough.py
"""

import numpy as np

from mteval.ensemble import FeatureMatrix
from mteval.evaluation import ablation
from mteval.pipeline import SplitFeatures
from mteval.stats import spearman

rng = np.random.default_rng(7)
N_TRAIN, N_TEST = 400, 100


def main():
    n = N_TRAIN + N_TEST
    strong = rng.normal(size=n)
    weak = rng.normal(size=n)
    names = ["strong", "strong_rescaled", "weak", "noise_a", "noise_b"]
    columns = {
        "strong": strong,
        "strong_rescaled": 3.0 * strong + 1.0,  # same ranking, different scale
        "weak": weak,
        "noise_a": rng.normal(size=n),
        "noise_b": rng.normal(size=n),
    }
    gold = strong + 0.4 * weak + rng.normal(scale=0.3, size=n)

    rows = np.column_stack([columns[name] for name in names])
    matrix = FeatureMatrix(rows, names, [f"s{i}" for i in range(n)])
    train = matrix.take_rows(list(range(N_TRAIN)))
    test = matrix.take_rows(list(range(N_TRAIN, n)))
    sources = [f"doc{i // 10}" for i in range(N_TRAIN)]

    print("pairwise |spearman| on the train split:")
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            rho = abs(spearman(columns[a][:N_TRAIN], columns[b][:N_TRAIN]))
            if rho > 0.05:
                print(f"  |rho|({a}, {b}) = {rho:.3f}")
    print("  ('strong' and its rescaling tie at 1.0, so one of them goes first)\n")

    curve = ablation(SplitFeatures(train, test, gold[:N_TRAIN].tolist(), gold[N_TRAIN:].tolist(), sources), seed=7)
    print("step  eliminated        remaining  test_rho")
    for step, (eliminated, rho) in enumerate(curve):
        print(f"{step:>4}  {eliminated or '-':<16}  {len(names) - step:>9}  {rho:+.4f}")
    print("\nthe duplicate falls first and costs nothing; performance only")
    print("drops once a feature carrying unique signal is removed")


if __name__ == "__main__":
    main()
