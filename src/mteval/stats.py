"""Rank statistics shared by the ensemble and the evaluation protocol."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with ties assigned the mean of their covered positions."""
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # tie runs of the sorted values: [starts[g], ends[g]] share one rank
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], len(x)) - 1
    ranks = np.empty(len(x), dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman's rank correlation: Pearson correlation of average-tie ranks.

    Raises ValueError on length mismatch, fewer than two observations or a
    non-finite value, which has no rank.
    When either input is constant the coefficient is undefined, and the
    neutral value 0.0 is returned rather than NaN: the one policy for an
    undefined correlation, so reports, model selection and ablation all
    score it as 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 1 or len(a) < 2:
        raise ValueError("spearman needs two 1-d sequences of length >= 2")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("spearman needs finite values")
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    ra = average_ranks(a)
    rb = average_ranks(b)
    # perfect rank agreement (or reversal) is exactly +/-1 by definition;
    # skip the float arithmetic so monotone pairs never come out as 1-ulp
    if np.array_equal(ra, rb):
        return 1.0
    if np.array_equal(ra + rb, np.full(len(ra), len(ra) + 1.0)):
        return -1.0
    da = ra - ra.mean()
    db = rb - rb.mean()
    rho = float(np.dot(da, db) / np.sqrt(np.dot(da, da) * np.dot(db, db)))
    return max(-1.0, min(1.0, rho))

