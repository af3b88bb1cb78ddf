"""A fixed CPU task that gauges the machine's current speed.

The benchmark runs it in a fresh process after every mteval run.  It
imports nothing from mteval, so its duration moves only with the machine:
CPU frequency and contention from other tenants, which on a small shared
sandbox change run times by up to 2x within minutes.  Like mteval's hot
paths, it mixes interpreted dict and float work with small numpy calls.
"""

import numpy as np


def main() -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(400_000):
        key = i % 997
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[(i * 7) % 997] if (i * 7) % 997 in table else 0.0
    vector = np.arange(64, dtype=float)
    for i in range(20_000):
        total += float(np.sqrt((vector * (i % 5)).sum()))
    return total


if __name__ == "__main__":
    main()
