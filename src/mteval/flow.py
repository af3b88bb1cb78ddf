"""Exact solver for the balanced transportation problem.

Word mover's distance reduces to a minimum-cost flow on the bipartite
graph of the two texts' terms.  Problem sizes are segment-scale (tens to a
few hundred nodes), so the solver favours exactness and few Python-level
steps over asymptotics: successive shortest paths, each path found by
label-correcting (Bellman-Ford) passes in which one numpy operation
relaxes every forward arc of the n x m residual graph and one relaxes
every backward arc.  Backward arcs cost the negated forward cost; each
augmentation follows a shortest path, so the flow stays optimal for its
value and the residual graph never holds a negative cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FlowSolution:
    """Optimal flows of a transportation instance.

    ``flows`` maps (supply index, demand index) to the shipped mass; row
    sums reproduce the supplies and column sums the demands (up to float
    dust), and ``cost`` is the cumulative shipped-mass-times-cost optimum.
    """

    flows: dict[tuple[int, int], float]
    cost: float
    n_sources: int
    n_sinks: int

    def row_sums(self) -> np.ndarray:
        sums = np.zeros(self.n_sources)
        for (i, _), value in self.flows.items():
            sums[i] += value
        return sums

    def col_sums(self) -> np.ndarray:
        sums = np.zeros(self.n_sinks)
        for (_, j), value in self.flows.items():
            sums[j] += value
        return sums


def solve_transport(supplies, demands, costs) -> FlowSolution:
    """Minimize sum(F * costs) subject to F >= 0, F 1 = supplies, F^T 1 = demands.

    Supplies and demands must be nonnegative and balanced to within 1e-9
    of their scale; costs must be finite and nonnegative.  The optimum is
    exact up to float rounding (well inside 1e-9 for unit-scale masses).
    """
    a = np.asarray(supplies, dtype=float)
    b = np.asarray(demands, dtype=float)
    costs = np.asarray(costs, dtype=float)
    n, m = len(a), len(b)
    if costs.shape != (n, m):
        raise ValueError(f"cost matrix shape {costs.shape} does not match {n} supplies x {m} demands")
    if n == 0 or m == 0:
        raise ValueError("transportation instance needs at least one supply and one demand")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("supplies and demands must be nonnegative")
    if not np.all(np.isfinite(costs)) or np.any(costs < 0):
        raise ValueError("costs must be finite and nonnegative")
    total_a = float(a.sum())
    total_b = float(b.sum())
    scale = max(total_a, total_b, 1.0)
    if abs(total_a - total_b) > 1e-9 * scale:
        raise ValueError(f"unbalanced instance: supplies sum to {total_a}, demands to {total_b}")

    # Residuals below tol are float dust from saturation arithmetic, not mass.
    tol = 1e-14 * scale
    # Relax only on improvements beyond eps: float rounding in (d + c) - c
    # would otherwise close zero-length predecessor cycles.
    eps = 1e-12 * float(costs.max())
    flow = np.zeros((n, m))
    supply_left = a.copy()
    demand_left = b.copy()
    for _ in range(2 * (n + m) + 2 * n * m + 16):
        supply_pred, demand_dist, demand_pred = _shortest_paths(costs, flow > tol, supply_left > tol, eps)
        ends = np.where(demand_left > tol, demand_dist, np.inf)
        j = int(np.argmin(ends))
        if not np.isfinite(ends[j]):
            break
        # walk back to the source: rows[k] -> cols[k] are forward arcs,
        # cols[k + 1] -> rows[k] backward arcs cancelling shipped mass
        rows, cols = [], [j]
        for _ in range(n + m):
            rows.append(int(demand_pred[cols[-1]]))
            if supply_pred[rows[-1]] < 0:
                break
            cols.append(int(supply_pred[rows[-1]]))
        else:
            raise RuntimeError("transportation solver found a predecessor cycle; please report this instance")
        backward = (rows[:-1], cols[1:])
        bottleneck = min(supply_left[rows[-1]], demand_left[j], flow[backward].min(initial=np.inf))
        if bottleneck <= tol:
            break
        supply_left[rows[-1]] -= bottleneck
        demand_left[j] -= bottleneck
        flow[rows, cols] += bottleneck
        flow[backward] -= bottleneck
    else:
        raise RuntimeError("transportation solver failed to converge; please report this instance")

    if np.any(np.abs(flow.sum(axis=1) - a) > 1e-9 * scale) or np.any(np.abs(flow.sum(axis=0) - b) > 1e-9 * scale):
        raise RuntimeError("transportation solver left unmet supply or demand beyond tolerance")

    flow[flow < 0] = 0.0
    nonzero = np.argwhere(flow > 0)
    flows = {(int(i), int(j)): float(flow[i, j]) for i, j in nonzero}
    return FlowSolution(flows=flows, cost=float((flow * costs).sum()), n_sources=n, n_sinks=m)


def _shortest_paths(costs, carries, free_supply, eps):
    """Shortest distances from the super source over the residual graph.

    Free supplies start at distance 0.  Each pass relaxes all forward arcs
    (supply -> demand, cost c) and all backward arcs (demand -> supply,
    cost -c, where flow is shipped) until no label improves by more than
    eps.  A supply predecessor of -1 means the super source.
    """
    n, m = costs.shape
    supply_dist = np.where(free_supply, 0.0, np.inf)
    supply_pred = np.full(n, -1)
    demand_dist = np.full(m, np.inf)
    demand_pred = np.zeros(m, dtype=np.int64)
    backward = np.where(carries, -costs, np.inf)
    for _ in range(n + m + 1):
        reach = supply_dist[:, None] + costs
        pred = reach.argmin(axis=0)
        dist = reach[pred, np.arange(m)]
        better = dist < demand_dist - eps
        if not better.any():
            return supply_pred, demand_dist, demand_pred
        demand_dist[better] = dist[better]
        demand_pred[better] = pred[better]
        reach = demand_dist[None, :] + backward
        pred = reach.argmin(axis=1)
        dist = reach[np.arange(n), pred]
        better = dist < supply_dist - eps
        if not better.any():
            return supply_pred, demand_dist, demand_pred
        supply_dist[better] = dist[better]
        supply_pred[better] = pred[better]
    raise RuntimeError("transportation solver failed to converge; please report this instance")
