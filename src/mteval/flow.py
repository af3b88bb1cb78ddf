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

A run's problems are padded to one shape and stepped in lockstep, so numpy's
per-call overhead is paid once per step of the batch.  Padded cells cost
+inf and follow the real ones, so argmin picks what it picks unpadded; a
settled problem is a fixed point of one more pass; each problem keeps its
own tolerances, budgets and cost sum: every solution is bit-identical to
solving its problem alone.
"""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

#: Padded cells (problems x n_max x m_max) solved in one lockstep chunk.  It
#: bounds the solver's working arrays (2 MiB each) whatever the batch size.
CHUNK_CELLS = 1 << 18

_CONVERGENCE = "transportation solver failed to converge; please report this instance"


class FlowSolution:
    """Optimal plan of a transportation instance.

    ``plan`` is the nonnegative n x m array of shipped masses; row sums
    reproduce the supplies and column sums the demands (up to float dust),
    and ``cost`` is the cumulative shipped-mass-times-cost optimum.
    """

    def __init__(self, plan: np.ndarray, cost: float, n_sources: int, n_sinks: int):
        self.plan, self.cost, self.n_sources, self.n_sinks = plan, cost, n_sources, n_sinks


def solve_transport(supplies, demands, costs) -> FlowSolution:
    """Minimize sum(F * costs) subject to F >= 0, F 1 = supplies, F^T 1 = demands.

    Supplies and demands must be nonnegative, finite and balanced to within
    1e-9 of their scale; costs must be finite and nonnegative.  The optimum is
    exact up to float rounding (well inside 1e-9 for unit-scale masses).
    """
    return solve_transport_batch([(supplies, demands, costs)])[0]


def solve_transport_batch(problems) -> list[FlowSolution]:
    """Solve each (supplies, demands, costs) problem as `solve_transport` does.

    Solutions come in input order.  Tall and square problems (n >= m) are
    solved apart from wide ones (n < m), so a chunk never pads one to the
    other's shape; each group goes in size order, in chunks of at most
    CHUNK_CELLS padded cells.  One INFO line reports the batch's size, its
    largest problem, and the lockstep rounds and augmentations it took.
    """
    checked = [_checked(*problem) for problem in problems]
    if not checked:
        return []
    order = sorted(range(len(checked)), key=lambda p: checked[p][2].size)
    groups, solutions, rounds, augmentations = {}, {}, 0, 0
    for p in order:  # tall and square problems, and wide ones
        groups.setdefault(checked[p][2].shape[0] < checked[p][2].shape[1], []).append(p)
    for group in groups.values():
        n, m = np.max([checked[p][2].shape for p in group], axis=0)
        size = max(1, CHUNK_CELLS // int(n * m))
        for start in range(0, len(group), size):
            chunk = group[start : start + size]
            solved, chunk_rounds, chunk_augmentations = _solve_chunk([checked[p] for p in chunk])
            solutions.update(zip(chunk, solved))
            rounds, augmentations = rounds + chunk_rounds, augmentations + chunk_augmentations
    logger.info(
        "transport: %d problems, largest %d x %d, %d lockstep rounds, %d augmentations",
        len(checked), *checked[order[-1]][2].shape, rounds, augmentations,
    )
    return [solutions[p] for p in range(len(checked))]


def _checked(supplies, demands, costs):
    """Validated (supplies, demands, costs, scale, largest cost) of one problem."""
    a = np.asarray(supplies, dtype=float)
    b = np.asarray(demands, dtype=float)
    costs = np.asarray(costs, dtype=float)
    n, m = len(a), len(b)
    if costs.shape != (n, m):
        raise ValueError(f"cost matrix shape {costs.shape} does not match {n} supplies x {m} demands")
    if n == 0 or m == 0:
        raise ValueError("transportation instance needs at least one supply and one demand")
    if a.min() < 0 or b.min() < 0:  # a NaN passes here and fails the sums below
        raise ValueError("supplies and demands must be nonnegative")
    largest = float(costs.max())
    if not (costs.min() >= 0 and largest < np.inf):  # false for a NaN too
        raise ValueError("costs must be finite and nonnegative")
    total_a = float(a.sum())
    total_b = float(b.sum())
    if not (total_a < np.inf and total_b < np.inf):  # both sums are >= 0 or NaN here
        raise ValueError("supplies and demands must be finite")
    scale = max(total_a, total_b, 1.0)
    if abs(total_a - total_b) > 1e-9 * scale:
        raise ValueError(f"unbalanced instance: supplies sum to {total_a}, demands to {total_b}")
    return a, b, costs, scale, largest


def _solve_chunk(chunk):
    """Successive shortest paths on every problem of ``chunk`` in lockstep.

    Returns the solutions, the rounds run and the augmentations made.  A
    problem leaves the live set once no unmet demand is reachable or its
    path's bottleneck is dust; the padding shrinks to the problems left.
    """
    sizes = np.array([c.shape for _, _, c, _, _ in chunk])
    n, m = sizes.max(axis=0)
    costs = np.full((len(chunk), n, m), np.inf)
    supply_left, demand_left = np.zeros((len(chunk), n)), np.zeros((len(chunk), m))
    for p, (a, b, c, _, _) in enumerate(chunk):
        costs[p, : len(a), : len(b)], supply_left[p, : len(a)], demand_left[p, : len(b)] = c, a, b
    supplies, demands = supply_left.copy(), demand_left.copy()
    scales = np.array([scale for _, _, _, scale, _ in chunk])
    # Residuals below tol are float dust from saturation arithmetic, not mass.
    tol = 1e-14 * scales
    # Relax only on improvements beyond eps: float rounding in (d + c) - c
    # would otherwise close zero-length predecessor cycles.
    eps = 1e-12 * np.array([largest for *_, largest in chunk])
    budget = 2 * sizes.sum(axis=1) + 2 * sizes.prod(axis=1) + 16
    flow = np.zeros_like(costs)
    plans = np.zeros_like(costs)  # each problem's flow as it leaves the live set
    live = np.arange(len(chunk))
    shipped = np.zeros(len(chunk), dtype=np.int64)
    rounds = 0
    while live.size:
        rounds += 1
        here = np.arange(live.size)
        supply_pred, demand_dist, demand_pred = _shortest_paths(
            costs, flow > tol[:, None, None], supply_left > tol[:, None], eps, sizes[live].sum(axis=1) + 1
        )
        ends = np.where(demand_left > tol[:, None], demand_dist, np.inf)
        sink = ends.argmin(axis=1)
        reached = np.isfinite(ends[here, sink])
        # walk back to the super source, marking forward arcs +1 and the
        # backward arcs that cancel shipped mass -1; a walk longer than
        # n + m nodes can only be a cycle
        path = np.zeros_like(flow)
        source = np.zeros(live.size, dtype=np.int64)
        walk, col = here[reached], sink[reached]
        for _ in range(sum(costs.shape[1:])):
            row = demand_pred[walk, col]
            path[walk, row, col] = 1.0
            source[walk], col = row, supply_pred[walk, row]
            walk, row, col = walk[col >= 0], row[col >= 0], col[col >= 0]
            if not walk.size:
                break
            path[walk, row, col] = -1.0
        else:
            raise RuntimeError("transportation solver found a predecessor cycle; please report this instance")
        bottleneck = np.minimum(supply_left[here, source], demand_left[here, sink])
        bottleneck = np.minimum(bottleneck, np.where(path < 0, flow, np.inf).min(axis=(1, 2)))
        ship = reached & (bottleneck > tol)
        step = np.where(ship, bottleneck, 0.0)
        supply_left[here, source] -= step
        demand_left[here, sink] -= step
        flow += path * step[:, None, None]
        shipped[live[ship]] += 1
        if (shipped >= budget).any():
            raise RuntimeError(_CONVERGENCE)
        if not ship.all():
            plans[live[~ship], :n, :m] = flow[~ship]
            live, tol, eps = live[ship], tol[ship], eps[ship]
            n, m = sizes[live].max(axis=0, initial=0)
            costs, flow = costs[ship, :n, :m], flow[ship, :n, :m]
            supply_left, demand_left = supply_left[ship, :n], demand_left[ship, :m]

    # padded cells ship nothing, so the marginals of the padded plans are the problems' own
    slack = 1e-9 * scales[:, None]
    if (np.abs(plans.sum(axis=2) - supplies) > slack).any() or (np.abs(plans.sum(axis=1) - demands) > slack).any():
        raise RuntimeError("transportation solver left unmet supply or demand beyond tolerance")
    plans[plans < 0] = 0.0
    solutions = []
    for (a, b, c, _, _), f in zip(chunk, plans):
        f = f[: len(a), : len(b)].copy()
        solutions.append(FlowSolution(plan=f, cost=float((f * c).sum()), n_sources=len(a), n_sinks=len(b)))
    return solutions, rounds, int(shipped.sum())


def _shortest_paths(costs, carries, free_supply, eps, passes):
    """Shortest distances from the super source over each residual graph.

    Free supplies start at distance 0.  Each pass relaxes all forward arcs
    (supply -> demand, cost c), then all backward arcs (demand -> supply,
    cost -c, where flow is shipped).  A problem has settled once a half pass
    moves none of its labels, and must settle within its own ``passes``.  A
    supply predecessor of -1 means the super source.
    """
    count, n, m = costs.shape
    supply_dist, supply_pred = np.where(free_supply, 0.0, np.inf), np.full((count, n), -1)
    demand_dist, demand_pred = np.full((count, m), np.inf), np.zeros((count, m), dtype=np.int64)
    backward = np.where(carries, -costs, np.inf).transpose(0, 2, 1)
    settled = np.zeros(count, dtype=bool)
    for done_passes in range(1, int(passes.max(initial=0)) + 1):
        demand_dist, demand_pred, moved = _relax(supply_dist, costs, demand_dist, demand_pred, eps)
        settled |= ~moved
        supply_dist, supply_pred, moved = _relax(demand_dist, backward, supply_dist, supply_pred, eps)
        settled |= ~moved
        if settled.all():
            return supply_pred, demand_dist, demand_pred
        if (~settled & (passes <= done_passes)).any():
            break
    raise RuntimeError(_CONVERGENCE)


def _relax(tail_dist, arcs, head_dist, head_pred, eps):
    """One half pass over ``arcs`` (problem, tail, head): improve head labels by more than eps."""
    reach = tail_dist[:, :, None] + arcs
    pred = reach.argmin(axis=1)
    dist = reach[np.arange(len(pred))[:, None], pred, np.arange(pred.shape[1])]
    better = dist < head_dist - eps[:, None]
    return np.where(better, dist, head_dist), np.where(better, pred, head_pred), better.any(axis=1)
