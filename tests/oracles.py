"""Independent reference implementations the tests check against.

Everything here is deliberately written the slow, obvious way — different
algorithms and different code paths from the library — so agreement is
evidence, not tautology.
"""

from __future__ import annotations

import copy
import itertools
import math
from pathlib import Path

import numpy as np

import mteval.ensemble as ensemble
import mteval.vsm as vsm
from mteval._rng import round_half_up
from mteval.embeddings import ContextualTable
from mteval.ensemble import MlpParams, mlp_loss
from mteval.errors import DataError
from mteval.stats import spearman

# ---------------------------------------------------------------------------
# transportation problem: exhaustive basic-feasible-solution enumeration
# ---------------------------------------------------------------------------

_TREE_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _spanning_trees(n: int, m: int):
    """All spanning trees of K_{n,m} as edge-index sets with inverted basis matrices.

    A basic solution of the balanced transportation problem corresponds to a
    spanning tree of the complete bipartite graph: n+m-1 edges whose
    constraint submatrix (one balance row per node, last demand row dropped)
    is invertible.  Cached per shape.
    """
    key = (n, m)
    if key in _TREE_CACHE:
        return _TREE_CACHE[key]
    edges = np.array([(i, j) for i in range(n) for j in range(m)])
    k = n + m - 1
    combos = []
    inverses = []
    for combo in itertools.combinations(range(len(edges)), k):
        basis = np.zeros((k, k))
        for col, edge_index in enumerate(combo):
            i, j = edges[edge_index]
            basis[i, col] = 1.0
            if n + j < k:  # the last demand row is the dropped redundant one
                basis[n + j, col] = 1.0
        if abs(np.linalg.det(basis)) > 0.5:
            combos.append(combo)
            inverses.append(np.linalg.inv(basis))
    result = (edges, np.array(combos), np.stack(inverses))
    _TREE_CACHE[key] = result
    return result


def brute_force_transport(supplies, demands, costs) -> float:
    """Minimum transport cost by trying every basic feasible solution."""
    a = np.asarray(supplies, dtype=float)
    b = np.asarray(demands, dtype=float)
    costs = np.asarray(costs, dtype=float)
    n, m = len(a), len(b)
    edges, combos, inverses = _spanning_trees(n, m)
    rhs = np.concatenate([a, b[: m - 1]])
    flows = np.einsum("tkr,r->tk", inverses, rhs)
    feasible = np.all(flows >= -1e-9, axis=1)
    if not np.any(feasible):
        raise AssertionError("no feasible basic solution; instance not balanced?")
    edge_costs = costs[edges[combos][..., 0], edges[combos][..., 1]]
    totals = (np.maximum(flows, 0.0) * edge_costs).sum(axis=1)
    return float(totals[feasible].min())


def plan_flows(plan: np.ndarray) -> dict[tuple[int, int], float]:
    """The shipped cells of a transport plan as {(supply index, demand index): mass}, in row-major order."""
    return {(int(i), int(j)): float(plan[i, j]) for i, j in np.argwhere(plan > 0)}


def marginals(solution) -> tuple[np.ndarray, np.ndarray]:
    """(row sums, column sums) of a FlowSolution's shipped cells: its shipped supplies and received demands."""
    rows, cols = np.zeros(solution.n_sources), np.zeros(solution.n_sinks)
    for (i, j), value in plan_flows(solution.plan).items():
        rows[i] += value
        cols[j] += value
    return rows, cols


def loop_solve_transport(supplies, demands, costs):
    """The solver as it was before batching: one problem, its own numpy calls.

    Returns (flows dict, cost).  Frozen as the reference the batched solver
    must match bit for bit.
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
    tol = 1e-14 * scale
    eps = 1e-12 * float(costs.max())
    flow = np.zeros((n, m))
    supply_left = a.copy()
    demand_left = b.copy()
    for _ in range(2 * (n + m) + 2 * n * m + 16):
        supply_pred, demand_dist, demand_pred = _loop_shortest_paths(costs, flow > tol, supply_left > tol, eps)
        ends = np.where(demand_left > tol, demand_dist, np.inf)
        j = int(np.argmin(ends))
        if not np.isfinite(ends[j]):
            break
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
    return flows, float((flow * costs).sum())


def _loop_shortest_paths(costs, carries, free_supply, eps):
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


# ---------------------------------------------------------------------------
# Spearman: quadratic-time average ranks + numpy Pearson
# ---------------------------------------------------------------------------


def rank_oracle(values) -> np.ndarray:
    """Average-tie rank of each value, straight from the definition."""
    values = np.asarray(values, dtype=float)
    ranks = np.empty(len(values))
    for i, v in enumerate(values):
        less = np.sum(values < v)
        equal = np.sum(values == v)
        # ranks of the tie block are less+1 .. less+equal; their mean:
        ranks[i] = less + (equal + 1) / 2.0
    return ranks


def spearman_oracle(a, b) -> float:
    return float(np.corrcoef(rank_oracle(a), rank_oracle(b))[0, 1])


def loop_average_ranks(values) -> np.ndarray:
    """Average-tie ranks by walking each tie run of the stable sort, one at a time."""
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=float)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        # positions i..j (0-based) share the mean of ranks i+1..j+1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# ablation: every remaining pair measured afresh at every step
# ---------------------------------------------------------------------------


def loop_ablation_order(train) -> list[str]:
    """The order in which ablation eliminates the columns of a train FeatureMatrix.

    Each step measures |rho| for every pair of remaining columns again and
    drops the column with the largest |rho| to any other; ties go to the
    smaller name.
    """
    remaining = list(train.feature_names)
    order = []
    while len(remaining) > 1:
        columns = {name: train.rows[:, train.feature_names.index(name)] for name in remaining}
        worst = {name: -np.inf for name in remaining}
        for i, a in enumerate(remaining):
            for b in remaining[i + 1 :]:
                rho = abs(spearman(columns[a], columns[b]))
                worst[a] = max(worst[a], rho)
                worst[b] = max(worst[b], rho)
        victim = min(remaining, key=lambda name: (-worst[name], name))
        order.append(victim)
        remaining.remove(victim)
    return order


# ---------------------------------------------------------------------------
# term-similarity matrix: one greedy walk over every candidate, term by term
# ---------------------------------------------------------------------------


def block_product_row(normalized, k) -> np.ndarray:
    """Row k of the product of k's fixed block of rows with every row.

    The library takes the cosines one block of rows at a time, and a row's
    bits depend on the block it was multiplied in; the block size comes
    from the same cell budget, ``vsm.CANDIDATE_BLOCK_CELLS``.
    """
    block = max(1, vsm.CANDIDATE_BLOCK_CELLS // max(1, len(normalized)))
    lo = k - k % block
    return (normalized[lo : lo + block] @ normalized.T)[k - lo]


def greedy_similarity_rows(vocab, store, order, threshold, exponent, top_k) -> dict[int, dict[int, float]]:
    """Off-diagonal rows of the budgeted similarity matrix, dict of dicts.

    For each term in processing order (vocabulary order, or ascending df
    with ties in vocabulary order), every other embedded term is visited in
    decreasing max(0, cosine)^exponent, ties in increasing vocabulary index;
    a pair is inserted while both budgets are below ``top_k``.
    """
    rows: dict[int, dict[int, float]] = {}
    embedded = [i for i, term in enumerate(vocab.terms) if term in store]
    if len(embedded) < 2:
        return rows
    vectors = np.stack([store[vocab.terms[i]] for i in embedded]).astype(float)
    norms = np.linalg.norm(vectors, axis=1)
    nonzero = norms > 0
    normalized = np.zeros_like(vectors)
    normalized[nonzero] = vectors[nonzero] / norms[nonzero, None]
    position = {term_index: k for k, term_index in enumerate(embedded)}
    embedded_arr = np.array(embedded)
    if order == "vocabulary":
        processing = range(len(vocab))
    else:
        processing = sorted(range(len(vocab)), key=lambda i: (vocab.df.get(vocab.terms[i], 0), i))

    budget = {i: 0 for i in embedded}
    for i in processing:
        if i not in position or budget[i] >= top_k:
            continue
        values = np.clip(block_product_row(normalized, position[i]), 0.0, 1.0) ** exponent
        row_i = rows.get(i, {})
        for k in np.lexsort((embedded_arr, -values)):
            value = float(values[k])
            if value < threshold or value <= 0.0:
                break
            j = int(embedded_arr[k])
            if j == i or j in row_i or budget[j] >= top_k:
                continue
            rows.setdefault(i, {})[j] = value
            rows.setdefault(j, {})[i] = value
            row_i = rows[i]
            budget[i] += 1
            budget[j] += 1
            if budget[i] >= top_k:
                break
    return rows


# ---------------------------------------------------------------------------
# soft cosine: dense matrix arithmetic
# ---------------------------------------------------------------------------


def dense_scm_oracle(x: np.ndarray, y: np.ndarray, similarity: np.ndarray) -> float:
    num = x @ similarity @ y
    denom = np.sqrt(x @ similarity @ x) * np.sqrt(y @ similarity @ y)
    return float(num / denom)


def dense_similarity(matrix: vsm.SimilarityMatrix) -> np.ndarray:
    """The dense array of a sparse similarity matrix, unit diagonal included."""
    dense = np.eye(matrix.dim)
    for i, row in matrix.rows.items():
        for j, value in row.items():
            dense[i, j] = value
    return dense


def sparse_similarity(dense: np.ndarray) -> vsm.SimilarityMatrix:
    """A similarity matrix holding the nonzero off-diagonal cells of a symmetric array, row by row."""
    assert np.array_equal(dense, dense.T)
    matrix = vsm.SimilarityMatrix(dim=len(dense))
    for i, j in zip(*np.nonzero(np.triu(dense, 1))):
        i, j, value = int(i), int(j), float(dense[i, j])
        matrix.rows.setdefault(i, {})[j] = value
        matrix.rows.setdefault(j, {})[i] = value
    return matrix


# ---------------------------------------------------------------------------
# compositionality: over two row-normalized transition matrices, frozen
# before the diagonal variant read self-transitions from tag counts
# ---------------------------------------------------------------------------


def transition_graph(pos_tags: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """(tags in order of first appearance, row-normalized counts of directed adjacent-tag transitions)."""
    if not pos_tags:
        raise ValueError("cannot build a transition graph from an empty tag list")
    tags: list[str] = []
    index: dict[str, int] = {}
    for tag in pos_tags:
        if tag not in index:
            index[tag] = len(tags)
            tags.append(tag)
    counts = np.zeros((len(tags), len(tags)))
    for a, b in zip(pos_tags, pos_tags[1:]):
        counts[index[a], index[b]] += 1.0
    sums = counts.sum(axis=1, keepdims=True)
    probs = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
    return tuple(tags), probs


def graph_compositionality(x_tags, y_tags, full_matrix: bool = False) -> float:
    """l1 distance of self-transition probabilities (or of whole matrices) over the union tag set."""
    x, y = transition_graph(list(x_tags)), transition_graph(list(y_tags))
    union = list(x[0]) + [t for t in y[0] if t not in x[0]]
    if not full_matrix:
        return math.fsum(abs(_self_prob(x, t) - _self_prob(y, t)) for t in union)
    return float(np.abs(_embed_transitions(x, union) - _embed_transitions(y, union)).sum())


def _self_prob(graph, tag: str) -> float:
    tags, probs = graph
    return float(probs[tags.index(tag), tags.index(tag)]) if tag in tags else 0.0


def _embed_transitions(graph, union: list[str]) -> np.ndarray:
    tags, probs = graph
    out = np.zeros((len(union), len(union)))
    positions = [union.index(t) for t in tags]
    out[np.ix_(positions, positions)] = probs
    return out


# ---------------------------------------------------------------------------
# decontextualization: naive per-token accumulation
# ---------------------------------------------------------------------------


def naive_decontextualize(rows) -> dict[str, np.ndarray]:
    """Per-token means of rows (segment_id, side, token_index, token, vector)."""
    buckets: dict[str, list[np.ndarray]] = {}
    for _, _, _, token, vector in rows:
        buckets.setdefault(token, []).append(np.asarray(vector, dtype=float))
    return {token: np.mean(np.stack(vectors), axis=0) for token, vectors in buckets.items()}


def loop_decontextualize(rows):
    """Running sum per token, one row (segment_id, side, token_index, token, vector) at a time, then one division per token."""
    if not rows:
        raise DataError("cannot decontextualize an empty record list")
    dim = len(rows[0][4])
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for _, _, _, token, vector in rows:
        if len(vector) != dim:
            raise DataError(f"mixed vector dimensions: {len(vector)} vs {dim}")
        if token in sums:
            sums[token] = sums[token] + vector
            counts[token] += 1
        else:
            sums[token] = vector.astype(float)
            counts[token] = 1
    return {token: sums[token] / counts[token] for token in sums}


# ---------------------------------------------------------------------------
# MLP: central finite-difference gradients
# ---------------------------------------------------------------------------


def finite_difference_gradients(loss_fn, params, h: float = 1e-5):
    """Central differences d loss / d params for a dict of arrays/scalars.

    ``params`` maps name -> np.ndarray or float; loss_fn(params) -> float.
    Returns the same structure filled with numerical gradients.
    """
    grads = {}
    for name, value in params.items():
        if np.isscalar(value):
            bumped = dict(params)
            bumped[name] = value + h
            up = loss_fn(bumped)
            bumped[name] = value - h
            down = loss_fn(bumped)
            grads[name] = (up - down) / (2 * h)
            continue
        grad = np.zeros_like(value)
        flat = grad.ravel()
        base = value.copy()
        for idx in range(base.size):
            perturbed = base.copy().ravel()
            perturbed[idx] += h
            bumped = dict(params)
            bumped[name] = perturbed.reshape(base.shape)
            up = loss_fn(bumped)
            perturbed[idx] -= 2 * h
            bumped[name] = perturbed.reshape(base.shape)
            down = loss_fn(bumped)
            flat[idx] = (up - down) / (2 * h)
        grads[name] = grad
    return grads


def training_gradients(params: MlpParams, rows: np.ndarray, y: np.ndarray) -> MlpParams:
    """One fit's analytic MSE gradients (ReLU subgradient 0 at the kink), from the kernel every training step runs.

    Not an oracle: it is the library's own kernel, called on fresh arrays
    with an even batch axis as a training step lays its operands out, for
    the finite-difference tests to check."""
    (m, hidden), y = params.w1.shape, np.asarray(y, dtype=float)
    g_w1, g_b1, g_w2, g_b2 = np.empty((m, hidden)), np.empty((1, hidden)), np.empty((1, hidden)), np.empty(1)
    stacked = ([params.w1], params.b1[None], params.w2[None], np.full(1, params.b2, dtype=float))
    work = np.empty((3, 1, len(y) + len(y) % 2, hidden))
    ensemble._stacked_gradients([rows], stacked, y[None], ([g_w1], g_b1, g_w2, g_b2), work)
    return MlpParams(g_w1, g_b1[0], g_w2[0], g_b2[0])


# ---------------------------------------------------------------------------
# static vectors: the row-by-row loader, frozen before numpy parsed the values
# ---------------------------------------------------------------------------


def loop_load_static(path, keep, logger):
    """Split each row in Python and convert the values of tokens in ``keep`` one by one with float().

    A row of any other token is checked for its field count only, and
    counts towards the header's.  Returns ``(dim, table)``; warnings go to
    ``logger``.
    """
    table: dict[str, np.ndarray] = {}
    distinct: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}:1: expected header '<count> <dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataError(f"{path}:1: expected integer header '<count> <dim>'") from None
        if dim <= 0:
            raise DataError(f"{path}:1: dimension must be positive, got {dim}")
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").rstrip(" ").split(" ")
            if len(parts) != dim + 1:
                raise DataError(f"{path}:{lineno}: expected 1 token + {dim} values, got {len(parts)} fields")
            token = parts[0]
            distinct.add(token)
            if token not in keep:
                continue
            try:
                vector = np.array([float(v) for v in parts[1:]], dtype=float)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric vector component") from None
            if not np.isfinite(vector).all():
                raise DataError(f"{path}:{lineno}: non-finite vector component")
            if token in table:
                logger.warning("%s:%d: duplicate token %r, keeping the later vector", path, lineno, token)
            table[token] = vector
    if len(distinct) != count:
        logger.warning("%s: header declares %d tokens but %d were read", path, count, len(distinct))
    return dim, table


# ---------------------------------------------------------------------------
# contextual vectors: the row-by-row loader, frozen before its vector column
# went through load_static's numpy parser
# ---------------------------------------------------------------------------


def loop_load_contextual(path):
    """Split each vector on any whitespace and convert it value by value with float().

    Returns the rows (segment_id, side, token_index, token, vector); each
    vector is its own array.  Each row then passes the checks the record
    class of that time made: its side, its token_index and its vector.
    """
    path = Path(path)
    expected = ["segment_id", "side", "token_index", "token", "vector"]
    sides = ("source", "reference", "hypothesis")
    records: list[tuple] = []
    seen: set[tuple[str, str, int]] = set()
    dim = None
    with open(path, encoding="utf-8-sig") as handle:
        header = handle.readline().rstrip("\n").split("\t")
        if header != expected:
            raise DataError(f"{path}:1: header must be {expected}, got {header}")
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(expected):
                raise DataError(f"{path}:{lineno}: expected {len(expected)} columns, got {len(parts)}")
            segment_id, side, raw_index, token, raw_vector = parts
            try:
                token_index = int(raw_index)
                vector = np.array([float(v) for v in raw_vector.split()], dtype=float)
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed token_index or vector") from None
            if dim is None:
                dim = len(vector)
            elif len(vector) != dim:
                raise DataError(f"{path}:{lineno}: vector has {len(vector)} components, expected {dim}")
            key = (segment_id, side, token_index)
            if key in seen:
                raise DataError(f"{path}:{lineno}: duplicate (segment_id, side, token_index) {key}")
            seen.add(key)
            if side not in sides:
                raise DataError(f"{path}:{lineno}: bad side {side!r}; expected one of {sides}")
            if token_index < 0:
                raise DataError(f"{path}:{lineno}: negative token_index {token_index}")
            if not np.all(np.isfinite(vector)):
                raise DataError(f"{path}:{lineno}: non-finite vector for {segment_id!r}/{side}[{token_index}]")
            records.append((segment_id, side, token_index, token, vector))
    return records


def contextual_table(rows) -> ContextualTable:
    """The table of rows (segment_id, side, token_index, token, vector), as lines 2, 3, ... of a file."""
    segment_id, side, token_index, token, vectors = zip(*rows)
    return ContextualTable(np.array(vectors, dtype=float), segment_id, side, token_index, token, range(2, len(rows) + 2))


def table_rows(table: ContextualTable) -> list[tuple]:
    """The rows (segment_id, side, token_index, token, vector) of a table, in file order."""
    columns = (table.segment_id, table.side, table.token_index, table.token)
    return list(zip(*(column.tolist() for column in columns), table.vectors))


# ---------------------------------------------------------------------------
# MLP training: Adam over the four parameter blocks one by one, frozen
# before the blocks were packed into one vector; the backward pass of one
# fit, frozen before fits were stepped in lockstep
# ---------------------------------------------------------------------------


def mlp_gradients(params: MlpParams, rows: np.ndarray, y: np.ndarray, out: MlpParams | None = None) -> MlpParams:
    """Analytic MSE gradients (ReLU subgradient 0 at the kink); with ``out``,
    they are written into its arrays, its b2 replaced, and ``out`` returned."""
    if out is None:
        out = MlpParams(np.empty_like(params.w1), np.empty_like(params.b1), np.empty_like(params.w2), 0.0)
    pre = rows @ params.w1 + params.b1
    hidden = np.maximum(pre, 0.0)
    delta = (hidden @ params.w2 + params.b2 - y) * (2.0 / len(y))
    np.matmul(hidden.T, delta, out=out.w2)
    out.b2 = float(np.add.reduce(delta))
    d_hidden = delta[:, None] * params.w2 * (pre > 0)
    np.matmul(rows.T, d_hidden, out=out.w1)
    np.add.reduce(d_hidden, axis=0, out=out.b1)
    return out


def loop_fit_mlp(
    rows, y, seed, hidden=100, learning_rate=1e-3, batch_size=32, max_epochs=500, patience=25, val_fraction=0.1
):
    """The best-validation MlpParams of the per-block Adam loop."""
    y = np.asarray(y, dtype=float)
    n, m = rows.shape
    rng = np.random.default_rng(seed)
    limit1 = np.sqrt(6.0 / (m + hidden))
    limit2 = np.sqrt(6.0 / (hidden + 1))
    params = MlpParams(
        w1=rng.uniform(-limit1, limit1, size=(m, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-limit2, limit2, size=hidden),
        b2=0.0,
    )
    n_val = max(1, round_half_up(val_fraction * n))
    order = rng.permutation(n)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    rows_fit, y_fit = rows[fit_idx], y[fit_idx]
    rows_val, y_val = rows[val_idx], y[val_idx]

    moment1 = MlpParams(np.zeros_like(params.w1), np.zeros_like(params.b1), np.zeros_like(params.w2), 0.0)
    moment2 = MlpParams(np.zeros_like(params.w1), np.zeros_like(params.b1), np.zeros_like(params.w2), 0.0)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    best = copy.deepcopy(params)
    best_val = np.inf
    stale = 0
    for _ in range(max_epochs):
        batch_order = rng.permutation(len(fit_idx))
        for start in range(0, len(fit_idx), batch_size):
            chunk = batch_order[start : start + batch_size]
            grads = mlp_gradients(params, rows_fit[chunk], y_fit[chunk])
            step += 1
            for name in ("w1", "b1", "w2", "b2"):
                g = getattr(grads, name)
                m1 = beta1 * getattr(moment1, name) + (1 - beta1) * g
                m2 = beta2 * getattr(moment2, name) + (1 - beta2) * (g * g)
                setattr(moment1, name, m1)
                setattr(moment2, name, m2)
                m1_hat = m1 / (1 - beta1**step)
                m2_hat = m2 / (1 - beta2**step)
                update = learning_rate * m1_hat / (np.sqrt(m2_hat) + eps)
                setattr(params, name, getattr(params, name) - update)
        val_mse = mlp_loss(params, rows_val, y_val)
        if val_mse < best_val:
            best_val = val_mse
            best = copy.deepcopy(params)
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    return best


# ---------------------------------------------------------------------------
# soft cosine and similarity candidates: the per-term loops, frozen before
# the quadratic form walked the shorter side and candidates were ranked in
# blocks of terms
# ---------------------------------------------------------------------------


def loop_soft_quadratic(x, y, matrix) -> float:
    """x^T S y over the sparse entries (implicit unit diagonal included)."""
    terms = []
    for i, wx in x.items():
        wy = y.get(i)
        if wy is not None:
            terms.append(wx * wy)
        row = matrix.rows.get(i)
        if row:
            for j, s in row.items():
                wy = y.get(j)
                if wy is not None:
                    terms.append(wx * s * wy)
    return math.fsum(terms)


def _loop_ranked(normalized, embedded, threshold, exponent, k, limit):
    values = np.clip(block_product_row(normalized, k), 0.0, 1.0) ** exponent
    keep = (values >= threshold) & (values > 0.0)
    keep[k] = False
    positions = np.flatnonzero(keep)
    kept = values[positions]
    if limit is not None and len(kept) > limit:
        cut = np.partition(kept, len(kept) - limit)[len(kept) - limit]
        top = kept >= cut
        positions, kept = positions[top], kept[top]
    ranking = np.lexsort((positions, -kept))[:limit]
    return embedded[positions[ranking]], kept[ranking]


def loop_similarity_candidates(vocab, store, threshold, exponent, top_k):
    """Every embedded term's ranked partners, ranked one term at a time.

    Returns ``(rows, truncated, full_rows)``: term index -> (partners,
    values) cut to the stored depth ``3 * top_k``, the set of rows that
    were cut, and the uncut ranking of each of those rows.
    """
    embedded = [i for i, term in enumerate(vocab.terms) if term in store]
    normalized = np.zeros((0, 0))
    if embedded:
        vectors = np.stack([store[vocab.terms[i]] for i in embedded]).astype(float)
        norms = np.linalg.norm(vectors, axis=1)
        nonzero = norms > 0
        normalized = np.zeros_like(vectors)
        normalized[nonzero] = vectors[nonzero] / norms[nonzero, None]
    embedded_arr = np.array(embedded, dtype=np.intp)
    rows, truncated, full_rows = {}, set(), {}
    for k, i in enumerate(embedded):
        partners, values = _loop_ranked(normalized, embedded_arr, threshold, exponent, k, 3 * top_k + 1)
        if len(partners) > 3 * top_k:
            truncated.add(i)
            partners, values = partners[:3 * top_k], values[:3 * top_k]
            full_rows[i] = _loop_ranked(normalized, embedded_arr, threshold, exponent, k, None)
        rows[i] = (partners, values)
    return rows, truncated, full_rows
