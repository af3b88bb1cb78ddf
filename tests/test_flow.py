import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import mteval.flow
from mteval.flow import CHUNK_CELLS, FlowSolution, solve_transport, solve_transport_batch

from oracles import brute_force_transport, loop_solve_transport, marginals, plan_flows


def random_instance(rng, max_dim=4):
    n = int(rng.integers(1, max_dim + 1))
    m = int(rng.integers(1, max_dim + 1))
    a = rng.uniform(0.1, 1.0, size=n)
    b = rng.uniform(0.1, 1.0, size=m)
    b *= a.sum() / b.sum()  # balance
    costs = rng.uniform(0.0, 10.0, size=(n, m))
    return a, b, costs


def linprog_cost(a, b, costs, **highs_options):
    """Independent LP check: flatten the transportation polytope for scipy."""
    n, m = len(a), len(b)
    eq = np.zeros((n + m, n * m))
    for i in range(n):
        eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        eq[n + j, j::m] = 1.0
    result = linprog(costs.ravel(), A_eq=eq[:-1], b_eq=np.concatenate([a, b])[:-1], bounds=(0, None), method="highs", options=highs_options or None)
    assert result.status == 0
    return result.fun


def test_single_pair():
    solution = solve_transport([2.0], [2.0], [[3.5]])
    assert solution.cost == 7.0
    assert plan_flows(solution.plan) == {(0, 0): 2.0}


def test_identity_costs_zero_diagonal():
    # moving mass onto itself is free no matter the off-diagonal costs
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.uniform(0.1, 2.0, size=n)
        costs = rng.uniform(1.0, 9.0, size=(n, n))
        np.fill_diagonal(costs, 0.0)
        solution = solve_transport(a, a, costs)
        assert solution.cost == 0.0


def test_flow_requires_backward_arcs():
    # Greedy shortest-path routing sends the first unit 0->0; the optimum
    # (cost 1) must cancel it, exercising the residual arcs.
    solution = solve_transport([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [0.0, 10.0]])
    assert abs(solution.cost - 1.0) < 1e-12
    assert abs(plan_flows(solution.plan)[(0, 1)] - 1.0) < 1e-12
    assert abs(plan_flows(solution.plan)[(1, 0)] - 1.0) < 1e-12


def test_marginals_are_respected():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b, costs = random_instance(rng)
        solution = solve_transport(a, b, costs)
        row = np.zeros(len(a))
        col = np.zeros(len(b))
        for (i, j), f in plan_flows(solution.plan).items():
            assert f >= 0.0
            row[i] += f
            col[j] += f
        assert np.allclose(row, a, atol=1e-9, rtol=0)
        assert np.allclose(col, b, atol=1e-9, rtol=0)


def test_cost_matches_brute_force_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b, costs = random_instance(rng)
        got = solve_transport(a, b, costs).cost
        want = brute_force_transport(a, b, costs)
        assert abs(got - want) < 1e-9


def test_cost_matches_linear_programming():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b, costs = random_instance(rng, max_dim=6)
        got = solve_transport(a, b, costs).cost
        assert abs(got - linprog_cost(a, b, costs)) < 1e-8


def test_integral_instances_solved_exactly():
    # with integer data the optimum is integral; no drift allowed
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = rng.integers(1, 5, size=n).astype(float)
        b = rng.multinomial(int(a.sum()), np.ones(m) / m).astype(float)
        if np.any(b == 0):
            continue
        costs = rng.integers(0, 9, size=(n, m)).astype(float)
        solution = solve_transport(a, b, costs)
        assert solution.cost == round(solution.cost)
        assert abs(solution.cost - brute_force_transport(a, b, costs)) < 1e-9


def test_solution_bookkeeping():
    solution = solve_transport([1.0, 2.0], [3.0], [[1.0], [2.0]])
    assert isinstance(solution, FlowSolution)
    assert solution.n_sources == 2
    assert solution.n_sinks == 1
    rows, cols = marginals(solution)
    assert np.allclose(rows, [1.0, 2.0])
    assert np.allclose(cols, [3.0])
    assert solution.cost == 1.0 + 4.0


def test_input_validation():
    with pytest.raises(ValueError, match="balance"):
        solve_transport([1.0], [2.0], [[1.0]])
    with pytest.raises(ValueError, match="negative"):
        solve_transport([-1.0, 2.0], [1.0], [[1.0], [1.0]])
    with pytest.raises(ValueError, match="shape"):
        solve_transport([1.0], [1.0], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="finite"):
        solve_transport([1.0], [1.0], [[np.inf]])
    with pytest.raises(ValueError, match="at least one"):
        solve_transport([], [], np.zeros((0, 0)))
    with pytest.raises(ValueError, match="supplies and demands must be finite"):
        solve_transport([np.nan], [1.0], [[1.0]])
    with pytest.raises(ValueError, match="supplies and demands must be finite"):
        solve_transport([np.inf], [np.inf], [[1.0]])


def degenerate_instance(rng, max_dim):
    """A random instance with the structure that stresses ties and float dust.

    Shapes include 1 x m and n x 1; masses are integral or continuous with
    some zeros; costs are continuous, drawn from three tied values, or
    Euclidean with duplicate rows and columns (shared and repeated vectors).
    """
    n = 1 if rng.random() < 0.15 else int(rng.integers(1, max_dim + 1))
    m = 1 if rng.random() < 0.15 else int(rng.integers(1, max_dim + 1))
    if rng.random() < 0.5:
        a = rng.integers(0, 5, size=n).astype(float)
        a[rng.integers(n)] += 1.0
        b = rng.multinomial(int(a.sum()), np.ones(m) / m).astype(float)
    else:
        a = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) > 0.25)
        b = rng.uniform(0.1, 1.0, size=m) * (rng.random(m) > 0.25)
        a[rng.integers(n)] += 0.5
        b[rng.integers(m)] += 0.5
        b *= a.sum() / b.sum()
    kind = rng.integers(3)
    if kind == 0:
        costs = rng.uniform(0.0, 10.0, size=(n, m))
    elif kind == 1:
        costs = rng.integers(0, 3, size=(n, m)).astype(float)
    else:
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(m, 2))
        shared = min(n, m) // 2
        y[:shared] = x[:shared]
        x[n - 1] = x[0]
        y[m - 1] = y[0]
        costs = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    return a, b, costs


def check_marginals(solution, a, b):
    assert all(f >= 0.0 for f in plan_flows(solution.plan).values())
    rows, cols = marginals(solution)
    assert np.allclose(rows, a, atol=1e-9, rtol=0)
    assert np.allclose(cols, b, atol=1e-9, rtol=0)


def test_degenerate_instances_match_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(300):
        a, b, costs = degenerate_instance(rng, max_dim=3)
        solution = solve_transport(a, b, costs)
        check_marginals(solution, a, b)
        assert abs(solution.cost - brute_force_transport(a, b, costs)) < 1e-9


def test_degenerate_instances_match_linear_programming():
    rng = np.random.default_rng(7)
    for _ in range(150):
        a, b, costs = degenerate_instance(rng, max_dim=20)
        solution = solve_transport(a, b, costs)
        check_marginals(solution, a, b)
        want = linprog_cost(a, b, costs, primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)
        assert abs(solution.cost - want) < 1e-9 * max(1.0, abs(want))


def test_zero_cost_cells_are_not_greedily_prematched():
    # Shipping the zero-cost cell (0, 0) first would force 1 -> 1 at cost
    # 100; the optimum uses the two off-diagonal zero cells instead.
    # Pre-matching shared mass is valid only for metric costs (WMD).
    assert solve_transport([1.0, 1.0], [1.0, 1.0], [[0.0, 0.0], [0.0, 100.0]]).cost == 0.0


# ---------------------------------------------------------------------------
# the batched solver against the frozen one-problem solver
# ---------------------------------------------------------------------------


@st.composite
def problems(draw, max_dim=18, scaled=False):
    """A degenerate_instance of up to max_dim x max_dim, or one with all costs zero.

    ``scaled`` multiplies masses and costs by powers of ten, so that a batch
    mixes problems whose tolerances differ by orders of magnitude.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b, costs = degenerate_instance(rng, draw(st.integers(1, max_dim)))
    if draw(st.integers(0, 9)) == 0:
        costs = np.zeros_like(costs)
    if scaled:
        mass, cost = draw(st.sampled_from([1e-6, 1.0, 1e6])), draw(st.sampled_from([1e-6, 1.0, 1e6]))
        a, b, costs = a * mass, b * mass, costs * cost
    return a, b, costs


def assert_matches_frozen_solver(batch, solutions):
    assert len(solutions) == len(batch)
    for (a, b, costs), solution in zip(batch, solutions):
        flows, cost = loop_solve_transport(a, b, costs)
        assert plan_flows(solution.plan) == flows
        assert solution.cost == cost
        assert (solution.n_sources, solution.n_sinks) == costs.shape


@settings(max_examples=80, deadline=None)
@given(st.lists(problems(scaled=True), min_size=1, max_size=12))
def test_batch_is_bit_equal_to_the_frozen_solver(batch):
    assert_matches_frozen_solver(batch, solve_transport_batch(batch))


def test_each_problem_keeps_its_own_tolerances():
    # A large-mass, large-cost problem must not coarsen its neighbours' dust
    # threshold (1e-14 of the mass scale) or relaxation threshold (1e-12 of
    # the largest cost): the 1e-10 supply must still ship, and the 1e-6-scale
    # costs must still need their backward arc.
    batch = [
        ([1.0, 1e-10], [1.0 + 1e-10], [[1.0], [1.0]]),
        ([1.0, 1.0], [1.0, 1.0], [[0.0, 1e-6], [0.0, 1e-5]]),
        ([1e6, 2e6], [3e6], [[1e6], [2e6]]),
    ]
    assert_matches_frozen_solver([tuple(map(np.asarray, p)) for p in batch], solve_transport_batch(batch))


@settings(max_examples=60, deadline=None)
@given(problems())
def test_batch_of_one_is_bit_equal_to_the_frozen_solver(problem):
    assert_matches_frozen_solver([problem], [solve_transport(*problem)])


def test_batch_spanning_several_chunks_is_bit_equal(monkeypatch):
    chunks = []
    solve_chunk = mteval.flow._solve_chunk
    monkeypatch.setattr(mteval.flow, "_solve_chunk", lambda chunk: chunks.append(len(chunk)) or solve_chunk(chunk))
    rng = np.random.default_rng(8)
    # padded to the 18 x 18 problems, the small ones alone fill a chunk
    batch = [degenerate_instance(rng, 2) for _ in range(CHUNK_CELLS // (18 * 18))]
    for _ in range(3):
        a, b = rng.uniform(0.1, 1.0, size=18), rng.uniform(0.1, 1.0, size=18)
        batch.insert(0, (a, b * a.sum() / b.sum(), rng.uniform(0.0, 10.0, size=(18, 18))))
    assert_matches_frozen_solver(batch, solve_transport_batch(batch))
    assert len(chunks) >= 2 and sum(chunks) == len(batch)


def test_empty_batch():
    assert solve_transport_batch([]) == []


@settings(max_examples=60, deadline=None)
@given(problems(max_dim=3))
def test_batched_costs_match_brute_force(problem):
    a, b, costs = problem
    assert abs(solve_transport_batch([problem])[0].cost - brute_force_transport(a, b, costs)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(problems(max_dim=10), min_size=1, max_size=4))
def test_batched_costs_match_linear_programming(batch):
    for (a, b, costs), solution in zip(batch, solve_transport_batch(batch)):
        want = linprog_cost(a, b, costs, primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)
        assert abs(solution.cost - want) < 1e-9 * max(1.0, abs(want))


def spoiled(problem, fault):
    a, b, costs = (np.array(x, dtype=float) for x in problem)
    if fault == "shape":
        return a, b, costs[:, :-1]
    if fault == "empty":
        return a[:0], b, costs[:0]
    if fault == "negative mass":
        a[0] = -a[0] - 1.0
        return a, b, costs
    if fault == "negative cost":
        costs[0, 0] = -1.0
    elif fault == "infinite cost":
        costs[-1, -1] = np.inf
    elif fault == "unbalanced":
        return a, b * 2.0 + 1.0, costs
    return a, b, costs


@settings(max_examples=60, deadline=None)
@given(
    problems(max_dim=5),
    st.sampled_from(["shape", "empty", "negative mass", "negative cost", "infinite cost", "unbalanced"]),
    st.lists(problems(max_dim=5), max_size=3),
)
def test_bad_instance_raises_the_frozen_solvers_error(problem, fault, others):
    bad = spoiled(problem, fault)
    with pytest.raises(ValueError) as want:
        loop_solve_transport(*bad)
    with pytest.raises(ValueError) as got:
        solve_transport_batch(others + [bad])
    assert str(got.value) == str(want.value)
