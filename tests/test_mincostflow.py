"""The phased min-cost flow engine against the heap reference.

The engines may pick different optimal flows where shortest paths tie,
so every case is compared by what optimality fixes: status, exact
integer conservation, reduced-cost optimality of the returned potentials
and the cost.  Where costs are generic the optimal flow is unique and
must come out bit-equal.
"""

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from otkit import _mincostflow
from otkit._mincostflow import (_successive_shortest_paths,
                                solve_min_cost_flow)
from otkit.errors import ConvergenceError, ValidationError

import mincostflow_reference

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

# Few distinct costs, so that shortest-path labels tie often.
COSTS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.25])


@st.composite
def digraphs(draw, negative=False):
    """A random sparse digraph with integer supplies that sum to zero."""
    n = draw(st.integers(1, 9))
    n_arcs = draw(st.integers(0, 3 * n))
    node = st.integers(0, n - 1)
    tails = draw(st.lists(node, min_size=n_arcs, max_size=n_arcs))
    heads = draw(st.lists(node, min_size=n_arcs, max_size=n_arcs))
    cost = st.one_of(COSTS, st.floats(-2.0 if negative else 0.0, 4.0))
    costs = draw(st.lists(cost, min_size=n_arcs, max_size=n_arcs))
    supplies = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    supplies[-1] -= sum(supplies)
    return (n, np.array(tails, dtype=np.int64),
            np.array(heads, dtype=np.int64), np.array(costs), supplies)


@st.composite
def grid_graphs(draw):
    """A Beckmann grid: each undirected edge as two opposite arcs."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    lengths = draw(st.lists(COSTS.filter(lambda c: c > 0),
                            min_size=len(edges), max_size=len(edges)))
    n = rows * cols
    supplies = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    supplies[-1] -= sum(supplies)
    tails = np.array([e for u, v in edges for e in (u, v)], dtype=np.int64)
    heads = np.array([e for u, v in edges for e in (v, u)], dtype=np.int64)
    return n, tails, heads, np.repeat(lengths, 2), supplies


@st.composite
def generic_digraphs(draw):
    """A strongly connected digraph with continuous random arc costs.

    A ring through every node makes each instance feasible, and costs
    drawn from a continuous law make the optimal flow unique.  Parallel
    arcs and both directions of an edge occur.
    """
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_extra = draw(st.integers(0, 3 * n))
    tails = np.concatenate([np.arange(n), rng.integers(0, n, n_extra)])
    heads = np.concatenate([np.roll(np.arange(n), -1),
                            rng.integers(0, n, n_extra)])
    supplies = rng.integers(-9, 10, n)
    supplies[-1] -= supplies.sum()
    return n, tails, heads, rng.uniform(0.1, 4.0, tails.size), supplies


@st.composite
def bipartite_graphs(draw):
    """A complete bipartite graph from n rows to m columns, tied costs.

    No two arcs join the same pair of nodes in either direction, so every
    slot of the search's CSR matrix holds one candidate.  Rows supply and
    columns demand; the last column absorbs the difference, so a few
    instances are infeasible.
    """
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    costs = draw(st.lists(COSTS, min_size=n * m, max_size=n * m))
    rows = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(-6, 0), min_size=m, max_size=m))
    supplies = rows + cols
    supplies[-1] -= sum(supplies)
    return (n + m, np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n),
            np.array(costs), supplies)


@st.composite
def transport_problems(draw):
    """Integer marginals and an n x m cost matrix for `solve_transportation`.

    Tied costs at a scale from 1e-8 to 1e8, some rows shifted below zero
    and zero weights on either side; a single row or column occurs, but
    never both, so the arcs have an order other than their own.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(2 if n == 1 else 1, 6))
    scale = 10.0 ** draw(st.integers(-8, 8))
    costs = draw(st.lists(COSTS, min_size=n * m, max_size=n * m))
    C = np.reshape(costs, (n, m)) * scale
    negative = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    C[negative] -= 2.0 * scale
    a = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
    if sum(a) > sum(b):
        b[0] += sum(a) - sum(b)
    else:
        a[0] += sum(b) - sum(a)
    return np.array(a), np.array(b), C


def one_candidate_per_slot(instance):
    """Whether no arc is a self-loop or joins the nodes of another arc."""
    _, tails, heads, _, _ = instance
    pairs = {(min(t, h), max(t, h)) for t, h in zip(tails, heads)}
    return len(pairs) == tails.size and bool(np.all(tails != heads))


def _solve(solver, instance):
    try:
        return solver(*instance)
    except (ValidationError, ConvergenceError) as exc:
        return type(exc)


def assert_optimality(instance, res):
    """Integer conservation and reduced-cost optimality of one result."""
    n, tails, heads, costs, supplies = instance
    supplies = np.asarray(supplies, dtype=np.int64)
    assert res.flows.dtype == np.int64
    assert np.all(res.flows >= 0)
    out = np.bincount(tails, res.flows, minlength=n).astype(np.int64)
    into = np.bincount(heads, res.flows, minlength=n).astype(np.int64)
    left = supplies - (out - into)
    if res.status == "optimal":
        assert np.array_equal(left, np.zeros(n, dtype=np.int64))
    else:
        # An infeasible run stops with a partial routing: every node still
        # holds part of its own supply, never more and never the other sign.
        assert np.all(left * supplies >= 0)
        assert np.all(np.abs(left) <= np.abs(supplies))
    pot = res.potentials
    rc = costs + pot[tails] - pot[heads]
    tol = 1e-12 * max(1.0, np.abs(costs).max(initial=0.0), np.abs(pot).max())
    assert np.all(rc >= -tol)
    assert np.all(np.abs(rc[res.flows > 0]) <= tol)


def assert_same_result(instance, unique=False):
    got = _solve(solve_min_cost_flow, instance)
    ref = _solve(mincostflow_reference.solve_min_cost_flow, instance)
    if isinstance(ref, type):
        assert got is ref
        return
    assert got.status == ref.status
    assert_optimality(instance, got)
    assert_optimality(instance, ref)
    if got.status == "optimal":
        scale = float(np.abs(ref.flows) @ np.abs(instance[3]))
        assert abs(got.cost - ref.cost) <= 1e-12 * scale
    if unique:
        assert got.status == "optimal"
        assert got.flows.tobytes() == ref.flows.tobytes()
        assert got.cost == ref.cost


# The search stops at the nearest sink, node 2 at distance 1, but sink 1
# is as near: it is reached through node 3 over a zero-cost arc, and 3
# pops after 2.  The full search takes sink 1, the lowest index.
SINK_TIED_THROUGH_A_LATER_POP = (
    4, np.array([0, 0, 3]), np.array([2, 3, 1]), np.array([1.0, 1.0, 0.0]),
    [2, -1, -1, 0],
)

# The second phase reaches sinks 2 and 3 through node 1, then the reverse
# of arc 0 (2 -> 1, carrying one unit) into node 2.  The push to sink 2
# empties that arc, so sink 3's tree path is broken.  Arc 2 joins 1 to 2
# as well, but at reduced cost 3: pushing on to sink 3 over it would cost
# 20 where the optimum costs 14.
REVERSE_ARC_EMPTIED_BESIDE_A_PARALLEL_ARC = (
    5, np.array([2, 0, 1, 0, 4, 4, 2]), np.array([1, 2, 2, 1, 2, 1, 3]),
    np.array([0.0, 0.0, 3.0, 2.0, 3.0, 2.0, 1.0]), [1, -1, -1, -3, 4],
)


class TestAgainstHeapReference:
    @FUZZ
    @given(digraphs())
    @example(SINK_TIED_THROUGH_A_LATER_POP)
    @example(REVERSE_ARC_EMPTIED_BESIDE_A_PARALLEL_ARC)
    def test_random_digraphs(self, instance):
        assert_same_result(instance)

    @FUZZ
    @given(digraphs(negative=True))
    def test_negative_costs(self, instance):
        # The flow layer refuses any negative arc cost; the reference,
        # which starts from Bellman-Ford potentials, still takes them.
        if np.any(instance[3] < 0.0):
            with pytest.raises(ValidationError, match="nonnegative"):
                solve_min_cost_flow(*instance)
        else:
            assert_same_result(instance)

    @FUZZ
    @given(grid_graphs())
    def test_grid_beckmann_graphs(self, instance):
        assert_same_result(instance)

    @FUZZ
    @given(generic_digraphs())
    def test_unique_optimum_is_bit_equal(self, instance):
        assert_same_result(instance, unique=True)

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_augmentation_budget(self, budget, monkeypatch):
        n, tails, heads, costs, _ = SINK_TIED_THROUGH_A_LATER_POP
        instance = (n, tails, heads, costs, [3, -1, -1, -1])
        monkeypatch.setattr(_mincostflow, "_push_budget",
                            lambda n_nodes, n_arcs: budget)
        with pytest.raises(ConvergenceError):
            solve_min_cost_flow(*instance)
        with pytest.raises(ConvergenceError):
            mincostflow_reference.solve_min_cost_flow(
                *instance, max_augmentations=budget)

    def test_phase_that_pushes_nothing_raises(self):
        # A broken search: finite labels everywhere but no tree, so the
        # phase reaches the sink and finds no path to push along.  Every
        # phase would repeat the same search, so the loop must raise.
        def search(pot, flow, sources):
            k = sources.shape[0]
            return np.zeros(k), np.full(k, -1), np.full(k, -1)

        with pytest.raises(ConvergenceError, match="pushed nothing"):
            _successive_shortest_paths(
                1, np.array([1, -1], dtype=np.int64), search, 100)

    def test_slot_keys_past_int32(self):
        # Slot keys are tail * n_nodes + head; with 50,000 nodes they pass
        # 2**31, so they must be formed in int64.
        n = 50_000
        tails = np.arange(n - 1)
        supplies = np.zeros(n, dtype=np.int64)
        supplies[[n - 2, n - 1]] = [1, -1]
        res = solve_min_cost_flow(n, tails, tails + 1, np.ones(n - 1),
                                  supplies)
        assert res.status == "optimal"
        assert res.flows[-1] == 1 and res.flows.sum() == 1


class TestOneCandidateSlots:
    """The search's dense layout against its general slot path.

    The complete bipartite graph of `bipartite_graphs` takes the dense
    layout.  A strictly costlier parallel copy of one arc puts two
    candidates in that arc's slot and in the slot of its reverse, so the
    graph takes the general path.  The copy is never tight and never
    carries flow, so it must change nothing else.
    """

    @FUZZ
    @given(bipartite_graphs(), st.data())
    def test_costlier_parallel_copy_changes_nothing(self, instance, data):
        n, tails, heads, costs, supplies = instance
        assert one_candidate_per_slot(instance)
        assert _mincostflow._bipartite_rows(n, tails, heads) > 0
        k = data.draw(st.integers(0, tails.size - 1))
        extra = data.draw(st.sampled_from([0.5, 1.0, 4.0]))
        copied = (n, np.append(tails, tails[k]), np.append(heads, heads[k]),
                  np.append(costs, costs[k] + extra), supplies)
        assert not one_candidate_per_slot(copied)
        assert _mincostflow._bipartite_rows(*copied[:3]) == 0
        plain = solve_min_cost_flow(*instance)
        general = solve_min_cost_flow(*copied)
        assert general.status == plain.status
        assert general.flows[-1] == 0
        assert general.flows[:-1].tobytes() == plain.flows.tobytes()
        assert general.potentials.tobytes() == plain.potentials.tobytes()
        assert general.augmentations == plain.augmentations
        assert_optimality(copied, general)

    @pytest.mark.parametrize("strategy", [digraphs(), digraphs(negative=True),
                                          generic_digraphs()])
    def test_fuzzers_draw_both_slot_layouts(self, strategy):
        # The random digraphs must reach both kinds of slot on the slot
        # path: slots that hold one candidate each and slots shared by
        # parallel or antiparallel arcs.
        once = settings(database=None, derandomize=True)
        for layout in (True, False):
            find(strategy, lambda g: one_candidate_per_slot(g) == layout
                 and g[1].size > 1, settings=once)


class TestDenseLayout:
    """`solve_transportation` on the dense layout against the general slot
    path, which the same arcs take when listed in another order.  Flows,
    potentials, push count and status must agree bit for bit, and so
    must the plan and duals that `solve_transportation` returns."""

    @FUZZ
    @given(transport_problems(), st.integers(0, 2**32 - 1))
    def test_matches_slot_path(self, problem, seed):
        a, b, C = problem
        n = C.shape[0]
        solve = _mincostflow.solve_min_cost_flow
        results = []

        def in_order(n_nodes, tails, heads, costs, supplies):
            assert _mincostflow._bipartite_rows(n_nodes, tails, heads) == n
            results.append(solve(n_nodes, tails, heads, costs, supplies))
            return results[-1]

        def shuffled(n_nodes, tails, heads, costs, supplies):
            order = np.random.default_rng(seed).permutation(tails.size)
            if np.array_equal(order, np.arange(tails.size)):
                order = order[::-1]
            tails, heads = tails[order], heads[order]
            assert _mincostflow._bipartite_rows(n_nodes, tails, heads) == 0
            res = solve(n_nodes, tails, heads, costs[order], supplies)
            flows = np.empty_like(res.flows)
            flows[order] = res.flows
            results.append(res._replace(flows=flows))
            return results[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_mincostflow, "solve_min_cost_flow", in_order)
            dense = _mincostflow.solve_transportation(a, b, C)
            mp.setattr(_mincostflow, "solve_min_cost_flow", shuffled)
            general = _mincostflow.solve_transportation(a, b, C)
        got, ref = results
        assert got.status == ref.status == "optimal"
        assert got.flows.tobytes() == ref.flows.tobytes()
        assert got.potentials.tobytes() == ref.potentials.tobytes()
        assert got.augmentations == ref.augmentations
        for x, y in zip(dense[:3], general[:3]):
            assert x.tobytes() == y.tobytes()
        assert dense[3:] == general[3:]
