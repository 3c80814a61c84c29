"""The sparse min-cost flow engine against its old heap loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otkit._mincostflow import solve_min_cost_flow
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


def _solve(solver, instance, **kwargs):
    try:
        return solver(*instance, **kwargs)
    except (ValidationError, ConvergenceError) as exc:
        return type(exc)


def assert_same_result(instance, **kwargs):
    got = _solve(solve_min_cost_flow, instance, **kwargs)
    ref = _solve(mincostflow_reference.solve_min_cost_flow, instance, **kwargs)
    if isinstance(ref, type):
        assert got is ref
        return
    assert got.status == ref.status
    assert got.augmentations == ref.augmentations
    assert got.flows.dtype == ref.flows.dtype
    assert got.flows.tobytes() == ref.flows.tobytes()
    assert got.potentials.tobytes() == ref.potentials.tobytes()
    assert got.cost == ref.cost


# The search stops at the nearest sink, node 2 at distance 1, but sink 1
# is as near: it is reached through node 3 over a zero-cost arc, and 3
# pops after 2.  The full search takes sink 1, the lowest index.
SINK_TIED_THROUGH_A_LATER_POP = (
    4, np.array([0, 0, 3]), np.array([2, 3, 1]), np.array([1.0, 1.0, 0.0]),
    [2, -1, -1, 0],
)


class TestAgainstHeapReference:
    @FUZZ
    @given(digraphs())
    @example(SINK_TIED_THROUGH_A_LATER_POP)
    def test_random_digraphs(self, instance):
        assert_same_result(instance)

    @FUZZ
    @given(digraphs(negative=True))
    def test_negative_costs(self, instance):
        assert_same_result(instance)

    @FUZZ
    @given(grid_graphs())
    def test_grid_beckmann_graphs(self, instance):
        assert_same_result(instance)

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_augmentation_budget(self, budget):
        n, tails, heads, costs, _ = SINK_TIED_THROUGH_A_LATER_POP
        instance = (n, tails, heads, costs, [3, -1, -1, -1])
        with pytest.raises(ConvergenceError):
            solve_min_cost_flow(*instance, max_augmentations=budget)
        assert_same_result(instance, max_augmentations=budget)
