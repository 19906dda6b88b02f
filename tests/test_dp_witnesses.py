"""Treewidth and pathwidth witnesses are pinned to the unpruned DPs.

The solvers return the (value, order) that the full 2^n-state table fill
of `tests/conftest.py` reconstructs: the smallest-id vertex that attains
the table value at every step.  Any pruning of the table fill must keep
these witnesses exactly.
"""

import pytest

from widthlab import (
    Graph,
    complete,
    hypercube,
    path,
    pathwidth,
    random_graph,
    random_tree,
    star,
    treewidth,
)
from widthlab.solvers import (
    _min_boundary_layout,
    _min_fill_order,
    _pathwidth_table,
    _treewidth_table,
    eliminate_and_measure,
    separation_profile,
)

from .conftest import (
    oracle_pathwidth_dp,
    oracle_pathwidth_table,
    oracle_treewidth_dp,
    oracle_treewidth_table,
)

DENSITY_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _union(*parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    return Graph(offset, edges)


def _assert_matches_oracles(g):
    assert treewidth(g) == oracle_treewidth_dp(g)
    assert pathwidth(g) == oracle_pathwidth_dp(g)


@pytest.mark.parametrize("p", DENSITY_LADDER)
def test_density_ladder_matches_unpruned_dp(p):
    for n in range(2, 13):
        _assert_matches_oracles(random_graph(n, p, 2100 + n))


@pytest.mark.parametrize("seed", range(8))
def test_random_trees_match_unpruned_dp(seed):
    for n in (2, 5, 9, 12):
        _assert_matches_oracles(random_tree(n, 2200 + 10 * seed + n))


@pytest.mark.parametrize(
    "g",
    [
        Graph(0),
        Graph(1),
        Graph(7),
        _union(complete(4), random_tree(5, 3)),
        _union(random_graph(5, 0.6, 2300), Graph(2), random_graph(4, 0.5, 2301)),
        hypercube(3),
        complete(6),
    ],
    ids=["n0", "n1", "edgeless7", "K4+tree", "random+isolated+random", "Q3", "K6"],
)
def test_special_graphs_match_unpruned_dp(g):
    _assert_matches_oracles(g)


# (value, order) recorded from the unpruned DPs; both graphs are benchmark inputs.
PINNED = {
    "random(16,0.3,7)": (
        random_graph(16, 0.3, 7),
        (5, (15, 14, 12, 11, 9, 5, 7, 13, 10, 8, 6, 4, 3, 2, 1, 0)),
        (5, (15, 14, 13, 12, 8, 3, 7, 1, 6, 5, 2, 9, 11, 10, 4, 0)),
    ),
    "Q4": (
        hypercube(4),
        (6, (15, 12, 10, 6, 14, 9, 5, 13, 11, 8, 7, 4, 3, 2, 1, 0)),
        (7, (15, 14, 13, 12, 11, 10, 9, 7, 6, 5, 3, 8, 4, 2, 1, 0)),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_witnesses_at_n16(name):
    g, tw, pw = PINNED[name]
    assert treewidth(g) == tw
    assert pathwidth(g) == pw


# --- the pruned tables and their greedy bounds ------------------------------------

TABLE_GRAPHS = [random_graph(n, p, 2400 + n) for n in (4, 7, 9) for p in DENSITY_LADDER[::2]]
TABLE_GRAPHS += [random_tree(9, 2500), hypercube(3), Graph(5), Graph(0)]


@pytest.mark.parametrize("i", range(len(TABLE_GRAPHS)))
def test_pruned_tables_are_exact_up_to_the_bound(i):
    # For every bound, a set whose value is at most the bound holds that
    # value and every other set holds bound + 1, so the tables differ from
    # the unpruned ones only where reconstruction never looks.
    g = TABLE_GRAPHS[i]
    full_tw, full_pw = oracle_treewidth_table(g), oracle_pathwidth_table(g)
    for ub in range(g.n + 1):
        assert list(_treewidth_table(g, ub)) == [min(v, ub + 1) for v in full_tw]
        assert list(_pathwidth_table(g, ub)) == [min(v, ub + 1) for v in full_pw]


@pytest.mark.parametrize("p", DENSITY_LADDER)
def test_greedy_bounds_are_at_least_exact(p):
    for n in range(1, 13):
        g = random_graph(n, p, 2600 + n)
        assert eliminate_and_measure(g, _min_fill_order(g)) >= treewidth(g)[0]
        assert separation_profile(g, _min_boundary_layout(g)) >= pathwidth(g)[0]


def test_greedy_orders_break_ties_by_smallest_id():
    assert _min_fill_order(path(5)) == (0, 1, 2, 3, 4)
    assert _min_fill_order(Graph(3)) == (0, 1, 2)
    # Leaves of a star have fill 0 and degree 1, so they go first until the
    # centre ties with the last leaf and wins by its smaller id.
    assert _min_fill_order(star(4)) == (1, 2, 3, 0, 4)
    assert _min_boundary_layout(path(5)) == (0, 1, 2, 3, 4)
    # The centre and a leaf both leave a boundary of 1; the centre has id 0.
    assert _min_boundary_layout(star(4)) == (0, 1, 2, 3, 4)
    # After 0, 1, 2, adding 4 leaves boundary {4} and adding 3 leaves {2, 3}.
    assert _min_boundary_layout(Graph(5, [(3, 4), (2, 4)])) == (0, 1, 2, 4, 3)
