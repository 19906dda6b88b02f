"""Closed-form families as exact oracles at sizes the brute-force oracles do not reach.

Each graph is built here from its edge list, so the values do not rest on a
widthlab generator:
- the cycle C_n has tw = pw = bw = 2 and cycle rank 1 + ceil(log2 n);
- the complete bipartite K_{a,b} has tw = pw = min(a, b) and cycle rank min(a, b) + 1;
- the complete binary tree with d levels (height h = d - 1) has pw = ceil(h / 2)
  (Scheffler 1989; Ellis, Sudborough and Turner, Information and Computation 1994)
  and cycle rank d;
- the grid P_a x P_b has tw = pw = bw = min(a, b) (bandwidth: Chvátalová,
  "Optimal labelling of a product of two paths", Discrete Mathematics 1975);
- the path power P_n^k with n > k has tw = pw = bw = k.
The grids and path powers reach n = 18, the treewidth and pathwidth caps, with
bandwidth's cap raised to match.
"""

import pytest

from widthlab import (
    Graph,
    bandwidth,
    complete_binary_tree,
    cycle_rank,
    path_power,
    pathwidth,
    treewidth,
)


@pytest.mark.parametrize("n", [5, 8, 9, 16])
def test_cycles(n):
    g = Graph(n, [(v, (v + 1) % n) for v in range(n)])
    assert treewidth(g)[0] == pathwidth(g)[0] == 2
    assert bandwidth(g, cap=16)[0] == 2  # C_16 is past the default bandwidth cap
    assert cycle_rank(g)[0] == 1 + (n - 1).bit_length()  # (n - 1).bit_length() = ceil(log2 n)


@pytest.mark.parametrize("a, b", [(2, 6), (3, 9), (4, 12), (5, 5)])
def test_complete_bipartite(a, b):
    g = Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    assert treewidth(g)[0] == pathwidth(g)[0] == min(a, b)
    assert cycle_rank(g)[0] == min(a, b) + 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_complete_binary_trees(d):
    g = Graph(2**d - 1, [(v, (v - 1) // 2) for v in range(1, 2**d - 1)])
    assert g == complete_binary_tree(d)
    assert pathwidth(g)[0] == d // 2  # ceil((d - 1) / 2), for the height d - 1
    assert cycle_rank(g)[0] == d


@pytest.mark.parametrize("a, b", [(2, 8), (2, 9), (3, 5), (3, 6), (4, 4)])
def test_grids(a, b):
    # vertex (i, j) is i * b + j
    g = Graph(a * b, [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
              + [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)])
    assert treewidth(g)[0] == pathwidth(g)[0] == bandwidth(g, cap=18)[0] == min(a, b)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("size", ["k+1", 12, 18])
def test_path_powers(k, size):
    n = k + 1 if size == "k+1" else size
    g = Graph(n, [(u, v) for v in range(n) for u in range(max(0, v - k), v)])
    assert g == path_power(n, k)
    assert treewidth(g)[0] == pathwidth(g)[0] == bandwidth(g, cap=18)[0] == k
