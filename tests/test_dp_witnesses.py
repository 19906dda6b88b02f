"""Treewidth, pathwidth and cycle-rank witnesses are pinned to plain DPs.

The solvers return the (value, order) that the full 2^n-state table fill
of `tests/conftest.py` reconstructs: the smallest-id vertex that attains
the table value at every step.  Any pruning of the table fill must keep
these witnesses exactly.  Cycle rank likewise returns the (value, levels)
of the dict-memo recursion with a full min scan, `oracle_cycle_rank_dp`.
"""

import hashlib
from itertools import islice

import pytest

from widthlab import (
    Graph,
    Ranking,
    complete,
    cycle_rank,
    hypercube,
    path,
    pathwidth,
    random_graph,
    random_tree,
    star,
    treewidth,
)
from widthlab import solvers as solvers_mod
from widthlab.corpus import random_corpus
from widthlab.graph import bits_of
from widthlab.lattice import reach
from widthlab.solvers import (
    _min_fill_order,
    _pathwidth_levels,
    _treewidth_table,
    _walk_back,
    eliminate_and_measure,
)

from .conftest import (
    _oracle_boundary,
    level_values,
    oracle_cycle_rank_dp,
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


# (value, order) recorded from the solver; each equals `oracle_treewidth_dp`'s,
# which takes seconds at these sizes.  Both graphs are benchmark inputs.
PINNED_TW = {
    "random(16,0.5,7)": (
        random_graph(16, 0.5, 7),
        (8, (15, 3, 12, 14, 11, 8, 13, 10, 9, 7, 6, 5, 4, 2, 1, 0)),
    ),
    "random(18,0.3,7)": (
        random_graph(18, 0.3, 7),
        (5, (17, 15, 14, 13, 4, 12, 8, 5, 3, 7, 16, 10, 11, 9, 6, 2, 1, 0)),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TW))
def test_pinned_treewidth_orders(name):
    g, tw = PINNED_TW[name]
    assert treewidth(g) == tw


# sha256 of the whole `_treewidth_table(g, ub)` at the min-fill bound ub: a
# change to the fill must keep every entry, sentinels included.  The last two
# are the acceptance-5 counterexamples of the newer chain, as the corpus
# generates them.
TW_TABLE_DIGESTS = {
    "random(16,0.3,7)": (random_graph(16, 0.3, 7), 5,
                         "4d03cbcd98a1c6fbaf943ea9efbc2f3ef2ef3f79ce08a93ba6aadaab9c08ed42"),
    "random(16,0.5,7)": (random_graph(16, 0.5, 7), 9,
                         "ed7d198ec8b13493c0df82202d02b414baca0a78ef315d5efbc6e02744ee15c1"),
    "random(18,0.3,7)": (random_graph(18, 0.3, 7), 5,
                         "ab42cc93c134a9b099573b745d2cff0ffad46d4e73f079f971b0941999c09d1d"),
    "Q4": (hypercube(4), 6,
           "e65a891ad6a4e9409ebb12e0e9db8e5dc67cbe9f3acc6bd3fb8ffc52e367c853"),
    "hypercube(3)": (hypercube(3), 3,
                     "770521fbc360f503055acf0c8664e6bfc3d676929fd1a7cc30be083a0de4bbdc"),
    "random(n=8,p=0.6)": (random_corpus(200, 10, 1)[68][1], 2,
                          "72b5eb16158c67d40b1f156c8d42acd130109f72ec74b3b63c206f2094bf2cfc"),
}


def test_pinned_corpus_graph_is_the_counterexample():
    assert random_corpus(200, 10, 1)[68][0] == "random(n=8,p=0.6)"


@pytest.mark.parametrize("name", sorted(TW_TABLE_DIGESTS))
def test_pinned_treewidth_table_bytes(name):
    g, ub, digest = TW_TABLE_DIGESTS[name]
    assert eliminate_and_measure(g, _min_fill_order(g)) == ub
    assert hashlib.sha256(_treewidth_table(g, ub)).hexdigest() == digest


# (value, layout) recorded from the solver; each equals `oracle_pathwidth_dp`'s,
# which takes seconds at these sizes.  Both graphs are benchmark inputs.
PINNED_PW = {
    "random(16,0.5,7)": (
        random_graph(16, 0.5, 7),
        (9, (15, 14, 13, 12, 11, 7, 6, 5, 4, 3, 2, 9, 1, 8, 10, 0)),
    ),
    "random(18,0.3,7)": (
        random_graph(18, 0.3, 7),
        (5, (17, 14, 12, 11, 8, 4, 2, 3, 9, 6, 0, 13, 16, 15, 10, 7, 5, 1)),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PW))
def test_pinned_pathwidth_layouts(name):
    g, pw = PINNED_PW[name]
    assert pathwidth(g) == pw


# sha256 of min(PW(S), ub + 1) for every S, one byte each in ascending order
# of S, from the first ub + 1 levels (ub >= pw), for the graphs of
# TW_TABLE_DIGESTS.
PW_TABLE_DIGESTS = {
    "random(16,0.3,7)": (random_graph(16, 0.3, 7), 5,
                         "64e6a2abb787dedb15cdbb6a58baaef852797e47570a7c5335a08cab1632e645"),
    "random(16,0.5,7)": (random_graph(16, 0.5, 7), 10,
                         "473607f00db5226bbc1e9a74fc650b688c365016d8132240b0328ebd980e6dd1"),
    "random(18,0.3,7)": (random_graph(18, 0.3, 7), 5,
                         "ee3b0edb56c8ca214f0c00d833097ea33b045da05cfa1b0675a4f90dcf9e7876"),
    "Q4": (hypercube(4), 7,
           "8c22f1459578fa8b7d33fe27c7426a271f130b5025b24d88a13d2ef8ef07f7c0"),
    "hypercube(3)": (hypercube(3), 4,
                     "c4640ced206c3263c95486471288eb9c52ae1a5ee90a6944c3660e3d8e9943e1"),
    "random(n=8,p=0.6)": (random_corpus(200, 10, 1)[68][1], 3,
                          "18e6224f3227411691b9c220068a91ea7709b3a9dd989fb6a2dba84fac71efc7"),
}


@pytest.mark.parametrize("name", sorted(PW_TABLE_DIGESTS))
def test_pinned_pathwidth_table_bytes(name):
    g, ub, digest = PW_TABLE_DIGESTS[name]
    table = bytes(level_values(list(islice(_pathwidth_levels(g), ub + 1)), g.n))
    assert hashlib.sha256(table).hexdigest() == digest


# --- the pruned tables and their greedy bounds ------------------------------------

TABLE_GRAPHS = [random_graph(n, p, 2400 + n) for n in (4, 7, 9) for p in DENSITY_LADDER[::2]]
TABLE_GRAPHS += [random_tree(9, 2500), hypercube(3), Graph(5), Graph(0)]


@pytest.mark.parametrize("i", range(len(TABLE_GRAPHS)))
def test_pruned_tables_are_exact_up_to_the_bound(i):
    # For every bound, a set whose value is at most the bound holds that
    # value and every other set holds bound + 1, so the tables differ from
    # the unpruned ones only where reconstruction never looks.  Pathwidth
    # keeps levels instead: L_t holds exactly the sets of value at most t,
    # for t up to the bound, one bit per set and at least one byte.
    g = TABLE_GRAPHS[i]
    full_tw, full_pw = oracle_treewidth_table(g), oracle_pathwidth_table(g)
    for ub in range(g.n + 1):
        assert list(_treewidth_table(g, ub)) == [min(v, ub + 1) for v in full_tw]
        levels = list(islice(_pathwidth_levels(g), ub + 1))
        assert len(levels) == ub + 1
        assert {len(level) for level in levels} == {max(1, (1 << g.n) >> 3)}
        sets = [int.from_bytes(level, "little") for level in levels]
        assert all(low & ~high == 0 for low, high in zip(sets, sets[1:]))  # nested
        assert sets[-1] >> (1 << g.n) == 0  # no bit past the last set
        assert level_values(levels, g.n) == [min(v, ub + 1) for v in full_pw]


@pytest.mark.parametrize("i", range(len(TABLE_GRAPHS)))
def test_level_walk_agrees_with_the_boundary_rule(i, monkeypatch):
    # Level t is swept inside B_t = {S : boundary(S) <= t}, for every t up
    # to n.  And the walk back of `pathwidth` steps from S to S - v exactly
    # when max(boundary(S), PW(S - v)) == PW(S), the rule of the unpruned
    # DP, at every S of value at most pw and every v in S.
    g = TABLE_GRAPHS[i]
    pw = oracle_pathwidth_table(g)
    boundary = [_oracle_boundary(g.adj_bits, s_mask) for s_mask in range(1 << g.n)]
    bounds = []
    monkeypatch.setattr(solvers_mod, "reach",
                        lambda x, p, within: bounds.append(within) or reach(x, p, within))
    list(_pathwidth_levels(g))
    assert bounds == [sum(1 << s_mask for s_mask, b in enumerate(boundary) if b <= t)
                      for t in range(g.n + 1)]
    walks = []
    monkeypatch.setattr(solvers_mod, "_walk_back",
                        lambda full, attains: walks.append(attains) or _walk_back(full, attains))
    assert pathwidth(g) == oracle_pathwidth_dp(g)
    if g.n == 0:
        return
    attains = walks.pop()
    for s_mask in range(1 << g.n):
        if pw[s_mask] <= pw[-1]:
            for v in bits_of(s_mask):
                rule = max(boundary[s_mask], pw[s_mask ^ 1 << v]) == pw[s_mask]
                assert bool(attains(s_mask, 1 << v)) == rule


LEVEL_COUNT_GRAPHS = [(g, oracle_pathwidth_table(g)[-1]) for g in TABLE_GRAPHS]
LEVEL_COUNT_GRAPHS += [(g, layout[0]) for g, layout in PINNED_PW.values()]


@pytest.mark.parametrize("i", range(len(LEVEL_COUNT_GRAPHS)))
def test_pathwidth_builds_exactly_the_levels_up_to_pw(i, monkeypatch):
    # One reach per level: L_0, ..., L_pw, and none above the first that
    # holds V.  The empty graph returns before any level.
    g, pw = LEVEL_COUNT_GRAPHS[i]
    calls = []
    monkeypatch.setattr(solvers_mod, "reach",
                        lambda x, p, within: calls.append(within) or reach(x, p, within))
    assert pathwidth(g)[0] == pw
    assert len(calls) == (pw + 1 if g.n else 0)


@pytest.mark.parametrize("p", DENSITY_LADDER)
def test_greedy_bounds_are_at_least_exact(p):
    for n in range(1, 13):
        g = random_graph(n, p, 2600 + n)
        assert eliminate_and_measure(g, _min_fill_order(g)) >= treewidth(g)[0]


def test_greedy_orders_break_ties_by_smallest_id():
    assert _min_fill_order(path(5)) == (0, 1, 2, 3, 4)
    assert _min_fill_order(Graph(3)) == (0, 1, 2)
    # Leaves of a star have fill 0 and degree 1, so they go first until the
    # centre ties with the last leaf and wins by its smaller id.
    assert _min_fill_order(star(4)) == (1, 2, 3, 0, 4)


# --- cycle rank ------------------------------------------------------------------


def _assert_rank_matches_oracle(g):
    value, ranking = cycle_rank(g)
    assert (value, ranking.level) == oracle_cycle_rank_dp(g)


@pytest.mark.parametrize("p", DENSITY_LADDER)
def test_cycle_rank_density_ladder_matches_dict_memo(p):
    for n in range(1, 11):
        _assert_rank_matches_oracle(random_graph(n, p, 2700 + n))


@pytest.mark.parametrize("seed", range(8))
def test_cycle_rank_random_trees_match_dict_memo(seed):
    for n in (2, 5, 9, 12, 16):
        _assert_rank_matches_oracle(random_tree(n, 2800 + 10 * seed + n))


@pytest.mark.parametrize(
    "g",
    [
        Graph(0),
        Graph(1),
        Graph(7),
        star(9),
        path(16),
        _union(complete(4), random_tree(5, 3)),
        _union(random_graph(5, 0.6, 2300), Graph(2), random_graph(4, 0.5, 2301)),
        _union(star(4), Graph(1)),
        _union(complete(2), Graph(1)),
        hypercube(3),
        hypercube(4),
        complete(6),
    ],
    ids=["n0", "n1", "edgeless7", "star9", "P16", "K4+tree", "random+isolated+random",
         "star4+K1", "K2+K1", "Q3", "Q4", "K6"],
)
def test_cycle_rank_special_graphs_match_dict_memo(g):
    # n1, edgeless7, star4+K1 and K2+K1 have one-vertex components, whose
    # rank the solver reads off its preset singleton entries.
    _assert_rank_matches_oracle(g)


# (value, levels) recorded from the dict-memo solver; all three graphs are benchmark inputs.
PINNED_RANK = {
    "random(16,0.3,7)": (
        random_graph(16, 0.3, 7),
        7, (7, 3, 3, 6, 1, 1, 2, 5, 1, 1, 2, 3, 2, 4, 5, 4),
    ),
    "Q4": (
        hypercube(4),
        8, (8, 1, 1, 7, 1, 6, 2, 1, 1, 2, 5, 1, 4, 1, 1, 3),
    ),
    "random(16,0.5,7)": (
        random_graph(16, 0.5, 7),
        11, (11, 2, 10, 9, 8, 7, 2, 2, 6, 5, 1, 1, 2, 4, 1, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RANK))
def test_pinned_rank_levels_at_n16(name):
    g, value, levels = PINNED_RANK[name]
    assert cycle_rank(g) == (value, Ranking(dict(enumerate(levels))))
