import random

import pytest

from widthlab import (
    DomainError,
    Graph,
    InvalidSeparator,
    R_rec,
    Ranking,
    SizeLimitExceeded,
    bandwidth,
    complete,
    complete_binary_tree,
    cycle_rank,
    hypercube,
    induced,
    is_valid_ranking,
    path,
    path_power,
    pathwidth,
    random_graph,
    random_tree,
    separator_number,
    separator_ranking,
    star,
    treewidth,
    verify_chain,
)
from widthlab.separators import SUBSET_TABLE_BUDGET
from widthlab.solvers import (
    PARAMS,
    PW_TABLE_MAX_N,
    TW_TABLE_MAX_N,
    eliminate_and_measure,
    separation_profile,
)

from .conftest import (
    oracle_bandwidth,
    oracle_cycle_rank,
    oracle_pathwidth,
    oracle_subgraph_of_path_power,
    oracle_treewidth,
    oracle_valid_levels,
)


# --- cycle rank -----------------------------------------------------------------


def test_cycle_rank_base_cases():
    assert cycle_rank(Graph(0))[0] == 0
    for n in (1, 3, 6):
        assert cycle_rank(Graph(n))[0] == 1
    for n in (1, 4, 8):
        assert cycle_rank(star(n))[0] == 2
    assert cycle_rank(complete(4))[0] == 4
    assert cycle_rank(path_power(7, 1))[0] == R_rec(1, 7) == 3


def test_cycle_rank_path_prose_conflict():
    # r(P_7) follows the recurrence value 3, not 1 + ceil(log2 7) = 4
    assert cycle_rank(path(7))[0] == 3


def test_cycle_rank_witness_valid_and_tight():
    for seed in range(10):
        g = random_graph(7, 0.4, 700 + seed)
        r, ranking = cycle_rank(g)
        ok, _ = is_valid_ranking(g, ranking)
        assert ok
        assert ranking.height == r


@pytest.mark.parametrize("seed", range(12))
def test_cycle_rank_matches_exhaustive_oracle(seed):
    g = random_graph(5, 0.5, 800 + seed)
    assert cycle_rank(g)[0] == oracle_cycle_rank(g)


def test_cycle_rank_cap():
    with pytest.raises(SizeLimitExceeded):
        cycle_rank(Graph(17))
    assert cycle_rank(Graph(17), cap=20)[0] == 1


def test_cycle_rank_subgraph_monotone():
    g = random_graph(7, 0.5, 42)
    r, _ = cycle_rank(g)
    edges = list(g.edges())
    for drop in range(len(edges)):
        h = Graph(g.n, edges[:drop] + edges[drop + 1 :])
        assert cycle_rank(h)[0] <= r
    for v in range(g.n):
        sub, _ = induced(g, [u for u in range(g.n) if u != v])
        assert cycle_rank(sub)[0] <= r


# --- ranking validity ----------------------------------------------------------


def test_is_valid_ranking_examples():
    g = random_graph(5, 0.6, 3)
    assert is_valid_ranking(g, Ranking({v: v + 1 for v in range(5)}))[0]
    assert is_valid_ranking(Graph(3), Ranking({0: 1, 1: 1, 2: 1}))[0]
    k2 = Graph(2, [(0, 1)])
    ok, pair = is_valid_ranking(k2, Ranking({0: 1, 1: 1}))
    assert not ok and pair == (0, 1)
    with pytest.raises(DomainError):
        is_valid_ranking(k2, Ranking({0: 1}))
    with pytest.raises(DomainError):
        is_valid_ranking(k2, Ranking({0: 0, 1: 2}))


def test_validity_checker_agrees_with_oracle():
    from itertools import product

    g = random_graph(4, 0.5, 13)
    for levels in product(range(1, 4), repeat=4):
        mine = is_valid_ranking(g, Ranking(dict(enumerate(levels))))[0]
        assert mine == oracle_valid_levels(g, levels)


# --- separator ranking ----------------------------------------------------------


def test_separator_ranking_examples():
    rk = separator_ranking(path(7), 1)
    assert rk.height <= R_rec(1, 7) == 3
    rk = separator_ranking(complete(5), 4)
    assert rk.height <= R_rec(4, 5) == 5
    h3 = hypercube(3)
    k = separator_number(h3)
    rk = separator_ranking(h3, k)
    assert rk.height <= R_rec(k, 8)


def test_separator_ranking_rejects_small_k():
    with pytest.raises(InvalidSeparator):
        separator_ranking(complete(6), 2)
    with pytest.raises(DomainError):
        separator_ranking(path(3), 0)


def test_separator_ranking_height_bound_on_corpus():
    for seed in range(15):
        g = random_graph(8, 0.35, 900 + seed)
        k = max(separator_number(g), 1)
        rk = separator_ranking(g, k)
        assert rk.height <= R_rec(k, g.n)
        ok, _ = is_valid_ranking(g, rk)
        assert ok


# --- treewidth -------------------------------------------------------------------


def test_treewidth_examples():
    for seed in range(5):
        t = random_tree(2 + 2 * seed, seed)
        assert treewidth(t)[0] == 1
    assert treewidth(complete(5))[0] == 4
    assert treewidth(hypercube(2))[0] == 2
    assert treewidth(Graph(0))[0] == 0
    assert treewidth(Graph(1))[0] == 0


@pytest.mark.parametrize("seed", range(10))
def test_treewidth_matches_bruteforce(seed):
    g = random_graph(6, 0.45, 1000 + seed)
    value, order = treewidth(g)
    assert value == oracle_treewidth(g)
    assert eliminate_and_measure(g, order) == value


# --- pathwidth -------------------------------------------------------------------


def test_pathwidth_examples():
    assert pathwidth(path(9))[0] == 1
    assert pathwidth(complete(4))[0] == 3
    assert pathwidth(complete_binary_tree(2))[0] == 1
    # The 7-vertex complete binary tree is a caterpillar: its pathwidth
    # is 1 (exhaustively confirmed), despite the level-count folklore.
    assert pathwidth(complete_binary_tree(3))[0] == 1
    assert pathwidth(complete_binary_tree(4))[0] == 2


@pytest.mark.parametrize("seed", range(10))
def test_pathwidth_matches_bruteforce(seed):
    g = random_graph(6, 0.45, 1100 + seed)
    value, order = pathwidth(g)
    assert value == oracle_pathwidth(g)
    assert separation_profile(g, order) == value


@pytest.mark.parametrize("solve, ceiling", [(treewidth, TW_TABLE_MAX_N), (pathwidth, PW_TABLE_MAX_N)])
def test_width_tables_refused_above_their_ceiling(solve, ceiling):
    # Refused before the 2^n table is allocated, whatever the cap; the
    # table takes one byte per subset.
    with pytest.raises(SizeLimitExceeded, match="no cap raises"):
        solve(path(ceiling + 1), cap=100)
    assert 1 << ceiling <= SUBSET_TABLE_BUDGET < 1 << (ceiling + 1)


def test_tw_le_pw():
    for seed in range(15):
        g = random_graph(7, 0.4, 1200 + seed)
        assert treewidth(g)[0] <= pathwidth(g)[0]


# --- bandwidth -------------------------------------------------------------------


def test_bandwidth_examples():
    assert bandwidth(star(8))[0] == 4
    assert bandwidth(path(9))[0] == 1
    assert bandwidth(path_power(6, 2))[0] == 2
    assert bandwidth(Graph(4))[0] == 0
    assert bandwidth(complete(6))[0] == 5
    with pytest.raises(SizeLimitExceeded):
        bandwidth(Graph(13))


def _stretch(g, layout):
    pos = {v: i for i, v in enumerate(layout)}
    return max((abs(pos[u] - pos[v]) for u, v in g.edges()), default=0)


@pytest.mark.parametrize("seed", range(10))
def test_bandwidth_matches_bruteforce(seed):
    g = random_graph(6, 0.4, 1300 + seed)
    value, layout = bandwidth(g)
    assert (value, layout) == oracle_bandwidth(g)
    assert _stretch(g, layout) == value


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_bandwidth_layout_is_lex_first_optimal(p):
    # The pruned search must return the first optimal permutation in
    # lexicographic order, exactly as exhaustive enumeration finds it.
    for n in range(1, 9):
        g = random_graph(n, p, 1600 + n)
        assert bandwidth(g) == oracle_bandwidth(g)


@pytest.mark.parametrize(
    "g",
    [random_graph(16, 0.15, 1700), random_graph(16, 0.5, 1701),
     random_graph(16, 0.85, 1702), hypercube(4)],
    ids=["sparse", "mid", "dense", "Q4"],
)
def test_bandwidth_at_deep_cap(g):
    value, layout = bandwidth(g, cap=16)
    assert sorted(layout) == list(range(16))
    assert _stretch(g, layout) == value
    assert pathwidth(g)[0] <= value


def test_bandwidth_witness_lex_smallest():
    # identity layout is optimal for a path, and it is the lexicographic minimum
    assert bandwidth(path(6))[1] == (0, 1, 2, 3, 4, 5)


@pytest.mark.parametrize("seed", range(8))
def test_bandwidth_iff_subgraph_of_path_power(seed):
    g = random_graph(5, 0.5, 1400 + seed)
    bw, _ = bandwidth(g)
    for k in range(1, 5):
        assert (bw <= k) == oracle_subgraph_of_path_power(g, k)


def test_pw_lower_bounds_bw():
    for seed in range(10):
        g = random_graph(7, 0.4, 1500 + seed)
        assert pathwidth(g)[0] <= bandwidth(g)[0]


# --- verify_chain ----------------------------------------------------------------


def test_verify_chain_examples():
    rep = verify_chain(path(8))
    assert (rep.s, rep.tw, rep.pw, rep.r) == (1, 1, 1, 4)
    assert rep.thm9_ok and rep.thm2_ok
    assert rep.thm9_bound_holds and rep.thm9_bound_display == 4.0

    rep = verify_chain(complete(5))
    assert (rep.s, rep.tw, rep.pw, rep.r) == (4, 4, 4, 5)
    assert rep.thm9_ok and rep.thm2_ok

    rep = verify_chain(star(4))
    assert (rep.s, rep.tw, rep.pw, rep.r) == (1, 1, 1, 2)
    assert rep.thm9_ok and rep.thm2_ok

    with pytest.raises(DomainError):
        verify_chain(Graph(1))


def test_verify_chain_edgeless_uses_k1_bound():
    rep = verify_chain(Graph(4))
    assert rep.s == 0 and rep.r == 1
    assert "thm9-bound-evaluated-at-k=1" in rep.flags
    assert rep.thm9_ok and rep.thm2_ok


def test_verify_chain_reports_violation_without_raising():
    # Q3: s = 4 > 3 = tw, so the newer chain legitimately fails and the
    # report must say so instead of raising.
    rep = verify_chain(hypercube(3))
    assert rep.s == 4 and rep.tw == 3
    assert not rep.thm9_ok
    assert rep.thm2_ok  # the older chain still holds
    assert rep.thm9_bound_holds  # only the s <= tw link is broken


def test_report_json_schema():
    rep = verify_chain(path(4))
    d = rep.to_json_dict()
    assert set(d) == {
        "n", "s", "s_strict", "tw", "pw", "bw", "r",
        "thm9_ok", "thm2_ok", "bounds", "witnesses", "flags",
    }
    assert set(d["bounds"]) == {"thm9", "thm2"}
    assert set(d["bounds"]["thm9"]) == {"holds", "display"}
    assert set(d["witnesses"]) == {"s", "s_strict", "tw", "pw", "bw", "r"}


# --- metamorphic relations -------------------------------------------------------


def _values(g, names=tuple(PARAMS)):
    return {name: PARAMS[name].run(g, PARAMS[name].cap)[0] for name in names}


# Parameters that are the maximum over the connected components (the
# separator numbers are not), so a disjoint union takes the larger part's
# value and an isolated vertex changes nothing.
PER_COMPONENT = ("tw", "pw", "bw", "r")


@pytest.mark.parametrize("seed", range(6))
def test_relabelling_keeps_every_parameter(seed):
    g = random_graph(9, 0.15 * (seed + 1), 1800 + seed)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert _values(relabelled) == _values(g)


@pytest.mark.parametrize("seed", range(6))
def test_disjoint_union_takes_max(seed):
    a = random_graph(6, 0.15 * (seed + 1), 1900 + seed)
    b = random_graph(5, 0.9 - 0.15 * seed, 1950 + seed)
    union = Graph(a.n + b.n, [*a.edges(), *((u + a.n, v + a.n) for u, v in b.edges())])
    va, vb = _values(a, PER_COMPONENT), _values(b, PER_COMPONENT)
    expected = {name: max(va[name], vb[name]) for name in PER_COMPONENT}
    assert _values(union, PER_COMPONENT) == expected


@pytest.mark.parametrize("seed", range(6))
def test_isolated_vertex_changes_nothing(seed):
    g = random_graph(8, 0.15 * (seed + 1), 2000 + seed)
    padded = Graph(g.n + 1, g.edges())
    assert _values(padded, PER_COMPONENT) == _values(g, PER_COMPONENT)
