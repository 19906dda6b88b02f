import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import (
    DomainError,
    Graph,
    InvalidSeparator,
    InvariantViolation,
    R_rec,
    Ranking,
    SizeLimitExceeded,
    bandwidth,
    chordal_clique_separator,
    complete,
    complete_binary_tree,
    components,
    cycle_rank,
    hypercube,
    induced,
    is_valid_ranking,
    min_balanced_separator,
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
from widthlab import separators as separators_mod
from widthlab import solvers as solvers_mod
from widthlab.separators import (
    MIN_SEPARATOR_CAP,
    SEPARATOR_NUMBER_CAP,
    SEPARATOR_TABLE_MAX_N,
    SUBSET_TABLE_BUDGET,
    _balanced,
)
from widthlab.solvers import (
    BW_CAP,
    BW_SEARCH_MAX_N,
    PARAMS,
    PW_CAP,
    PW_TABLE_MAX_N,
    RANK_CAP,
    RANK_TABLE_MAX_N,
    TW_CAP,
    TW_TABLE_MAX_N,
    _walk_back,
    eliminate_and_measure,
    pathwidth_live_sets,
    separation_profile,
)

from .conftest import (
    _oracle_boundary,
    oracle_bandwidth,
    oracle_cycle_rank,
    oracle_pathwidth,
    oracle_subgraph_of_path_power,
    oracle_treewidth,
    oracle_valid_levels,
)


DENSITY_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


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


def _connected_with_deletions(graphs):
    """Each component of each graph, with its vertex-deleted subgraphs."""
    for g in graphs:
        for comp in components(g):
            c, _ = induced(g, comp)
            yield c, [induced(c, [u for u in range(c.n) if u != v])[0] for v in range(c.n)]


# The early exit in the cycle-rank min rule rests on this: deleting a vertex
# of a connected graph lowers its cycle rank by at most one, never raises it.
def test_vertex_deletion_drops_rank_by_at_most_one_oracle():
    graphs = [random_graph(n, p, 3000 + n) for n in range(2, 7) for p in DENSITY_LADDER]
    graphs += [random_graph(7, p, 3007) for p in (0.3, 0.4, 0.5, 0.6, 0.7)]
    graphs += [path(7), star(6), random_tree(7, 3100), complete(5)]
    for g, deletions in _connected_with_deletions(graphs):
        r = oracle_cycle_rank(g)
        assert all(oracle_cycle_rank(h) in (r - 1, r) for h in deletions)


@pytest.mark.parametrize("p", DENSITY_LADDER)
def test_vertex_deletion_drops_rank_by_at_most_one(p):
    graphs = [random_graph(n, p, 3100 + 10 * n + seed) for n in range(2, 13) for seed in range(3)]
    for g, deletions in _connected_with_deletions(graphs):
        r = cycle_rank(g)[0]
        assert all(cycle_rank(h)[0] in (r - 1, r) for h in deletions)


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


@st.composite
def _graph_and_layout(draw):
    n = draw(st.integers(0, 40))
    g = random_graph(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**64 - 1)))
    return g, tuple(draw(st.permutations(range(n))))


@given(_graph_and_layout())
@settings(max_examples=80, deadline=None)
def test_separation_profile_matches_prefix_walk(g_and_order):
    g, order = g_and_order
    prefix = worst = 0
    for v in order:
        prefix |= 1 << v
        worst = max(worst, _oracle_boundary(g.adj_bits, prefix))
    assert separation_profile(g, order) == worst


def test_separation_profile_has_no_size_ceiling():
    g = path(100)
    assert separation_profile(g, tuple(range(100))) == 1
    assert g._neighbourhood_tables is None


def test_replays_build_no_tables():
    # The checks that re-validate witnesses walk adj_bits, not the tables
    # the solvers fill with.
    g = random_graph(12, 0.4, 1750)
    order = tuple(range(12))
    eliminate_and_measure(g, order)
    separation_profile(g, order)
    is_valid_ranking(g, Ranking({v: v + 1 for v in order}))
    _balanced(g, g.full_mask, strict=False)
    assert g._neighbourhood_tables is None


@pytest.mark.parametrize(
    "solve, ceiling",
    [(treewidth, TW_TABLE_MAX_N), (pathwidth, PW_TABLE_MAX_N), (cycle_rank, RANK_TABLE_MAX_N)],
)
def test_width_tables_refused_above_their_ceiling(solve, ceiling):
    # Refused before the 2^n table is allocated, whatever the cap; the
    # table takes one byte per subset.  Pathwidth holds lattice sets of 2^n
    # bits instead, `pathwidth_live_sets(n)` of them at once.
    with pytest.raises(SizeLimitExceeded, match="no cap raises"):
        solve(path(ceiling + 1), cap=100)
    if solve is pathwidth:
        def lattice_bytes(n):
            return pathwidth_live_sets(n) << n >> 3
        assert lattice_bytes(ceiling) <= SUBSET_TABLE_BUDGET < lattice_bytes(ceiling + 1)
    else:
        assert 1 << ceiling <= SUBSET_TABLE_BUDGET < 1 << (ceiling + 1)


def test_pathwidth_refused_above_its_ceiling_before_any_lattice_set(monkeypatch):
    monkeypatch.setattr(solvers_mod, "members", lambda n: pytest.fail("lattice sets built"))
    with pytest.raises(SizeLimitExceeded, match=f"n = {PW_TABLE_MAX_N + 1} > {PW_TABLE_MAX_N}"):
        pathwidth(path(PW_TABLE_MAX_N + 1), cap=100)


def test_pathwidth_memory_within_its_live_sets():
    # A dense graph has pw near n, so its pass holds nearly every level; a
    # star has pw 1 and boundaries up to n - 1, so its G_k above level 2
    # stay alive while the levels grow.  Both peak within the live-set
    # count that the ceiling PW_TABLE_MAX_N is derived from.
    for g, pw in [(random_graph(18, 0.9, 1), 15), (star(17), 1)]:
        tracemalloc.start()
        try:
            assert pathwidth(g)[0] == pw
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= pathwidth_live_sets(g.n) << g.n >> 3


# name in the message, solver, default cap, subset-table ceiling (None: no table)
EXACT_SOLVERS = [
    ("separator_number", separator_number, SEPARATOR_NUMBER_CAP, SEPARATOR_TABLE_MAX_N),
    ("treewidth", treewidth, TW_CAP, TW_TABLE_MAX_N),
    ("pathwidth", pathwidth, PW_CAP, PW_TABLE_MAX_N),
    ("cycle_rank", cycle_rank, RANK_CAP, RANK_TABLE_MAX_N),
    ("bandwidth", bandwidth, BW_CAP, None),
    ("separator_ranking", lambda g, **kw: separator_ranking(g, 1, **kw), MIN_SEPARATOR_CAP, None),
    ("min_balanced_separator", min_balanced_separator, MIN_SEPARATOR_CAP, None),
    ("chordal_clique_separator", chordal_clique_separator, MIN_SEPARATOR_CAP, None),
]


@pytest.mark.parametrize("name, solve, cap, ceiling", EXACT_SOLVERS,
                         ids=[row[0] for row in EXACT_SOLVERS])
def test_exact_solvers_refuse_above_their_cap_and_table_ceiling(name, solve, cap, ceiling):
    with pytest.raises(SizeLimitExceeded) as exc:
        solve(path(cap + 1))
    assert str(exc.value) == f"{name}: n = {cap + 1} > cap {cap}"
    if ceiling is not None:
        with pytest.raises(SizeLimitExceeded) as exc:
            solve(path(ceiling + 1), cap=100)
        assert str(exc.value) == (
            f"{name}: n = {ceiling + 1} > {ceiling}, the largest subset table that fits in "
            f"256 MiB; no cap raises this"
        )


def test_tw_le_pw():
    for seed in range(15):
        g = random_graph(7, 0.4, 1200 + seed)
        assert treewidth(g)[0] <= pathwidth(g)[0]


# --- bandwidth -------------------------------------------------------------------


def test_bandwidth_search_ceiling():
    # At the ceiling the search runs one frame per position inside pytest's
    # own stack; one vertex more is refused before any search, whatever the cap.
    n = BW_SEARCH_MAX_N
    assert bandwidth(path(n), cap=n) == (1, tuple(range(n)))
    with pytest.raises(SizeLimitExceeded) as exc:
        bandwidth(path(n + 1), cap=10 * n)
    assert str(exc.value) == (f"bandwidth: n = {n + 1} > {n}, the deepest layout search, "
                              f"one stack frame per position; no cap raises this")


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


# (value, layout) at the deep cap, recorded from the search that started at
# the larger of the degree and diameter bounds.
PINNED_BW = {
    "sparse": (3, (0, 5, 9, 6, 4, 13, 10, 14, 12, 11, 2, 7, 8, 1, 15, 3)),
    "mid": (8, (0, 9, 8, 5, 12, 6, 11, 14, 15, 3, 10, 4, 13, 7, 2, 1)),
    "dense": (13, (0, 4, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 15, 12, 14)),
    "Q4": (7, (0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15)),
}


@pytest.mark.parametrize(
    "name, g",
    [("sparse", random_graph(16, 0.15, 1700)), ("mid", random_graph(16, 0.5, 1701)),
     ("dense", random_graph(16, 0.85, 1702)), ("Q4", hypercube(4))],
)
def test_pinned_bandwidth_layouts_at_n16(name, g):
    assert bandwidth(g, cap=16) == PINNED_BW[name]


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


def test_verify_chain_reaches_each_traced_solver_once(monkeypatch):
    # A tracer wraps the module attributes that hold a solver and splits the
    # separator number by its `strict` flag, so each strictness and cycle rank
    # must be reached once per graph, through a module-level name.
    calls = []
    separator = separators_mod.separator_number_with_witness

    def counting(fn):
        def wrapper(*args, **kwargs):
            strict = fn is separator and kwargs.get("strict", args[1] if len(args) > 1 else False)
            calls.append((fn.__name__, strict))
            return fn(*args, **kwargs)
        return wrapper

    for fn in (separator, solvers_mod.cycle_rank):
        wrapper = counting(fn)
        for mod in (separators_mod, solvers_mod):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    verify_chain(random_graph(8, 0.5, 2400))
    assert sorted(calls) == [
        ("cycle_rank", False),
        ("separator_number_with_witness", False),
        ("separator_number_with_witness", True),
    ]


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


# Parameters that are the maximum over the connected components, so a
# disjoint union takes the larger part's value.  The separator numbers are
# left out: their balance limit counts the survivors of both parts, so the
# per-component argument does not carry over to them.
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
    # This holds for the separator numbers too, for n >= 1.  A separator X'
    # of an induced Q' still balances Q' + {isolated vertex} whenever some
    # vertex of Q' survives.  If X' = Q', the smaller set Q' minus one
    # vertex leaves two singletons, which balance even strictly.
    g = random_graph(8, 0.15 * (seed + 1), 2000 + seed)
    padded = Graph(g.n + 1, g.edges())
    names = PER_COMPONENT + ("s", "s_strict")
    assert _values(padded, names) == _values(g, names)


def test_empty_graph_bandwidth_and_separator_ranking():
    assert bandwidth(Graph(0)) == (0, ())
    assert separator_ranking(Graph(0), 1) == Ranking({})


def test_walk_back_with_no_attaining_move_is_an_invariant_violation():
    with pytest.raises(InvariantViolation) as exc:
        _walk_back(0b11, lambda s_mask, low: False)
    assert str(exc.value) == "subset table reconstruction failed"
