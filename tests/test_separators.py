import hashlib
import json
import random
import tracemalloc
from itertools import combinations

import pytest

from widthlab import (
    DomainError,
    Graph,
    InvalidSeparator,
    InvariantViolation,
    NotChordal,
    SizeLimitExceeded,
    check_separator,
    chordal_clique_separator,
    complete,
    hypercube,
    min_balanced_separator,
    pad_separator,
    path,
    random_chordal,
    random_graph,
    separator_number,
    separator_number_with_witness,
    separator_ranking,
    star,
    treewidth,
)
from widthlab import separators as separators_mod
from widthlab.graph import bits_of, component_masks, maximal_cliques_chordal
from widthlab.lattice import members, up1
from widthlab.separators import (
    SEPARATOR_TABLE_MAX_N,
    SUBSET_TABLE_BUDGET,
    _balanced,
    _balanced_sets,
    min_balanced_separator_mask,
    separator_live_sets,
)

from .conftest import _adj_sets, _mask_order
from .conftest import _balanced as oracle_balanced
from .conftest import (
    oracle_max_balanced_subset_table,
    oracle_min_balanced_separator,
    oracle_min_balanced_separator_witness,
    oracle_separator_number,
    oracle_separator_number_with_witness,
)


def test_check_separator_hand_traces():
    cert = check_separator(path(5), [2])
    assert cert.component_sizes == (2, 2)
    assert cert.balanced and cert.strictly_balanced
    cert = check_separator(path(3), [0, 2])
    assert cert.component_sizes == (1,)
    assert cert.balanced and not cert.strictly_balanced
    cert = check_separator(complete(5), [])
    assert not cert.balanced
    with pytest.raises(DomainError):
        check_separator(path(3), [5])


def test_certificate_json_schema():
    cert = check_separator(path(5), [2])
    assert cert.to_json_dict() == {
        "x": [2],
        "component_sizes": [2, 2],
        "balanced": True,
        "strictly_balanced": True,
    }


def test_strict_implies_balanced_on_samples():
    for seed in range(20):
        g = random_graph(7, 0.4, seed)
        for size in range(4):
            for x in combinations(range(7), size):
                cert = check_separator(g, x)
                if cert.strictly_balanced:
                    assert cert.balanced


def test_min_balanced_separator_examples():
    assert min_balanced_separator(complete(5)) == (4, (0, 1, 2, 3))
    assert min_balanced_separator(path(4)) == (1, (1,))
    assert min_balanced_separator(path(1)) == (0, ())
    assert min_balanced_separator(path(1), strict=True) == (1, (0,))
    with pytest.raises(SizeLimitExceeded):
        min_balanced_separator(random_graph(21, 0.2, 1))


@pytest.mark.parametrize("strict", [False, True])
def test_min_separator_matches_oracle(strict):
    for seed in range(25):
        g = random_graph(7, 0.35, 50 + seed)
        size, witness = min_balanced_separator(g, strict=strict)
        assert size == oracle_min_balanced_separator(g, strict)
        cert = check_separator(g, witness)
        assert cert.strictly_balanced if strict else cert.balanced


def test_pad_separator():
    assert pad_separator(path(5), [2]) == (0, 2)
    assert pad_separator(Graph(3), []) == (0,)
    with pytest.raises(InvalidSeparator):
        pad_separator(complete(5), [0])  # not balanced
    with pytest.raises(DomainError):
        pad_separator(path(2), [0, 1])  # nothing left to add


def test_pad_iterates_to_full_size():
    for seed in range(15):
        g = random_graph(8, 0.3, 200 + seed)
        _, x = min_balanced_separator(g)
        x = list(x)
        while len(x) < g.n - 1:
            x = list(pad_separator(g, x))  # raises if balance is ever lost
        assert len(x) == g.n - 1


def test_separator_number_examples():
    assert separator_number(complete(5)) == 4
    assert separator_number(path(8)) == 1
    assert separator_number(path(8), strict=True) == 2
    assert separator_number(Graph(0)) == 0
    assert separator_number(Graph(1)) == 0
    assert separator_number(Graph(1), strict=True) == 1
    with pytest.raises(SizeLimitExceeded):
        separator_number(random_graph(13, 0.5, 1))


@pytest.mark.parametrize("strict", [False, True])
def test_separator_number_matches_bruteforce(strict):
    for seed in range(12):
        g = random_graph(6, 0.45, 300 + seed)
        assert separator_number(g, strict=strict) == oracle_separator_number(g, strict)


def test_separator_number_witness_is_consistent():
    g = random_graph(8, 0.5, 77)
    value, wit = separator_number_with_witness(g)
    from widthlab import induced

    sub, mapping = induced(g, wit["q"])
    size, _ = min_balanced_separator(sub)
    assert size == value
    assert set(wit["x"]) <= set(wit["q"])


def test_strict_gap_property():
    for seed in range(20):
        g = random_graph(8, 0.4, 400 + seed)
        s = separator_number(g)
        st = separator_number(g, strict=True)
        assert s <= st <= s + 1


def test_path3_strict_counterexample_exhaustive():
    g = path(3)
    size1 = [x for x in combinations(range(3), 1)
             if check_separator(g, x).strictly_balanced]
    size2 = [x for x in combinations(range(3), 2)
             if check_separator(g, x).strictly_balanced]
    assert size1 == [(1,)]
    assert size2 == []


def test_jordan_trees():
    from widthlab import random_tree

    for seed in range(15):
        t = random_tree(2 + seed % 9, 500 + seed)
        assert separator_number(t) == 1


def test_chordal_clique_separator_examples():
    clique, cert = chordal_clique_separator(complete(5))
    assert len(clique) == 4 and cert.balanced
    clique, cert = chordal_clique_separator(star(4))
    assert clique == (0,) and cert.component_sizes == (1, 1, 1, 1)
    clique, cert = chordal_clique_separator(path(5))
    assert clique == (2,)
    clique, cert = chordal_clique_separator(path(1))
    assert clique == () and cert.balanced
    with pytest.raises(NotChordal):
        chordal_clique_separator(hypercube(2))
    with pytest.raises(DomainError):
        chordal_clique_separator(Graph(0))


def test_chordal_clique_separator_guarantees_when_it_returns():
    hits = 0
    for seed in range(60):
        g = random_chordal(10, 3, 600 + seed)
        try:
            clique, cert = chordal_clique_separator(g)
        except InvariantViolation:
            continue  # documented counterexamples exist; see the regression test
        hits += 1
        omega = max(m.bit_count() for m in maximal_cliques_chordal(g))
        assert cert.balanced
        assert len(clique) <= omega - 1
        assert all(g.has_edge(u, v) for u in clique for v in clique if u < v)
    assert hits > 40  # the guarantee does hold on the bulk of the family


def test_clique_separator_counterexample_regression():
    """The minimal chordal graph where no small clique is balanced.

    Exhaustive search over every chordal graph with at most 6 vertices
    found this one (and its relatives): omega = 3, yet none of the
    cliques of order <= 2 (empty set, 6 singletons, 9 edges) meets the
    balance threshold.  n <= 5 admits no such graph.  The solver must
    refuse loudly instead of returning an oversized or unbalanced set.
    """
    edges = [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5),
             (2, 3), (2, 4)]
    g = Graph(6, edges)
    from widthlab import is_chordal

    assert is_chordal(g)[0]
    candidates = [()] + [(v,) for v in range(6)] + sorted(g.edges())
    balanced = [c for c in candidates if check_separator(g, c).balanced]
    assert balanced == []
    with pytest.raises(InvariantViolation):
        chordal_clique_separator(g)


def test_min_separator_can_exceed_treewidth():
    """The hypercube refutes `every graph has a balanced separator of
    size <= treewidth`: Q3 has treewidth 3 and smallest balanced
    separator 4 (verified against the exhaustive oracle)."""
    q3 = hypercube(3)
    size, _ = min_balanced_separator(q3)
    assert size == oracle_min_balanced_separator(q3) == 4
    assert treewidth(q3)[0] == 3
    assert separator_number(q3) == 4


def test_separator_table_refused_above_its_ceiling():
    # Refused before the 2^n table is allocated, whatever the cap.
    for strict in (False, True):
        with pytest.raises(SizeLimitExceeded, match="no cap raises"):
            separator_number(path(SEPARATOR_TABLE_MAX_N + 1), strict=strict, cap=100)
    # The lattice sets one pass holds at once, 2^n bits each, fit the budget
    # at the ceiling and not above it.
    def lattice_bytes(n):
        return separator_live_sets(n) << n >> 3
    assert lattice_bytes(SEPARATOR_TABLE_MAX_N) <= SUBSET_TABLE_BUDGET < lattice_bytes(SEPARATOR_TABLE_MAX_N + 1)


DENSITY_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


# --- the balance test and the lattice pass against the oracles --------------------

BALANCE_GRAPHS = [random_graph(n, p, 2800 + n) for n in (5, 7, 9) for p in DENSITY_LADDER[::2]]
BALANCE_GRAPHS += [
    Graph(0),
    Graph(1),
    Graph(8),
    Graph(9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8)]),
    star(8),
    hypercube(3),
]
# n = 11, sparse (its hardest subgraph is proper) and dense, near the n = 10-12 the benchmark runs.
BALANCE_GRAPHS += [random_graph(11, p, 2811) for p in (0.3, 0.7)]


def _needs(g, strict):
    """need[S], the fewest vertices whose removal balances S, read off the
    D_k of the lattice pass: S is outside D_k for every k < need[S]."""
    p = members(g.n)
    everything = (1 << (1 << g.n)) - 1
    levels = [_balanced_sets(g, strict, p)]
    while levels[-1] != everything:
        levels.append(levels[-1] | up1(levels[-1], p))
    return [sum(not d >> s_mask & 1 for d in levels) for s_mask in range(1 << g.n)]


def assert_lattice_needs_match(g):
    """need[S] = |S| - f[S] for the oracle's largest balanced subset f, in
    both strictnesses, and the strict need is the other or one more."""
    needs = {}
    for strict in (False, True):
        f = oracle_max_balanced_subset_table(g, strict)
        needs[strict] = _needs(g, strict)
        assert needs[strict] == [s_mask.bit_count() - f[s_mask] for s_mask in range(1 << g.n)]
    assert all(loose <= strict <= loose + 1 for loose, strict in zip(needs[False], needs[True]))


@pytest.mark.parametrize("i", range(len(BALANCE_GRAPHS)))
def test_balance_kernel_matches_oracle(i):
    g = BALANCE_GRAPHS[i]
    adj = _adj_sets(g)
    for strict in (False, True):
        balanced = _balanced_sets(g, strict, members(g.n))
        for s_mask in range(1 << g.n):
            verdict = oracle_balanced(adj, bits_of(s_mask), (), strict)
            assert _balanced(g, s_mask, strict) == verdict
            assert balanced >> s_mask & 1 == verdict
    assert_lattice_needs_match(g)


@pytest.mark.parametrize("n", range(13))
def test_paired_fill_matches_single_fills_on_the_density_ladder(n):
    # Both strictnesses' needs against the oracle, each from its own pass.
    for p in DENSITY_LADDER:
        assert_lattice_needs_match(random_graph(n, p, 3200 + n))


def _first_hardest_by_scan(g, f):
    """The first maximiser of |Q| - f[Q] in decreasing |Q|, then
    ascending mask, by a scan over every subset."""
    best, best_q = -1, 0
    for size in range(g.n, -1, -1):
        for q in _mask_order(range(g.n), size):
            q_mask = sum(1 << v for v in q)
            if size - f[q_mask] > best:
                best, best_q = size - f[q_mask], q_mask
    return best_q


@pytest.mark.parametrize("i", range(len(BALANCE_GRAPHS)))
def test_fill_records_the_first_hardest_subgraph(i):
    # Q of the lattice pass against a scan over the oracle's f.
    g = BALANCE_GRAPHS[i]
    for strict in (False, True):
        f = oracle_max_balanced_subset_table(g, strict)
        _, wit = separator_number_with_witness(g, strict)
        assert sum(1 << v for v in wit["q"]) == _first_hardest_by_scan(g, f)


def test_hardest_subgraph_when_every_set_balances_or_only_singletons_fail():
    assert separator_number_with_witness(Graph(3), False) == (0, {"q": [0, 1, 2], "x": []})
    assert separator_number_with_witness(Graph(3), True) == (1, {"q": [0], "x": [0]})


# --- witnesses pinned to the documented first-hit order ---------------------------

WITNESS_GRAPHS = [random_graph(n, p, 2700 + n) for p in DENSITY_LADDER for n in range(1, 9)]
WITNESS_GRAPHS += [Graph(0), hypercube(3), star(6), path(8), complete(6)]


@pytest.mark.parametrize("strict", [False, True])
def test_separator_witnesses_are_first_hits(strict):
    for g in WITNESS_GRAPHS:
        assert min_balanced_separator(g, strict=strict) == oracle_min_balanced_separator_witness(
            g, strict=strict
        )
        value, wit = separator_number_with_witness(g, strict=strict)
        assert (value, wit["q"], wit["x"]) == oracle_separator_number_with_witness(g, strict)


@pytest.mark.parametrize("strict", [False, True])
def test_separator_witnesses_on_proper_universes_are_first_hits(strict):
    """The separator ranking searches inside components, not the whole
    vertex set: check random sub-universes and the components left after
    the first-hit separator of the full graph."""
    rng = random.Random(2900)
    for g in WITNESS_GRAPHS:
        universes = [rng.getrandbits(g.n) for _ in range(4)]
        _, x_mask = min_balanced_separator_mask(g, g.full_mask, strict)
        universes += component_masks(g, g.full_mask & ~x_mask)
        for universe in universes:
            size, x_mask = min_balanced_separator_mask(g, universe, strict)
            assert (size, bits_of(x_mask)) == oracle_min_balanced_separator_witness(
                g, bits_of(universe), strict
            )


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", range(9, 13))
def test_pruned_search_matches_oracle_on_the_density_ladder(n, strict):
    """The pruned search returns the oracle's first hit on the empty, the
    full and seeded random universes."""
    rng = random.Random(3100 + 2 * n + strict)
    for p in DENSITY_LADDER:
        g = random_graph(n, p, 3100 + n)
        universes = [0, g.full_mask] + [rng.getrandbits(n) for _ in range(3)]
        for universe in universes:
            size, x_mask = min_balanced_separator_mask(g, universe, strict)
            assert (size, bits_of(x_mask)) == oracle_min_balanced_separator_witness(
                g, bits_of(universe), strict
            )


def test_separator_search_builds_no_tables():
    g = random_graph(14, 0.3, 3150)
    for strict in (False, True):
        min_balanced_separator(g, strict=strict)
    separator_ranking(g, 5)
    assert g._neighbourhood_tables is None


def test_separator_number_builds_no_byte_tables():
    g = random_graph(12, 0.5, 3160)
    for strict in (False, True):
        separator_number_with_witness(g, strict=strict)
    assert g._neighbourhood_tables is None


@pytest.mark.parametrize("strict", [False, True])
def test_separator_number_memory_within_its_live_sets(strict):
    # At a raised cap, the pass peaks within the live-set count that the
    # ceiling SEPARATOR_TABLE_MAX_N is derived from.
    n = 18
    g = random_graph(n, 0.3, 7)
    tracemalloc.start()
    try:
        separator_number_with_witness(g, strict=strict, cap=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= separator_live_sets(n) << n >> 3


def test_separator_search_has_no_table_ceiling():
    # A raised cap reaches n far above SEPARATOR_TABLE_MAX_N.
    g = path(100)
    assert min_balanced_separator(g, cap=100) == (1, (49,))
    assert g._neighbourhood_tables is None


# Witnesses recorded before the balance test was rewritten; both graphs are
# benchmark inputs.
PINNED_RANKING_LEVELS = {
    6: [7, 13, 6, 7, 5, 12, 4, 3, 7, 11, 10, 9, 6, 5, 4, 3, 7, 2, 2, 8],
    8: [14, 13, 6, 6, 5, 12, 4, 3, 11, 10, 9, 8, 6, 5, 4, 3, 6, 2, 2, 7],
}
# Recorded before the separator search became a pruned depth-first search.
PINNED_RANKING_LEVELS_SECOND = {
    6: [13, 12, 7, 6, 5, 4, 7, 11, 10, 6, 9, 5, 4, 3, 8, 3, 2, 1, 2, 1],
    8: [14, 13, 12, 6, 5, 4, 11, 10, 9, 6, 8, 5, 4, 3, 7, 3, 2, 1, 2, 1],
}


def test_pinned_separator_witnesses():
    g = random_graph(12, 0.3, 7)
    assert separator_number_with_witness(g) == (
        3, {"q": [0, 1, 2, 3, 4, 5, 6, 8, 9, 11], "x": [0, 2, 4]}
    )
    assert separator_number_with_witness(g, strict=True) == (
        3, {"q": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11], "x": [0, 2, 4]}
    )
    g = random_graph(20, 0.3, 7)
    for strict in (False, True):
        assert min_balanced_separator(g, strict=strict) == (6, (1, 5, 9, 10, 11, 19))
    for k, levels in PINNED_RANKING_LEVELS.items():
        ranking = separator_ranking(g, k)
        assert [ranking.level[v] for v in range(g.n)] == levels
    g = random_graph(20, 0.25, 8)
    for strict in (False, True):
        assert min_balanced_separator(g, strict=strict) == (6, (0, 1, 7, 8, 10, 14))
    for k, levels in PINNED_RANKING_LEVELS_SECOND.items():
        ranking = separator_ranking(g, k)
        assert [ranking.level[v] for v in range(g.n)] == levels


def test_separator_witness_is_rechecked_without_tables(monkeypatch):
    # X is read off the lattice set of balanced sets; a balance walk that
    # rejects it must stop the call.
    monkeypatch.setattr(separators_mod, "_balanced", lambda g, survivors, strict: False)
    for strict in (False, True):
        with pytest.raises(InvariantViolation):
            separator_number_with_witness(path(5), strict=strict)


def test_unbalanced_universe_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(separators_mod, "_balanced", lambda g, survivors, strict: False)
    with pytest.raises(InvariantViolation) as exc:
        separators_mod.min_balanced_separator_mask(path(3), 0b111, strict=False)
    assert str(exc.value) == "X = universe always balances; unreachable"


# --- (s, Q, X) of every benchmark separator input, pinned ----------------------------


def _subset_dp_separator_graphs(seed=1):
    """The 40 `random_graph(12, p)` graphs the `subset_dp` benchmark runs
    separator numbers on: its rng first shuffles the relabellings of the
    four n = 16, 16, 18 and 16 width-DP graphs, then draws one seed each."""
    rng = random.Random(seed)
    for n in (16, 16, 18, 16):
        rng.shuffle(list(range(n)))
    return [random_graph(12, DENSITY_LADDER[i % len(DENSITY_LADDER)], rng.getrandbits(63))
            for i in range(40)]


def _acceptance_5_graphs():
    from widthlab.corpus import named_families, random_corpus, tree_corpus

    return [g for _, g in random_corpus(200, 10, 1) + tree_corpus(100, 12, 2) + named_families()]


def _separator_digest(graphs):
    """sha256 of the (s, Q, X) list, non-strict then strict per graph."""
    rows = []
    for g in graphs:
        for strict in (False, True):
            value, wit = separator_number_with_witness(g, strict=strict)
            rows.append([value, wit["q"], wit["x"]])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# Recorded from the byte-table fills, before the lattice rewrite.
SEPARATOR_DIGESTS = {
    "acceptance-5": (_acceptance_5_graphs, 328,
                     "01b16a17e34bcdd725f58528dffc52c8873cd8fcbae89c85535a6f237ad1afa8"),
    "subset_dp seed 1": (_subset_dp_separator_graphs, 40,
                         "1f1cb523707e374ce1a5c791691c349dddaa680f0054c7511edb33f90ea9f151"),
}


@pytest.mark.parametrize("name", sorted(SEPARATOR_DIGESTS))
def test_pinned_separator_witness_digests(name):
    make, count, digest = SEPARATOR_DIGESTS[name]
    graphs = make()
    assert len(graphs) == count
    assert _separator_digest(graphs) == digest
