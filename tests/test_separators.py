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
    star,
    treewidth,
)
from widthlab.graph import maximal_cliques_chordal
from widthlab.separators import SEPARATOR_TABLE_MAX_N, SUBSET_TABLE_BUDGET

from .conftest import oracle_min_balanced_separator, oracle_separator_number


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
    # One table byte and one _BalanceCache entry: about 82 bytes per subset.
    assert 82 << SEPARATOR_TABLE_MAX_N <= SUBSET_TABLE_BUDGET < 82 << (SEPARATOR_TABLE_MAX_N + 1)
