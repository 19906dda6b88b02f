"""Every labelled graph on a few vertices, against the brute-force oracles.

The separator number and the chordality certificates are each produced
by one search with a documented tie-breaking order; enumerating every
labelled graph small enough pins both the values and the witnesses on
all inputs of that size, not only on sampled ones.
"""

from itertools import combinations

import pytest

from widthlab import Graph, is_chordal, separator_number_with_witness
from widthlab.graph import maximal_cliques_chordal

from .conftest import oracle_is_chordal, oracle_separator_number_with_witness


def labelled_graphs(n):
    """All 2^(n choose 2) graphs on vertices 0..n-1, by edge-subset mask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def brute_force_maximal_cliques(g: Graph) -> list[int]:
    """Every clique (as a mask) that no further vertex extends to a clique."""
    clique = [True] * (1 << g.n)
    for s in range(1, 1 << g.n):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        clique[s] = clique[rest] and rest & ~g.adj_bits[v] == 0
    extends = [1 << v for v in range(g.n)]
    return [
        s
        for s in range(1, 1 << g.n)
        if clique[s] and not any(clique[s | b] for b in extends if not s & b)
    ]


@pytest.mark.parametrize("n", range(1, 6))
def test_separator_number_on_every_labelled_graph(n):
    for g in labelled_graphs(n):
        for strict in (False, True):
            value, wit = separator_number_with_witness(g, strict)
            assert (value, wit["q"], wit["x"]) == oracle_separator_number_with_witness(g, strict)


@pytest.mark.parametrize("n", range(0, 7))
def test_chordality_on_every_labelled_graph(n):
    for g in labelled_graphs(n):
        ok, cert = is_chordal(g)
        assert ok == oracle_is_chordal(g)
        if ok:
            assert sorted(cert) == list(range(n))
            assert maximal_cliques_chordal(g, cert) == brute_force_maximal_cliques(g)
            continue
        m = len(cert)
        assert m >= 4 and len(set(cert)) == m
        for i in range(m):
            for j in range(i + 1, m):
                expected = j == i + 1 or (i == 0 and j == m - 1)
                assert g.has_edge(cert[i], cert[j]) == expected
