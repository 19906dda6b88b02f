import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import (
    DomainError,
    Graph,
    InvariantViolation,
    MalformedInput,
    SizeLimitExceeded,
    complete,
    complete_binary_tree,
    components,
    hypercube,
    induced,
    is_chordal,
    parse_edge_list,
    path,
    path_power,
    random_chordal,
    random_graph,
    random_tree,
    serialize_edge_list,
    star,
)
from widthlab import graph as graph_mod
from widthlab.graph import bits_of, maximal_cliques_chordal, neighbourhood_tables

from .conftest import oracle_is_chordal


# --- generators --------------------------------------------------------------


def test_path_shapes():
    assert path(0).n == 0 and path(0).num_edges() == 0
    assert sorted(path(2).edges()) == [(0, 1)]
    assert sorted(path(5).edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_path_power_examples():
    assert sorted(path_power(5, 1).edges()) == sorted(path(5).edges())
    assert path_power(4, 3) == complete(4)
    assert sorted(path_power(5, 2).edges()) == [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
    ]
    with pytest.raises(DomainError):
        path_power(5, 0)


@pytest.mark.parametrize("k", [4, 5, 9])
def test_path_power_saturates_to_complete(k):
    assert path_power(5, k) == complete(5)


def test_hypercube():
    assert hypercube(0).n == 1
    q2 = hypercube(2)
    assert q2.n == 4 and q2.num_edges() == 4
    assert sorted(d for d in (q2.degree(v) for v in range(4))) == [2, 2, 2, 2]
    q3 = hypercube(3)
    assert q3.n == 8 and q3.num_edges() == 3 * 2**2
    assert all(q3.degree(v) == 3 for v in range(8))


def test_star_complete_cbt():
    s3 = star(3)
    assert s3.n == 4 and s3.adj_bits[0] == 0b1110
    assert complete(3).num_edges() == 3
    t = complete_binary_tree(3)
    assert t.n == 7 and t.num_edges() == 6
    assert len(components(t)) == 1  # a tree: connected with n-1 edges


def test_generator_caps():
    with pytest.raises(SizeLimitExceeded):
        path(2**16 + 1)
    with pytest.raises(SizeLimitExceeded):
        hypercube(17)
    with pytest.raises(SizeLimitExceeded):
        complete_binary_tree(17)
    with pytest.raises(SizeLimitExceeded):
        star(2**16)


def test_dimension_16_is_accepted(monkeypatch):
    # A stand-in Graph that only records n, so the 2^16-vertex graphs are not built.
    monkeypatch.setattr(graph_mod, "Graph", lambda n, edges=(): n)
    assert hypercube(16) == 2**16
    assert complete_binary_tree(16) == 2**16 - 1
    assert star(2**16 - 1) == 2**16


def test_generator_refuses_a_number_past_the_digit_limit():
    with pytest.raises(SizeLimitExceeded, match="16610-bit number"):
        path(10**5000)


@pytest.mark.parametrize("make, message", [
    (lambda: path(-1), "n must be nonnegative"),
    (lambda: star(-1), "leaf count must be nonnegative"),
    (lambda: hypercube(-1), "dimension must be nonnegative"),
    (lambda: random_tree(-2, 0), "n must be nonnegative"),
])
def test_generators_refuse_negative_arguments(make, message):
    with pytest.raises(DomainError, match=message):
        make()


@pytest.mark.parametrize("n, edges, message", [
    (-1, (), "vertex count must be nonnegative, got -1"),
    (3, [(0, 3)], r"edge \(0,3\) has endpoint outside 0..2"),
    (3, [(1, 1)], "self-loop at vertex 1"),
])
def test_graph_refuses_bad_arguments(n, edges, message):
    with pytest.raises(DomainError, match=message):
        Graph(n, edges)


def test_random_graph_extremes():
    assert random_graph(5, 0.0, 3).num_edges() == 0
    assert random_graph(5, 1.0, 3) == complete(5)
    assert random_graph(6, 0.5, 42) == random_graph(6, 0.5, 42)
    assert random_graph(6, 0.5, 42) != random_graph(6, 0.5, 43)


@given(st.integers(0, 30), st.integers(0, 2**63))
@settings(max_examples=40, deadline=None)
def test_random_tree_is_tree(n, seed):
    t = random_tree(n, seed)
    assert t.n == n
    if n > 0:
        assert t.num_edges() == n - 1
        assert len(components(t)) == 1


@given(st.integers(1, 16), st.integers(1, 4), st.integers(0, 2**63))
@settings(max_examples=40, deadline=None)
def test_random_chordal_is_chordal_with_known_clique(n, width, seed):
    g = random_chordal(n, width, seed)
    ok, peo = is_chordal(g)
    assert ok
    omega = max(m.bit_count() for m in maximal_cliques_chordal(g, peo))
    assert omega == min(n, width + 1)


@given(st.integers(0, 12), st.floats(0, 1), st.integers(0, 2**63))
@settings(max_examples=60, deadline=None)
def test_generator_invariants(n, p, seed):
    g = random_graph(n, p, seed)
    for v in range(g.n):
        assert not (g.adj_bits[v] >> v) & 1
        assert g.adj_bits[v] >> g.n == 0
        for u in range(g.n):
            assert (g.adj_bits[v] >> u) & 1 == (g.adj_bits[u] >> v) & 1


# --- neighbourhood tables -----------------------------------------------------


def _lookup(g, s_mask):
    w, lo, hi = neighbourhood_tables(g)
    return lo[s_mask & (1 << w) - 1] | hi[s_mask >> w]


def _union_of_neighbourhoods(g, s_mask):
    out = 0
    for v in bits_of(s_mask):
        out |= g.adj_bits[v]
    return out


@pytest.mark.parametrize("n", range(13))
def test_neighbourhood_tables_every_subset(n):
    # Every odd n leaves a short second table.
    g = random_graph(n, (0.1, 0.3, 0.5, 0.7, 0.9)[n % 5], 3100 + n)
    for s_mask in range(1 << n):
        assert _lookup(g, s_mask) == _union_of_neighbourhoods(g, s_mask)


@pytest.mark.parametrize("n", [19, 20, 27, 28])
def test_neighbourhood_tables_random_subsets(n):
    g = random_graph(n, 0.3, 3200 + n)
    rng = random.Random(n)
    for _ in range(500):
        s_mask = rng.getrandbits(n)
        assert _lookup(g, s_mask) == _union_of_neighbourhoods(g, s_mask)


def test_neighbourhood_tables_are_built_once_and_ignored_by_equality():
    g, h = random_graph(9, 0.4, 3300), random_graph(9, 0.4, 3300)
    tables = neighbourhood_tables(g)
    assert neighbourhood_tables(g) is tables
    assert g == h and hash(g) == hash(h)
    assert {g: 1}[h] == 1


# --- components / induced -----------------------------------------------------


def test_components_examples():
    assert components(path(4)) == [(0, 1, 2, 3)]
    assert components(Graph(3)) == [(0,), (1,), (2,)]
    sub, _ = induced(path(5), [0, 1, 3, 4])
    assert components(sub) == [(0, 1), (2, 3)]


def test_components_partition_properties():
    g = random_graph(10, 0.25, 9)
    parts = components(g)
    seen = [v for part in parts for v in part]
    assert sorted(seen) == list(range(10))
    for a, b in combinations(parts, 2):
        assert not set(a) & set(b)
        assert not any(g.has_edge(u, v) for u in a for v in b)


def test_induced_examples():
    g = complete(4)
    sub, mapping = induced(g, range(4))
    assert sub == g and mapping == (0, 1, 2, 3)
    sub, mapping = induced(g, [1, 3])
    assert sub.n == 2 and sub.num_edges() == 1 and mapping == (1, 3)
    facet, _ = induced(hypercube(3), [0, 1, 2, 3])
    assert facet == hypercube(2)
    with pytest.raises(DomainError):
        induced(g, [0, 7])


def test_induced_preserves_adjacency():
    g = random_graph(9, 0.4, 17)
    keep = [0, 2, 3, 6, 8]
    sub, mapping = induced(g, keep)
    for i in range(sub.n):
        for j in range(sub.n):
            if i != j:
                assert sub.has_edge(i, j) == g.has_edge(mapping[i], mapping[j])


# --- chordality ----------------------------------------------------------------


def test_is_chordal_examples():
    ok, peo = is_chordal(complete(4))
    assert ok and sorted(peo) == [0, 1, 2, 3]
    ok, hole = is_chordal(hypercube(2))
    assert not ok
    assert len(hole) == 4
    ok, _ = is_chordal(random_chordal(10, 3, 11))
    assert ok


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_is_chordal_returns_a_perfect_elimination_ordering(width):
    assert is_chordal(Graph(0)) == (True, ())
    for seed in range(10):
        g = random_chordal(14, width, 4100 + seed)
        ok, peo = is_chordal(g)
        assert ok and sorted(peo) == list(range(g.n))
        for i, v in enumerate(peo):
            later = [u for u in peo[i + 1 :] if g.has_edge(u, v)]
            assert all(g.has_edge(a, b) for a, b in combinations(later, 2))


def test_hole_follows_ascending_id_order():
    # The shortest path that closes the hole takes the smallest-id
    # neighbor first; an order other than ascending ids gave (3, 6, 8, 5, 9)
    # on this graph.
    edges = "0-4 1-3 1-9 2-5 3-6 3-9 4-7 5-7 5-8 5-9 5-10 6-7 6-8 7-8 8-10"
    g = Graph(11, [tuple(map(int, e.split("-"))) for e in edges.split()])
    assert is_chordal(g) == (False, (3, 6, 7, 5, 9))


def test_hole_witness_is_induced_cycle():
    for seed in range(12):
        g = random_graph(9, 0.35, seed)
        ok, witness = is_chordal(g)
        if ok:
            continue
        hole = list(witness)
        assert len(hole) >= 4
        m = len(hole)
        for i in range(m):
            for j in range(i + 1, m):
                expected = (j - i) % m in (1, m - 1)
                assert g.has_edge(hole[i], hole[j]) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_chordality_matches_oracle_on_random(n):
    for seed in range(10):
        g = random_graph(n, 0.5, 100 + seed)
        assert is_chordal(g)[0] == oracle_is_chordal(g)


def test_trees_and_long_cycles():
    for n in (2, 5, 9):
        assert is_chordal(random_tree(n, n))[0]
    for length in (4, 5, 6, 7):
        cyc = Graph(length, [(i, (i + 1) % length) for i in range(length)])
        ok, hole = is_chordal(cyc)
        assert not ok and len(hole) == length


# --- edge-list I/O ---------------------------------------------------------------


def test_parse_simple():
    g = parse_edge_list("2 1\n0 1\n")
    assert g.n == 2 and g.num_edges() == 1


def test_parse_comments_and_roundtrip():
    text = "# a comment\n3 2\n0 1\n1 2\n"
    g = parse_edge_list(text)
    canonical = serialize_edge_list(g)
    assert canonical == "3 2\n0 1\n1 2\n"
    assert serialize_edge_list(parse_edge_list(canonical)) == canonical


@pytest.mark.parametrize(
    "text,line",
    [
        ("3 1\n0 3\n", 2),          # id out of range
        ("3 1\n1 0\n", 2),     
        ("3 2\n0 1\n0 1\n", 3),     # duplicate edge
        ("3 2\n0 1\n", 1),          # fewer edges than promised
        ("3 1\n0 1\n1 2\n", 3),     # more edges than promised
        ("x y\n", 1),               # garbage header
        ("", 1),                    # empty input
        ("2 1\n0 1", 2),            # missing final newline
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(MalformedInput) as err:
        parse_edge_list(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text",
    [
        "3 1\n0 " + "9" * 4000 + "\n",
        "3 1\n" + "9" * 4000 + " 1\n",
        "3 " + "9" * 4000 + "\n0 1\n",
        "9" * 4000 + " 1\n",
    ],
    ids=["id-range", "u-ge-v", "edge-count", "vertex-cap"],
)
def test_parse_error_messages_are_bounded(text):
    with pytest.raises((MalformedInput, SizeLimitExceeded)) as err:
        parse_edge_list(text)
    assert len(str(err.value)) < 200


def test_parse_error_quotes_long_line_with_its_length():
    # 5,000 digits is past Python's int digit limit
    with pytest.raises(MalformedInput) as err:
        parse_edge_list("0" * 5000 + "\n")
    quoted = f"{'0' * 60!r}... (5000 characters)"
    assert str(err.value) == f"line 1: expected two integers, got {quoted}"


@given(st.integers(0, 12), st.floats(0, 1), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_serialize_parse_roundtrip(n, p, seed):
    g = random_graph(n, p, seed)
    assert parse_edge_list(serialize_edge_list(g)) == g


@pytest.mark.parametrize("make, counts", [
    (lambda n, k: path_power(n, k), lambda n, k: path_power(n, k).num_edges()),
    (lambda n, k: complete(n), lambda n, k: complete(n).num_edges()),
    # one draw per pair, so an edgeless draw counts every pair
    (lambda n, k: random_graph(n, 0.0, 1), lambda n, k: complete(n).num_edges()),
], ids=["path_power", "complete", "random"])
def test_generator_work_bound_is_exact(monkeypatch, make, counts):
    # Refused exactly when the edges emitted (or pairs drawn) pass the bound.
    work = {(n, k): counts(n, k) for n in range(9) for k in range(1, 10)}
    monkeypatch.setattr(graph_mod, "GENERATOR_WORK_CAP", 10)
    for (n, k), count in work.items():
        if count > 10:
            with pytest.raises(SizeLimitExceeded) as exc:
                make(n, k)
            assert str(exc.value).endswith(f" count = {count} > 10")
        else:
            make(n, k)


def test_random_chordal_work_bound_counts_its_clique_list(monkeypatch):
    # k + 1 cliques of k vertices, then k more per added vertex: 2 * (3 + 2 * 2) = 14 at n = 5.
    monkeypatch.setattr(graph_mod, "GENERATOR_WORK_CAP", 14)
    assert random_chordal(5, 2, 1).num_edges() == 7
    with pytest.raises(SizeLimitExceeded) as exc:
        random_chordal(6, 2, 1)
    assert str(exc.value) == "generator refuses clique-list size = 18 > 14"
    assert random_chordal(5, 4, 1) == complete(5)  # n <= width + 1: no clique list


def test_find_hole_on_a_chordal_graph_is_an_invariant_violation():
    with pytest.raises(InvariantViolation):
        graph_mod._find_hole(complete(4))
