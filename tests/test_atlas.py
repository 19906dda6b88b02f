"""Census of every graph with at most 7 vertices, against the DP oracles.

The Atlas of Graphs (Read & Wilson, 1998) lists all 1,253 graphs with
0-7 vertices up to isomorphism; `atlas.txt` holds them in atlas order
(`make_atlas.py` rebuilds it).  Every solver is compared with the
conftest oracles on the 1,251 atlas graphs with n >= 2, values and
witnesses both, and the chain verdicts over the whole atlas are pinned
as a finding.
"""

import hashlib
import json
import random
import re
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from widthlab import (
    Graph,
    bandwidth,
    chordal_clique_separator,
    cycle_rank,
    is_chordal,
    is_valid_ranking,
    parse_edge_list,
    pathwidth,
    separator_number,
    separator_number_with_witness,
    separator_ranking,
    treewidth,
    verify_chain,
)
from widthlab.closed_forms import R_rec
from widthlab.errors import InvariantViolation
from widthlab.solvers import PARAMS

from .conftest import (
    _adj_sets,
    _balanced,
    _components,
    oracle_bandwidth,
    oracle_cycle_rank_dp,
    oracle_pathwidth_dp,
    oracle_separator_number_with_witness,
    oracle_treewidth_dp,
)
from .test_separators import assert_lattice_needs_match

# sha256 of the JSON list of [atlas index, k, levels of vertices 0..n-1]
# over every separator ranking of `test_separator_ranking_on_the_atlas`.
RANKING_LEVELS_SHA256 = "1bf60e033a63513b009cbc7648e17e8dd8265a29b89dd9f18cc214758f15257f"


def _read_atlas():
    text = Path(__file__).with_name("atlas.txt").read_text()
    return [parse_edge_list(chunk) for chunk in re.split(r"^# G\d+\n", text, flags=re.M)[1:]]


ATLAS = _read_atlas()
# (atlas index, graph) for every graph the chain is defined on
CENSUS = [(i, g) for i, g in enumerate(ATLAS) if g.n >= 2]


@pytest.fixture(scope="module")
def reports():
    return [verify_chain(g) for _, g in CENSUS]


def test_values_survive_relabelling_on_the_atlas(reports):
    """s, s~, tw, pw, bw and r of each atlas graph under a seeded vertex
    permutation; witnesses move with the labels, so only values are compared."""
    for (i, g), report in zip(CENSUS, reports):
        perm = list(range(g.n))
        random.Random(i).shuffle(perm)
        relabelled = verify_chain(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
        assert [getattr(relabelled, p) for p in PARAMS] == [getattr(report, p) for p in PARAMS], i


def test_atlas_fixture_is_the_atlas():
    assert len(ATLAS) == 1253
    assert Counter(g.n for g in ATLAS) == {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    assert len(set(ATLAS)) == 1253


@pytest.mark.parametrize("strict", [False, True])
def test_separator_number_on_the_atlas(strict):
    for _, g in CENSUS:
        value, wit = separator_number_with_witness(g, strict)
        assert (value, wit["q"], wit["x"]) == oracle_separator_number_with_witness(g, strict)


def test_paired_separator_fill_on_the_atlas():
    # Both strictnesses' needs from the lattice passes against the oracle.
    for g in ATLAS:
        assert_lattice_needs_match(g)


def test_strict_separator_number_is_s_or_s_plus_one(random_graphs_200, trees_100, named_small):
    """Finding: s <= s~ <= s + 1.  A set balanced under the ceiling limit
    but not the floor has one component of (|T| + 1)/2 vertices, and
    dropping any vertex of it leaves a floor-balanced set, so every
    induced subgraph needs at most one more vertex under the floor.  Both
    gaps occur on the atlas and the acceptance-5 corpus."""
    graphs = ATLAS + [g for _, g in random_graphs_200 + trees_100 + named_small]
    gaps = Counter(separator_number(g, strict=True) - separator_number(g) for g in graphs)
    assert gaps == {0: 332, 1: 1249}


def test_treewidth_pathwidth_cycle_rank_on_the_atlas():
    for _, g in CENSUS:
        assert treewidth(g) == oracle_treewidth_dp(g)
        assert pathwidth(g) == oracle_pathwidth_dp(g)
        value, ranking = cycle_rank(g)
        assert (value, ranking.level) == oracle_cycle_rank_dp(g)


def test_bandwidth_on_the_atlas_up_to_6_vertices():
    for _, g in CENSUS:
        if g.n <= 6:
            assert bandwidth(g) == oracle_bandwidth(g)


def test_separator_ranking_on_the_atlas():
    pinned = []
    for i, g in CENSUS:
        s, _ = separator_number_with_witness(g)
        for k in range(max(s, 1), g.n + 1):
            ranking = separator_ranking(g, k)
            assert is_valid_ranking(g, ranking) == (True, None)
            assert ranking.height <= R_rec(k, g.n)
            pinned.append([i, k, [ranking.level[v] for v in range(g.n)]])
    assert len(pinned) == 6429
    digest = hashlib.sha256(json.dumps(pinned).encode()).hexdigest()
    assert digest == RANKING_LEVELS_SHA256


def brute_force_clique_separator(g):
    """Minimum (largest component of G - C, |C|, mask) over the balanced
    cliques C of order at most omega - 1, or None if none is balanced."""
    adj = _adj_sets(g)
    cliques = [
        c for size in range(g.n + 1) for c in combinations(range(g.n), size)
        if all(v in adj[u] for u, v in combinations(c, 2))
    ]
    omega = max(len(c) for c in cliques)
    keys = [
        (max((len(comp) for comp in _components(adj, set(range(g.n)) - set(c))), default=0),
         len(c), sum(1 << v for v in c), c)
        for c in cliques
        if len(c) <= omega - 1 and _balanced(adj, range(g.n), c, strict=False)
    ]
    return min(keys)[3] if keys else None


def test_chordal_clique_separator_on_the_atlas():
    refuted = Counter()
    chordal = 0
    for _, g in CENSUS:
        if not is_chordal(g)[0]:
            continue
        chordal += 1
        expected = brute_force_clique_separator(g)
        if expected is None:
            refuted[g.n] += 1
            with pytest.raises(InvariantViolation):
                chordal_clique_separator(g)
        else:
            assert chordal_clique_separator(g)[0] == expected
    assert chordal == 530
    assert refuted == {6: 1, 7: 2}


def test_chain_census_finding(reports):
    """Finding: the newer chain s <= tw <= pw <= r (with its log bound)
    fails on 12 graphs with at most 7 vertices, always by s = tw + 1; the
    smallest failure is unique; the older chain holds on the whole atlas."""
    assert Counter(rep.s - rep.tw for rep in reports).keys() <= {-1, 0, 1}
    newer_fails = [(g, rep) for (_, g), rep in zip(CENSUS, reports) if not rep.thm9_ok]
    assert Counter(g.n for g, _ in newer_fails) == {6: 1, 7: 11}
    assert all(rep.s == rep.tw + 1 for _, rep in newer_fails)
    assert [g for g, _ in newer_fails] == [g for (_, g), rep in zip(CENSUS, reports) if rep.s > rep.tw]
    [(g, rep)] = [(g, rep) for g, rep in newer_fails if g.n == 6]
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (3, 4), (4, 5)]
    assert (rep.s, rep.s_strict, rep.tw, rep.pw, rep.r) == (3, 3, 2, 3, 4)
    assert all(rep.thm2_ok for rep in reports)
