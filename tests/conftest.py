"""Shared brute-force oracles and corpus fixtures.

Every oracle here re-derives its value from first principles with plain
Python sets and exhaustive enumeration; none of them call the solver
code paths they are used to check.
"""

from itertools import combinations, permutations, product

import pytest

from widthlab import Graph
from widthlab.corpus import chordal_corpus, named_families, random_corpus, tree_corpus


def _components(adj, vertices):
    left = set(vertices)
    out = []
    while left:
        start = min(left)
        comp = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend((adj[x] & left) - comp)
        out.append(comp)
        left -= comp
    return out


def _balanced(adj, universe, x, strict):
    survivors = set(universe) - set(x)
    biggest = max((len(c) for c in _components(adj, survivors)), default=0)
    if strict:
        return 2 * biggest <= len(survivors)
    return 2 * biggest <= len(survivors) + (len(survivors) % 2)


def _adj_sets(g: Graph):
    return [{u for u in range(g.n) if (g.adj_bits[v] >> u) & 1} for v in range(g.n)]


def oracle_min_balanced_separator(g: Graph, strict=False) -> int:
    adj = _adj_sets(g)
    universe = range(g.n)
    for size in range(g.n + 1):
        for x in combinations(universe, size):
            if _balanced(adj, universe, x, strict):
                return size
    raise AssertionError("unreachable: removing everything always balances")


def oracle_separator_number(g: Graph, strict=False) -> int:
    adj = _adj_sets(g)
    worst = 0
    for size in range(g.n, -1, -1):
        for q in combinations(range(g.n), size):
            for x_size in range(len(q) + 1):
                if any(
                    _balanced(adj, q, x, strict) for x in combinations(q, x_size)
                ):
                    worst = max(worst, x_size)
                    break
    return worst


def oracle_treewidth(g: Graph) -> int:
    best = max(g.n - 1, 0)
    for order in permutations(range(g.n)):
        adj = _adj_sets(g)
        width = 0
        for v in order:
            nb = set(adj[v])
            width = max(width, len(nb))
            if width >= best:
                break
            for u in nb:
                adj[u] |= nb - {u}
                adj[u].discard(v)
            for u in range(g.n):
                adj[u].discard(v)
        best = min(best, width)
    return best


def oracle_pathwidth(g: Graph) -> int:
    adj = _adj_sets(g)
    best = g.n
    for order in permutations(range(g.n)):
        prefix = set()
        worst = 0
        for v in order:
            prefix.add(v)
            worst = max(worst, sum(1 for u in prefix if adj[u] - prefix))
            if worst >= best:
                break
        best = min(best, worst)
    return best


def _bit_reach(adj_bits, start: int, allowed: int) -> int:
    comp = 1 << start
    frontier = comp
    while frontier:
        nxt = 0
        for u in range(len(adj_bits)):
            if frontier >> u & 1:
                nxt |= adj_bits[u]
        nxt &= allowed & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def _oracle_fill_degree(adj, done, v, outside):
    comp = _bit_reach(adj, v, done | (1 << v))
    nb = 0
    for u in range(len(adj)):
        if comp >> u & 1:
            nb |= adj[u]
    return (nb & outside).bit_count()


def oracle_treewidth_table(g: Graph) -> list[int]:
    """Unpruned elimination-ordering DP: TW(S) for all 2^n subsets S.

    TW(S) = min over v in S of max(TW(S - v), fill degree of v after S - v
    is eliminated), filled in ascending mask order.
    """
    adj = g.adj_bits
    full = (1 << g.n) - 1
    tw = [0] * (full + 1)
    for s_mask in range(1, full + 1):
        outside = full & ~s_mask
        tw[s_mask] = min(
            max(tw[s_mask ^ (1 << v)], _oracle_fill_degree(adj, s_mask ^ (1 << v), v, outside))
            for v in range(g.n) if s_mask >> v & 1
        )
    return tw


def oracle_treewidth_dp(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Treewidth and witness from the unpruned table.

    The witness is rebuilt from V by taking the smallest-id v that attains
    TW(S) at each step.  This is the table fill the pruned solver must
    reproduce exactly, witness included.
    """
    tw = oracle_treewidth_table(g)
    full = (1 << g.n) - 1
    order = []
    s_mask = full
    while s_mask:
        outside = full & ~s_mask
        v = next(
            v for v in range(g.n) if s_mask >> v & 1
            and max(tw[s_mask ^ (1 << v)],
                    _oracle_fill_degree(g.adj_bits, s_mask ^ (1 << v), v, outside)) == tw[s_mask]
        )
        order.append(v)
        s_mask ^= 1 << v
    return tw[full], tuple(reversed(order))


def _oracle_boundary(adj, s_mask):
    return sum(1 for u in range(len(adj)) if s_mask >> u & 1 and adj[u] & ~s_mask)


def oracle_pathwidth_table(g: Graph) -> list[int]:
    """Unpruned vertex-separation DP: PW(S) for all 2^n subsets S.

    PW(S) = max(boundary of S, min over v in S of PW(S - v)).
    """
    full = (1 << g.n) - 1
    pw = [0] * (full + 1)
    for s_mask in range(1, full + 1):
        best = min(pw[s_mask ^ (1 << v)] for v in range(g.n) if s_mask >> v & 1)
        pw[s_mask] = max(_oracle_boundary(g.adj_bits, s_mask), best)
    return pw


def oracle_pathwidth_dp(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Pathwidth and witness from the unpruned table: the smallest-id v
    that attains PW(S), at each step back from V."""
    pw = oracle_pathwidth_table(g)
    order = []
    s_mask = (1 << g.n) - 1
    while s_mask:
        b = _oracle_boundary(g.adj_bits, s_mask)
        v = next(
            v for v in range(g.n)
            if s_mask >> v & 1 and max(b, pw[s_mask ^ (1 << v)]) == pw[s_mask]
        )
        order.append(v)
        s_mask ^= 1 << v
    return pw[-1], tuple(reversed(order))


def oracle_bandwidth(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Bandwidth and the lexicographically first layout that attains it."""
    edges = list(g.edges())
    best = None
    for order in permutations(range(g.n)):  # lexicographic order
        pos = {v: i for i, v in enumerate(order)}
        stretch = max((abs(pos[u] - pos[v]) for u, v in edges), default=0)
        if best is None or stretch < best[0]:
            best = (stretch, order)
    return best


def oracle_valid_levels(g: Graph, levels) -> bool:
    adj = _adj_sets(g)
    for l in set(levels):
        sub = {v for v in range(g.n) if levels[v] <= l}
        for comp in _components(adj, sub):
            if sum(1 for v in comp if levels[v] == l) > 1:
                return False
    return True


def oracle_cycle_rank(g: Graph) -> int:
    if g.n == 0:
        return 0
    for h in range(1, g.n + 1):
        for levels in product(range(1, h + 1), repeat=g.n):
            if oracle_valid_levels(g, levels):
                return h
    raise AssertionError("distinct levels are always valid; unreachable")


def oracle_is_chordal(g: Graph) -> bool:
    adj = _adj_sets(g)
    for size in range(4, g.n + 1):
        for cycle_set in combinations(range(g.n), size):
            s = set(cycle_set)
            if any(len(adj[v] & s) != 2 for v in s):
                continue
            if len(_components(adj, s)) == 1:
                return False
    return True


def oracle_R(k: int, n: int) -> int:
    """The ranking recurrence, straight from its definition."""
    if n <= k:
        return n
    return k + oracle_R(k, -(-(n - k) // 2))


def oracle_N_adjoint(k: int, r: int) -> int:
    """Smallest n with R_k(n) >= r, by scanning R_k upward.

    Exponential stepping followed by binary search, valid because R_k is
    monotone in n.
    """
    if r == 0:
        return 0
    lo = r  # R_k(n) <= n, so no smaller n can reach r
    if oracle_R(k, lo) >= r:
        return lo
    hi = lo
    while oracle_R(k, hi) < r:
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if oracle_R(k, mid) >= r:
            hi = mid
        else:
            lo = mid
    return hi


def oracle_subgraph_of_path_power(g: Graph, k: int) -> bool:
    """Is g isomorphic to a subgraph of the k-th path power of its order?"""
    if g.n <= 1:
        return True
    return any(
        all(abs(pos[u] - pos[v]) <= k for u, v in g.edges())
        for pos in (
            {v: i for i, v in enumerate(order)} for order in permutations(range(g.n))
        )
    )


# ---------------------------------------------------------------------------
# Corpora (session-scoped; seeds are fixed so tests are reproducible)


@pytest.fixture(scope="session")
def random_graphs_200():
    return random_corpus(200, 10, 1)


@pytest.fixture(scope="session")
def trees_100():
    return tree_corpus(100, 12, 2)


@pytest.fixture(scope="session")
def chordal_100():
    return chordal_corpus(100, 12, 3, 1)


@pytest.fixture(scope="session")
def named_small():
    return named_families()


@pytest.fixture(scope="session")
def small_random_graphs():
    """Mixed tiny graphs (n <= 6) for exhaustive-oracle comparisons."""
    return random_corpus(100, 6, 5)
