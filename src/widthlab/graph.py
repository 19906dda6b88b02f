"""Simple undirected graphs with dense-bitset vertex sets.

Vertices are the integers 0..n-1.  Vertex sets travel through the exact
solvers as Python int bitmasks (bit v set <=> vertex v present), which is
the dense-bitset representation the subset dynamic programs need; public
functions accept and return plain iterables/tuples of vertex ids.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from .errors import DomainError, InvariantViolation, MalformedInput, SizeLimitExceeded
from .rng import SplitMix64

# Generators refuse anything bigger than this; exact solvers have far
# smaller per-operation caps (see solvers / separators).
GENERATOR_CAP = 1 << 16
# Generators also refuse, before any work, more edges than this, more pairs
# drawn by `random_graph`, or more vertex slots in `random_chordal`'s clique list.
GENERATOR_WORK_CAP = 1 << 20


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> tuple[int, ...]:
    """Vertex ids of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj_bits", "full_mask", "_neighbourhood_tables")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative, got {n}")
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self.adj_bits = tuple(bits)
        self.full_mask = (1 << n) - 1
        self._neighbourhood_tables = None

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return (self.adj_bits[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj_bits[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic order."""
        for u in range(self.n):
            higher = self.adj_bits[u] >> (u + 1)
            while higher:
                low = higher & -higher
                yield (u, u + low.bit_length())
                higher ^= low

    def num_edges(self) -> int:
        return sum(b.bit_count() for b in self.adj_bits) // 2

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise DomainError(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj_bits == other.adj_bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj_bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"


def neighbourhood_tables(g: Graph) -> tuple[int, list[int], list[int]]:
    """(w, lo, hi): the union of the neighbourhoods of a vertex set S in
    two lookups, N(S) = lo[S & m] | hi[S >> w] with m = 2^w - 1 and
    w = ceil(n / 2).  Built once per graph, on first use; equality and
    hashing ignore it."""
    if g._neighbourhood_tables is None:
        adj, w = g.adj_bits, -(-g.n // 2)
        parts = []
        for base in (0, w):
            t = [0] * (1 << min(w, g.n - base))
            for b in range(1, len(t)):
                low = b & -b
                t[b] = t[b ^ low] | adj[base + low.bit_length() - 1]
            parts.append(t)
        g._neighbourhood_tables = (w, *parts)
    return g._neighbourhood_tables


# ---------------------------------------------------------------------------
# Components and induced subgraphs


def reach_mask(g: Graph, start: int, allowed: int) -> int:
    """Vertices reachable from `start` inside the `allowed` bitmask.

    `start` must itself be in `allowed`.
    """
    comp = 1 << start
    frontier = comp
    adj = g.adj_bits
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        nxt &= allowed & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def component_masks(g: Graph, universe: int | None = None) -> list[int]:
    """Connected components of g restricted to `universe`, as bitmasks.

    Ordered by smallest member id.
    """
    rem = g.full_mask if universe is None else universe
    comps = []
    while rem:
        v = (rem & -rem).bit_length() - 1
        comp = reach_mask(g, v, rem)
        comps.append(comp)
        rem &= ~comp
    return comps


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, by smallest member."""
    return [bits_of(c) for c in component_masks(g)]


def induced(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on `vertices` plus the new-id -> old-id map.

    New vertex i corresponds to old vertex mapping[i]; ids are compacted
    in ascending order of the original ids.
    """
    keep = sorted(set(vertices))
    for v in keep:
        g._check_vertex(v)
    new_id = {v: i for i, v in enumerate(keep)}
    edges = [
        (new_id[u], new_id[v])
        for u in keep
        for v in bits_of(g.adj_bits[u])
        if u < v and v in new_id
    ]
    return Graph(len(keep), edges), tuple(keep)


# ---------------------------------------------------------------------------
# Chordality


def _find_hole(g: Graph) -> tuple[int, ...]:
    """Some induced cycle of length >= 4 in a non-chordal graph.

    Scans triples (v, u, w) with u, w nonadjacent neighbors of v; a
    shortest u-w path avoiding the rest of N[v] closes an induced cycle
    through v.  Shortest paths are induced, so the cycle is a hole.
    """
    for v in range(g.n):
        nb = bits_of(g.adj_bits[v])
        for i, u in enumerate(nb):
            for w in nb[i + 1 :]:
                if g.has_edge(u, w):
                    continue
                allowed = g.full_mask & ~(1 << v) & ~(g.adj_bits[v] & ~(1 << u) & ~(1 << w))
                path = _shortest_path(g, u, w, allowed)
                if path is not None:
                    return (v,) + tuple(path)
    raise InvariantViolation("no hole found in a graph that failed the PEO test")


def _shortest_path(g: Graph, src: int, dst: int, allowed: int) -> list[int] | None:
    """A shortest src-dst path inside `allowed`, or None if there is none."""
    parent = {src: -1}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in bits_of(g.adj_bits[u]):
                if (allowed >> w) & 1 and w not in parent:
                    parent[w] = u
                    if w == dst:
                        path = [w]
                        while parent[path[-1]] != -1:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(w)
        frontier = nxt
    return None


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...]]:
    """Chordality test with a certificate.

    Returns (True, perfect elimination ordering) or (False, hole), the
    hole being an induced cycle of length >= 4 in traversal order.  One
    maximum cardinality search (Tarjan & Yannakakis, SIAM J. Comput.
    1984) visits next the unvisited vertex with the most visited
    neighbours, the smallest id on a tie, and its reverse is a perfect
    elimination ordering iff the graph is chordal.  The check runs at
    each visit: the neighbours visited before v, less the one p visited
    last, must all be adjacent to p.
    """
    adj = g.adj_bits
    order: list[int] = []
    seen = 0
    for _ in range(g.n):
        v = max(bits_of(g.full_mask & ~seen), key=lambda u: (adj[u] & seen).bit_count())
        before = adj[v] & seen
        if before:
            p = next(u for u in reversed(order) if before >> u & 1)
            if before & ~adj[p] & ~(1 << p):
                return False, _find_hole(g)
        order.append(v)
        seen |= 1 << v
    return True, tuple(reversed(order))


def maximal_cliques_chordal(g: Graph, peo: tuple[int, ...] | None = None) -> list[int]:
    """Maximal cliques of a chordal graph as bitmasks.

    Every maximal clique of a chordal graph is {v} + later-neighbors(v)
    for some v in a perfect elimination ordering; non-maximal candidates
    are filtered out.  Result is sorted by bitmask value.
    """
    if peo is None:
        ok, peo = is_chordal(g)
        if not ok:
            raise DomainError("graph is not chordal")
    candidates = set()
    later = 0
    for v in reversed(peo):
        candidates.add(g.adj_bits[v] & later | 1 << v)
        later |= 1 << v
    cliques = [
        c
        for c in candidates
        if not any(c != d and c & d == c for d in candidates)
    ]
    return sorted(cliques)


# ---------------------------------------------------------------------------
# Generators


def _check_size(n: int, what: str = "n", cap: int = GENERATOR_CAP) -> None:
    """Refuse a generator argument below 0 or above `cap`."""
    if n < 0:
        raise DomainError(f"{what} must be nonnegative")
    if n > cap:
        raise SizeLimitExceeded(f"generator refuses {what} = {_number(n)} > {cap}")


def path(n: int) -> Graph:
    """Path graph 0-1-...-(n-1)."""
    _check_size(n)
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def path_power(n: int, k: int) -> Graph:
    """k-th power of the path: edge {u,v} iff 1 <= |u-v| <= k."""
    if k < 1:
        raise DomainError(f"power k must be >= 1, got {k}")
    _check_size(n)
    reach = min(k, n - 1)  # vertex u has min(k, n - 1 - u) later neighbours
    _check_size(reach * n - reach * (reach + 1) // 2, "edge count", GENERATOR_WORK_CAP)
    return Graph(
        n, ((u, v) for u in range(n) for v in range(u + 1, min(u + k, n - 1) + 1))
    )


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube; vertex ids are the coordinate bit patterns."""
    _check_size(d, "dimension", GENERATOR_CAP.bit_length() - 1)
    n = 1 << d
    return Graph(n, ((u, u | (1 << b)) for u in range(n) for b in range(d) if not (u >> b) & 1))


def star(n: int) -> Graph:
    """Star with center 0 and n leaves 1..n."""
    _check_size(n, "leaf count", GENERATOR_CAP - 1)
    return Graph(n + 1, ((0, i) for i in range(1, n + 1)))


def complete(n: int) -> Graph:
    _check_size(n)
    _check_size(n * (n - 1) // 2, "edge count", GENERATOR_WORK_CAP)
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_binary_tree(d: int) -> Graph:
    """Complete binary tree of depth d, on 2^d - 1 vertices (heap layout)."""
    if d < 1:
        raise DomainError(f"depth must be >= 1, got {d}")
    _check_size(d, "depth", GENERATOR_CAP.bit_length() - 1)
    n = 2**d - 1
    return Graph(n, ((v, (v - 1) // 2) for v in range(1, n)))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with edges drawn pair by pair from SplitMix64(seed)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must be in [0, 1], got {p}")
    _check_size(n)
    _check_size(n * (n - 1) // 2, "pair count", GENERATOR_WORK_CAP)  # one draw per pair, whatever p is
    rng = SplitMix64(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < p
    ]
    return Graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    _check_size(n)
    if n <= 1:
        return Graph(n)
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    # Standard decode: repeatedly join the smallest remaining leaf to the
    # next sequence entry.
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_chordal(n: int, width: int, seed: int) -> Graph:
    """Random (<= width)-tree: chordal, largest clique min(n, width+1).

    Builds a k-tree with k = width: start from a (width+1)-clique, then
    attach each new vertex to a uniformly chosen existing width-clique.
    """
    if width < 1:
        raise DomainError(f"width must be >= 1, got {width}")
    _check_size(n)
    k = width
    if n <= k + 1:
        return complete(n)
    # k + 1 cliques of k vertices, and k more for each vertex after the first k + 1
    _check_size(k * (k + 1 + (n - k - 1) * k), "clique-list size", GENERATOR_WORK_CAP)
    rng = SplitMix64(seed)
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    base = tuple(range(k + 1))
    cliques = [tuple(c for c in base if c != skip) for skip in base]
    for v in range(k + 1, n):
        host = cliques[rng.below(len(cliques))]
        edges.extend((u, v) for u in host)
        for u in host:
            cliques.append(tuple(sorted((set(host) - {u}) | {v})))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Edge-list text I/O
#
# Format: optional '#' comment lines, then a header "n m", then exactly m
# lines "u v" with 0 <= u < v < n, ASCII decimal, single space, each line
# '\n'-terminated.  Duplicate edges are rejected.


def _quote(line: str) -> str:
    """repr of `line` for an error message; past 60 characters, cut and with its length."""
    if len(line) <= 60:
        return repr(line)
    return f"{line[:60]!r}... ({len(line)} characters)"


def _number(x: int) -> str:
    """`x` for an error message, or its digit count when it has more than 60 digits
    (its bit count past Python's int -> str digit limit)."""
    try:
        digits = str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit number>"
    return digits if len(digits) <= 60 else f"<{len(digits)}-digit number>"


def parse_edge_list(text: str) -> Graph:
    if text and not text.endswith("\n"):
        raise MalformedInput("missing final newline", line=text.count("\n") + 1)
    header = None
    header_line = 0
    edges = []
    seen = set()
    n = m = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            continue
        fields = line.split(" ")
        try:
            # int() also takes signs, spaces and non-ASCII digits; the format does not.
            if len(fields) != 2 or not all(f.isascii() and f.isdigit() for f in fields):
                raise ValueError
            a, b = int(fields[0]), int(fields[1])
        except ValueError:  # also a field past Python's int digit limit
            raise MalformedInput(f"expected two integers, got {_quote(line)}", line=lineno) from None
        if header is None:
            header = (a, b)
            header_line = lineno
            n, m = a, b
            if n > GENERATOR_CAP:
                raise SizeLimitExceeded(f"vertex count {_number(n)} exceeds cap {GENERATOR_CAP}")
            continue
        if len(edges) == m:
            raise MalformedInput(f"more than {m} edge lines", line=lineno)
        if not a < b:
            raise MalformedInput(
                f"edge must satisfy u < v, got {_number(a)} {_number(b)}", line=lineno
            )
        if b >= n:
            raise MalformedInput(f"vertex id {_number(b)} out of range 0..{n - 1}", line=lineno)
        if (a, b) in seen:
            raise MalformedInput(f"duplicate edge {a} {b}", line=lineno)
        seen.add((a, b))
        edges.append((a, b))
    if header is None:
        raise MalformedInput("missing 'n m' header line", line=1)
    if len(edges) != m:
        raise MalformedInput(
            f"header promises {_number(m)} edges, found {len(edges)}", line=header_line
        )
    return Graph(n, edges)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: header plus sorted 'u v' lines."""
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
