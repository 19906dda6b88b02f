"""Lattice sets: families of vertex subsets held in one int.

Bit S of a lattice set over n vertices stands for the vertex subset with
mask S, so a family of subsets is an int of 2^n bits, and a union,
intersection or complement of two families is one big-int operation.
With P_v the family of the sets that contain v, (X << 2^v) & P_v moves
each member S of X without v to S + 2^v = S + {v} and drops each member
with v, whose shift carries out of P_v.  Looping that over v is the OR
form of the zeta transform (Björklund, Husfeldt, Kaski and Koivisto,
"Fourier meets Möbius: fast subset convolution", STOC 2007).  Masked by
a family B and repeated until it adds nothing, it reaches every set that
one-vertex steps through B lead to, and vertex orderings are such paths
(Bodlaender, Fomin, Koster, Kratsch and Thilikos, "A note on exact
algorithms for vertex ordering problems on graphs", ToCS 2012).
"""

from __future__ import annotations

from .graph import Graph, bits_of


def members(n: int) -> list[int]:
    """P_v = {S : v in S} for every vertex v: one block of 2^v clear and
    2^v set bits, doubled until it spans 2^n bits."""
    total = 1 << n
    family = []
    for v in range(n):
        half = 1 << v
        p, width = ((1 << half) - 1) << half, half << 1
        while width < total:
            p |= p << width
            width <<= 1
        family.append(p)
    return family


def neighbour_members(g: Graph, p: list[int]) -> list[int]:
    """T_v = P_v & (OR of P_u over the neighbours u of v): the sets that
    hold v and one of its neighbours."""
    family = []
    for v, p_v in enumerate(p):
        near = 0
        for u in bits_of(g.adj_bits[v]):
            near |= p[u]
        family.append(p_v & near)
    return family


def up1(x: int, p: list[int]) -> int:
    """{S + v : S in X, v not in S}: every member grown by one vertex.
    With the T_v of `neighbour_members` for p, only by a neighbour of S."""
    out = 0
    for v, p_v in enumerate(p):
        out |= (x << (1 << v)) & p_v
    return out


def down1(x: int, p: list[int]) -> int:
    """{S - v : S in X, v in S}: every member shrunk by one vertex."""
    out = 0
    for v, p_v in enumerate(p):
        out |= (x & p_v) >> (1 << v)
    return out


def up(x: int, p: list[int]) -> int:
    """The superset closure of X: up1's loop with X grown in place."""
    for v, p_v in enumerate(p):
        x |= (x << (1 << v)) & p_v
    return x


def reach(x: int, p: list[int], within: int) -> int:
    """The sets reached from X by one-vertex steps that each land in
    `within`: up's loop, masked by it and swept until it adds nothing."""
    last = None
    while x != last:
        last = x
        for v, p_v in enumerate(p):
            x |= (x << (1 << v)) & p_v & within
    return x


def sizes(p: list[int]):
    """Size_c = {S : |S| = c} for c = 0, 1, ..., n, one up1 per level."""
    level = 1
    yield level
    for _ in p:
        level = up1(level, p)
        yield level


def connected(t: list[int]):
    """Conn_c, the connected sets of c vertices, for c = 1, 2, ...: each
    grows the last by a vertex adjacent to it, through the T_v of
    `neighbour_members`, and the levels end at the first empty one."""
    level = sum(1 << (1 << v) for v in range(len(t)))
    while level:
        yield level
        level = up1(level, t)
