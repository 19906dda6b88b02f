"""Balanced vertex separators, exactly.

A set X is accepted as a balanced separator iff every component of G - X
has at most ceil((n - |X|)/2) vertices (at most (n - |X|)/2 for the
strict version).  The component-size condition is the sole criterion;
for connected G it forces a genuine split or fewer than two survivors,
and for disconnected G it is the one reading that keeps the separator
number well defined over all induced subgraphs.

Balance of G[Q] - X depends only on the survivor set S = Q - X, so the
separator number is read off families of survivor sets, each held as one
lattice set (`widthlab.lattice`), instead of a doubly exponential
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from .errors import (
    DomainError,
    InvalidSeparator,
    InvariantViolation,
    NotChordal,
    SizeLimitExceeded,
)
from .graph import (
    Graph,
    bits_of,
    component_masks,
    is_chordal,
    mask_of,
    maximal_cliques_chordal,
)
from .lattice import connected, down1, members, neighbour_members, sizes, up, up1

SEPARATOR_NUMBER_CAP = 12
MIN_SEPARATOR_CAP = 20
CLIQUE_SUBSET_CAP = 1 << 20
# Memory one solver's 2^n-slot tables, or its lattice sets of 2^n bits,
# may take.  No cap raises the n ceilings derived from it.
SUBSET_TABLE_BUDGET = 256 << 20


def separator_live_sets(n: int) -> int:
    """Lattice sets of 2^n bits one separator-number pass holds at once:
    P_v and T_v for every vertex, and at most 16 more (tracemalloc peaks
    at 2n + 11 for n = 16 to 22)."""
    return 2 * n + 16


SEPARATOR_TABLE_MAX_N = max(
    n for n in range(32) if separator_live_sets(n) << n >> 3 <= SUBSET_TABLE_BUDGET
)


def check_size(what: str, n: int, cap: int, table_max_n: int | None = None) -> None:
    """Refuse n above the solver's cap, then a 2^n subset table above its
    fixed ceiling `table_max_n`, before any work."""
    if n > cap:
        raise SizeLimitExceeded(f"{what}: n = {n} > cap {cap}")
    if table_max_n is not None and n > table_max_n:
        raise SizeLimitExceeded(
            f"{what}: n = {n} > {table_max_n}, the largest subset table that fits in "
            f"{SUBSET_TABLE_BUDGET >> 20} MiB; no cap raises this"
        )


@dataclass(frozen=True)
class SeparatorCertificate:
    """Balance verdicts for one candidate separator."""

    x: tuple[int, ...]
    component_sizes: tuple[int, ...]  # descending
    balanced: bool
    strictly_balanced: bool

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.x),
            "component_sizes": list(self.component_sizes),
            "balanced": self.balanced,
            "strictly_balanced": self.strictly_balanced,
        }


def _limit(survivors: int, strict: bool) -> int:
    """Largest component a balanced set of `survivors` vertices may keep."""
    return survivors // 2 if strict else (survivors + 1) // 2


def _balanced(g: Graph, survivors: int, strict: bool) -> bool:
    """Is every component of G[survivors] within `_limit`?  Stops as soon
    as a growing component passes it, or once too few survivors are left
    for one."""
    limit = _limit(survivors.bit_count(), strict)
    adj = g.adj_bits
    rest = survivors
    while rest.bit_count() > limit:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & (rest ^ comp)
            comp |= frontier
            if comp.bit_count() > limit:
                return False
        rest ^= comp
    return True


def check_separator(g: Graph, x: Iterable[int]) -> SeparatorCertificate:
    """Certificate for X as a (strictly) balanced separator of g."""
    x_mask = 0
    for v in x:
        g._check_vertex(v)
        x_mask |= 1 << v
    survivors_mask = g.full_mask & ~x_mask
    sizes = sorted((c.bit_count() for c in component_masks(g, survivors_mask)), reverse=True)
    survivors = survivors_mask.bit_count()
    biggest = sizes[0] if sizes else 0
    return SeparatorCertificate(
        x=bits_of(x_mask),
        component_sizes=tuple(sizes),
        balanced=biggest <= _limit(survivors, strict=False),
        strictly_balanced=biggest <= _limit(survivors, strict=True),
    )


# ---------------------------------------------------------------------------
# Subset enumeration: size-ascending, then ascending bitmask value.  All
# witnesses below are "first hit" under this documented order.


def min_balanced_separator_mask(g: Graph, universe: int, strict: bool) -> tuple[int, int]:
    """Minimum balanced separator of g restricted to `universe`.

    Returns (size, x_mask); the witness is the first hit in the
    size-ascending, mask-ascending enumeration.

    For each size, a depth-first search decides the members of X from
    the highest vertex of the universe down, the survivor branch first,
    so its leaves come in ascending mask order.  A vertex decided as a
    survivor has its component among the survivors decided so far
    walked; a component above the limit prunes the branch, since more
    survivors only grow it.  A leaf, where the rest fill X or X is full
    and the rest survive, is accepted by `_balanced` alone, which reads
    no table; a search it rejects throughout ends in InvariantViolation.
    Pending "in X" branches wait on one stack, so a deep universe needs
    no recursion.
    """
    adj = g.adj_bits
    high_first = [1 << v for v in reversed(bits_of(universe))]
    total = len(high_first)
    # undecided[i]: the members not yet decided at depth i, high_first[i:].
    undecided = [universe & ((bit << 1) - 1) for bit in high_first] + [0]
    for size in range(total + 1):
        limit = _limit(total - size, strict)
        stack = [(0, 0, 0, size)]
        while stack:
            i, survivors, x_mask, budget = stack.pop()
            while budget and total - i > budget:
                bit = high_first[i]
                i += 1
                stack.append((i, survivors, x_mask | bit, budget - 1))
                survivors |= bit
                comp = frontier = bit
                while frontier and comp.bit_count() <= limit:
                    nxt = 0
                    while frontier:
                        low = frontier & -frontier
                        nxt |= adj[low.bit_length() - 1]
                        frontier ^= low
                    frontier = nxt & survivors & ~comp
                    comp |= frontier
                if comp.bit_count() > limit:
                    break
            else:  # a leaf: the rest fill X, or X is full and the rest survive
                if budget:
                    x_mask |= undecided[i]
                else:
                    survivors |= undecided[i]
                if _balanced(g, survivors, strict):
                    return size, x_mask
    raise InvariantViolation("X = universe always balances; unreachable")


def min_balanced_separator(
    g: Graph, strict: bool = False, cap: int = MIN_SEPARATOR_CAP
) -> tuple[int, tuple[int, ...]]:
    """Exact minimum (strictly) balanced separator with witness."""
    check_size("min_balanced_separator", g.n, cap)
    size, x_mask = min_balanced_separator_mask(g, g.full_mask, strict)
    return size, bits_of(x_mask)


def _pad_once_mask(g: Graph, universe: int, x_mask: int) -> int:
    """Add the smallest-id vertex of a largest surviving component.
    Components come by smallest member, so `max` keeps the first largest."""
    comp = max(component_masks(g, universe & ~x_mask), key=int.bit_count)
    return x_mask | comp & -comp


def padded_separator_mask(g: Graph, universe: int, k: int) -> int:
    """Minimum balanced separator of G[universe], padded by `_pad_once_mask`
    to exactly k < |universe| vertices, its balance re-checked after every
    pad.  Raises InvalidSeparator if the minimum needs more than k."""
    size, x_mask = min_balanced_separator_mask(g, universe, strict=False)
    if size > k:
        raise InvalidSeparator(
            f"induced subgraph {bits_of(universe)} needs a separator of size {size} > k = {k}"
        )
    while x_mask.bit_count() < k:
        x_mask = _pad_once_mask(g, universe, x_mask)
        if not _balanced(g, universe & ~x_mask, strict=False):
            raise InvariantViolation("padded separator lost balance")
    return x_mask


def pad_separator(g: Graph, x: Iterable[int]) -> tuple[int, ...]:
    """Grow a balanced separator by one vertex, staying balanced.

    Adds the smallest-id vertex of a largest component of G - X.  The
    growth step is guaranteed to preserve balance; the result is
    re-checked anyway and a failure raises InvariantViolation.
    """
    x_mask = mask_of(x)
    cert = check_separator(g, bits_of(x_mask))
    if not cert.balanced:
        raise InvalidSeparator(f"X = {cert.x} is not a balanced separator")
    if x_mask == g.full_mask:
        raise DomainError("cannot pad: X already contains every vertex")
    padded = _pad_once_mask(g, g.full_mask, x_mask)
    if not check_separator(g, bits_of(padded)).balanced:
        raise InvariantViolation(
            f"padding {cert.x} by one vertex produced an unbalanced set"
        )
    return bits_of(padded)


# ---------------------------------------------------------------------------
# Balanced separator number


def _balanced_sets(g: Graph, strict: bool, p: list[int]) -> int:
    """The lattice set of the balanced survivor sets of g.

    S is unbalanced iff some connected subset of S has `_limit(|S|)` + 1
    vertices, so the unbalanced sets of size c are Size_c &
    Up(Conn_{limit(c) + 1}).  The limit grows with c, so the sizes and
    the connected levels are walked up together, and the walk stops at
    the first order with no connected set.
    """
    unbalanced, k, closure = 0, 0, 0
    levels = connected(neighbour_members(g, p))
    for c, size_c in enumerate(sizes(p)):
        while k <= _limit(c, strict):
            k, closure = k + 1, up(next(levels, 0), p)
        if not closure:
            break
        unbalanced |= size_c & closure
    return ((1 << (1 << g.n)) - 1) ^ unbalanced


def separator_number(g: Graph, strict: bool = False, cap: int = SEPARATOR_NUMBER_CAP) -> int:
    """Smallest k such that every induced subgraph has a balanced
    separator of size at most k."""
    value, _ = separator_number_with_witness(g, strict=strict, cap=cap)
    return value


def separator_number_with_witness(
    g: Graph, strict: bool = False, cap: int = SEPARATOR_NUMBER_CAP
) -> tuple[int, dict]:
    """Separator number plus the hardest induced subgraph and its witness.

    D_0 is the family of balanced sets and D_{k+1} = D_k | up1(D_k), so
    S is in D_k iff removing at most k vertices from S leaves a balanced
    set, and s is the least k with D_k = every set.  The witness
    subgraph Q is the first maximizer in the documented enumeration order
    (decreasing |Q|, then ascending bitmask): the lowest set of the
    largest size outside D_{s-1}, or V when s = 0.  X is the
    minimum-separator witness inside it: the first set of size s, in
    ascending mask order, whose survivors are balanced.  For X within Q,
    X ascends as its survivor set Q - X descends, so Q - X is the highest
    balanced set of |Q| - s vertices within Q.  X is re-checked by a walk
    over the survivors that reads no lattice set.
    """
    check_size("separator_number", g.n, cap, SEPARATOR_TABLE_MAX_N)
    p = members(g.n)
    balanced = _balanced_sets(g, strict, p)
    everything = (1 << (1 << g.n)) - 1
    best, within, below = 0, balanced, 0
    while within != everything:
        best, below = best + 1, within
        within |= up1(within, p)
    best_q = g.full_mask
    if best:
        hardest, level = everything ^ below, 1 << g.full_mask
        while not hardest & level:
            level = down1(level, p)
        hardest &= level
        best_q = (hardest & -hardest).bit_length() - 1
    fits = balanced & next(islice(sizes(p), best_q.bit_count() - best, None))
    for v in bits_of(g.full_mask ^ best_q):
        fits &= ~p[v]
    survivors = fits.bit_length() - 1
    if not fits or not _balanced(g, survivors, strict):
        raise InvariantViolation(f"no separator of size {best} balances Q = {bits_of(best_q)}")
    x_mask = best_q ^ survivors
    return best, {"q": list(bits_of(best_q)), "x": list(bits_of(x_mask))}


# ---------------------------------------------------------------------------
# Clique separators in chordal graphs


def chordal_clique_separator(g: Graph, cap: int = MIN_SEPARATOR_CAP) -> tuple[tuple[int, ...], SeparatorCertificate]:
    """Balanced clique separator of order < largest-clique order.

    Enumerates every clique of order at most omega - 1 (as subsets of
    the maximal cliques, dedup'd) and returns the balanced one that
    minimizes (largest component of G - C, |C|, mask).  Two details
    matter: enumerating full maximal cliques would let the minimizer
    exceed the order guarantee (double star), and the balance threshold
    depends on |C|, so the minimizer is taken over balanced candidates
    only.  If no clique of order <= omega - 1 is balanced, the guarantee
    this function implements has a counterexample on the input and an
    InvariantViolation (audit-grade) is raised; this does happen, see
    the chordal findings in the corpus runner.
    """
    if g.n == 0:
        raise DomainError("chordal_clique_separator requires at least one vertex")
    check_size("chordal_clique_separator", g.n, cap)
    ok, peo = is_chordal(g)
    if not ok:
        raise NotChordal(f"input has an induced cycle {peo}")
    maximal = maximal_cliques_chordal(g, peo)
    omega = max(m.bit_count() for m in maximal)
    cliques: set[int] = set()
    for m in maximal:
        if len(cliques) + (1 << m.bit_count()) > CLIQUE_SUBSET_CAP:
            raise SizeLimitExceeded("clique-subset enumeration exceeds cap 2^20")
        sub = m
        while True:
            if sub.bit_count() <= omega - 1:
                cliques.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    keys = []
    for c_mask in cliques:
        survivors = g.full_mask & ~c_mask
        biggest = max((c.bit_count() for c in component_masks(g, survivors)), default=0)
        if biggest <= _limit(survivors.bit_count(), strict=False):
            keys.append((biggest, c_mask.bit_count(), c_mask))
    if not keys:
        raise InvariantViolation(
            f"no clique of order <= {omega - 1} is a balanced separator of this graph"
        )
    best_c = min(keys)[2]
    return bits_of(best_c), check_separator(g, bits_of(best_c))
