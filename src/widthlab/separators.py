"""Balanced vertex separators, exactly.

A set X is accepted as a balanced separator iff every component of G - X
has at most ceil((n - |X|)/2) vertices (at most (n - |X|)/2 for the
strict version).  The component-size condition is the sole criterion;
for connected G it forces a genuine split or fewer than two survivors,
and for disconnected G it is the one reading that keeps the separator
number well defined over all induced subgraphs.

Balance of G[Q] - X depends only on the survivor set S = Q - X, which is
what makes the separator-number computation a subset DP instead of a
doubly exponential enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DomainError,
    InvalidSeparator,
    InvariantViolation,
    NotChordal,
    SizeLimitExceeded,
)
from .graph import Graph, bits_of, component_masks, is_chordal, mask_of, maximal_cliques_chordal

SEPARATOR_NUMBER_CAP = 12
MIN_SEPARATOR_CAP = 20
CLIQUE_SUBSET_CAP = 1 << 20
# Memory one 2^n subset table may take.  No cap raises the n ceilings
# derived from it; a separator table costs about 82 bytes per subset (one
# table byte and a _BalanceCache entry, measured), so 2^21 sets take 164 MiB.
SUBSET_TABLE_BUDGET = 256 << 20
SEPARATOR_TABLE_MAX_N = 21


def check_table_size(what: str, n: int, max_n: int) -> None:
    """Refuse a 2^n subset table above its fixed ceiling, before allocating it."""
    if n > max_n:
        raise SizeLimitExceeded(
            f"{what}: n = {n} > {max_n}, the largest subset table that fits in "
            f"{SUBSET_TABLE_BUDGET >> 20} MiB; no cap raises this"
        )


@dataclass(frozen=True)
class SeparatorCertificate:
    """Balance verdicts for one candidate separator."""

    x: tuple[int, ...]
    component_sizes: tuple[int, ...]  # descending
    balanced: bool
    strictly_balanced: bool
    ceil_threshold: int       # ceil((n - |X|)/2)
    strict_threshold: float   # (n - |X|)/2, display only

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.x),
            "component_sizes": list(self.component_sizes),
            "balanced": self.balanced,
            "strictly_balanced": self.strictly_balanced,
        }


def _survivor_balanced(sizes: list[int], survivors: int, strict: bool) -> bool:
    biggest = max(sizes, default=0)
    if strict:
        return 2 * biggest <= survivors
    return biggest <= (survivors + 1) // 2


def check_separator(g: Graph, x: Iterable[int]) -> SeparatorCertificate:
    """Certificate for X as a (strictly) balanced separator of g."""
    x_mask = 0
    for v in x:
        g._check_vertex(v)
        x_mask |= 1 << v
    survivors_mask = g.full_mask & ~x_mask
    sizes = sorted((c.bit_count() for c in component_masks(g, survivors_mask)), reverse=True)
    survivors = survivors_mask.bit_count()
    return SeparatorCertificate(
        x=bits_of(x_mask),
        component_sizes=tuple(sizes),
        balanced=_survivor_balanced(sizes, survivors, strict=False),
        strictly_balanced=_survivor_balanced(sizes, survivors, strict=True),
        ceil_threshold=(survivors + 1) // 2,
        strict_threshold=survivors / 2,
    )


# ---------------------------------------------------------------------------
# Subset enumeration: size-ascending, then ascending bitmask value.  All
# witnesses below are "first hit" under this documented order.


def _gosper(width: int, size: int):
    """Bitmasks of `width` bits with `size` set bits, ascending."""
    if size == 0:
        yield 0
        return
    if size > width:
        return
    x = (1 << size) - 1
    limit = 1 << width
    while x < limit:
        yield x
        c = x & -x
        r = x + c
        x = (((r ^ x) >> 2) // c) | r


def _spread(compact: int, positions: tuple[int, ...]) -> int:
    """Map a compact bitmask onto actual vertex positions (order-preserving)."""
    out = 0
    while compact:
        low = compact & -compact
        out |= 1 << positions[low.bit_length() - 1]
        compact ^= low
    return out


class _BalanceCache:
    """Per-call cache of survivor-set balance verdicts."""

    def __init__(self, g: Graph, strict: bool):
        self.g = g
        self.strict = strict
        self._cache: dict[int, bool] = {}

    def balanced(self, survivors_mask: int) -> bool:
        hit = self._cache.get(survivors_mask)
        if hit is not None:
            return hit
        sizes = [c.bit_count() for c in component_masks(self.g, survivors_mask)]
        ok = _survivor_balanced(sizes, survivors_mask.bit_count(), self.strict)
        self._cache[survivors_mask] = ok
        return ok


def min_balanced_separator_mask(
    g: Graph, universe: int, strict: bool, cache: _BalanceCache | None = None
) -> tuple[int, int]:
    """Minimum balanced separator of g restricted to `universe`.

    Returns (size, x_mask); the witness is the first hit in the
    size-ascending, mask-ascending enumeration.
    """
    if cache is None:
        cache = _BalanceCache(g, strict)
    positions = bits_of(universe)
    nq = len(positions)
    for size in range(nq + 1):
        for compact in _gosper(nq, size):
            x_mask = _spread(compact, positions)
            if cache.balanced(universe & ~x_mask):
                return size, x_mask
    raise AssertionError("X = universe always balances; unreachable")


def min_balanced_separator(
    g: Graph, strict: bool = False, cap: int = MIN_SEPARATOR_CAP
) -> tuple[int, tuple[int, ...]]:
    """Exact minimum (strictly) balanced separator with witness."""
    if g.n > cap:
        raise SizeLimitExceeded(f"min_balanced_separator: n = {g.n} > cap {cap}")
    size, x_mask = min_balanced_separator_mask(g, g.full_mask, strict)
    return size, bits_of(x_mask)


def _pad_once_mask(g: Graph, universe: int, x_mask: int) -> int:
    """Add the smallest-id vertex of a largest surviving component."""
    survivors = universe & ~x_mask
    comps = component_masks(g, survivors)
    biggest = max(c.bit_count() for c in comps)
    v_mask = min(
        (c & -c) for c in comps if c.bit_count() == biggest
    )
    return x_mask | v_mask


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


def _max_balanced_subset_table(g: Graph, strict: bool) -> bytearray:
    """f[S] = largest balanced survivor set contained in S, for every S.

    f satisfies f[S] = |S| if S itself is balanced, else max over
    one-vertex removals; minimum-separator size of G[Q] is |Q| - f[Q].
    """
    n = g.n
    check_table_size("separator_number", n, SEPARATOR_TABLE_MAX_N)
    cache = _BalanceCache(g, strict)
    f = bytearray(1 << n)
    for s_mask in range(1, 1 << n):
        if cache.balanced(s_mask):
            f[s_mask] = s_mask.bit_count()
            continue
        best = 0
        rest = s_mask
        while rest:
            low = rest & -rest
            val = f[s_mask ^ low]
            if val > best:
                best = val
            rest ^= low
        f[s_mask] = best
    return f


def separator_number(g: Graph, strict: bool = False, cap: int = SEPARATOR_NUMBER_CAP) -> int:
    """Smallest k such that every induced subgraph has a balanced
    separator of size at most k."""
    value, _ = separator_number_with_witness(g, strict=strict, cap=cap)
    return value


def separator_number_with_witness(
    g: Graph, strict: bool = False, cap: int = SEPARATOR_NUMBER_CAP
) -> tuple[int, dict]:
    """Separator number plus the hardest induced subgraph and its witness.

    The witness subgraph Q is the first maximizer in the documented
    enumeration order (decreasing |Q|, then ascending bitmask), and X is
    the minimum-separator witness inside it.
    """
    if g.n > cap:
        raise SizeLimitExceeded(f"separator_number: n = {g.n} > cap {cap}")
    if g.n == 0:
        return 0, {"q": [], "x": []}
    f = _max_balanced_subset_table(g, strict)
    best = -1
    best_q = 0
    for size in range(g.n, -1, -1):
        limit = size if strict else size - 1
        if limit <= best:
            break
        for compact in _gosper(g.n, size):
            need = size - f[compact]
            if need > best:
                best = need
                best_q = compact
    _, x_mask = min_balanced_separator_mask(g, best_q, strict)
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
    if g.n > cap:
        raise SizeLimitExceeded(f"chordal_clique_separator: n = {g.n} > cap {cap}")
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
    best_key = None
    best_c = None
    for c_mask in sorted(cliques):
        survivors = g.full_mask & ~c_mask
        sizes = [c.bit_count() for c in component_masks(g, survivors)]
        if not _survivor_balanced(sizes, survivors.bit_count(), strict=False):
            continue
        key = (max(sizes, default=0), c_mask.bit_count(), c_mask)
        if best_key is None or key < best_key:
            best_key = key
            best_c = c_mask
    if best_c is None:
        raise InvariantViolation(
            f"no clique of order <= {omega - 1} is a balanced separator of this graph"
        )
    return bits_of(best_c), check_separator(g, bits_of(best_c))
