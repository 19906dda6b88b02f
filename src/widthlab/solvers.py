"""Exact solvers for cycle rank, treewidth, pathwidth, and bandwidth.

All solvers are exponential-time subset algorithms meant for desk-scale
graphs; each refuses inputs above its cap, and a subset table above its
fixed n ceiling, before any work.  Every witness returned here
is re-validated against the reported value before it leaves the solver,
and tie-breaking is deterministic (smallest vertex id / lexicographically
smallest sequence), so results are stable across runs.

Conventions for degenerate inputs: the empty graph has cycle rank 0 and
treewidth = pathwidth = bandwidth = 0; a single vertex has cycle rank 1
(edgeless rule) and the other three parameters 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .closed_forms import R_rec, bound_log_chain, bound_thm6
from .errors import DomainError, InvariantViolation, SizeLimitExceeded
from .graph import Graph, bits_of, component_masks, neighbourhood_tables, reach_mask
from .lattice import members, reach
from .separators import (
    MIN_SEPARATOR_CAP,
    SEPARATOR_NUMBER_CAP,
    SUBSET_TABLE_BUDGET,
    check_size,
    padded_separator_mask,
    separator_number_with_witness,
)

RANK_CAP = 16
RANK_CAP_DEEP = 20
TW_CAP = 18
PW_CAP = 18
BW_CAP = 12
BW_CAP_DEEP = 16
# Fixed n ceilings that no cap raises: these tables take one byte per
# subset, so a 2^28-set table fills SUBSET_TABLE_BUDGET.
TW_TABLE_MAX_N = 28
RANK_TABLE_MAX_N = 28


def pathwidth_live_sets(n: int) -> int:
    """Lattice sets of 2^n bits one pathwidth pass holds at once: P_v, the
    G_k not yet used with the levels made so far (n + 1), and 15 more
    (tracemalloc peaks at about 2n + 11 for n = 16 to 20, on complete
    graphs and stars)."""
    return 2 * n + 16


PW_TABLE_MAX_N = max(n for n in range(32) if pathwidth_live_sets(n) << n >> 3 <= SUBSET_TABLE_BUDGET)
# The bandwidth search recurses once per layout position; this ceiling keeps
# it well inside Python's default limit of 1,000 frames.  No cap raises it.
BW_SEARCH_MAX_N = 512


@dataclass(frozen=True)
class Ranking:
    """Vertex levels witnessing a cycle-rank upper bound."""

    level: dict[int, int]

    @property
    def height(self) -> int:
        return max(self.level.values(), default=0)

    def to_json_dict(self) -> dict:
        return {
            "levels": {str(v): l for v, l in sorted(self.level.items())},
            "height": self.height,
        }


def is_valid_ranking(g: Graph, ranking: Ranking) -> tuple[bool, tuple[int, int] | None]:
    """Level-wise component test for ranking validity.

    A ranking is valid iff for every level l, each connected component of
    the subgraph induced by the vertices of level <= l contains at most
    one vertex of level exactly l.  Returns (True, None) or (False,
    first violating pair), scanning levels ascending and components by
    smallest member.
    """
    levels = ranking.level
    for v in range(g.n):
        l = levels.get(v)
        if l is None:
            raise DomainError(f"vertex {v} has no level assigned")
        if not isinstance(l, int) or l < 1:
            raise DomainError(f"vertex {v} has invalid level {l!r}")
    cum = 0
    for l in sorted(set(levels.values())):
        at_mask = 0
        for v, lv in levels.items():
            if lv == l:
                at_mask |= 1 << v
        cum |= at_mask
        for comp in component_masks(g, cum):
            here = bits_of(comp & at_mask)
            if len(here) >= 2:
                return False, (here[0], here[1])
    return True, None


def _rank_down(g: Graph, mask: int, top: int, pick: Callable[[int], int],
               levels: dict[int, int]) -> None:
    """Rank G[mask] top-down: the block pick(mask) takes the levels top,
    top - 1, ... in ascending id order, and each component of G[mask]
    minus the block recurses with the levels below them."""
    block = pick(mask)
    for i, v in enumerate(bits_of(block)):
        if top - i < 1:
            raise InvariantViolation("level budget exhausted")
        levels[v] = top - i
    for comp in component_masks(g, mask & ~block):
        _rank_down(g, comp, top - block.bit_count(), pick, levels)


# ---------------------------------------------------------------------------
# Cycle rank


def cycle_rank(g: Graph, cap: int = RANK_CAP) -> tuple[int, Ranking]:
    """Exact cycle rank with an optimal ranking witness.

    Memoized recursion over a byte table of all 2^n subsets (0 = not yet
    known), with every singleton preset to 1.  A disconnected set splits
    off the component of its lowest vertex, walked layer by layer through
    `neighbourhood_tables` (max rule); a connected one tries single-vertex
    deletions (min rule).  Deleting a vertex lowers cycle rank by at most
    one and never raises it, so the children of a connected set take two
    adjacent values, and the scan stops at the first child below the first
    one seen.  Each call site reads a child as `table[x] or rank_any(x)`,
    so a memo hit costs no call and `rank_any` only fills unknown sets of
    two or more vertices.  Every table entry is exact, so reconstruction
    is unaffected: `_rank_down` gives each component the top level, with
    a one-vertex block.
    """
    check_size("cycle_rank", g.n, cap, RANK_TABLE_MAX_N)
    if g.n == 0:
        return 0, Ranking({})
    table = bytearray(1 << g.n)
    for v in range(g.n):
        table[1 << v] = 1
    w, lo, hi = neighbourhood_tables(g)
    m = (1 << w) - 1

    def rank_any(mask: int) -> int:
        comp, grown = 0, mask & -mask
        while grown != comp:
            comp = grown
            grown = (lo[comp & m] | hi[comp >> w] | comp) & mask
        if comp != mask:
            r = table[comp] or rank_any(comp)
            other = table[mask ^ comp] or rank_any(mask ^ comp)
            if other > r:
                r = other
        else:
            rest = mask & (mask - 1)
            first = best = table[rest] or rank_any(rest)
            while rest and best == first > 1:
                low = rest & -rest
                rest ^= low
                other = table[mask ^ low] or rank_any(mask ^ low)
                if other < best:
                    best = other
            r = best + 1
        table[mask] = r
        return r

    def rank(mask: int) -> int:
        return table[mask] or rank_any(mask)

    value = rank(g.full_mask)

    def pick(mask: int) -> int:
        # the smallest-id v of a connected S with r(S - v) = r(S) - 1
        if mask & (mask - 1) == 0:
            return mask
        target = rank(mask) - 1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if rank(mask ^ low) == target:
                return low
        raise InvariantViolation("no vertex achieves the memoized optimum")

    levels: dict[int, int] = {}
    for comp in component_masks(g):
        _rank_down(g, comp, value, pick, levels)
    ranking = Ranking(levels)
    ok, pair = is_valid_ranking(g, ranking)
    if not ok or ranking.height != value:
        raise InvariantViolation(f"reconstructed ranking invalid (pair {pair})")
    return value, ranking


def separator_ranking(g: Graph, k: int, cap: int = MIN_SEPARATOR_CAP) -> Ranking:
    """Ranking built from balanced separators of size exactly k.

    Built by `_rank_down`: graphs with at most k vertices get distinct
    top levels; otherwise the block is `padded_separator_mask`, a minimum
    balanced separator padded to size exactly k, its vertices take the k
    highest remaining levels, and the components below recurse
    independently.  The result is valid and has height at most R_k(n).
    Raises InvalidSeparator if some recursive instance has
    no balanced separator of size <= k (that is, k < s(G)).
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    check_size("separator_ranking", g.n, cap)
    if g.n == 0:
        return Ranking({})
    budget = R_rec(k, g.n)
    levels: dict[int, int] = {}
    _rank_down(g, g.full_mask, budget,
               lambda mask: mask if mask.bit_count() <= k else padded_separator_mask(g, mask, k),
               levels)
    ranking = Ranking(levels)
    ok, pair = is_valid_ranking(g, ranking)
    if not ok:
        raise InvariantViolation(f"separator ranking invalid (pair {pair})")
    if ranking.height > budget:
        raise InvariantViolation(
            f"separator ranking height {ranking.height} exceeds R_{k}({g.n}) = {budget}"
        )
    return ranking


# ---------------------------------------------------------------------------
# Treewidth (elimination-ordering subset DP)


def _min_fill_order(g: Graph) -> tuple[int, ...]:
    """Greedy elimination order: least fill, then least degree, then smallest id."""
    adj = list(g.adj_bits)
    alive = g.full_mask
    order = []
    while alive:
        best = None
        for v in bits_of(alive):
            nb = adj[v] & alive
            k = nb.bit_count()
            edges = 0
            for u in bits_of(nb):
                edges += (adj[u] & nb).bit_count()
            key = (k * (k - 1) // 2 - edges // 2, k)
            if best is None or key < best:
                best, pick = key, v
        v = pick
        nb = adj[v] & alive
        for u in bits_of(nb):
            adj[u] |= nb & ~(1 << u)
        alive ^= 1 << v
        order.append(v)
    return tuple(order)


def _treewidth_table(g: Graph, ub: int) -> bytearray:
    """TW(S) for every S whose value is at most `ub`; every other S holds ub + 1.

    The fill degree of v outside S counts v's neighbours outside S + v,
    directly or through the components of S that v touches.  A push to
    S + v is max(TW(S), fill degree) >= TW(S), so it is skipped unread
    when S + v already holds at most TW(S), which the sentinel ub + 1
    never does.  The components of S are grown layer by layer through
    `neighbourhood_tables` (a walk's last lookup is its whole
    neighbourhood) once per set, on the first push that survives the skip
    and touches S.  Neither changes a table entry."""
    adj, full = g.adj_bits, g.full_mask
    w, lo, hi = neighbourhood_tables(g)
    m = (1 << w) - 1
    tw = bytearray([ub + 1]) * (full + 1)
    tw[0] = 0
    for done in range(full + 1):
        val = tw[done]
        if val > ub:
            continue
        outside = full ^ done
        comps = None
        rest = outside
        while rest:
            low = rest & -rest
            rest ^= low
            if tw[done | low] <= val:
                continue
            nb = adj[low.bit_length() - 1]
            if nb & done:
                if comps is None:
                    comps = []
                    left = done
                    while left:
                        comp, grown = 0, left & -left
                        while grown != comp:
                            comp = grown
                            reach = lo[comp & m] | hi[comp >> w]
                            grown = (reach | comp) & done
                        comps.append((comp, reach & outside))
                        left &= ~comp
                for comp, comp_nb in comps:
                    if nb & comp:
                        nb |= comp_nb
            d = (nb & outside & ~low).bit_count()
            if d < val:
                d = val
            if d < tw[done | low]:
                tw[done | low] = d
    return tw


def _walk_back(full: int, attains: Callable[[int, int], bool]) -> tuple[int, ...]:
    """Order read back off a subset table: from V, step to S - v for the
    smallest-id v whose move `attains(S, bit of v)` the value of S, then
    reverse."""
    order = []
    s_mask = full
    while s_mask:
        rest = s_mask
        while rest:
            low = rest & -rest
            rest ^= low
            if attains(s_mask, low):
                order.append(low.bit_length() - 1)
                s_mask ^= low
                break
        else:
            raise InvariantViolation("subset table reconstruction failed")
    order.reverse()
    return tuple(order)


def treewidth(g: Graph, cap: int = TW_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact treewidth with an elimination-ordering witness.

    TW(S) is the best width achievable while eliminating exactly the set
    S first: TW(S) = min over v in S of max(TW(S - v), fill degree of v
    into V - S once S - v is gone).

    The table is filled with upper-bound pruning (Bodlaender, Fomin,
    Koster, Kratsch and Thilikos, "On exact algorithms for treewidth",
    2006).  A greedy min-fill order, replayed by `eliminate_and_measure`,
    gives ub >= tw.  The table is a bytearray filled with the sentinel
    ub + 1; the sets are walked in ascending order, and each one whose
    value is at most ub pushes its move cost to S + v for every v outside
    it.  A push whose target already holds at most TW(S) cannot lower it
    and is skipped before its cost is computed.  The fill degree of v is
    adj[v] plus the outside neighbourhoods of the components of S that v
    touches, found once per set and only when a surviving push needs
    them.  A set of value at most ub thus gets its exact value (its best
    predecessor is no worse, so its push was made or the set already held
    that value), and every other set keeps ub + 1.

    Reconstruction steps from V to the smallest-id S - v whose move
    attains TW(S) <= tw <= ub, which a sentinel never does, so the
    witness is the one the unpruned table gives.
    """
    n = g.n
    check_size("treewidth", n, cap, TW_TABLE_MAX_N)
    if n == 0:
        return 0, ()
    full = g.full_mask
    tw = _treewidth_table(g, eliminate_and_measure(g, _min_fill_order(g)))
    value = tw[full]
    w, lo, hi = neighbourhood_tables(g)
    m = (1 << w) - 1

    def attains(s_mask: int, low: int) -> bool:
        # the fill degree of v: N(C) - S, C the component of v within S
        comp = reach_mask(g, low.bit_length() - 1, s_mask)
        d = ((lo[comp & m] | hi[comp >> w]) & ~s_mask).bit_count()
        return max(tw[s_mask ^ low], d) == tw[s_mask]

    order = _walk_back(full, attains)
    if eliminate_and_measure(g, order) != value:
        raise InvariantViolation("treewidth witness does not replay to the DP value")
    return value, order


def eliminate_and_measure(g: Graph, order: tuple[int, ...]) -> int:
    """Width of an elimination ordering by direct simulation."""
    if sorted(order) != list(range(g.n)):
        raise DomainError("order must be a permutation of the vertices")
    adj = list(g.adj_bits)
    alive = g.full_mask
    width = 0
    for v in order:
        nb = adj[v] & alive & ~(1 << v)
        width = max(width, nb.bit_count())
        rest = nb
        while rest:
            low = rest & -rest
            rest ^= low
            adj[low.bit_length() - 1] |= nb & ~low
        alive ^= 1 << v
    return width


# ---------------------------------------------------------------------------
# Pathwidth (vertex-separation subset DP)


def _pathwidth_levels(g: Graph):
    """L_0, L_1, ..., L_n in order, with L_t = {S : PW(S) <= t}, each as the
    little-endian bytes of a lattice set, so a membership read is O(1).
    I_u = P_u & ~(AND of P_w over the neighbours w of u) holds the sets
    with u on their boundary; counted up over u they give G_k, the sets
    with at least k, for every k (G_k is 0 above the largest boundary),
    and B_t = {S : boundary of S <= t} is the complement of G_{t+1}.
    L_t, the sets reached from the empty set by one-vertex steps through
    B_t, is grown from L_{t-1}, and a caller that stops iterating builds
    no higher level."""
    p = members(g.n)
    everything = (1 << (1 << g.n)) - 1
    at_least = [everything] + [0] * (g.n + 1)
    for u, p_u in enumerate(p):
        inside = everything
        for w in bits_of(g.adj_bits[u]):
            inside &= p[w]
        i_u = p_u & ~inside
        for k in range(u + 1, 0, -1):
            at_least[k] |= at_least[k - 1] & i_u
    level = 1
    for t in range(g.n + 1):
        within, at_least[t + 1] = everything ^ at_least[t + 1], None
        level = reach(level, p, within)
        yield level.to_bytes(max(1, 1 << g.n >> 3), "little")


def pathwidth(g: Graph, cap: int = PW_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact pathwidth via the vertex-separation characterization.

    PW(S), the best worst boundary over layouts that start with S, is
    max(boundary of S, min over v in S of PW(S - v)), and pathwidth is
    PW(V).  PW(S) is the least t with S in L_t of `_pathwidth_levels`
    (layouts as lattice paths: Bodlaender, Fomin, Koster, Kratsch and
    Thilikos 2012); the levels are taken until the first that holds V,
    so pathwidth is their count minus one.  The witness steps back from
    V to S - v for the smallest-id v with S - v in L_{PW(S)}, which is
    exactly the rule max(b(S), PW(S - v)) = PW(S) of the unpruned table,
    b the boundary: the max equal to PW(S) gives PW(S - v) <= PW(S);
    conversely, if PW(S - v) <= PW(S), then b(S) = PW(S) or PW(S) = min
    over u of PW(S - u) <= PW(S - v), and the max is PW(S) either way.
    Along the walk PW(S) <= PW(V), so the level is there.  The layout is
    re-validated by its separation profile.
    """
    n = g.n
    check_size("pathwidth", n, cap, PW_TABLE_MAX_N)
    if n == 0:
        return 0, ()
    full = g.full_mask
    levels = []
    for level in _pathwidth_levels(g):
        levels.append(level)
        if level[full >> 3] >> (full & 7) & 1:
            break

    def level_of(s_mask: int) -> int:
        t = 0
        while not levels[t][s_mask >> 3] >> (s_mask & 7) & 1:
            t += 1
        return t

    def attains(s_mask: int, low: int) -> bool:
        rest = s_mask ^ low
        return levels[level_of(s_mask)][rest >> 3] >> (rest & 7) & 1

    value = len(levels) - 1
    order = _walk_back(full, attains)
    if separation_profile(g, order) != value:
        raise InvariantViolation("pathwidth witness does not replay to the DP value")
    return value, order


def separation_profile(g: Graph, order: tuple[int, ...]) -> int:
    """Maximum boundary size over the prefixes of a layout.  Walked from
    the end, each prefix is V minus the suffix seen so far, and its
    boundary is |prefix & N(suffix)|, so no table is built and any n is fine."""
    if sorted(order) != list(range(g.n)):
        raise DomainError("order must be a permutation of the vertices")
    suffix = reach = worst = 0
    for v in reversed(order):
        worst = max(worst, ((g.full_mask ^ suffix) & reach).bit_count())
        suffix |= 1 << v
        reach |= g.adj_bits[v]
    return worst


# ---------------------------------------------------------------------------
# Bandwidth (iterative-deepening layout search)


def _layout_stretch(g: Graph, order: tuple[int, ...]) -> int:
    pos = {v: i for i, v in enumerate(order)}
    return max((abs(pos[u] - pos[v]) for u, v in g.edges()), default=0)


def _bandwidth_feasible(g: Graph, b: int) -> tuple[int, ...] | None:
    """Lexicographically smallest layout with stretch <= b, or None.

    Depth-first placement into positions 0..n-1, trying the unplaced
    vertices in ascending id order, with one exact prune: the deadline
    (earliest-deadline-first) check of Del Corso & Manzini (1999) and
    Caprara & Salazar-Gonzalez (2005).  An unplaced vertex whose first
    placed neighbour sits at position p must land at or before p + b.
    With positions 0..i-1 filled, sort those deadlines; if the j-th
    smallest (from 0) is below i + j, the j + 1 most urgent vertices do
    not fit into positions i..i+j and no completion exists.  The check is
    a necessary condition, so it cuts only infeasible branches; it also
    implies that every candidate for position i is within b of its
    placed neighbours.  As candidates are tried in ascending id order and
    no feasible branch is cut, the first layout found is the
    lexicographically smallest one with stretch <= b.
    """
    n = g.n
    adj = g.adj_bits
    deadline = [0] * n  # valid only for vertices in `frontier`
    seq: list[int] = []

    def dfs(i: int, unplaced: int, frontier: int) -> bool:
        if i == n:
            return True
        due = sorted(deadline[w] for w in bits_of(frontier))
        if any(d < i + j for j, d in enumerate(due)):
            return False
        for v in bits_of(unplaced):
            fresh = adj[v] & unplaced & ~frontier
            for w in bits_of(fresh):
                deadline[w] = i + b
            seq.append(v)
            if dfs(i + 1, unplaced ^ (1 << v), (frontier | fresh) & ~(1 << v)):
                return True
            seq.pop()
        return False

    if dfs(0, g.full_mask, 0):
        return tuple(seq)
    return None


def bandwidth(g: Graph, cap: int = BW_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact bandwidth with the lexicographically smallest optimal layout.

    Iterative deepening on the stretch bound b, from ceil(max degree / 2)
    (a vertex has at most 2b positions within b of it) to the first
    feasible b; stretch n - 1 is always feasible, so the loop ends.  Each
    b is decided by `_bandwidth_feasible`, whose deadline prune cuts only
    infeasible branches of an ascending-id search, so the witness is the
    layout an unpruned search would return: the lexicographically smallest
    optimal one.  No diameter bound is taken: the deadline prune refutes
    the rounds it would skip about as fast as it would be computed.
    """
    n = g.n
    check_size("bandwidth", n, cap)
    if n > BW_SEARCH_MAX_N:
        raise SizeLimitExceeded(f"bandwidth: n = {n} > {BW_SEARCH_MAX_N}, the deepest layout "
                                f"search, one stack frame per position; no cap raises this")
    if n == 0:
        return 0, ()
    b = -(-max(map(int.bit_count, g.adj_bits)) // 2)
    while (layout := _bandwidth_feasible(g, b)) is None:
        b += 1
    if _layout_stretch(g, layout) != b:
        raise InvariantViolation("bandwidth witness stretch mismatch")
    return b, layout


# ---------------------------------------------------------------------------
# Chain verification


@dataclass(frozen=True)
class WidthReport:
    """All width parameters of one graph plus the two chain verdicts."""

    n: int
    s: int
    s_strict: int
    tw: int
    pw: int
    bw: int
    r: int
    thm9_ok: bool
    thm2_ok: bool
    thm9_bound_holds: bool
    thm9_bound_display: float
    thm2_bound_holds: bool
    thm2_bound_display: float
    witnesses: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            **{name: getattr(self, name) for name in PARAMS},
            "thm9_ok": self.thm9_ok,
            "thm2_ok": self.thm2_ok,
            "bounds": {
                "thm9": {"holds": self.thm9_bound_holds, "display": self.thm9_bound_display},
                "thm2": {"holds": self.thm2_bound_holds, "display": self.thm2_bound_display},
            },
            "witnesses": self.witnesses,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class Param:
    """One width parameter: its solver call, caps and JSON witness; `solve` runs several."""

    solve: Callable[[Graph, int], tuple]  # (g, cap) -> (value, raw witness)
    cap: int
    deep_cap: int
    witness: Callable[[object], dict]  # raw witness -> JSON witness

    def run(self, g: Graph, cap: int) -> tuple[int, dict]:
        value, raw = self.solve(g, cap)
        return value, self.witness(raw)


# Every width parameter, in report order.  The solvers are looked up by
# module-level name at call time, so a wrapper installed on a module
# attribute sees every call made through the registry.
PARAMS: dict[str, Param] = {
    "s": Param(lambda g, cap: separator_number_with_witness(g, strict=False, cap=cap),
               SEPARATOR_NUMBER_CAP, SEPARATOR_NUMBER_CAP, lambda wit: wit),
    "s_strict": Param(lambda g, cap: separator_number_with_witness(g, strict=True, cap=cap),
                      SEPARATOR_NUMBER_CAP, SEPARATOR_NUMBER_CAP, lambda wit: wit),
    "tw": Param(lambda g, cap: treewidth(g, cap=cap), TW_CAP, TW_CAP,
                lambda order: {"elimination_order": list(order)}),
    "pw": Param(lambda g, cap: pathwidth(g, cap=cap), PW_CAP, PW_CAP,
                lambda order: {"layout": list(order)}),
    "bw": Param(lambda g, cap: bandwidth(g, cap=cap), BW_CAP, BW_CAP_DEEP,
                lambda layout: {"layout": list(layout)}),
    "r": Param(lambda g, cap: cycle_rank(g, cap=cap), RANK_CAP, RANK_CAP_DEEP,
               Ranking.to_json_dict),
}


def solve(g: Graph, caps: dict[str, int]) -> tuple[dict[str, int], dict[str, dict]]:
    """(values, witnesses) of each parameter in `caps`, in its order, at its cap."""
    values: dict[str, int] = {}
    witnesses: dict[str, dict] = {}
    for name, cap in caps.items():
        values[name], witnesses[name] = PARAMS[name].run(g, cap)
    return values, witnesses


def verify_chain(g: Graph, caps: dict[str, int] | None = None) -> WidthReport:
    """Compute every parameter and check both inequality chains exactly.

    `caps` maps parameter names to size caps; a missing name gets its
    default cap from PARAMS.  The non-strict separator number feeds the
    newer chain, the strict one feeds the older chain, exactly as the two
    statements are phrased.  A violated inequality is reported, never
    raised.  For edgeless graphs (s = 0) the logarithmic bound is evaluated
    at k = 1 -- the smallest k the recurrence is defined for; the bound is
    monotone in k, so this is still a valid upper bound -- and the report
    is flagged.
    """
    if g.n < 2:
        raise DomainError(f"verify_chain requires n >= 2, got n = {g.n}")
    caps = caps or {}
    values, witnesses = solve(g, {name: caps.get(name, param.cap) for name, param in PARAMS.items()})
    s, s_strict, tw, pw, bw, r = values.values()

    flags = []
    if len(component_masks(g)) > 1:
        flags.append("disconnected-input")
    k9 = s
    if s == 0:
        k9 = 1
        flags.append("thm9-bound-evaluated-at-k=1")
    b9 = bound_thm6(k9, g.n)
    thm9_bound_holds = b9.leq(r)
    thm9_ok = (s <= tw <= pw <= r) and thm9_bound_holds
    b2 = bound_log_chain(s_strict, g.n)
    thm2_bound_holds = b2.leq(r)
    thm2_ok = (s_strict - 1 <= tw) and thm2_bound_holds

    return WidthReport(
        n=g.n,
        **values,
        thm9_ok=thm9_ok,
        thm2_ok=thm2_ok,
        thm9_bound_holds=thm9_bound_holds,
        thm9_bound_display=b9.display(),
        thm2_bound_holds=thm2_bound_holds,
        thm2_bound_display=b2.display(),
        witnesses=witnesses,
        flags=tuple(flags),
    )
