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
from .errors import DomainError, InvalidSeparator, InvariantViolation, SizeLimitExceeded
from .graph import Graph, bits_of, component_masks, reach_mask
from .separators import (
    SEPARATOR_NUMBER_CAP,
    _BalanceCache,
    _pad_once_mask,
    check_table_size,
    min_balanced_separator_mask,
    separator_number_with_witness,
)

RANK_CAP = 16
RANK_CAP_DEEP = 20
TW_CAP = 18
PW_CAP = 18
BW_CAP = 12
BW_CAP_DEEP = 16
# Fixed n ceilings that no cap raises: at one byte per subset, a 2^28-set
# table fills SUBSET_TABLE_BUDGET.
TW_TABLE_MAX_N = 28
PW_TABLE_MAX_N = 28


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


# ---------------------------------------------------------------------------
# Cycle rank


def cycle_rank(g: Graph, cap: int = RANK_CAP) -> tuple[int, Ranking]:
    """Exact cycle rank with an optimal ranking witness.

    Memoized recursion over vertex subsets: split into connected
    components (max rule) before the memo lookup, otherwise try every
    single-vertex deletion (min rule).
    """
    if g.n > cap:
        raise SizeLimitExceeded(f"cycle_rank: n = {g.n} > cap {cap}")
    if g.n == 0:
        return 0, Ranking({})
    memo: dict[int, int] = {}

    def rank_any(mask: int) -> int:
        return max(rank_conn(c) for c in component_masks(g, mask))

    def rank_conn(mask: int) -> int:
        if mask & (mask - 1) == 0:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        best = mask.bit_count()  # deleting everything one by one
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            val = rank_any(mask ^ low)
            if val < best:
                best = val
                if best == 1:
                    break
        memo[mask] = best + 1
        return best + 1

    value = rank_any(g.full_mask)

    levels: dict[int, int] = {}

    def build(mask: int, budget: int) -> None:
        for comp in component_masks(g, mask):
            build_conn(comp, budget)

    def build_conn(mask: int, budget: int) -> None:
        if mask & (mask - 1) == 0:
            levels[mask.bit_length() - 1] = budget
            return
        target = rank_conn(mask) - 1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if rank_any(mask ^ low) == target:
                levels[low.bit_length() - 1] = budget
                build(mask ^ low, budget - 1)
                return
        raise AssertionError("no vertex achieves the memoized optimum")

    build(g.full_mask, value)
    ranking = Ranking(levels)
    ok, pair = is_valid_ranking(g, ranking)
    if not ok or ranking.height != value:
        raise InvariantViolation(f"reconstructed ranking invalid (pair {pair})")
    return value, ranking


def separator_ranking(g: Graph, k: int, cap: int = RANK_CAP_DEEP) -> Ranking:
    """Ranking built from balanced separators of size exactly k.

    Recursively: graphs with at most k vertices get distinct top levels;
    otherwise a minimum balanced separator is padded to size exactly k,
    its vertices take the k highest remaining levels, and the components
    below recurse independently.  The result is valid and has height at
    most R_k(n).  Raises InvalidSeparator if some recursive instance has
    no balanced separator of size <= k (that is, k < s(G)).
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if g.n > cap:
        raise SizeLimitExceeded(f"separator_ranking: n = {g.n} > cap {cap}")
    if g.n == 0:
        return Ranking({})
    budget = R_rec(k, g.n)
    cache = _BalanceCache(g, strict=False)
    levels: dict[int, int] = {}

    def assign_block(mask: int, top: int) -> None:
        for i, v in enumerate(bits_of(mask)):
            if top - i < 1:
                raise InvariantViolation("level budget exhausted")
            levels[v] = top - i

    def descend(mask: int, top: int) -> None:
        nq = mask.bit_count()
        if nq <= k:
            assign_block(mask, top)
            return
        size, x_mask = min_balanced_separator_mask(g, mask, strict=False, cache=cache)
        if size > k:
            raise InvalidSeparator(
                f"induced subgraph {bits_of(mask)} needs a separator of size {size} > k = {k}"
            )
        while x_mask.bit_count() < k:
            x_mask = _pad_once_mask(g, mask, x_mask)
            if not cache.balanced(mask & ~x_mask):
                raise InvariantViolation("padded separator lost balance")
        assign_block(x_mask, top)
        for comp in component_masks(g, mask & ~x_mask):
            descend(comp, top - k)

    descend(g.full_mask, budget)
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


def _fill_degree(g: Graph, done: int, v: int, outside: int) -> int:
    """Neighbors of v in `outside`, directly or through eliminated `done`."""
    if g.adj_bits[v] & done == 0:
        return (g.adj_bits[v] & outside).bit_count()
    comp = reach_mask(g, v, done | (1 << v))
    nb = 0
    rest = comp
    while rest:
        low = rest & -rest
        nb |= g.adj_bits[low.bit_length() - 1]
        rest ^= low
    return (nb & outside).bit_count()


def _min_fill_order(g: Graph) -> tuple[int, ...]:
    """Greedy elimination order: least fill, then least degree, then smallest id."""
    adj = list(g.adj_bits)
    alive = g.full_mask
    order = []
    while alive:
        keys = []
        for v in bits_of(alive):
            nb = adj[v] & alive
            k = nb.bit_count()
            edges = sum((adj[u] & nb).bit_count() for u in bits_of(nb)) // 2
            keys.append((k * (k - 1) // 2 - edges, k, v))
        v = min(keys)[2]
        nb = adj[v] & alive
        for u in bits_of(nb):
            adj[u] |= nb & ~(1 << u)
        alive ^= 1 << v
        order.append(v)
    return tuple(order)


def _treewidth_table(g: Graph, ub: int) -> bytearray:
    """TW(S) for every S whose value is at most `ub`; every other S holds ub + 1."""
    adj = g.adj_bits
    full = g.full_mask
    tw = bytearray([ub + 1]) * (full + 1)
    tw[0] = 0
    for done in range(full + 1):
        val = tw[done]
        if val > ub:
            continue
        outside = full ^ done
        # The components of `done`, each with its neighbourhood outside `done`.
        comps = []
        rest = done
        while rest:
            comp = frontier = rest & -rest
            reach = 0
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= adj[low.bit_length() - 1]
                    frontier ^= low
                reach |= nxt
                frontier = nxt & done & ~comp
                comp |= frontier
            comps.append((comp, reach & outside))
            rest &= ~comp
        rest = outside
        while rest:
            low = rest & -rest
            rest ^= low
            nb = adj[low.bit_length() - 1]
            if nb & done:
                for comp, comp_nb in comps:
                    if nb & comp:
                        nb |= comp_nb
            d = (nb & outside & ~low).bit_count()
            if d < val:
                d = val
            if d < tw[done | low]:
                tw[done | low] = d
    return tw


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
    it.  The fill degree of v is adj[v] plus the outside neighbourhoods
    of the components of S that v touches, found once per set.  A set of
    value at most ub thus gets its exact value (its best predecessor is
    no worse, so it was pushed), and every other set keeps ub + 1.

    Reconstruction steps from V to the smallest-id S - v whose move
    attains TW(S) <= tw <= ub, which a sentinel never does, so the
    witness is the one the unpruned table gives.
    """
    n = g.n
    if n > cap:
        raise SizeLimitExceeded(f"treewidth: n = {n} > cap {cap}")
    check_table_size("treewidth", n, TW_TABLE_MAX_N)
    if n == 0:
        return 0, ()
    full = g.full_mask
    tw = _treewidth_table(g, eliminate_and_measure(g, _min_fill_order(g)))
    value = tw[full]

    order: list[int] = []
    s_mask = full
    while s_mask:
        rest = s_mask
        while rest:
            low = rest & -rest
            rest ^= low
            done = s_mask ^ low
            d = _fill_degree(g, done, low.bit_length() - 1, full & ~s_mask)
            if max(tw[done], d) == tw[s_mask]:
                order.append(low.bit_length() - 1)
                s_mask = done
                break
        else:
            raise AssertionError("treewidth reconstruction failed")
    order.reverse()
    if eliminate_and_measure(g, tuple(order)) != value:
        raise InvariantViolation("treewidth witness does not replay to the DP value")
    return value, tuple(order)


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


def _boundary(g: Graph, s_mask: int) -> int:
    adj = g.adj_bits
    count = 0
    rest = s_mask
    outside = ~s_mask
    while rest:
        low = rest & -rest
        rest ^= low
        if adj[low.bit_length() - 1] & outside:
            count += 1
    return count


def _min_boundary_layout(g: Graph) -> tuple[int, ...]:
    """Greedy layout: next the vertex that leaves the smallest boundary, ties to the smallest id."""
    prefix = 0
    order = []
    for _ in range(g.n):
        v = min(bits_of(g.full_mask & ~prefix), key=lambda u: _boundary(g, prefix | 1 << u))
        prefix |= 1 << v
        order.append(v)
    return tuple(order)


def _pathwidth_table(g: Graph, ub: int) -> bytearray:
    """PW(S) for every S whose value is at most `ub`; every other S holds ub + 1."""
    full = g.full_mask
    pw = bytearray([ub + 1]) * (full + 1)
    pw[0] = 0
    for done in range(full + 1):
        val = pw[done]  # the best over predecessors, before the boundary of `done`
        if val > ub:
            continue
        b = _boundary(g, done)
        if b > ub:
            pw[done] = ub + 1
            continue
        if b > val:
            val = pw[done] = b
        rest = full ^ done
        while rest:
            low = rest & -rest
            rest ^= low
            if val < pw[done | low]:
                pw[done | low] = val
    return pw


def pathwidth(g: Graph, cap: int = PW_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact pathwidth via the vertex-separation characterization.

    PW(S) is the best worst-boundary over orderings that use S as the
    set of first |S| layout positions: PW(S) = max(boundary of S, min
    over v in S of PW(S - v)); pathwidth equals PW(V).

    The table is pruned as in `treewidth`, with ub from the greedy layout
    that adds the vertex leaving the smallest boundary (ties to the
    smallest id), replayed by `separation_profile`.  A set reached with a
    value at most ub takes its boundary, computed only for such sets, and
    pushes the result to S + v unless it exceeds ub.  So the witness, the
    smallest-id choice at every step back from V, is the one the unpruned
    table gives; it is re-validated by its separation profile.
    """
    n = g.n
    if n > cap:
        raise SizeLimitExceeded(f"pathwidth: n = {n} > cap {cap}")
    check_table_size("pathwidth", n, PW_TABLE_MAX_N)
    if n == 0:
        return 0, ()
    full = g.full_mask
    pw = _pathwidth_table(g, separation_profile(g, _min_boundary_layout(g)))
    value = pw[full]

    order: list[int] = []
    s_mask = full
    while s_mask:
        b = _boundary(g, s_mask)
        rest = s_mask
        while rest:
            low = rest & -rest
            rest ^= low
            if max(b, pw[s_mask ^ low]) == pw[s_mask]:
                order.append(low.bit_length() - 1)
                s_mask ^= low
                break
        else:
            raise AssertionError("pathwidth reconstruction failed")
    order.reverse()
    if separation_profile(g, tuple(order)) != value:
        raise InvariantViolation("pathwidth witness does not replay to the DP value")
    return value, tuple(order)


def separation_profile(g: Graph, order: tuple[int, ...]) -> int:
    """Maximum boundary size over the prefixes of a layout."""
    if sorted(order) != list(range(g.n)):
        raise DomainError("order must be a permutation of the vertices")
    prefix = 0
    worst = 0
    for v in order:
        prefix |= 1 << v
        worst = max(worst, _boundary(g, prefix))
    return worst


# ---------------------------------------------------------------------------
# Bandwidth (iterative-deepening layout search)


def _bandwidth_lower_bound(g: Graph) -> int:
    if g.num_edges() == 0:
        return 0
    lb = max(-(g.degree(v) // -2) for v in range(g.n))
    for comp in component_masks(g):
        vs = bits_of(comp)
        if len(vs) < 2:
            continue
        diam = _diameter(g, vs, comp)
        lb = max(lb, -((len(vs) - 1) // -diam))
    return lb


def _diameter(g: Graph, vs: tuple[int, ...], comp: int) -> int:
    diam = 1
    for src in vs:
        dist = 0
        seen = 1 << src
        frontier = seen
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                rest ^= low
                nxt |= g.adj_bits[low.bit_length() - 1]
            nxt &= comp & ~seen
            if nxt:
                dist += 1
                seen |= nxt
            frontier = nxt
        diam = max(diam, dist)
    return diam


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

    Iterative deepening on the stretch bound b, from an exact lower bound
    to the first feasible b; stretch n - 1 is always feasible, so the loop
    ends.  Each b is decided by `_bandwidth_feasible`, whose deadline prune
    cuts only infeasible branches of an ascending-id search, so the witness
    is the layout an unpruned search would return: the lexicographically
    smallest optimal one.
    """
    n = g.n
    if n > cap:
        raise SizeLimitExceeded(f"bandwidth: n = {n} > cap {cap}")
    if n == 0:
        return 0, ()
    b = _bandwidth_lower_bound(g)
    while (layout := _bandwidth_feasible(g, b)) is None:
        b += 1
    if _layout_stretch(g, layout) != b and g.num_edges() > 0:
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
    """One width parameter: its solver call, caps and JSON witness."""

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


def verify_chain(g: Graph, caps: dict[str, int] | None = None) -> WidthReport:
    """Compute every parameter and check both inequality chains exactly.

    `caps` maps parameter names to size caps; a missing name gets its
    default cap from PARAMS.  The non-strict separator number feeds the
    newer chain, the strict one feeds the older chain, exactly as the two
    statements are phrased.  A violated inequality is reported, never
    raised.  For edgeless graphs (s = 0) the logarithmic bound is
    evaluated at k = 1 -- the smallest k the recurrence is defined for;
    the bound is monotone in k, so this is still a valid upper bound --
    and the report is flagged.
    """
    if g.n < 2:
        raise DomainError(f"verify_chain requires n >= 2, got n = {g.n}")
    caps = caps or {}
    values: dict[str, int] = {}
    witnesses: dict[str, dict] = {}
    for name, param in PARAMS.items():
        values[name], witnesses[name] = param.run(g, caps.get(name, param.cap))
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
