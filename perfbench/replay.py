"""Independent re-checks of widthlab outputs.

Nothing here imports widthlab: every witness is replayed with plain
Python sets on the benchmark's own copy of the input edges, so a solver
bug cannot vouch for itself.  Each function returns a list of problems;
an empty list means the output checks out.
"""

from __future__ import annotations


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _is_permutation(n: int, order) -> bool:
    return sorted(order) == list(range(n))


def components(adj: list[set[int]], vertices) -> list[set[int]]:
    left = set(vertices)
    out = []
    while left:
        start = left.pop()
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w in left:
                    left.discard(w)
                    comp.add(w)
                    stack.append(w)
        out.append(comp)
    return out


def layout_stretch(adj: list[set[int]], order) -> int:
    pos = {v: i for i, v in enumerate(order)}
    return max((abs(pos[u] - pos[v]) for u in range(len(adj)) for v in adj[u]), default=0)


def elimination_width(adj: list[set[int]], order) -> int:
    work = [set(a) for a in adj]
    width = 0
    for v in order:
        nb = work[v]
        width = max(width, len(nb))
        for u in nb:
            work[u] |= nb - {u}
            work[u].discard(v)
    return width


def vertex_separation(adj: list[set[int]], order) -> int:
    prefix: set[int] = set()
    worst = 0
    for v in order:
        prefix.add(v)
        worst = max(worst, sum(1 for u in prefix if adj[u] - prefix))
    return worst


def ranking_problems(adj: list[set[int]], levels: dict[int, int]) -> list[str]:
    """A ranking is valid iff, for every level l, each component of the
    graph on the vertices of level <= l holds at most one vertex of level l."""
    n = len(adj)
    if sorted(levels) != list(range(n)):
        return ["ranking does not assign every vertex exactly once"]
    if any(not isinstance(l, int) or l < 1 for l in levels.values()):
        return ["ranking has a level below 1"]
    for l in sorted(set(levels.values())):
        low = [v for v in range(n) if levels[v] <= l]
        for comp in components(adj, low):
            if sum(1 for v in comp if levels[v] == l) > 1:
                return [f"two vertices of level {l} share a component"]
    return []


def balanced(adj: list[set[int]], universe, x, strict: bool) -> bool:
    survivors = set(universe) - set(x)
    biggest = max((len(c) for c in components(adj, survivors)), default=0)
    if strict:
        return 2 * biggest <= len(survivors)
    return biggest <= (len(survivors) + 1) // 2


def order_problems(adj, order, value: int, measure, what: str) -> list[str]:
    if not _is_permutation(len(adj), order):
        return [f"{what} witness is not a permutation of the vertices"]
    got = measure(adj, order)
    if got != value:
        return [f"{what} witness replays to {got}, reported {value}"]
    return []


def separator_witness_problems(adj, value: int, witness: dict, strict: bool, what: str) -> list[str]:
    q, x = witness.get("q"), witness.get("x")
    if not isinstance(q, list) or not isinstance(x, list):
        return [f"{what} witness lacks q or x"]
    if not set(x) <= set(q) or not set(q) <= set(range(len(adj))):
        return [f"{what} witness x is not inside q, or q is not inside V"]
    if len(x) != value:
        return [f"{what} witness |x| = {len(x)}, reported {value}"]
    sub = [set() for _ in adj]
    qs = set(q)
    for v in qs:
        sub[v] = adj[v] & qs
    if not balanced(sub, qs, x, strict):
        return [f"{what} witness x does not balance G[q]"]
    return []


# ---------------------------------------------------------------------------
# Exact integer forms of the two chain bounds and of the ranking recurrence


def thm9_bound_holds(k: int, n: int, r: int) -> bool:
    """r <= k (1 + log2(n/k))  <=>  k^k 2^(r-k) <= n^k."""
    if r >= k:
        return k**k << (r - k) <= n**k
    return k**k <= n**k << (k - r)


def thm2_bound_holds(s: int, n: int, r: int) -> bool:
    """r <= 1 + s log2(n)  <=>  2^(r-1) <= n^s."""
    return r <= 1 or 1 << (r - 1) <= n**s


def recurrence(k: int, n: int) -> int:
    """R_k(n) = n for n <= k, else k + R_k(ceil((n - k) / 2))."""
    acc = 0
    while n > k:
        n = -(-(n - k) // 2)
        acc += k
    return acc + n


def adjoint_problems(k: int, r: int, value: int) -> list[str]:
    """N_k(r) is the least n with R_k(n) >= r."""
    if r == 0:
        return [] if value == 0 else [f"N_{k}(0) = {value}, expected 0"]
    if value < 1 or recurrence(k, value) < r or recurrence(k, value - 1) >= r:
        return [f"N_{k}({r}) = {value} is not the least n with R_{k}(n) >= {r}"]
    return []


def chain_problems(adj, report: dict, exit_code: int) -> list[str]:
    """Replay every witness of a `verify-chain` JSON report."""
    n = len(adj)
    problems = []
    try:
        s, s_strict = report["s"], report["s_strict"]
        tw, pw, bw, r = report["tw"], report["pw"], report["bw"], report["r"]
        wit = report["witnesses"]
        if report["n"] != n:
            problems.append(f"report n = {report['n']}, input n = {n}")
        problems += separator_witness_problems(adj, s, wit["s"], False, "s")
        problems += separator_witness_problems(adj, s_strict, wit["s_strict"], True, "s_strict")
        problems += order_problems(adj, wit["tw"]["elimination_order"], tw, elimination_width, "tw")
        problems += order_problems(adj, wit["pw"]["layout"], pw, vertex_separation, "pw")
        problems += order_problems(adj, wit["bw"]["layout"], bw, layout_stretch, "bw")
        levels = {int(v): l for v, l in wit["r"]["levels"].items()}
        problems += ranking_problems(adj, levels)
        if wit["r"]["height"] != r or max(levels.values(), default=0) != r:
            problems.append(f"ranking height differs from r = {r}")
        if not tw <= pw <= bw:
            problems.append(f"tw <= pw <= bw fails: {tw}, {pw}, {bw}")
        thm9 = s <= tw <= pw <= r and thm9_bound_holds(max(s, 1), n, r)
        thm2 = s_strict - 1 <= tw and thm2_bound_holds(s_strict, n, r)
        if (report["thm9_ok"], report["thm2_ok"]) != (thm9, thm2):
            problems.append("chain verdicts differ from the replayed values")
        if exit_code != (0 if thm9 and thm2 else 1):
            problems.append(f"exit code {exit_code} does not match the verdicts")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
