"""Seeded graph corpora and the property-check runner behind `corpus`.

Corpus construction is fully determined by (count, n_max, seed): graph
sizes and per-graph sub-seeds are drawn from one SplitMix64 stream, and
edge densities cycle through a fixed ladder, so reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed_forms import R_rec, bound_thm6
from .errors import DomainError, SizeLimitExceeded, WidthlabError
from .graph import (
    Graph,
    _number,
    complete,
    complete_binary_tree,
    hypercube,
    induced,
    path,
    random_chordal,
    random_graph,
    random_tree,
    star,
)
from .rng import SplitMix64
from .separators import MIN_SEPARATOR_CAP, check_size, chordal_clique_separator, padded_separator_mask
from .solvers import PARAMS, cycle_rank, separator_ranking, verify_chain

DENSITY_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# `run_corpus` refuses larger requests before it draws a graph.  Above the
# smallest default cap of `verify_chain`, a graph yields only an error record.
CORPUS_N_MAX = min(param.cap for param in PARAMS.values())
CORPUS_COUNT_MAX = 10_000


def _seeded_corpus(count: int, n_max: int, seed: int, draw) -> list[tuple[str, Graph]]:
    """`count` (label, graph) pairs with 2 <= n <= n_max from one SplitMix64
    stream: n is drawn first, then `draw(i, n, rng)` draws the family's own
    values and the graph."""
    if count < 0 or n_max < 2:
        raise DomainError(f"corpus needs count >= 0 and n_max >= 2, got count = "
                          f"{_number(count)}, n_max = {_number(n_max)}")
    rng = SplitMix64(seed)
    return [draw(i, 2 + rng.below(n_max - 1), rng) for i in range(count)]


def random_corpus(count: int, n_max: int, seed: int) -> list[tuple[str, Graph]]:
    """`count` seeded random graphs with 2 <= n <= n_max, cycling densities."""
    def draw(i: int, n: int, rng: SplitMix64) -> tuple[str, Graph]:
        p = DENSITY_LADDER[i % len(DENSITY_LADDER)]
        return f"random(n={n},p={p})", random_graph(n, p, seed=rng.next_u64())
    return _seeded_corpus(count, n_max, seed, draw)


def tree_corpus(count: int, n_max: int, seed: int) -> list[tuple[str, Graph]]:
    return _seeded_corpus(count, n_max, seed, lambda i, n, rng:
                          (f"tree(n={n})", random_tree(n, seed=rng.next_u64())))


def chordal_corpus(
    count: int, n_max: int, width_max: int, seed: int
) -> list[tuple[str, Graph]]:
    def draw(i: int, n: int, rng: SplitMix64) -> tuple[str, Graph]:
        w = 1 + rng.below(width_max)
        return f"chordal(n={n},w={w})", random_chordal(n, w, seed=rng.next_u64())
    return _seeded_corpus(count, n_max, seed, draw)


def named_families() -> list[tuple[str, Graph]]:
    """The small named families the chain is verified on."""
    out = []
    out.extend((f"path({n})", path(n)) for n in range(2, 11))
    out.extend((f"complete({n})", complete(n)) for n in range(2, 8))
    out.extend((f"star({n})", star(n)) for n in range(1, 9))
    out.extend((f"cbt({d})", complete_binary_tree(d)) for d in (2, 3))
    out.extend((f"hypercube({d})", hypercube(d)) for d in (1, 2, 3))
    return out


# ---------------------------------------------------------------------------
# Property checks


def check_padding_preserves_balance(g: Graph) -> bool:
    """Padding a minimum balanced separator stays balanced up to n-1."""
    check_size("min_balanced_separator", g.n, MIN_SEPARATOR_CAP)
    padded_separator_mask(g, g.full_mask, max(g.n - 1, 0))  # re-checks balance after every pad
    return True


def check_ranking_height_bound(g: Graph, s_value: int) -> bool:
    k = max(s_value, 1)
    ranking = separator_ranking(g, k)
    return ranking.height <= R_rec(k, g.n)


def check_rank_monotone(g: Graph, r_value: int, seed: int, samples: int = 3) -> bool:
    """r(G) <= |X| + r(G - X) for a few seeded vertex subsets X."""
    rng = SplitMix64(seed)
    for _ in range(samples):
        x_mask = rng.below(1 << g.n)
        keep = [v for v in range(g.n) if not (x_mask >> v) & 1]
        sub, _ = induced(g, keep)
        r_sub, _ = cycle_rank(sub)
        if r_value > x_mask.bit_count() + r_sub:
            return False
    return True


def check_clique_separator(g: Graph) -> bool:
    """Clique-separator guarantees on a chordal graph (raises on failure)."""
    clique, cert = chordal_clique_separator(g)
    if not cert.balanced:
        return False
    for u in clique:
        for v in clique:
            if u < v and not g.has_edge(u, v):
                return False
    return True


@dataclass(frozen=True)
class CorpusRecord:
    index: int
    family: str
    n: int
    checks: dict
    error: str = ""

    def ok(self) -> bool:
        return not self.error and all(self.checks.values())

    def to_json_dict(self) -> dict:
        out = {
            "index": self.index,
            "family": self.family,
            "n": self.n,
            "checks": self.checks,
            "ok": self.ok(),
        }
        if self.error:
            out["error"] = self.error
        return out


def run_corpus(count: int, n_max: int, seed: int, progress=None) -> list[CorpusRecord]:
    """Chain verification plus the module property checks, per graph.

    The corpus is `count` random graphs, count//2 random trees, and
    count//2 random chordal graphs (width <= 3), all seeded from `seed`,
    plus the named families.  Records are emitted in input order.  A
    count above CORPUS_COUNT_MAX or an n_max above CORPUS_N_MAX is refused,
    and so are a negative count and an n_max below 2.
    """
    if count > CORPUS_COUNT_MAX or n_max > CORPUS_N_MAX:
        raise SizeLimitExceeded(
            f"corpus with count = {_number(count)}, n_max = {_number(n_max)} exceeds the caps "
            f"count <= {CORPUS_COUNT_MAX}, n_max <= {CORPUS_N_MAX}"
        )
    entries: list[tuple[str, str, Graph]] = []
    entries.extend(("random", fam, g) for fam, g in random_corpus(count, n_max, seed))
    entries.extend(("tree", fam, g) for fam, g in tree_corpus(count // 2, n_max, seed + 1))
    entries.extend(
        ("chordal", fam, g)
        for fam, g in chordal_corpus(count // 2, n_max, 3, seed + 2)
    )
    if count > 0:
        entries.extend(("named", fam, g) for fam, g in named_families())

    records = []
    for i, (kind, family, g) in enumerate(entries):
        checks: dict = {}
        error = ""
        try:
            report = verify_chain(g)
            checks["chain"] = report.thm9_ok and report.thm2_ok
            checks["strict_gap"] = report.s <= report.s_strict <= report.s + 1
            checks["sep_le_tw"] = report.s <= report.tw
            checks["rank_le_tw_log_bound"] = bound_thm6(max(report.tw, 1), g.n).leq(report.r)
            checks["rank_le_bw_recurrence"] = report.r <= R_rec(max(report.bw, 1), g.n)
            checks["pad_balance"] = check_padding_preserves_balance(g)
            checks["ranking_height"] = check_ranking_height_bound(g, report.s)
            checks["rank_monotone"] = check_rank_monotone(g, report.r, seed=seed + 17 + i)
            if kind == "tree":
                checks["jordan"] = report.s == 1
                checks["tree_width_one"] = report.tw == 1
            if kind == "chordal":
                checks["clique_separator"] = check_clique_separator(g)
        except WidthlabError as exc:
            error = f"{type(exc).__name__}: {exc}"
        records.append(CorpusRecord(index=i, family=family, n=g.n, checks=checks, error=error))
        if progress is not None and (i + 1) % 25 == 0:
            progress(i + 1, len(entries))
    return records
