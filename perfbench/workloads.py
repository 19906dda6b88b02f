"""The three benchmark workloads: inputs, operations and output checks.

Each workload turns a seed into a fixed list of `Op`s.  An op runs one
user-visible call (a `widthlab` command through `cli.main`, or one
library call) and returns a plain result; `check` replays that result
with `replay` and `encode` gives the bytes its digest is taken over.
`corrupt` damages a result in a way `check` must catch; the smoke test
uses it to prove that the checks are live.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from typing import Callable

import replay

MODULES = ("cli", "graph", "corpus", "solvers", "separators", "closed_forms", "audit")
# Fixed here rather than read from widthlab, so a program change cannot move the inputs.
DENSITY_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    encode: Callable[[object], bytes]
    corrupt: Callable[[object], object]
    layer: str = ""


def load_widthlab() -> dict:
    """Import widthlab afresh (dropping any loaded copy) and return its modules."""
    for name in [m for m in sys.modules if m == "widthlab" or m.startswith("widthlab.")]:
        del sys.modules[name]
    mods = {"widthlab": importlib.import_module("widthlab")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"widthlab.{name}")
    return mods


# ---------------------------------------------------------------------------
# Command-line ops


def run_cli(mods: dict, argv: list, stdin_text: str = "") -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = mods["cli"].main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def encode_cli(result) -> bytes:
    code, text = result
    return f"{code}\n{text}".encode()


def _cli_check(allowed_codes, check_text):
    def check(result):
        code, text = result
        if code not in allowed_codes:
            return [f"exit code {code}"]
        return check_text(code, text)

    return check


def _rewrite_json(mutate):
    def corrupt(result):
        code, text = result
        doc = json.loads(text)
        mutate(doc)
        return code, json.dumps(doc, indent=2) + "\n"

    return corrupt


def _break_bw_layout(doc):
    layout = doc["witnesses"]["bw"]["layout"]
    layout[-1] = layout[0]


# ---------------------------------------------------------------------------
# Library ops


def encode_value(result) -> bytes:
    return json.dumps(result, sort_keys=True).encode()


def _bump_value(result):
    value, witness = result
    return value + 1, witness


def _levels(ranking) -> dict:
    return {int(v): l for v, l in ranking.level.items()}


def _flatten_levels(result):
    """Every vertex on level 1: invalid for any graph with an edge."""
    k, levels = result
    return k, {v: 1 for v in levels}


# ---------------------------------------------------------------------------
# chain_corpus


def chain_corpus(mods: dict, seed: int):
    """Acceptance-5 corpus through `widthlab verify-chain`, one graph per op.

    The 200 random graphs stay at corpus seed 1 for every benchmark seed:
    their cost is set by a few dense n = 10 graphs whose bandwidth search
    takes 0.3-9 s each, so a per-seed random corpus moves the total between
    7 and 29 s.  The trees, which make up the op median, follow the seed;
    seed 1 reproduces the acceptance-5 corpus exactly.
    """
    corpus, graph = mods["corpus"], mods["graph"]
    entries = (
        corpus.random_corpus(200, 10, 1)
        + corpus.tree_corpus(100, 12, seed + 1)
        + corpus.named_families()
    )
    ops, shapes = [], []
    for i, (family, g) in enumerate(entries):
        text = graph.serialize_edge_list(g)
        adj = replay.adjacency(g.n, g.edges())
        shapes.append((g.n, g.num_edges()))

        def check_text(code, text, adj=adj):
            try:
                report = json.loads(text)
            except ValueError as exc:
                return [f"stdout is not JSON: {exc}"]
            return replay.chain_problems(adj, report, code)

        ops.append(Op(
            name=f"{i}:{family}",
            run=lambda text=text: run_cli(mods, ["verify-chain", "--input", "-"], text),
            check=_cli_check((0, 1), check_text),
            encode=encode_cli,
            corrupt=_rewrite_json(_break_bw_layout),
            layer="cli",
        ))
    return ops, shapes


# ---------------------------------------------------------------------------
# subset_dp


def _min_degree_width(adj) -> int:
    """Width of the greedy min-degree elimination order: an upper bound on tw."""
    work = [set(a) for a in adj]
    alive = set(range(len(adj)))
    width = 0
    while alive:
        v = min(alive, key=lambda u: (len(work[u]), u))
        nb = work[v]
        width = max(width, len(nb))
        for u in nb:
            work[u] |= nb - {u}
            work[u].discard(v)
        alive.discard(v)
    return width


def subset_dp(mods: dict, seed: int):
    """Direct calls into every subset-DP layer at its default cap.

    No op calls bandwidth.  The treewidth, pathwidth, cycle-rank and
    n = 20 graphs are fixed seeded graphs (seed 7 is the ROADMAP baseline
    graph) under a relabelling drawn from the benchmark seed: a fresh
    random graph per seed moved the pass time between 8.8 and 12.6 s,
    mostly through the separator size of the n = 20 graphs, while a
    relabelling changes the witnesses and enumeration order but not the
    amount of work.  One n = 12 separator table costs about 25 ms, so
    separator numbers run on 40 seeded random graphs to weigh as much as
    one n = 18 treewidth table.  Separator rankings use k = (min-degree
    width) + 1, which is at least tw + 1 and so at least the separator
    number: the ranking never runs out of separator budget.
    """
    graph = mods["graph"]
    rng = random.Random(seed)
    ops, shapes = [], []

    def add(name, g, call, check, layer, corrupt=_bump_value):
        adj = replay.adjacency(g.n, g.edges())
        shapes.append((g.n, g.num_edges()))
        ops.append(Op(name, lambda: call(g), lambda res: check(adj, res),
                      encode_value, corrupt, layer))

    def order_check(measure, what):
        return lambda adj, res: replay.order_problems(adj, res[1], res[0], measure, what)

    def tw(g):
        value, order = mods["solvers"].treewidth(g)
        return value, list(order)

    def pw(g):
        value, order = mods["solvers"].pathwidth(g)
        return value, list(order)

    def rank(g):
        value, ranking = mods["solvers"].cycle_rank(g)
        return value, _levels(ranking)

    def rank_check(adj, res):
        value, levels = res
        problems = replay.ranking_problems(adj, levels)
        if max(levels.values(), default=0) != value:
            problems.append(f"ranking height differs from r = {value}")
        return problems

    def relabel(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return graph.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])

    dp_graphs = [
        ("random(16,0.3,7)", relabel(graph.random_graph(16, 0.3, 7))),
        ("random(16,0.5,7)", relabel(graph.random_graph(16, 0.5, 7))),
        ("random(18,0.3,7)", relabel(graph.random_graph(18, 0.3, 7))),
        ("hypercube(4)", relabel(graph.hypercube(4))),
    ]
    for label, g in dp_graphs:
        add(f"tw {label}", g, tw, order_check(replay.elimination_width, "tw"), "solvers.treewidth")
        add(f"pw {label}", g, pw, order_check(replay.vertex_separation, "pw"), "solvers.pathwidth")
    for label, g in dp_graphs[::3]:
        add(f"r {label}", g, rank, rank_check, "solvers.cycle_rank")

    for i in range(40):
        p = DENSITY_LADDER[i % len(DENSITY_LADDER)]
        g = graph.random_graph(12, p, rng.getrandbits(63))
        for strict in (False, True):
            def sep(g, strict=strict):
                return list(mods["separators"].separator_number_with_witness(g, strict=strict))

            def sep_check(adj, res, strict=strict):
                return replay.separator_witness_problems(adj, res[0], res[1], strict, "s")

            layer = "separators.separator_number" + ("_strict" if strict else "")
            add(f"s{'~' if strict else ''} random(12,{p}) #{i}", g, sep, sep_check, layer)

    def mbs(g):
        size, x = mods["separators"].min_balanced_separator(g)
        return size, list(x)

    def mbs_check(adj, res):
        size, x = res
        if len(x) != size or not replay.balanced(adj, range(len(adj)), x, strict=False):
            return [f"separator {x} is not a balanced separator of size {size}"]
        return []

    def ranking_check(adj, res):
        k, levels = res
        problems = replay.ranking_problems(adj, levels)
        height = max(levels.values(), default=0)
        if height > replay.recurrence(k, len(adj)):
            problems.append(f"ranking height {height} exceeds R_{k}({len(adj)})")
        return problems

    for i, (p, base_seed) in enumerate([(0.3, 7), (0.25, 8)] * 2):
        g = relabel(graph.random_graph(20, p, base_seed))
        k = _min_degree_width(replay.adjacency(g.n, g.edges())) + 1

        def ranking(g, k=k):
            return k, _levels(mods["solvers"].separator_ranking(g, k))

        add(f"mbs random(20,{p},{base_seed}) #{i}", g, mbs, mbs_check,
            "separators.min_balanced_separator")
        add(f"rank k={k} random(20,{p},{base_seed}) #{i}", g, ranking, ranking_check,
            "solvers.separator_ranking", _flatten_levels)
    return ops, shapes


# ---------------------------------------------------------------------------
# recurrence_cli


def _parse_csv(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config:"):
        raise ValueError("missing config comment")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _table_problems(what: str, k_range, x_range, rows) -> list[str]:
    """rows: (k, x, value) triples of a `table R` (x = n) or `table N` (x = r)."""
    expected = [(k, x) for k in k_range for x in x_range]
    if [(k, x) for k, x, _ in rows] != expected:
        return [f"table {what} rows do not cover the requested ranges in order"]
    for k, x, value in rows:
        if what == "R":
            if value != replay.recurrence(k, x):
                return [f"R_{k}({x}) = {value}, expected {replay.recurrence(k, x)}"]
        else:
            problems = replay.adjoint_problems(k, x, value)
            if problems:
                return problems
    return []


def _table_op(mods, what, k_lo, k_hi, hi, fmt):
    flag = "--n" if what == "R" else "--r"
    argv = ["table", what, "--k", f"{k_lo}:{k_hi}", flag, f"0:{hi}", "--format", fmt]
    k_range, x_range = range(k_lo, k_hi + 1), range(hi + 1)

    def check_text(code, text):
        try:
            if fmt == "csv":
                header, body = _parse_csv(text)
                rows = [tuple(map(int, row)) for row in body]
                if header != ["k", "n" if what == "R" else "r", what]:
                    return [f"unexpected header {header}"]
            else:
                entries = json.loads(text)["entries"]
                key = "n" if what == "R" else "r"
                rows = [(e["k"], e[key], e["value"]) for e in entries]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed table output: {exc!r}"]
        return _table_problems(what, k_range, x_range, rows)

    def corrupt(result):
        code, text = result
        head, last = text.rstrip("\n").rsplit("\n", 1)
        if fmt == "csv":
            k, x, v = last.split(",")
            last = f"{k},{x},{int(v) + 1}"
            return code, f"{head}\n{last}\n"
        doc = json.loads(text)
        doc["entries"][-1]["value"] += 1
        return code, json.dumps(doc, indent=2) + "\n"

    return Op(" ".join(argv), lambda: run_cli(mods, argv), _cli_check((0,), check_text),
              encode_cli, corrupt, "cli")


def _audit_rows(fmt: str, text: str) -> tuple[list, dict | None, bool | None]:
    """(claim, inputs, printed, oracle, agree) rows plus the JSON summary."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [(f["claim"], f["inputs"], f["printed"], f["oracle"], f["agree"])
                for f in doc["findings"]]
        return rows, doc["summary"], doc["internal_ok"]
    header, body = _parse_csv(text)
    if header != ["claim", "inputs", "printed", "oracle", "agree", "note"]:
        raise ValueError(f"unexpected header {header}")

    def cell(x):
        return {"": None, "true": True, "false": False}.get(x, x)

    rows = []
    for claim, inputs, printed, oracle, agree, _note in body:
        parsed = {}
        for part in inputs.split(";"):
            key, value = part.split("=")
            parsed[key] = int(value) if value.lstrip("-").isdigit() else value
        rows.append((claim, parsed,
                     None if printed == "" else int(printed),
                     None if oracle == "" else int(oracle), cell(agree)))
    return rows, None, None


def _audit_problems(rows, summary, internal_ok, code, k_max, r_max, n_max) -> list[str]:
    eq1 = [(i["k"], i["n"]) for c, i, *_ in rows if c == "Eq1"]
    if eq1 != [(k, n) for k in range(1, k_max + 1) for n in range(n_max + 1)]:
        return ["Eq1 rows do not cover k = 1..k_max, n = 0..n_max"]
    adjoint = {}
    for claim, inputs, printed, oracle, agree in rows:
        if claim == "Eq1" and oracle != replay.recurrence(inputs["k"], inputs["n"]):
            return [f"Eq1 oracle R_{inputs['k']}({inputs['n']}) = {oracle} is wrong"]
        if claim == "C6.2":
            problems = replay.adjoint_problems(inputs["k"], inputs["r"], oracle)
            if problems:
                return problems
            adjoint[inputs["k"], inputs["r"]] = oracle
        if printed is not None and agree != (printed == oracle):
            return [f"{claim} {inputs}: agree = {agree} for printed {printed}, oracle {oracle}"]
    for claim, inputs, _printed, oracle, _agree in rows:
        if claim == "C6.1":
            k, j = inputs["k"], inputs["j"]
            if oracle != adjoint[k, j] - adjoint.get((k, j - 1), 0):
                return [f"C6.1 oracle for k={k}, j={j} is not N_k(j) - N_k(j-1)"]
    all_eq1 = all(a for c, _i, _p, _o, a in rows if c == "Eq1")
    if summary is not None:
        counted = {}
        for claim, _i, _p, _o, agree in rows:
            row = counted.setdefault(claim, {"agree": 0, "disagree": 0, "out_of_domain": 0})
            row["out_of_domain" if agree is None else "agree" if agree else "disagree"] += 1
        if {c: v for c, v in summary.items() if any(v.values())} != counted:
            return ["audit summary does not match the findings"]
        if internal_ok != all_eq1:
            return ["internal_ok does not match the Eq1 rows"]
    if code != (0 if all_eq1 else 1):
        return [f"exit code {code} does not match the Eq1 rows"]
    return []


def _audit_op(mods, k_max, r_max, n_max, fmt):
    argv = ["audit", "--k-max", str(k_max), "--r-max", str(r_max), "--n-max", str(n_max),
            "--format", fmt]

    def check_text(code, text):
        try:
            rows, summary, internal_ok = _audit_rows(fmt, text)
            return _audit_problems(rows, summary, internal_ok, code, k_max, r_max, n_max)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed audit output: {exc!r}"]

    def corrupt(result):
        code, text = result
        if fmt == "json":
            doc = json.loads(text)
            doc["findings"][0]["oracle"] += 1
            return code, json.dumps(doc, indent=2) + "\n"
        lines = text.split("\n")
        cells = lines[2].split(",")
        cells[3] = str(int(cells[3]) + 1)
        lines[2] = ",".join(cells)
        return code, "\n".join(lines)

    return Op(" ".join(argv), lambda: run_cli(mods, argv), _cli_check((0, 1), check_text),
              encode_cli, corrupt, "cli")


def recurrence_cli(mods: dict, seed: int):
    """Many mid-size `table N`, `table R` and `audit` commands.

    The k ranges cycle in a fixed order and the seed moves each upper
    bound within a few percent, so one pass sums hundreds of similar
    calls instead of a few huge ones whose time swings from run to run.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(240):
        kind, fmt = divmod(i % 6, 2)
        fmt = ("csv", "json")[fmt]
        turn = i // 6
        if kind == 0:
            k_lo = 1 + turn % 6
            ops.append(_table_op(mods, "N", k_lo, k_lo + 2, rng.randint(112, 118), fmt))
        elif kind == 1:
            k_lo = 1 + turn % 12
            ops.append(_table_op(mods, "R", k_lo, k_lo + 3, rng.randint(1150, 1250), fmt))
        else:
            ops.append(_audit_op(mods, 3 + turn % 3, rng.randint(23, 25),
                                 rng.randint(190, 210), fmt))
    return ops, [op.name for op in ops]


def one_op_per_kind(ops) -> list:
    """The first op of each kind: its name with the numbers taken out."""
    picked = {}
    for op in ops:
        picked.setdefault((op.layer, re.sub(r"[-\d.,=:#()]+", "", op.name)), op)
    return list(picked.values())


WORKLOADS = {
    "chain_corpus": chain_corpus,
    "subset_dp": subset_dp,
    "recurrence_cli": recurrence_cli,
}

# What a traced run of each workload must show (see tracing.check_trace).
TRACE_EXPECT = {
    "chain_corpus": {
        "present": ["cli", "graph.parse_edge_list", "graph.generate", "corpus",
                    "solvers.verify_chain", "separators.separator_number",
                    "separators.separator_number_strict", "solvers.treewidth",
                    "solvers.pathwidth", "solvers.bandwidth", "solvers.cycle_rank"],
        "coverage": {"cli": 0.8, "solvers.verify_chain": 0.9},
    },
    "subset_dp": {
        "present": ["graph.generate", "solvers.treewidth", "solvers.pathwidth",
                    "solvers.cycle_rank", "separators.separator_number",
                    "separators.separator_number_strict", "separators.min_balanced_separator",
                    "solvers.separator_ranking"],
        "absent": ["solvers.bandwidth", "cli"],
    },
    "recurrence_cli": {
        "present": ["cli", "closed_forms.N_adjoint", "closed_forms.build_R_table",
                    "audit.audit_claims"],
        "coverage": {"cli": 0.2},
    },
}

# Layers whose allocation peak the tracemalloc pass of subset_dp records.
MEMORY_LAYERS = ("solvers.treewidth", "solvers.pathwidth", "solvers.cycle_rank",
                 "separators.separator_number")
