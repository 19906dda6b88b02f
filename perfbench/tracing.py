"""Spans around the public functions of each widthlab layer.

The tracer wraps functions from outside the package: every module
attribute that holds a wrapped function is swapped for a recording
wrapper, so calls between modules (verify_chain -> treewidth, cli ->
parse_edge_list, audit -> N_adjoint) are seen wherever the name was
imported.  Spans stay in memory; a layer's self time is its spans'
duration minus the part their child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

# span name -> (module, function).  Every graph generator shares one span.
LAYERS = {
    "cli": [("cli", "main")],
    "graph.parse_edge_list": [("graph", "parse_edge_list")],
    "graph.generate": [
        ("graph", name)
        for name in (
            "path", "path_power", "hypercube", "star", "complete",
            "complete_binary_tree", "random_graph", "random_tree", "random_chordal",
        )
    ],
    "corpus": [("corpus", name) for name in ("random_corpus", "tree_corpus", "named_families")],
    "solvers.verify_chain": [("solvers", "verify_chain")],
    "solvers.bandwidth": [("solvers", "bandwidth")],
    "solvers.treewidth": [("solvers", "treewidth")],
    "solvers.pathwidth": [("solvers", "pathwidth")],
    "solvers.cycle_rank": [("solvers", "cycle_rank")],
    "solvers.separator_ranking": [("solvers", "separator_ranking")],
    "separators.min_balanced_separator": [("separators", "min_balanced_separator")],
    # separator_number_with_witness is split by its `strict` flag below.
    "separators.separator_number": [("separators", "separator_number_with_witness")],
    "closed_forms.N_adjoint": [("closed_forms", "N_adjoint")],
    "closed_forms.build_R_table": [("closed_forms", "build_R_table")],
    "audit.audit_claims": [("audit", "audit_claims")],
}

SEPARATOR_STRICT = "separators.separator_number_strict"
SPAN_NAMES = sorted(set(LAYERS) | {SEPARATOR_STRICT})


class Tracer:
    def __init__(self):
        # One entry per call: [name, parent index or -1, start, end].
        self.spans: list[list] = []
        self._stack: list[int] = []
        # (module, attribute, original function, wrapper)
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name
            if fn.__name__ == "separator_number_with_witness" and kwargs.get(
                "strict", args[1] if len(args) > 1 else False
            ):
                span_name = SEPARATOR_STRICT
            index = len(spans)
            record = [span_name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def attach(self, modules: dict) -> None:
        """Find every module attribute that holds a layer function."""
        for name, targets in LAYERS.items():
            for mod_name, fn_name in targets:
                fn = getattr(modules[mod_name], fn_name)
                wrapper = self._wrap(name, fn)
                for mod in modules.values():
                    for attr, value in vars(mod).items():
                        if value is fn:
                            self._patches.append((mod, attr, fn, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, child seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_s": 0.0})
        for name, parent, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname]["self_s"] -= end - start
                out[pname]["child_s"] += end - start
        return dict(out)


def check_trace(summary: dict, expect: dict) -> list[str]:
    """Problems with a traced run, given the workload's expectations.

    `expect` holds `present` (spans that must have calls), `absent`
    (spans that must not) and `coverage` (parent -> least share of its
    time its child spans must cover).
    """
    problems = []
    for name in expect.get("present", ()):
        if summary.get(name, {}).get("calls", 0) == 0:
            problems.append(f"expected span {name} never ran")
    for name in expect.get("absent", ()):
        if summary.get(name, {}).get("calls", 0):
            problems.append(f"span {name} ran but the workload must not call it")
    for name, least in expect.get("coverage", {}).items():
        row = summary.get(name)
        if not row or row["total_s"] <= 0:
            problems.append(f"coverage parent {name} never ran")
            continue
        share = row["child_s"] / row["total_s"]
        if share < least:
            problems.append(
                f"child spans cover {share:.3f} of {name}, expected at least {least}"
            )
    return problems
