"""Command-line interface.

Subcommands: gen, compute, verify-chain, table, audit, corpus,
hypercube-report, rank, separator.  Exit codes: 0 success/verified,
1 verification failed, 2 usage or precondition error, 3 malformed
input, 4 size cap exceeded.

All data output goes to stdout (or --output); warnings and progress go
to stderr so the data stream stays machine-clean.  Every report echoes
the run configuration: as a "config" object in JSON, as a single '#'
comment line in CSV.  The echo is the subcommand and every option it
takes except --output, in declaration order.
"""

from __future__ import annotations

import argparse
import ast
import functools
import gc
import itertools
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from typing import Callable, NamedTuple

from . import audit as audit_mod
from . import corpus as corpus_mod
from . import graph as graph_mod
from .closed_forms import (
    TABLE_ENTRIES_MAX,
    TABLE_K_MAX,
    TABLE_N_MAX,
    TABLE_R_MAX,
    build_N_table,
    build_R_table,
)
from .errors import (
    DomainError,
    InvariantViolation,
    MalformedInput,
    SizeLimitExceeded,
    WidthlabError,
)
from .graph import _number, _quote, parse_edge_list, serialize_edge_list
from .separators import (
    MIN_SEPARATOR_CAP,
    check_separator,
    chordal_clique_separator,
    min_balanced_separator,
    separator_number,
)
from .solvers import BW_SEARCH_MAX_N, PARAMS, separator_ranking, solve, verify_chain

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
# Exit code and stderr label of a failure, from the first kind here it is an instance of:
# a WidthlabError of a kind not named before the last entry is a usage or precondition error.
_FAILURES = {InvariantViolation: (EXIT_FAILED, "invariant violated: "), MalformedInput: (3, "malformed input: "),
             SizeLimitExceeded: (4, "size limit: "), WidthlabError: (EXIT_USAGE, "")}

ENV_CAP = "WIDTHLAB_CAP_N"


class UsageError(WidthlabError):
    pass


class Output(NamedTuple):
    """A command's result: each format is built only if it is the one rendered.

    Without a JSON form a command renders as CSV, and without a text form
    its text is CSV too; `gen` has lines only.  A list value of the JSON
    object is a list of `Block`s, or a list, tuple or iterator of plain
    values; `rows` gives the CSV header and the `Block`s of the body.  Both
    are written `BATCH` items at a time, and an iterator of values or of
    blocks is read only as it is written.
    """

    payload: Callable[[], dict] | None = None  # JSON object after "config"
    rows: Callable[[], tuple[Sequence[str], Iterable[Block]]] | None = None  # CSV header, body blocks
    lines: Callable[[], list[str]] | None = None
    code: int = EXIT_OK


class Block(NamedTuple):
    """Rows of one shape, given as their columns (sequences of one length, at least one) and
    written by `_filled` through one `%` template that has one `%s` slot per column."""

    template: str
    columns: Sequence[Sequence]


# ---------------------------------------------------------------------------
# Rendering and I/O


_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALARS = {str: _encode_str, int: int.__repr__, float: lambda x: _FLOAT_WORDS.get(repr(x)) or repr(x),
            bool: {False: "false", True: "true"}.__getitem__, type(None): lambda _: "null"}
_CELLS = {bool: _SCALARS[bool], type(None): lambda _: "", float: float.__repr__}
# Top-level JSON list items, or CSV rows, made and written at a time: enough to
# amortise each write, few enough that a large table is never held as text.
BATCH = 1024


def _fmt(value) -> str:
    return _CELLS.get(type(value), str)(value)


def _refuse(value):
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    """A JSON object key: one that is no str is spelled as json spells the value, then quoted."""
    return _encode_str(key if type(key) is str else _SCALARS.get(type(key), _refuse)(key))


def _json(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)`, byte for byte; strings go through json's C escaper."""
    if type(value) in _SCALARS:
        return _SCALARS[type(value)](value)
    inner = indent + "  "
    if type(value) is dict:
        items = [f"{_key(k)}: {_SCALARS[type(v)](v) if type(v) in _SCALARS else _json(v, inner)}"
                 for k, v in value.items()]
    elif type(value) is list or type(value) is tuple:
        items = _column(value, inner)
    else:
        _refuse(value)
    ends = "{}" if type(value) is dict else "[]"
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}" if items else ends


def _column(values, indent: str) -> list[str]:
    """`[_json(v, indent) for v in values]`, by one `map` when the values share a scalar type."""
    types = set(map(type, values))
    if len(types) == 1 and (kind := next(iter(types))) in _SCALARS:
        return list(map(_SCALARS[kind], values))
    return [_json(v, indent) for v in values]


def _literal(text: str) -> str:
    """`text` as fixed text of a `%` template."""
    return text.replace("%", "%%")


def _json_template(shape: dict, indent: str = "    ") -> str:
    """The `%` template of the JSON objects laid out as `shape`, each an item of a top-level
    list (or nested at `indent`): a value `...` is a slot, a dict value a nested object, and
    any other value fixed text."""
    inner = indent + "  "
    items = [_literal(f"{_key(key)}: ") + ("%s" if value is ... else _json_template(value, inner)
                                            if type(value) is dict else _literal(_json(value, inner)))
             for key, value in shape.items()]
    return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"


def _csv_body(header: Sequence[str], rows: Iterable[Sequence]) -> tuple[Sequence[str], list[Block]]:
    """A CSV header, and a body of `rows` with one cell per column of it."""
    return header, [Block(",".join(["%s"] * len(header)) + "\n", list(zip(*rows)) or [()])]


def _batches(items: Iterable) -> Iterator[list]:
    """`items` in lists of BATCH, the last one shorter (itertools.batched is Python 3.12+)."""
    items = iter(items)
    while batch := list(itertools.islice(items, BATCH)):
        yield batch


def _filled(blocks: Iterable[Block], cells: dict, other: Callable) -> Iterator[Iterator[str]]:
    """The rows of `blocks`, each filled into its block's template, in batches of BATCH that
    may span blocks, the last one shorter.  Per block and batch, a column that is a range or
    all exact ints fills its slots as it is, and any other has each cell spelled by
    `cells[type]`, else `other`: by one `map` when the cells share a type.  A batch fills its
    rows as it is read, so their text lives only inside the join that reads it."""
    parts, count = [], 0
    for template, columns in blocks:
        start, stop = 0, len(columns[0])
        while start < stop:
            end = min(stop, start + BATCH - count)
            batch = [column[start:end] for column in columns]
            for i, column in enumerate(batch):
                if type(column) is not range and (kinds := set(map(type, column))) != {int}:
                    batch[i] = (map(cells.get(kinds.pop(), other), column) if len(kinds) == 1
                                else [cells.get(type(v), other)(v) for v in column])
            parts.append(map(template.__mod__, zip(*batch)))
            count += end - start
            start = end
            if count == BATCH:
                yield itertools.chain.from_iterable(parts)
                parts, count = [], 0
    if parts:
        yield itertools.chain.from_iterable(parts)


def _json_chunks(doc: dict) -> Iterator[str]:
    """`_json(doc) + "\n"` for a non-empty `doc`, in chunks: a value that is a list, tuple or
    iterator is written BATCH items at a time, so it may be made as it is written, and a list
    of `Block`s as the JSON items of their rows."""
    sep = "{\n  "
    for key, value in doc.items():
        head = f"{sep}{_key(key)}: "
        sep = ",\n  "
        if type(value) is list and value and type(value[0]) is Block:
            batches = _filled(value, _SCALARS, functools.partial(_json, indent="      "))
        elif type(value) is list or type(value) is tuple or isinstance(value, Iterator):
            batches = map(functools.partial(_column, indent="    "), _batches(value))
        else:
            yield head + _json(value, "  ")
            continue
        start = "[\n    "
        for batch in batches:
            yield head + start + ",\n    ".join(batch)
            head, start = "", ",\n    "
        yield (head + "[]") if head else "\n  ]"  # head is left only if the list was empty
    yield "\n}\n"


def render(fmt: str, config: dict, out: Output) -> Iterator[str]:
    """The one place output text is made, as chunks to write in order: JSON (one exact
    writer, byte-identical to `json.dumps(indent=2)` with ASCII escapes), '#'-config CSV,
    or text lines."""
    if fmt == "json" and out.payload is not None:
        yield from _json_chunks({"config": config, **out.payload()})
    elif out.rows is not None and (fmt != "text" or out.lines is None):
        parts = " ".join(f"{k}={_fmt(v) if v is not None else '-'}" for k, v in config.items())
        header, blocks = out.rows()
        yield f"# config: {parts}\n" + ",".join(header) + "\n"
        yield from map("".join, _filled(blocks, _CELLS, str))
    else:
        yield "\n".join(out.lines()) + "\n"


def _emit(args, chunks: Iterable[str]) -> None:
    """Write each chunk as it is made, to --output or stdout."""
    if args.output and args.output != "-":
        try:
            with open(args.output, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.writelines(chunks)


def _read_graph(args):
    if not args.input:
        raise UsageError("--input is required (use '-' for stdin)")
    try:
        if args.input == "-":
            text = sys.stdin.read()
            # Under a C or POSIX locale stdin decodes with surrogateescape, so
            # bytes that are not UTF-8 arrive as lone surrogates: encoding fails.
            text.encode("utf-8")
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeError as exc:
        raise MalformedInput(f"input is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from exc
    return parse_edge_list(text)


def _effective_cap(args, default: int, deep_default: int | None = None,
                   layout_search: bool = False) -> int:
    """The cap in force, refused if negative; a raise above `default` is warned, each distinct warning once.
    The warning names the cost: subset states, or with `layout_search` (bandwidth)
    the fixed n ceiling that no cap raises."""
    env = os.environ.get(ENV_CAP)
    if args.cap_n is not None:
        cap = args.cap_n
    elif env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"{ENV_CAP} must be an integer, got {_quote(env)}")
    else:
        cap = deep_default if deep_default is not None and args.deep else default
    if cap < 0:
        source = "--cap-n" if args.cap_n is not None else ENV_CAP
        raise UsageError(f"{source} must be >= 0, got {_number(cap)}")
    if cap > default:
        cost = (f"bandwidth keeps no subset table, and refuses n > {BW_SEARCH_MAX_N} whatever the cap"
                if layout_search else f"expect on the order of 2^{_number(cap)} subset states")
        warning = f"warning: cap raised {default} -> {_number(cap)}; {cost}"
        if warning not in args.warned_raises:
            args.warned_raises.add(warning)
            print(warning, file=sys.stderr)
    return cap


def _param_caps(args, names) -> dict[str, int]:
    """Cap per parameter, each resolved by `_effective_cap`."""
    return {name: _effective_cap(args, PARAMS[name].cap, PARAMS[name].deep_cap, layout_search=name == "bw")
            for name in names}


def _parse_range(text: str, what: str) -> tuple[int, int]:
    """'a' or 'a:b' (inclusive)."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            a = b = int(parts[0])
        elif len(parts) == 2:
            a, b = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"bad {what} range {_quote(text)}; expected 'a' or 'a:b'")
    if a > b:
        raise UsageError(f"empty {what} range {_quote(text)}")
    return a, b


# ---------------------------------------------------------------------------
# gen

# Family -> generator arguments, in call order.  The generator is the
# graph-module function of the family's name ("random" -> random_graph).
_FAMILY_PARAMS = {
    "path": ("n",),
    "path_power": ("n", "k"),
    "hypercube": ("d",),
    "star": ("n",),
    "complete": ("n",),
    "complete_binary_tree": ("d",),
    "random": ("n", "p", "seed"),
    "random_tree": ("n", "seed"),
    "random_chordal": ("n", "width", "seed"),
}
_GENERATOR_NAMES = {"random": "random_graph"}


def cmd_gen(args) -> Output:
    family = args.family
    needed = _FAMILY_PARAMS[family]
    for name in needed:
        if getattr(args, name) is None:
            raise UsageError(f"family {family!r} requires --{name}")
    generate = getattr(graph_mod, _GENERATOR_NAMES.get(family, family))
    g = generate(*(getattr(args, name) for name in needed))
    header = "# widthlab gen " + " ".join(
        f"{name}={getattr(args, name)}" for name in ("family",) + needed
    )
    return Output(lines=lambda: [header] + serialize_edge_list(g).splitlines())


# ---------------------------------------------------------------------------
# compute / verify-chain


def _witness_compact(wit: dict) -> str:
    """Comma-free one-cell rendering of a witness dict for CSV output."""
    parts = []
    for key, val in wit.items():
        if isinstance(val, dict):
            val = " ".join(f"{k}:{v}" for k, v in val.items())
        elif isinstance(val, list):
            val = " ".join(map(str, val))
        parts.append(f"{key}={val}")
    return "|".join(parts)


def cmd_compute(args) -> Output:
    g = _read_graph(args)
    wanted = [p.strip() for p in args.params.split(",") if p.strip()]
    if not wanted:
        raise UsageError(f"no parameter given; choose from {','.join(PARAMS)}")
    for i, p in enumerate(wanted):
        if p not in PARAMS:
            raise UsageError(f"unknown parameter {_quote(p)}; choose from {','.join(PARAMS)}")
        if p in wanted[:i]:
            raise UsageError(f"parameter {_quote(p)} is given more than once")
    values, witnesses = solve(g, _param_caps(args, wanted))
    return Output(
        payload=lambda: {"n": g.n, "values": values, "witnesses": witnesses},
        rows=lambda: _csv_body(
            ["n"] + wanted + [f"witness_{p}" for p in wanted],
            [[g.n] + [values[p] for p in wanted] + [_witness_compact(witnesses[p]) for p in wanted]],
        ),
        lines=lambda: [f"n = {g.n}"] + [f"{p} = {values[p]}" for p in wanted],
    )


def _chain_lines(report) -> list[str]:
    lines = [f"n        = {report.n}"]
    lines += [f"{'s~' if p == 's_strict' else p:<8} = {getattr(report, p)}" for p in PARAMS]
    lines += [
        f"chain    s <= tw <= pw <= r : {_fmt(report.s <= report.tw <= report.pw <= report.r)}",
        f"r <= s(1+log(n/s))          : {_fmt(report.thm9_bound_holds)} (bound {report.thm9_bound_display:.4f})",
        f"r <= 1 + s~ log n           : {_fmt(report.thm2_bound_holds)} (bound {report.thm2_bound_display:.4f})",
        f"thm9_ok  = {_fmt(report.thm9_ok)}",
        f"thm2_ok  = {_fmt(report.thm2_ok)}",
    ]
    if report.flags:
        lines.append("flags    = " + ", ".join(report.flags))
    return lines


def cmd_verify_chain(args) -> Output:
    report = verify_chain(_read_graph(args), _param_caps(args, PARAMS))
    cols = ["n", *PARAMS, "thm9_ok", "thm2_ok"]
    return Output(
        payload=report.to_json_dict,
        rows=lambda: _csv_body(
            cols + ["thm9_bound", "thm2_bound"],
            [[getattr(report, c) for c in cols] + [report.thm9_bound_display, report.thm2_bound_display]],
        ),
        lines=lambda: _chain_lines(report),
        code=EXIT_OK if report.thm9_ok and report.thm2_ok else EXIT_FAILED,
    )


# ---------------------------------------------------------------------------
# table / audit


def cmd_table(args) -> Output:
    x_name, x_max = {"R": ("n", TABLE_N_MAX), "N": ("r", TABLE_R_MAX)}[args.what]
    if getattr(args, x_name) is None:
        raise UsageError(f"table {args.what} requires --{x_name}")
    k_lo, k_hi = _parse_range(args.k, "k")
    lo, hi = _parse_range(getattr(args, x_name), x_name)
    if k_lo < 1 or lo < 0:
        raise DomainError(f"table needs k >= 1 and {x_name} >= 0")
    size = (k_hi - k_lo + 1) * (hi + 1)
    if k_hi > TABLE_K_MAX or hi > x_max or size > TABLE_ENTRIES_MAX:
        raise SizeLimitExceeded(
            f"table {args.what} with k <= {_number(k_hi)}, {x_name} <= {_number(hi)} "
            f"({_number(size)} entries) exceeds "
            f"the caps k <= {TABLE_K_MAX}, {x_name} <= {x_max}, {TABLE_ENTRIES_MAX} entries"
        )
    ks = range(k_lo, k_hi + 1)
    if args.what == "N":  # a closed form per r: only lo..hi are evaluated
        tables = [(k, build_N_table(k, hi, lo)) for k in ks]
    else:  # each R entry reads earlier ones, so the table starts at 0
        tables = [(k, build_R_table(k, hi)) for k in ks]
        for _, values in tables:
            del values[:lo]  # in place: a slice would hold a copy beside each table
    xs = range(lo, hi + 1)
    return Output(
        payload=lambda: {"entries": [Block(_json_template({"k": k, x_name: ..., "value": ...}), (xs, values))
                                     for k, values in tables]},
        rows=lambda: (("k", x_name, args.what), [Block(f"{k},%s,%s\n", (xs, values)) for k, values in tables]),
    )


def _audit_blocks(findings: audit_mod.AuditFindings, fmt: str) -> list[Block]:
    """The findings as blocks of JSON list items or CSV lines, or of text lines that name the
    disagreements alone.  The inputs that a block's findings share are fixed text."""
    blocks = []
    for claim, shared, keys, columns in findings.blocks:
        note = audit_mod.OUT_OF_DOMAIN if columns[-1][0] is None else ""
        if fmt == "json":
            shape = {"claim": claim, "inputs": {**shared, **dict.fromkeys(keys, ...)},
                     "printed": ..., "oracle": ..., "agree": ...}
            blocks.append(Block(_json_template({**shape, "note": note} if note else shape), columns))
            continue
        inputs = ";".join([*(_literal(f"{key}={_fmt(value)}") for key, value in shared.items()),
                           *(_literal(key) + "=%s" for key in keys)])
        if fmt == "csv":
            blocks.append(Block(f"{_literal(claim)},{inputs},%s,%s,%s,{_literal(note)}\n", columns))
        else:
            disagree = [agree is False for agree in columns[-1]]
            blocks.append(Block(f"DISAGREE {_literal(claim)} ({inputs}): printed %s vs oracle %s",
                                [list(itertools.compress(column, disagree)) for column in columns[:-1]]))
    return blocks


def cmd_audit(args) -> Output:
    findings = audit_mod.audit_claims(args.k_max, args.r_max, args.n_max)
    summary = audit_mod.audit_summary(findings)
    internal_ok = audit_mod.audit_internal_ok(findings)
    counts = [
        f"{claim}: agree={c['agree']} disagree={c['disagree']} out_of_domain={c['out_of_domain']}"
        for claim, c in summary.items()
    ]
    for line in counts:
        print("audit summary " + line, file=sys.stderr)

    return Output(
        payload=lambda: {
            "findings": _audit_blocks(findings, "json"), "summary": summary, "internal_ok": internal_ok,
        },
        rows=lambda: (("claim", "inputs", "printed", "oracle", "agree", "note"), _audit_blocks(findings, "csv")),
        lines=lambda: [*itertools.chain.from_iterable(_filled(_audit_blocks(findings, "text"), _CELLS, str)),
                       "", *counts],
        code=EXIT_OK if internal_ok else EXIT_FAILED,
    )


# ---------------------------------------------------------------------------
# corpus / hypercube-report


def cmd_corpus(args) -> Output:
    def progress(done, total):
        print(f"corpus: {done}/{total} graphs checked", file=sys.stderr)

    records = corpus_mod.run_corpus(args.count, args.n_max, args.seed, progress=progress)
    violations = sum(0 if rec.ok() else 1 for rec in records)

    def rows():
        for rec in records:
            yield from ((rec.index, rec.family, rec.n, c, ok) for c, ok in rec.checks.items())
            if rec.error:
                yield rec.index, rec.family, rec.n, "error", rec.error

    def lines():
        out = [f"graphs checked: {len(records)}", f"violations: {violations}"]
        for rec in records:
            if not rec.ok():
                bad = [c for c, ok in rec.checks.items() if not ok]
                detail = ", ".join(str(part) for part in (bad, rec.error) if part)
                out.append(f"  FAIL #{rec.index} {rec.family}: {detail}")
        return out

    return Output(
        payload=lambda: {
            "graphs": (rec.to_json_dict() for rec in records),
            "summary": {"graphs": len(records), "violations": violations},
        },
        rows=lambda: _csv_body(("index", "family", "n", "check", "ok"), rows()),
        lines=lines,
        code=EXIT_OK if violations == 0 else EXIT_FAILED,
    )


def _flat_rows(obj: dict, prefix: str = "") -> list[list]:
    rows = []
    for key, val in obj.items():
        name = f"{prefix}.{key}" if prefix else key
        rows.extend(_flat_rows(val, name) if isinstance(val, dict) else [[name, val]])
    return rows


def cmd_hypercube_report(args) -> Output:
    report = audit_mod.hypercube_report(args.d)
    bw, bounds = report["bw"], report["bounds"]
    return Output(
        payload=lambda: report,
        rows=lambda: _csv_body(["field", "value"], _flat_rows(report)),
        lines=lambda: [
            f"hypercube d={report['d']} (n={report['n']})",
            f"bandwidth:  exact={bw['exact']} printed-formula={bw['harper_printed']} "
            f"standard-formula={bw['harper_standard']} (using {bw['used']}, {bw['source']})",
            f"cycle rank: {report['r_exact']}",
            f"pathwidth:  {report['pw_exact']} (pw == bw: {_fmt(report['pw_equals_bw'])})",
            f"bound r <= R_bw(n):        {bounds['recurrence_height']} "
            f"(holds: {_fmt(bounds['recurrence_holds_for_r'])})",
            f"bound bw(1+log(n/bw)):     {bounds['log_bound']['display']:.4f} "
            f"(holds: {_fmt(bounds['log_bound']['holds_for_r'])})",
            f"bound bw*log(n/bw) (as printed): {bounds['log_bound_no_leading_term']['display']:.4f} "
            f"(holds: {_fmt(bounds['log_bound_no_leading_term']['holds_for_r'])})",
            f"older-chain contrast 1+(bw+1)d:  {bounds['older_chain_contrast']['display']:.1f} "
            f"(exceeds n: {_fmt(bounds['older_chain_contrast']['exceeds_order'])})",
        ],
    )


# ---------------------------------------------------------------------------
# rank / separator


def cmd_rank(args) -> Output:
    g = _read_graph(args)
    if args.k is not None:
        k = args.k
    else:
        k = max(separator_number(g, cap=_effective_cap(args, PARAMS["s"].cap)), 1)
    ranking = separator_ranking(g, k, cap=_effective_cap(args, MIN_SEPARATOR_CAP))
    levels = sorted(ranking.level.items())
    return Output(
        payload=lambda: {"k": k, **ranking.to_json_dict()},
        rows=lambda: _csv_body(["vertex", "level"], levels),
        lines=lambda: [f"k = {k}", f"height = {ranking.height}"]
        + [f"vertex {v}: level {l}" for v, l in levels],
    )


def cmd_separator(args) -> Output:
    if args.strict and args.chordal_clique:
        raise UsageError("--chordal-clique tests non-strict balance only; drop --strict")
    g = _read_graph(args)
    cap = _effective_cap(args, MIN_SEPARATOR_CAP)
    if args.chordal_clique:
        clique, cert = chordal_clique_separator(g, cap=cap)
        head = {"clique": list(clique)}
    else:
        size, witness = min_balanced_separator(g, strict=args.strict, cap=cap)
        cert = check_separator(g, witness)
        head = {"size": size}
    c = cert.to_json_dict()
    return Output(
        payload=lambda: {**head, "certificate": c},
        rows=lambda: _csv_body(
            ["x", "component_sizes", "balanced", "strictly_balanced"],
            [[" ".join(map(str, c["x"])), " ".join(map(str, c["component_sizes"])),
              c["balanced"], c["strictly_balanced"]]],
        ),
        lines=lambda: [
            f"x = {c['x']}",
            f"component sizes = {c['component_sizes']}",
            f"balanced = {_fmt(c['balanced'])}",
            f"strictly balanced = {_fmt(c['strictly_balanced'])}",
        ],
    )


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse, with a long rejected number, choice or subcommand shortened, each value that
    starts like a negative number ('-5', '-1e-05', '-inf') read as a value, and an option
    a subcommand does not take refused by that subcommand's parser."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes '-1e-05' and '-inf' for options; no option here looks like a number.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        bad = re.fullmatch(r"(argument .*?: invalid (?:choice|\w+ value): )(.*?)( \(choose from [^()]*\))?",
                           message)
        if bad and (quoted := _quote(ast.literal_eval(bad[2]))) != bad[2]:
            message = bad[1] + quoted  # the usage line above lists any choices
        super().error(message)


def _opt(*flags, **kwargs) -> tuple:
    """One option: the arguments of its `add_argument` call."""
    return flags, kwargs


# Options that several subcommands take.
_INPUT = _opt("--input", help="edge-list file, or '-' for stdin")
_FORMAT = _opt("--format", choices=("json", "csv", "text"), default="json",
               help="output format (default %(default)s)")
_SEED = _opt("--seed", type=int, default=0)
_CAP_N = _opt("--cap-n", type=int, help=f"override solver size caps (env {ENV_CAP} is a weaker override)")
_DEEP = _opt("--deep", action="store_true",
             help="raise the bandwidth and cycle-rank caps of compute and verify-chain "
                  "(hypercube-report only echoes it)")

# Subcommand -> handler, help, parser defaults, and every option it takes but
# --output, in the order of its config echo.
_COMMANDS = {
    "gen": (cmd_gen, "generate a named graph family", {"format": "text"}, [
        _opt("--family", required=True, choices=sorted(_FAMILY_PARAMS)), _opt("--n", type=int), _opt("--k", type=int),
        _opt("--d", type=int), _opt("--p", type=float), _opt("--width", type=int), _SEED]),
    "compute": (cmd_compute, "compute width parameters", {}, [
        _INPUT, _FORMAT, _opt("--params", default=",".join(PARAMS)), _SEED, _CAP_N, _DEEP]),
    "verify-chain": (cmd_verify_chain, "verify both inequality chains; exit 0 iff they hold", {}, [
        _INPUT, _FORMAT, _SEED, _CAP_N, _DEEP]),
    "table": (cmd_table, "recurrence / adjoint tables", {"format": "csv"}, [
        _opt("what", choices=("R", "N")), _opt("--k", required=True, help="k value or range a:b"),
        _opt("--n", help="n range for R tables"), _opt("--r", help="r range for N tables"), _FORMAT]),
    "audit": (cmd_audit, "closed-form claims audit", {}, [
        _opt("--k-max", type=int, default=4), _opt("--r-max", type=int, default=20),
        _opt("--n-max", type=int, default=40), _FORMAT]),
    "corpus": (cmd_corpus, "seeded property-check corpus run", {}, [
        _opt("--count", type=int, default=50), _opt("--n-max", type=int, default=10), _SEED, _FORMAT]),
    "hypercube-report": (cmd_hypercube_report, "hypercube width report", {}, [
        _opt("--d", type=int, required=True), _DEEP, _FORMAT]),
    "rank": (cmd_rank, "separator-based vertex ranking", {}, [_INPUT, _opt("--k", type=int), _FORMAT, _CAP_N]),
    "separator": (cmd_separator, "balanced separator certificates", {}, [
        _INPUT, _opt("--strict", action="store_true"), _opt("--chordal-clique", action="store_true"),
        _FORMAT, _CAP_N]),
}


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="widthlab", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_text, defaults, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", help="output file (default stdout)")
        config = tuple(p.add_argument(*flags, **kwargs).dest for flags, kwargs in options)
        p.set_defaults(func=func, config=config, **defaults)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    args.warned_raises = set()  # cap-raise warnings printed so far: each is printed once
    try:
        out = args.func(args)
        config = {"subcommand": args.subcommand, **{key: getattr(args, key) for key in args.config}}
        # Writing makes many short-lived objects and no reference cycles, so cyclic GC is
        # paused for it alone: the solvers above leave cycles that only a collection frees.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            _emit(args, render(args.format, config, out))
        finally:
            if gc_was_enabled:
                gc.enable()
        return out.code
    except WidthlabError as exc:
        code, label = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
        print(f"error: {label}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
