"""The CLI's writers against the output they replace: JSON against `json.dumps(indent=2)`,
CSV against one `_fmt` call per cell."""

import hashlib
import json
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import widthlab.audit
from widthlab import cli
from widthlab.audit import CLAIM_IDS, audit_claims
from widthlab.cli import BATCH, Block, Output, _csv_body, _fmt, _json, _json_template, main, render

TEXT = st.text(st.characters(blacklist_categories=()))  # surrogates and controls too
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64), min_value=-(2**200)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]),
    TEXT,
)
KEYS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none())


def _records(inner):
    """Lists of dicts that share one key order, as the table and audit payloads are."""
    return st.lists(KEYS, min_size=1, max_size=3).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, inner)), max_size=4))


VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        _records(inner),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example({})
@example([])
@example(())
@example({True: 1})
@example({False: [], None: {}, 1: (), 2.5: "x"})
@example({"a": [{"b": (1, [2.0, {"c": None}])}]})
@example([{1: 0}, {True: 0}])
@example([{1.0: 0}, {1: 0}])
@example([{"%s": 1}, {"%s": 2}])
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])
@example(({"a": 1}, {"a": [2, "x"]}))
@example([{"a": {"b": 1}}, {"a": {"c": None}}])
@example([{"a": 1}, {}])
def test_writer_matches_json_dumps_indent_2(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    set(),
    object(),
    [1, {2}],
    {"a": {"b": [object()]}},
    {(1, 2): 3},
    [{"a": {1}}, {"a": 2}],
])
def test_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _json(value)


# The corpus of 50 finds violations (the newer chain fails on chordal graphs and Q3), so it exits 1.
EXIT_CODES = {"corpus": 1}


@pytest.mark.parametrize("argv", [
    ("table", "R", "--k", "1:6", "--n", "0:2000", "--format", "json"),
    ("table", "N", "--k", "1:6", "--r", "0:300", "--format", "json"),
    ("audit", "--k-max", "6", "--r-max", "40", "--n-max", "300"),
    ("corpus", "--count", "50", "--format", "json"),
])
def test_command_json_is_json_dumps_indent_2(capsys, argv):
    assert main(list(argv)) == EXIT_CODES.get(argv[0], 0)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# sha256 of stdout, recorded before the writer wrote in batches: each output spans many batches.
# The audit text at the caps was recorded before findings were written in blocks, and the
# corpus outputs (1,099 CSV rows, with a column of bools and error strings) before table entries,
# audit findings and CSV bodies were written through one block writer.
LARGE_OUTPUTS = {
    ("table", "R", "--k", "1:2", "--n", "0:5000", "--format", "csv"):
        "7db120488f6c49f00f9e6b4a3f93ae78bacd6a4bb952719dbfdff2a41c929817",
    ("table", "R", "--k", "1:2", "--n", "0:5000", "--format", "json"):
        "c00ebf106115d8efe036730e851e2246b84eb813fc764286b02255aa7c10b5aa",
    ("table", "N", "--k", "1:3", "--r", "0:2000", "--format", "csv"):
        "fd652cde90c4200e63352fa64e15671f32e7b765e48e20f314b6dd93443a8c92",
    ("table", "N", "--k", "1:3", "--r", "0:2000", "--format", "json"):
        "21e9cf6d4f944c39ece128c20169620d4f2db608053fe44b068482f95877dda2",
    ("audit", "--k-max", "5", "--n-max", "300", "--format", "csv"):
        "f9de11fd5138f57f9b15bf4cb8cf81e6e2cdd6f0f9042408df2722d56e707afc",
    ("audit", "--k-max", "5", "--n-max", "300", "--format", "json"):
        "9b542f98ba2182bb275c359fbbee90df94a1d8d58f35c1d45358e5647a94af44",
    ("audit", "--k-max", "16", "--r-max", "256", "--n-max", "1024", "--format", "text"):
        "75f75397c11709fae97cc47ad39e739c3871b883332089f1da22099f6733f2c2",
    ("corpus", "--count", "50", "--format", "csv"):
        "2af018ea0f38cc1ab4af95349ef49cecd9d2ae8252643adf0f883a81a015c411",
    ("corpus", "--count", "50", "--format", "json"):
        "55627b8616a464104f59e3882488494c9c6b2d2475534a7ec90262553e8a8b68",
}


@pytest.mark.parametrize("argv", LARGE_OUTPUTS, ids=" ".join)
def test_large_output_is_byte_identical(capsys, argv):
    assert main(list(argv)) == EXIT_CODES.get(argv[0], 0)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == LARGE_OUTPUTS[argv]


def _csv_reference(rows) -> str:
    return "".join(",".join(map(_fmt, r)) + "\n" for r in rows)


CELLS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.booleans(),  # an int subclass, spelled true/false
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    TEXT,
)
# A column drawn from one of these is all int, all str, all bool, or mixed.
COLUMNS = st.sampled_from([st.integers(min_value=-(2**70), max_value=2**70), TEXT, st.booleans(), CELLS])
# Rows of one width (1 to 4), with one strategy per column: every CSV body a command writes is so.
ROWS = st.lists(COLUMNS, min_size=1, max_size=4).flatmap(
    lambda cols: st.tuples(st.just(len(cols)), st.lists(st.tuples(*cols), max_size=12)))
CONFIG = {"subcommand": "table", "format": "x"}
HEAD = "# config: subcommand=table format=x\n"


@settings(max_examples=400, deadline=None)
@given(ROWS)
@example((1, []))
@example((2, [(1, 2), (3, 4), (True, 5), (None, 6)]))
@example((2, [("%s", "%d"), ("a,b", "\n")]))
@example((2, [(2**64, -(2**64)), (1.5, float("nan")), (-0.0, float("-inf"))]))
@example((3, [(1, "x", None), (2, False, "%"), (3, 1.5, 2**70)]))
def test_csv_writer_matches_fmt_per_cell(width_rows):
    width, rows = width_rows
    header = [f"c{i}" for i in range(width)]
    text = "".join(render("csv", CONFIG, Output(rows=lambda: _csv_body(header, rows))))
    assert text == HEAD + _csv_reference([header] + rows)


def _entries(count: int) -> list:
    return [{"k": 1 + i % 3, "n": i, "value": i * i} for i in range(count)]


@pytest.mark.parametrize("count", [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 1])
@pytest.mark.parametrize("lazy", [False, True], ids=["list", "iterator"])
def test_batched_json_matches_json_dumps(count, lazy):
    items = _entries(count)
    payload = {"entries": items, "internal_ok": True, "empty": [], "pair": (1, "a")}
    source = {**payload, "entries": iter(items)} if lazy else payload
    text = "".join(render("json", CONFIG, Output(payload=lambda: source)))
    assert text == json.dumps({"config": CONFIG, **payload}, indent=2) + "\n"


@pytest.mark.parametrize("count", [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 1])
def test_records_match_their_dicts(count):
    """A list of `Block`s writes the bytes of the list of dicts it stands for: a column of
    ints and lists, and one of bools and strs, are spelled cell by cell, and `%` in a key or
    a cell is text."""
    keys = ("k", "n%", "value", "%s ok")
    items = _entries(count)
    rows = [(d["k"], d["n"], d["value"] if d["n"] % 5 else [d["n"], "%s"], d["n"] % 3 > 0 or "error %d")
            for d in items]
    dicts = [dict(zip(keys, row)) for row in rows]
    block = Block(_json_template(dict.fromkeys(keys, ...)), list(zip(*rows)) or [()])
    out = Output(payload=lambda: {"entries": [block], "ok": True})
    text = "".join(render("json", CONFIG, out))
    assert text == json.dumps({"config": CONFIG, "entries": dicts, "ok": True}, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(TEXT, min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.tuples(st.just(keys), st.lists(st.tuples(*[SCALARS] * len(keys)), min_size=1, max_size=4))),
    max_size=4))
def test_json_blocks_match_json_dumps(blocks):
    """Blocks of any scalar cells and any key text, NaN, infinities and ints past 2**64 among them."""
    dicts = [dict(zip(keys, row)) for keys, rows in blocks for row in rows]
    payload = [Block(_json_template(dict.fromkeys(keys, ...)), list(zip(*rows))) for keys, rows in blocks]
    text = "".join(render("json", CONFIG, Output(payload=lambda: {"entries": payload})))
    assert text == json.dumps({"config": CONFIG, "entries": dicts}, indent=2) + "\n"


@pytest.mark.parametrize("count", [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 1])
def test_batched_csv_matches_reference(count):
    rows = [(1, i, None if i % 7 == 0 else i * i) for i in range(count)]
    text = "".join(render("csv", CONFIG, Output(rows=lambda: _csv_body(("k", "n", "R"), rows))))
    assert text == HEAD + _csv_reference([("k", "n", "R")] + rows)


# Block sizes whose boundaries fall inside a batch and on either side of a batch boundary.
SIZES = [3, BATCH - 2, 5, BATCH + 7, 1, 2 * BATCH]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_blocks_that_straddle_batches_write_their_rows_in_order(fmt):
    starts = [sum(SIZES[:i]) for i in range(len(SIZES))]
    columns = [(range(start, start + size), [n * n if n % 4 else None for n in range(start, start + size)])
               for start, size in zip(starts, SIZES)]
    dicts = [{"k": k, "n": n, "v": v} for k, (ns, vs) in enumerate(columns) for n, v in zip(ns, vs)]
    if fmt == "json":
        blocks = [Block(_json_template({"k": k, "n": ..., "v": ...}), cols) for k, cols in enumerate(columns)]
        out = Output(payload=lambda: {"entries": blocks})
        expected = json.dumps({"config": CONFIG, "entries": dicts}, indent=2) + "\n"
    else:
        out = Output(rows=lambda: (("k", "n", "v"), [Block(f"{k},%s,%s\n", cols) for k, cols in enumerate(columns)]))
        expected = HEAD + _csv_reference([("k", "n", "v")] + [tuple(d.values()) for d in dicts])
    chunks = list(render(fmt, CONFIG, out))
    assert "".join(chunks) == expected
    if fmt == "csv":  # after the head, BATCH lines per chunk but the last
        total = sum(SIZES)
        assert [chunk.count("\n") for chunk in chunks[1:]] == [BATCH] * (total // BATCH) + [total % BATCH]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_lazy_payload_is_read_one_batch_per_chunk(fmt):
    """A JSON list iterator is read BATCH items per chunk, and a CSV body a block at a time."""
    read = []

    def items():
        for i in range(3 * BATCH):
            read.append(i)
            yield {"k": 1, "n": i}

    def blocks():
        for start in range(0, 3 * BATCH, BATCH // 4):
            read.extend(range(start, start + BATCH // 4))
            yield Block("1,%s\n", [range(start, start + BATCH // 4)])

    out = Output(payload=lambda: {"entries": items()}, rows=lambda: (("k", "n"), blocks()))
    seen = [len(read) for _ in render(fmt, CONFIG, out)]
    assert max(b - a for a, b in zip([0] + seen, seen)) <= BATCH
    assert seen[-1] == 3 * BATCH


def test_writing_the_largest_table_n_json_peaks_small(monkeypatch):
    """Traced peak of writing (not computing) 15.6 MB of `table N` JSON to a null sink.

    Measured 2.5 MiB in batches of 1024 entries, against 67.5 MiB when the
    whole text was made before the write; the bound is 8 MiB, about 3x the
    measured peak."""
    def traced_render(*args):
        tracemalloc.start()
        return render(*args)

    monkeypatch.setattr(cli, "render", traced_render)
    argv = ["table", "N", "--k", "1:24", "--r", "0:4095", "--format", "json", "--output", os.devnull]
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# Audit bounds (k_max, r_max, n_max): each bound at 1, and finding counts of 12, BATCH - 1,
# BATCH and BATCH + 1.
AUDIT_GRID = [(1, 1, 1), (4, 20, 1), (1, 30, 5), (3, 3, 163), (1, 1, 507), (3, 1, 167), (4, 8, 111),
              (2, 4, 247)]


def test_audit_grid_spans_a_batch():
    assert {len(audit_claims(*bounds)) for bounds in AUDIT_GRID} >= {BATCH - 1, BATCH, BATCH + 1}


def _audit_reference(bounds, fmt) -> tuple[int, str]:
    """Exit code and stdout of `audit`, written from each finding as its own `AuditFinding`."""
    findings = list(audit_claims(*bounds))
    summary = {c: {"agree": 0, "disagree": 0, "out_of_domain": 0} for c in CLAIM_IDS}
    for f in findings:
        summary[f.claim]["out_of_domain" if f.agree is None else "agree" if f.agree else "disagree"] += 1
    internal_ok = all(f.agree for f in findings if f.claim == "Eq1")
    config = {"subcommand": "audit", **dict(zip(("k_max", "r_max", "n_max"), bounds)), "format": fmt}
    if fmt == "json":
        doc = {"config": config, "findings": [f.to_json_dict() for f in findings], "summary": summary,
               "internal_ok": internal_ok}
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        rows = [("claim", "inputs", "printed", "oracle", "agree", "note")] + [
            (f.claim, ";".join(f"{k}={v}" for k, v in f.inputs.items()), f.printed, f.oracle, f.agree, f.note)
            for f in findings]
        text = "# config: " + " ".join(f"{k}={v}" for k, v in config.items()) + "\n" + _csv_reference(rows)
    else:
        lines = [f"DISAGREE {f.claim} ({';'.join(f'{k}={v}' for k, v in f.inputs.items())}): "
                 f"printed {f.printed} vs oracle {f.oracle}" for f in findings if f.agree is False]
        counts = [f"{c}: agree={n['agree']} disagree={n['disagree']} out_of_domain={n['out_of_domain']}"
                  for c, n in summary.items()]
        text = "\n".join(lines + [""] + counts) + "\n"
    return (0 if internal_ok else 1), text


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("bounds", AUDIT_GRID, ids=str)
def test_audit_blocks_write_the_bytes_of_their_findings(capsys, bounds, fmt):
    argv = ["audit", "--k-max", str(bounds[0]), "--r-max", str(bounds[1]), "--n-max", str(bounds[2]),
            "--format", fmt]
    code = main(argv)
    assert (code, capsys.readouterr().out) == _audit_reference(bounds, fmt)


def test_audit_writes_no_finding_object(monkeypatch, capsys):
    """Findings are written from their blocks: `main` builds no `AuditFinding` in any format,
    and every block is columns of one length and one type each, printed all None or all int,
    with the verdict stored beside them: printed == oracle, or None out of the claim's domain."""
    built = []
    finding = widthlab.audit.AuditFinding

    def counted(*args):
        built.append(args)
        return finding(*args)

    monkeypatch.setattr(widthlab.audit, "AuditFinding", counted)
    for fmt in ("csv", "json", "text"):
        assert main(["audit", "--k-max", "5", "--r-max", "25", "--n-max", "210", "--format", fmt]) == 0
    assert built == []
    assert len(list(audit_claims(2, 3, 3))) == len(built) > 0  # the count does see a finding built
    for bounds in [(1, 1, 1), (5, 25, 210), (16, 256, 1024)]:
        for block in audit_claims(*bounds).blocks:
            assert len(block.columns) == len(block.keys) + 3 and len(set(map(len, block.columns))) == 1
            kinds = [set(map(type, column)) for column in block.columns]
            assert all(len(k) == 1 for k in kinds) and kinds[-3] <= {int, type(None)}, block.claim
            printed, oracle, agree = block.columns[-3:]
            assert list(agree) == [None if p is None else p == o for p, o in zip(printed, oracle)]
