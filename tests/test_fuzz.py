"""Fuzz the error contract: arbitrary inputs never end in a traceback.

`parse_edge_list` either returns a graph or raises one of the documented
input errors, `widthlab compute` turns any input file into one of the
documented exit codes 0-4, and so does `widthlab gen` for any family and
argument values.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from widthlab.cli import _FAMILY_PARAMS, main
from widthlab.errors import MalformedInput, SizeLimitExceeded
from widthlab.graph import parse_edge_list


@st.composite
def edge_list_like(draw):
    """Bytes close to the edge-list format, so the fuzz reaches past the header.

    Headers and pairs are drawn near the valid range, lines are sometimes
    cut, commented or joined by stray separators, and a few bytes may be
    overwritten with arbitrary ones.
    """
    n = draw(st.integers(0, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=10))
    m = draw(st.sampled_from([len(pairs), max(len(pairs) - 1, 0), len(pairs) + 1]))
    lines = [f"{n} {m}"] + [f"{min(u, v)} {max(u, v)}" for u, v in pairs]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# " + draw(st.text(max_size=8)))
    sep = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", " \n", "\n\n"]))
    data = bytearray((sep.join(lines) + draw(st.sampled_from(["\n", "", " "]))).encode())
    for _ in range(draw(st.integers(0, 2))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


INPUTS = st.one_of(st.binary(max_size=200), edge_list_like())


@settings(max_examples=300, deadline=None)
@given(INPUTS)
def test_parse_edge_list_raises_only_input_errors(data):
    text = data.decode("utf-8", "surrogateescape")
    try:
        g = parse_edge_list(text)
    except MalformedInput:
        return
    except SizeLimitExceeded as exc:  # a header with more vertices than any generator makes
        assert "exceeds cap" in str(exc)
        return
    assert g.n >= 0


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(INPUTS)
def test_compute_returns_a_documented_exit_code(tmp_path, capsys, data):
    f = tmp_path / "g.txt"
    f.write_bytes(data)
    code = main(["compute", "--input", str(f), "--params", "s,tw,pw", "--cap-n", "8"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in captured.err
    assert (code == 0) == (captured.out != "")


# Vertex counts stay far below the generator cap. `complete --n 65536` is
# refused at once by the work bound (tests/test_cli.py), but `path --n 65536`
# passes it and still takes about 300 MiB: its adjacency bitmasks hold about n^2/2 bits.
GEN_ARGS = {
    "n": st.integers(-3, 200),
    "k": st.integers(-3, 20),
    "width": st.integers(-3, 20),
    "seed": st.integers(-2**70, 2**70),
    "p": st.one_of(st.floats(-0.5, 1.5),
                   st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.5])),
    "d": st.one_of(st.integers(-3, 12), st.integers(17, 10**6)),
}


@st.composite
def gen_argv(draw):
    family = draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
    argv = ["gen", "--family", family]
    for name in _FAMILY_PARAMS[family]:
        argv += [f"--{name}", str(draw(GEN_ARGS[name]))]
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gen_argv())
@example(["gen", "--family", "complete_binary_tree", "--d", "100000"])
def test_gen_returns_a_documented_exit_code(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        # argparse exits 2 itself on a value it cannot parse. A negative number such
        # as "--p -1e-05" is not one: main joins it to its option, so it reaches the
        # range check.
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in captured.err
    assert (code == 0) == (captured.out != "")
