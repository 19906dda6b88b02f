"""Fuzz the error contract: arbitrary input bytes never end in a traceback.

`parse_edge_list` either returns a graph or raises one of the documented
input errors, and `widthlab compute` turns any input file into one of the
documented exit codes 0-4.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from widthlab.cli import main
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
