"""The CLI's JSON writer against `json.dumps(indent=2)`, the output it replaces."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab.cli import _json, main

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


@pytest.mark.parametrize("argv", [
    ("table", "R", "--k", "1:6", "--n", "0:2000", "--format", "json"),
    ("table", "N", "--k", "1:6", "--r", "0:300", "--format", "json"),
    ("audit", "--k-max", "6", "--r-max", "40", "--n-max", "300"),
])
def test_command_json_is_json_dumps_indent_2(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
