import dataclasses
import gc
import inspect
import json
import re
from pathlib import Path

import pytest

from widthlab import (
    InvariantViolation,
    SizeLimitExceeded,
    WidthlabError,
    chordal_clique_separator,
    min_balanced_separator,
    path,
    random_graph,
    separator_ranking,
    verify_chain,
)
from widthlab import cli as cli_mod
from widthlab import corpus as corpus_mod
from widthlab import errors as errors_mod
from widthlab import graph as graph_mod
from widthlab import separators as separators_mod
from widthlab import solvers as solvers_mod
from widthlab.audit import AUDIT_K_MAX, AUDIT_N_MAX, AUDIT_R_MAX
from widthlab.cli import _FAILURES, EXIT_FAILED, EXIT_OK, EXIT_USAGE, UsageError, main
from widthlab.closed_forms import TABLE_ENTRIES_MAX, TABLE_K_MAX, TABLE_N_MAX, TABLE_R_MAX
from widthlab.corpus import CORPUS_COUNT_MAX, CORPUS_N_MAX
from widthlab.graph import GENERATOR_CAP, GENERATOR_WORK_CAP
from widthlab.separators import MIN_SEPARATOR_CAP, SEPARATOR_TABLE_MAX_N
from widthlab.solvers import (
    BW_SEARCH_MAX_N,
    PARAMS,
    PW_TABLE_MAX_N,
    RANK_TABLE_MAX_N,
    TW_TABLE_MAX_N,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


PATH8 = "8 7\n" + "".join(f"{i} {i + 1}\n" for i in range(7))
K5 = "5 10\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5))


# --- gen -------------------------------------------------------------------


def test_gen_path(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--family", "path", "--n", "5")
    assert code == 0
    assert "5 4\n" in out
    assert out.startswith("# widthlab gen family=path n=5\n")


def test_gen_hypercube(capsys):
    code, out, _ = run(capsys, "gen", "--family", "hypercube", "--d", "3")
    assert code == 0
    assert "8 12\n" in out


def test_gen_deterministic_bytes(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen", "--family", "random", "--n", "8", "--p", "0.3", "--seed", "7"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_missing_param_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--family", "random", "--n", "5")
    assert code == 2
    assert "requires" in err


@pytest.mark.parametrize("family", ["hypercube", "complete_binary_tree"])
def test_gen_huge_dimension_exit4(capsys, family):
    # refused before 2^d is computed or formatted into the message
    code, out, err = run(capsys, "gen", "--family", family, "--d", "100000")
    assert code == 4
    assert out == "" and "size limit" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--family", "complete", "--n", "65536"],
    ["--family", "random", "--n", "65536", "--p", "0.0", "--seed", "1"],
    ["--family", "path_power", "--n", "65536", "--k", "65536"],
    ["--family", "random_chordal", "--n", "65536", "--width", "2000"],
], ids=["complete", "random", "path_power", "random_chordal"])
def test_gen_refuses_oversized_work_exit4(capsys, monkeypatch, argv):
    # refused before a pair is drawn or a graph is built
    def built(*args, **kwargs):
        raise AssertionError("work was done")

    monkeypatch.setattr(graph_mod, "Graph", built)
    monkeypatch.setattr(graph_mod, "SplitMix64", built)
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: size limit: generator refuses ")
    assert err.endswith(f" > {GENERATOR_WORK_CAP}\n")


# --- compute ----------------------------------------------------------------


def test_compute_params(capsys, tmp_path):
    path_file = write_graph(tmp_path, PATH8)
    code, out, _ = run(capsys, "compute", "--input", path_file, "--params", "r,tw")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == {"r": 4, "tw": 1}
    assert payload["config"]["subcommand"] == "compute"


def test_compute_s_on_complete(capsys, tmp_path):
    k5 = write_graph(tmp_path, K5)
    code, out, _ = run(capsys, "compute", "--input", k5, "--params", "s")
    assert code == 0
    assert json.loads(out)["values"]["s"] == 4


def test_compute_csv(capsys, tmp_path):
    path_file = write_graph(tmp_path, PATH8)
    code, out, _ = run(capsys, "compute", "--input", path_file, "--params", "tw,pw",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "n,tw,pw,witness_tw,witness_pw"
    assert lines[2].startswith("8,1,1,elimination_order=")


def test_compute_malformed_exit3(capsys, tmp_path):
    bad = write_graph(tmp_path, "3 1\n0 3\n")
    code, _, err = run(capsys, "compute", "--input", bad, "--params", "tw")
    assert code == 3
    assert "line 2" in err


def test_compute_cap_exit4(capsys, tmp_path):
    big = "30 0\n"
    f = write_graph(tmp_path, big)
    code, _, _ = run(capsys, "compute", "--input", f, "--params", "r")
    assert code == 4


@pytest.mark.parametrize("param", ["tw", "pw", "s", "r"])
def test_compute_refuses_oversized_subset_table_exit4(capsys, tmp_path, param):
    # --cap-n admits the 70-vertex path, but its 2^70-set table is refused
    # up front: exit 4 with one error line, not an OverflowError traceback.
    path70 = "70 69\n" + "".join(f"{i} {i + 1}\n" for i in range(69))
    f = write_graph(tmp_path, path70)
    code, out, err = run(capsys, "compute", "--input", f, "--params", param, "--cap-n", "70")
    assert code == 4
    assert out == "" and "Traceback" not in err
    lines = [line for line in err.splitlines() if not line.startswith("warning: cap raised")]
    assert len(lines) == 1 and lines[0].startswith("error: size limit: ")
    assert "no cap raises this" in lines[0]


def test_compute_refuses_pathwidth_above_its_lattice_ceiling_exit4(capsys, tmp_path):
    # Pathwidth keeps lattice sets, not a byte table, so its ceiling sits
    # below the treewidth one: a path just above it is refused at a cap that
    # admits it.
    n = PW_TABLE_MAX_N + 1
    f = write_graph(tmp_path, f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    code, out, err = run(capsys, "compute", "--input", f, "--params", "pw", "--cap-n", str(n))
    assert (code, out) == (4, "")
    assert PW_TABLE_MAX_N < TW_TABLE_MAX_N
    assert err.splitlines()[-1] == (
        f"error: size limit: pathwidth: n = {n} > {PW_TABLE_MAX_N}, the largest subset table "
        f"that fits in 256 MiB; no cap raises this"
    )


def test_compute_unknown_param_exit2(capsys, tmp_path):
    f = write_graph(tmp_path, PATH8)
    code, _, _ = run(capsys, "compute", "--input", f, "--params", "zz")
    assert code == 2


@pytest.mark.parametrize("params", ["", ",", " , "])
def test_compute_empty_param_list_exit2(capsys, tmp_path, params):
    # refused as an unknown name is, rather than printing only n
    f = write_graph(tmp_path, PATH8)
    code, out, err = run(capsys, "compute", "--input", f, "--params", params)
    assert (code, out) == (2, "")
    assert err == "error: no parameter given; choose from s,s_strict,tw,pw,bw,r\n"


@pytest.mark.parametrize("params, repeated", [("s,tw,s", "s"), ("bw,bw", "bw")])
def test_compute_repeated_param_exit2(capsys, tmp_path, params, repeated):
    # Refused before any solver runs, as an unknown name is: a repeated name
    # would run its solver twice and print its CSV column and text line twice.
    f = write_graph(tmp_path, PATH8)
    code, out, err = run(capsys, "compute", "--input", f, "--params", params)
    assert (code, out) == (2, "")
    assert err == f"error: parameter '{repeated}' is given more than once\n"


def test_compute_refuses_a_path_above_the_bandwidth_search_ceiling_exit4(capsys, tmp_path):
    # --cap-n admits the path, but the layout search, one frame per position,
    # would exceed the recursion limit: exit 4 with one error line.
    n = 1500
    f = write_graph(tmp_path, f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    code, out, err = run(capsys, "compute", "--input", f, "--params", "bw", "--cap-n", "2000")
    assert (code, out) == (4, "")
    lines = [line for line in err.splitlines() if not line.startswith("warning: cap raised")]
    assert lines == [f"error: size limit: bandwidth: n = {n} > {BW_SEARCH_MAX_N}, the deepest "
                     f"layout search, one stack frame per position; no cap raises this"]


def test_missing_or_unreadable_input_exit2(capsys, tmp_path):
    assert run(capsys, "compute") == (2, "", "error: --input is required (use '-' for stdin)\n")
    for bad in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, "compute", "--input", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {bad}: ") and len(err.splitlines()) == 1


# --- verify-chain -------------------------------------------------------------


def test_verify_chain_path8(capsys, tmp_path):
    f = write_graph(tmp_path, PATH8)
    code, out, _ = run(capsys, "verify-chain", "--input", f)
    assert code == 0
    payload = json.loads(out)
    assert payload["thm9_ok"] and payload["thm2_ok"]
    assert payload["r"] == 4


def test_verify_chain_n1_exit2(capsys, tmp_path):
    f = write_graph(tmp_path, "1 0\n")
    code, _, _ = run(capsys, "verify-chain", "--input", f)
    assert code == 2


def test_verify_chain_violation_exit1(capsys, tmp_path):
    # Q3 fails the newer chain (s = 4 > tw = 3): report + exit 1
    q3 = "8 12\n" + "".join(
        f"{u} {u | (1 << b)}\n" for u in range(8) for b in range(3) if not (u >> b) & 1
    )
    f = write_graph(tmp_path, q3)
    code, out, _ = run(capsys, "verify-chain", "--input", f)
    assert code == 1
    payload = json.loads(out)
    assert payload["thm9_ok"] is False and payload["thm2_ok"] is True


# --- one lattice pass per separator number --------------------------------------


@pytest.fixture
def separator_calls(monkeypatch):
    """Calls of `separator_number_with_witness` and of its lattice pass
    `_balanced_sets`, each with its strictness, in call order, wherever a
    module holds them by name, as the benchmark's tracer finds them."""
    calls = []
    separator = separators_mod.separator_number_with_witness

    def counting(fn):
        def wrapper(*args, **kwargs):
            strict = kwargs.get("strict", args[1] if len(args) > 1 else False)
            calls.append((fn.__name__, strict))
            return fn(*args, **kwargs)
        return wrapper

    for fn in (separator, separators_mod._balanced_sets):
        wrapper = counting(fn)
        for mod in (separators_mod, solvers_mod, cli_mod):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def _one_pass_each(*strictnesses):
    """One separator-number call per strictness, in this order, each
    running its own lattice pass."""
    return [call for strict in strictnesses
            for call in (("separator_number_with_witness", strict), ("_balanced_sets", strict))]


def test_verify_chain_fills_the_separator_table_once(separator_calls):
    g = random_graph(8, 0.5, 2400)
    verify_chain(g)
    assert separator_calls == _one_pass_each(False, True)
    # solve: in the order of its caps, each as the parameter alone gives it
    separator_calls.clear()
    caps = {"s_strict": 12, "tw": 12, "s": 12}
    values, witnesses = solvers_mod.solve(g, caps)
    assert separator_calls == _one_pass_each(True, False)
    assert list(values) == list(witnesses) == list(caps)
    assert {name: (values[name], witnesses[name]) for name in caps} == {
        name: PARAMS[name].run(g, cap) for name, cap in caps.items()}


@pytest.mark.parametrize("argv", [
    ("verify-chain",),
    ("compute", "--params", "s,s_strict"),
    ("compute", "--params", "s_strict,s"),
    ("compute", "--params", "s_strict,tw,s"),
])
def test_both_strictnesses_fill_the_separator_table_once(capsys, tmp_path, separator_calls, argv):
    code, _, _ = run(capsys, *argv, "--input", write_graph(tmp_path, PATH8))
    assert code == 0
    names = argv[-1].split(",") if argv[0] == "compute" else list(PARAMS)
    assert separator_calls == _one_pass_each(*(name == "s_strict" for name in names if name in ("s", "s_strict")))


@pytest.mark.parametrize("strict", [False, True])
def test_one_strictness_runs_the_single_fill(capsys, tmp_path, separator_calls, strict):
    separators_mod.separator_number_with_witness(path(8), strict)
    assert separator_calls == _one_pass_each(strict)
    separator_calls.clear()
    param = "s_strict" if strict else "s"
    code, _, _ = run(capsys, "compute", "--params", f"{param},tw", "--input", write_graph(tmp_path, PATH8))
    assert code == 0
    assert separator_calls == _one_pass_each(strict)
    separator_calls.clear()
    solvers_mod.solve(path(8), {param: 12})
    assert separator_calls == _one_pass_each(strict)


@pytest.mark.parametrize("params", ["s,s_strict", "s_strict,s"])
@pytest.mark.parametrize("lowered", ["s", "s_strict"])
def test_lower_cap_on_one_strictness_is_refused_as_alone(capsys, tmp_path, monkeypatch, params, lowered):
    # The paired fill runs after the first call's size check, so the
    # refusal is the one the lowered strictness gives on its own.
    refusal = "separator_number: n = 8 > cap 5"
    with pytest.raises(SizeLimitExceeded) as exc:
        verify_chain(path(8), {lowered: 5, "tw": 4})
    assert str(exc.value) == refusal
    with pytest.raises(SizeLimitExceeded) as exc:
        solvers_mod.solve(path(8), {name: 5 if name == lowered else 12 for name in params.split(",")})
    assert str(exc.value) == refusal
    monkeypatch.setitem(PARAMS, lowered, dataclasses.replace(PARAMS[lowered], cap=5))
    f = write_graph(tmp_path, PATH8)
    assert run(capsys, "compute", "--input", f, "--params", params) == (4, "", f"error: size limit: {refusal}\n")


# --- table ----------------------------------------------------------------------


def test_table_R(capsys):
    code, out, _ = run(capsys, "table", "R", "--k", "1", "--n", "1:8")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "k,n,R"
    values = [int(line.split(",")[2]) for line in lines[2:]]
    assert values == [1, 2, 2, 3, 3, 3, 3, 4]


def test_table_N(capsys):
    code, out, _ = run(capsys, "table", "N", "--k", "2", "--r", "1:6")
    assert code == 0
    values = [int(line.split(",")[2]) for line in out.splitlines()[2:]]
    assert values == [1, 2, 3, 5, 7, 11]


def test_table_R_k5(capsys):
    code, out, _ = run(capsys, "table", "R", "--k", "5", "--n", "1:6")
    values = [int(line.split(",")[2]) for line in out.splitlines()[2:]]
    assert values == [1, 2, 3, 4, 5, 6]


def test_table_bad_range_exit2(capsys):
    code, _, _ = run(capsys, "table", "R", "--k", "3:1", "--n", "1:4")
    assert code == 2


@pytest.mark.parametrize("k", ["1:2:3", "x"])
def test_table_malformed_range_exit2(capsys, k):
    assert run(capsys, "table", "R", "--k", k, "--n", "1:4") == (
        2, "", f"error: bad k range '{k}'; expected 'a' or 'a:b'\n")


@pytest.mark.parametrize("what, x_name", [("R", "n"), ("N", "r")])
def test_table_without_its_range_exit2(capsys, what, x_name):
    assert run(capsys, "table", what, "--k", "1") == (2, "", f"error: table {what} requires --{x_name}\n")


# --- audit -----------------------------------------------------------------------


def test_audit_csv_contains_required_row(capsys):
    code, out, err = run(capsys, "audit", "--k-max", "4", "--r-max", "20",
                         "--format", "csv")
    assert code == 0
    assert "C6.2,k=2;r=4,6,5,false," in out
    assert "audit summary Eq1" in err


def test_audit_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "audit", "--k-max", "3", "--r-max", "8", "--n-max", "12")
    code2, out2, _ = run(capsys, "audit", "--k-max", "3", "--r-max", "8", "--n-max", "12")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["internal_ok"] is True
    assert payload["summary"]["Eq1"]["disagree"] == 0


# --- corpus ----------------------------------------------------------------------


def test_corpus_empty(capsys):
    code, out, _ = run(capsys, "corpus", "--count", "0", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphs"] == [] and payload["summary"]["violations"] == 0


def test_corpus_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["corpus", "--count", "6", "--n-max", "7", "--seed", "3"]
    main(args + ["--output", str(a)])
    main(args + ["--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--n-max", str(CORPUS_N_MAX + 1)],
    ["--count", str(CORPUS_COUNT_MAX + 1)],
])
def test_corpus_refuses_oversized_requests_exit4(capsys, monkeypatch, argv):
    def drawn(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(corpus_mod, "random_graph", drawn)
    code, out, err = run(capsys, "corpus", *argv, "--seed", "1")
    assert code == 4
    assert out == "" and "size limit" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, count, n_max", [
    (["--n-max", "0"], 50, 0),
    (["--n-max", "1"], 50, 1),
    (["--count", "-3"], -3, 10),
])
def test_corpus_refuses_negative_count_and_n_max_below_2_exit2(capsys, argv, count, n_max):
    code, out, err = run(capsys, "corpus", *argv, "--seed", "1")
    assert (code, out) == (2, "")
    assert err == (f"error: corpus needs count >= 0 and n_max >= 2, "
                   f"got count = {count}, n_max = {n_max}\n")


def test_corpus_error_record_in_json_and_csv(capsys):
    # record 7 is the 6-vertex chordal graph on which no small clique separates
    error = "InvariantViolation: no clique of order <= 2 is a balanced separator of this graph"
    argv = ["corpus", "--count", "4", "--n-max", "6", "--seed", "94"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    rec = json.loads(out)["graphs"][7]
    assert (rec["family"], rec["ok"], rec["error"]) == ("chordal(n=6,w=2)", False, error)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 1
    assert f"7,chordal(n=6,w=2),6,error,{error}\n" in out


def test_corpus_error_record_in_text(capsys, monkeypatch):
    def broken(g):
        raise InvariantViolation("planted")

    monkeypatch.setattr(corpus_mod, "verify_chain", broken)
    code, out, _ = run(capsys, "corpus", "--count", "2", "--n-max", "3", "--seed", "1",
                       "--format", "text")
    assert code == 1
    assert "  FAIL #0 random(n=3,p=0.1): InvariantViolation: planted\n" in out


def test_corpus_text_names_both_the_failed_checks_and_the_error(capsys):
    code, out, _ = run(capsys, "corpus", "--count", "4", "--n-max", "6", "--seed", "94",
                       "--format", "text")
    assert code == 1
    assert ("  FAIL #7 chordal(n=6,w=2): ['chain', 'sep_le_tw'], InvariantViolation: "
            "no clique of order <= 2 is a balanced separator of this graph\n") in out
    # a record with failed checks and no error keeps its line
    assert "  FAIL #35 hypercube(3): ['chain', 'sep_le_tw']\n" in out


def test_corpus_small_run(capsys):
    code, out, _ = run(capsys, "corpus", "--count", "4", "--n-max", "6", "--seed", "9")
    payload = json.loads(out)
    assert payload["summary"]["graphs"] == len(payload["graphs"]) > 4
    for rec in payload["graphs"]:
        assert rec["checks"].get("pad_balance", True)


# --- hypercube-report -------------------------------------------------------------


def test_hypercube_report_d3(capsys):
    code, out, _ = run(capsys, "hypercube-report", "--d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["bw"]["exact"] == 4
    assert payload["bw"]["harper_printed"] == 12
    assert payload["pw_equals_bw"] is True


def test_hypercube_report_d4_deep_text_is_exact(capsys):
    code, out, _ = run(capsys, "hypercube-report", "--d", "4", "--deep", "--format", "text")
    assert code == 0
    assert "exact=7" in out and "pw == bw: true" in out
    assert "None" not in out


def test_hypercube_report_d5_exit4(capsys):
    code, _, _ = run(capsys, "hypercube-report", "--d", "5")
    assert code == 4
    code, _, _ = run(capsys, "hypercube-report", "--d", "4")  # no --deep needed
    assert code == 0


# --- rank / separator --------------------------------------------------------------


def test_rank_on_path(capsys, tmp_path):
    f = write_graph(tmp_path, PATH8)
    code, out, _ = run(capsys, "rank", "--input", f, "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["height"] <= 4
    assert set(payload["levels"]) == {str(v) for v in range(8)}


def test_separator_cert(capsys, tmp_path):
    f = write_graph(tmp_path, PATH8)
    code, out, _ = run(capsys, "separator", "--input", f)
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 1
    assert payload["certificate"]["balanced"] is True


def test_separator_chordal_clique_on_nonchordal_exit2(capsys, tmp_path):
    q2 = "4 4\n0 1\n0 2\n1 3\n2 3\n"
    f = write_graph(tmp_path, q2)
    code, _, _ = run(capsys, "separator", "--input", f, "--chordal-clique")
    assert code == 2


def test_separator_strict_chordal_clique_exit2(capsys, tmp_path):
    # The clique routine tests non-strict balance only, so the pair is refused
    # instead of echoing strict=true over a non-strict answer.
    f = write_graph(tmp_path, PATH8)
    assert run(capsys, "separator", "--input", f, "--strict", "--chordal-clique") == (
        2, "", "error: --chordal-clique tests non-strict balance only; drop --strict\n")


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(PATH8))
    code, out, _ = run(capsys, "compute", "--input", "-", "--params", "bw")
    assert code == 0
    assert json.loads(out)["values"]["bw"] == 1


def test_env_cap_override(capsys, tmp_path, monkeypatch):
    f = write_graph(tmp_path, "14 0\n")
    code, _, _ = run(capsys, "compute", "--input", f, "--params", "bw")
    assert code == 4  # default bandwidth cap is 12
    monkeypatch.setenv("WIDTHLAB_CAP_N", "14")
    code, out, err = run(capsys, "compute", "--input", f, "--params", "bw")
    assert code == 0
    assert "cap raised" in err
    # explicit flag beats the environment
    code, _, _ = run(capsys, "compute", "--input", f, "--params", "bw", "--cap-n", "10")
    assert code == 4


@pytest.mark.parametrize("command", ["compute", "rank"])
@pytest.mark.parametrize("source", ["--cap-n", "WIDTHLAB_CAP_N"])
def test_negative_cap_exit2(capsys, tmp_path, monkeypatch, command, source):
    # A negative cap is a usage error, refused before any solver runs.
    f = write_graph(tmp_path, PATH8)
    if source == "--cap-n":
        flags = ["--cap-n", "-1"]
    else:
        monkeypatch.setenv(source, "-1")
        flags = []
    assert run(capsys, command, "--input", f, *flags) == (
        2, "", f"error: {source} must be >= 0, got -1\n")
    # A cap of 0 is accepted, and refuses the 8-vertex graph as a size limit.
    code, out, err = run(capsys, command, "--input", f, "--cap-n", "0")
    assert (code, out) == (4, "") and err.startswith("error: size limit: ")


def _cap_warning(default, cap, layout_search=False):
    cost = (f"bandwidth keeps no subset table, and refuses n > {BW_SEARCH_MAX_N} whatever the cap"
            if layout_search else f"expect on the order of 2^{cap} subset states")
    return f"warning: cap raised {default} -> {cap}; {cost}"


@pytest.mark.parametrize("flags, raises", [
    (["--cap-n", "30"], [(12, 30), (18, 30), (12, 30, True), (16, 30)]),
    (["--deep", "--cap-n", "30"], [(12, 30), (18, 30), (12, 30, True), (16, 30)]),
    (["--deep"], [(12, 16, True), (16, 20)]),
])
def test_each_cap_raise_is_warned_once(capsys, tmp_path, flags, raises):
    # Each distinct warning is printed once: s and s_strict share one for 12, tw and pw
    # one for 18. bw's raise from 12 has its own, since its layout search keeps no subset table.
    f = write_graph(tmp_path, PATH8)
    for command in ("compute", "verify-chain"):
        code, _, err = run(capsys, command, "--input", f, *flags)
        assert code in (0, 1)
        assert err.splitlines() == [_cap_warning(*r) for r in raises]


def test_bandwidth_cap_raise_makes_no_subset_state_claim(capsys, tmp_path):
    f = write_graph(tmp_path, PATH8)
    code, _, err = run(capsys, "compute", "--input", f, "--params", "bw,s", "--cap-n", "30")
    assert code == 0
    assert err == (f"warning: cap raised 12 -> 30; bandwidth keeps no subset table, and "
                   f"refuses n > {BW_SEARCH_MAX_N} whatever the cap\n"
                   f"warning: cap raised 12 -> 30; expect on the order of 2^30 subset states\n")


def test_rank_with_too_small_k_exit2(capsys, tmp_path):
    f = write_graph(tmp_path, K5)
    code, _, err = run(capsys, "rank", "--input", f, "--k", "1")
    assert code == 2
    assert "separator" in err


def test_audit_text_format(capsys):
    code, out, _ = run(capsys, "audit", "--k-max", "2", "--r-max", "6",
                       "--n-max", "8", "--format", "text")
    assert code == 0
    assert "DISAGREE C6.2 (k=2;r=4): printed 6 vs oracle 5" in out
    assert "Eq1: agree=" in out


def test_verify_chain_text_format(capsys, tmp_path):
    f = write_graph(tmp_path, PATH8)
    code, out, _ = run(capsys, "verify-chain", "--input", f, "--format", "text")
    assert code == 0
    assert "thm9_ok  = true" in out and "thm2_ok  = true" in out


def test_verify_chain_text_format_prints_flags(capsys, tmp_path):
    f = write_graph(tmp_path, "3 0\n")
    code, out, _ = run(capsys, "verify-chain", "--input", f, "--format", "text")
    assert code == 0
    assert out.endswith("flags    = disconnected-input, thm9-bound-evaluated-at-k=1\n")


# --- error contract ------------------------------------------------------------


def test_invariant_violation_exit1(capsys, tmp_path, monkeypatch):
    def broken(g, cap):
        raise InvariantViolation("planted")

    monkeypatch.setattr(solvers_mod, "treewidth", broken)
    f = write_graph(tmp_path, PATH8)
    code, out, err = run(capsys, "compute", "--input", f, "--params", "tw")
    assert code == 1
    assert out == "" and err == "error: invariant violated: planted\n"


def test_bare_widthlab_error_exit2(capsys, tmp_path, monkeypatch):
    # a toolkit error of no named kind is a precondition error: exit 2, no label
    def broken(g, cap):
        raise WidthlabError("boom")

    monkeypatch.setattr(solvers_mod, "treewidth", broken)
    f = write_graph(tmp_path, PATH8)
    code, out, err = run(capsys, "compute", "--input", f, "--params", "tw")
    assert (code, out, err) == (2, "", "error: boom\n")


def test_failed_proved_fact_exit1(capsys, tmp_path, monkeypatch):
    # a guard of a proven fact is a re-check like any other: exit 1, one line
    monkeypatch.setattr(separators_mod, "_balanced", lambda g, survivors, strict: False)
    f = write_graph(tmp_path, PATH8)
    code, out, err = run(capsys, "separator", "--input", f)
    assert (code, out) == (1, "")
    assert err == "error: invariant violated: X = universe always balances; unreachable\n"


def test_non_ascii_digit_field_exit3(capsys, tmp_path):
    f = write_graph(tmp_path, "2 1\n0 ²\n")
    code, _, err = run(capsys, "compute", "--input", f, "--params", "tw")
    assert code == 3
    assert "line 2" in err


def test_non_utf8_input_file_exit3(capsys, tmp_path):
    p = tmp_path / "g.txt"
    p.write_bytes(b"2 1\n0 \xff\n")
    code, _, err = run(capsys, "compute", "--input", str(p), "--params", "tw")
    assert code == 3
    assert "UTF-8" in err


def test_non_utf8_stdin_exit3(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(b"2 1\n0 \xff\n"), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = run(capsys, "compute", "--input", "-", "--params", "tw")
    assert code == 3


def test_surrogate_escaped_stdin_exit3(capsys, monkeypatch):
    # Under a C or POSIX locale, Python decodes stdin with surrogateescape, so
    # the bad byte arrives as a lone surrogate instead of raising.
    import io

    stdin = io.TextIOWrapper(io.BytesIO(b"2 1\n0 \xff\n"), encoding="utf-8",
                             errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = run(capsys, "compute", "--input", "-", "--params", "tw")
    assert code == 3
    assert "UTF-8" in err


def test_unwritable_output_exit2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "table", "R", "--k", "1", "--n", "0:3", "--output", str(target))
    assert code == 2
    assert out == "" and "cannot write" in err


# --- table / audit bounds ------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["table", "N", "--k", str(TABLE_K_MAX + 1), "--r", "0"],
    ["table", "R", "--k", str(TABLE_K_MAX + 1), "--n", "0"],
    ["table", "N", "--k", "1", "--r", str(TABLE_R_MAX + 1)],
    ["table", "R", "--k", "1", "--n", f"0:{TABLE_N_MAX + 1}"],
    ["table", "R", "--k", "1", "--n", "0:1000000000"],
    ["table", "R", "--k", "1:2", "--n", f"{TABLE_ENTRIES_MAX // 2}"],
    ["table", "N", "--k", f"1:{TABLE_ENTRIES_MAX // TABLE_R_MAX + 1}", "--r", f"0:{TABLE_R_MAX - 1}"],
    ["audit", "--k-max", str(AUDIT_K_MAX + 1)],
    ["audit", "--r-max", str(AUDIT_R_MAX + 1)],
    ["audit", "--n-max", str(AUDIT_N_MAX + 1)],
    ["audit", "--k-max", "3000", "--r-max", "1", "--n-max", "1"],
])
def test_table_and_audit_refuse_oversized_requests_exit4(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == "" and "size limit" in err


HUGE = "9" * 4000


@pytest.mark.parametrize("argv, expected", [
    (["table", "R", "--k", f"1:{HUGE}", "--n", f"0:{HUGE}"], 4),
    (["table", "N", "--k", "1:3", "--r", f"0:{HUGE}"], 4),
    (["table", "R", "--k", f"{HUGE}:3", "--n", "0"], 2),
    (["audit", "--k-max", HUGE[:3000]], 4),
    (["audit", "--r-max", HUGE[:3000]], 4),
    (["audit", "--n-max", HUGE[:3000]], 4),
    (["hypercube-report", "--d", HUGE[:3000]], 4),
    (["hypercube-report", f"--d=-{HUGE[:3000]}"], 2),
])
def test_refusals_shorten_huge_numbers(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and len(err) < 300


def run_or_exit(capsys, *argv):
    """`run`, also for a bad option value, on which argparse exits 2 itself."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, env, expected", [
    (["audit", "--k-max", "9" * 5000], None, 2),
    (["gen", "--family", "path", "--n", "5", "--seed", "9" * 5000], None, 2),
    (["compute", "--params", "x" * 5000], None, 2),
    (["compute", "--params", "s"], "9" * 5000, 2),
    (["compute", "--params", "s", "--cap-n", "9" * 4000], None, 0),
], ids=["audit-k-max", "gen-seed", "compute-params", "env-cap", "compute-cap-n"])
def test_huge_arguments_get_short_stderr(capsys, tmp_path, monkeypatch, argv, env, expected):
    if env is not None:
        monkeypatch.setenv("WIDTHLAB_CAP_N", env)
    if argv[0] == "compute":
        argv = [*argv, "--input", write_graph(tmp_path, PATH8)]
    code, _, err = run_or_exit(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err
    assert len(err.splitlines()[-1]) < 200


@pytest.mark.parametrize("argv, expected", [
    (["audit", "--k-max", "abc"],
     "usage: widthlab audit [-h] [--output OUTPUT] [--k-max K_MAX] [--r-max R_MAX]\n"
     "                      [--n-max N_MAX] [--format {json,csv,text}]\n"
     "widthlab audit: error: argument --k-max: invalid int value: 'abc'\n"),
    (["gen", "--family", "random", "--n", "5", "--p", "abc", "--seed", "0"],
     "usage: widthlab gen [-h] [--output OUTPUT] --family\n"
     "                    {complete,complete_binary_tree,hypercube,path,path_power,random,random_chordal,random_tree,star}\n"
     "                    [--n N] [--k K] [--d D] [--p P] [--width WIDTH]\n"
     "                    [--seed SEED]\n"
     "widthlab gen: error: argument --p: invalid float value: 'abc'\n"),
], ids=["audit-k-max", "gen-p"])
def test_short_bad_option_values_keep_argparse_message(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_or_exit(capsys, *argv) == (2, "", expected)


def test_table_negative_range_exit2(capsys):
    code, _, _ = run(capsys, "table", "R", "--k", "1", "--n=-3:2")
    assert code == 2


def test_readme_caps_match_registry():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("## Size caps"):readme.index("## Determinism")]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and not line.startswith("|--")
    ]
    caps = {row[0]: (int(row[2]), int(row[3])) for row in rows[1:] if len(row) == 4}
    names = {row[0]: re.findall(r"`(\w+)`", row[1]) for row in rows[1:] if len(row) == 4}
    from_readme = {name: caps[op] for op in caps for name in names[op]}
    assert from_readme == {p: (spec.cap, spec.deep_cap) for p, spec in PARAMS.items()}
    assert caps["min separator / ranking / clique separator"] == (MIN_SEPARATOR_CAP,) * 2
    for solver in (min_balanced_separator, separator_ranking, chordal_clique_separator):
        assert inspect.signature(solver).parameters["cap"].default == MIN_SEPARATOR_CAP
    assert caps["generators"] == (GENERATOR_CAP,) * 2
    bound = re.search(r"generator work bound is ([\d,]+) \(2\^(\d+)\)", section)
    assert int(bound[1].replace(",", "")) == GENERATOR_WORK_CAP == 1 << int(bound[2])

    bounds = {row[0]: row[1:] for row in rows if len(row) == 5}
    table = bounds["`table`"]
    assert [int(x) for x in table[:3]] == [TABLE_K_MAX, TABLE_N_MAX, TABLE_R_MAX]
    assert table[3].startswith(f"{TABLE_ENTRIES_MAX} ")
    audit = bounds["`audit`"]
    assert [int(x) for x in audit[:3]] == [AUDIT_K_MAX, AUDIT_N_MAX, AUDIT_R_MAX]
    corpus = bounds["`corpus`"]
    assert int(corpus[1]) == CORPUS_N_MAX
    assert corpus[3].startswith(f"{CORPUS_COUNT_MAX} ")


def test_readme_exit_codes_match_the_failure_table():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("### Exit codes"):readme.index("### Output conventions")]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and not line.startswith("|--")
    ][1:]
    codes = {EXIT_OK, EXIT_FAILED, EXIT_USAGE} | {code for code, _ in _FAILURES.values()}
    assert [int(row[0]) for row in rows] == sorted(codes)
    kinds = {name: int(row[0]) for row in rows for name in re.findall(r"`(\w+)`", row[2])}
    errors = [c for c in vars(errors_mod).values() if isinstance(c, type) and issubclass(c, WidthlabError)]
    assert set(kinds) == {c.__name__ for c in errors + [UsageError]}
    for kind in errors + [UsageError]:
        code, label = next(v for k, v in _FAILURES.items() if issubclass(kind, k))
        assert kinds[kind.__name__] == code
        assert not label or f"`{label.strip()}`" in section
    assert _FAILURES[WidthlabError] == (EXIT_USAGE, "") and list(_FAILURES)[-1] is WidthlabError


def test_readme_table_ceilings_match_solvers():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("## Size caps"):readme.index("## Determinism")]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and not line.startswith("|--")
    ]
    ceilings = {
        name: int(row[1])
        for row in rows if len(row) == 3 and row[1].isdigit()
        for name in re.findall(r"`(\w+)`", row[0])
    }
    assert ceilings == {"tw": TW_TABLE_MAX_N, "pw": PW_TABLE_MAX_N, "r": RANK_TABLE_MAX_N,
                        "s": SEPARATOR_TABLE_MAX_N, "s_strict": SEPARATOR_TABLE_MAX_N}
    assert f"n <= {BW_SEARCH_MAX_N}," in section


@pytest.mark.parametrize("p", [["--p", "-1e-05"], ["--p=-1e-05"]], ids=["separate", "joined"])
def test_negative_exponent_p_reaches_the_range_message(capsys, p):
    code, out, err = run_or_exit(capsys, "gen", "--family", "random", "--n", "5", *p, "--seed", "0")
    assert (code, out) == (2, "")
    assert err == "error: edge probability must be in [0, 1], got -1e-05\n"


def test_gen_p_output_unchanged(capsys):
    code, out, _ = run(capsys, "gen", "--family", "random", "--n", "5", "--p", "0.3", "--seed", "0")
    assert code == 0
    assert out == "# widthlab gen family=random n=5 p=0.3 seed=0\n5 4\n0 3\n1 2\n1 4\n2 4\n"


CHOICE_ARGV = {
    "family": lambda bad: ["gen", "--family", bad, "--n", "3"],
    "format": lambda bad: ["table", "R", "--k", "1", "--n", "3", "--format", bad],
    "subcommand": lambda bad: [bad],
}


@pytest.mark.parametrize("where", CHOICE_ARGV)
def test_long_rejected_choice_gets_short_stderr(capsys, where):
    code, out, err = run_or_exit(capsys, *CHOICE_ARGV[where]("x" * 3000))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert len(err.splitlines()[-1]) < 200
    assert "... (3000 characters)" in err


@pytest.mark.parametrize("where, expected", [
    ("family",
     "usage: widthlab gen [-h] [--output OUTPUT] --family\n"
     "                    {complete,complete_binary_tree,hypercube,path,path_power,random,random_chordal,random_tree,star}\n"
     "                    [--n N] [--k K] [--d D] [--p P] [--width WIDTH]\n"
     "                    [--seed SEED]\n"
     "widthlab gen: error: argument --family: invalid choice: 'pat' (choose from 'complete', "
     "'complete_binary_tree', 'hypercube', 'path', 'path_power', 'random', 'random_chordal', "
     "'random_tree', 'star')\n"),
    ("format",
     "usage: widthlab table [-h] [--output OUTPUT] --k K [--n N] [--r R]\n"
     "                      [--format {json,csv,text}]\n"
     "                      {R,N}\n"
     "widthlab table: error: argument --format: invalid choice: 'yaml' "
     "(choose from 'json', 'csv', 'text')\n"),
    ("subcommand",
     "usage: widthlab [-h]\n"
     "                {gen,compute,verify-chain,table,audit,corpus,hypercube-report,rank,separator}\n"
     "                ...\n"
     "widthlab: error: argument subcommand: invalid choice: 'frobnicate' (choose from 'gen', "
     "'compute', 'verify-chain', 'table', 'audit', 'corpus', 'hypercube-report', 'rank', "
     "'separator')\n"),
])
def test_short_rejected_choice_keeps_argparse_message(capsys, monkeypatch, where, expected):
    monkeypatch.setenv("COLUMNS", "80")
    bad = {"family": "pat", "format": "yaml", "subcommand": "frobnicate"}[where]
    assert run_or_exit(capsys, *CHOICE_ARGV[where](bad)) == (2, "", expected)


# --- options per subcommand ------------------------------------------------------

# Options that all subcommands took from one shared parser, and that these
# subcommands neither read nor echo: each is now refused.
DROPPED_OPTIONS = {
    "gen": ("--input", "--format", "--cap-n", "--deep"),
    "table": ("--input", "--seed", "--cap-n", "--deep"),
    "audit": ("--input", "--seed", "--cap-n", "--deep"),
    "corpus": ("--input", "--cap-n", "--deep"),
    "hypercube-report": ("--input", "--seed", "--cap-n"),
    "rank": ("--seed", "--deep"),
    "separator": ("--seed", "--deep"),
}
VALID_ARGV = {
    "gen": ["gen", "--family", "path", "--n", "3"],
    "table": ["table", "R", "--k", "1", "--n", "1:3"],
    "audit": ["audit", "--k-max", "1", "--r-max", "1", "--n-max", "1"],
    "corpus": ["corpus", "--count", "1"],
    "hypercube-report": ["hypercube-report", "--d", "1"],
    "rank": ["rank", "--input", "-"],
    "separator": ["separator", "--input", "-"],
}
OPTION_VALUES = {"--input": ["-"], "--format": ["json"], "--seed": ["1"], "--cap-n": ["-5"], "--deep": []}


@pytest.mark.parametrize("argv, option", [
    *[(VALID_ARGV[sub] + [option, *OPTION_VALUES[option]], option)
      for sub, options in DROPPED_OPTIONS.items() for option in options],
    ("table R --k 1 --n 1:3 --cap-n -5".split(), "--cap-n"),
    ("corpus --count 2 --seed 1 --cap-n -5 --deep".split(), "--cap-n"),
], ids=[f"{sub} {option}" for sub, options in DROPPED_OPTIONS.items() for option in options]
    + ["table-cap-n-probe", "corpus-cap-n-deep-probe"])
def test_options_a_subcommand_does_not_take_exit2(capsys, argv, option):
    code, out, err = run_or_exit(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    # Refused by the subcommand's own parser, with its usage line and the tokens as typed.
    assert err.startswith(f"usage: widthlab {argv[0]} ")
    assert re.match(rf"widthlab {argv[0]}: error: unrecognized arguments: {re.escape(option)}( |$)",
                    err.splitlines()[-1])


@pytest.mark.parametrize("command", ["compute", "verify-chain"])
def test_solver_commands_keep_all_six_shared_options(capsys, tmp_path, command):
    f = write_graph(tmp_path, PATH8)
    target = tmp_path / "out.json"
    code, out, err = run(capsys, command, "--input", f, "--output", str(target), "--format", "json",
                         "--seed", "1", "--cap-n", "12", "--deep")
    assert (code, out) == (0, "")
    config = json.loads(target.read_text())["config"]
    assert (config["input"], config["format"], config["seed"], config["cap_n"], config["deep"]) == (
        f, "json", 1, 12, True)


def test_readme_options_table_matches_help(capsys, monkeypatch):
    # Each row lists the long options that `widthlab <sub> --help` prints, in order,
    # but for --help and --output, which every subcommand takes.
    monkeypatch.setenv("COLUMNS", "80")
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("### Options"):readme.index("### Exit codes")]
    rows = {m[1]: re.findall(r"`(--[\w-]+)`", m[2])
            for m in re.finditer(r"^\| `([\w-]+)` +\|(.*)\|$", section, re.M)}
    code, out, _ = run_or_exit(capsys, "--help")
    assert code == 0 and list(rows) == re.search(r"\{([\w,-]+)\}", out)[1].split(",")
    for sub, options in rows.items():
        code, out, _ = run_or_exit(capsys, sub, "--help")
        printed = re.findall(r"^  (?:-h, )?(--[\w-]+)", out, re.M)
        assert code == 0 and printed[:2] == ["--help", "--output"]
        assert printed[2:] == options, sub


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", ["exit-0", "widthlab-error", "render-raises"])
def test_main_leaves_gc_as_it_found_it(capsys, monkeypatch, tmp_path, enabled, case):
    argv = ["table", "R", "--k", "1", "--n", "0:3"]
    paused = []
    if case == "widthlab-error":  # the write fails while GC is paused
        argv += ["--output", str(tmp_path / "missing" / "out.csv")]
    if case == "render-raises":
        def render(*args):
            paused.append(not gc.isenabled())
            raise RuntimeError("render failed")

        monkeypatch.setattr(cli_mod, "render", render)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "render-raises":
            with pytest.raises(RuntimeError):
                main(argv)
            assert paused == [True]
        else:
            assert main(argv) == (EXIT_OK if case == "exit-0" else EXIT_USAGE)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
