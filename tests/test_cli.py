import json
import re
from pathlib import Path

import pytest

from widthlab.audit import AUDIT_K_MAX, AUDIT_N_MAX, AUDIT_R_MAX
from widthlab.cli import main
from widthlab.closed_forms import TABLE_ENTRIES_MAX, TABLE_K_MAX, TABLE_N_MAX, TABLE_R_MAX
from widthlab.graph import GENERATOR_CAP
from widthlab.separators import MIN_SEPARATOR_CAP, SEPARATOR_TABLE_MAX_N
from widthlab.solvers import PARAMS, PW_TABLE_MAX_N, TW_TABLE_MAX_N


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


@pytest.mark.parametrize("param", ["tw", "pw", "s"])
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


def test_compute_unknown_param_exit2(capsys, tmp_path):
    f = write_graph(tmp_path, PATH8)
    code, _, _ = run(capsys, "compute", "--input", f, "--params", "zz")
    assert code == 2


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


def test_hypercube_report_d5_exit4(capsys):
    code, _, _ = run(capsys, "hypercube-report", "--d", "5")
    assert code == 4
    code, _, _ = run(capsys, "hypercube-report", "--d", "4")  # needs --deep
    assert code == 4


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


# --- error contract ------------------------------------------------------------


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
    ["audit", "--k-max", "3000", "--r-max", "1", "--n-max", "1", "--cap-n", "5000"],
])
def test_table_and_audit_refuse_oversized_requests_exit4(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == "" and "size limit" in err


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
    assert caps["generators"] == (GENERATOR_CAP,) * 2

    bounds = {row[0]: row[1:] for row in rows if len(row) == 5}
    table = bounds["`table`"]
    assert [int(x) for x in table[:3]] == [TABLE_K_MAX, TABLE_N_MAX, TABLE_R_MAX]
    assert table[3].startswith(f"{TABLE_ENTRIES_MAX} ")
    audit = bounds["`audit`"]
    assert [int(x) for x in audit[:3]] == [AUDIT_K_MAX, AUDIT_N_MAX, AUDIT_R_MAX]


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
    assert ceilings == {"tw": TW_TABLE_MAX_N, "pw": PW_TABLE_MAX_N,
                        "s": SEPARATOR_TABLE_MAX_N, "s_strict": SEPARATOR_TABLE_MAX_N}
