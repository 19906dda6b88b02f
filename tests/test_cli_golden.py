"""Golden stdout for every subcommand in every output format.

Each case feeds a small fixed input on stdin (so the echoed config never
holds a temporary path) and compares the exit code and the exact stdout
bytes with `tests/golden_stdout.json`.  The file was recorded before the
CLI's output code was consolidated, so it pins the byte-identical
stdout contract.  To record it afresh after a change that is meant to
alter the output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from widthlab.cli import main

GOLDEN = Path(__file__).with_name("golden_stdout.json")

PATH8 = "8 7\n" + "".join(f"{i} {i + 1}\n" for i in range(7))
K5 = "5 10\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5))
Q3 = "8 12\n" + "".join(
    f"{u} {u | (1 << b)}\n" for u in range(8) for b in range(3) if not (u >> b) & 1
)
# random_chordal(9, 2, seed=1)
CHORDAL9 = (
    "9 15\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 8\n1 2\n1 3\n1 6\n1 8\n2 5\n2 7\n3 4\n5 7\n"
)
GRAPHS = {"path8": PATH8, "k5": K5, "q3": Q3, "chordal9": CHORDAL9}
FORMATS = ("json", "csv", "text")


def _cases() -> dict:
    cases = {}
    gen_args = {
        "path": ["--n", "5"],
        "path_power": ["--n", "6", "--k", "2"],
        "hypercube": ["--d", "3"],
        "star": ["--n", "4"],
        "complete": ["--n", "4"],
        "complete_binary_tree": ["--d", "3"],
        "random": ["--n", "8", "--p", "0.3", "--seed", "7"],
        "random_tree": ["--n", "7", "--seed", "3"],
        "random_chordal": ["--n", "8", "--width", "2", "--seed", "5"],
    }
    for family, extra in gen_args.items():
        cases[f"gen {family}"] = (["gen", "--family", family] + extra, "")
    for fmt in FORMATS:
        for name, text in GRAPHS.items():
            cases[f"compute {name} {fmt}"] = (
                ["compute", "--input", "-", "--format", fmt], text)
            cases[f"verify-chain {name} {fmt}"] = (
                ["verify-chain", "--input", "-", "--format", fmt], text)
        cases[f"compute path8 tw,r {fmt}"] = (
            ["compute", "--input", "-", "--params", "tw,r", "--format", fmt], PATH8)
        cases[f"table R {fmt}"] = (
            ["table", "R", "--k", "1:3", "--n", "0:12", "--format", fmt], "")
        cases[f"table N {fmt}"] = (
            ["table", "N", "--k", "1:3", "--r", "0:12", "--format", fmt], "")
        cases[f"audit {fmt}"] = (
            ["audit", "--k-max", "3", "--r-max", "8", "--n-max", "12", "--format", fmt], "")
        cases[f"corpus {fmt}"] = (
            ["corpus", "--count", "2", "--seed", "1", "--format", fmt], "")
        cases[f"hypercube-report {fmt}"] = (
            ["hypercube-report", "--d", "3", "--format", fmt], "")
        cases[f"hypercube-report d=4 {fmt}"] = (
            ["hypercube-report", "--d", "4", "--format", fmt], "")
        cases[f"hypercube-report d=4 --deep {fmt}"] = (
            ["hypercube-report", "--d", "4", "--deep", "--format", fmt], "")
        for name in ("path8", "chordal9"):
            cases[f"rank {name} {fmt}"] = (
                ["rank", "--input", "-", "--format", fmt], GRAPHS[name])
            cases[f"rank {name} k=3 {fmt}"] = (
                ["rank", "--input", "-", "--k", "3", "--format", fmt], GRAPHS[name])
        for name in ("path8", "q3", "chordal9"):
            cases[f"separator {name} {fmt}"] = (
                ["separator", "--input", "-", "--format", fmt], GRAPHS[name])
            cases[f"separator --strict {name} {fmt}"] = (
                ["separator", "--input", "-", "--strict", "--format", fmt], GRAPHS[name])
        cases[f"separator --chordal-clique chordal9 {fmt}"] = (
            ["separator", "--input", "-", "--chordal-clique", "--format", fmt], CHORDAL9)
    return cases


CASES = _cases()


def run_case(argv, stdin_text) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, golden):
    argv, stdin_text = CASES[name]
    code, out = run_case(argv, stdin_text)
    assert golden[name]["argv"] == argv
    assert (code, out) == (golden[name]["code"], golden[name]["stdout"])


# The echoed flag, masked so that `--deep` toggled can be compared.
DEEP_ECHO = re.compile(r'("deep": |deep=)(?:true|false)')
TAKES_DEEP = ("compute", "verify-chain", "hypercube-report")


@pytest.mark.parametrize("name", sorted(CASES))
def test_deep_only_raises_caps(name, golden):
    # `--deep` raises the bw and r caps, which no golden input reaches, so
    # toggling it changes no exit code and no stdout byte but its own echo.
    # The other subcommands do not take it, and argparse exits 2 on it.
    argv, stdin_text = CASES[name]
    toggled = [a for a in argv if a != "--deep"] if "--deep" in argv else argv + ["--deep"]
    if argv[0] not in TAKES_DEEP:
        with pytest.raises(SystemExit) as exc:
            run_case(toggled, stdin_text)
        assert exc.value.code == 2
        return
    code, out = run_case(toggled, stdin_text)
    want_code, want_out = golden[name]["code"], golden[name]["stdout"]
    assert (code, DEEP_ECHO.sub(r"\1-", out)) == (want_code, DEEP_ECHO.sub(r"\1-", want_out))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    recorded = {}
    for name in sorted(CASES):
        argv, stdin_text = CASES[name]
        code, out = run_case(argv, stdin_text)
        recorded[name] = {"argv": argv, "code": code, "stdout": out}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases to {GOLDEN}")
