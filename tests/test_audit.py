import hashlib
import json

import pytest

import widthlab.audit
from widthlab import (
    DomainError,
    N_adjoint,
    R_explicit,
    SizeLimitExceeded,
    audit_claims,
    audit_summary,
    hypercube_report,
)
from widthlab.audit import (
    AUDIT_K_MAX,
    AUDIT_N_MAX,
    AUDIT_R_MAX,
    OUT_OF_DOMAIN,
    AuditFinding,
    _equality_predicted,
    audit_internal_ok,
)
from widthlab.cli import main
from widthlab.closed_forms import build_R_table


@pytest.fixture(scope="module")
def findings():
    return audit_claims(k_max=4, r_max=20, n_max=40)


def _find(findings, claim, **inputs):
    for f in findings:
        if f.claim == claim and all(f.inputs.get(k) == v for k, v in inputs.items()):
            return f
    raise AssertionError(f"no finding for {claim} {inputs}")


def test_required_disagreements_present(findings):
    f = _find(findings, "C6.2", k=2, r=4)
    assert (f.printed, f.oracle, f.agree) == (6, 5, False)
    f = _find(findings, "C6.1", k=2, j=3)
    assert (f.printed, f.oracle, f.agree) == (2, 1, False)
    # equality observed where the printed condition says no, and vice versa
    f = _find(findings, "T6-equality", k=1, n=4)
    assert (f.printed, f.oracle, f.agree) == (0, 1, False)
    f = _find(findings, "T6-equality", k=2, n=6)
    assert (f.printed, f.oracle, f.agree) == (1, 0, False)


def test_base_region_agreements(findings):
    f = _find(findings, "C6.2", k=2, r=2)
    assert (f.printed, f.oracle, f.agree) == (2, 2, True)
    f = _find(findings, "C6.1", k=2, j=1)
    assert f.agree is True


def test_eq1_never_disagrees(findings):
    assert audit_internal_ok(findings)
    assert all(f.agree for f in findings if f.claim == "Eq1")


def test_eq1_compares_with_the_printed_R_table(monkeypatch, capsys):
    # Eq1's oracle is the table `table R` prints, so a wrong entry there is an Eq1
    # disagreement and fails the audit run.
    def build_R_table_off_by_one(k, n_max):
        table = build_R_table(k, n_max)
        if k == 2:
            table[5] += 1
        return table

    monkeypatch.setattr(widthlab.audit, "build_R_table", build_R_table_off_by_one)
    findings = audit_claims(3, 4, 8)
    assert [f for f in findings if f.claim == "Eq1" and not f.agree] == [
        AuditFinding("Eq1", {"k": 2, "n": 5}, R_explicit(2, 5), R_explicit(2, 5) + 1, False)]
    assert not audit_internal_ok(findings)
    assert main(["audit", "--k-max", "3", "--r-max", "4", "--n-max", "8"]) == 1
    assert json.loads(capsys.readouterr().out)["internal_ok"] is False


def test_every_row_follows_the_constructor_rule(findings):
    # No printed value means out of the claim's domain; otherwise agree is printed == oracle.
    for f in findings:
        if f.printed is None:
            assert (f.agree, f.note) == (None, OUT_OF_DOMAIN), f
        else:
            assert (f.agree, f.note) == (f.printed == f.oracle, ""), f


def test_out_of_domain_rows(findings):
    f = _find(findings, "C6.1", k=1, j=5)
    assert f.agree is None and f.printed is None and "domain" in f.note
    f = _find(findings, "C6.2", k=1, r=5)
    assert f.agree is None
    summary = audit_summary(findings)
    assert summary["C6.1"]["out_of_domain"] == 20
    assert summary["C6.2"]["out_of_domain"] == 20


def test_c63_parts(findings):
    # The printed lower bound describes the (faulty) closed form, not the
    # recurrence: against the recurrence's adjoint it holds only in the
    # base region r <= k, and its equality cases fail above the base
    # region exactly at the multiples of k.
    for f in (f for f in findings if f.claim == "C6.3" and f.printed is not None):
        k, r, part = f.inputs["k"], f.inputs.get("r"), f.inputs["part"]
        if part == "leq":
            assert f.agree == (r <= k), f.inputs
        elif part == "eq":
            assert f.agree == (not (r % k == 0 and r > k)), f.inputs
    fmin_rows = [f for f in findings if f.claim == "C6.3" and f.inputs.get("part") == "fmin"]
    assert fmin_rows and all(f.agree for f in fmin_rows)


def test_t12_rows(findings):
    f = _find(findings, "T12-harper", d=3, variant="standard")
    assert f.oracle == 4 and f.agree is True
    f = _find(findings, "T12-harper", d=3, variant="printed")
    assert (f.printed, f.oracle, f.agree) == (12, 4, False)


def test_audit_is_deterministic():
    a = audit_claims(3, 8, 12)
    b = audit_claims(3, 8, 12)
    assert [f.to_json_dict() for f in a] == [f.to_json_dict() for f in b]


def test_audit_finding_is_immutable_and_drops_an_empty_note():
    f = AuditFinding("C6.2", {"k": 2, "r": 4}, 6, 5, False)
    with pytest.raises(AttributeError):
        f.agree = True
    assert f.to_json_dict() == {"claim": "C6.2", "inputs": {"k": 2, "r": 4},
                                "printed": 6, "oracle": 5, "agree": False}
    g = AuditFinding("C6.2", {"k": 1, "r": 4}, None, 4, None, OUT_OF_DOMAIN)
    assert list(g.to_json_dict().items()) == [
        ("claim", "C6.2"), ("inputs", {"k": 1, "r": 4}), ("printed", None),
        ("oracle", 4), ("agree", None), ("note", OUT_OF_DOMAIN)]


def test_audit_rows_at_the_caps_are_pinned():
    findings = audit_claims(AUDIT_K_MAX, AUDIT_R_MAX, AUDIT_N_MAX)
    rows = json.dumps([f.to_json_dict() for f in findings])
    digest = hashlib.sha256(rows.encode()).hexdigest()
    assert digest == "9030bdcd1a66aaaf98877dbf4a2a52f61737687b7147d448d6b78554c08f0cc1"


def _equality_predicted_by_search(k, n):
    """1 iff n = k * (2^j - 1) for some j >= 1, found by trying j = 1, 2, ..."""
    j = 1
    while k * ((1 << j) - 1) <= n:
        if k * ((1 << j) - 1) == n:
            return 1
        j += 1
    return 0


def test_equality_predicted_matches_search():
    for k in range(1, 17):
        for n in range(0, 1025):
            assert _equality_predicted(k, n) == _equality_predicted_by_search(k, n), (k, n)


def test_audit_rejects_bad_bounds():
    with pytest.raises(DomainError):
        audit_claims(0, 5, 5)


def test_summary_counts_add_up(findings):
    summary = audit_summary(findings)
    total = sum(sum(c.values()) for c in summary.values())
    assert total == len(findings)


# --- hypercube report ---------------------------------------------------------


def test_hypercube_report_small():
    rep = hypercube_report(1)
    assert rep["bw"]["exact"] == 1 and rep["r_exact"] == 2
    rep = hypercube_report(2)
    assert rep["bw"]["exact"] == 2
    assert rep["bounds"]["recurrence_height"] == 3  # recurrence bound at k=2, n=4
    assert rep["bounds"]["recurrence_holds_for_r"]


def test_hypercube_report_d3():
    rep = hypercube_report(3)
    assert rep["bw"]["exact"] == rep["bw"]["harper_standard"] == 4
    assert rep["bw"]["exact"] != rep["bw"]["harper_printed"] == 12
    assert rep["pw_equals_bw"] is True
    assert rep["r_exact"] <= rep["bounds"]["recurrence_height"]
    assert rep["bounds"]["log_bound"]["holds_for_r"]
    # the bound as printed (without the leading term) is NOT valid here
    assert rep["bounds"]["log_bound_no_leading_term"]["holds_for_r"] is False
    assert rep["bounds"]["older_chain_contrast"]["exceeds_order"] is True


def test_hypercube_report_caps():
    assert hypercube_report(4)["d"] == 4
    with pytest.raises(SizeLimitExceeded):
        hypercube_report(5)
    with pytest.raises(DomainError):
        hypercube_report(0)


def test_adjoint_monotone_feeds_audit():
    # the audit's oracle side relies on a monotone scan: check it around
    # the window boundaries the claims get wrong
    for k in (2, 3, 4):
        vals = [N_adjoint(k, r) for r in range(0, 30)]
        assert vals == sorted(vals)


def test_hypercube_report_d4_deep():
    rep = hypercube_report(4)
    assert rep["bw"]["exact"] == rep["bw"]["used"] == rep["bw"]["harper_standard"] == 7
    assert rep["bw"]["source"] == "exact"
    assert rep["bw"]["harper_standard"] == 7
    assert rep["pw_exact"] == 7  # matches the index-dependent formula reading
    assert rep["pw_equals_bw"] is True
    assert rep["r_exact"] <= rep["bounds"]["recurrence_height"]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hypercube_report_bandwidth_is_exact_at_every_d(d):
    rep = hypercube_report(d)
    bw = rep["bw"]
    assert bw["exact"] == bw["used"] == bw["harper_standard"]
    assert bw["source"] == "exact"
    assert rep["pw_equals_bw"] == (rep["pw_exact"] == bw["exact"])
