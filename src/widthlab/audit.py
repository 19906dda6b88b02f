"""Audit of the printed closed forms against brute-force oracles.

Every row compares a literal evaluation of a printed formula (or a printed
equality condition) with a value read off a table that `table` prints:
`build_R_table` for Eq1 and T6-equality, `build_N_table` (the adjoint
recurrence `N_adjoint` in closed form) for C6.x.  The audit reports; it
never asserts.  Disagreements are findings, not errors -- several of the
printed forms do diverge from the recurrence, and mapping the divergence
region is the purpose of this module.
"""

from __future__ import annotations

from typing import NamedTuple

from .closed_forms import (
    R_explicit,
    R_rec,
    bound_claim63,
    bound_thm6,
    build_N_table,
    build_R_table,
    claim61_value,
    claim62_value,
    fmin_boundary_holds,
    harper_bandwidth,
)
from .errors import DomainError, SizeLimitExceeded
from .graph import _number, hypercube
from .solvers import BW_CAP_DEEP, bandwidth, cycle_rank, pathwidth

CLAIM_IDS = ("Eq1", "C6.1", "C6.2", "C6.3", "T6-equality", "T12-harper")

OUT_OF_DOMAIN = "out of claimed domain (k=1)"

# Largest accepted audit bounds, refused up front.  Together they keep a
# run under about 50,000 findings and every value far below the
# int -> str digit limit.
AUDIT_K_MAX = 16
AUDIT_R_MAX = 256
AUDIT_N_MAX = 1024


class AuditFinding(NamedTuple):
    """One (claim, inputs, printed, oracle) comparison.

    `agree` is None (and `note` explains why) when the printed formula
    does not claim anything for these inputs.
    """

    claim: str
    inputs: dict
    printed: int | None
    oracle: int | None
    agree: bool | None
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "inputs": self.inputs,
            "printed": self.printed,
            "oracle": self.oracle,
            "agree": self.agree,
            **({"note": self.note} if self.note else {}),
        }


def _equality_predicted(k: int, n: int) -> int:
    """1 iff n = k * (2^j - 1) for some integer j >= 1, that is, iff k
    divides n and q = n/k + 1 is a power of two with q >= 2."""
    q = n // k + 1
    return int(n % k == 0 and q >= 2 and q & (q - 1) == 0)


def audit_claims(k_max: int, r_max: int, n_max: int) -> list[AuditFinding]:
    """Full findings stream, deterministic order.

    Eq1 rows check the explicit closed form against `build_R_table`, the
    values `table R` prints, and T6-equality rows the equality cases of the
    logarithmic bound against the same table; C6.x rows check the adjoint
    closed forms against `build_N_table` (k = 1 is outside their stated
    domain and appears with agree = None); T12 rows check both readings of
    the hypercube bandwidth formula against the exact solver at small d.
    """
    if k_max < 1 or r_max < 1 or n_max < 1:
        raise DomainError("audit bounds must be >= 1")
    if k_max > AUDIT_K_MAX or r_max > AUDIT_R_MAX or n_max > AUDIT_N_MAX:
        raise SizeLimitExceeded(
            f"audit bounds k_max={_number(k_max)}, r_max={_number(r_max)}, n_max={_number(n_max)} "
            f"exceed the caps {AUDIT_K_MAX}, {AUDIT_R_MAX}, {AUDIT_N_MAX}"
        )
    findings: list[AuditFinding] = []

    def row(claim: str, inputs: dict, printed: int | None, oracle: int | None) -> None:
        # With no printed value, the inputs are out of the claim's domain.
        agree = None if printed is None else printed == oracle
        findings.append(AuditFinding(claim, inputs, printed, oracle, agree,
                                     OUT_OF_DOMAIN if agree is None else ""))

    tables = [(k, build_R_table(k, n_max), build_N_table(k, r_max)) for k in range(1, k_max + 1)]

    for k, R, _ in tables:
        for n in range(0, n_max + 1):
            row("Eq1", {"k": k, "n": n}, R_explicit(k, n), R[n])

    for k, _, N in tables:
        for j in range(1, r_max + 1):
            row("C6.1", {"k": k, "j": j}, claim61_value(k, j) if k > 1 else None, N[j] - N[j - 1])

    for k, _, N in tables:
        for r in range(1, r_max + 1):
            row("C6.2", {"k": k, "r": r}, claim62_value(k, r) if k > 1 else None, N[r])

    # C6.3 splits into the inequality itself, its claimed equality cases,
    # and the x = 0 minimality of the interpolating function that the
    # proof's calculus argument rests on.
    for k, _, N in tables:
        for r in range(1, r_max + 1):
            if k == 1:
                row("C6.3", {"k": k, "r": r, "part": "leq"}, None, None)
                continue
            b = bound_claim63(k, N[r])
            row("C6.3", {"k": k, "r": r, "part": "leq"}, 1, int(b.leq(r)))
            row("C6.3", {"k": k, "r": r, "part": "eq"}, int(r % k == 0), int(b.eq(r)))
        for x in range(1, k):
            row("C6.3", {"k": k, "x": x, "part": "fmin"}, 1, int(fmin_boundary_holds(k, x)))

    for k, R, _ in tables:
        for n in range(1, n_max + 1):
            row("T6-equality", {"k": k, "n": n}, _equality_predicted(k, n),
                int(bound_thm6(k, n).eq(R[n])))

    for d in (1, 2, 3):
        exact, _ = bandwidth(hypercube(d))
        for variant in ("printed", "standard"):
            row("T12-harper", {"d": d, "variant": variant}, harper_bandwidth(d, variant), exact)

    return findings


def audit_summary(findings: list[AuditFinding]) -> dict:
    """Agree/disagree/out-of-domain counts per claim, in claim-id order."""
    summary = {c: {"agree": 0, "disagree": 0, "out_of_domain": 0} for c in CLAIM_IDS}
    for f in findings:
        if f.agree is None:
            summary[f.claim]["out_of_domain"] += 1
        elif f.agree:
            summary[f.claim]["agree"] += 1
        else:
            summary[f.claim]["disagree"] += 1
    return summary


def audit_internal_ok(findings: list[AuditFinding]) -> bool:
    """True iff the explicit closed form agrees with the printed R table everywhere.

    Eq1 disagreements would mean this package's own closed-form
    evaluation is broken, as opposed to a finding about an audited
    claim; they fail the audit run.
    """
    return all(f.agree for f in findings if f.claim == "Eq1")


# ---------------------------------------------------------------------------
# Hypercube report


def hypercube_report(d: int) -> dict:
    """Width parameters and bound variants for the d-dimensional hypercube.

    Bandwidth, cycle rank and pathwidth are exact at every accepted d
    (1 <= d <= 4), and every bound uses the exact bandwidth; the
    two closed-form readings of bandwidth are reported beside it.  The
    report shows the recurrence-based bound, the logarithmic bound both
    with and without its leading term (the two versions in circulation),
    and the bound the older chain would give, which already exceeds the
    trivial bound n at small d.
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {_number(d)}")
    if d > 4:
        raise SizeLimitExceeded(f"hypercube report supports d <= 4; got d = {_number(d)}")
    g = hypercube(d)
    n = g.n
    bw, _ = bandwidth(g, cap=BW_CAP_DEEP)
    r_exact, _ = cycle_rank(g)
    pw_exact, _ = pathwidth(g)

    b6 = bound_thm6(bw, n)
    report = {
        "d": d,
        "n": n,
        "bw": {
            "exact": bw,
            "harper_printed": harper_bandwidth(d, "printed"),
            "harper_standard": harper_bandwidth(d, "standard"),
            "used": bw,
            "source": "exact",
        },
        "r_exact": r_exact,
        "pw_exact": pw_exact,
        "pw_equals_bw": pw_exact == bw,
        "bounds": {
            "recurrence_height": R_rec(bw, n),
            "recurrence_holds_for_r": r_exact <= R_rec(bw, n),
            "log_bound": {"display": b6.display(), "holds_for_r": b6.leq(r_exact)},
            "log_bound_no_leading_term": {
                "display": b6.display() - bw,
                "holds_for_r": b6.leq(r_exact + bw),
            },
            "older_chain_contrast": {
                "display": 1.0 + (bw + 1) * d,
                "exceeds_order": 1 + (bw + 1) * d > n,
            },
        },
    }
    return report
