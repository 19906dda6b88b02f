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

import operator
from collections.abc import Iterator
from typing import NamedTuple

from .closed_forms import (
    Log2Bound,
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
    thm6_bounds,
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


class AuditBlock(NamedTuple):
    """The findings of one claim that share their input names and domain, as columns.

    `shared` holds the inputs that every finding of the block has alike (so a writer spells
    them once), `keys` names the others.  `columns` holds one sequence per key, then the
    printed values, the oracle values and the verdicts, all of one length (at least 1) and
    each of one type: the printed values and the verdicts are all None (the inputs are out
    of the claim's domain), or all ints and all bools.
    """

    claim: str
    shared: dict
    keys: tuple[str, ...]
    columns: list


def _block(claim: str, shared: dict, keys: tuple[str, ...], *columns) -> AuditBlock:
    """The block of `columns`: one per key, then the printed values (None out of the claim's
    domain) and the oracle values.  Each finding's verdict is decided here, and nowhere else:
    printed == oracle, or None out of the claim's domain."""
    *inputs, printed, oracle = columns
    if printed is None:
        printed = agree = [None] * len(oracle)
    else:
        agree = list(map(operator.eq, printed, oracle))
    return AuditBlock(claim, shared, keys, [*inputs, printed, oracle, agree])


class AuditFindings:
    """The blocks of one audit run.  Iterating yields each row as an `AuditFinding`, made
    only as it is reached; `len` is the number of rows."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: list[AuditBlock]):
        self.blocks = blocks

    def __iter__(self) -> Iterator[AuditFinding]:
        for claim, shared, keys, columns in self.blocks:
            for *inputs, printed, oracle, agree in zip(*columns):
                yield AuditFinding(claim, {**shared, **dict(zip(keys, inputs))}, printed, oracle, agree,
                                   OUT_OF_DOMAIN if agree is None else "")

    def __len__(self) -> int:
        return sum(len(block.columns[-1]) for block in self.blocks)


def audit_claims(k_max: int, r_max: int, n_max: int) -> AuditFindings:
    """Full findings stream, deterministic order, in blocks of one claim at one k.

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
    tables = [(k, build_R_table(k, n_max), build_N_table(k, r_max)) for k in range(1, k_max + 1)]
    ns, rs = range(n_max + 1), range(1, r_max + 1)

    blocks = [_block("Eq1", {"k": k}, ("n",), ns, [R_explicit(k, n) for n in ns], R) for k, R, _ in tables]
    blocks += [_block("C6.1", {"k": k}, ("j",), rs, [claim61_value(k, j) for j in rs] if k > 1 else None,
                      list(map(operator.sub, N[1:], N))) for k, _, N in tables]
    blocks += [_block("C6.2", {"k": k}, ("r",), rs, [claim62_value(k, r) for r in rs] if k > 1 else None, N[1:])
               for k, _, N in tables]

    # C6.3 splits into the inequality itself, its claimed equality cases,
    # and the x = 0 minimality of the interpolating function that the
    # proof's calculus argument rests on.
    for k, _, N in tables:
        if k == 1:
            blocks.append(_block("C6.3", {"k": k}, ("r", "part"), rs, ["leq"] * r_max, None, [None] * r_max))
            continue
        rows = []
        for r in rs:
            b = bound_claim63(k, N[r])
            rows += (r, "leq", 1, int(b.leq(r))), (r, "eq", int(r % k == 0), int(b.eq(r)))
        blocks.append(_block("C6.3", {"k": k}, ("r", "part"), *zip(*rows)))
        xs = range(1, k)
        blocks.append(_block("C6.3", {"k": k}, ("x", "part"), xs, ["fmin"] * len(xs), [1] * len(xs),
                             [int(fmin_boundary_holds(k, x)) for x in xs]))

    blocks += [_block("T6-equality", {"k": k}, ("n",), ns[1:], [_equality_predicted(k, n) for n in ns[1:]],
                      list(map(int, map(Log2Bound.eq, thm6_bounds(k, ns[1:]), R[1:]))))
               for k, R, _ in tables]

    rows = []
    for d in (1, 2, 3):
        exact, _ = bandwidth(hypercube(d))
        rows += [(d, variant, harper_bandwidth(d, variant), exact) for variant in ("printed", "standard")]
    blocks.append(_block("T12-harper", {}, ("d", "variant"), *zip(*rows)))

    return AuditFindings(blocks)


def audit_summary(findings: AuditFindings) -> dict:
    """Agree/disagree/out-of-domain counts per claim, in claim-id order."""
    summary = {c: {"agree": 0, "disagree": 0, "out_of_domain": 0} for c in CLAIM_IDS}
    for block in findings.blocks:
        counts, agree = summary[block.claim], block.columns[-1]
        counts["agree"] += agree.count(True)
        counts["disagree"] += agree.count(False)
        counts["out_of_domain"] += agree.count(None)
    return summary


def audit_internal_ok(findings: AuditFindings) -> bool:
    """True iff the explicit closed form agrees with the printed R table everywhere.

    Eq1 disagreements would mean this package's own closed-form
    evaluation is broken, as opposed to a finding about an audited
    claim; they fail the audit run.
    """
    return all(all(b.columns[-1]) for b in findings.blocks if b.claim == "Eq1")


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
