"""Integer-exact evaluation of the ranking recurrence and its closed forms.

Everything here is pure integer (or big-integer) arithmetic.  Verdicts
about inequalities involving binary logarithms are decided exactly by
cross-multiplied power comparisons; floats appear only as display values
and never feed a verdict.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from math import comb
from typing import NamedTuple

from .errors import DomainError


def _check_k(k: int) -> None:
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")


def R_rec(k: int, n: int) -> int:
    """Ranking recurrence: R_k(n) = n for n <= k, else k + R_k(ceil((n-k)/2)).

    The recursion is a simple chain, so it is evaluated iteratively.
    """
    _check_k(k)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    acc = 0
    while n > k:
        n = (n - k + 1) // 2
        acc += k
    return acc + n


def R_explicit(k: int, n: int) -> int:
    """Closed form for R_k(n); the floor-log is computed in integers.

    For k <= n - 2 the value is k*(j - 1) + ceil((n+k) / 2^j) where j is
    the largest integer with k * 2^j <= n + k.
    """
    _check_k(k)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if k >= n - 1:
        return n
    j = ((n + k) // k).bit_length() - 1
    pow2 = 1 << j
    return k * (j - 1) + -((n + k) // -pow2)


def N_adjoint(k: int, r: int) -> int:
    """Smallest n with R_k(n) >= r; N_k(0) = 0.

    The adjoint obeys its own recurrence: N_k(r) = r for r <= k, else
    N_k(r) = 2 * N_k(r - k) + k - 1.  Proof: R_k is monotone in n (that
    monotonicity is exhaustively tested elsewhere).  For r <= k, R_k(n) = n
    whenever n <= k, so the least n reaching r is r itself.  For r > k,
    R_k(n) >= r forces n > k (else R_k(n) = n <= k < r), and for n > k
    R_k(n) >= r holds exactly when R_k(ceil((n - k)/2)) >= r - k, which by
    monotonicity is ceil((n - k)/2) >= N_k(r - k), that is
    n >= 2 * N_k(r - k) + k - 1.  That bound exceeds k, so it is the least n.

    Unrolling j = (r - 1) // k steps brings r down to b = r - j*k in 1..k,
    and the affine steps compose to N_k(r) = (b + k - 1) * 2^j - (k - 1),
    which is evaluated here in one shift.
    """
    _check_k(k)
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    if r == 0:
        return 0
    j, rem = divmod(r - 1, k)  # b = rem + 1
    return ((rem + k) << j) - (k - 1)


# ---------------------------------------------------------------------------
# Printed closed forms for the adjoint (audited, not trusted)


def _check_claim_domain(k: int) -> None:
    if k < 2:
        raise DomainError(f"closed-form claims are stated for k >= 2 only, got k={k}")


def claim61_value(k: int, j: int) -> int:
    """Printed backward difference: 2^(i-1) on the window (i-1)k < j <= ik."""
    _check_claim_domain(k)
    if j < 1:
        raise DomainError(f"j must be >= 1, got {j}")
    i = -(j // -k)
    return 1 << (i - 1)


def claim62_value(k: int, r: int) -> int:
    """Printed adjoint closed form: (k + r mod k) * 2^((r - r mod k)/k) - k."""
    _check_claim_domain(k)
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    return (k + r % k) * (1 << (r // k)) - k


def fmin_boundary_holds(k: int, x: int) -> bool:
    """Exact check that the interpolating function exceeds its x=0 value.

    For integer x in [1, k-1] this is (k+x) * 2^(-x/k) > k, i.e.
    (k+x)^k > k^k * 2^x; the r-dependence cancels.
    """
    _check_claim_domain(k)
    if not 1 <= x <= k - 1:
        raise DomainError(f"x must be in 1..k-1, got {x}")
    return (k + x) ** k > k**k << x


# ---------------------------------------------------------------------------
# The logarithmic bounds of both chains and of Claim 6.3, decided exactly


class Log2Bound(NamedTuple):
    """Exact comparisons of an integer r against log2(num / den), num, den > 0.

    r <= log2(num/den) iff den * 2^r <= num, decided with arbitrary-precision
    integers; for r < 0 the shift moves to num.  `shown` is for printing only.
    """

    den: int
    num: int
    shown: float

    def leq(self, r: int) -> bool:
        """Does r <= log2(num / den) hold?"""
        return self.den << r <= self.num if r >= 0 else self.den <= self.num << -r

    def eq(self, r: int) -> bool:
        return self.den << r == self.num if r >= 0 else self.den == self.num << -r

    def display(self) -> float:
        return self.shown


def bound_thm6(k: int, n: int) -> Log2Bound:
    """k * (1 + log2(n/k)) = log2((2n)^k / k^k)."""
    _check_k(k)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    den, num, _ = next(thm6_bounds(k, [n]))
    return Log2Bound(den, num, k * (1.0 + math.log2(n / k)))


def thm6_bounds(k: int, ns: Iterable[int]) -> Iterator[Log2Bound]:
    """`bound_thm6(k, n)` for each n >= 1 of `ns`, with k^k made once and no display (NaN)."""
    _check_k(k)
    den = k**k
    return (Log2Bound(den, (2 * n) ** k, math.nan) for n in ns)


def bound_log_chain(s: int, n: int) -> Log2Bound:
    """The older chain bound 1 + s * log2(n) = log2(2 * n^s)."""
    if s < 0:
        raise DomainError(f"s must be >= 0, got {s}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return Log2Bound(1, 2 * n**s, 1.0 + s * math.log2(n))


def bound_claim63(k: int, x: int) -> Log2Bound:
    """Claim 6.3's k * (2^(r/k) - 1) <= x, read as r <= log2((x + k)^k / k^k)."""
    _check_claim_domain(k)
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    return Log2Bound(k**k, (x + k) ** k, k * math.log2(1 + x / k))


# ---------------------------------------------------------------------------
# Hypercube bandwidth closed forms (both readings; audited downstream)


def harper_bandwidth(d: int, variant: str) -> int:
    """Closed-form hypercube bandwidth, in two readings.

    'printed' evaluates the sum exactly as typeset, with a summand that
    does not depend on the index: (d+1) * C(d, floor(d/2)).  'standard'
    evaluates sum_{i=0}^{d-1} C(i, floor(i/2)).  Neither is trusted; the
    exact solver arbitrates at small d.
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if variant == "printed":
        return (d + 1) * comb(d, d // 2)
    if variant == "standard":
        return sum(comb(i, i // 2) for i in range(d))
    raise DomainError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Tables

# Largest `table` requests, refused up front: k, the top of the n or r
# range, and the entries built (k values times (top + 1)).  N_1(r) has
# about 0.3 * r decimal digits, so every N value stays far below
# Python's int -> str digit limit.
TABLE_K_MAX = 4096
TABLE_N_MAX = 100_000
TABLE_R_MAX = 4096
TABLE_ENTRIES_MAX = 100_000


def build_R_table(k: int, n_max: int) -> list[int]:
    """[R_k(0), ..., R_k(n_max)]; above k each entry is read off an earlier one,
    R_k(n) = k + R_k((n - k + 1) // 2)."""
    if n_max >= 0:
        _check_k(k)
    table = list(range(min(k, n_max) + 1))
    for n in range(k + 1, n_max + 1):
        table.append(k + table[(n - k + 1) // 2])
    return table


def build_N_table(k: int, r_max: int, r_min: int = 0) -> list[int]:
    """[N_k(r_min), ..., N_k(r_max)]; each entry is its own closed form."""
    return [N_adjoint(k, r) for r in range(r_min, r_max + 1)]
