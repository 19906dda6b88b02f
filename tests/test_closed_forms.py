from fractions import Fraction
from math import comb, floor, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import (
    DomainError,
    N_adjoint,
    R_explicit,
    R_rec,
    bound_claim63,
    bound_log_chain,
    bound_thm6,
    claim61_value,
    claim62_value,
    harper_bandwidth,
)
from widthlab.closed_forms import build_N_table, build_R_table, fmin_boundary_holds

from .conftest import oracle_N_adjoint


def test_R_rec_examples():
    assert R_rec(3, 2) == 2          # base case n <= k
    assert R_rec(5, 6) == 6          # k >= n - 1 branch
    assert R_rec(1, 7) == 3          # 1 + R_1(3) = 1 + 1 + R_1(1)
    assert R_rec(2, 6) == 4          # 2 + R_2(2)
    assert R_rec(1, 0) == 0
    with pytest.raises(DomainError):
        R_rec(0, 5)
    with pytest.raises(DomainError):
        R_rec(2, -1)


def test_R_table_row():
    assert [R_rec(1, n) for n in range(1, 9)] == [1, 2, 2, 3, 3, 3, 3, 4]
    assert [R_rec(5, n) for n in range(1, 7)] == [1, 2, 3, 4, 5, 6]


def test_R_explicit_examples():
    assert R_explicit(5, 6) == 6
    assert R_explicit(2, 7) == 5
    assert R_explicit(1, 7) == R_rec(1, 7) == 3


@given(st.integers(1, 16), st.integers(0, 3000))
@settings(max_examples=300, deadline=None)
def test_R_routes_agree_and_monotone(k, n):
    assert R_rec(k, n) == R_explicit(k, n)
    assert R_rec(k, n) <= n
    assert R_rec(k, n + 1) >= R_rec(k, n)


def test_N_adjoint_examples():
    assert N_adjoint(3, 2) == 2      # N_k(r) = r for r <= k
    assert N_adjoint(1, 3) == 4      # first n with R_1(n) >= 3
    assert N_adjoint(2, 4) == 5
    assert N_adjoint(7, 0) == 0
    assert [N_adjoint(2, r) for r in range(1, 7)] == [1, 2, 3, 5, 7, 11]


@pytest.mark.parametrize("k", range(1, 17))
def test_galois_adjoint_property(k):
    for r in range(1, 65):
        n = N_adjoint(k, r)
        assert R_rec(k, n) >= r
        assert R_rec(k, n - 1) < r


@pytest.mark.parametrize("k", range(1, 17))
def test_adjoint_recurrence(k):
    # N_k(r + k) = 2 N_k(r) + k - 1
    for r in range(1, 40):
        assert N_adjoint(k, r + k) == 2 * N_adjoint(k, r) + k - 1


@pytest.mark.parametrize("k", range(1, 17))
def test_N_adjoint_matches_scan_oracle(k):
    for r in range(200):
        assert N_adjoint(k, r) == oracle_N_adjoint(k, r)


def test_adjoint_strictly_increasing():
    for k in (1, 2, 3, 5):
        values = [N_adjoint(k, r) for r in range(0, 40)]
        assert all(b > a for a, b in zip(values[1:], values[2:]))
        assert values[0] == 0


def test_claim_values():
    assert claim62_value(2, 4) == 6
    assert claim61_value(2, 2) == 1
    assert claim61_value(2, 3) == 2
    # 2 * (2^(4/2) - 1) = 6, so the bound at x = 6 is met with equality
    b = bound_claim63(2, 6)
    assert b.eq(4) and b.leq(4) and not b.leq(5)
    for bad in (lambda: claim61_value(1, 3), lambda: claim62_value(1, 2),
                lambda: bound_claim63(1, 2)):
        with pytest.raises(DomainError):
            bad()


def test_claim63_exact_comparisons():
    value = 3 * 2 ** Fraction(5, 3) - 3  # 3 * (2^(5/3) - 1), irrational
    lo = int(float(value)) - 1
    hi = lo + 3
    assert bound_claim63(3, hi).leq(5) and not bound_claim63(3, lo).leq(5)
    assert not bound_claim63(3, hi).eq(5) and not bound_claim63(3, lo).eq(5)


def test_bound_thm6_examples():
    b = bound_thm6(1, 4)
    assert b.leq(3) and b.eq(3)
    b = bound_thm6(2, 6)
    assert b.leq(4) and not b.eq(4)
    assert bound_thm6(1, 1).eq(1)
    with pytest.raises(DomainError):
        bound_thm6(1, 0)


@given(st.integers(1, 12), st.integers(1, 4096))
@settings(max_examples=300, deadline=None)
def test_bound_thm6_matches_float_when_clear(k, n):
    # exact predicate must agree with the float bound when the float
    # comparison is not borderline
    b = bound_thm6(k, n)
    r = R_rec(k, n)
    display = k * (1 + log2(n / k))
    if abs(display - r) > 1e-6:
        assert b.leq(r) == (r < display)


def test_bound_log_chain():
    b = bound_log_chain(1, 8)
    assert b.leq(4) and not b.leq(5)   # 1 + log2(8) = 4
    assert bound_log_chain(0, 5).leq(1)
    assert b.display() == 4.0


def _window(shown: float) -> list[int]:
    """r from -3 to 0, and r within 3 of the bound."""
    top = floor(shown)
    return sorted(set(range(-3, 1)) | set(range(top - 3, top + 4)))


def test_log2_bounds_match_a_cross_multiplied_oracle_on_a_grid():
    # The oracle states each bound as a power comparison, multiplied through
    # by 2^-lo with lo the lowest r of the window, so it never branches on
    # the sign of r:
    #   r <= k(1 + log2(n/k))  <=>  k^k * 2^(r-k) <= n^k
    #   r <= 1 + s log2(n)     <=>  2^(r-1) <= n^s
    # The displays keep the float expressions the printed bounds use.
    for k in range(1, 17):
        for n in range(1, 1025):
            b = bound_thm6(k, n)
            assert b.display() == k * (1.0 + log2(n / k))
            window = _window(b.display())
            lo = window[0]
            for r in window:
                lhs, rhs = k**k << (r - lo), n**k << (k - lo)
                assert (b.leq(r), b.eq(r)) == (lhs <= rhs, lhs == rhs), (k, n, r)
    for s in range(17):
        for n in range(1, 1025):
            b = bound_log_chain(s, n)
            assert b.display() == 1.0 + s * log2(n)
            window = _window(b.display())
            lo = window[0]
            for r in window:
                lhs, rhs = 1 << (r - lo), n**s << (1 - lo)
                assert (b.leq(r), b.eq(r)) == (lhs <= rhs, lhs == rhs), (s, n, r)


def test_claim63_bound_matches_a_power_oracle_on_a_grid():
    # k(2^(r/k) - 1) <= x  <=>  r <= log2((x + k)^k / k^k)  <=>  k^k * 2^r <= (x + k)^k
    for k in range(2, 17):
        for x in range(1025):
            b = bound_claim63(k, x)
            assert b.display() == k * log2(1 + x / k)
            top = floor(b.display())
            for r in range(max(top - 3, 0), top + 4):
                lhs, rhs = k**k * 2**r, (x + k) ** k
                assert (b.leq(r), b.eq(r)) == (lhs <= rhs, lhs == rhs), (k, x, r)
    for k in range(2, 17):
        with pytest.raises(DomainError, match="x must be >= 0, got -1"):
            bound_claim63(k, -1)


def test_fmin_boundary():
    # (k+x) * 2^(-x/k) > k for 1 <= x <= k-1: true for every k tested
    for k in range(2, 12):
        for x in range(1, k):
            assert fmin_boundary_holds(k, x)


def test_harper_values():
    assert harper_bandwidth(1, "standard") == 1
    assert harper_bandwidth(3, "printed") == 12
    assert harper_bandwidth(3, "standard") == 1 + 1 + 2
    with pytest.raises(DomainError):
        harper_bandwidth(2, "mystery")
    with pytest.raises(DomainError):
        harper_bandwidth(0, "printed")


def test_harper_variants_ordering():
    # the as-typeset sum dominates the index-dependent reading for d >= 2
    for d in range(2, 13):
        assert harper_bandwidth(d, "standard") <= harper_bandwidth(d, "printed")
    assert harper_bandwidth(1, "standard") == 1 <= harper_bandwidth(1, "printed")


def test_tables():
    t = build_R_table(2, 10)
    assert len(t) == 11 and t[10] == R_rec(2, 10) and t[0] == 0
    a = build_N_table(3, 8)
    assert len(a) == 9 and a[0] == 0 and a[8] == N_adjoint(3, 8)


def _R_row(k, n_max):
    """The R table entry by entry, or the DomainError that refuses it."""
    try:
        return [R_rec(k, n) for n in range(n_max + 1)]
    except DomainError:
        return DomainError


@pytest.mark.parametrize("k", range(1, 65))
def test_R_table_equals_the_recurrence_entry_by_entry(k):
    full = _R_row(k, 5000)
    for n_max in sorted({0, 1, k - 1, k, k + 1, 2 * k + 3, 5000}):
        assert build_R_table(k, n_max) == full[:n_max + 1]


@pytest.mark.parametrize("k", [-1, 0, 1, 3])
@pytest.mark.parametrize("n_max", [-1, 0, 1, 5])
def test_R_table_refusals(k, n_max):
    expected = _R_row(k, n_max)
    if expected is DomainError:
        with pytest.raises(DomainError):
            build_R_table(k, n_max)
    else:
        assert build_R_table(k, n_max) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: R_explicit(1, -1), "n must be >= 0, got -1"),
    (lambda: N_adjoint(1, -1), "r must be >= 0, got -1"),
    (lambda: claim61_value(2, 0), "j must be >= 1, got 0"),
    (lambda: claim62_value(2, 0), "r must be >= 1, got 0"),
    (lambda: fmin_boundary_holds(3, 3), "x must be in 1..k-1, got 3"),
    (lambda: bound_log_chain(-1, 4), "s must be >= 0, got -1"),
    (lambda: bound_log_chain(1, 0), "n must be >= 1, got 0"),
], ids=["R_explicit", "N_adjoint", "claim61", "claim62", "fmin", "log_chain_s", "log_chain_n"])
def test_out_of_domain_arguments_are_refused(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
