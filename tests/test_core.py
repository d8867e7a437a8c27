import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submult.core import (
    EQUAL,
    GREATER,
    LESS,
    build_spf_table,
    cmp_power_products,
    cmp_power_products_detail,
    cmp_powers,
    cmp_values,
    eval_d,
    eval_phi,
    eval_sigma,
    factorize,
    is_prime,
    prime_power,
    primes_upto,
    trial_factorize,
)
from submult.errors import (
    DomainError,
    InvariantViolation,
    ResourceError,
    UnsupportedInputError,
    UsageError,
)

from oracles import d_oracle, factor_oracle, phi_oracle, sigma_oracle


# --- sieve table -----------------------------------------------------------


def test_build_spf_table_small():
    t = build_spf_table(10)
    expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 2, 7: 7, 8: 2, 9: 3, 10: 2}
    for i, s in expected.items():
        assert t.spf[i] == s


def test_build_spf_table_minimum():
    t = build_spf_table(2)
    assert t.spf[2] == 2


def test_spf_91():
    t = build_spf_table(100)
    assert t.spf[91] == 7 == __import__("oracles").spf_oracle(91)


def test_build_spf_table_rejects_tiny_limit():
    with pytest.raises(UsageError):
        build_spf_table(1)


def test_oversized_sieve_refused_before_allocating(monkeypatch):
    from submult import core

    def never(limit):
        raise AssertionError("the sieve was allocated")

    monkeypatch.setattr(core._sieve, "spf_sieve", never)
    with pytest.raises(ResourceError, match="physical memory"):
        build_spf_table(10**13)
    with pytest.raises(ResourceError, match="physical memory"):
        primes_upto(10**13)


# --- factorization ---------------------------------------------------------


def test_factorize_examples(table_10k):
    assert factorize(1, table_10k).pairs == ()
    assert factorize(12, table_10k).pairs == ((2, 2), (3, 1))
    assert factorize(360, table_10k).pairs == ((2, 3), (3, 2), (5, 1))
    assert factorize(360, table_10k).pairs == tuple(factor_oracle(360))


def test_factorize_errors(table_10k):
    with pytest.raises(DomainError):
        factorize(0, table_10k)
    with pytest.raises(UsageError):
        factorize(10_001, table_10k)


def test_factorize_roundtrip_full_range(table_10k):
    for n in range(1, 10_001):
        f = factorize(n, table_10k)
        assert f.value() == n


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_trial_factorize_roundtrip(n):
    f = trial_factorize(n)
    assert f.value() == n
    f.validate()


def test_trial_factorize_is_bounded():
    t0 = time.perf_counter()
    assert trial_factorize(10**18 + 3).pairs == ((10**18 + 3, 1),)  # prime
    assert trial_factorize(2**40 * 999983 * 1000003).pairs == (
        (2, 40), (999983, 1), (1000003, 1))
    with pytest.raises(ResourceError, match="no prime factor up to"):
        trial_factorize((10**9 + 7) * (10**9 + 9))
    assert time.perf_counter() - t0 < 5


def test_factorization_validate_catches_bad_input():
    from submult.core import Factorization

    with pytest.raises(InvariantViolation):
        Factorization(((4, 1),)).validate()  # 4 not prime
    with pytest.raises(InvariantViolation):
        Factorization(((3, 1), (2, 1))).validate()  # out of order
    with pytest.raises(InvariantViolation):
        Factorization(((2, 0),)).validate()  # exponent < 1


def test_is_prime_known_values():
    primes = {2, 3, 5, 7, 11, 41, 97, 7919, 2**61 - 1}
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
    psi_12 = 318665857834031151167461
    composites = {1, 0, 4, 341, 561, 1105, 2**61 - 3, psi_12}
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)
    # psi_13, the first strong pseudoprime to bases 2..41: beyond the exact range
    with pytest.raises(UnsupportedInputError):
        is_prime(3317044064679887385961981)


def test_primes_upto():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1) == []
    assert len(primes_upto(10_000)) == 1229


def _eratosthenes(limit):
    """Primes up to limit by a plain sieve on Python lists."""
    composite = [False] * (limit + 1)
    primes = []
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            for j in range(i * i, limit + 1, i):
                composite[j] = True
    return primes


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 30, 97, 1000, 10**5])
def test_primes_upto_matches_a_reference_sieve(limit):
    primes = primes_upto(limit)
    assert primes == _eratosthenes(limit)
    assert all(type(p) is int for p in primes)


# --- classical functions ---------------------------------------------------


def test_phi_examples(table_10k):
    assert eval_phi(factorize(1, table_10k)) == 1
    assert eval_phi(factorize(8, table_10k)) == 4
    assert eval_phi(factorize(100, table_10k)) == 40 == phi_oracle(100)


def test_d_examples(table_10k):
    assert eval_d(factorize(1, table_10k)) == 1
    assert eval_d(factorize(16, table_10k)) == 5
    assert eval_d(factorize(12, table_10k)) == 6 == d_oracle(12)


def test_sigma_examples(table_10k):
    assert eval_sigma(factorize(1, table_10k)) == 1
    assert eval_sigma(factorize(6, table_10k)) == 12 == sigma_oracle(6)
    assert eval_sigma(factorize(100, table_10k)) == 217 == sigma_oracle(100)


def test_functions_match_oracles_to_500(table_10k):
    for n in range(1, 501):
        f = factorize(n, table_10k)
        assert eval_phi(f) == phi_oracle(n)
        assert eval_d(f) == d_oracle(n)
        assert eval_sigma(f) == sigma_oracle(n)


def test_bounds_used_by_implications(table_10k):
    # phi(n) <= n, d(n) <= n, sigma(n) >= n
    for n in range(1, 2001):
        f = factorize(n, table_10k)
        assert eval_phi(f) <= n
        assert eval_d(f) <= n
        assert eval_sigma(f) >= n


# --- comparisons -----------------------------------------------------------


def test_cmp_values():
    assert cmp_values(Fraction(7, 3), Fraction(9, 4)) == GREATER
    assert cmp_values(Fraction(1), Fraction(1)) == EQUAL
    assert cmp_values(Fraction(3, 2), Fraction(2)) == LESS


def test_cmp_powers_examples():
    assert cmp_powers(3, 1, 2, 2) == LESS  # 3 < 4
    assert cmp_powers(5, 0, 7, 0) == EQUAL  # 1 = 1
    assert cmp_powers(12, 2, 6, 6) == LESS  # 144 < 46656


def test_cmp_powers_equalities():
    assert cmp_powers(4, 3, 8, 2) == EQUAL  # 64 = 64
    assert cmp_powers(Fraction(9, 4), 2, Fraction(3, 2), 4) == EQUAL


def test_cmp_powers_domain_errors():
    with pytest.raises(DomainError):
        cmp_powers(0, 2, 3, 1)
    with pytest.raises(DomainError):
        cmp_powers(Fraction(-2, 3), 1, 3, 1)
    with pytest.raises(UsageError):
        cmp_powers(2, -1, 3, 1)


def test_cmp_powers_budget():
    # 2^(10^7) vs 1024^(10^6): exactly equal, so the filter cannot
    # separate them and the exact path is needed, whose ~9 * 10^6
    # estimated digits the budget blocks
    with pytest.raises(ResourceError):
        cmp_powers(2, 10**7, 1024, 10**6)
    # a wide gap is decided by the filter without touching the budget,
    # though the exact path would need ~1.5 * 10^8 digits
    assert cmp_powers(3, 10**8, 4, 10**8) == LESS


def test_cmp_powers_spot_grid_vs_direct_pow():
    bases = [1, 2, 3, 7, 10, 97, 256, 999, 1000]
    exps = [0, 1, 2, 3, 7, 31, 64]
    for a in bases:
        for b in bases:
            for e1 in exps:
                for e2 in exps:
                    want = (a**e1 > b**e2) - (a**e1 < b**e2)
                    assert cmp_powers(a, e1, b, e2) == want


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.integers(min_value=0, max_value=80),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.integers(min_value=0, max_value=80),
)
@settings(max_examples=300)
def test_cmp_powers_matches_exact_fractions(a, e1, b, e2):
    want = (a**e1 > b**e2) - (a**e1 < b**e2)
    assert cmp_powers(a, e1, b, e2) == want
    # filtered and unfiltered paths agree
    assert cmp_powers(a, e1, b, e2, use_filter=False) == want


def test_cmp_power_products():
    # 2^3 * 3^2 = 72 vs 70
    assert cmp_power_products([(2, 3), (3, 2)], [(70, 1)]) == GREATER
    # same multiset of factors after merging
    assert cmp_power_products([(2, 3)], [(2, 1), (2, 2)]) == EQUAL
    # base-1 and exponent-0 factors are inert
    assert cmp_power_products([(1, 5), (3, 0)], []) == EQUAL


@st.composite
def _sides_with_a_common_exponent_factor(draw):
    """Two products of powers whose exponents all share a drawn factor;
    half of them equal by construction (each base split into its
    numerator and the reciprocal of its denominator)."""
    common = draw(st.integers(1, 12))
    factor = st.tuples(st.fractions(min_value=Fraction(1, 60), max_value=60),
                       st.integers(0, 8).map(lambda e: common * e))
    lhs = draw(st.lists(factor, min_size=1, max_size=3))
    if draw(st.booleans()):
        rhs = [part for base, exp in lhs
               for part in ((base.numerator, exp), (Fraction(1, base.denominator), exp))]
    else:
        rhs = draw(st.lists(factor, min_size=1, max_size=3))
    return lhs, rhs


def _product(side):
    out = Fraction(1)
    for base, exp in side:
        out *= Fraction(base) ** exp
    return out


@given(_sides_with_a_common_exponent_factor(), st.booleans())
@settings(max_examples=300)
def test_exact_branch_divides_out_the_exponent_gcd(sides, use_filter):
    lhs, rhs = sides
    x, y = _product(lhs), _product(rhs)
    order, used_exact = cmp_power_products_detail(lhs, rhs, use_filter=use_filter)
    assert order == (x > y) - (x < y)
    if not use_filter and order != EQUAL:
        assert used_exact


def test_prime_power_helper():
    assert prime_power(5, 0).pairs == ()
    assert prime_power(5, 3).value() == 125
