from fractions import Fraction

import pytest

from submult.core import build_spf_table, factorize
from submult.errors import DomainError, InvariantViolation, UsageError
from submult.functions import (
    POWER,
    QUOTIENT,
    RECIPROCAL,
    SUM,
    Evaluator,
    builtin_registry,
    combine,
    evaluate,
    make_prime_power_fn,
)

BUILTIN_NAMES = [
    "constant-1", "d", "identity", "n_over_phi", "n_plus_d", "n_times_phi",
    "phi", "phi_over_d", "sigma", "sigma_over_d", "sigma_over_phi",
]


def test_registry_ships_exactly_the_stock_functions(registry):
    assert registry.names() == BUILTIN_NAMES


def test_multiplicative_functions_are_one_at_one(registry, table_10k):
    for name in BUILTIN_NAMES:
        fn = registry.get(name)
        if fn.is_multiplicative:
            assert evaluate(fn, 1, table_10k) == 1


def test_eval_examples(registry, table_10k):
    assert evaluate(registry.get("sigma_over_d"), 12, table_10k) == Fraction(14, 3)
    assert evaluate(registry.get("n_plus_d"), 6, table_10k) == 10
    assert evaluate(registry.get("identity"), 42, table_10k) == 42
    assert evaluate(registry.get("constant-1"), 42, table_10k) == 1
    assert evaluate(registry.get("n_over_phi"), 4, table_10k) == 2
    assert evaluate(registry.get("n_times_phi"), 6, table_10k) == 12


def test_evaluate_rejects_nonpositive_n(registry):
    with pytest.raises(DomainError):
        evaluate(registry.get("phi"), 0)
    with pytest.raises(DomainError):
        evaluate(registry.get("phi"), -3)


def test_evaluate_beyond_table_uses_trial_division(registry, table_10k):
    # 10007 is prime and above the table limit
    assert evaluate(registry.get("phi"), 10007, table_10k) == 10006


def test_prime_power_clones_match_builtins(registry, table_10k):
    clones = {
        "phi": make_prime_power_fn(
            "phi2", lambda p, a: Fraction(1) if a == 0 else Fraction(p ** (a - 1) * (p - 1))),
        "d": make_prime_power_fn("d2", lambda p, a: Fraction(a + 1)),
        "sigma": make_prime_power_fn(
            "sigma2", lambda p, a: Fraction((p ** (a + 1) - 1) // (p - 1))),
    }
    for name, clone in clones.items():
        builtin = registry.get(name)
        for n in range(1, 10_001):
            fact = factorize(n, table_10k)
            from submult.functions import evaluate_fact

            assert evaluate_fact(clone, fact) == evaluate_fact(builtin, fact), n


def test_constant_rule_and_identity_rule():
    one = make_prime_power_fn("one", lambda p, a: Fraction(1))
    ident = make_prime_power_fn("ident", lambda p, a: Fraction(p**a))
    for n in (1, 2, 17, 360):
        assert evaluate(one, n) == 1
        assert evaluate(ident, n) == n


def test_rule_must_be_one_at_exponent_zero():
    with pytest.raises(InvariantViolation):
        make_prime_power_fn("bad", lambda p, a: Fraction(a + 2))


def test_combine_arity_errors(registry):
    phi = registry.get("phi")
    d = registry.get("d")
    with pytest.raises(UsageError):
        combine(QUOTIENT, (phi,))
    with pytest.raises(UsageError):
        combine(RECIPROCAL, (phi, d))
    with pytest.raises(UsageError):
        combine(POWER, (phi,))
    with pytest.raises(UsageError):
        combine("convolution", (phi, d))


def test_power_combinator_has_no_value(registry):
    h = combine(POWER, (registry.get("sigma"), registry.get("phi")))
    with pytest.raises(UsageError):
        evaluate(h, 6)


def test_quotient_and_reciprocal_zero_denominator():
    # rule is 1 at a=0 and 0 at a>=1, so f(2) = 0
    zeroish = make_prime_power_fn(
        "zeroish", lambda p, a: Fraction(1) if a == 0 else Fraction(0),
        positive=False)
    one = make_prime_power_fn("one", lambda p, a: Fraction(1))
    with pytest.raises(DomainError):
        evaluate(combine(QUOTIENT, (one, zeroish)), 2)
    with pytest.raises(DomainError):
        evaluate(combine(RECIPROCAL, (zeroish,)), 2)


def test_structural_multiplicativity(registry):
    assert registry.get("phi").is_multiplicative
    assert registry.get("sigma_over_d").is_multiplicative
    assert registry.get("n_times_phi").is_multiplicative
    assert not registry.get("n_plus_d").is_multiplicative
    h = combine(POWER, (registry.get("sigma"), registry.get("phi")))
    assert not h.is_multiplicative


def test_sum_evaluates(registry, table_10k):
    f = combine(SUM, (registry.get("phi"), registry.get("d")))
    assert evaluate(f, 12, table_10k) == 4 + 6


def test_evaluator_caches(registry, table_10k):
    ev = Evaluator(registry.get("sigma"), table_10k)
    assert ev(100) == 217
    assert ev(100) == 217
    assert 100 in ev._cache


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_values_at_powers_come_from_the_base(registry, name):
    """evaluate(f, n, table, k) is f at n^k, from n's factorization on the
    sieve where it covers n and by trial division beyond it; an Evaluator
    keeps f(n) and f(n^k) apart in its cache."""
    f = registry.get(name)
    table = build_spf_table(50)
    for n in (1, 2, 12, 49, 50, 51, 97, 360):
        for k in (1, 2, 3):
            assert evaluate(f, n, table, k) == evaluate(f, n**k)
    ev = Evaluator(f, table)
    assert (ev(12, 2), ev(12), ev(144)) == (evaluate(f, 144), evaluate(f, 12),
                                            evaluate(f, 144))
    assert set(ev._cache) == {(12, 2), 12, 144}


def test_registry_errors(registry):
    with pytest.raises(UsageError):
        registry.get("totient")
    fresh = builtin_registry()
    with pytest.raises(UsageError):
        fresh.register(fresh.get("phi"))
