from fractions import Fraction

import pytest

from submult import core, functions, inequalities
from submult.core import (
    LESS,
    build_spf_table,
    cmp_power_products_detail,
    primes_upto,
    sieve_primes,
)
from submult.errors import ResourceError, UnsupportedInputError, UsageError
from submult.inequalities import (
    verify_corollary1,
    verify_eq12,
    verify_eq13,
    verify_eq16,
    verify_eq20,
    verify_eq23,
)

from blocks import block, block_need, row_orders, scalar_oracle
from oracles import phi_oracle, sigma_oracle


# --- eq12: (p+1)^(p-1) < p^p -------------------------------------------------


def test_eq12_small_primes():
    assert (2 + 1) ** 1 == 3 < 2**2
    assert (3 + 1) ** 2 == 16 < 27
    assert verify_eq12(100).holds


def test_eq12_counts_primes():
    r = verify_eq12(10_000)
    assert r.holds
    assert r.pairs_checked == 1229


def test_eq12_equivalent_rewriting():
    # (p+1)^(p-1) < p^p  <=>  (1 + 1/p)^p < p + 1
    for p in primes_upto(100):
        original, _ = cmp_power_products_detail([(Fraction(p + 1), p - 1)],
                                                [(Fraction(p), p)])
        rewritten, _ = cmp_power_products_detail([(Fraction(p + 1, p), p)],
                                                 [(Fraction(p + 1), 1)])
        assert (original == LESS) == (rewritten == LESS)


# --- eq13: sigma(n)^phi(n) < n^n ---------------------------------------------


def test_eq13_first_values():
    assert 3**1 == 3 < 2**2
    assert 12**2 == 144 < 6**6
    assert verify_eq13(50).holds


def test_eq13_agrees_with_direct_bigint_oracle(table_10k):
    r = verify_eq13(200, table=table_10k)
    assert r.holds
    for n in range(2, 201):
        assert sigma_oracle(n) ** phi_oracle(n) < n**n


def test_eq13_exact_mode_forces_fallback(table_10k):
    filtered = verify_eq13(300, table=table_10k)
    with scalar_oracle():
        exact = verify_eq13(300, table=table_10k)
    assert filtered.holds and exact.holds
    assert exact.stats["exact_fallbacks"] == 299
    assert filtered.stats.get("exact_fallbacks", 0) < 299


def test_eq13_calls_share_their_value_tables():
    # the tables kept on a given spf table are keyed by function, so a call
    # with new functions would keep two more
    table = core.build_spf_table(500)
    verify_eq13(500, table=table)
    kept = list(table.tables)
    verify_eq13(500, table=table)
    assert kept and list(table.tables) == kept


def test_eq13_range_validation():
    with pytest.raises(UsageError):
        verify_eq13(1)


# --- eq16 --------------------------------------------------------------------


def test_eq16_hand_values():
    # p=2, a=b=1: 7/3 >= 9/4 (cross-multiplied 28 >= 27)
    assert Fraction(2**3 - 1, (2 - 1) * 3) == Fraction(7, 3) >= Fraction(9, 4)
    # p=3, a=b=1: 13/3 >= 4
    assert Fraction(3**3 - 1, (3 - 1) * 3) == Fraction(13, 3) >= 4
    r = verify_eq16(50, 10)
    assert r.holds
    assert r.pairs_checked == len(primes_upto(50)) * 100


def test_eq16_formula_is_the_mean_divisor(registry):
    # the closed form in the verifier equals sigma/d on prime powers
    from submult.core import prime_power
    from submult.functions import evaluate_fact
    from submult.inequalities import _sigma_over_d_pp

    sod = registry.get("sigma_over_d")
    for p in (2, 3, 5, 47):
        for e in range(1, 12):
            assert _sigma_over_d_pp(p, e) == evaluate_fact(sod, prime_power(p, e))


# --- eq20 --------------------------------------------------------------------


def test_eq20_boundary_equality_holds():
    # a=b=1, k=2: 9 >= 9 is an equality and not a counterexample
    r = verify_eq20(1, 2)
    assert r.holds


def test_eq20_hand_value_and_sweep():
    assert 6**4 == 1296 >= (4 * 0 + 1) * (4 * 5 + 1) == 21
    r = verify_eq20(50, 6)
    assert r.holds
    assert r.pairs_checked == 51 * 51 * 5


def _eq20_property(monkeypatch, max_ab, max_k):
    props = []
    monkeypatch.setattr(inequalities, "sweep_report", lambda *args: props.append(args[3]))
    verify_eq20(max_ab, max_k)
    return props[0]


@pytest.mark.parametrize("rows", [[0], [0, 1, 2], list(range(13))])
def test_eq20_block_orders_are_the_scalar_orders(monkeypatch, rows):
    # every k of a block, in (b, k) column order
    prop = _eq20_property(monkeypatch, 12, 5)
    decided = list(row_orders(block(prop, rows)))
    assert len(decided) == len(rows)
    for row, orders in zip(rows, decided):
        assert orders.tolist() == [prop.compare(row, b, k)[0]
                                   for b in range(13) for k in range(2, 6)]


def _outcome(r):
    return r.verdict, r.counterexamples, r.pairs_checked, r.stats


def test_eq20_blocks_beyond_the_memory_budget_go_to_the_scalar_path(monkeypatch):
    fast = verify_eq20(12, 5)
    prop = _eq20_property(monkeypatch, 12, 5)
    monkeypatch.undo()
    need = block_need(block, prop, [0, 1])
    assert need > 0
    monkeypatch.setattr(core, "memory_budget", lambda: need)
    assert all(orders is not None for orders in row_orders(block(prop, [0, 1])))
    # below the need of its Python ints a block goes whole to the scalar path
    monkeypatch.setattr(core, "memory_budget", lambda: need - 1)
    assert all(orders is None for orders in row_orders(block(prop, [0, 1])))
    assert _outcome(verify_eq20(12, 5)) == _outcome(fast)
    with scalar_oracle():
        assert _outcome(verify_eq20(12, 5)) == _outcome(fast)


# --- eq23 --------------------------------------------------------------------


def test_eq23_hand_values_and_sweep():
    # p=2, a=b=1, k=2: phi(4)^2 = 4 <= 4 phi(4) = 8
    assert 2**2 == 4 <= 2**2 * 2
    for k in (2, 3):
        assert verify_eq23(50, 8, k).holds


def test_eq23_b_zero_is_totient_bound():
    # b = 0 rows reduce to phi(p^a)^k <= p^(k a)
    r = verify_eq23(20, 5, 2)
    assert r.holds


# --- corollary1 --------------------------------------------------------------


def test_corollary1_sigma_phi(registry):
    table = build_spf_table(500)
    a, b = verify_corollary1(registry.get("sigma"), registry.get("phi"),
                             100, 500, registry=registry, table=table)
    assert a.holds and b.holds
    assert a.pairs_checked == len(primes_upto(100))
    assert b.pairs_checked == 499


def test_corollary1_builds_one_sieve(monkeypatch, registry):
    """corollary1 takes its primes from the sieve it sweeps on, and builds
    no second one for them."""
    limits = []
    sieve = core._sieve.spf_sieve
    monkeypatch.setattr(core._sieve, "spf_sieve",
                        lambda limit: limits.append(limit) or sieve(limit))
    a, b = verify_corollary1(registry.get("sigma"), registry.get("phi"),
                             100, 500, registry=registry)
    assert limits == [500]
    assert a.holds and b.holds and a.pairs_checked == 25


def test_sieve_primes_are_the_primes_the_sieve_reaches():
    table = build_spf_table(200)
    for limit in (0, 1, 2, 3, 100, 199, 200):
        assert sieve_primes(table.spf, limit) == primes_upto(limit)
    assert sieve_primes(table.spf, 1000) == primes_upto(200)


def test_corollary1_requires_hypothesis_tags(registry):
    # phi is not sub-multiplicative, so it cannot be the base function
    with pytest.raises(UsageError):
        verify_corollary1(registry.get("phi"), registry.get("phi"),
                          20, 20, registry=registry)
    # sigma is not sub-homogeneous, so it cannot be the exponent function
    with pytest.raises(UsageError):
        verify_corollary1(registry.get("sigma"), registry.get("sigma"),
                          20, 20, registry=registry)


def test_corollary1_rejects_fractional_exponent_fn(registry):
    # d is sub-mult and sigma_over_d is sub-hom, so tags pass, but
    # sigma_over_d is not integer-valued (7/3 at n = 4)
    with pytest.raises(UnsupportedInputError):
        verify_corollary1(registry.get("d"), registry.get("sigma_over_d"),
                          20, 20, registry=registry)


def test_corollary1_constant_pair_trivial(registry):
    # 1 < p^p and 1 < n^n
    a, b = verify_corollary1(registry.get("constant-1"), registry.get("constant-1"),
                             20, 20, registry=registry)
    assert a.holds and b.holds


@pytest.mark.parametrize("run", [
    lambda registry, table: verify_eq13(20_000, table=table),
    lambda registry, table: verify_corollary1(
        registry.get("sigma"), registry.get("phi"), 10, 20_000, registry=registry,
        table=table),
], ids=["eq13", "corollary1"])
def test_power_lines_refuse_a_table_below_their_sieve_limit(monkeypatch, registry, run):
    """Like the grids and the identity bounds, eq13 and corollary1 refuse,
    before any point is compared, a sieve that does not reach every n they
    evaluate, instead of evaluating past it by trial division."""
    def refuse(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(functions, "trial_factorize", refuse)
    with pytest.raises(ResourceError, match="sieve limit of at least 20000, "
                                            "table covers 100"):
        run(registry, build_spf_table(100))
