from fractions import Fraction

import pytest

from submult.checks import REFUTED, SUB, SUP, CheckConfig, CheckReport, check_submult
from submult.core import build_spf_table, prime_power, primes_upto
from submult.errors import InconsistencyError, UsageError
from submult.functions import evaluate_fact
from submult.local import (
    LocalCriterion,
    bridge_consistency,
    check_local,
    check_local_k_subhom,
    check_local_k_submult,
    check_local_subhom,
    check_local_submult,
)


# --- the four criteria on the stock functions -------------------------------


def test_d_local_submult_reduces_to_trivial(registry):
    # d(p^(a+b)) = a+b+1 <= (a+1)(b+1); slack is exactly a*b
    r = check_local_submult(registry.get("d"), "sub", 100, 20)
    assert r.holds
    assert r.triples_checked == len(primes_upto(100)) * 21 * 21


def test_sigma_over_d_local_supmult(registry):
    assert check_local_submult(registry.get("sigma_over_d"), "sup", 50, 10).holds


def test_phi_local_submult_fails_at_2_1_1(registry):
    r = check_local_submult(registry.get("phi"), "sub", 10, 3)
    assert r.verdict == REFUTED
    first = r.counterexamples[0]
    assert first.coords() == (2, 1, 1)
    assert (first.lhs, first.rhs) == (2, 1)  # phi(4) = 2 > phi(2)^2 = 1


def test_zero_exponent_rows_never_fail(registry):
    # f(p^0) = 1 makes a = 0 or b = 0 an equality/triviality for eq14
    r = check_local_submult(registry.get("phi"), "sub", 20, 4)
    assert all(cex["a"] >= 1 and cex["b"] >= 1 for cex in r.counterexamples)


def test_k_local_criteria(registry):
    d, phi = registry.get("d"), registry.get("phi")
    for k in (2, 3):
        assert check_local_k_submult(d, k, "sup", 50, 10).holds
        assert check_local_k_submult(phi, k, "sub", 50, 10).holds


def test_phi_k_local_equality_case(registry):
    # (phi(2^2))^2 = 4 equals phi(2^2) phi(2^2) = 4: equality, not a failure
    phi = registry.get("phi")
    v = evaluate_fact(phi, prime_power(2, 2))
    assert v**2 == v * v
    assert check_local_k_submult(phi, 2, "sub", 2, 1).holds


def test_subhom_local(registry):
    assert check_local_subhom(registry.get("sigma"), "sup", 100, 20).holds
    assert check_local_subhom(registry.get("phi"), "sub", 100, 20).holds
    assert check_local_subhom(registry.get("identity"), "sub", 50, 10).holds
    assert check_local_subhom(registry.get("identity"), "sup", 50, 10).holds


def test_phi_subhom_local_equality_for_positive_exponents(registry):
    # phi(p^(a+b)) = p^a phi(p^b) exactly, whenever a, b >= 1
    phi = registry.get("phi")
    for p in (2, 3, 5):
        for a in range(1, 6):
            for b in range(1, 6):
                lhs = evaluate_fact(phi, prime_power(p, a + b))
                rhs = Fraction(p**a) * evaluate_fact(phi, prime_power(p, b))
                assert lhs == rhs


def test_k_subhom_local(registry):
    for k in (2, 3):
        assert check_local_k_subhom(registry.get("phi"), k, "sub", 50, 8).holds
    assert check_local_k_subhom(registry.get("sigma"), 2, "sup", 50, 8).holds


def test_paper_direction_table_small_grid(registry):
    cases = [
        ("d", "eq14", "sub", None), ("d", "eq18", "sup", 2),
        ("phi", "eq14", "sup", None), ("phi", "eq18", "sub", 2),
        ("phi", "eq21", "sub", None), ("phi", "eq22", "sub", 2),
        ("sigma", "eq14", "sub", None), ("sigma", "eq18", "sup", 2),
        ("sigma", "eq21", "sup", None), ("sigma", "eq22", "sup", 2),
        ("sigma_over_d", "eq14", "sup", None),
    ]
    for name, crit_id, direction, k in cases:
        crit = LocalCriterion(crit_id, direction, k)
        r = check_local(registry.get(name), crit, 20, 5)
        assert r.holds, (name, crit.label())


def test_local_requires_multiplicative(registry):
    with pytest.raises(UsageError):
        check_local_submult(registry.get("n_plus_d"), "sub", 10, 3)


def test_local_criterion_validation():
    with pytest.raises(UsageError):
        LocalCriterion("eq14", "sub", 2)  # k not allowed
    with pytest.raises(UsageError):
        LocalCriterion("eq18", "sub")  # k required
    with pytest.raises(UsageError):
        LocalCriterion("eq15", "sub")
    with pytest.raises(UsageError):
        LocalCriterion("eq14", "both")


# --- bridge ------------------------------------------------------------------


def test_bridge_consistent_when_both_hold(registry, table_10k):
    d = registry.get("d")
    crit = LocalCriterion("eq14", "sub")
    local = check_local_submult(d, "sub", 50, 10)
    global_report = check_submult(d, SUB, CheckConfig(), table_10k)
    br = bridge_consistency(d, crit, local, global_report)
    assert br.consistent


def test_bridge_consistent_when_both_refuted(registry, table_10k):
    phi = registry.get("phi")
    crit = LocalCriterion("eq14", "sub")
    local = check_local_submult(phi, "sub", 50, 10)
    global_report = check_submult(phi, SUB, CheckConfig(), table_10k)
    assert local.verdict == REFUTED and global_report.verdict == REFUTED
    assert bridge_consistency(phi, crit, local, global_report).consistent


def test_bridge_k_criteria(registry):
    from submult.checks import check_k_submult

    d = registry.get("d")
    crit = LocalCriterion("eq18", "sup", 2)
    local = check_local_k_submult(d, 2, "sup", 50, 10)
    table = build_spf_table(50**2)
    cfg = CheckConfig(max_m=50, max_n=50)
    global_report = check_k_submult(d, 2, SUP, cfg, table)
    assert bridge_consistency(d, crit, local, global_report).consistent


def test_bridge_rejects_mismatches(registry, table_10k):
    d = registry.get("d")
    local = check_local_submult(d, "sub", 20, 5)
    wrong_direction = check_submult(d, SUP, CheckConfig(), table_10k)
    with pytest.raises(UsageError):
        bridge_consistency(d, LocalCriterion("eq14", "sub"), local, wrong_direction)
    phi_report = check_submult(registry.get("phi"), SUB, CheckConfig(), table_10k)
    with pytest.raises(UsageError):
        bridge_consistency(d, LocalCriterion("eq14", "sub"), local, phi_report)


def _fake_global(function, prop, verdict, cex, max_m=100, max_n=100):
    return CheckReport(
        function=function, property=prop,
        params={"max_m": max_m, "max_n": max_n}, verdict=verdict,
        counterexamples=cex, pairs_checked=max_m * max_n, elapsed_seconds=0.0)


def test_bridge_detects_forward_violation(registry):
    from submult.checks import Counterexample

    d = registry.get("d")
    crit = LocalCriterion("eq14", "sub")
    local = check_local_submult(d, "sub", 50, 10)  # holds
    fake = _fake_global(
        "d", "sub-mult", REFUTED,
        [Counterexample((("m", 2), ("n", 2)), Fraction(3), Fraction(4))])
    with pytest.raises(InconsistencyError):
        bridge_consistency(d, crit, local, fake)


def test_bridge_detects_converse_violation(registry):
    from submult.checks import Counterexample
    from submult.local import LocalReport

    d = registry.get("d")
    crit = LocalCriterion("eq14", "sub")
    fake_local = LocalReport(
        function="d", criterion=crit, max_prime=50, max_exp=10,
        verdict=REFUTED,
        counterexamples=[
            Counterexample((("p", 2), ("a", 1), ("b", 1)), Fraction(3), Fraction(4))],
        triples_checked=1, elapsed_seconds=0.0)
    true_global = _fake_global("d", "sub-mult", "holds-on-range", [])
    with pytest.raises(InconsistencyError):
        bridge_consistency(d, crit, fake_local, true_global)


def test_bridge_never_inconsistent_across_registry_defaults(registry, table_10k):
    """Whatever the verdicts, local and global sweeps at the default grids
    can never contradict the implications for any stock function."""
    from submult.checks import check_k_subhom, check_k_submult, check_subhom
    from submult.local import check_local_k_subhom, check_local_k_submult

    cfg = CheckConfig()
    for name in registry.names():
        fn = registry.get(name)
        if not fn.is_multiplicative:
            continue
        for direction in (SUB, SUP):
            crit = LocalCriterion("eq14", direction)
            local = check_local_submult(fn, direction, 50, 10)
            glob = check_submult(fn, direction, cfg, table_10k)
            assert bridge_consistency(fn, crit, local, glob).consistent

    for name in ("phi", "d", "sigma", "sigma_over_d"):
        fn = registry.get(name)
        for direction in (SUB, SUP):
            local = check_local_subhom(fn, direction, 50, 10)
            glob = check_subhom(fn, direction, cfg, table_10k)
            crit = LocalCriterion("eq21", direction)
            assert bridge_consistency(fn, crit, local, glob).consistent

            local = check_local_k_submult(fn, 2, direction, 50, 10)
            glob = check_k_submult(fn, 2, direction, cfg, table_10k)
            crit = LocalCriterion("eq18", direction, 2)
            assert bridge_consistency(fn, crit, local, glob).consistent

            local = check_local_k_subhom(fn, 2, direction, 50, 10)
            glob = check_k_subhom(fn, 2, direction, cfg, table_10k)
            crit = LocalCriterion("eq22", direction, 2)
            assert bridge_consistency(fn, crit, local, glob).consistent


def test_bridge_ignores_uncovered_counterexamples(registry):
    from submult.checks import Counterexample

    d = registry.get("d")
    crit = LocalCriterion("eq14", "sub")
    local = check_local_submult(d, "sub", 5, 2)  # tiny local grid
    # counterexample involving a prime outside the local grid: no obligation
    fake = _fake_global(
        "d", "sub-mult", REFUTED,
        [Counterexample((("m", 7), ("n", 7)), Fraction(3), Fraction(4))])
    assert bridge_consistency(d, crit, local, fake).consistent
