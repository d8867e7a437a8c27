import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submult import checks, core, vector
from submult.checks import REFUTED, SUB, SUP, CheckConfig, CheckReport, check_submult
from submult.core import build_spf_table, prime_power, primes_upto
from submult.errors import DomainError, InconsistencyError, UsageError
from submult.functions import (
    PRODUCT,
    QUOTIENT,
    RECIPROCAL,
    SUM,
    builtin_registry,
    combine,
    evaluate_fact,
    make_prime_power_fn,
)
from submult.inference import (
    K_SUB_HOM,
    K_SUB_MULT,
    K_SUP_MULT,
    SUB_HOM,
    SUB_MULT,
)
from submult.local import (
    CRITERIA,
    LocalCriterion,
    bridge_consistency,
    check_local,
    check_local_k_subhom,
    check_local_k_submult,
    check_local_subhom,
    check_local_submult,
    exponents_read,
    prime_power_lookup,
    prime_power_property,
    prime_power_table,
)

from blocks import block, block_need, row_orders
from oracles import d_oracle, phi_oracle, sigma_oracle


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
    assert br.notes == ["local holds; no covered global counterexample",
                        "converse: no local counterexample inside the global grid"]


MU = make_prime_power_fn("mu", lambda p, a: 1 if a == 0 else (-1 if a == 1 else 0),
                         positive=False)


def test_bridge_takes_no_forward_obligation_where_f_is_negative():
    """Multiplying one local inequality per prime needs f >= 0: mu holds
    eq14 sub locally, yet fails globally at (2, 6), whose primes are
    covered, since mu(12) = 0 > mu(2) mu(6) = -1."""
    crit = LocalCriterion("eq14", "sub")
    local = check_local(MU, crit, 10, 3)
    global_report = check_submult(MU, SUB, CheckConfig(max_m=10, max_n=10),
                                  build_spf_table(100))
    assert local.holds and global_report.counterexamples[0].coords() == (2, 6)
    br = bridge_consistency(MU, crit, local, global_report)
    assert br.consistent
    assert br.notes == ["local holds, but f(p^e) >= 0 is not established on the local "
                        "grid; no forward obligation", "converse: global refuted; no obligation"]


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


# --- the block path against the scalar path ---------------------------------

BLOCK_FUNCTIONS = [f for f in builtin_registry().functions() if f.is_multiplicative] + [
    make_prime_power_fn(
        "mean-divisor-rule", lambda p, a: Fraction(p ** (a + 1) - 1, (p - 1) * (a + 1))),
    make_prime_power_fn("negative-at-3",
                        lambda p, a: (-1 if p == 3 else 1) * (p**a + a) if a else 1,
                        positive=False),
]


def _raising_at(p0, a0):
    """p^a + 1, except that its rule raises at p0^a for every a >= a0."""
    def rule(p, a):
        if p == p0 and a >= a0:
            raise DomainError(f"undefined at {p}^{a}")
        return p**a + 1 if a else 1
    return make_prime_power_fn(f"raising-at-{p0}^{a0}", rule)


def _zero_at(p0, a0):
    """a + 1, except that it is 0 at p0^a0."""
    return make_prime_power_fn(f"zero-at-{p0}^{a0}",
                               lambda p, a: 0 if (p, a) == (p0, a0) else a + 1)


def _zero_divisor_at(p0, a0):
    """sigma over a rule that is 0 at p0^a0: its table has a zero divisor."""
    return combine(QUOTIENT, (builtin_registry().get("sigma"), _zero_at(p0, a0)))


_LEAVES = st.one_of(st.sampled_from(BLOCK_FUNCTIONS),
                    st.builds(_raising_at, st.sampled_from([2, 3, 5]), st.integers(1, 6)),
                    st.builds(_zero_at, st.sampled_from([2, 3, 5]), st.integers(1, 6)))
_TREES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.builds(lambda *parts: combine(PRODUCT, parts), children, children),
    st.builds(lambda *parts: combine(QUOTIENT, parts), children, children),
    st.builds(lambda *parts: combine(SUM, parts), children, children),
    st.builds(lambda part: combine(RECIPROCAL, (part,)), children)), max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(fn=_TREES,
       primes=st.lists(st.sampled_from(primes_upto(20)), min_size=1, max_size=4,
                       unique=True).map(sorted),
       exps=st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True).map(sorted))
def test_power_values_equal_evaluate_fact(fn, primes, exps):
    """The block's table of f(p^e) holds evaluate_fact's reduced fractions
    and their exact bit lengths, or is declined where evaluate_fact
    raises at one of its cells."""
    try:
        want = [[evaluate_fact(fn, prime_power(p, e)) for e in exps] for p in primes]
    except DomainError:
        with pytest.raises(vector.Unproven):
            vector.PowerValues(fn, primes, exps)
        return
    values = vector.PowerValues(fn, primes, exps)
    for got, bits, part in zip((values.num, values.den), values.bits,
                               ("numerator", "denominator")):
        exact = [[getattr(v, part) for v in row] for row in want]
        assert got.tolist() == exact
        assert bits.tolist() == [[abs(x).bit_length() for x in row] for row in exact]


def _property(fn, criterion, direction, k, max_prime, max_exp):
    crit = LocalCriterion(criterion, direction, k if criterion in ("eq18", "eq22") else None)
    return prime_power_property(fn, crit.global_family(), crit.k,
                                primes_upto(max_prime), range(max_exp + 1))


def _decided(prop, rows):
    return [orders is not None for orders in row_orders(block(prop, rows))]


def _outcome_or_error(prop, cfg):
    """The sweep's outcome, or the type and message of its error and the
    point it was comparing."""
    points = []

    def compare(*point):
        points.append(point)
        return prop.compare(*point)

    try:
        verdict, cex, checked, stats = checks._sweep(
            dataclasses.replace(prop, compare=compare), cfg, 1)
    except Exception as err:
        return type(err), str(err), points[-1]
    return verdict, [(c.point, c.lhs, c.rhs) for c in cex], checked, stats


@settings(max_examples=300, deadline=None)
@given(fn=st.one_of(st.sampled_from(BLOCK_FUNCTIONS),
                    st.builds(_raising_at, st.sampled_from([2, 3, 5]), st.integers(1, 6)),
                    st.builds(_zero_divisor_at, st.sampled_from([2, 3, 5]),
                              st.integers(1, 6))),
       criterion=st.sampled_from(CRITERIA), direction=st.sampled_from(["sub", "sup"]),
       k=st.sampled_from([2, 3, 4]), max_prime=st.integers(2, 40),
       max_exp=st.integers(0, 6), cap=st.integers(1, 10), whole=st.booleans())
def test_block_path_matches_the_scalar_path(fn, criterion, direction, k, max_prime,
                                            max_exp, cap, whole):
    """Blocks of one row and of the whole sweep: the same verdict,
    counterexamples and counts as the scalar sweep, or the same error at
    the same row."""
    prop = _property(fn, criterion, direction, k, max_prime, max_exp)
    cfg = CheckConfig(counterexample_cap=cap)
    cells = len(primes_upto(max_prime)) * (max_exp + 1) ** 2 if whole else 1
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checks, "_CELLS", cells)
        fast = _outcome_or_error(prop, cfg)
    assert fast == _outcome_or_error(dataclasses.replace(prop, vector=None), cfg)


@pytest.mark.parametrize("fn", [_raising_at(5, 2), _zero_divisor_at(5, 2)],
                         ids=lambda fn: fn.name)
def test_a_table_that_cannot_be_built_raises_where_the_scalar_path_does(fn):
    prop = _property(fn, "eq14", "sub", None, 11, 2)
    # a block that holds 5 goes whole to the scalar path; one without is decided
    assert _decided(prop, [2, 3, 5, 7, 11]) == [False] * 5
    assert _decided(prop, [2, 3]) == [True, True]
    fast = _outcome_or_error(prop, CheckConfig())
    assert fast[:2] == (DomainError, str(pytest.raises(DomainError, evaluate_fact, fn,
                                                       prime_power(5, 2)).value))
    assert fast == _outcome_or_error(dataclasses.replace(prop, vector=None), CheckConfig())


def test_rows_beyond_the_memory_budget_go_to_the_scalar_path(registry, monkeypatch):
    sigma = registry.get("sigma")
    prop = _property(sigma, "eq22", "sup", 3, 7, 4)
    scalar = _outcome_or_error(dataclasses.replace(prop, vector=None), CheckConfig())
    need = block_need(block, prop, [2, 3, 5, 7])
    assert need > 0
    monkeypatch.setattr(core, "memory_budget", lambda: need)
    assert _decided(prop, [2, 3, 5, 7]) == [True] * 4
    # below the need of its Python ints the block goes whole to the scalar path
    monkeypatch.setattr(core, "memory_budget", lambda: need - 1)
    assert _decided(prop, [2, 3, 5, 7]) == [False] * 4
    assert _outcome_or_error(prop, CheckConfig()) == scalar
    monkeypatch.setattr(core, "memory_budget", lambda: 0)
    assert _outcome_or_error(prop, CheckConfig()) == scalar


@pytest.mark.parametrize("name", ["d", "sigma", "sigma_over_d", "n_over_phi"])
@pytest.mark.parametrize("criterion, k, max_exp", [
    ("eq14", None, 12), ("eq21", None, 12), ("eq18", 4, 12), ("eq22", 3, 30)])
def test_the_memory_estimate_bounds_the_block(registry, name, criterion, k, max_exp):
    fn, primes = registry.get(name), primes_upto(50)
    prop = _property(fn, criterion, "sup", k, 50, max_exp)
    need = block_need(block, prop, primes)
    tracemalloc.start()
    try:
        decided = block(prop, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(orders is not None for orders in row_orders(decided)) and 0 < peak <= need


def test_large_k_is_decided_on_the_block_path(registry, monkeypatch):
    # k > 62 is past every int64 bound, not past Python ints
    prop = _property(registry.get("sigma"), "eq18", "sup", 70, 7, 2)
    assert all(_decided(prop, [2, 3, 5, 7]))
    compared = []
    monkeypatch.setattr(checks, "cmp_values",
                        lambda x, y, cmp=checks.cmp_values: compared.append(1) or cmp(x, y))
    report = check_local(registry.get("sigma"), LocalCriterion("eq18", "sup", 70), 7, 2)
    assert report.holds and not compared


# --- the exponents a criterion reads -----------------------------------------


def test_eq14_and_eq21_read_every_exponent():
    for family in (SUB_MULT, SUB_HOM):
        assert exponents_read(family, None, range(6)) == list(range(11))
        assert exponents_read(family, None, range(1, 6)) == list(range(1, 11))


def test_k_criteria_read_only_the_exponents_their_formula_reads():
    # f(p^(a+b)) at a + b <= 4, f(p^(3a)) and f(p^(3b)); eq22's p^(3a) is a
    # multiplier, not a value of f
    assert exponents_read(K_SUB_MULT, 3, range(3)) == [0, 1, 2, 3, 4, 6]
    assert exponents_read(K_SUB_HOM, 3, range(3)) == [0, 1, 2, 3, 4, 6]
    assert exponents_read(K_SUP_MULT, 100, range(4)) == [0, 1, 2, 3, 4, 5, 6, 100, 200, 300]


@pytest.mark.parametrize("criterion, direction", [("eq18", "sub"), ("eq22", "sup")])
def test_each_exponent_read_is_evaluated_once(criterion, direction):
    """Only at the exponents read, but 0, where every rule is 1: once at
    each prime on the block path, and once more at each prime whose row the
    scalar path visits.  sigma is refuted by eq18 sub, so the scalar path
    recomputes the counterexamples' sides on its own, from the rows they
    lie in; it holds by eq22 sup, so the scalar path visits no row."""
    calls = []

    def rule(p, a):
        calls.append((p, a))
        return (p ** (a + 1) - 1) // (p - 1)

    counting = make_prime_power_fn("counting-sigma", rule)
    calls.clear()  # the registration's check of rule(p, 0)
    crit = LocalCriterion(criterion, direction, 50)
    report = check_local(counting, crit, 3, 4)
    assert report.verdict == (REFUTED if direction == "sub" else "holds-on-range")
    read = exponents_read(crit.global_family(), 50, range(5))
    assert read == [*range(9), 50, 100, 150, 200]
    visited = list(dict.fromkeys(cex["p"] for cex in report.counterexamples))
    assert visited == ([2] if direction == "sub" else [])
    assert calls == [(p, e) for p in [2, 3, *visited] for e in read if e]


def test_an_unread_exponent_fails_loudly(registry):
    sigma, read = registry.get("sigma"), [0, 1, 2, 4]
    values = prime_power_table(sigma, 2, read)
    assert sorted(values) == read
    compare = checks.formula(K_SUB_MULT, 3, prime_power_lookup(2, values))
    decide = checks.vector_formula(K_SUB_MULT, 3, vector.PowerValues(sigma, [2], read))
    two = np.array(2, dtype=object)
    for a in (1, 2):  # f(p^(3 a)): 3 is below the largest exponent read, 6 above it
        with pytest.raises(KeyError):
            compare(2**a, 2**a)
        x = vector.PowerArg(np.full((1, 1), a), two)
        with pytest.raises(IndexError):
            decide(x, x)


@pytest.mark.parametrize("name", ["d", "phi", "sigma"])
@pytest.mark.parametrize("criterion, k", [("eq18", 3), ("eq18", 4), ("eq22", 4)])
def test_k_criteria_match_the_divisor_oracles(registry, name, criterion, k):
    """With k > 2, exponents from 2 max_exp to k max_exp go unread: the
    report is the criterion written out on the divisor oracles."""
    oracle = {"d": d_oracle, "phi": phi_oracle, "sigma": sigma_oracle}[name]
    for direction in ("sub", "sup"):
        crit = LocalCriterion(criterion, direction, k)
        report = check_local(registry.get(name), crit, 5, 2)
        cex, points = [], 0
        for p in (2, 3, 5):
            for a in range(3):
                for b in range(3):
                    lhs = oracle(p ** (a + b)) ** k
                    rhs = (p ** (k * a) if criterion == "eq22" else oracle(p ** (k * a)))
                    rhs *= oracle(p ** (k * b))
                    points += 1
                    if (lhs > rhs) if direction == "sub" else (lhs < rhs):
                        cex.append(((("p", p), ("a", a), ("b", b)), lhs, rhs))
        assert report.triples_checked == points
        assert [(c.point, c.lhs, c.rhs) for c in report.counterexamples] == cex[:10]
        assert report.holds == (not cex)
