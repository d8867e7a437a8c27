"""The int64 row path of the grid sweeps against the scalar Fraction path,
which stays the oracle, and the builtins against brute-force oracles."""

import dataclasses
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submult import checks, vector
from submult.checks import HOLDS, REFUTED, CheckConfig, grid_property
from submult.cli import main
from submult.errors import DomainError
from submult.functions import (
    QUOTIENT,
    Evaluator,
    builtin_registry,
    combine,
    make_prime_power_fn,
)
from submult.inference import (
    FAMILIES,
    K_FAMILIES,
    K_SUB_HOM,
    K_SUB_MULT,
    K_SUP_HOM,
    MULTIPLICATIVE,
    SUB_HOM,
    SUB_MULT,
    SUP_HOM,
    PropertySpec,
)

from oracles import d_oracle, phi_oracle, sigma_oracle

# Every registry function, plus prime-power rules with Fraction values and
# with negative values.
FUNCTIONS = builtin_registry().functions() + [
    make_prime_power_fn("mean-divisor-rule",
                        lambda p, a: Fraction(p ** (a + 1) - 1, (p - 1) * (a + 1))),
    make_prime_power_fn("liouville", lambda p, a: (-1) ** a, positive=False),
]
ORACLES = {"phi": phi_oracle, "d": d_oracle, "sigma": sigma_oracle}


def _spec(family, k):
    return PropertySpec(family, k if family in K_FAMILIES else None)


def _outcome(prop, cfg):
    verdict, cex, checked, stats = checks._sweep(prop, cfg, 1)
    return verdict, [(c.point, c.lhs, c.rhs) for c in cex], checked, stats


def _both_paths(fn, spec, cfg, table):
    prop = grid_property(Evaluator(fn, table), spec, cfg)
    scalar = grid_property(Evaluator(fn, table), spec, cfg)
    return (_outcome(prop, cfg),
            _outcome(dataclasses.replace(scalar, vector=None), cfg))


@cache
def _oracle_value(name, n):
    return ORACLES[name](n)


def _brute_force(name, spec, cfg):
    """The family written out on divisor-enumeration oracles."""
    def f(n):
        return _oracle_value(name, n)

    k = spec.k or 1
    hom = spec.family in (SUB_HOM, SUP_HOM, K_SUB_HOM, K_SUP_HOM)
    sub = spec.family in (SUB_MULT, SUB_HOM, K_SUB_MULT, K_SUB_HOM)
    cex, checked, failed = [], 0, 0
    for m in range(1, cfg.max_m + 1):
        failed_before = failed
        for n in range(1, cfg.max_n + 1):
            if spec.family == MULTIPLICATIVE:
                if np.gcd(m, n) != 1:
                    continue
                lhs, rhs, ok = f(m * n), f(m) * f(n), f(m * n) == f(m) * f(n)
            else:
                lhs = f(m * n) ** k
                rhs = (m**k if hom else f(m**k)) * f(n**k)
                ok = lhs <= rhs if sub else lhs >= rhs
            checked += 1
            if not ok:
                failed += 1
                if len(cex) < cfg.counterexample_cap:
                    cex.append(((("m", m), ("n", n)), lhs, rhs))
        if cfg.stop_at_first and failed > failed_before:
            break
    return (REFUTED if failed else HOLDS), cex, checked, {}


@settings(max_examples=300, deadline=None)
@given(fn=st.sampled_from(FUNCTIONS), family=st.sampled_from(FAMILIES),
       k=st.sampled_from([2, 3]), max_m=st.integers(2, 40),
       max_n=st.integers(2, 40), stop=st.booleans(), cap=st.integers(1, 10))
def test_int64_rows_match_the_scalar_path(table_1m, fn, family, k, max_m, max_n,
                                          stop, cap):
    spec = _spec(family, k)
    cfg = CheckConfig(max_m=max_m, max_n=max_n, stop_at_first=stop,
                      counterexample_cap=cap)
    fast, scalar = _both_paths(fn, spec, cfg, table_1m)
    assert fast == scalar
    if fn.name in ORACLES:
        assert fast == _brute_force(fn.name, spec, cfg)


@pytest.mark.parametrize("family", [SUB_MULT, MULTIPLICATIVE, K_SUB_MULT, K_SUP_HOM])
def test_values_beyond_int64_leave_the_table_out(table_1m, family):
    fn = make_prime_power_fn("p^40a", lambda p, a: p ** (40 * a))
    cfg = CheckConfig(max_m=12, max_n=9, counterexample_cap=4)
    assert vector.value_table(Evaluator(fn, table_1m), 12 * 9) is None
    fast, scalar = _both_paths(fn, _spec(family, 2), cfg, table_1m)
    assert fast == scalar


def test_rows_the_bound_cannot_prove_go_to_the_scalar_path(table_1m):
    # f(n) = n^4: f(mn)^2 = (mn)^8 fits in 62 bits for small rows only
    fn = make_prime_power_fn("n^4", lambda p, a: p ** (4 * a))
    spec = PropertySpec(K_SUB_MULT, 2)
    cfg = CheckConfig(max_m=40, max_n=40)
    prop = grid_property(Evaluator(fn, table_1m), spec, cfg)
    decided = [prop.vector(m) is not None for m in prop.rows]
    assert any(decided) and not all(decided)
    fast, scalar = _both_paths(fn, spec, cfg, table_1m)
    assert fast == scalar


def test_zero_divisor_raises_the_scalar_error(table_1m):
    sigma = builtin_registry().get("sigma")
    zero_at_2 = make_prime_power_fn("zero-at-2", lambda p, a: 0 if p == 2 and a else 1)
    fn = combine(QUOTIENT, (sigma, zero_at_2), name="sigma/zero-at-2")
    cfg = CheckConfig(max_m=9, max_n=9)
    messages = []
    for decide in (True, False):
        prop = grid_property(Evaluator(fn, table_1m), PropertySpec(SUB_MULT), cfg)
        if not decide:
            prop = dataclasses.replace(prop, vector=None)
        with pytest.raises(DomainError) as err:
            checks._sweep(prop, cfg, 1)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("function, family, counterexamples", [
    ("sigma", "sub-mult", 0), ("d", "sup-mult", 10)])
def test_grid_check_is_decided_in_int64(monkeypatch, capsys, function, family,
                                        counterexamples):
    """Only the counterexamples' sides are recomputed with Fractions."""
    calls = []
    original = checks.cmp_values

    def counting(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(checks, "cmp_values", counting)
    code = main(["check", function, family, "--max-m", "200", "--max-n", "200"])
    capsys.readouterr()
    assert code == (1 if counterexamples else 0)
    assert len(calls) == counterexamples
