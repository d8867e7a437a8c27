"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`).

Every comparison is exact (zero tolerance); the only numeric bounds are
the per-criterion wall-clock budgets.  Reports computed for the taxonomy
and k-family criteria are cached and reused by the bridge criterion.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from submult.checks import (
    HOLDS,
    REFUTED,
    SUB,
    SUP,
    CheckConfig,
    check_power_submult,
    reports_for_tag,
    run_property_check,
)
from submult.core import build_spf_table, prime_power
from submult.functions import builtin_registry, evaluate_fact
from submult.inference import (
    K_SUB_HOM,
    K_SUB_MULT,
    K_SUP_HOM,
    K_SUP_MULT,
    MULTIPLICATIVE,
    SUB_HOM,
    SUB_MULT,
    SUP_HOM,
    SUP_MULT,
    PropertySpec,
)
from submult.inequalities import (
    verify_corollary1,
    verify_eq12,
    verify_eq13,
    verify_eq16,
    verify_eq20,
    verify_eq23,
)
from submult.local import (
    LocalCriterion,
    bridge_consistency,
    check_local,
)

from blocks import scalar_oracle
from oracles import d_oracle, phi_oracle, sigma_oracle

REGISTRY = builtin_registry()
_CACHE: dict = {}


def _cached(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _table(limit):
    return _cached(("table", limit), lambda: build_spf_table(limit))


@contextmanager
def criterion(num, name, budget_seconds=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {num} took {elapsed:.1f}s, budget {budget_seconds}s")
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")


# --- criterion 1 -------------------------------------------------------------


def test_criterion_1_function_oracles():
    with criterion(1, "function oracles agree to 10000", budget_seconds=10):
        from submult.core import d_rule, eval_rule, factorize, phi_rule, sigma_rule

        table = _table(10_000)
        for n in range(1, 10_001):
            f = factorize(n, table)
            assert eval_rule(phi_rule, f) == phi_oracle(n), n
            assert eval_rule(d_rule, f) == d_oracle(n), n
            assert eval_rule(sigma_rule, f) == sigma_oracle(n), n


# --- criterion 2 -------------------------------------------------------------

TAXONOMY = [
    ("phi", MULTIPLICATIVE),
    ("phi", SUP_MULT),
    ("phi", SUB_HOM),
    ("d", SUB_MULT),
    ("d", SUB_HOM),
    ("sigma", SUB_MULT),
    ("sigma", SUP_HOM),
    ("sigma_over_phi", SUB_MULT),
    ("phi_over_d", SUP_MULT),
    ("n_plus_d", SUB_MULT),
    ("sigma_over_d", SUP_MULT),
    ("sigma_over_d", SUB_HOM),
    ("n_over_phi", SUB_HOM),
]


def _taxonomy_report(name, family):
    def build():
        cfg = CheckConfig(max_m=100, max_n=100)
        return run_property_check(REGISTRY.get(name), PropertySpec(family), cfg,
                                  _table(10_000))

    return _cached(("taxonomy", name, family), build)


def test_criterion_2_taxonomy_suite():
    with criterion(2, "taxonomy suite on m, n <= 100", budget_seconds=30):
        for name, family in TAXONOMY:
            report = _taxonomy_report(name, family)
            assert report.holds, (name, family, report.counterexamples[:1])


# --- criterion 3 -------------------------------------------------------------


def test_criterion_3_negative_controls():
    with criterion(3, "negative controls find smallest counterexamples"):
        cfg = CheckConfig(max_m=10, max_n=10)
        table = _table(10_000)
        r = run_property_check(REGISTRY.get("d"), PropertySpec(SUP_MULT), cfg, table)
        assert r.verdict == REFUTED
        assert r.counterexamples[0].coords() == (2, 2)
        assert (r.counterexamples[0].lhs, r.counterexamples[0].rhs) == (3, 4)

        r = run_property_check(REGISTRY.get("phi"), PropertySpec(SUB_MULT), cfg, table)
        assert r.verdict == REFUTED
        assert r.counterexamples[0].coords() == (2, 2)
        assert (r.counterexamples[0].lhs, r.counterexamples[0].rhs) == (2, 1)

        r = run_property_check(REGISTRY.get("sigma"), PropertySpec(SUP_MULT), cfg, table)
        assert r.verdict == REFUTED

        one = REGISTRY.get("constant-1")
        sub = run_property_check(one, PropertySpec(SUB_MULT), cfg, table)
        sup = run_property_check(one, PropertySpec(SUP_MULT), cfg, table)
        assert sub.holds and sup.holds  # dual profile: equality throughout


# --- criterion 4 -------------------------------------------------------------

K_CASES = [
    ("phi", K_SUB_MULT, (2, 3)),
    ("phi", K_SUB_HOM, (2, 3)),
    ("d", K_SUP_MULT, (2, 3)),
    ("sigma", K_SUP_MULT, (2, 3)),
    ("sigma", K_SUP_HOM, (2,)),
]


def _k_report(name, family, k):
    def build():
        cfg = CheckConfig(max_m=50, max_n=50)
        return run_property_check(REGISTRY.get(name), PropertySpec(family, k), cfg,
                                  _table(50**3))

    return _cached(("k", name, family, k), build)


def test_criterion_4_k_families():
    with criterion(4, "k-families on m, n <= 50 (sieve to 50^3)",
                   budget_seconds=60):
        for name, family, ks in K_CASES:
            for k in ks:
                report = _k_report(name, family, k)
                assert report.holds, (name, family, k,
                                      report.counterexamples[:1])


# --- criterion 5 -------------------------------------------------------------

LOCAL_CASES = [
    ("d", "eq14", SUB, None),
    ("sigma", "eq14", SUB, None),
    ("phi", "eq14", SUP, None),
    ("sigma_over_d", "eq14", SUP, None),
    ("d", "eq18", SUP, 2), ("d", "eq18", SUP, 3),
    ("phi", "eq18", SUB, 2), ("phi", "eq18", SUB, 3),
    ("sigma", "eq21", SUP, None),
    ("phi", "eq21", SUB, None),
    ("phi", "eq22", SUB, 2), ("phi", "eq22", SUB, 3),
    ("sigma", "eq22", SUP, 2),
]


def _local_report(name, crit_id, direction, k):
    def build():
        crit = LocalCriterion(crit_id, direction, k)
        return check_local(REGISTRY.get(name), crit, 50, 10)

    return _cached(("local", name, crit_id, direction, k), build)


def test_criterion_5_local_criteria():
    with criterion(5, "local prime-power criteria on p <= 50, a, b <= 10"):
        for name, crit_id, direction, k in LOCAL_CASES:
            report = _local_report(name, crit_id, direction, k)
            assert report.holds, (name, crit_id, k, report.counterexamples[:1])

        # the totient's homogeneity criterion is an equality for a, b >= 1
        phi = REGISTRY.get("phi")
        from submult.core import primes_upto

        for p in primes_upto(50):
            for a in range(1, 11):
                for b in range(1, 11):
                    lhs = evaluate_fact(phi, prime_power(p, a + b))
                    rhs = Fraction(p**a) * evaluate_fact(phi, prime_power(p, b))
                    assert lhs == rhs, (p, a, b)


# --- criterion 6 -------------------------------------------------------------

BRIDGE_PAIRS = [
    # (function, local criterion id, direction, k, global report key)
    ("d", "eq14", SUB, None, ("taxonomy", "d", SUB_MULT)),
    ("sigma", "eq14", SUB, None, ("taxonomy", "sigma", SUB_MULT)),
    ("phi", "eq14", SUP, None, ("taxonomy", "phi", SUP_MULT)),
    ("sigma_over_d", "eq14", SUP, None, ("taxonomy", "sigma_over_d", SUP_MULT)),
    ("phi", "eq21", SUB, None, ("taxonomy", "phi", SUB_HOM)),
    ("sigma", "eq21", SUP, None, ("taxonomy", "sigma", SUP_HOM)),
    ("d", "eq18", SUP, 2, ("k", "d", K_SUP_MULT, 2)),
    ("d", "eq18", SUP, 3, ("k", "d", K_SUP_MULT, 3)),
    ("phi", "eq18", SUB, 2, ("k", "phi", K_SUB_MULT, 2)),
    ("phi", "eq18", SUB, 3, ("k", "phi", K_SUB_MULT, 3)),
    ("phi", "eq22", SUB, 2, ("k", "phi", K_SUB_HOM, 2)),
    ("phi", "eq22", SUB, 3, ("k", "phi", K_SUB_HOM, 3)),
    ("sigma", "eq22", SUP, 2, ("k", "sigma", K_SUP_HOM, 2)),
]


def _global_for(key):
    if key[0] == "taxonomy":
        return _taxonomy_report(*key[1:])
    return _k_report(*key[1:])


def test_criterion_6_bridge_consistency():
    with criterion(6, "local/global bridge consistency"):
        for name, crit_id, direction, k, global_key in BRIDGE_PAIRS:
            fn = REGISTRY.get(name)
            crit = LocalCriterion(crit_id, direction, k)
            local = _local_report(name, crit_id, direction, k)
            global_report = _global_for(global_key)
            bridge = bridge_consistency(fn, crit, local, global_report)
            assert bridge.consistent, (name, crit.label())


# --- criterion 7 -------------------------------------------------------------


def test_criterion_7_named_inequalities():
    with criterion(7, "named inequalities", budget_seconds=120):
        r = verify_eq12(10_000)
        assert r.holds and r.pairs_checked == 1229

        table = _table(10_000)
        r = verify_eq13(2000, table=table)
        assert r.holds and r.pairs_checked == 1999
        # force the exact fallback and re-verify a prefix of the range
        with scalar_oracle():
            forced = verify_eq13(500, table=table)
        assert forced.holds
        assert forced.stats["exact_fallbacks"] == 499 > 0

        assert verify_eq16(50, 10).holds
        assert verify_eq20(50, 6).holds
        for k in (2, 3):
            assert verify_eq23(50, 8, k).holds


# --- criterion 8 -------------------------------------------------------------


def test_criterion_8_power_combinator_scheme():
    with criterion(8, "power-function scheme and its corollary"):
        sigma, phi = REGISTRY.get("sigma"), REGISTRY.get("phi")
        cfg = CheckConfig(max_m=60, max_n=60)
        table = _table(10_000)
        r = check_power_submult(sigma, phi, SUB, cfg, table)
        assert r.holds and r.pairs_checked == 3600

        a, b = verify_corollary1(sigma, phi, 100, 500, registry=REGISTRY,
                                 table=_table(10_000))
        assert a.holds and b.holds


# --- criterion 9 -------------------------------------------------------------


def test_criterion_9_inference_soundness():
    with criterion(9, "inference closure survives m, n <= 100 sweeps"):
        cfg = CheckConfig(max_m=100, max_n=100, k_set=(2, 3))
        table = _table(1_000_000)
        closed = REGISTRY.closed_tags()
        swept = 0
        for name in sorted(closed):
            fn = REGISTRY.get(name)
            for tag in closed[name]:
                for report in reports_for_tag(fn, tag, cfg, table):
                    assert report.holds, (name, tag.label(),
                                          report.counterexamples[:1])
                    swept += 1
        assert swept >= 40  # the closure is not trivially empty


# --- criterion 10 ------------------------------------------------------------


def _run_cli_json(threads):
    proc = subprocess.run(
        [sys.executable, "-m", "submult", "check", "phi", "sup-mult",
         "--max-m", "100", "--max-n", "100", "--threads", str(threads),
         "--json"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    env = json.loads(proc.stdout)
    env.pop("generated_at")
    env["inputs"].pop("threads")
    for rep in env["reports"]:
        rep.pop("elapsed_seconds")
    return env


def test_criterion_10_cli_determinism():
    with criterion(10, "CLI reports are thread-count independent"):
        assert _run_cli_json(1) == _run_cli_json(8)
