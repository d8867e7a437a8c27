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
    check_k_subhom,
    check_k_submult,
    check_multiplicative,
    check_power_submult,
    check_subhom,
    check_submult,
    reports_for_tag,
)
from submult.core import build_spf_table, prime_power
from submult.functions import builtin_registry, evaluate_fact
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
    check_local_k_subhom,
    check_local_k_submult,
    check_local_subhom,
    check_local_submult,
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
        from submult.core import eval_d, eval_phi, eval_sigma, factorize

        table = _table(10_000)
        for n in range(1, 10_001):
            f = factorize(n, table)
            assert eval_phi(f) == phi_oracle(n), n
            assert eval_d(f) == d_oracle(n), n
            assert eval_sigma(f) == sigma_oracle(n), n


# --- criterion 2 -------------------------------------------------------------

TAXONOMY = [
    ("phi", "multiplicative", None),
    ("phi", "sup-mult", SUP),
    ("phi", "sub-hom", SUB),
    ("d", "sub-mult", SUB),
    ("d", "sub-hom", SUB),
    ("sigma", "sub-mult", SUB),
    ("sigma", "sup-hom", SUP),
    ("sigma_over_phi", "sub-mult", SUB),
    ("phi_over_d", "sup-mult", SUP),
    ("n_plus_d", "sub-mult", SUB),
    ("sigma_over_d", "sup-mult", SUP),
    ("sigma_over_d", "sub-hom", SUB),
    ("n_over_phi", "sub-hom", SUB),
]


def _taxonomy_report(name, family, direction):
    def build():
        fn = REGISTRY.get(name)
        cfg = CheckConfig(max_m=100, max_n=100)
        table = _table(10_000)
        if family == "multiplicative":
            return check_multiplicative(fn, cfg, table)
        if family.endswith("mult"):
            return check_submult(fn, direction, cfg, table)
        return check_subhom(fn, direction, cfg, table)

    return _cached(("taxonomy", name, family), build)


def test_criterion_2_taxonomy_suite():
    with criterion(2, "taxonomy suite on m, n <= 100", budget_seconds=30):
        for name, family, direction in TAXONOMY:
            report = _taxonomy_report(name, family, direction)
            assert report.holds, (name, family, report.counterexamples[:1])


# --- criterion 3 -------------------------------------------------------------


def test_criterion_3_negative_controls():
    with criterion(3, "negative controls find smallest counterexamples"):
        cfg = CheckConfig(max_m=10, max_n=10)
        table = _table(10_000)
        r = check_submult(REGISTRY.get("d"), SUP, cfg, table)
        assert r.verdict == REFUTED
        assert r.counterexamples[0].coords() == (2, 2)
        assert (r.counterexamples[0].lhs, r.counterexamples[0].rhs) == (3, 4)

        r = check_submult(REGISTRY.get("phi"), SUB, cfg, table)
        assert r.verdict == REFUTED
        assert r.counterexamples[0].coords() == (2, 2)
        assert (r.counterexamples[0].lhs, r.counterexamples[0].rhs) == (2, 1)

        r = check_submult(REGISTRY.get("sigma"), SUP, cfg, table)
        assert r.verdict == REFUTED

        one = REGISTRY.get("constant-1")
        sub = check_submult(one, SUB, cfg, table)
        sup = check_submult(one, SUP, cfg, table)
        assert sub.holds and sup.holds  # dual profile: equality throughout


# --- criterion 4 -------------------------------------------------------------

K_CASES = [
    ("phi", "k-sub-mult", SUB, (2, 3)),
    ("phi", "k-sub-hom", SUB, (2, 3)),
    ("d", "k-sup-mult", SUP, (2, 3)),
    ("sigma", "k-sup-mult", SUP, (2, 3)),
    ("sigma", "k-sup-hom", SUP, (2,)),
]


def _k_report(name, family, direction, k):
    def build():
        fn = REGISTRY.get(name)
        cfg = CheckConfig(max_m=50, max_n=50)
        table = _table(50**3)
        if "mult" in family:
            return check_k_submult(fn, k, direction, cfg, table)
        return check_k_subhom(fn, k, direction, cfg, table)

    return _cached(("k", name, family, k), build)


def test_criterion_4_k_families():
    with criterion(4, "k-families on m, n <= 50 (sieve to 50^3)",
                   budget_seconds=60):
        for name, family, direction, ks in K_CASES:
            for k in ks:
                report = _k_report(name, family, direction, k)
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
        fn = REGISTRY.get(name)
        if crit_id == "eq14":
            return check_local_submult(fn, direction, 50, 10)
        if crit_id == "eq18":
            return check_local_k_submult(fn, k, direction, 50, 10)
        if crit_id == "eq21":
            return check_local_subhom(fn, direction, 50, 10)
        return check_local_k_subhom(fn, k, direction, 50, 10)

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
    ("d", "eq14", SUB, None, ("taxonomy", "d", "sub-mult")),
    ("sigma", "eq14", SUB, None, ("taxonomy", "sigma", "sub-mult")),
    ("phi", "eq14", SUP, None, ("taxonomy", "phi", "sup-mult")),
    ("sigma_over_d", "eq14", SUP, None, ("taxonomy", "sigma_over_d", "sup-mult")),
    ("phi", "eq21", SUB, None, ("taxonomy", "phi", "sub-hom")),
    ("sigma", "eq21", SUP, None, ("taxonomy", "sigma", "sup-hom")),
    ("d", "eq18", SUP, 2, ("k", "d", "k-sup-mult", 2)),
    ("d", "eq18", SUP, 3, ("k", "d", "k-sup-mult", 3)),
    ("phi", "eq18", SUB, 2, ("k", "phi", "k-sub-mult", 2)),
    ("phi", "eq18", SUB, 3, ("k", "phi", "k-sub-mult", 3)),
    ("phi", "eq22", SUB, 2, ("k", "phi", "k-sub-hom", 2)),
    ("phi", "eq22", SUB, 3, ("k", "phi", "k-sub-hom", 3)),
    ("sigma", "eq22", SUP, 2, ("k", "sigma", "k-sup-hom", 2)),
]


def _global_for(key):
    kind = key[0]
    if kind == "taxonomy":
        _, name, family = key
        spec = next(t for t in TAXONOMY if t[0] == name and t[1] == family)
        return _taxonomy_report(*spec)
    _, name, family, k = key
    spec = next(t for t in K_CASES if t[0] == name and t[1] == family)
    return _k_report(name, family, spec[2], k)


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
