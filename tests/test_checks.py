import dataclasses

import pytest

from submult import checks, vector
from submult.checks import (
    HOLDS,
    REFUTED,
    SUB,
    CheckConfig,
    check_identity_bound,
    check_power_submult,
    classify,
    classify_specs,
    grid_property,
    reports_for_tag,
    run_property_check,
    sieve_limit,
)
from submult.core import build_spf_table
from submult.errors import ResourceError, UnsupportedInputError, UsageError
from submult.functions import POWER, Evaluator, builtin_registry, combine, evaluate
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
    PropertyTag,
)
from submult.local import LocalCriterion
from submult.report import report_to_json

CFG10 = CheckConfig(max_m=10, max_n=10)
CFG50 = CheckConfig(max_m=50, max_n=50)


# --- negative controls: smallest counterexamples ---------------------------


def test_d_is_not_supmult(registry, table_10k):
    r = run_property_check(registry.get("d"), PropertySpec(SUP_MULT), CFG10, table_10k)
    assert r.verdict == REFUTED
    first = r.counterexamples[0]
    assert first.coords() == (2, 2)
    assert (first.lhs, first.rhs) == (3, 4)  # d(4) = 3 < d(2) d(2) = 4


def test_phi_is_not_submult(registry, table_10k):
    r = run_property_check(registry.get("phi"), PropertySpec(SUB_MULT), CFG10, table_10k)
    assert r.verdict == REFUTED
    first = r.counterexamples[0]
    assert first.coords() == (2, 2)
    assert (first.lhs, first.rhs) == (2, 1)  # phi(4) = 2 > phi(2) phi(2) = 1


def test_n_plus_d_is_not_multiplicative(registry, table_10k):
    r = run_property_check(registry.get("n_plus_d"), PropertySpec(MULTIPLICATIVE), CFG10,
                           table_10k)
    assert r.verdict == REFUTED
    # the grid includes m = n = 1, where f(1) = 2 != f(1) f(1) = 4; that
    # precedes the first pair of larger arguments, (2, 3): 10 != 20
    first = r.counterexamples[0]
    assert first.coords() == (1, 1)
    assert (first.lhs, first.rhs) == (2, 4)
    f = registry.get("n_plus_d")
    assert evaluate(f, 6) == 10
    assert evaluate(f, 2) * evaluate(f, 3) == 20


def test_counterexamples_reverify_independently(registry, table_10k):
    r = run_property_check(registry.get("d"), PropertySpec(SUP_MULT), CFG10, table_10k)
    d = registry.get("d")
    for cex in r.counterexamples:
        m, n = cex["m"], cex["n"]
        assert evaluate(d, m * n) < evaluate(d, m) * evaluate(d, n)


# --- positive sweeps --------------------------------------------------------


def test_phi_multiplicative_and_supmult(registry, table_10k):
    cfg = CheckConfig(max_m=100, max_n=100)
    phi = registry.get("phi")
    assert run_property_check(phi, PropertySpec(MULTIPLICATIVE), cfg, table_10k).holds
    assert run_property_check(phi, PropertySpec(SUP_MULT), cfg, table_10k).holds


def test_d_submult_to_300(registry):
    table = build_spf_table(300 * 300)
    cfg = CheckConfig(max_m=300, max_n=300)
    assert run_property_check(registry.get("d"), PropertySpec(SUB_MULT), cfg, table).holds


def test_subhom_positive_cases_to_200(registry):
    table = build_spf_table(200 * 200)
    cfg = CheckConfig(max_m=200, max_n=200)
    assert run_property_check(registry.get("phi"), PropertySpec(SUB_HOM), cfg, table).holds
    assert run_property_check(registry.get("sigma"), PropertySpec(SUP_HOM), cfg, table).holds


def test_subhom_never_fails_at_m_equal_one(registry, table_10k):
    # at m = 1 both sides are f(n); check a function that is otherwise refuted
    r = run_property_check(registry.get("sigma"), PropertySpec(SUB_HOM), CFG10, table_10k)
    assert r.verdict == REFUTED
    assert all(cex["m"] > 1 for cex in r.counterexamples)


def test_constant_one_holds_everywhere(registry, table_10k):
    one = registry.get("constant-1")
    assert run_property_check(one, PropertySpec(MULTIPLICATIVE), CFG50, table_10k).holds
    assert run_property_check(one, PropertySpec(SUB_MULT), CFG50, table_10k).holds
    assert run_property_check(one, PropertySpec(SUP_MULT), CFG50, table_10k).holds


def test_duality_needs_equality_on_grid(registry, table_10k):
    # sub and sup can both hold only if the relation is an equality
    for name in ("identity", "constant-1"):
        fn = registry.get(name)
        sub = run_property_check(fn, PropertySpec(SUB_MULT), CFG10, table_10k)
        sup = run_property_check(fn, PropertySpec(SUP_MULT), CFG10, table_10k)
        assert sub.holds and sup.holds
        ev = lambda n: evaluate(fn, n, table_10k)
        assert all(ev(m * n) == ev(m) * ev(n)
                   for m in range(1, 11) for n in range(1, 11))


def test_monotone_refutation(registry, table_10k):
    small = run_property_check(registry.get("d"), PropertySpec(SUP_MULT), CFG10, table_10k)
    large = run_property_check(registry.get("d"), PropertySpec(SUP_MULT), CFG50, table_10k)
    assert small.counterexamples[0] == large.counterexamples[0]


# --- k-families -------------------------------------------------------------


def test_k_submult_examples(registry, table_10k):
    phi, d = registry.get("phi"), registry.get("d")
    # phi(6)^2 = 16? no: phi(6) = 2, squared 4 <= phi(4) phi(9) = 2 * 6 = 12
    assert evaluate(phi, 6) ** 2 == 4
    assert evaluate(phi, 4) * evaluate(phi, 9) == 12
    # d(6)^2 = 16 >= d(4) d(9) = 9
    assert evaluate(d, 6) ** 2 == 16
    assert evaluate(d, 4) * evaluate(d, 9) == 9
    cfg = CheckConfig(max_m=20, max_n=20, k_set=(2,))
    table = build_spf_table(20**2)
    assert run_property_check(phi, PropertySpec(K_SUB_MULT, 2), cfg, table).holds
    assert run_property_check(d, PropertySpec(K_SUP_MULT, 2), cfg, table).holds


def test_k_checks_hold_on_50_grid(registry):
    table = build_spf_table(50**3)
    cfg = CheckConfig(max_m=50, max_n=50)
    for name, family in (("phi", K_SUB_MULT), ("d", K_SUP_MULT), ("sigma", K_SUP_MULT)):
        fn = registry.get(name)
        for k in (2, 3):
            assert run_property_check(fn, PropertySpec(family, k), cfg, table).holds, (name, k)
    for name, family in (("phi", K_SUB_HOM), ("sigma", K_SUP_HOM)):
        assert run_property_check(registry.get(name), PropertySpec(family, 2), cfg, table).holds


def test_k_check_refuses_small_sieve(registry):
    # m^3 and n^3 are factored from m and n: the sieve must reach m n only
    cfg = CheckConfig(max_m=50, max_n=50)
    with pytest.raises(ResourceError, match="at least 2500,"):
        run_property_check(registry.get("phi"), PropertySpec(K_SUB_MULT, 3), cfg,
                           build_spf_table(2499))
    assert run_property_check(registry.get("phi"), PropertySpec(K_SUB_MULT, 3), cfg,
                              build_spf_table(2500)).holds


def test_k_trivial_at_one(registry, table_10k):
    # f(1) = 1 so (1, 1) can never be a counterexample
    r = run_property_check(registry.get("phi"), PropertySpec(K_SUP_MULT, 2), CFG10,
                           build_spf_table(100))
    assert r.verdict == REFUTED
    assert all(cex.coords() != (1, 1) for cex in r.counterexamples)


# --- cross-power checks ------------------------------------------------------


def test_power_submult_small_pair(registry, table_10k):
    sigma, phi = registry.get("sigma"), registry.get("phi")
    # at (2, 3): sigma(6)^phi(6) = 144 <= sigma(2)^(phi(2)*3) sigma(3)^(phi(3)*2)
    assert 12 ** 2 == 144 <= 3 ** 3 * 4 ** 4
    cfg = CheckConfig(max_m=12, max_n=12)
    r = check_power_submult(sigma, phi, SUB, cfg, table_10k)
    assert r.holds
    assert r.pairs_checked == 144


def test_power_submult_rejects_fractional_exponent_fn(registry, table_10k):
    d, sod = registry.get("d"), registry.get("sigma_over_d")
    cfg = CheckConfig(max_m=4, max_n=4)  # hits n = 4 where sigma/d = 7/3
    with pytest.raises(UnsupportedInputError):
        check_power_submult(d, sod, SUB, cfg, table_10k)


# --- identity bounds ---------------------------------------------------------


def test_identity_bounds(registry, table_10k):
    assert check_identity_bound(registry.get("d"), "le", 2000, table_10k).holds
    assert check_identity_bound(registry.get("sigma"), "ge", 2000, table_10k).holds
    r = check_identity_bound(registry.get("sigma"), "le", 100, table_10k)
    assert r.verdict == REFUTED
    assert r.counterexamples[0].coords() == (2,)  # sigma(2) = 3 > 2


# --- classify ----------------------------------------------------------------


def test_classify_phi_profile(registry, table_10k):
    cfg = CheckConfig(max_m=30, max_n=30, k_set=(2,))
    table = build_spf_table(30**2)
    verdicts = {r.property: r.verdict for r in classify(registry.get("phi"), cfg, table)}
    assert verdicts["multiplicative"] == HOLDS
    assert verdicts["sub-mult"] == REFUTED
    assert verdicts["sup-mult"] == HOLDS
    assert verdicts["sub-hom"] == HOLDS
    assert verdicts["sup-hom"] == REFUTED
    assert verdicts["k-sub-mult(k=2)"] == HOLDS


def test_classify_constant_one(registry, table_10k):
    cfg = CheckConfig(max_m=10, max_n=10, k_set=(2,))
    table = build_spf_table(100)
    verdicts = {r.property: r.verdict for r in classify(registry.get("constant-1"), cfg, table)}
    assert verdicts == {
        "multiplicative": HOLDS,
        "sub-mult": HOLDS, "sup-mult": HOLDS,
        "sub-hom": HOLDS, "sup-hom": REFUTED,
        "k-sub-mult(k=2)": HOLDS, "k-sup-mult(k=2)": HOLDS,
        "k-sub-hom(k=2)": HOLDS, "k-sup-hom(k=2)": REFUTED,
    }


def test_classify_sigma_over_d(registry, table_10k):
    cfg = CheckConfig(max_m=100, max_n=100, k_set=(2,))
    verdicts = {r.property: r.verdict
                for r in classify(registry.get("sigma_over_d"), cfg, table_10k)}
    assert verdicts["sup-mult"] == HOLDS
    assert verdicts["sub-hom"] == HOLDS


_NON_POWER = [name for name in builtin_registry().names()
              if builtin_registry().get(name).kind != POWER]


def _timeless(report):
    return dataclasses.replace(report, elapsed_seconds=0.0)


@pytest.mark.parametrize("name, max_m, max_n, k_set", [
    *((name, 12, 12, (2, 3)) for name in _NON_POWER),
    *((name, 40, 30, (2, 4)) for name in _NON_POWER),
    # f(n^8) passes 2^62 below n = 210, so sigma's k = 8 table is refused
    # and its k-forms run on the scalar path
    ("sigma", 210, 3, (8,)),
    # f(mn)^k past int64: the k-forms are decided on Python-int rows
    ("sigma", 9, 9, (63, 64)),
    ("n_plus_d", 9, 9, (63, 64)),
])
def test_classify_equals_one_sweep_per_spec(registry, monkeypatch, name, max_m, max_n,
                                            k_set):
    """Each report of classify, which sweeps each formula shape and k once
    for both directions, equals the report of run_property_check for its
    spec, field by field but the time."""
    fn = registry.get(name)
    cfg = CheckConfig(max_m=max_m, max_n=max_n, k_set=k_set)
    specs = classify_specs(cfg)
    table = build_spf_table(sieve_limit(specs, cfg))
    swept = []
    monkeypatch.setattr(checks, "grid_property", lambda ev, spec, cfg, grid=grid_property:
                        swept.append(spec.label()) or grid(ev, spec, cfg))
    shared = classify(fn, cfg, table)
    # multiplicative, sub-mult, sub-hom, and k-sub-mult and k-sub-hom per k
    assert swept == [spec.label() for spec in specs
                     if spec.family == MULTIPLICATIVE or "sub" in spec.family]
    alone = [run_property_check(fn, spec, cfg, table) for spec in specs]
    assert [r.property for r in shared] == [spec.label() for spec in specs]
    assert list(map(_timeless, shared)) == list(map(_timeless, alone))
    if k_set == (8,):
        assert vector.power_table(Evaluator(fn, table), 8, 210) is None


def test_classify_keeps_a_cap_per_direction(registry):
    """sub-hom and sup-hom of sigma/phi, decided by one sweep, are both
    refuted far past the cap, and each report keeps its own first 10."""
    fn = registry.get("sigma_over_phi")
    cfg = CheckConfig(max_m=40, max_n=40, k_set=(2,))
    table = build_spf_table(1600)
    reports = {r.property: r for r in classify(fn, cfg, table)}
    wide = CheckConfig(max_m=40, max_n=40, counterexample_cap=1000)
    for family in (SUB_HOM, SUP_HOM):
        capped = reports[family]
        assert capped.verdict == REFUTED and len(capped.counterexamples) == 10
        every = run_property_check(fn, PropertySpec(family), wide, table)
        assert len(every.counterexamples) > 10
        assert capped.counterexamples == every.counterexamples[:10]
        assert capped.elapsed_seconds == reports[SUB_HOM].elapsed_seconds


def test_classify_rejects_power_combinator(registry, table_10k):
    h = combine(POWER, (registry.get("sigma"), registry.get("phi")))
    with pytest.raises(UsageError):
        classify(h, CFG10, table_10k)


# --- report mechanics --------------------------------------------------------


def _scrub(report_dict):
    report_dict.pop("elapsed_seconds", None)
    return report_dict


def test_reports_for_tag_ignores_threads(registry, table_10k):
    """The benchmark's worker passes threads= to reports_for_tag, for
    power combinators and the other tags alike; it changes no report."""
    cfg = CheckConfig(max_m=12, max_n=12, k_set=(2, 3))
    power = combine(POWER, (registry.get("sigma"), registry.get("identity")),
                    name="sigma^identity")
    for fn, tag in ((power, PropertyTag(power.name, SUB_MULT)),
                    (registry.get("d"), PropertyTag("d", K_SUP_MULT))):
        with_threads = reports_for_tag(fn, tag, cfg, table_10k, threads=2)
        without = reports_for_tag(fn, tag, cfg, table_10k)
        assert len(with_threads) == (1 if fn is power else 2)
        assert ([_scrub(report_to_json(r)) for r in with_threads]
                == [_scrub(report_to_json(r)) for r in without])


def test_counterexample_cap(registry, table_10k):
    cfg = CheckConfig(max_m=30, max_n=30, counterexample_cap=3)
    r = run_property_check(registry.get("d"), PropertySpec(SUP_MULT), cfg, table_10k)
    assert r.verdict == REFUTED
    assert len(r.counterexamples) == 3
    assert r.counterexamples[0].coords() == (2, 2)


def test_run_property_check_dispatch(registry, table_10k):
    cfg = CheckConfig(max_m=10, max_n=10)
    table = build_spf_table(100)
    r = run_property_check(registry.get("d"), PropertySpec("k-sup-mult", 2),
                           cfg, table)
    assert r.holds
    assert r.params["k"] == 2


def test_an_unknown_direction_is_refused(registry, table_10k):
    # a direction names a family or criterion in one place, and nowhere
    # does an unknown one fall through to the other direction
    with pytest.raises(UsageError, match="bogus"):
        PropertySpec("bogus")
    with pytest.raises(UsageError, match="bogus"):
        LocalCriterion("eq14", "bogus")
    with pytest.raises(UsageError, match="bogus"):
        check_power_submult(registry.get("sigma"), registry.get("phi"), "bogus", CFG10,
                            table_10k)


def test_config_validation():
    with pytest.raises(UsageError):
        CheckConfig(max_m=1)
    with pytest.raises(UsageError):
        CheckConfig(k_set=(1,))
    with pytest.raises(UsageError):
        CheckConfig(counterexample_cap=0)
