"""The vector paths against the scalar path, which stays the oracle: the
int64 rows of the grid sweeps, checked also against brute-force oracles,
and the log2 filter of the power comparisons (eq12, eq13, corollary1 and
the cross-power checks)."""

import dataclasses
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submult import checks, core, inequalities, vector
from submult.checks import HOLDS, REFUTED, SUB, SUP, CheckConfig, grid_property
from submult.cli import main
from submult.core import EQUAL, GREATER, LESS, build_spf_table, cmp_power_products_detail
from submult.errors import DomainError, ResourceError, SubmultError, UnsupportedInputError
from submult.functions import (
    POWER,
    PRODUCT,
    QUOTIENT,
    RECIPROCAL,
    SUM,
    Evaluator,
    Registry,
    builtin_registry,
    combine,
    evaluate,
    make_prime_power_fn,
)
from submult.inference import (
    FAMILIES,
    GE_IDENTITY,
    K_FAMILIES,
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

from blocks import block, row_orders, scalar_oracle
from oracles import d_oracle, phi_oracle, sigma_oracle

# Every registry function, plus prime-power rules with Fraction values and
# with negative values.
MEAN_DIVISOR = make_prime_power_fn(
    "mean-divisor-rule", lambda p, a: Fraction(p ** (a + 1) - 1, (p - 1) * (a + 1)))
FUNCTIONS = builtin_registry().functions() + [
    MEAN_DIVISOR,
    make_prime_power_fn("liouville", lambda p, a: (-1) ** a, positive=False),
]
REGISTRY = builtin_registry()
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
    return (REFUTED if failed else HOLDS), cex, checked, {}


def _undefined_at(p0, a0):
    """p^a + 1, except that it raises at p0^a for every a >= a0."""
    def rule(p, a):
        if p == p0 and a >= a0:
            raise DomainError(f"undefined at {p}^{a}")
        return p**a + 1 if a else 1
    return make_prime_power_fn(f"undefined-at-{p0}^{a0}", rule)


def _spied(prop, where):
    """prop, appending to where each point it compares."""
    def compare(*point):
        where.append(point)
        return prop.compare(*point)

    return dataclasses.replace(prop, compare=compare)


def _outcome_or_error(prop, cfg):
    """The sweep's outcome, or its error and the point it was comparing."""
    where = []
    try:
        return _outcome(_spied(prop, where), cfg)
    except SubmultError as err:
        return type(err), str(err), where[-1]


# The vector path's cells per block of rows: one row, three rows, every row
_BLOCKS = {"one row": lambda cfg: 1, "three rows": lambda cfg: 3 * cfg.max_n,
           "the whole grid": lambda cfg: cfg.max_m * cfg.max_n}

# sigma^3: at 16 x 16, f(mn)^k fits in int64 in the first rows only, and
# products beyond it wrap to wrong orders
SIGMA_CUBED = make_prime_power_fn("sigma^3",
                                  lambda p, a: ((p ** (a + 1) - 1) // (p - 1)) ** 3)


# n^8, with 7^(8a) + 1 at 7^a: f(mn)^2 <= f(m^2) f(n^2) fails at m = 7 and
# n <= 6 first, where the bounds leave every row from m = 3 to the scalar path
N8_BUT_7 = make_prime_power_fn("n^8-but-7", lambda p, a: p ** (8 * a) + (p == 7 and a > 0))


@settings(max_examples=300, deadline=None)
@given(fn=st.one_of(st.sampled_from(FUNCTIONS), st.just(SIGMA_CUBED),
                    st.builds(_undefined_at, st.sampled_from([2, 3, 5]),
                              st.integers(1, 4))),
       family=st.sampled_from(FAMILIES), k=st.sampled_from([2, 3]),
       max_m=st.integers(2, 40), max_n=st.integers(2, 40),
       cap=st.integers(1, 10), block=st.sampled_from(list(_BLOCKS)))
@example(fn=SIGMA_CUBED, family=K_SUP_MULT, k=3, max_m=16, max_n=16, cap=4,
         block="three rows")
# the first failure at a cell left to the scalar path, after decided rows of
# its block
@example(fn=N8_BUT_7, family=K_SUB_MULT, k=2, max_m=10, max_n=6, cap=3,
         block="the whole grid")
# the cap reached in the decided rows 1 and 2, then rows 3 to 16 on the
# scalar path
@example(fn=SIGMA_CUBED, family=K_SUB_MULT, k=3, max_m=16, max_n=16, cap=4,
         block="the whole grid")
# coprime rows of different lengths in each block, with counterexamples
@example(fn=REGISTRY.get("n_plus_d"), family=MULTIPLICATIVE, k=2, max_m=12,
         max_n=4, cap=10, block="three rows")
def test_int64_rows_match_the_scalar_path(table_1m, fn, family, k, max_m, max_n,
                                          cap, block):
    """Every formula shape and the coprime grid, with the rows decided in
    blocks of one row, of a few rows and of the whole grid: the same
    outcome as the scalar sweep, or the same error at the same point."""
    spec = _spec(family, k)
    cfg = CheckConfig(max_m=max_m, max_n=max_n, counterexample_cap=cap)
    prop = grid_property(Evaluator(fn, table_1m), spec, cfg)
    scalar = grid_property(Evaluator(fn, table_1m), spec, cfg)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checks, "_CELLS", _BLOCKS[block](cfg))
        fast = _outcome_or_error(prop, cfg)
    assert fast == _outcome_or_error(dataclasses.replace(scalar, vector=None), cfg)
    if fn.name in ORACLES:
        assert fast == _brute_force(fn.name, spec, cfg)


# values beyond int64 from p = 2 on: no table, so every block is declined
P40A = make_prime_power_fn("p^40a", lambda p, a: p ** (40 * a))


@pytest.mark.parametrize("family", [SUB_MULT, MULTIPLICATIVE, K_SUB_MULT, K_SUP_HOM])
def test_values_beyond_int64_leave_the_table_out(table_1m, family):
    fn = P40A
    cfg = CheckConfig(max_m=12, max_n=9, counterexample_cap=4)
    assert vector.value_table(Evaluator(fn, table_1m), 12 * 9) is None
    fast, scalar = _both_paths(fn, _spec(family, 2), cfg, table_1m)
    assert fast == scalar


# 2^61 - 1 at 2 and 1 at every other prime power: each of its values, and
# the sum of two, fits in int64, but the sum of five at 2 does not
_NEAR_AT_2 = make_prime_power_fn("near-at-2",
                                 lambda p, a: 2**61 - 1 if (p, a) == (2, 1) else 1)


def test_sums_beyond_int64_leave_the_table_out(table_1m):
    fn = combine(SUM, (_NEAR_AT_2,) * 5, name="five-near-at-2")
    cfg = CheckConfig(max_m=10, max_n=10)
    report = checks.check_subhom(fn, SUB, cfg, table_1m)
    assert vector.value_table(Evaluator(fn, table_1m), 100, 10) is None
    with scalar_oracle():
        scalar = checks.check_subhom(fn, SUB, cfg, table_1m)
    assert (dataclasses.replace(report, elapsed_seconds=0)
            == dataclasses.replace(scalar, elapsed_seconds=0))


def test_rows_past_the_bound_are_decided_on_python_ints(table_1m, monkeypatch):
    # f(n) = n^4: f(mn)^2 = (mn)^8 fits in 62 bits for small rows only
    fn = make_prime_power_fn("n^4", lambda p, a: p ** (4 * a))
    spec = PropertySpec(K_SUB_MULT, 2)
    cfg = CheckConfig(max_m=40, max_n=40)
    prop = grid_property(Evaluator(fn, table_1m), spec, cfg)
    rows = list(prop.axes[0])
    # one block of rows, every one decided in it as the scalar path orders it
    cells = block(prop, rows)
    assert [orders.tolist() for orders in row_orders(cells)] == [
        [prop.compare(m, n)[0] for n in range(1, 41)] for m in rows]
    compared = []
    monkeypatch.setattr(checks, "cmp_values",
                        lambda x, y, cmp=checks.cmp_values: compared.append(1) or cmp(x, y))
    fast = _outcome(prop, cfg)
    assert not compared
    with scalar_oracle():
        assert fast == _outcome(grid_property(Evaluator(fn, table_1m), spec, cfg), cfg)


def test_bit_lengths_are_exact_on_python_ints():
    x = np.array([0, 1, 2**64, 2**2000 - 1], dtype=object)
    assert vector._bit_lengths(x).tolist() == [0, 1, 65, 2000]
    assert vector._bit_lengths(x.reshape(2, 2)).shape == (2, 2)


# x = 2**61 - 1 has 61 bits, so -x / 3 against x / 3 is at 61 + 2 bits: the
# cross products are each below 2**63 in magnitude, but their difference is not
_NEAR = 2**61 - 1


def test_orders_decide_the_rows_past_the_bound_on_python_ints():
    # three rows of signs -1, 0, 1; the middle row's bounds exceed BITS, and
    # in int64 its differences would wrap to the opposite signs
    lhs = vector.Row(np.array([[1, 2, 3], [-_NEAR, 0, _NEAR], [1, 2, 3]]), np.int64(3),
                     np.array([[2], [61], [2]]), 2)
    rhs = vector.Row(np.array([[2, 2, 2], [_NEAR, 0, -_NEAR], [2, 2, 2]]), np.int64(3),
                     np.array([[2], [61], [2]]), 2)
    orders = vector.orders(lhs, rhs)
    assert orders.dtype == np.int8
    assert orders.tolist() == [[-1, 0, 1]] * 3
    # exactly one bit past the bound: 61 + 2 bits
    lhs = vector.Row(np.array([[-_NEAR]]), np.int64(3), 61, 2)
    rhs = vector.Row(np.array([[_NEAR]]), np.int64(3), 61, 2)
    assert vector.orders(lhs, rhs).tolist() == [[LESS]]
    assert vector.orders(rhs, lhs).tolist() == [[GREATER]]


@st.composite
def _near_the_bound(draw):
    """A rule of both signs near the int64 bounds: f(2) = x just below
    2**30 and f(4) = -y / d with y just below 2**61 and d < 8, so that at
    m = n = 2 of a mult shape the cross products of f(4) and f(2)**2 have
    opposite signs and bounds of 63 bits, and with d = 7 a difference
    beyond int64; the other prime powers are 1 or -1."""
    x = draw(st.sampled_from([-1, 1])) * (2**30 - draw(st.integers(1, 2**10)))
    y = 2**61 - draw(st.integers(2**8, 2**20))  # the tables admit values below 2**61
    d = draw(st.integers(4, 7))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4))

    def rule(p, a):
        if p == 2 and a in (1, 2):
            return Fraction(x) if a == 1 else Fraction(-y, d)
        return signs[min(a, 3)] if a else 1
    return make_prime_power_fn(f"near-2^61({x}, {-y}/{d}, {signs})", rule, positive=False)


@settings(max_examples=150, deadline=None)
@given(fn=_near_the_bound(),
       family=st.one_of(st.sampled_from([SUB_MULT, SUP_MULT]), st.sampled_from(FAMILIES)),
       k=st.sampled_from([2, 3]), max_m=st.integers(2, 5), max_n=st.integers(2, 3))
# at (2, 2), lhs.nbits + rhs.dbits = 61 + 2 and rhs.nbits + lhs.dbits = 60 + 3,
# and in int64 the difference of the cross products wraps
@example(fn=make_prime_power_fn(
    "near-2^61", lambda p, a: (Fraction(2**30 - 1) if a == 1 else Fraction(2**8 - 2**61, 7))
    if p == 2 and a in (1, 2) else 1, positive=False),
         family=SUP_MULT, k=2, max_m=2, max_n=2)
def test_negative_rules_near_the_bound_match_the_scalar_path(table_1m, fn, family, k,
                                                              max_m, max_n):
    """The grid block path on rational rules of both signs whose cross
    products reach 2**63, against the scalar oracle."""
    spec = _spec(family, k)
    cfg = CheckConfig(max_m=max_m, max_n=max_n)
    fast = _outcome_or_error(grid_property(Evaluator(fn, table_1m), spec, cfg), cfg)
    with scalar_oracle():
        assert fast == _outcome_or_error(
            grid_property(Evaluator(fn, table_1m), spec, cfg), cfg)


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


@settings(max_examples=300, deadline=None)
@given(fn=st.one_of(st.sampled_from(FUNCTIONS),
                    st.builds(_undefined_at, st.sampled_from([2, 3, 5]),
                              st.integers(2, 6))),
       family=st.sampled_from(K_FAMILIES), k=st.sampled_from([2, 3, 4]),
       max_m=st.integers(2, 12), max_n=st.integers(2, 12), cap=st.integers(1, 10))
def test_k_powers_factored_from_their_base(fn, family, k, max_m, max_n, cap):
    """A k-family on a sieve up to max_m * max_n, where m^k and n^k are
    factored from m and n, against the same sweep on a sieve that covers
    m^k and n^k."""
    spec = PropertySpec(family, k)
    cfg = CheckConfig(max_m=max_m, max_n=max_n, counterexample_cap=cap)
    small = build_spf_table(checks.sieve_limit([spec], cfg))
    large = build_spf_table(max(max_m, max_n) ** k)
    assert small.limit == max_m * max_n
    prop = grid_property(Evaluator(fn, small), spec, cfg)
    outcome = _outcome_or_error(prop, cfg)
    assert outcome == _outcome_or_error(
        grid_property(Evaluator(fn, large), spec, cfg), cfg)
    assert outcome == _outcome_or_error(dataclasses.replace(prop, vector=None), cfg)
    if fn.name in ORACLES:
        assert outcome == _brute_force(fn.name, spec, cfg)


@pytest.mark.parametrize("function, family, counterexamples", [
    ("sigma", "sub-mult", 0), ("d", "sup-mult", 10), ("d", "k-sup-mult --k 3", 0),
    ("sigma", "multiplicative", 0)])
def test_grid_check_is_decided_in_int64(monkeypatch, capsys, function, family,
                                        counterexamples):
    """Only the counterexamples' sides are recomputed with Fractions; on
    the coprime grid, the left-out cells read at n = 1 leave every row
    proven."""
    calls = []
    original = checks.cmp_values

    def counting(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(checks, "cmp_values", counting)
    code = main(["check", function, *family.split(), "--max-m", "200", "--max-n", "200"])
    capsys.readouterr()
    assert code == (1 if counterexamples else 0)
    assert len(calls) == counterexamples


# --- the value tables -------------------------------------------------------

# Limits at the edges of the builder's slices: 2^j - 1, 2^j, 2^j + 1 and the
# multiples of _CHUNK, each with its neighbours.
_EDGES = sorted({e + d for e in [2**j for j in range(1, 14)]
                 + [c * vector._CHUNK for c in (1, 2, 3)] for d in (-1, 0, 1)})


@cache
def _evaluated(fn, k, n, table):
    return evaluate(fn, n**k, table)


@settings(max_examples=150, deadline=None)
@given(fn=st.sampled_from(FUNCTIONS), k=st.sampled_from([1, 2, 3, 4]),
       data=st.data())
def test_tables_match_the_scalar_evaluation(table_1m, fn, k, data):
    """value_table (k = 1) and power_table (k >= 2) against evaluate at
    every n (n^k is trial-divided above the sieve); None where a value is
    beyond 2^62, a table where every value is below 2^61."""
    limit = data.draw(st.sampled_from(
        [e for e in _EDGES if 2 <= e <= (12289 if k == 1 else 1025)]))
    ev = Evaluator(fn, table_1m)
    table = vector.value_table(ev, limit) if k == 1 else vector.power_table(ev, k, limit)
    want = [_evaluated(fn, k, n, table_1m) for n in range(1, limit + 1)]
    bits = max(max(abs(v.numerator), v.denominator).bit_length() for v in want)
    if bits > 62:
        assert table is None
    if bits > 61:
        return
    values = want[:1] + want  # the entry at 0 is a placeholder, f(1)
    num, den = table
    assert num.tolist() == [v.numerator for v in values]
    dens = [v.denominator for v in values]
    assert (den is None) == (set(dens) == {1})
    if den is not None:
        assert den.tolist() == dens


@settings(max_examples=150, deadline=None)
@given(fn=st.one_of(st.sampled_from(FUNCTIONS), st.just(SIGMA_CUBED)),
       k=st.sampled_from([2, 3, 4]), max_m=st.integers(1, 40),
       max_n=st.integers(1, 40), data=st.data())
def test_rows_are_bounded_by_their_own_values(table_1m, fn, k, max_m, max_n, data):
    """The Rows RowValues looks up for a block of rows, at m n (on the
    full and the coprime grid), m, n, m^k and n^k: every cell within its
    row's bounds, and each row's bound at most the running bound over the
    table up to the row's largest index."""
    lo = data.draw(st.integers(1, max_m))
    ms = np.arange(lo, data.draw(st.integers(lo, max_m)) + 1)[:, None]
    ns = np.arange(1, max_n + 1)
    m, n = vector.Arg(ms), vector.Arg(ns)
    coprime = vector.Arg(np.where(np.gcd(ms, ns) == 1, ns, 1))
    ev = Evaluator(fn, table_1m)
    f = vector.RowValues(ev, max_m, max_n)
    looked_up = [(x, 1, vector.value_table(ev, max_m * max_n))
                 for x in (m * n, m * coprime, m, n)]
    looked_up += [(x, k, vector.power_table(ev, k, max(max_m, max_n))) for x in (m, n)]
    for x, power, table in looked_up:
        if table is None:
            continue
        row = f(x, power)
        top = np.max(x.x, axis=-1, keepdims=True)
        for values, bits, column in ((row.num, row.nbits, table[0]),
                                     (row.den, row.dbits, table[1])):
            if column is None:
                assert (values == 1).all() and bits == 1
                continue
            bits = np.asarray(bits)
            assert (np.abs(values) >> bits.astype(np.int64) == 0).all()
            exponents = np.frexp(np.abs(column).astype(np.float64))[1]
            running = np.maximum.accumulate(exponents)
            assert (bits <= running[top]).all()


def test_tables_are_left_out_where_an_entry_cannot_be_built(table_1m):
    """None exactly where an entry is above 2^62, a divisor is zero or a
    rule raises: the scalar path then raises or decides in place."""
    def tables(fn, limit, k):
        ev = Evaluator(fn, table_1m)
        return vector.value_table(ev, limit), vector.power_table(ev, k, limit)

    n_16 = make_prime_power_fn("n^16", lambda p, a: p ** (16 * a))
    assert [t is None for t in tables(n_16, 12, 2)] == [False, True]  # 12^32
    assert [t is None for t in tables(n_16, 15, 2)] == [True, True]  # 15^16
    zero_at_3 = make_prime_power_fn("zero-at-3", lambda p, a: 0 if p == 3 and a else 1)
    zero_at_3 = combine(QUOTIENT, (REGISTRY.get("sigma"), zero_at_3))
    assert [t is None for t in tables(zero_at_3, 2, 2)] == [False, False]
    assert [t is None for t in tables(zero_at_3, 3, 2)] == [True, True]
    raises_at_9 = _undefined_at(3, 2)  # rule(3, a) raises for a >= 2
    assert [t is None for t in tables(raises_at_9, 8, 2)] == [False, True]
    assert [t is None for t in tables(raises_at_9, 2, 2)] == [False, False]
    assert [t is None for t in tables(raises_at_9, 9, 2)] == [True, True]


@pytest.fixture
def builds(monkeypatch):
    """The (function, limit, k) of every table built."""
    calls = []
    original = vector._build

    def counting(fn, spf, limit, k=1, bound=None, held=0):
        calls.append((fn.name, limit, k, bound))
        return original(fn, spf, limit, k, bound, held)

    monkeypatch.setattr(vector, "_build", counting)
    return calls


def test_each_table_is_built_once_per_command(capsys, builds):
    """Evaluators of one function on one sieve share its tables, however
    many checks make their own."""
    fn = combine(POWER, (REGISTRY.get("identity"), REGISTRY.get("identity")))
    cfg = CheckConfig(max_m=50, max_n=50)
    table = build_spf_table(cfg.max_m * cfg.max_n)
    for tag in (PropertyTag(fn.name, SUB_MULT), PropertyTag(fn.name, SUP_MULT)):
        checks.reports_for_tag(fn, tag, cfg, table)
    assert builds == [("identity", 2500, 1, 50)]
    builds.clear()
    for name in ("sigma_over_d", "n_plus_d"):
        main(["classify", name, "--max-m", "20", "--max-n", "30", "--k-set", "2,3"])
    capsys.readouterr()
    assert builds == [(name, *key) for name in ("sigma_over_d", "n_plus_d")
                      for key in ((600, 1, 30), (30, 2, 30), (30, 3, 30))]


@pytest.mark.parametrize("order", ["grid first", "identity bound first"])
def test_one_table_per_function_and_k_serves_grids_and_lines(builds, order):
    """A full table, from every prime, serves the grids' bounded requests of
    its function, limit and k once it is built, and replaces the bounded
    ones kept before it: one table stays on the sieve, and every report
    equals the one swept on a sieve of its own."""
    sigma = REGISTRY.get("sigma")
    cfg = CheckConfig(max_m=30, max_n=30, k_set=(2,))
    tags = [PropertyTag("sigma", family) for family in
            (SUB_MULT, GE_IDENTITY, SUP_HOM, K_SUB_MULT)]
    if order == "identity bound first":
        tags[:2] = tags[1::-1]
    sieve = build_spf_table(900)
    shared = [r for tag in tags for r in checks.reports_for_tag(sigma, tag, cfg, sieve)]
    assert sorted(key[1:] for key in sieve.tables) == [(30, 2, 30), (900, 1, 900)]
    full = builds.index(("sigma", 900, 1, 900))
    assert ("sigma", 900, 1, 30) not in builds[full:]
    alone = [r for tag in tags
             for r in checks.reports_for_tag(sigma, tag, cfg, build_spf_table(900))]
    assert ([dataclasses.replace(r, elapsed_seconds=0) for r in shared]
            == [dataclasses.replace(r, elapsed_seconds=0) for r in alone])


def test_grid_tables_call_rules_only_at_primes_the_grid_reaches():
    """Every prime factor of m n is at most max(max_m, max_n): the table
    over [0, max_m max_n] takes each rule value at such a prime once."""
    calls = []

    def rule(p, a):
        calls.append((p, a))
        return core.sigma_rule(p, a)

    sigma = make_prime_power_fn("counted-sigma", rule)
    calls.clear()
    report = checks.check_submult(sigma, SUB, CheckConfig(max_m=200, max_n=200),
                                  build_spf_table(40_000))
    assert report.holds
    assert sorted(calls) == [(p, a) for p in core.primes_upto(200)
                             for a in range(1, 16) if p**a <= 40_000]
    assert len(calls) == 128


def _largest_prime_factors(spf: np.ndarray) -> np.ndarray:
    top = np.ones(len(spf), dtype=np.int64)
    for n in range(2, len(spf)):
        top[n] = max(spf[n], top[n // spf[n]])
    return top


@pytest.mark.parametrize("run", [
    lambda cfg, sieve: checks.check_submult(REGISTRY.get("sigma_over_d"), SUP, cfg, sieve),
    lambda cfg, sieve: checks.check_multiplicative(REGISTRY.get("n_plus_d"), cfg, sieve),
    lambda cfg, sieve: checks.check_k_subhom(REGISTRY.get("phi"), 2, SUB, cfg, sieve),
    lambda cfg, sieve: checks.check_power_submult(REGISTRY.get("sigma"),
                                                  REGISTRY.get("d"), SUB, cfg, sieve),
], ids=["sup-mult", "multiplicative", "k-sub-hom", "cross-power"])
def test_no_grid_sweep_reads_an_entry_beyond_its_primes(run):
    """The entries of a grid's tables at an n with a prime factor above
    max(max_m, max_n) are overwritten with small garbage, which the bounds
    would prove and the orders would show: the sweep again on the same
    sieve gives the same report."""
    cfg = CheckConfig(max_m=30, max_n=20, counterexample_cap=5)
    sieve = build_spf_table(600)
    before = run(cfg, sieve)
    beyond = np.flatnonzero(_largest_prime_factors(sieve.spf) > 30)
    rng = np.random.default_rng(0)
    poisoned = 0
    for num, den in sieve.tables.values():
        if len(num) < len(sieve.spf):
            continue  # f at n^k for n <= 30
        num[beyond] = rng.integers(-9, 10, len(beyond))
        if den is not None:
            den[beyond] = rng.integers(1, 10, len(beyond))
        poisoned += 1
    assert poisoned
    after = run(cfg, sieve)
    assert dataclasses.replace(after, elapsed_seconds=0) == dataclasses.replace(
        before, elapsed_seconds=0)


@settings(max_examples=150, deadline=None)
@given(fn=st.one_of(st.sampled_from(FUNCTIONS), st.just(SIGMA_CUBED),
                    st.builds(_undefined_at, st.sampled_from([2, 3, 5]),
                              st.integers(1, 4))),
       direction=st.sampled_from(["le", "ge"]), max_n=st.integers(1, 3000))
# lines of three blocks: refuted at every point past 1, and declined (p^40a
# has no table), each block wholly on the scalar path
@example(fn=REGISTRY.get("sigma"), direction="le", max_n=20_000)
@example(fn=P40A, direction="le", max_n=20_000)
def test_identity_bounds_in_int64_match_the_scalar_path(table_1m, fn, direction, max_n):
    """f(n) <= n or >= n on the line's int64 table, and on the scalar path:
    the same report, or the same error at the same point."""
    fast, scalar = _vector_and_scalar(
        lambda: checks.check_identity_bound(fn, direction, max_n, table_1m))
    assert fast == scalar


def test_an_identity_bound_after_a_grid_reads_a_table_of_every_prime():
    """On one sieve, a grid sweep keeps sigma's table from the primes up to
    20 only, where sigma(23) would read 1; the identity bound over the same
    limit builds and reads a table from every prime."""
    sigma = REGISTRY.get("sigma")
    cfg = CheckConfig(max_m=20, max_n=20)
    sieve = build_spf_table(400)
    [grid] = checks.reports_for_tag(sigma, PropertyTag("sigma", SUB_MULT), cfg, sieve)
    assert sieve.tables[sigma, 400, 1, 20][0][23] != 24
    [bound] = checks.reports_for_tag(sigma, PropertyTag("sigma", GE_IDENTITY), cfg, sieve)
    assert grid.holds and bound.holds and bound.pairs_checked == 400
    # the full table replaces the bounded one
    assert list(sieve.tables) == [(sigma, 400, 1, 400)]
    assert sieve.tables[sigma, 400, 1, 400][0][23] == 24
    alone = checks.check_identity_bound(sigma, "ge", 400, build_spf_table(400))
    assert (bound.verdict, bound.counterexamples, bound.stats) == (
        alone.verdict, alone.counterexamples, alone.stats)


def test_tables_beyond_the_memory_budget_are_refused(capsys, monkeypatch):
    """ResourceError, exit 2, before the builder allocates a full-length
    array: the sieve of the 50 x 50 grid fits the patched budget, its
    value table does not."""
    def never(*args):
        raise AssertionError("a full-length array was allocated")

    monkeypatch.setattr(vector, "_leaves", never)
    monkeypatch.setattr(core, "memory_budget",
                        lambda: core._sieve.sieve_bytes(2500))
    assert main(["check", "sigma", "sub-mult", "--max-m", "50", "--max-n", "50"]) == 2
    err = capsys.readouterr().err
    assert "the value table of sigma up to 2500" in err
    assert "physical memory" in err


def test_rule_values_past_the_bound_refuse_the_table_before_its_memory_check(
        monkeypatch):
    """A table with a rule value of 2^61 or more cannot be built at any
    budget (_times refuses an entry of 2^61 or more), so a budget it would
    exceed refuses nothing: the sweep runs on the scalar path, as it does
    under any budget."""
    cfg = CheckConfig(max_m=10, max_n=10)
    for value in (2**61, 2**62 - 1, 2**62):
        fn = make_prime_power_fn(f"{value}-at-2",
                                 lambda p, a, v=value: v if (p, a) == (2, 1) else 1)
        sieves = build_spf_table(100), build_spf_table(100)
        with scalar_oracle():
            scalar = checks.check_submult(fn, SUB, cfg, sieves[0])
        with monkeypatch.context() as m:
            m.setattr(core, "memory_budget", lambda: 0)
            report = checks.check_submult(fn, SUB, cfg, sieves[1])
        assert sieves[1].tables == {(fn, 100, 1, 10): None}
        assert (dataclasses.replace(report, elapsed_seconds=0)
                == dataclasses.replace(scalar, elapsed_seconds=0))


@pytest.fixture
def needs(monkeypatch):
    """The bytes of every memory check."""
    calls = []
    original = core.require_memory

    def recording(need, what):
        calls.append(need)
        original(need, what)

    monkeypatch.setattr(core, "require_memory", recording)
    return calls


def test_tables_kept_on_a_sieve_count_against_the_budget(monkeypatch, needs):
    """A table that fits the budget beside a bare sieve is refused beside
    one that already keeps a table of the same size."""
    cfg = CheckConfig(max_m=50, max_n=50)
    sieve = build_spf_table(2500)
    checks.check_submult(REGISTRY.get("sigma"), SUB, cfg, sieve)
    sigma_need = needs[-1]
    assert sigma_need > sieve.spf.nbytes
    monkeypatch.setattr(core, "memory_budget", lambda: sigma_need)
    checks.check_submult(REGISTRY.get("phi"), SUB, cfg, build_spf_table(2500))
    assert needs[-1] == sigma_need
    with pytest.raises(ResourceError, match="the value table of phi up to 2500"):
        checks.check_submult(REGISTRY.get("phi"), SUB, cfg, sieve)
    assert needs[-1] == sigma_need + sum(
        a.nbytes for a in sieve.tables[REGISTRY.get("sigma"), 2500, 1, 50] if a is not None)


@pytest.mark.parametrize("fn", [
    REGISTRY.get("sigma"), REGISTRY.get("n_over_phi"), REGISTRY.get("n_plus_d"),
    MEAN_DIVISOR, combine(SUM, (MEAN_DIVISOR, MEAN_DIVISOR, REGISTRY.get("phi"))),
    combine(RECIPROCAL, (REGISTRY.get("sigma"),))],
    ids=lambda fn: fn.name)
@pytest.mark.parametrize("k, limit", [(1, 10**6), (2, 400_000)])
def test_the_memory_estimate_bounds_the_build(table_1m, needs, fn, k, limit):
    """What _build allocates at once stays within the bytes the budget is
    checked against, at limits where the arrays over every entry, not the
    chunks' temporaries, are most of both."""
    tracemalloc.start()
    try:
        num, _ = vector._build(fn, table_1m.spf, limit, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(num) == limit + 1 and 0 < peak <= needs[-1]


# --- the log2 filter of the power comparisons ------------------------------------


def _report_or_error(run, decide):
    """run()'s reports as (verdict, counterexamples with sides, points,
    stats) each, or the type and message of the error it raises and the
    last point compared before it; with every Property's vector dropped
    unless decide, so that each point goes to the scalar comparison."""
    where = []

    def report(function, label, params, prop, *args, original=checks.sweep_report,
               **kwargs):
        if not decide:
            prop = dataclasses.replace(prop, vector=None)
        return original(function, label, params, _spied(prop, where), *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inequalities, "sweep_report", report)
        m.setattr(checks, "sweep_report", report)
        try:
            reports = run()
        except SubmultError as err:
            return type(err), str(err), where[-1] if where else None
    if not isinstance(reports, tuple):
        reports = (reports,)
    return [(r.verdict, [(c.point, c.lhs, c.rhs) for c in r.counterexamples],
             r.pairs_checked, r.stats) for r in reports]


def _vector_and_scalar(run, cells=checks._CELLS):
    """run() with the vector filter, deciding blocks of rows of at most
    cells cells, then with every point on the scalar comparison."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checks, "_CELLS", cells)
        fast = _report_or_error(run, decide=True)
    return fast, _report_or_error(run, decide=False)


@pytest.mark.parametrize("exp", [1, 7, 1000])
def test_power_orders_decide_only_what_the_scalar_filter_decides(exp):
    """x^e vs (x + k)^e and (x / (x + k))^e vs 1 across the band of k where
    the scalar filter's padded intervals separate and the vector filter's,
    twice as wide, do not yet."""
    x = 10**12
    ks = np.arange(-40_000, 40_001, 53)
    cases = [
        (vector.power_orders([(x, 1, exp)], [(x + ks, 1, exp)]),
         lambda k: ([(x, exp)], [(x + k, exp)])),
        (vector.power_orders([(x, x + ks, exp)], [(1, 1, exp)]),
         lambda k: ([(Fraction(x, x + k), exp)], [])),
    ]
    for orders, sides in cases:
        left_to_scalar = 0
        for k, order in zip(ks.tolist(), orders.tolist()):
            scalar, used_exact = cmp_power_products_detail(*sides(k))
            if order == vector.UNDECIDED:
                left_to_scalar += not used_exact and scalar != 0
            else:
                assert (order, used_exact) == (scalar, False), k
        assert left_to_scalar > 0
        assert (orders != vector.UNDECIDED).sum() > len(ks) // 2


@settings(max_examples=40, deadline=None)
@given(max_prime=st.integers(2, 3000), max_n=st.integers(2, 1500))
def test_eq12_eq13_filter_matches_the_scalar_path(max_prime, max_n):
    for run in (lambda: inequalities.verify_eq12(max_prime),
                lambda: inequalities.verify_eq13(max_n)):
        fast, scalar = _vector_and_scalar(run)
        assert fast == scalar


@settings(max_examples=60, deadline=None)
@given(f=st.sampled_from([n for n in REGISTRY.names() if REGISTRY.has_tag(n, SUB_MULT)]),
       g=st.sampled_from([n for n in REGISTRY.names() if REGISTRY.has_tag(n, SUB_HOM)]),
       max_prime=st.integers(2, 300), max_n=st.integers(2, 600))
def test_corollary1_filter_matches_the_scalar_path(f, g, max_prime, max_n):
    """Fraction-valued bases (n_over_phi, sigma_over_phi) and exponents that
    are not integers (n_over_phi, sigma_over_d) included: the latter raise
    the same error at the same point on both paths."""
    def run():
        return inequalities.verify_corollary1(REGISTRY.get(f), REGISTRY.get(g),
                                              max_prime, max_n, registry=REGISTRY)

    fast, scalar = _vector_and_scalar(run)
    assert fast == scalar


def test_corollary1_zero_base_raises_the_scalar_error():
    registry = Registry()
    zero_at_4 = make_prime_power_fn("zero-at-4", lambda p, a: 0 if (p, a) == (2, 2)
                                    else p**a, positive=False)
    for fn, family in ((zero_at_4, SUB_MULT), (builtin_registry().get("phi"), SUB_HOM)):
        registry.register(fn, [PropertyTag(fn.name, family)])
    with np.errstate(all="raise"):  # the zero never reaches np.log2
        fast, scalar = _vector_and_scalar(lambda: inequalities.verify_corollary1(
            zero_at_4, registry.get("phi"), 20, 20, registry=registry))
    assert fast == scalar and fast[0] is DomainError


# f(p^a) = (a + 2) / (a + 1) for a >= 1: equal at every prime, so f(m) = f(n)
# for some m != n and the scalar comparison merges their factors
_BY_EXPONENT = make_prime_power_fn("by-exponent",
                                   lambda p, a: Fraction(a + 2, a + 1) if a else 1)
# bases with f(1) != 1, whose factor at m = 1 or n = 1 is not dropped
_SHIFTED = [combine(SUM, (REGISTRY.get("constant-1"), fn), name=f"1+{fn.name}")
            for fn in (_BY_EXPONENT, REGISTRY.get("phi"))]
# an exponent that is 0 at every even n
_ZERO_AT_EVEN = make_prime_power_fn("zero-at-even", lambda p, a: 0 if p == 2 and a
                                    else p**a, positive=False)


# 0 and -1 at 13 only: at max_n < 13, only row 13 holds a base <= 0 or a
# negative exponent
_ZERO_AT_13 = make_prime_power_fn(
    "zero-at-13", lambda p, a: 0 if p == 13 and a else p**a, positive=False)
_NEGATIVE_AT_13 = make_prime_power_fn(
    "negative-at-13", lambda p, a: -1 if p == 13 and a else p**a, positive=False)


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(REGISTRY.functions()
                            + [_BY_EXPONENT, _ZERO_AT_13, *_SHIFTED]),
       expo=st.sampled_from(REGISTRY.functions() + [_ZERO_AT_EVEN, _NEGATIVE_AT_13]),
       direction=st.sampled_from([SUB, SUP]), max_m=st.integers(2, 16),
       max_n=st.integers(2, 12), cap=st.integers(1, 10),
       block=st.sampled_from(list(_BLOCKS)))
@example(base=_ZERO_AT_13, expo=REGISTRY.get("identity"), direction=SUP, max_m=16,
         max_n=12, cap=4, block="three rows")
@example(base=REGISTRY.get("sigma"), expo=_NEGATIVE_AT_13, direction=SUB, max_m=16,
         max_n=12, cap=4, block="the whole grid")
def test_cross_power_filter_matches_the_scalar_path(table_10k, base, expo,
                                                    direction, max_m, max_n,
                                                    cap, block):
    """Every registry function as the exponent: the integer-valued ones are
    decided, the others raise the same error at the same point.  Bases
    whose sides normalize to identical factors (f(1) = 1 dropped, or
    f(m) = f(n) merged) or not (f(1) != 1), and an exponent 0.  Rows
    decided in blocks of any size, rows with a base <= 0 or an exponent
    < 0 among them."""
    cfg = CheckConfig(max_m=max_m, max_n=max_n, counterexample_cap=cap)

    def run():
        return checks.check_power_submult(base, expo, direction, cfg, table_10k)

    fast, scalar = _vector_and_scalar(run, _BLOCKS[block](cfg))
    assert fast == scalar


@pytest.mark.parametrize("base, expo, error", [
    (_ZERO_AT_13, REGISTRY.get("identity"), DomainError),
    (REGISTRY.get("identity"), _NEGATIVE_AT_13, UnsupportedInputError)],
    ids=["zero-base", "negative-exponent"])
def test_a_cross_power_block_with_a_bad_row_goes_to_the_scalar_path(table_10k, base,
                                                                    expo, error):
    """Off row 13 both sides are (mn)^(mn), so every cell is a tie the
    block decides; a block that holds row 13, where the base is 0 or the
    exponent -1, goes whole to the scalar path, which raises there."""
    cfg = CheckConfig(max_m=16, max_n=12)
    props = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checks, "sweep_report", lambda *args: props.append(args[3]))
        checks.check_power_submult(base, expo, SUB, cfg, table_10k)
    [prop] = props
    rows = prop.axes[0]
    assert all(orders is None for orders in row_orders(block(prop, rows[9:])))
    assert vector.UNDECIDED not in block(prop, rows[:12])
    fast, scalar = _vector_and_scalar(
        lambda: checks.check_power_submult(base, expo, SUB, cfg, table_10k),
        _BLOCKS["three rows"](cfg))
    assert fast == scalar and fast[0] is error and fast[2] == (13, 1)


def _row(*values) -> vector.Row:
    """One cell per value, as the rows of f and g."""
    xs = [Fraction(v) for v in values]
    num = np.array([x.numerator for x in xs], dtype=np.int64)
    den = np.array([x.denominator for x in xs], dtype=np.int64)
    return vector.Row(num, den, max(x.numerator for x in xs).bit_length(),
               max(x.denominator for x in xs).bit_length())


# (f(mn), f(m), f(n), g(mn), g(m), g(n)) of the cross shape at m = 2,
# n = 3, or (f(x), g(x)) of below_self at x = 2; the order power_ties gives
# the cell, and what the scalar comparison returns
_TIE_CASES = {
    "identical, f(n) = 1 dropped": ((5, 5, 1, 9, 3, 4), EQUAL, (EQUAL, False)),
    "identical, f(m) = f(n) merged": ((Fraction(3, 2),) * 3 + (7, 1, 2),
                                      EQUAL, (EQUAL, False)),
    "identical, every factor dropped": ((1, 7, 1, 4, 0, 5), EQUAL, (EQUAL, False)),
    "tie": ((6, 2, 3, 6, 2, 3), vector.TIE, (EQUAL, True)),
    "tie of fractions": ((Fraction(9, 4), Fraction(3, 2), Fraction(3, 2), 6, 2, 3),
                         vector.TIE, (EQUAL, True)),
    "tie just within the budget": ((6, 2, 3, 6 * 79_000, 2 * 79_000, 3 * 79_000),
                                   vector.TIE, (EQUAL, True)),
    "near-tie": ((10**10 + 1, 10**5, 10**5, 6, 2, 3),
                 vector.UNDECIDED, (GREATER, True)),
    "reduced powers beyond int64": ((2**20, 2**30, 2**5, 5, 1, 1),
                                    vector.UNDECIDED, (EQUAL, True)),
    "exponents beyond int64": ((6, 2, 3, 6 * 2**60, 2 * 2**60, 3 * 2**60),
                               vector.UNDECIDED, ResourceError),
    # g(m) n = 3 (2^64 + 2) / 3 would wrap to 2 = g(mn) in int64
    "exponents that would wrap int64": ((5, 5, 5, 2, (2**64 + 2) // 3, 0),
                                        vector.UNDECIDED, (LESS, False)),
    # g(m) and g(n) fit in 62 bits, but g(m) n wraps to -2^62 - 3, and
    # -2^62 - 3 + g(n) m = 1 = g(mn)
    "exponent products that would wrap int64": ((5, 5, 5, 1, 2**62 - 1, 2**61 + 2),
                                                vector.UNDECIDED, (LESS, False)),
    "tie over the budget": ((6, 2, 3, 6 * 10**6, 2 * 10**6, 3 * 10**6),
                            vector.UNDECIDED, ResourceError),
    "below self, identical": ((2, 2), EQUAL, (EQUAL, False)),
    "below self, tie": ((4, 1), vector.TIE, (EQUAL, True)),  # 4^1 against 2^2
    "below self, near-tie": ((Fraction(4 * 10**12 + 1, 10**12), 1),
                             vector.UNDECIDED, (GREATER, True)),
}


@pytest.mark.parametrize("case", _TIE_CASES)
def test_cross_power_ties_settle_what_the_scalar_path_settles(case):
    """power_ties on the sides a power shape makes of Rows and Args, on a
    cell power_orders left UNDECIDED, against power_compare on the same
    values."""
    values, settled, scalar = _TIE_CASES[case]
    if len(values) == 6:
        shape, point = checks._cross, (2, 3)
        f, g = dict(zip((6, 2, 3), values[:3])), dict(zip((6, 2, 3), values[3:]))
        args = (vector.Arg(np.array([[2]])), vector.Arg(np.array([3])))
    else:
        shape, point = checks.below_self, (2,)
        f, g = {2: values[0]}, {2: values[1]}
        args = (vector.Arg(np.array([[2]])),)

    def rows(values):
        return lambda x: _row(values[int(x.x.ravel()[0])])

    lhs, rhs = ([(vector.row(b), vector.row(e)) for b, e in side]
                for side in shape(rows(f), rows(g), *args))
    orders = vector.power_ties(np.array([[vector.UNDECIDED]], dtype=np.int8), lhs, rhs)
    assert orders.tolist() == [[settled]]
    compare = checks.power_compare(shape, f.get, g.get)
    if scalar is ResourceError:
        with pytest.raises(ResourceError):
            compare(*point)
    else:
        order, _, _, used_exact = compare(*point)
        assert (order, used_exact) == scalar


# f(n) = the odd part of n, and g(n) = 2^15 n: f(2n) = f(n), so at m = 1
# and m = 2 the sides normalize to the same factor; at m = 3 the cells are
# ties, the first over the digit budget at n = 5 (~1.3 million digits)
_ODD_PART = make_prime_power_fn("odd-part", lambda p, a: 1 if p == 2 else p**a)
_TWO = combine(SUM, (REGISTRY.get("constant-1"),) * 2, name="two")
_SCALED_IDENTITY = combine(PRODUCT, (_TWO,) * 15 + (REGISTRY.get("identity"),),
                           name="2^15n")


def test_over_budget_ties_raise_where_the_scalar_path_raises(table_10k,
                                                           power_comparisons):
    outcomes = []
    for oracle in (nullcontext, scalar_oracle):
        power_comparisons.clear()
        with oracle(), pytest.raises(ResourceError) as err:
            checks.check_power_submult(_ODD_PART, _SCALED_IDENTITY, SUB,
                                       CheckConfig(max_m=3, max_n=40), table_10k)
        outcomes.append((str(err.value), power_comparisons[-1]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == (((15, 15 * 2**15),), ((3, 15 * 2**15), (5, 15 * 2**15)))


def test_identical_sides_over_the_budget_pass(table_10k, power_comparisons):
    """As in the scalar comparison, which returns before its budget."""
    cfg = CheckConfig(max_m=2, max_n=40)
    fmn, gmn = Fraction(5), 80 * 2**15  # at (m, n) = (2, 40)
    assert core._estimated_digits([(fmn, gmn)]) > core.DEFAULT_DIGIT_BUDGET
    for oracle in (nullcontext, scalar_oracle):
        with oracle():
            report = checks.check_power_submult(_ODD_PART, _SCALED_IDENTITY, SUB, cfg,
                                                table_10k)
        assert report.holds and report.stats == {}
    assert len(power_comparisons) == 80  # only the run on the scalar path


@pytest.fixture
def power_comparisons(monkeypatch):
    """Every call of the scalar power comparison, wherever a sweep makes it."""
    calls = []
    original = inequalities.cmp_power_products_detail

    def counting(lhs, rhs, **kwargs):
        calls.append((lhs, rhs))
        return original(lhs, rhs, **kwargs)

    monkeypatch.setattr(inequalities, "cmp_power_products_detail", counting)
    monkeypatch.setattr(checks, "cmp_power_products_detail", counting)
    return calls


def test_without_the_filter_every_point_is_exact(power_comparisons):
    with scalar_oracle():
        report = inequalities.verify_eq13(500)
    assert report.holds and report.stats == {"exact_fallbacks": 499}
    assert len(power_comparisons) == 499


@pytest.mark.parametrize("base, exact_fallbacks", [("identity", 2401), ("sigma", 1448)])
def test_cross_power_ties_are_settled_in_bulk(power_comparisons, base, exact_fallbacks):
    """f(mn)^(mn) vs f(m)^(mn) f(n)^(mn): every cell of the 50 x 50 grid
    off the m = 1 and n = 1 edges is a tie or near a tie for the log2
    filter, and each tie still counts as an exact fallback."""
    cfg = CheckConfig(max_m=50, max_n=50)
    report = checks.check_power_submult(
        REGISTRY.get(base), REGISTRY.get("identity"), SUB, cfg,
        build_spf_table(cfg.max_m * cfg.max_n))
    assert report.holds and report.stats == {"exact_fallbacks": exact_fallbacks}
    assert power_comparisons == []


def test_power_combinator_makes_no_scalar_power_compare(power_comparisons):
    """identity^identity = identity: every cell off the m = 1 and n = 1
    edges is a tie, settled in bulk in both directions."""
    fn = combine(POWER, (REGISTRY.get("identity"), REGISTRY.get("identity")))
    cfg = CheckConfig(max_m=50, max_n=50)
    table = build_spf_table(cfg.max_m * cfg.max_n)
    reports = [r for family in (SUB_MULT, SUP_MULT) for r in
               checks.reports_for_tag(fn, PropertyTag(fn.name, family), cfg, table)]
    assert ([(r.verdict, r.stats) for r in reports]
            == [(HOLDS, {"exact_fallbacks": 2401})] * 2)
    assert power_comparisons == []


def test_ties_on_a_line_are_settled_in_bulk(power_comparisons):
    """identity^identity against n^n: the sides are identical at every
    point, so both reports of corollary1 are refuted everywhere.  Bulk ties
    decide every point; the scalar comparison runs only to recompute the
    counterexamples, and the reports are the scalar path's."""
    identity = REGISTRY.get("identity")

    def run():
        return inequalities.verify_corollary1(identity, identity, 500, 2000,
                                              registry=REGISTRY)

    fast = run()
    assert len(power_comparisons) <= 2 * CheckConfig().counterexample_cap
    with scalar_oracle():
        scalar = run()
    assert ([(r.verdict, r.counterexamples, r.pairs_checked, r.stats) for r in fast]
            == [(r.verdict, r.counterexamples, r.pairs_checked, r.stats) for r in scalar])
    assert [r.verdict for r in fast] == [REFUTED] * 2


@settings(max_examples=100, deadline=None)
@given(xs=st.lists(st.integers(1, 3000), min_size=1, max_size=5),
       k=st.integers(1, 70))
def test_powers_of_an_arg_are_bounded_in_each_row(xs, k):
    """A factor m**k of the hom shapes: bits() is the bit length of each
    row's m**k, and values() is exact, wherever that is within BITS."""
    ms = np.array(xs, dtype=np.int64)[:, None]
    power = vector.Arg(ms) ** k
    for x, bits, value in zip(xs, power.bits().ravel().tolist(),
                              power.values().ravel().tolist()):
        exact = (x**k).bit_length()
        if exact <= vector.BITS:
            assert (bits, value) == (exact, x**k)
        else:
            assert bits > vector.BITS


@pytest.mark.parametrize("argv", [
    ["inequality", "eq13", "--max-n", "20000"],
    ["inequality", "corollary1", "--f", "sigma", "--g", "phi",
     "--max-prime", "5000", "--max-n", "15000"]])
def test_power_inequalities_are_decided_in_bulk(capsys, power_comparisons, argv):
    """No point of these is a near-tie, so the scalar comparison never runs."""
    assert main(argv) == 0
    capsys.readouterr()
    assert power_comparisons == []


# --- rule values: exact ints in bulk, every other type value by value ---------


class _Int(int):
    """An int subclass: its values are converted one by one."""


def _value_by_value(rule, ps, exps, k, dtype):
    """What _rule_values gives, from one value at a time: None where it
    raises vector.Unproven (a rule that raises, a value neither an int nor
    a Fraction, and, as int64, an entry of 2^61 or more in absolute value),
    else (numerators, denominators or None)."""
    vals = []
    for p, a in zip(ps.tolist(), exps.tolist()):
        try:
            v = rule(p, k * a) if a else 1
        except Exception:
            return None
        if not isinstance(v, (int, Fraction)):
            return None
        vals.append(Fraction(v))
    nums, dens = [v.numerator for v in vals], [v.denominator for v in vals]
    if dtype is not object and max(map(abs, nums + dens)).bit_length() > vector.BITS - 1:
        return None
    return nums, None if set(dens) == {1} else dens


_RULE_CASES = {
    "ints": core.sigma_rule,
    "fractions": lambda p, a: Fraction(p ** (a + 1) - 1, (p - 1) * (a + 1)),
    # ints in the first chunk, a Fraction among ints in the later ones
    "mixed": lambda p, a: Fraction(1, p) if p > 5 and a == 3 else p**a,
    "fractions-of-denominator-1": lambda p, a: Fraction(p**a),
    "bools": lambda p, a: a % 2 == 0,
    "numpy-ints": lambda p, a: np.int64(p**a),
    "int-subclass": lambda p, a: _Int(p**a + 1),
    "floats": lambda p, a: float(p**a),
    "negative": lambda p, a: -(p**a),
    "past-int64": lambda p, a: 2**63 + p**a,
    "past-int64-once": lambda p, a: 2**63 if (p, a) == (7, 2) else p,
    "past-the-int64-bound": lambda p, a: 2**61 + a,
    "below-the-int64-bound": lambda p, a: 2**61 - a,
    "raises": lambda p, a: p // (p - 7),
}


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
@pytest.mark.parametrize("case", _RULE_CASES)
def test_rule_values_in_bulk_are_the_values_one_by_one(dtype, case):
    """Chunks of exact ints are converted at once, and every other chunk
    one value at a time; either way the numerators, denominators and
    refusals are those of the values taken one by one."""
    rule = _RULE_CASES[case]
    ps = np.repeat(np.array([2, 3, 5, 7, 11, 13], dtype=np.int64), 1500)
    exps = np.tile(np.arange(4, dtype=np.int64), len(ps) // 4)
    assert len(ps) > 2 * vector._CHUNK
    expected = _value_by_value(rule, ps, exps, 1, dtype)
    if expected is None:
        with pytest.raises(vector.Unproven):
            vector._rule_values(rule, ps, exps, 1, dtype)
        return
    num, den = vector._rule_values(rule, ps, exps, 1, dtype)
    assert num.dtype == dtype and num.tolist() == expected[0]
    if dtype is object:
        assert {type(v) for v in num.tolist()} == {int}
    if expected[1] is None:
        assert den is None
    else:
        assert den.dtype == dtype and den.tolist() == expected[1]
