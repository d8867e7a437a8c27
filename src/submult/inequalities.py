"""Named inequality verifiers, each sweeping a range with exact
arithmetic and reporting holds-on-range or the smallest counterexamples.

Ids are stable CLI vocabulary:

  eq12        (p+1)^(p-1) < p^p                      primes p, strict
  eq13        sigma(n)^phi(n) < n^n                  n >= 2, strict
  eq16        mean-divisor local inequality on p^a   non-strict
  eq20        (a+b+1)^k >= (ka+1)(kb+1)              non-strict
  eq23        phi(p^(a+b))^k <= p^ka phi(p^kb)       non-strict
  corollary1  seed f(p)^g(p) < p^p on primes plus the full-range
              conclusion f(n)^g(n) < n^n, as two reports

eq12, eq13 and corollary1 compare products of powers.  Each sweeps its
range as one row: vector.power_orders decides the points in bulk from
int64 value tables of the functions, and only the points it leaves
UNDECIDED reach the scalar cmp_power_products_detail.  A line without
tables, or with a base <= 0 or an exponent that is not an integer >= 0,
raises vector.Unproven and goes whole to the scalar path.

eq16, eq20 and eq23 are local criteria at prime powers, decided as
submult.local decides them: in blocks, on Python ints, from one table of
f(p^e) per prime; a block whose ints would exceed the memory budget goes
to the scalar path.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from submult import vector
from submult.checks import (
    FORMULAS,
    LT,
    CheckConfig,
    CheckReport,
    Property,
    formula,
    line,
    sweep_report,
    vector_formula,
)
from submult.core import (
    SpfTable,
    build_spf_table,
    cmp_power_products_detail,
    d_rule,
    factorize,  # noqa: F401 -- perfbench/tracer.py traces factorization here
    phi_rule,
    primes_upto,
    sigma_rule,
)
from submult.errors import DomainError, UnsupportedInputError, UsageError
from submult.functions import ArithFn, Evaluator, Registry, make_prime_power_fn
from submult.inference import K_SUB_HOM, K_SUP_MULT, SUB_HOM, SUB_MULT, SUP_MULT
from submult.local import (
    power_values,
    prime_power_lookup,
    prime_power_property,
    prime_power_table,
)

INEQUALITY_IDS = ("eq12", "eq13", "eq16", "eq20", "eq23", "corollary1")


def verify_eq12(max_prime: int) -> CheckReport:
    """(p+1)^(p-1) < p^p, strict, for every prime p <= max_prime."""
    if max_prime < 2:
        raise UsageError("max_prime must be >= 2")

    def compare(p):
        lhs = ((Fraction(p + 1), p - 1),)
        rhs = ((Fraction(p), p),)
        order, used_exact = cmp_power_products_detail(lhs, rhs)
        return order, lhs, rhs, used_exact

    def decide(ps):
        return vector.power_orders([(ps + 1, 1, ps - 1)], [(ps, 1, ps)])

    prop = line("p", primes_upto(max_prime), compare, LT, decide)
    return sweep_report("eq12", "(p+1)^(p-1) < p^p", {"max_prime": max_prime},
                        prop, CheckConfig())


def _below_self(name: str, points, fe: Evaluator, ge: Evaluator, limit: int) -> Property:
    """f(x)^g(x) < x^x at each x of points, all <= limit, as a line with
    points named name; f(x) must be positive and g(x) an integer >= 0.
    The bulk log2 filter on f's and g's value tables over [0, limit]
    decides the points first; it raises vector.Unproven, leaving them all
    to the scalar path, when a table is missing, a base is <= 0 or an
    exponent is not an integer >= 0, and the scalar path then raises any
    error in place."""
    f, g = vector.RowValues(fe, 1, limit), vector.RowValues(ge, 1, limit)

    def compare(x):
        fx = fe(x)
        if fx <= 0:
            raise DomainError(f"{fe.fn.name}({x}) = {fx} is not positive")
        gx = ge(x)
        if gx.denominator != 1 or gx < 0:
            raise UnsupportedInputError(
                f"{ge.fn.name}({x}) = {gx}; corollary1 needs a nonnegative "
                "integer-valued exponent function")
        lhs = ((fx, int(gx)),)
        rhs = ((Fraction(x), x),)
        order, used_exact = cmp_power_products_detail(lhs, rhs)
        return order, lhs, rhs, used_exact

    def decide(xs):
        x = vector.Arg(xs)
        (fx, fok), (gx, gok) = vector.positive(f(x)), vector.exponents(g(x))
        if not np.all(fok & gok):
            raise vector.Unproven
        exps = np.asarray(gx.num, dtype=np.float64)
        return vector.power_orders([(fx.num, fx.den, exps)], [(xs, 1, xs)])

    return line(name, points, compare, LT, decide)


def verify_eq13(max_n: int, *, table: SpfTable | None = None) -> CheckReport:
    """sigma(n)^phi(n) < n^n, strict, for all 2 <= n <= max_n.

    The log filter resolves almost every n; near-ties fall back to the
    exact big-integer comparison (whose cost the digit budget caps).
    """
    if max_n < 2:
        raise UsageError("max_n must be >= 2")
    if table is None:
        table = build_spf_table(max_n)
    sigma = Evaluator(make_prime_power_fn("sigma", sigma_rule), table)
    phi = Evaluator(make_prime_power_fn("phi", phi_rule), table)
    prop = _below_self("n", range(2, max_n + 1), sigma, phi, max_n)
    return sweep_report("eq13", "sigma(n)^phi(n) < n^n", {"max_n": max_n}, prop,
                        CheckConfig())


def _sigma_over_d_pp(p: int, e: int) -> Fraction:
    # sigma/d at p^e: the mean divisor of p^e
    return Fraction(sigma_rule(p, e), d_rule(p, e))


def verify_eq16(max_prime: int, max_exp: int) -> CheckReport:
    """Mean-divisor super-multiplicativity on prime powers, non-strict:

        sd(p^(a+b)) >= sd(p^a) * sd(p^b),  sd = sigma/d,  a, b >= 1,

    which is eq14 sup for sigma/d restricted to positive exponents.
    """
    if max_prime < 2 or max_exp < 1:
        raise UsageError("need max_prime >= 2 and max_exp >= 1")
    sd = make_prime_power_fn("sigma_over_d", _sigma_over_d_pp)
    prop = prime_power_property(sd, SUP_MULT, None, primes_upto(max_prime),
                                range(1, max_exp + 1))
    return sweep_report("eq16", "sd(p^(a+b)) >= sd(p^a) sd(p^b) with sd = sigma/d",
                        {"max_prime": max_prime, "max_exp": max_exp}, prop,
                        CheckConfig())


def verify_eq20(max_ab: int, max_k: int) -> CheckReport:
    """(a+b+1)^k >= (ka+1)(kb+1) for 0 <= a, b <= max_ab, 2 <= k <= max_k.

    Since d(2^e) = e + 1, this is eq18 sup for d at (m, n) = (2^a, 2^b).
    """
    if max_ab < 0 or max_k < 2:
        raise UsageError("need max_ab >= 0 and max_k >= 2")
    d = make_prime_power_fn("d", d_rule)
    ks = range(2, max_k + 1)
    values = prime_power_table(d, 2, range(max_k * max_ab + 1))
    lookup = prime_power_lookup(2, values)
    compares = {k: formula(K_SUP_MULT, k, lookup) for k in ks}
    block_values = power_values([values])
    decides = [vector_formula(K_SUP_MULT, k, block_values) for k in ks]
    two = np.array(2, dtype=object)
    bs = vector.PowerArg(np.arange(max_ab + 1)[None, :], two)

    def decide(rows):
        # one k at a time, at the block's cells (a, b), then in (b, k) order
        a = vector.PowerArg(np.array(rows)[:, None], two)
        orders = np.stack([decide_k(a, bs) for decide_k in decides], axis=-1)
        return orders.reshape(len(rows), -1)

    cols = [(b, k) for b in range(max_ab + 1) for k in ks]
    prop = Property(("a", "b", "k"), range(max_ab + 1), lambda a: cols,
                    lambda a: lambda b, k: compares[k](2**a, 2**b),
                    FORMULAS[K_SUP_MULT][1], vector=decide, width=len(cols))
    return sweep_report("eq20", "(a+b+1)^k >= (ka+1)(kb+1)",
                        {"max_ab": max_ab, "max_k": max_k}, prop, CheckConfig())


def verify_eq23(max_prime: int, max_exp: int, k: int) -> CheckReport:
    """phi(p^(a+b))^k <= p^ka * phi(p^kb) for 0 <= a, b <= max_exp: eq22
    sub for phi."""
    if max_prime < 2 or max_exp < 0 or k < 2:
        raise UsageError("need max_prime >= 2, max_exp >= 0, k >= 2")
    phi = make_prime_power_fn("phi", phi_rule)
    prop = prime_power_property(phi, K_SUB_HOM, k, primes_upto(max_prime),
                                range(max_exp + 1))
    return sweep_report("eq23", "phi(p^(a+b))^k <= p^ka phi(p^kb)",
                        {"max_prime": max_prime, "max_exp": max_exp, "k": k},
                        prop, CheckConfig())


def verify_corollary1(f: ArithFn, g: ArithFn, max_prime: int, max_n: int, *,
                      registry: Registry,
                      table: SpfTable | None = None) -> tuple[CheckReport, CheckReport]:
    """Seed-and-conclusion pair for the power-function scheme.

    Requires the hypotheses on record (f sub-multiplicative, g
    sub-homogeneous) and g integer-valued.  Report A checks the prime
    seed f(p)^g(p) < p^p for p <= max_prime; report B independently
    checks the conclusion f(n)^g(n) < n^n for 2 <= n <= max_n.
    """
    if not registry.has_tag(f.name, SUB_MULT):
        raise UsageError(f"corollary1 requires a sub-mult tag on {f.name}")
    if not registry.has_tag(g.name, SUB_HOM):
        raise UsageError(f"corollary1 requires a sub-hom tag on {g.name}")
    if max_prime < 2 or max_n < 2:
        raise UsageError("need max_prime >= 2 and max_n >= 2")
    limit = max(max_prime, max_n)
    if table is None:
        table = build_spf_table(limit)
    fe, ge = Evaluator(f, table), Evaluator(g, table)
    pair = f"{f.name}^{g.name}"
    report_a = sweep_report(
        "corollary1", f"{pair}: f(p)^g(p) < p^p on primes",
        {"max_prime": max_prime, "f": f.name, "g": g.name},
        _below_self("p", primes_upto(max_prime), fe, ge, limit),
        CheckConfig())
    report_b = sweep_report(
        "corollary1", f"{pair}: f(n)^g(n) < n^n",
        {"max_n": max_n, "f": f.name, "g": g.name},
        _below_self("n", range(2, max_n + 1), fe, ge, limit),
        CheckConfig())
    return report_a, report_b
