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

eq12, eq13 and corollary1 are the power shape checks.below_self, f(x)^g(x)
against x^x, run by checks.power_compare and checks.power_decide as the
cross-power checks are.  Each sweeps its range as a line (checks.line), a
run of at most checks._CELLS points at a time, decided in bulk from int64
value tables of the functions; only the near-ties left UNDECIDED reach the
scalar cmp_power_products_detail.  A run without tables, or with a base
<= 0 or an exponent that is not an integer >= 0, goes whole to the scalar
path, which raises the error in place.  eq13 and corollary1 refuse a given
spf table that does not reach every n they evaluate, before any work.
Their sieve limits (eq13_sieve_limit, corollary1_sieve_limit) check the
inputs first, so a caller refuses bad input before it builds a sieve.

eq16, eq20 and eq23 are local criteria at prime powers, decided as
submult.local decides them: in blocks, on Python ints, from one table of
f(p^e) over the block's primes (vector.PowerValues); a block whose
ints would exceed the memory budget goes whole to the scalar path, which
evaluates its own values.  eq20's points (a, b, k) are the product of
three axes, with k the last: one call of the formula shape decides a
block of rows a at every (b, k), reading k as a row as it reads b, and
its table holds the exponents local.exponents_read finds for every k.
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
    below_self,
    formula,
    line,
    power_compare,
    power_decide,
    sweep_report,
    vector_formula,
)
from submult.core import (
    SpfTable,
    build_spf_table,
    cmp_power_products_detail,  # noqa: F401 -- perfbench/tracer.py traces it here
    d_rule,
    factorize,  # noqa: F401 -- perfbench/tracer.py traces factorization here
    phi_rule,
    primes_upto,
    sieve_primes,
    sigma_rule,
)
from submult.errors import UsageError
from submult.functions import ArithFn, Evaluator, Registry, make_prime_power_fn
from submult.inference import K_SUB_HOM, K_SUP_MULT, SUB_HOM, SUB_MULT, SUP_MULT
from submult.local import (
    exponents_read,
    prime_power_lookup,
    prime_power_property,
    prime_power_table,
)

INEQUALITY_IDS = ("eq12", "eq13", "eq16", "eq20", "eq23", "corollary1")

# shared by every call, as the tables kept on an spf table are by function
_SIGMA = make_prime_power_fn("sigma", sigma_rule)
_PHI = make_prime_power_fn("phi", phi_rule)


def verify_eq12(max_prime: int) -> CheckReport:
    """(p+1)^(p-1) < p^p, strict, for every prime p <= max_prime:
    below_self with f(p) = p + 1 and g(p) = p - 1, on ints and Args alike."""
    if max_prime < 2:
        raise UsageError("max_prime must be >= 2")
    f, g = (lambda p: p + 1), (lambda p: p - 1)
    prop = line("p", primes_upto(max_prime), power_compare(below_self, f, g), LT,
                power_decide(below_self, f, g))
    return sweep_report("eq12", "(p+1)^(p-1) < p^p", {"max_prime": max_prime},
                        prop, CheckConfig())


def _below_self(name: str, points, fe: Evaluator, ge: Evaluator, limit: int) -> Property:
    """f(x)^g(x) < x^x (below_self) at each x of points, all <= limit, as a
    line with points named name and sieve limit limit, decided in runs on
    f's and g's value tables over [0, limit]."""
    rows = (vector.RowValues(ev, 1, limit) for ev in (fe, ge))
    return line(name, points, power_compare(below_self, fe, ge), LT,
                power_decide(below_self, *rows), limit)


def eq13_sieve_limit(max_n: int) -> int:
    """The sieve limit eq13 needs, max_n, once max_n is checked, so that a
    caller can refuse bad input before it builds the sieve."""
    if max_n < 2:
        raise UsageError("max_n must be >= 2")
    return max_n


def verify_eq13(max_n: int, *, table: SpfTable | None = None) -> CheckReport:
    """sigma(n)^phi(n) < n^n, strict, for all 2 <= n <= max_n.

    The log filter resolves almost every n; near-ties fall back to the
    exact big-integer comparison (whose cost the digit budget caps).
    Refuses to start when table does not reach max_n.
    """
    limit = eq13_sieve_limit(max_n)
    if table is None:
        table = build_spf_table(limit)
    prop = _below_self("n", range(2, max_n + 1), Evaluator(_SIGMA, table),
                       Evaluator(_PHI, table), max_n)
    return sweep_report("eq13", "sigma(n)^phi(n) < n^n", {"max_n": max_n}, prop,
                        CheckConfig(), table)


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
    exps, ks = range(max_ab + 1), range(2, max_k + 1)
    read = sorted(set().union(*(exponents_read(K_SUP_MULT, k, exps) for k in ks)))
    lookup = prime_power_lookup(2, prime_power_table(d, 2, read))
    values = vector.PowerValues(d, [2], read)
    two = np.array(2, dtype=object)

    def decide(a, b, k):
        # every k of the block at once: k is a row, as b is
        return vector_formula(K_SUP_MULT, k, values)(vector.PowerArg(a, two),
                                                     vector.PowerArg(b, two))

    prop = Property(("a", "b", "k"), (exps, exps, ks),
                    lambda a, b, k: formula(K_SUP_MULT, k, lookup)(2**a, 2**b),
                    FORMULAS[K_SUP_MULT][1], vector=decide)
    return sweep_report("eq20", "(a+b+1)^k >= (ka+1)(kb+1)",
                        {"max_ab": max_ab, "max_k": max_k}, prop, CheckConfig())


def verify_eq23(max_prime: int, max_exp: int, k: int) -> CheckReport:
    """phi(p^(a+b))^k <= p^ka * phi(p^kb) for 0 <= a, b <= max_exp: eq22
    sub for phi."""
    if max_prime < 2 or max_exp < 0 or k < 2:
        raise UsageError("need max_prime >= 2, max_exp >= 0, k >= 2")
    prop = prime_power_property(_PHI, K_SUB_HOM, k, primes_upto(max_prime),
                                range(max_exp + 1))
    return sweep_report("eq23", "phi(p^(a+b))^k <= p^ka phi(p^kb)",
                        {"max_prime": max_prime, "max_exp": max_exp, "k": k},
                        prop, CheckConfig())


def corollary1_sieve_limit(f: ArithFn, g: ArithFn, max_prime: int, max_n: int, *,
                          registry: Registry) -> int:
    """The sieve limit corollary1 needs, max(max_prime, max_n), once its
    hypotheses are on record in registry and its ranges are checked, so
    that a caller can refuse bad input before it builds the sieve."""
    if not registry.has_tag(f.name, SUB_MULT):
        raise UsageError(f"corollary1 requires a sub-mult tag on {f.name}")
    if not registry.has_tag(g.name, SUB_HOM):
        raise UsageError(f"corollary1 requires a sub-hom tag on {g.name}")
    if max_prime < 2 or max_n < 2:
        raise UsageError("need max_prime >= 2 and max_n >= 2")
    return max(max_prime, max_n)


def verify_corollary1(f: ArithFn, g: ArithFn, max_prime: int, max_n: int, *,
                      registry: Registry,
                      table: SpfTable | None = None) -> tuple[CheckReport, CheckReport]:
    """Seed-and-conclusion pair for the power-function scheme.

    Requires the hypotheses on record (f sub-multiplicative, g
    sub-homogeneous) and g integer-valued.  Report A checks the prime
    seed f(p)^g(p) < p^p for p <= max_prime; report B independently
    checks the conclusion f(n)^g(n) < n^n for 2 <= n <= max_n.  Each
    refuses to start when table does not reach max(max_prime, max_n).
    """
    limit = corollary1_sieve_limit(f, g, max_prime, max_n, registry=registry)
    if table is None:
        table = build_spf_table(limit)
    fe, ge = Evaluator(f, table), Evaluator(g, table)
    pair = f"{f.name}^{g.name}"
    report_a = sweep_report(
        "corollary1", f"{pair}: f(p)^g(p) < p^p on primes",
        {"max_prime": max_prime, "f": f.name, "g": g.name},
        _below_self("p", sieve_primes(table.spf, max_prime), fe, ge, limit),
        CheckConfig(), table)
    report_b = sweep_report(
        "corollary1", f"{pair}: f(n)^g(n) < n^n",
        {"max_n": max_n, "f": f.name, "g": g.name},
        _below_self("n", range(2, max_n + 1), fe, ge, limit),
        CheckConfig(), table)
    return report_a, report_b
