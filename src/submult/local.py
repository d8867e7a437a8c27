"""Prime-power local criteria for multiplicative functions, and the
bridge tests tying local verdicts to global sweep verdicts.

For a multiplicative f with f(1) = 1 and every f(p^e) >= 0, each global
property has a local sufficient condition on prime powers:

  eq14   f(p^(a+b)) <=/>= f(p^a) f(p^b)      -> sub/sup-multiplicative
  eq18   f(p^(a+b))^k <=/>= f(p^ka) f(p^kb)  -> k-sub/sup-multiplicative
  eq21   f(p^(a+b)) <=/>= p^a f(p^b)         -> sub/sup-homogeneous
  eq22   f(p^(a+b))^k <=/>= p^ka f(p^kb)     -> k-sub/sup-homogeneous

Each criterion is its global property's formula at (m, n) = (p^a, p^b),
so it is swept from the same formula table as the global check.  For
eq14 the converse holds for every f (take m = p^a, n = p^b); for the
others only the local-to-global direction is established, and the
bridge checks only that direction.

A criterion's points (p, a, b) are the product of three axes: the
primes and the exponents twice.  A sweep decides a block of primes at
once by the formula shape on Python ints (vector.PowerArg), from one
table of f(p^e) at the block's primes and the exponents e it reads,
built from f's rules (vector.PowerValues): m n is a + b, f at m^k is
entry k a, and an exponent not read raises.  The scalar path evaluates
f's values at a prime on its own, with Fractions, when it first compares
a point of it, and keeps them for that prime's next points only, since
points are visited in order; it stays the oracle and recomputes the
counterexamples' sides.  eq16, eq20 and eq23 (submult.inequalities) are
swept the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from submult import vector
from submult.checks import (
    FORMULAS,
    HOLDS,
    CheckConfig,
    CheckReport,
    Counterexample,
    Property,
    formula,
    sweep_report,
    vector_formula,
)
from submult.core import Value, prime_power, primes_upto, trial_factorize
from submult.errors import InconsistencyError, UsageError
from submult.functions import ArithFn, evaluate_fact
from submult.inference import (
    K_SUB_HOM,
    K_SUB_MULT,
    K_SUP_HOM,
    K_SUP_MULT,
    SUB_HOM,
    SUB_MULT,
    SUP_HOM,
    SUP_MULT,
    PropertySpec,
)

EQ14, EQ18, EQ21, EQ22 = "eq14", "eq18", "eq21", "eq22"
CRITERIA = (EQ14, EQ18, EQ21, EQ22)
_K_CRITERIA = (EQ18, EQ22)

# criterion + direction -> the global property family it certifies
_GLOBAL_FAMILY = {
    (EQ14, "sub"): SUB_MULT, (EQ14, "sup"): SUP_MULT,
    (EQ18, "sub"): K_SUB_MULT, (EQ18, "sup"): K_SUP_MULT,
    (EQ21, "sub"): SUB_HOM, (EQ21, "sup"): SUP_HOM,
    (EQ22, "sub"): K_SUB_HOM, (EQ22, "sup"): K_SUP_HOM,
}


@dataclass(frozen=True)
class LocalCriterion:
    criterion: str
    direction: str  # "sub" | "sup"
    k: int | None = None

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise UsageError(f"unknown local criterion {self.criterion!r}")
        if self.direction not in ("sub", "sup"):
            raise UsageError(f"direction must be 'sub' or 'sup', got {self.direction!r}")
        if self.criterion in _K_CRITERIA:
            if self.k is None or self.k < 2:
                raise UsageError(f"{self.criterion} needs an integer k >= 2")
        elif self.k is not None:
            raise UsageError(f"{self.criterion} does not take k")

    def label(self) -> str:
        base = f"{self.criterion}:{self.direction}"
        return base if self.k is None else f"{base}(k={self.k})"

    def global_family(self) -> str:
        return _GLOBAL_FAMILY[(self.criterion, self.direction)]


@dataclass
class LocalReport:
    function: str
    criterion: LocalCriterion
    max_prime: int
    max_exp: int
    verdict: str
    counterexamples: list[Counterexample]  # points (p, a, b)
    triples_checked: int
    elapsed_seconds: float

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def _require_multiplicative(f: ArithFn) -> None:
    if not f.is_multiplicative:
        raise UsageError(
            f"{f.name} is not registered as multiplicative; local prime-power "
            "criteria apply to multiplicative functions only"
        )


def exponents_read(family: str, k: int | None, exps: range) -> list[int]:
    """The exponents e, ascending, of the powers p^e at which the family's
    formula over (m, n) = (p^a, p^b), a, b in exps, takes or reads f (f(x, k)
    reads f(x^k)): run on a recording f, as checks.sieve_limit is, at p = 0,
    so that the multiplier p^(k a) of the hom shapes stays small."""
    read = set()

    def record(x, k=1):
        read.update(x.x.ravel().tolist(), (k * x.x).ravel().tolist())
        return vector.Row(1, 1, 0, 0)

    es = np.array(exps)[:, None]
    FORMULAS[family][0](record, k, vector.PowerArg(es, 0), vector.PowerArg(es.T, 0))
    return sorted(read)


def prime_power_table(f: ArithFn, p: int, exps: Iterable[int]) -> dict[int, Value]:
    """f(p^e) exactly, by evaluate_fact, at each e in exps, keyed by e: the
    scalar path's values, so that reading an exponent not in exps raises
    KeyError."""
    return {e: evaluate_fact(f, prime_power(p, e)) for e in exps}


def prime_power_lookup(p: int, values: dict[int, Value]) -> Callable[..., Value]:
    """f as the formula shapes call it, f(x, k=1) at x^k, on the powers
    x = p^e whose values[e] = f(p^e) is held (see checks.formula)."""
    exponent = {p**e: e for e in values}
    return lambda x, k=1: values[k * exponent[x]]


def prime_power_property(f: ArithFn, family: str, k: int | None, primes,
                         exps: range) -> Property:
    """The family's formula at (m, n) = (p^a, p^b) for p in primes and
    a, b in exps, with points named (p, a, b).

    A block of primes is decided at once (Property.vector) by the formula
    shape on exact Python ints, from f's table at its primes and the
    exponents_read (vector.PowerValues); vector.Unproven, for the scalar
    path, when that table cannot be built (a rule raises or a divisor is
    zero, where the scalar path raises) or the block's Python ints would
    exceed the memory budget.  The scalar path evaluates f's values at a
    prime when it first compares a point of it, and keeps them for the
    prime's next points only, since points are visited in order."""
    read = exponents_read(family, k, exps)

    @lru_cache(maxsize=1)
    def formula_at(p):
        return formula(family, k, prime_power_lookup(p, prime_power_table(f, p, read)))

    def decide(ps, a, b):
        ps = ps.astype(object)  # Python ints, so that p^e cannot wrap
        return vector_formula(family, k, vector.PowerValues(f, ps[:, 0], read))(
            vector.PowerArg(a, ps), vector.PowerArg(b, ps))

    return Property(("p", "a", "b"), (primes, exps, exps),
                    lambda p, a, b: formula_at(p)(p**a, p**b), FORMULAS[family][1],
                    vector=decide)


def check_local(f: ArithFn, crit: LocalCriterion, max_prime: int,
                max_exp: int) -> LocalReport:
    """The criterion on all primes <= max_prime and exponents
    0 <= a, b <= max_exp."""
    _require_multiplicative(f)
    if max_prime < 2 or max_exp < 0:
        raise UsageError("need max_prime >= 2 and max_exp >= 0")
    prop = prime_power_property(f, crit.global_family(), crit.k,
                                primes_upto(max_prime), range(max_exp + 1))
    r = sweep_report(f.name, crit.label(), {}, prop, CheckConfig())
    return LocalReport(function=f.name, criterion=crit, max_prime=max_prime,
                       max_exp=max_exp, verdict=r.verdict, counterexamples=r.counterexamples,
                       triples_checked=r.pairs_checked, elapsed_seconds=r.elapsed_seconds)


# ---------------------------------------------------------------------------
# Bridge consistency
# ---------------------------------------------------------------------------


@dataclass
class BridgeReport:
    function: str
    criterion: str  # LocalCriterion label
    property: str  # global property label
    consistent: bool
    notes: list[str]


def _covered(m: int, n: int, max_prime: int, max_exp: int) -> bool:
    """True when every prime power in m and n lies inside the local grid,
    so the local criterion fully determines the pair."""
    for x in (m, n):
        for p, a in trial_factorize(x).pairs:
            if p > max_prime or a > max_exp:
                return False
    return True


def _nonnegative(f: ArithFn, crit: LocalCriterion, local: LocalReport) -> bool:
    """Whether every f(p^e) the local sweep read is >= 0, exactly, a block
    of primes at a time; False where a block's values cannot be built."""
    read = exponents_read(crit.global_family(), crit.k, range(local.max_exp + 1))
    primes, per = primes_upto(local.max_prime), max(1, vector._CHUNK // len(read))
    try:
        return all((vector.PowerValues(f, primes[lo:lo + per], read).num >= 0).all()
                   for lo in range(0, len(primes), per))
    except vector.Unproven:
        return False


def bridge_consistency(f: ArithFn, crit: LocalCriterion, local: LocalReport,
                       global_report: CheckReport) -> BridgeReport:
    """Assert that no reported counterexample contradicts the
    local-to-global implication (and its converse, for eq14).

    Local holds + a reported global counterexample whose prime support
    lies inside the local grid is impossible unless the implementation
    is wrong, when every f(p^e) the local sweep read is >= 0, as the
    product of one local inequality per prime needs (no obligation
    otherwise); likewise (eq14 only) global holds + a local
    counterexample at (p, a, b) with p^a <= max_m and p^b <= max_n.
    Raises InconsistencyError on violation.  Only the counterexamples the
    reports list are checked, at most the counterexample cap of each: one
    beyond the cap goes unseen.
    """
    if local.function != f.name or global_report.function != f.name:
        raise UsageError("bridge: reports belong to a different function")
    if local.criterion != crit:
        raise UsageError("bridge: local report does not match the criterion")
    prop = global_report.property
    expected_label = PropertySpec(crit.global_family(), crit.k).label()
    if prop != expected_label:
        raise UsageError(
            f"bridge: criterion {crit.label()} certifies {expected_label}, "
            f"but the global report checked {prop}"
        )

    notes = []
    if local.verdict != HOLDS:
        notes.append("local refuted; no forward obligation")
    elif not _nonnegative(f, crit, local):
        notes.append("local holds, but f(p^e) >= 0 is not established on the "
                     "local grid; no forward obligation")
    else:
        for cex in global_report.counterexamples:
            m, n = cex["m"], cex["n"]
            if _covered(m, n, local.max_prime, local.max_exp):
                raise InconsistencyError(
                    f"{f.name}: local criterion {crit.label()} holds on "
                    f"p <= {local.max_prime}, exponents <= {local.max_exp}, "
                    f"but the global sweep found a covered counterexample at "
                    f"(m={m}, n={n}); this is an implementation bug"
                )
        notes.append("local holds; no covered global counterexample")

    if crit.criterion == EQ14:
        max_m = global_report.params.get("max_m", 0)
        max_n = global_report.params.get("max_n", 0)
        if global_report.verdict == HOLDS:
            for cex in local.counterexamples:
                p, a, b = cex["p"], cex["a"], cex["b"]
                if p**a <= max_m and p**b <= max_n:
                    raise InconsistencyError(
                        f"{f.name}: global {prop} holds on the grid but the "
                        f"local criterion fails at (p={p}, a={a}, b={b}) with "
                        f"(p^a, p^b) inside the grid; this is an implementation bug"
                    )
            notes.append("converse: no local counterexample inside the global grid")
        else:
            notes.append("converse: global refuted; no obligation")

    return BridgeReport(function=f.name, criterion=crit.label(), property=prop,
                        consistent=True, notes=notes)
