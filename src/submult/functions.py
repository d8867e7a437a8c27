"""Arithmetic function universe: builtins, prime-power-defined
multiplicative functions, and combinators over them.

Multiplicative functions are represented by their prime-power rule
(p, a) -> value with rule(p, 0) = 1; evaluation factorizes the argument
and multiplies rule values.  Combinators (product, quotient, sum,
reciprocal) evaluate recursively.  The power combinator h with
h(n)^n = f(n)^g(n) has no standalone rational value and is only usable
through cross-power comparisons (see checks.check_power_submult).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable

from submult.core import (
    Factorization,
    SpfTable,
    Value,
    d_rule,
    eval_rule,
    factorize,
    phi_rule,
    sigma_rule,
    trial_factorize,
)
from submult.errors import DomainError, InvariantViolation, UsageError
from submult.inference import (
    GE_IDENTITY,
    K_SUB_HOM,
    K_SUB_MULT,
    K_SUP_HOM,
    K_SUP_MULT,
    LE_IDENTITY,
    MULTIPLICATIVE,
    SUB_HOM,
    SUB_MULT,
    SUP_HOM,
    SUP_MULT,
    PropertyTag,
    close_tags,
)

BUILTIN = "builtin"
PRIME_POWER = "prime-power-defined"
PRODUCT = "product"
QUOTIENT = "quotient"
SUM = "sum"
RECIPROCAL = "reciprocal"
POWER = "power-combinator"

_ARITY = {QUOTIENT: (2, 2), RECIPROCAL: (1, 1), POWER: (2, 2),
          PRODUCT: (2, None), SUM: (2, None)}

# (p, a) -> value at p^a, an int or a Fraction
PrimePowerRule = Callable[[int, int], int | Value]


@dataclass(frozen=True, eq=False)
class ArithFn:
    """A named arithmetic function (identity is by name within a registry)."""

    name: str
    kind: str
    children: tuple["ArithFn", ...] = ()
    rule: PrimePowerRule | None = field(default=None, repr=False)
    positive: bool = True  # declared strictly positive on its domain

    @property
    def is_multiplicative(self) -> bool:
        """Structurally multiplicative: built from prime-power rules by
        product/quotient/reciprocal only (sums and power combinators are
        excluded even when they happen to be multiplicative)."""
        if self.kind in (BUILTIN, PRIME_POWER):
            return True
        if self.kind in (PRODUCT, QUOTIENT, RECIPROCAL):
            return all(c.is_multiplicative for c in self.children)
        return False


def evaluate_fact(f: ArithFn, fact: Factorization) -> Value:
    """Exact value of f at the integer given in factorized form."""
    if f.rule is not None:
        return eval_rule(f.rule, fact)
    if f.kind == PRODUCT:
        out = Fraction(1)
        for c in f.children:
            out *= evaluate_fact(c, fact)
        return out
    if f.kind == SUM:
        out = Fraction(0)
        for c in f.children:
            out += evaluate_fact(c, fact)
        return out
    if f.kind == QUOTIENT:
        num = evaluate_fact(f.children[0], fact)
        den = evaluate_fact(f.children[1], fact)
        if den == 0:
            raise DomainError(f"{f.name}: zero denominator at n = {fact.value()}")
        return num / den
    if f.kind == RECIPROCAL:
        base = evaluate_fact(f.children[0], fact)
        if base == 0:
            raise DomainError(f"{f.name}: reciprocal of zero at n = {fact.value()}")
        return 1 / base
    if f.kind == POWER:
        raise UsageError(
            f"{f.name}: a power combinator has no standalone value; "
            "use a cross-power comparison"
        )
    raise UsageError(f"{f.name}: unknown kind {f.kind!r}")


def evaluate(f: ArithFn, n: int, table: SpfTable | None = None, k: int = 1) -> Value:
    """Exact value of f at n^k, from n's factorization with every exponent
    times k; n is factored via the sieve when it covers n, by trial
    division otherwise."""
    if n <= 0:
        raise DomainError(f"arithmetic functions are defined for n >= 1, got {n}")
    if table is not None and n <= table.limit:
        fact = factorize(n, table)
    else:
        fact = trial_factorize(n)
    if k > 1:
        fact = Factorization(tuple((p, a * k) for p, a in fact.pairs))
    return evaluate_fact(f, fact)


class Evaluator:
    """Caching wrapper around evaluate() for sweeps: ev(n, k) is f at n^k.
    One evaluator per function serves every sweep of a command, so a value
    computed for one property is reused by the next.  The int64 value
    tables of submult.vector are kept on the spf table instead
    (SpfTable.tables), so evaluators of the same function on the same
    sieve share them.  Since f at n^k is evaluated from n's factorization,
    the sieve need only cover n."""

    def __init__(self, fn: ArithFn, table: SpfTable | None = None):
        self.fn = fn
        self.table = table
        self._cache: dict[int | tuple[int, int], Value] = {}

    def __call__(self, n: int, k: int = 1) -> Value:
        key = n if k == 1 else (n, k)
        v = self._cache.get(key)
        if v is None:
            v = self._cache[key] = evaluate(self.fn, n, self.table, k)
        return v


def make_prime_power_fn(name: str, rule: PrimePowerRule, *,
                        positive: bool = True) -> ArithFn:
    """Define a multiplicative function by its prime-power rule.

    The rule must satisfy rule(p, 0) = 1 (checked on a sample of primes
    at registration time), which makes the function 1 at n = 1.
    """
    for p in (2, 3, 5, 7, 11, 13):
        v = rule(p, 0)
        if v != 1:
            raise InvariantViolation(
                f"{name}: rule(p, 0) must be 1 for every prime, got {v} at p = {p}"
            )
    return ArithFn(name=name, kind=PRIME_POWER, rule=rule, positive=positive)


def combine(kind: str, parts: Iterable[ArithFn], *, name: str | None = None) -> ArithFn:
    """Build a combinator function; arity is checked per kind."""
    parts = tuple(parts)
    if kind not in _ARITY:
        raise UsageError(f"unknown combinator kind {kind!r}")
    lo, hi = _ARITY[kind]
    if len(parts) < lo or (hi is not None and len(parts) > hi):
        raise UsageError(f"{kind} takes {lo}{'' if hi == lo else '+'} parts, "
                         f"got {len(parts)}")
    if name is None:
        name = f"{kind}({','.join(p.name for p in parts)})"
    positive = all(p.positive for p in parts)
    return ArithFn(name=name, kind=kind, children=parts, positive=positive)


# ---------------------------------------------------------------------------
# Builtin registry
# ---------------------------------------------------------------------------


def _identity_rule(p: int, a: int) -> int:
    return p**a


def _one_rule(p: int, a: int) -> int:
    return 1


def _builtin(name: str, rule: PrimePowerRule) -> ArithFn:
    return ArithFn(name=name, kind=BUILTIN, rule=rule, positive=True)


class Registry:
    """Named functions plus their recorded property tags.

    The tag closure is computed lazily and cached until the next
    register().
    """

    def __init__(self):
        self._fns: dict[str, ArithFn] = {}
        self._asserted: list[PropertyTag] = []
        self._closure: dict[str, tuple[PropertyTag, ...]] | None = None

    def register(self, fn: ArithFn, tags: Iterable[PropertyTag] = ()) -> ArithFn:
        if fn.name in self._fns:
            raise UsageError(f"function {fn.name!r} already registered")
        self._fns[fn.name] = fn
        self._asserted.extend(tags)
        self._closure = None
        return fn

    def copy(self) -> Registry:
        """A registry with the same functions, tags and closure, whose
        register() changes it alone (ArithFn and PropertyTag are frozen,
        so the two share them)."""
        out = Registry()
        out._fns, out._asserted = dict(self._fns), list(self._asserted)
        out._closure = None if self._closure is None else dict(self._closure)
        return out

    def get(self, name: str) -> ArithFn:
        try:
            return self._fns[name]
        except KeyError:
            raise UsageError(
                f"unknown function {name!r}; available: {', '.join(sorted(self._fns))}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._fns)

    def functions(self) -> list[ArithFn]:
        return [self._fns[k] for k in sorted(self._fns)]

    def closed_tags(self) -> dict[str, tuple[PropertyTag, ...]]:
        """All tags per function after closing the asserted set under the
        combinator and implication rules."""
        if self._closure is None:
            self._closure = close_tags(self._fns.values(), self._asserted)
        return self._closure

    def tags_for(self, name: str) -> tuple[PropertyTag, ...]:
        self.get(name)
        return self.closed_tags().get(name, ())

    def has_tag(self, name: str, family: str, k: int | None = None) -> bool:
        """True if the closure contains the tag; a tag with k = None
        (valid for every k >= 2) covers any requested k."""
        for t in self.tags_for(name):
            if t.family != family:
                continue
            if t.k is None or k is None or t.k == k:
                return True
        return False


def _tags(name: str, provenance: str, *specs) -> list[PropertyTag]:
    out = []
    for s in specs:
        family, k = s if isinstance(s, tuple) else (s, None)
        out.append(PropertyTag(subject=name, family=family, k=k,
                               status="asserted", provenance=provenance))
    return out


def builtin_registry() -> Registry:
    """Fresh registry with the stock functions, their recorded tags and
    its tag closure: a copy of one built once per process (_builtins)."""
    return _builtins().copy()


@cache
def _builtins() -> Registry:
    """The stock functions and their recorded tags, with the tag closure
    computed, on first use; builtin_registry hands out copies.

    Note on the divisor functions: d and sigma are sub-multiplicative but
    k-SUPER-multiplicative for every k >= 2 (the k-th power of d(mn)
    dominates d(m^k)d(n^k)); sigma is recorded accordingly even though
    it is easy to mis-state the direction.
    """
    reg = Registry()
    phi = reg.register(
        _builtin("phi", phi_rule),
        _tags("phi", "totient: classical",
              MULTIPLICATIVE, SUP_MULT, SUB_HOM, LE_IDENTITY,
              (K_SUB_MULT, None), (K_SUB_HOM, 2)),
    )
    d = reg.register(
        _builtin("d", d_rule),
        _tags("d", "divisor count: classical",
              MULTIPLICATIVE, SUB_MULT, SUB_HOM, LE_IDENTITY,
              (K_SUP_MULT, None)),
    )
    sigma = reg.register(
        _builtin("sigma", sigma_rule),
        _tags("sigma", "divisor sum: classical",
              MULTIPLICATIVE, SUB_MULT, SUP_HOM, GE_IDENTITY,
              (K_SUP_MULT, None), (K_SUP_HOM, None)),
    )
    ident = reg.register(
        _builtin("identity", _identity_rule),
        _tags("identity", "identity: equality in every relation",
              MULTIPLICATIVE, SUB_MULT, SUP_MULT, SUB_HOM, SUP_HOM,
              LE_IDENTITY, GE_IDENTITY,
              (K_SUB_MULT, None), (K_SUP_MULT, None),
              (K_SUB_HOM, None), (K_SUP_HOM, None)),
    )
    one = reg.register(
        _builtin("constant-1", _one_rule),
        _tags("constant-1", "constant one: equalities, and 1 <= m bounds",
              MULTIPLICATIVE, SUB_MULT, SUP_MULT, SUB_HOM, LE_IDENTITY,
              (K_SUB_MULT, None), (K_SUP_MULT, None), (K_SUB_HOM, None)),
    )
    reg.register(
        combine(QUOTIENT, (sigma, phi), name="sigma_over_phi"),
        _tags("sigma_over_phi", "divisor sum over totient",
              MULTIPLICATIVE, SUB_MULT),
    )
    reg.register(
        combine(QUOTIENT, (sigma, d), name="sigma_over_d"),
        _tags("sigma_over_d", "mean divisor",
              MULTIPLICATIVE, SUP_MULT, SUB_HOM, LE_IDENTITY, (K_SUB_MULT, 2)),
    )
    reg.register(
        combine(QUOTIENT, (phi, d), name="phi_over_d"),
        _tags("phi_over_d", "totient over divisor count", SUP_MULT),
    )
    reg.register(
        combine(SUM, (ident, d), name="n_plus_d"),
        _tags("n_plus_d", "n plus divisor count", SUB_MULT),
    )
    reg.register(
        combine(PRODUCT, (ident, phi), name="n_times_phi"),
        _tags("n_times_phi", "n times totient", SUP_HOM, GE_IDENTITY),
    )
    reg.register(
        combine(QUOTIENT, (ident, phi), name="n_over_phi"),
        _tags("n_over_phi", "n over totient", SUB_MULT, SUB_HOM, LE_IDENTITY),
    )
    reg.closed_tags()
    return reg
