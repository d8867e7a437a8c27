"""Exact arithmetic layer: factorization, classical arithmetic functions
on prime-power form, and exact comparison of rationals and big powers.

Every verdict produced by this package reduces to integer comparisons in
this module.  Floating point is confined to the directed-rounding log2
filter inside the power comparison, which only ever short-circuits a
comparison whose outcome the exact fallback would confirm; whenever the
filter's intervals overlap, the exact big-integer path decides.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from submult import _spfsieve_py as _sieve
from submult.errors import DomainError, ResourceError, UnsupportedInputError, UsageError

# Exact rational value; the codomain of every registered function.
Value = Fraction

#: Cap on the estimated decimal digits of any intermediate integer in an
#: exact power comparison, scalar or bulk.  Exceeding it raises
#: ResourceError rather than returning a possibly-wrong answer.
DEFAULT_DIGIT_BUDGET = 10**6

LESS, EQUAL, GREATER = -1, 0, 1


def kernel_backend() -> str:
    """Which sieve kernel is active; always "python" (numpy slice assignment)."""
    return _sieve.BACKEND


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Canonical prime decomposition: ((p1, a1), ...) with p1 < p2 < ...

    The empty tuple represents n = 1.
    """

    pairs: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = 1
        for p, a in self.pairs:
            n *= p**a
        return n

    def validate(self) -> None:
        """Raise InvariantViolation unless primes are prime, strictly
        increasing, and exponents >= 1."""
        from submult.errors import InvariantViolation

        last = 1
        for p, a in self.pairs:
            if p <= last:
                raise InvariantViolation(f"primes not strictly increasing at {p}")
            if a < 1:
                raise InvariantViolation(f"exponent {a} < 1 for prime {p}")
            if not is_prime(p):
                raise InvariantViolation(f"{p} is not prime")
            last = p


def prime_power(p: int, a: int) -> Factorization:
    """Factorization of p**a (a >= 0; a = 0 gives the unit)."""
    if a == 0:
        return Factorization(())
    return Factorization(((p, a),))


@dataclass(frozen=True, eq=False)
class SpfTable:
    """Smallest-prime-factor table for [2, limit]; immutable once built."""

    limit: int
    spf: "object" = field(repr=False)  # int32 (int64 from 2**31) array, len limit + 1
    # int64 value tables built on this sieve by submult.vector, each a
    # (numerators, denominators or None) pair or None where it cannot be
    # built, by (function, limit, k, bound on the primes whose rules it
    # holds): every Evaluator that shares the sieve shares them
    tables: dict = field(default_factory=dict, repr=False)


def memory_budget() -> int:
    """Bytes a sieve, or a value table with the sieve and the tables kept
    on it, may take: half of the machine's physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def require_memory(need: int, what: str) -> None:
    """Refuse, before allocating, what when its estimated need in bytes
    exceeds memory_budget()."""
    budget = memory_budget()
    if need > budget:
        raise ResourceError(
            f"{what} needs about {need / 2**30:.1f} GiB, more than the "
            f"{budget / 2**30:.1f} GiB budget, half of physical memory")


def build_spf_table(limit: int) -> SpfTable:
    if limit < 2:
        raise UsageError(f"sieve limit must be >= 2, got {limit}")
    require_memory(_sieve.sieve_bytes(limit), f"a sieve up to {limit}")
    spf = _sieve.spf_sieve(limit)
    spf.setflags(write=False)
    return SpfTable(limit=limit, spf=spf)


def factorize(n: int, table: SpfTable) -> Factorization:
    """Factor n by repeated division by its smallest prime factor."""
    if n <= 0:
        raise DomainError(f"cannot factor n = {n}; need n >= 1")
    if n > table.limit:
        raise UsageError(f"n = {n} exceeds sieve limit {table.limit}")
    spf = table.spf
    pairs = []
    while n > 1:
        p = int(spf[n])
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        pairs.append((p, a))
    return Factorization(tuple(pairs))


#: trial_factorize divides by candidates up to this bound only.
TRIAL_BOUND = 10**6


def trial_factorize(n: int) -> Factorization:
    """Factor n by trial division; the fallback above any sieve limit.

    Intended for the occasional out-of-range evaluation, never reached
    by sweeps: they presize their sieve to every argument they factor,
    refuse to start otherwise, and take a k-th power above the sieve from
    its base's factorization (functions.Evaluator).
    Divides by candidates up to TRIAL_BOUND only.  A cofactor with no
    prime factor up to the bound is prime when it is below TRIAL_BOUND**2
    or when is_prime certifies it; otherwise ResourceError is raised.
    """
    if n <= 0:
        raise DomainError(f"cannot factor n = {n}; need n >= 1")
    pairs = []
    for p in (2, 3):
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            pairs.append((p, a))
    p = 5
    while p * p <= n and p <= TRIAL_BOUND:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            pairs.append((p, a))
        p += 2 if p % 6 == 5 else 4  # 5, 7, 11, 13, ... (skip multiples of 2, 3)
    # stopped at the bound: n has no prime factor below p, and p * p <= n
    if p * p <= n and (n >= _MR_EXACT_BELOW or not is_prime(n)):
        raise ResourceError(
            f"cannot factor: the cofactor {n} has no prime factor up to "
            f"{TRIAL_BOUND} and is not a prime is_prime can certify")
    if n > 1:
        pairs.append((n, 1))
    return Factorization(tuple(pairs))


# Miller-Rabin bases 2..41: the smallest strong pseudoprime to all of them
# is psi_13 (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # psi_13


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2..41, exact for every
    n < psi_13 = 3317044064679887385961981 (about 3.3 * 10^24).

    Raises UnsupportedInputError for larger n, where these bases no
    longer decide primality."""
    if n >= _MR_EXACT_BELOW:
        raise UnsupportedInputError(
            f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    require_memory(_sieve.sieve_bytes(limit), f"a sieve up to {limit}")
    return sieve_primes(_sieve.spf_sieve(limit), limit)


def sieve_primes(spf: np.ndarray, limit: int) -> list[int]:
    """The primes <= limit that the spf array (SpfTable.spf) reaches,
    ascending: the n >= 2 that are their own smallest prime factor."""
    head = spf[2:limit + 1]
    return (np.flatnonzero(head == np.arange(2, len(head) + 2, dtype=spf.dtype)) + 2).tolist()


# ---------------------------------------------------------------------------
# Classical arithmetic functions on prime-power form
# ---------------------------------------------------------------------------


def phi_rule(p: int, a: int) -> int:
    """Euler totient at p^a: p^(a-1) (p - 1), and 1 at a = 0."""
    return 1 if a == 0 else p ** (a - 1) * (p - 1)


def d_rule(p: int, a: int) -> int:
    """Number of divisors of p^a."""
    return a + 1


def sigma_rule(p: int, a: int) -> int:
    """Sum of divisors of p^a: (p^(a+1) - 1) / (p - 1), an exact integer."""
    return (p ** (a + 1) - 1) // (p - 1)


def eval_rule(rule, f: Factorization) -> Value:
    """Multiplicative function given by its prime-power rule, at f.

    The product stays a plain int while the rule returns ints, so
    integer-valued functions pay for one Fraction, not one per factor."""
    out = 1
    for p, a in f.pairs:
        out *= rule(p, a)
    return Fraction(out)


def eval_phi(f: Factorization) -> Value:
    """Euler totient at f."""
    return eval_rule(phi_rule, f)


def eval_d(f: Factorization) -> Value:
    """Number of divisors at f."""
    return eval_rule(d_rule, f)


def eval_sigma(f: Factorization) -> Value:
    """Sum of divisors at f."""
    return eval_rule(sigma_rule, f)


# ---------------------------------------------------------------------------
# Exact comparison
# ---------------------------------------------------------------------------


def cmp_values(x: Value, y: Value) -> int:
    """-1, 0 or 1 as x < y, x == y, x > y. Exact (cross-multiplication)."""
    if x < y:
        return LESS
    if x > y:
        return GREATER
    return EQUAL


# Absolute padding added to every log2 bound.  Doubles give log2 of a
# 64-bit integer to ~1e-15 relative error; 1e-9 absolute plus 1e-12
# relative is orders of magnitude more slack than any accumulated error.
_PAD_ABS = 1e-9
_PAD_REL = 1e-12


def _log2_bounds_int(x: int) -> tuple[float, float]:
    """Rigorous (padded) lower/upper bounds on log2(x) for x >= 1."""
    t = x.bit_length()
    if t <= 64:
        # float conversion error is ~2^-53 relative, far below the pad
        mid = math.log2(x)
        pad = _PAD_ABS + abs(mid) * _PAD_REL
        return mid - pad, mid + pad
    shift = t - 64
    top = x >> shift
    lo = math.log2(top) + shift  # top << shift  <=  x
    hi = math.log2(top + 1) + shift  # x  <  (top+1) << shift
    pad = _PAD_ABS + abs(hi) * _PAD_REL
    return lo - pad, hi + pad


def _log2_bounds(x: Fraction) -> tuple[float, float]:
    nlo, nhi = _log2_bounds_int(x.numerator)
    dlo, dhi = _log2_bounds_int(x.denominator)
    return nlo - dhi, nhi - dlo


def _normalize_side(side) -> list[tuple[Fraction, int]]:
    """Merge same-base factors, drop trivial ones; validate domain."""
    merged: dict[Fraction, int] = {}
    for base, exp in side:
        base = Fraction(base)
        if base <= 0:
            raise DomainError(f"power base must be positive, got {base}")
        if exp < 0:
            raise UsageError(f"power exponent must be >= 0, got {exp}")
        if exp == 0 or base == 1:
            continue
        merged[base] = merged.get(base, 0) + exp
    return sorted((b, e) for b, e in merged.items() if e != 0)


DIGITS_PER_BIT = 0.30103  # log10(2), as the digit budget counts it


def _estimated_digits(factors: list[tuple[Fraction, int]]) -> float:
    num_bits = 0
    den_bits = 0
    for base, exp in factors:
        num_bits += exp * base.numerator.bit_length()
        den_bits += exp * base.denominator.bit_length()
    return max(num_bits, den_bits) * DIGITS_PER_BIT


def cmp_power_products(lhs, rhs, *, use_filter: bool = True) -> int:
    """Exact ordering of two products of powers of positive rationals.

    Each side is an iterable of (base, exponent) with base > 0 rational
    and integer exponent >= 0.  A log2 interval filter decides well
    separated sides unless use_filter is False; otherwise the exact
    big-integer comparison runs, guarded by DEFAULT_DIGIT_BUDGET.
    """
    order, _ = cmp_power_products_detail(lhs, rhs, use_filter=use_filter)
    return order


def cmp_power_products_detail(lhs, rhs, *, use_filter: bool = True) -> tuple[int, bool]:
    """As cmp_power_products, also reporting whether the exact fallback ran."""
    left = _normalize_side(lhs)
    right = _normalize_side(rhs)
    if left == right:
        return EQUAL, False

    if use_filter:
        llo = lhi = rlo = rhi = 0.0
        for base, exp in left:
            blo, bhi = _log2_bounds(base)
            llo += exp * blo
            lhi += exp * bhi
        for base, exp in right:
            blo, bhi = _log2_bounds(base)
            rlo += exp * blo
            rhi += exp * bhi
        if lhi < rlo:
            return LESS, False
        if rhi < llo:
            return GREATER, False

    est = _estimated_digits(left) + _estimated_digits(right)
    if est > DEFAULT_DIGIT_BUDGET:
        raise ResourceError(
            f"exact power comparison needs ~{est:.0f} decimal digits, "
            f"budget is {DEFAULT_DIGIT_BUDGET}"
        )
    # x -> x**G is strictly increasing for x > 0, so dividing every
    # exponent by their gcd G keeps the order; ties of exponent-scaled
    # sides (such as f(mn)**(mn) vs f(m)**(mn) * f(n)**(mn)) shrink to
    # small comparisons.  The budget above is for the unreduced sides.
    g = math.gcd(*(exp for _, exp in left), *(exp for _, exp in right))
    # a/b vs c/d  <=>  a*d vs c*b, with each side's numerator and
    # denominator accumulated across factors.
    lnum = lden = rnum = rden = 1
    for base, exp in left:
        lnum *= base.numerator ** (exp // g)
        lden *= base.denominator ** (exp // g)
    for base, exp in right:
        rnum *= base.numerator ** (exp // g)
        rden *= base.denominator ** (exp // g)
    a = lnum * rden
    b = rnum * lden
    if a < b:
        return LESS, True
    if a > b:
        return GREATER, True
    return EQUAL, True


def cmp_powers(a: Value, e1: int, b: Value, e2: int, *,
               use_filter: bool = True) -> int:
    """Exact ordering of a**e1 vs b**e2 for positive rational a, b.

    The log2 filter is a pure accelerator: it only answers when its
    directed-rounding intervals are disjoint, so a filtered verdict and
    the exact verdict always agree.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a <= 0 or b <= 0:
        raise DomainError(f"cmp_powers requires positive bases, got {a}, {b}")
    return cmp_power_products([(a, e1)], [(b, e2)], use_filter=use_filter)
