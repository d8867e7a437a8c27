"""Vector decisions for the sweeps: exact rows for the property
families, and a padded log2 filter for products of powers.

A grid check compares the two sides of one formula shape
(checks.FORMULAS) at every point (m, n).  On this path the shape runs
once per block of consecutive rows, on all of its cells at once: m is an
Arg over a column of the block's rows and n one over the row of its
columns, so f at m n, m^k and n^k is a 2-D lookup in f's tables; f's values
are Rows, numerators and denominators over the block's cells, and each
cell is decided by the sign of lnum * rden - rnum * lden.

Exactness rests on bit-length bounds.  A Row carries bounds
|num| < 2**nbits and den < 2**dbits in each row: f's values take them
from the largest value the row looks up, and products add them.  Each
product, the cross products of orders() among them, is formed in int64
where the bounds prove it below 2**62, and on numpy object arrays of
Python ints elsewhere (_exact), so orders() decides every cell.  Those
ints are sized from the same bounds before they are made: a block whose
ints would exceed the memory budget raises Unproven, as a block without
tables does, and the sweep leaves each of its rows wholly to the scalar
Fraction path, which stays the oracle.

f's values come from int64 (num, den) tables over [0, limit], built from
the spf table and the primes up to a bound: max(max_m, max_n) for a
grid, since every prime factor of m n is at most that, and limit itself
for a line.  Each prime-power rule is called once per prime power
q = p^a <= limit with p <= bound, and its value is placed at q; an entry
at an n with a prime factor above the bound is left undefined, and no
sweep reads one.  Every other n is filled by one multiplicative recurrence,
f(n) = f(q(n)) f(n / q(n)) with q(n) the full power of spf(n) in n, over
slices of at most 4096 entries whose factors all lie below the slice.
The rules' tables are then combined, 4096 entries at a time and in
place, as products, quotients, sums and reciprocals combine their
children, and reduced by gcd.  An entry that would overflow, a zero
divisor or a rule that raises leaves the function without a table, so
every row goes to the scalar path, which raises where the scalar sweep
raises.  Values at k-th powers n^k come from the same recurrence with
the rule at p^(k a), so the spf table need not reach n^k.  Tables are
kept on the spf table, by function, limit, k and bound, so each is built
once per command and a line never reads a grid's bounded table; a full
table (bound = limit), once built, replaces the bounded ones of its
function, limit and k and serves their requests.  A build that would not
fit in the memory budget beside the sieve and the tables already kept on
it is refused with ResourceError before its tables are allocated.

Products of powers (eq12, eq13, corollary1, the cross-power checks), the
power shapes of checks, have Rows of the same tables, or Args (row()), as
bases and exponents.  power_orders orders them by padded float64 bounds
on the log2 of each side, over a block of rows or a run of a line's
points at once, only where the bounds are disjoint under twice the pad of
the scalar filter in core.cmp_power_products_detail, so it decides a
subset of the cells the scalar filter decides, the same way; the rest are
UNDECIDED.  power_ties then settles those the scalar comparison settles
without its filter: sides that normalize to the same factors (EQUAL) and,
in int64 after dividing the exponents by their gcd, exact ties within the
digit budget (TIE, which the sweep counts as an exact fallback, as the
scalar path would).  Near-ties and ties beyond int64 or the budget go to
the scalar comparison.  A block with a base <= 0 or an exponent that is
not an integer >= 0, where the scalar comparison raises, is declined
whole (positive, exponents).

The prime-power sweeps (submult.local, and eq16, eq20 and eq23) run the
same formula shapes on rows indexed by exponent: a PowerArg holds the
exponents e of its cells and the rows' primes p, and PowerValues reads f
at p^(k e) from a table of f(p^e) over a block's primes, built from the
rules as above on Python ints.  Their Rows carry the same bounds as a
grid's, which size them by the same rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import isqrt

import numpy as np

from submult import core
from submult.core import EQUAL, GREATER, LESS
from submult.functions import PRODUCT, QUOTIENT, RECIPROCAL, SUM, ArithFn, Evaluator

BITS = 62  # every int64 product formed here is below 2**BITS
_CHUNK = 4096  # table entries filled at once; bounds the temporaries
_TEMPS = 8  # arrays of Python ints over a block alive at once while it is decided
_ONE = np.int64(1)
UNDECIDED = 2  # an order left to the exact scalar comparison
TIE = 3  # EQUAL, proved by power_ties where the scalar exact branch runs

# An exact rational per entry: (numerators, denominators > 0), both int64;
# denominators None when every one is 1.
Pair = tuple[np.ndarray, "np.ndarray | None"]


class Unproven(Exception):
    """This block goes to the scalar path: the vector path cannot decide
    any of it, as when a function has no int64 value table, its Python
    ints would exceed the memory budget or the scalar path raises at one of
    its cells.  Raised out of a Property.vector and caught by the sweep
    (checks._block)."""


def _absmax(a) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _prove(*bits: int) -> None:
    """Unproven unless values of these bit lengths are below 2**(BITS - 1):
    _leaves forms each entry with _times, which refuses a rule value at or
    above it, so a table holding one is refused before its memory check."""
    if max(bits) > BITS - 1:
        raise Unproven


def _bit_lengths(x) -> np.ndarray:
    """At each x >= 0, a bound b >= x.bit_length(), so x < 2**b: exactly
    x.bit_length() on an object array of Python ints and, for any int64 x,
    the exponent frexp gives, exact below 2**53, and above it the
    conversion to float64 rounds monotonically and keeps 2**(b-1) exact.
    As float64, so that products with int64 exponents cannot wrap."""
    x = np.asarray(x)
    if x.dtype == object:
        return np.vectorize(int.bit_length, otypes=[np.float64])(x)
    return np.frexp(x.astype(np.float64))[1].astype(np.float64)


def _row_bits(a: np.ndarray) -> np.ndarray:
    """A bound b with |x| < 2**b on every x of each row of a (along its
    last axis), as a column of the rows."""
    return _bit_lengths(np.abs(a).max(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Value tables
# ---------------------------------------------------------------------------


# Table entries are built elementwise: where the bit lengths of the maxima
# do not prove a result below 2**62, each result's float64 estimate must
# stay below 2**61.  Operands below 2**62 put the estimate within a factor
# 1 + 2**-50 of a product and within 2**11 of a sum, so the exact result
# is below 2**62 too.  Operands that are Python ints are exact as they are.


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if object in (a.dtype, b.dtype):
        return a * b
    if (_absmax(a).bit_length() + _absmax(b).bit_length() > BITS
            and np.abs(np.multiply(a, b, dtype=np.float64)).max() >= 2.0**61):
        raise Unproven
    return a * b


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if object in (a.dtype, b.dtype):
        return a + b
    if (max(_absmax(a), _absmax(b)).bit_length() + 1 > BITS
            and np.abs(np.add(a, b, dtype=np.float64)).max() >= 2.0**61):
        raise Unproven
    return a + b


def _dense(den: np.ndarray | None, like: np.ndarray) -> np.ndarray:
    return np.ones_like(like) if den is None else den


def _reduced(num: np.ndarray, den: np.ndarray) -> Pair:
    g = np.gcd(num, den)
    num, den = num // g, den // g
    return num, (None if (den == 1).all() else den)


def _mul(x: Pair, y: Pair) -> Pair:
    (a, b), (c, d) = x, y
    num = _times(a, c)
    if b is None or d is None:
        den = d if b is None else b
        return (num, None) if den is None else _reduced(num, den)
    return _reduced(num, _times(b, d))


def _add(x: Pair, y: Pair) -> Pair:
    (a, b), (c, d) = x, y
    if b is None and d is None:
        return _plus(a, c), None
    b, d = _dense(b, a), _dense(d, c)
    return _reduced(_plus(_times(a, d), _times(c, b)), _times(b, d))


def _reciprocal(x: Pair) -> Pair:
    a, b = x
    if not a.all():
        raise Unproven  # a zero divisor: the scalar path raises DomainError
    return np.sign(a) * _dense(b, a), np.abs(a)


def _chunks(start: int, stop: int):
    """[lo, hi) covering [start, stop) in order, _CHUNK entries each."""
    for lo in range(start, stop, _CHUNK):
        yield lo, min(lo + _CHUNK, stop)


def _slices(limit: int):
    """[lo, hi) covering [2, limit] in order, with hi <= 2 lo and at most
    _CHUNK entries: every proper divisor of an n in a slice is below lo."""
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + _CHUNK, limit + 1)
        yield lo, hi
        lo = hi


def _prime_powers(spf: np.ndarray, limit: int, bound: int):
    """Every prime power p^a <= limit with p <= bound, primes first:
    (q = p^a, p, a) as int64 arrays."""
    primes = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [np.flatnonzero(spf[lo:hi] == np.arange(lo, hi)) + lo
           for lo, hi in _chunks(2, min(bound, limit) + 1)])
    powers = []  # (p^a, p, a) for a >= 2
    for p in primes[primes <= isqrt(limit)].tolist():
        q, a = p * p, 2
        while q <= limit:
            powers.append((q, p, a))
            q, a = q * p, a + 1
    qs, ps, exps = np.array(powers, dtype=np.int64).reshape(-1, 3).T
    return (np.concatenate([primes, qs]), np.concatenate([primes, ps]),
            np.concatenate([np.ones_like(primes), exps]))


def _rule_values(rule, ps: np.ndarray, exps: np.ndarray, k: int, dtype=np.int64) -> list:
    """rule(p, k a) at each p, a of ps, exps, called once each, _CHUNK at a
    time, and 1 at a = 0 with no call (make_prime_power_fn): [numerators,
    denominators or None when every one is 1], as int64 (_prove) or dtype.
    A chunk of exact ints, as every builtin rule gives, is converted at
    once; any other chunk value by value."""
    num = np.empty(len(ps), dtype=dtype)
    den = np.empty(len(ps), dtype=dtype)
    for lo, hi in _chunks(0, len(ps)):
        try:
            vals = [rule(p, k * a) if a else 1
                    for p, a in zip(ps[lo:hi].tolist(), exps[lo:hi].tolist())]
        except Exception:  # a rule's own failure is the scalar path's to raise,
            raise Unproven from None  # at the point that needs the value
        ints = set(map(type, vals)) == {int}
        if not ints and not all(isinstance(v, (int, Fraction)) for v in vals):
            raise Unproven
        try:
            if ints:
                num[lo:hi], den[lo:hi] = np.array(vals, dtype), 1
            else:
                num[lo:hi] = [v.numerator for v in vals]
                den[lo:hi] = [v.denominator for v in vals]
        except OverflowError:
            raise Unproven from None
    if dtype != object:
        _prove(_absmax(num).bit_length(), _absmax(den).bit_length())
    return [num, None if (den == 1).all() else den]


def _leaves(rules: dict, qs: np.ndarray, spf: np.ndarray, limit: int) -> dict:
    """For each rule's [numerators, denominators or None] at the prime
    powers qs, the same over every n in [0, limit], each entry the
    unreduced product of n's prime-power values (1 at a prime power not
    in qs).  Those are placed first;
    then, slice by slice, f(n) = f(n / r) f(r) with r = rest(n), n over the
    full power of spf(n) in n, so that n / r is n itself or below the slice
    and r is below it.  With m = n / spf(n), rest(n) is rest(m) where
    spf(m) = spf(n), and m elsewhere; it is kept, in spf's dtype, up to
    limit / 2, the largest m."""
    leaves = {}
    for f, parts in rules.items():
        leaves[f] = [None if part is None else np.ones(limit + 1, dtype=np.int64)
                     for part in parts]
        for t, part in zip(leaves[f], parts):
            if t is not None:
                t[qs] = part
    tables = [t for parts in leaves.values() for t in parts if t is not None]
    rest = np.ones(limit // 2 + 1, dtype=spf.dtype)
    for lo, hi in _slices(limit):
        ns = np.arange(lo, hi, dtype=spf.dtype)
        p = spf[lo:hi]
        m = ns // p
        r = np.where(spf[m] == p, rest[m], m)
        kept = rest[lo:hi]
        kept[:] = r[:len(kept)]
        q = ns // r
        for t in tables:
            t[lo:hi] = _times(t[q], t[r])
    return leaves


def _rules(f: ArithFn) -> list[ArithFn]:
    """The prime-power rules of f's tree, in order; Unproven when the tree
    holds a node without standalone values."""
    if f.rule is not None:
        return [f]
    if f.kind not in (PRODUCT, SUM, QUOTIENT, RECIPROCAL):
        raise Unproven  # a power combinator has no standalone values
    return [g for c in f.children for g in _rules(c)]


def _build(fn: ArithFn, spf: np.ndarray, limit: int, k: int = 1,
           bound: int | None = None, held: int = 0) -> Pair:
    """fn(n^k) at every n in [0, limit] whose prime factors are at most
    bound (limit when None); the entries at other n are undefined, and the
    entry at 0 is a placeholder, fn's value at 1.  Each rule's values are
    built over [0, limit]; then fn is combined from them _CHUNK entries at
    a time, into their arrays.  ResourceError, before any array of
    limit + 1 entries is allocated, when held bytes and the build's would
    exceed the memory budget."""
    qs, ps, exps = _prime_powers(spf, limit, limit if bound is None else bound)
    rules = {f: _rule_values(f.rule, ps, exps, k) for f in dict.fromkeys(_rules(fn))}
    what = f"the value table of {fn.name}" + (f" at n^{k}" if k > 1 else "")
    core.require_memory(held + _build_bytes(fn, spf, limit, qs, rules),
                        f"{what} up to {limit}")
    leaves = _leaves(rules, qs, spf, limit)
    del rules, qs, ps, exps
    # Each chunk reads the leaves at its own entries only, so fn's values
    # are written over the first two of the leaves' arrays
    hosts = [t for parts in leaves.values() for t in parts if t is not None]
    num, den = hosts[0], (hosts[1] if len(hosts) > 1 else None)
    fractional = False
    for lo, hi in _chunks(0, limit + 1):
        cnum, cden = _combine(fn, leaves, slice(lo, hi))
        num[lo:hi] = cnum
        if cden is not None and den is None:
            den = np.ones(limit + 1, dtype=np.int64)
        if den is not None:
            den[lo:hi] = 1 if cden is None else cden
        fractional |= cden is not None
    return num, den if fractional else None


def _combine(f: ArithFn, leaves: dict, at: slice) -> Pair:
    """f's values at the entries at, from the values of each rule g of
    f's tree, leaves[g], combined elementwise and reduced by gcd."""
    if f.rule is not None:
        num, den = (None if part is None else part[at] for part in leaves[f])
        return (num, None) if den is None else _reduced(num, den)
    parts = [_combine(c, leaves, at) for c in f.children]
    if f.kind == PRODUCT:
        return reduce(_mul, parts)
    if f.kind == SUM:
        return reduce(_add, parts)
    if f.kind == QUOTIENT:
        return _mul(parts[0], _reciprocal(parts[1]))
    return _reciprocal(parts[0])  # RECIPROCAL: _rules admits no other kind


def _build_bytes(fn: ArithFn, spf: np.ndarray, limit: int, qs: np.ndarray,
                 rules: dict) -> int:
    """A bound on the bytes _build holds at once, from its memory check on.
    Throughout, 8 B per entry for each rule's numerators and each of its
    denominators, and 256 B per entry of a chunk for the rules' Python
    values and the temporaries of a slice, a chunk and each node of fn's
    tree.  Then the larger of what the two phases add: while the rules'
    tables are built, rest (half an entry of spf's dtype per entry) and the
    prime powers with each rule's values at them; while fn is combined,
    8 B per entry for fn's denominators when fn is not a rule and there is
    no second array of the rules' to hold them."""
    def nodes(f: ArithFn) -> int:
        return 1 + sum(nodes(c) for c in f.children)

    entries = limit + 1
    arrays = sum(part is not None for parts in rules.values() for part in parts)
    rule_phase = entries * spf.itemsize // 2 + len(qs) * (24 + 16 * len(rules))
    combine_phase = entries * 8 if fn.rule is None and arrays == 1 else 0
    return (entries * 8 * arrays + max(rule_phase, combine_phase)
            + 256 * _CHUNK * (1 + nodes(fn)))


def _table(ev: Evaluator, limit: int, k: int, bound: int) -> Pair | None:
    """ev's function at n^k for n in [0, limit] with no prime factor above
    bound (see _build), built once per spf table and kept on it by
    (function, limit, k, bound), or the full table (bound = limit) when it
    was built; building that drops the bounded ones.  None when the spf
    table does not reach limit, an entry does not fit, a divisor is zero
    or a rule raises.  ResourceError, before the table's arrays are
    allocated, when the sieve, the tables already kept on it and the build
    would exceed the memory budget."""
    sieve = ev.table
    if sieve is None or sieve.limit < limit:
        return None
    key, full = (ev.fn, limit, k, bound), (ev.fn, limit, k, limit)
    if sieve.tables.get(full) is not None:
        return sieve.tables[full]
    if key not in sieve.tables:
        if key == full:
            for bounded in [t for t in sieve.tables if t[:3] == key[:3]]:
                del sieve.tables[bounded]
        held = sieve.spf.nbytes + sum(a.nbytes for t in sieve.tables.values()
                                      if t is not None for a in t if a is not None)
        try:
            sieve.tables[key] = _build(ev.fn, sieve.spf, limit, k, bound, held)
        except Unproven:
            sieve.tables[key] = None
    return sieve.tables[key]


def value_table(ev: Evaluator, limit: int, bound: int | None = None) -> Pair | None:
    """ev's function on [0, limit], from the rules at the primes up to
    bound, every prime when None (see _table)."""
    return _table(ev, limit, 1, limit if bound is None else bound)


def power_table(ev: Evaluator, k: int, count: int) -> Pair | None:
    """ev's function at n^k for n in [0, count], from the rule values at
    p^(k a) (see _table), so the spf table need only reach count."""
    return _table(ev, count, k, count)


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------


class Row:
    """Exact rationals num / den, den > 0, at the cells of a block of
    rows: arrays that broadcast to the block, with |num| < 2**nbits and
    den < 2**dbits (nbits and dbits broadcast to it: a column of the
    block's rows, but for powers to an array of exponents).  f's values
    take their bounds from the largest of them in each row; products add
    them, and each is formed in int64 or on Python ints as they decide
    (_exact)."""

    __slots__ = ("num", "den", "nbits", "dbits")

    def __init__(self, num, den, nbits, dbits):
        self.num, self.den, self.nbits, self.dbits = num, den, nbits, dbits

    def __mul__(self, other):
        if isinstance(other, Row):
            nbits, dbits = self.nbits + other.nbits, self.dbits + other.dbits
            a, c = _exact(nbits, self.num, other.num)
            b, d = _exact(dbits, self.den, other.den)
            return Row(a * c, b * d, nbits, dbits)
        if isinstance(other, Arg):  # m or m**k as a factor
            nbits = self.nbits + other.bits()
            a, x = _exact(nbits, self.num, other.values())
            return Row(a * x, self.den, nbits, self.dbits)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k) -> Row:
        """self**k at each cell, for an int k >= 0 or int64 array of them
        that broadcasts to the block, such as a k axis."""
        nbits, dbits = k * self.nbits, k * self.dbits
        (num,), (den,) = _exact(nbits, self.num), _exact(dbits, self.den)
        return Row(num**k, den**k, nbits, dbits)


def _exact(bits, *xs) -> tuple:
    """xs, the operands of a result below 2**bits in each row (a column):
    unchanged where bits prove it below 2**BITS, so that int64 arithmetic
    is exact, and else (or where one is) as object arrays of Python ints.
    Unproven, before that, when _TEMPS such results, each cell a pointer
    and an int of its row's bits, would exceed the memory budget."""
    if (np.maximum.reduce(bits, axis=None) <= BITS
            and not any(np.asarray(x).dtype == object for x in xs)):
        return xs
    cells = np.broadcast_to(bits, np.broadcast_shapes(np.shape(bits), *map(np.shape, xs)))
    if _TEMPS * (40 * cells.size + float(np.sum(cells)) / 7) > core.memory_budget():
        raise Unproven
    return tuple(np.asarray(x).astype(object, copy=False) for x in xs)


def orders(lhs: Row, rhs: Row) -> np.ndarray:
    """LESS, EQUAL or GREATER at each cell as lhs <, = or > rhs, as int8:
    the sign of lhs.num * rhs.den - rhs.num * lhs.den, with both products
    below 2**BITS in int64, where the difference cannot wrap, or on ints."""
    bits = np.maximum(lhs.nbits + rhs.dbits, rhs.nbits + lhs.dbits)
    a, d, c, b = _exact(bits, lhs.num, rhs.den, rhs.num, lhs.den)
    return np.sign(a * d - c * b).astype(np.int8)


class Arg:
    """An argument of f at the cells of a block of rows: an int64 array x
    of values >= 0 that broadcasts to the block (the rows' m as a column,
    the columns' n as a row, or their products m n).  The formula shapes
    multiply Args, take f at them, f(x) or f(x, k) for f at x^k, and
    multiply Rows by them; the power shapes also take an Arg as a base or
    an exponent (row()).  x**power is only
    the factor m^k of the k-hom shape; f is never taken at it."""

    __slots__ = ("x", "power")

    def __init__(self, x, power: int = 1):
        self.x, self.power = x, power

    def __mul__(self, other):
        if isinstance(other, Arg) and self.power == other.power == 1:
            return Arg(self.x * other.x)
        return NotImplemented

    def __pow__(self, k: int) -> Arg:
        return Arg(self.x, self.power * k)

    def __add__(self, k):  # x + k for an int k: eq12's p + 1 and p - 1
        if isinstance(k, int) and self.power == 1:
            return Arg(self.x + k)
        return NotImplemented

    def __sub__(self, k):
        return self + -k if isinstance(k, int) else NotImplemented

    def values(self) -> np.ndarray:
        """x**power at each cell, on Python ints past power bits(x) > BITS."""
        if self.power == 1:
            return self.x
        x, = _exact(self.power * _row_bits(self.x), self.x)
        return x**self.power

    def bits(self) -> np.ndarray:
        """A bound b with x**power < 2**b in each row, as a column: from
        float64 at power 1, exact up to power 2 BITS and scaled from that
        power beyond, so no large power is formed before _exact's check."""
        tops = np.max(self.x, axis=-1, keepdims=True)
        if self.power == 1:
            return _bit_lengths(tops)
        c = min(self.power, 2 * BITS)
        return _bit_lengths(tops.astype(object) ** c) * (self.power / c)


class RowValues:
    """f as the formula shapes call it on a block of rows of a max_m x
    max_n grid: at an Arg x, the values of f at x^k at its cells, bounded
    in each row by the largest of them.  The tables are built on first use:
    f over [0, max_m max_n], which holds every product m n, from the rules
    at the primes up to max(max_m, max_n), the largest prime factor of any
    m n; and f at x^k over [0, max(max_m, max_n)], for the powers m^k and
    n^k.  A line (max_m = 1) reads a table from every prime."""

    def __init__(self, ev: Evaluator, max_m: int, max_n: int):
        self.ev, self.limit, self.count = ev, max_m * max_n, max(max_m, max_n)

    def __call__(self, x: Arg, k: int = 1) -> Row:
        if k == 1:
            table = value_table(self.ev, self.limit, self.count)
        else:
            table = power_table(self.ev, k, self.count)
        if table is None:
            raise Unproven
        num, den = table
        num = num[x.x]
        if den is None:
            return Row(num, _ONE, _row_bits(num), 1)
        den = den[x.x]
        return Row(num, den, _row_bits(num), _row_bits(den))


class PowerArg(Arg):
    """An argument p^e of f at the cells of a block of rows of prime
    powers: x is an int64 array of exponents e that broadcasts to the
    block, and p the rows' primes, an object array of Python ints that
    broadcasts to it (a column, or one prime for every row).  m n is
    p^(a+b), and f(x, k) reads f at p^(k e); values(), the multiplier m or
    m^k of the hom shapes, is p^(power e) in Python ints."""

    __slots__ = ("p",)

    def __init__(self, x, p, power: int = 1):
        super().__init__(x, power)
        self.p = p

    def __mul__(self, other):
        if isinstance(other, PowerArg) and self.power == other.power == 1:
            return PowerArg(self.x + other.x, self.p)
        return NotImplemented

    def __pow__(self, k: int) -> PowerArg:
        return PowerArg(self.x, self.p, self.power * k)

    def values(self) -> np.ndarray:
        p, e = _exact(self.bits(), self.p, self.power * self.x)
        return p**e

    def bits(self) -> np.ndarray:
        """power e bits(p) at the largest e of each row, and at least 1 (p^0)."""
        top = np.max(self.x, axis=-1, keepdims=True)
        return np.maximum(self.power * top * _bit_lengths(self.p), 1)


class PowerValues:
    """fn as the formula shapes call it on a block of rows of prime powers:
    at a PowerArg x, fn at p^(k e) at its cells, bounded in each row by the
    bit lengths of the entries it reads, from the exact numerators num and
    denominators den of fn(p^e), Python ints, at [r, j] for the r-th prime
    of ps (or one for every row) and the j-th exponent of exps, ascending;
    one not in exps raises IndexError.  Built as _build builds a table, from
    each rule at every (p, e), called once (_rule_values): Unproven where fn
    has no standalone values, a rule raises or a divisor is zero."""

    def __init__(self, fn: ArithFn, ps, exps):
        cells = len(ps), len(exps)
        at = np.repeat(ps, cells[1]), np.tile(exps, cells[0])
        leaves = {g: _rule_values(g.rule, *at, 1, object) for g in dict.fromkeys(_rules(fn))}
        num, den = _combine(fn, leaves, slice(None))
        self.num, self.den = num.reshape(cells), _dense(den, num).reshape(cells)
        self.rows = np.arange(cells[0])[:, None]
        self.column = np.full(max(exps) + 1, cells[1])  # past the last column
        self.column[exps] = np.arange(cells[1])
        self.bits = [_bit_lengths(t) for t in (self.num, self.den)]

    def __call__(self, x: PowerArg, k: int = 1) -> Row:
        at = (self.rows, self.column[k * x.x])
        nbits, dbits = (b[at].max(axis=-1, keepdims=True) for b in self.bits)
        return Row(self.num[at], self.den[at], nbits, dbits)


# ---------------------------------------------------------------------------
# Products of powers
# ---------------------------------------------------------------------------

# Twice the scalar filter's pads (core._PAD_ABS, core._PAD_REL).  Each
# interval here then contains the scalar filter's interval for the same
# side with room to spare for rounding (float64 errors here are near
# 2**-52 relative, the added pad is 1e-12 relative plus 1e-9 per unit of
# exponent), so every cell decided here is one the scalar filter decides
# the same way: the exact fallbacks a sweep counts do not depend on the
# path.
_PAD_ABS = 2 * core._PAD_ABS
_PAD_REL = 2 * core._PAD_REL


def _log2_bounds(x) -> tuple[np.ndarray, np.ndarray]:
    """Padded lower and upper bounds on log2(x) at each x >= 1."""
    mid = np.log2(np.asarray(x, dtype=np.float64))
    pad = _PAD_ABS + np.abs(mid) * _PAD_REL
    return mid - pad, mid + pad


def _log2_side(side) -> tuple[np.ndarray, np.ndarray]:
    lo = hi = 0.0
    for num, den, exp in side:
        nlo, nhi = _log2_bounds(num)
        dlo, dhi = _log2_bounds(den)
        exp = np.asarray(exp, dtype=np.float64)
        lo = lo + exp * (nlo - dhi)
        hi = hi + exp * (nhi - dlo)
    return lo, hi


def power_orders(lhs, rhs) -> np.ndarray:
    """The order of two products of powers at each cell: LESS or
    GREATER where the sides' padded log2 intervals are disjoint, UNDECIDED
    elsewhere (ties and near-ties, for power_ties or the exact scalar
    comparison).

    A side is a list of factors (num, den, exp): the base num / den with
    num, den >= 1 and the exponent exp >= 0, each an array over the
    cells or one that broadcasts to them."""
    (llo, lhi), (rlo, rhi) = _log2_side(lhs), _log2_side(rhs)
    return np.where(lhi < rlo, LESS,
                    np.where(rhi < llo, GREATER, UNDECIDED)).astype(np.int8)


def row(x) -> Row:
    """x as a Row: a Row as it is, an Arg as its values x**power."""
    if isinstance(x, Row):
        return x
    return Row(x.values(), _ONE, x.bits(), 1)


def positive(row: Row) -> Row:
    """row, as power bases; Unproven when it holds a value <= 0, at which
    the scalar path raises DomainError."""
    if not (row.num > 0).all():
        raise Unproven
    return row


def exponents(row: Row) -> Row:
    """row, as power exponents; Unproven when it holds a value that is not
    an integer >= 0, at which the scalar path raises UnsupportedInputError.
    Tables hold reduced fractions, so an integer has den 1."""
    if (row.num < 0).any() or (row.den != 1).any():
        raise Unproven
    return row


def power_ties(orders: np.ndarray, lhs, rhs) -> np.ndarray:
    """Settle, in place, the UNDECIDED cells of orders, power_orders of two
    products of powers over a block, that core.cmp_power_products_detail
    settles without raising.  A side is a sequence of factors (base,
    exponent), Rows over the block: int64 bases > 0 and integer exponents
    >= 0.  lhs is one factor and rhs at most two, as in every power shape,
    so that rhs's exponents, each below 2**BITS, add up in int64.

    - EQUAL where its normalized sides are identical (factors with base 1
      or exponent 0 dropped, factors of equal bases merged), which it
      returns before its filter, its budget and its exact branch;
    - TIE where the sides are equal in value, proved in int64 after
      dividing the exponents by their gcd, and where a bound on its digit
      estimate keeps to core.DEFAULT_DIGIT_BUDGET: its filter's intervals
      overlap at a tie, so its exact branch runs and returns EQUAL.

    Every other cell, near-ties included, stays UNDECIDED, and so does a
    cell whose reduced powers the bounds cannot prove below 2**BITS, and
    every cell of a row whose exponents' Row bounds exceed BITS.  orders
    is returned."""
    factors = (*lhs, *rhs)
    rows = reduce(np.logical_and, [exp.nbits <= BITS for _, exp in factors])
    todo = np.flatnonzero((orders == UNDECIDED) & rows)
    if not todo.size:
        return orders
    cells = np.unravel_index(todo, orders.shape)

    def at(x):
        return np.broadcast_to(x, orders.shape)[cells]

    # the bases' numerators and denominators, and the exponents, by factor
    bases = np.empty((2, len(factors), todo.size), dtype=np.int64)
    exps = np.empty((len(factors), todo.size), dtype=np.int64)
    for i, (base, exp) in enumerate(factors):
        bases[0, i], bases[1, i], exps[i] = at(base.num), at(base.den), at(exp.num)
    exps[(bases == 1).all(axis=0)] = 0  # a base 1 is dropped like an exponent 0
    # rhs normalizes to lhs's one factor, or both to none: each factor of
    # rhs is dropped or has lhs's base, and the exponents add up
    dropped_or_same = (exps == 0) | (bases == bases[:, :1]).all(axis=0)
    identical = (exps[1:].sum(axis=0) == exps[0]) & dropped_or_same[1:].all(axis=0)
    orders.flat[todo[identical]] = EQUAL
    if identical.all():  # such as the m = 1 row, when f(1) = 1
        return orders

    # the bases of lhs * rhs.den and of rhs * lhs.den, by (numerator or
    # denominator, factor), with lhs's one factor first
    index = np.arange(len(factors))
    left, right = (np.sign(index), index), (1 - np.sign(index), index)
    reduced = exps // np.maximum(np.gcd.reduce(exps), 1)
    ceils = _bit_lengths(bases - 1)  # x <= 2**ceil at each base x >= 1
    fits = (((reduced * ceils[left]).sum(axis=0) <= BITS)
            & ((reduced * ceils[right]).sum(axis=0) <= BITS))
    reduced[:, ~fits] = 0
    tie = fits & ~identical & ((bases[left] ** reduced).prod(axis=0)
                               == (bases[right] ** reduced).prod(axis=0))

    # the scalar digit estimate, with the unreduced exponents, bounded above:
    # per side, the larger of its numerator's and its denominator's bits
    bits = exps * _bit_lengths(bases)
    digits = bits[:, 0].max(axis=0) + bits[:, 1:].sum(axis=1).max(axis=0)
    tie &= digits * core.DIGITS_PER_BIT * (1 + 1e-9) <= core.DEFAULT_DIGIT_BUDGET
    orders.flat[todo[tie]] = TIE
    return orders
