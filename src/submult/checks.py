"""Exhaustive exact verification of properties over finite grids.

One engine, _sweep_many, runs every check in the package: the property
families over (m, n) grids here, the prime-power local criteria
(submult.local) and the named inequalities (submult.inequalities).  A
check is a Property record: the coordinate names of a point, the axes
whose product holds the points, a compare function of one point, the
relation the two sides must satisfy, the sieve limit the sweep needs,
and, on a coprime grid only, keep, which drops the other pairs.  _sweep
checks a Property's own relation; classify has _sweep_many tally one
pass of a formula shape for both directions, sub and sup, at once.

The global families and the local criteria share one table of formula
shapes (FORMULAS): a local criterion is its family's formula at
(m, n) = (p^a, p^b).  Comparisons of products of powers share the power
shapes _cross and below_self, run by power_compare and power_decide.
Grids include the m = 1 / n = 1 edges, since the properties are
quantified over all m, n >= 1.

Points are enumerated in lexicographic order, so the counterexamples a
sweep meets first are the smallest; a report keeps the first
counterexample_cap of them.

A sweep runs a block at a time (_block): a run of rows, values of the
first axis, with every tuple of the other axes, its cols, at most _CELLS
cells or one row.  It makes each axis an int64 array once and slices
each block's rows from it; compare still gets Python ints.  A vector
path (Property.vector, built on submult.vector) decides a block at once
from its coordinates, the rows as a column and each other axis as a
row, and returns one int8 array of orders over it.  The global families
(check, classify, the global half of local --bridge, reports_for_tag)
run the same formula shape once per block on the numerators and
denominators of all its cells, in int64 where bit-length bounds prove
every product below 2**62 and on Python ints elsewhere, and decide
every cell.  A property of one coordinate is
a line (line), whose blocks are runs of at most _CELLS points, which its
formula sees as one row; the identity bounds decide f(n) against n on
one.  The power shapes (lines
but for _cross) run a padded log2 filter over the block in numpy, then
settle in numpy the cells whose sides normalize to the same factors and
the exact ties that fit int64 and the digit budget (vector.power_ties),
and leave near-ties undecided.  The local criteria (submult.local) and
eq16, eq20 and eq23 run the formula shape on a block of primes, or of
exponents, on Python ints.

A vector decision either decides its whole block or declines it: it
raises vector.Unproven (a function without a value table, a base <= 0 or
an exponent that is not an integer >= 0 of a power comparison, primes
whose table cannot be built, Python ints beyond the memory budget), which
_block alone catches.  A declined block, like every block of a sweep
without a vector path, stays whole, with every cell UNDECIDED, so the
scalar path raises any error where it always has.  The only cells a
decided block marks vector.UNDECIDED are what the power filters leave
open: ties and near-ties.  On either, GAP marks the cells keep drops.
The sweep tallies a block's points, exact ties and failures of each
relation in numpy, and visits in Python, in order, only the UNDECIDED
cells and the first failing cells each relation's counterexample cap has
room for.  The scalar path decides the UNDECIDED cells and recomputes a
decided cell's sides for its counterexample, so reports do not depend on
the path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import groupby, product
from typing import Callable, Iterable, Sequence

import numpy as np

from submult import vector
from submult.core import (
    EQUAL,
    GREATER,
    LESS,
    SpfTable,
    Value,
    cmp_power_products_detail,
    cmp_values,
)
from submult.errors import (
    DomainError,
    InconsistencyError,
    ResourceError,
    UnsupportedInputError,
    UsageError,
)
from submult.functions import POWER, ArithFn, Evaluator
from submult.inference import (
    FAMILIES,
    GE_IDENTITY,
    K_FAMILIES,
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
    PropertySpec,
    PropertyTag,
)

HOLDS = "holds-on-range"
REFUTED = "refuted"

# relations between the two sides of a property
SUB = "sub"  # lhs <= rhs
SUP = "sup"  # lhs >= rhs
EQ = "eq"  # lhs == rhs
LT = "lt"  # lhs < rhs

_PASSING = {SUB: (LESS, EQUAL), SUP: (EQUAL, GREATER), EQ: (EQUAL,), LT: (LESS,)}

GAP = 4  # a cell of a block that is no point: Property.keep is False there
_ORDERS = GAP + 2  # the orders a cell can hold, indexed by order + 1
# relation -> whether order LESS, EQUAL, GREATER, vector.UNDECIDED,
# vector.TIE or GAP fails it, indexed by order + 1 (a TIE fails as EQUAL
# does)
_FAILS = {rel: np.array([o not in ok for o in (LESS, EQUAL, GREATER)]
                        + [False, EQUAL not in ok, False])
          for rel, ok in _PASSING.items()}
# the points and TIEs among cells, from the number of cells at each
# order + 1; a sweep adds a row of failures per relation
_COUNTS = np.array([np.arange(_ORDERS) != GAP + 1, np.arange(_ORDERS) == vector.TIE + 1])


@dataclass(frozen=True)
class CheckConfig:
    max_m: int = 100
    max_n: int = 100
    k_set: tuple[int, ...] = (2,)
    counterexample_cap: int = 10

    def __post_init__(self):
        if self.max_m < 2 or self.max_n < 2:
            raise UsageError("max_m and max_n must be >= 2")
        if self.counterexample_cap < 1:
            raise UsageError("counterexample_cap must be >= 1")
        object.__setattr__(self, "k_set", tuple(self.k_set))
        if any(k < 2 for k in self.k_set):
            raise UsageError("every k must be >= 2")


@dataclass(frozen=True)
class Counterexample:
    """A grid point where the checked inequality fails.

    lhs/rhs hold either an exact Fraction or, for the power shapes, a
    tuple of (base, exponent) factors; both are recomputable from the
    point and the property definition."""

    point: tuple[tuple[str, int], ...]  # e.g. (("m", 2), ("n", 2))
    lhs: object
    rhs: object

    def coords(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.point)

    def __getitem__(self, key: str) -> int:
        return dict(self.point)[key]


@dataclass
class CheckReport:
    function: str
    property: str  # PropertySpec label or inequality id
    params: dict
    verdict: str
    counterexamples: list[Counterexample]
    pairs_checked: int
    elapsed_seconds: float
    stats: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------

# compare(*point) -> (order of lhs against rhs, lhs, rhs, exact fallback ran)
Compare = Callable[..., tuple[int, object, object, bool]]

_CELLS = 8192  # cells of a block of rows decided at once; bounds the temporaries


@dataclass(frozen=True)
class Property:
    """A relation between two sides, to be checked at every point.

    The points are the product of axes, in lexicographic order, with
    coordinates named by names, less the cells keep drops.  compare(*point)
    orders the two sides at one point.  limit is the sieve limit that
    covers every value the sweep evaluates.

    vector, when set, decides a block at once: a run of rows, values of the
    first axis, with every tuple of the other axes, its cols (see
    _block).  It takes the coordinates as int64 arrays that broadcast to
    the block, the rows as a column and each other axis as a row over the
    cols, and returns an int8 array of the block's shape: LESS, EQUAL or
    GREATER; vector.UNDECIDED at a cell a power filter leaves to compare
    (a tie or near-tie); vector.TIE at an EQUAL that compare would reach
    through its exact fallback.  It raises vector.Unproven to leave the
    whole block to compare, as where compare would raise.  keep, when set,
    takes the same coordinates and is False at the cells that are no point
    (the pairs a coprime grid leaves out), which become GAP."""

    names: tuple[str, ...]
    axes: tuple[Sequence[int], ...]
    compare: Compare
    relation: str  # SUB, SUP, EQ or LT
    limit: int = 0
    vector: Callable[..., np.ndarray] | None = None
    keep: Callable[..., np.ndarray] | None = None


def _axis(axis: Sequence[int]) -> np.ndarray:
    """axis as an int64 array, a range without a Python int per point."""
    if isinstance(axis, range):
        return np.arange(axis.start, axis.stop, axis.step, dtype=np.int64)
    return np.asarray(axis, dtype=np.int64)


def _cols(prop: Property) -> list[tuple]:
    """Every tuple of prop's axes after the first, in lexicographic order,
    of Python ints: the cols of each row (a line's one col is ())."""
    return list(product(*(_axis(axis).tolist() for axis in prop.axes[1:])))


def _col_coords(cols: Sequence[tuple]) -> list[np.ndarray]:
    """Each axis after the first over cols, as an int64 row."""
    return [np.array(axis, dtype=np.int64)[None, :] for axis in zip(*cols)]


def _block(prop: Property, rows, others: Sequence[np.ndarray]) -> np.ndarray:
    """The orders at the block of rows, a run of prop's first axis, each
    with every col of prop, whose coordinates others holds (_col_coords),
    as one int8 array, a row per row: what prop.vector decides or, without
    it or where it raises vector.Unproven, UNDECIDED at every cell, left
    wholly to compare; and GAP wherever prop.keep is False."""
    coords = [np.asarray(rows, dtype=np.int64)[:, None], *others]
    try:
        if prop.vector is None:
            raise vector.Unproven
        cells = prop.vector(*coords)
    except vector.Unproven:
        cells = np.full(np.broadcast_shapes(*(c.shape for c in coords)), vector.UNDECIDED,
                        dtype=np.int8)
    if prop.keep is None:
        return cells
    return np.where(prop.keep(*coords), cells, GAP)


# threads is pinned: perfbench/tracer.py reads it as args[2] (ROADMAP item 1)
def _sweep(prop: Property, cfg: CheckConfig,
           threads: int) -> tuple[str, list[Counterexample], int, dict]:
    """Check prop at every point: (verdict, the first
    cfg.counterexample_cap counterexamples, points checked, stats), as
    _sweep_many tallies them for prop.relation alone.

    threads is ignored: sweeps run on the calling thread.  It stays the
    third positional parameter only because the benchmark's tracer reads
    it there; sweep_report passes 1."""
    return _sweep_many(prop, cfg, (prop.relation,))[0]


def _sweep_many(prop: Property, cfg: CheckConfig,
                relations: Sequence[str]) -> list[tuple[str, list[Counterexample], int, dict]]:
    """Check each of relations, in place of prop.relation, at every point
    of prop in one pass: per relation, (verdict, the first
    cfg.counterexample_cap counterexamples, points checked, stats).

    Each block is decided once, and the points, the exact fallbacks and
    each relation's failures that its orders hold are tallied for the
    whole block at once.  Python then visits, in order, the block's
    UNDECIDED cells and, for each relation, its first failing cells, as
    many as that relation's cap still has room for, and runs compare once
    per cell: to decide an UNDECIDED cell for every relation, and to
    recompute a failing cell's sides for each relation it fails that holds
    fewer than the cap.  Exact fallbacks are counted at vector.TIE cells and
    where compare reports one at an UNDECIDED cell.  The points and stats
    are the same for every relation; each keeps its own failures,
    counterexamples and verdict."""
    undecided, cap = vector.UNDECIDED, cfg.counterexample_cap
    every = range(len(relations))
    passing = [_PASSING[rel] for rel in relations]
    fails = np.array([_FAILS[rel] for rel in relations])
    fail_at = fails.tolist()
    tally = np.vstack([_COUNTS, fails]).astype(np.int64)
    # the axes as int64 arrays once, and compare's coordinates as Python
    # ints from them, so that no p**a or m*n on the scalar path can wrap
    rows, cols, compare = _axis(prop.axes[0]), _cols(prop), prop.compare
    others = _col_coords(cols)
    per = max(1, _CELLS // len(cols))
    cexs: list[list[Counterexample]] = [[] for _ in every]
    failed = [0 for _ in every]  # at UNDECIDED cells, per relation
    exact = 0  # at UNDECIDED cells
    bulk = np.zeros(len(tally), dtype=np.int64)  # points, TIEs, failures per relation

    for lo in range(0, len(rows), per):
        block = rows[lo:lo + per]
        cells = _block(prop, block, others)
        flat = cells.ravel()
        at = np.bincount(flat + 1, minlength=_ORDERS)
        bulk += tally @ at
        rooms = [cap - len(cex) if at[fail].any() else 0 for fail, cex in zip(fails, cexs)]
        if not at[undecided + 1] and not any(rooms):
            continue
        visit = flat == undecided
        for fail, room in zip(fails, rooms):
            if room:
                failing = fail[flat + 1]
                visit |= failing & (np.cumsum(failing) <= room)
        todo = np.flatnonzero(visit)
        rs, cs = np.divmod(todo, len(cols))
        for row, c, decided in zip(block[rs].tolist(), cs.tolist(), flat[todo].tolist()):
            fallback = decided == undecided
            # the relations the cell is compared for: every one at an
            # UNDECIDED cell, else each it fails that holds fewer than the cap
            held = every if fallback else [
                j for j in every if fail_at[j][decided + 1] and len(cexs[j]) < cap]
            if not held:
                continue
            coords = (row, *cols[c])
            order, lhs, rhs, used_exact = compare(*coords)
            exact += fallback and used_exact
            point = tuple(zip(prop.names, coords))
            for j in held:
                if order not in passing[j]:
                    failed[j] += fallback
                    if len(cexs[j]) < cap:
                        cexs[j].append(Counterexample(point, lhs, rhs))
                elif not fallback:
                    raise InconsistencyError(
                        f"the vector and scalar paths disagree at {point}; "
                        "this is an implementation bug")
    points, ties, *failures = bulk.tolist()
    stats = {"exact_fallbacks": exact + ties} if exact + ties else {}
    return [(REFUTED if bad + more else HOLDS, cex, points, dict(stats))
            for bad, more, cex in zip(failed, failures, cexs)]


def _report(function: str, label: str, params: dict, result, elapsed: float) -> CheckReport:
    verdict, cex, checked, stats = result
    return CheckReport(function=function, property=label, params=params, verdict=verdict,
                       counterexamples=cex, pairs_checked=checked,
                       elapsed_seconds=elapsed, stats=stats)


def _covers(table: SpfTable | None, prop: Property, label: str) -> None:
    if table is not None and table.limit < prop.limit:
        raise ResourceError(
            f"{label} needs a sieve limit of at least {prop.limit}, "
            f"table covers {table.limit}")


def sweep_report(function: str, label: str, params: dict, prop: Property,
                 cfg: CheckConfig, table: SpfTable | None = None) -> CheckReport:
    """Sweep prop into a report.  Refuses to start when table does not
    reach the sieve limit the property needs."""
    t0 = time.perf_counter()
    _covers(table, prop, label)
    result = _sweep(prop, cfg, 1)
    return _report(function, label, params, result, time.perf_counter() - t0)


def line(name: str, points: Sequence[int], compare: Compare, relation: str,
         decide: Callable[[vector.Arg], np.ndarray], limit: int = 0) -> Property:
    """A property with one coordinate: compare(x) at each point x.  Each
    point is a row with the one col (), so a block is a run of at most
    _CELLS consecutive points.  decide(x) decides such a run at once,
    given as one row, a vector.Arg, so that its Rows take one bound for
    the run (see Property.vector)."""
    return Property((name,), (points,), compare, relation, limit,
                    lambda x: decide(vector.Arg(x.T)).T)


def _grid(cfg: CheckConfig, compare: Compare, relation: str, limit: int,
          coprime: bool, decide) -> Property:
    """compare(m, n) over the (m, n) grid of cfg, only at coprime pairs
    when coprime is set.  decide(m, n) decides a block of rows at every
    column at once, given the rows as a column m and the columns as a row
    n, both vector.Args (see Property.vector); the pairs a coprime grid
    leaves out become GAP after it."""
    return Property(("m", "n"), (range(1, cfg.max_m + 1), range(1, cfg.max_n + 1)),
                    compare, relation, limit,
                    lambda m, n: decide(vector.Arg(m), vector.Arg(n)),
                    (lambda m, n: np.gcd(m, n) == 1) if coprime else None)


# ---------------------------------------------------------------------------
# The formula table
# ---------------------------------------------------------------------------

# The four formula shapes: (lhs, rhs) of f at (m, n), with exponent k for
# the k-forms; f(x, k) is f at x^k.


def _mult(f, k, m, n):
    return f(m * n), f(m) * f(n)


def _hom(f, k, m, n):
    return f(m * n), m * f(n)


def _k_mult(f, k, m, n):
    return f(m * n) ** k, f(m, k) * f(n, k)


def _k_hom(f, k, m, n):
    return f(m * n) ** k, m**k * f(n, k)


# property family -> (formula shape, relation between its sides)
FORMULAS = {
    MULTIPLICATIVE: (_mult, EQ),
    SUB_MULT: (_mult, SUB), SUP_MULT: (_mult, SUP),
    SUB_HOM: (_hom, SUB), SUP_HOM: (_hom, SUP),
    K_SUB_MULT: (_k_mult, SUB), K_SUP_MULT: (_k_mult, SUP),
    K_SUB_HOM: (_k_hom, SUB), K_SUP_HOM: (_k_hom, SUP),
}


def formula(family: str, k: int | None, f: Callable[..., Value]) -> Compare:
    """The family's formula as compare(m, n), with f(x, k=1) giving the
    values of the function at x^k; FORMULAS[family][1] is the relation its
    sides must satisfy."""
    sides = partial(FORMULAS[family][0], f, k)

    def compare(m, n):
        lhs, rhs = sides(m, n)
        return cmp_values(lhs, rhs), lhs, rhs, False

    return compare


def vector_formula(family: str, k: int | None, f: vector.RowValues):
    """The family's formula as decide(m, n) over a block of rows (see
    _grid): the order of its sides at each cell, evaluated by the same
    shape as formula() on exact values of f (vector.orders);
    vector.Unproven for a block without tables or beyond the memory
    budget."""
    shape = FORMULAS[family][0]
    return lambda m, n: vector.orders(*shape(f, k, m, n))


# The two power shapes: (lhs, rhs) of a comparison of products of powers,
# each side a tuple of (base, exponent) factors, the bases from f and the
# exponents from g at the point.


def _cross(f, g, m, n):
    # h = f^(g/n) at mn against h(m) h(n), both sides raised to the mn-th power
    return ((f(m * n), g(m * n)),), ((f(m), g(m) * n), (f(n), g(n) * m))


def below_self(f, g, x):
    """f(x)^g(x) against x^x (eq12, eq13, corollary1)."""
    return ((f(x), g(x)),), ((x, x),)


def power_compare(shape, f, g) -> Compare:
    """The power shape as compare(*point), ordered exactly by
    cmp_power_products_detail.  f's values must be positive and g's
    integers >= 0: the first value that is not, in the order the shape
    takes them, raises DomainError or UnsupportedInputError."""
    def base(x):
        v = f(x)
        if v <= 0:
            raise DomainError(f"f({x}) = {v} is not positive, as a power base must be")
        return v

    def exponent(x):
        v = g(x)
        if v.denominator != 1 or v < 0:
            raise UnsupportedInputError(
                f"g({x}) = {v} is not an integer >= 0, as a power exponent must be")
        return v.numerator

    def compare(*point):
        lhs, rhs = shape(base, exponent, *point)
        order, used_exact = cmp_power_products_detail(lhs, rhs)
        return order, lhs, rhs, used_exact

    return compare


def power_decide(shape, f, g):
    """The power shape as decide(*args) over a block (see _grid and line),
    with f and g giving Rows or Args at an Arg, such as vector.RowValues:
    vector.power_orders at every cell, then vector.power_ties on the cells
    it leaves UNDECIDED.  vector.Unproven for a block without tables, or
    where f has a value <= 0 or g one that is not an integer >= 0."""
    def base(x):
        return vector.positive(vector.row(f(x)))

    def exponent(x):
        return vector.exponents(vector.row(g(x)))

    def decide(*args):
        lhs, rhs = ([(vector.row(b), vector.row(e)) for b, e in side]
                    for side in shape(base, exponent, *args))
        orders = vector.power_orders(*([(b.num, b.den, e.num) for b, e in side]
                                       for side in (lhs, rhs)))
        return vector.power_ties(orders, lhs, rhs)

    return decide


def sieve_limit(specs: Iterable[PropertySpec], cfg: CheckConfig) -> int:
    """The sieve limit covering every argument that sweeping the specs
    over cfg's grid factors through the sieve.  Each argument of a formula
    grows with m and n, so the largest is taken at the grid's far corner.
    f at x^k factors x, so x^k counts as its base x."""
    args = []

    def record(x, k=1):
        args.append(x)
        return 1

    for spec in specs:
        FORMULAS[spec.family][0](record, spec.k, cfg.max_m, cfg.max_n)
    return max(args)


# ---------------------------------------------------------------------------
# Property checkers
# ---------------------------------------------------------------------------


def grid_property(ev: Evaluator, spec: PropertySpec, cfg: CheckConfig) -> Property:
    """The spec's formula over cfg's grid, decided a block of rows at a
    time on exact rows where ev's values have a table (see
    submult.vector), point by point with Fraction values elsewhere."""
    rows = vector.RowValues(ev, cfg.max_m, cfg.max_n)
    return _grid(cfg, formula(spec.family, spec.k, ev), FORMULAS[spec.family][1],
                 sieve_limit([spec], cfg), spec.family == MULTIPLICATIVE,
                 vector_formula(spec.family, spec.k, rows))


def _sweep_key(spec: PropertySpec):
    """What one sweep decides for several specs: their formula shape, k,
    and whether the grid holds only coprime pairs."""
    return FORMULAS[spec.family][0], spec.k, spec.family == MULTIPLICATIVE


def _check(ev: Evaluator, specs: Sequence[PropertySpec],
           cfg: CheckConfig) -> list[CheckReport]:
    """One report per spec, from one sweep over cfg's grid: the specs
    share their _sweep_key and differ only in the relation between the
    formula's sides.  A lone spec is swept by _sweep, several by
    _sweep_many, and each report of a shared sweep carries the time of the
    whole sweep."""
    spec = specs[0]
    prop = grid_property(ev, spec, cfg)
    params = {"max_m": cfg.max_m, "max_n": cfg.max_n}
    if spec.k is not None:
        params["k"] = spec.k
    if len(specs) == 1:
        return [sweep_report(ev.fn.name, spec.label(), params, prop, cfg, ev.table)]
    t0 = time.perf_counter()
    _covers(ev.table, prop, spec.label())
    results = _sweep_many(prop, cfg, [FORMULAS[s.family][1] for s in specs])
    elapsed = time.perf_counter() - t0
    return [_report(ev.fn.name, s.label(), dict(params), result, elapsed)
            for s, result in zip(specs, results)]


def check_power_submult(f: ArithFn, g: ArithFn, direction: str, cfg: CheckConfig,
                        table: SpfTable) -> CheckReport:
    """Sub/sup-multiplicativity of h(n) = f(n)^(g(n)/n), decided exactly.

    h(mn) <= h(m) h(n) is equivalent, after raising both sides to the
    mn-th power, to f(mn)^g(mn) <= f(m)^(g(m) n) * f(n)^(g(n) m) (the
    power shape _cross); both sides are products of integer powers of
    positive rationals, which cmp_power_products_detail orders exactly.  f
    must be positive and g integer-valued and >= 0.  Blocks of rows are
    decided in bulk by power_decide, and the cells it leaves open by
    power_compare.  direction is SUB or SUP.
    """
    if direction not in (SUB, SUP):
        raise UsageError(f"direction must be 'sub' or 'sup', got {direction!r}")
    fe, ge = Evaluator(f, table), Evaluator(g, table)
    rf, rg = (vector.RowValues(ev, cfg.max_m, cfg.max_n) for ev in (fe, ge))
    # h's sub-multiplicativity evaluates f and g where sub-mult evaluates f
    prop = _grid(cfg, power_compare(_cross, fe, ge), direction,
                 sieve_limit([PropertySpec(SUB_MULT)], cfg), False,
                 power_decide(_cross, rf, rg))
    label = "power-sub-mult" if direction == SUB else "power-sup-mult"
    return sweep_report(f"{f.name}^({g.name}/n)", label,
                        {"max_m": cfg.max_m, "max_n": cfg.max_n}, prop, cfg, table)


def check_identity_bound(f: ArithFn, direction: str, max_n: int,
                         table: SpfTable) -> CheckReport:
    """f(n) <= n ("le") or f(n) >= n ("ge") for all 1 <= n <= max_n.

    Verifies the side conditions consumed by the bounded-* inference
    rules.  The line is decided a run of at most _CELLS points at a time
    from f's value table over [0, max_n], point by point with Fraction
    values where f has none."""
    ev = Evaluator(f, table)
    values = vector.RowValues(ev, 1, max_n)

    def compare(n):
        v = ev(n)
        return cmp_values(v, n), v, Fraction(n), False

    prop = line("n", range(1, max_n + 1), compare, SUB if direction == "le" else SUP,
                lambda n: vector.orders(values(n), vector.row(n)), max_n)
    return sweep_report(f.name, LE_IDENTITY if direction == "le" else GE_IDENTITY,
                        {"max_n": max_n}, prop, CheckConfig(), table)


# ---------------------------------------------------------------------------
# Dispatch and classification
# ---------------------------------------------------------------------------


def run_property_check(f: ArithFn, spec: PropertySpec, cfg: CheckConfig,
                       table: SpfTable) -> CheckReport:
    """Sweep one property family over cfg's grid."""
    return _check(Evaluator(f, table), [spec], cfg)[0]


def classify_specs(cfg: CheckConfig) -> list[PropertySpec]:
    """The properties classify sweeps, in report order: every family, the
    k-families once for each k in cfg.k_set."""
    specs = [PropertySpec(fam) for fam in FAMILIES if fam not in K_FAMILIES]
    specs += [PropertySpec(fam, k) for k in sorted(cfg.k_set) for fam in K_FAMILIES]
    return specs


def classify(f: ArithFn, cfg: CheckConfig, table: SpfTable) -> list[CheckReport]:
    """One report per property family, k-families instantiated over
    cfg.k_set, in the order of classify_specs.  Each pair of families of
    one formula shape and k (sub-mult and sup-mult, sub-hom and sup-hom,
    and the k-sub and k-sup form of each for every k) is decided by one
    sweep, tallied for both relations; multiplicative, whose points are
    only the coprime pairs, is swept on its own."""
    if f.kind == POWER:
        raise UsageError(f"{f.name}: power combinators cannot be classified "
                         "(no standalone values)")
    ev = Evaluator(f, table)
    return [report for _, specs in groupby(classify_specs(cfg), key=_sweep_key)
            for report in _check(ev, list(specs), cfg)]


# threads is pinned: perfbench/worker.py passes it (ROADMAP item 1)
def reports_for_tag(f: ArithFn, tag: PropertyTag, cfg: CheckConfig,
                    table: SpfTable, *, threads: int = 1) -> list[CheckReport]:
    """Sweep reports exercising one tag; a k = None tag is instantiated
    over cfg.k_set, side conditions over [1, max_m * max_n]."""
    if tag.family in (LE_IDENTITY, GE_IDENTITY):
        direction = "le" if tag.family == LE_IDENTITY else "ge"
        return [check_identity_bound(f, direction, cfg.max_m * cfg.max_n, table)]
    if tag.family in (SUB_MULT, SUP_MULT) and f.kind == POWER:
        base, expo = f.children
        direction = SUB if tag.family == SUB_MULT else SUP
        return [check_power_submult(base, expo, direction, cfg, table)]
    if tag.family not in K_FAMILIES:
        ks = (None,)
    else:
        ks = cfg.k_set if tag.k is None else (tag.k,)
    ev = Evaluator(f, table)
    return [_check(ev, [PropertySpec(tag.family, k)], cfg)[0] for k in ks]
