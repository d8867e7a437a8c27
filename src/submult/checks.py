"""Exhaustive exact verification of properties over finite grids.

One engine, _sweep, runs every check in the package: the property
families over (m, n) grids here, the prime-power local criteria
(submult.local) and the named inequalities (submult.inequalities).  A
check is a Property record: the coordinate names of a point, the rows
and each row's remaining coordinates, a compare closure, the relation
the two sides must satisfy and the sieve limit the sweep needs.

The global families and the local criteria share one table of formula
shapes (FORMULAS): a local criterion is its family's formula at
(m, n) = (p^a, p^b).  Grids include the m = 1 / n = 1 edges, since the
properties are quantified over all m, n >= 1.

Points are enumerated in lexicographic order, so the counterexamples a
sweep meets first are the smallest; a report keeps the first
counterexample_cap of them.

Checks also carry a vector path (Property.vector, built on submult.vector)
that decides a block of consecutive rows, of at most _CELLS cells, at
once, and returns one int8 array of orders over the block.  The global
families (check, classify, the global half of local --bridge,
reports_for_tag) run the same formula shape once per block on the
numerators and denominators of all its cells, in int64 where bit-length
bounds prove every product below 2**62 and on Python ints elsewhere, and
decide every cell; the identity bounds do the same on a line, f(n)
against n.  The power comparisons (the
cross-power checks here, eq12, eq13 and corollary1 in
submult.inequalities, each a line of one row) run a padded log2 filter
over the block in numpy and leave ties and near-ties undecided; the
cross-power checks then settle in numpy the cells whose sides normalize
to the same factors and the exact ties that fit int64 and the digit
budget (vector.cross_power_ties).  The local criteria (submult.local)
and eq16, eq20 and eq23 run the formula shape on a block of primes, or of
exponents, on Python ints.

The vector path leaves a cell to the scalar path in one of two ways: it
marks it vector.UNDECIDED (a near-tie of the power comparisons, or every
cell of a prime's row whose table cannot be built), or it raises
vector.Unproven for the whole block (a function without an int64 value
table, Python ints beyond the memory budget), which _blocks alone
catches, handing the sweep each of the block's rows wholly UNDECIDED.
The sweep tallies a block's points, failures and exact ties in numpy,
and visits in Python, in order, only the rows that hold an UNDECIDED
cell or, while fewer than the cap are held, a failing one.  The scalar
path decides the UNDECIDED cells and recomputes a decided row's
counterexamples up to the cap, so reports do not depend on the path.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
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

GAP = 4  # a cell of a Property.vector block that is no point of its row
_ORDERS = GAP + 2  # the orders a cell can hold, indexed by order + 1
# relation -> whether order LESS, EQUAL, GREATER, vector.UNDECIDED,
# vector.TIE or GAP fails it, indexed by order + 1 (a TIE fails as EQUAL
# does); _VISIT marks the orders the sweep calls compare at, the failing
# ones and vector.UNDECIDED
_FAILS = {rel: np.array([o not in ok for o in (LESS, EQUAL, GREATER)]
                        + [False, EQUAL not in ok, False])
          for rel, ok in _PASSING.items()}
_UNDECIDED_ONLY = np.arange(_ORDERS) == vector.UNDECIDED + 1
_VISIT = {rel: fails | _UNDECIDED_ONLY for rel, fails in _FAILS.items()}
# relation -> the points, failures and TIEs among cells, from the number
# of cells at each order + 1
_TALLY = {rel: np.array([np.arange(_ORDERS) != GAP + 1, fails,
                         np.arange(_ORDERS) == vector.TIE + 1], dtype=np.int64)
          for rel, fails in _FAILS.items()}


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

    lhs/rhs hold either an exact Fraction or, for cross-power checks, a
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

# compare(*col) -> (order of lhs against rhs, lhs, rhs, exact fallback ran)
Compare = Callable[..., tuple[int, object, object, bool]]

_CELLS = 8192  # cells of a block of rows decided at once; bounds the temporaries


@dataclass(frozen=True)
class Property:
    """A relation between two sides, to be checked at every point.

    The points are (row, *col) for each row in rows and each col in
    cols(row), with coordinates named by names; a row of None (a line)
    adds no coordinate, so its points are the cols.  at(row) is the row's
    compare closure, called once per point as compare(*col).  limit is
    the sieve limit that covers every value the sweep evaluates.

    vector, when set, decides a block of consecutive rows at once, given
    as a slice of rows.  It returns an int8 array with one row per row of
    the block: the orders at the row's cols, in order, as LESS, EQUAL or
    GREATER; vector.UNDECIDED at a cell left to compare (a near-tie of a
    power comparison, or every cell of a row without values); vector.TIE
    at an EQUAL that compare would reach through its exact fallback; and
    GAP at the cells that are no point of the row, past its end or at the
    columns a coprime row leaves out.  It raises vector.Unproven to leave
    the whole block to compare.  at(row) decides the UNDECIDED cells point
    by point.  width is the most cols a row has, so that a block of rows
    holds at most _CELLS cells, or is one row."""

    names: tuple[str, ...]
    rows: Sequence[int | None]
    cols: Callable[[int | None], Sequence[tuple]]
    at: Callable[[int | None], Compare]
    relation: str  # SUB, SUP, EQ or LT
    limit: int = 0
    vector: Callable[[Sequence], np.ndarray] | None = None
    width: int = 1


def _undecided(prop: Property, rows: Iterable):
    """Each of rows alone, with every cell of it left to compare."""
    for row in rows:
        yield [row], np.full((1, len(prop.cols(row))), vector.UNDECIDED, dtype=np.int8)


def _blocks(prop: Property):
    """(rows, their cells) for each block of consecutive rows of prop, in
    order: what prop.vector decides or, without it or where it raises
    vector.Unproven, each row alone, left wholly to compare."""
    if prop.vector is None:
        yield from _undecided(prop, prop.rows)
        return
    per = max(1, _CELLS // prop.width)
    for lo in range(0, len(prop.rows), per):
        rows = prop.rows[lo:lo + per]
        try:
            cells = prop.vector(rows)
        except vector.Unproven:
            yield from _undecided(prop, rows)
        else:
            yield rows, cells


def _visits(undecided: np.ndarray, failing: np.ndarray, full: Callable[[], bool]):
    """The indices of the rows of a block the sweep visits, in order: every
    row with an UNDECIDED cell, and every row with a failing cell while
    full() is false."""
    for last in np.flatnonzero(undecided | failing).tolist():
        if full():
            break
        yield last
    else:
        return
    yield from (last + np.flatnonzero(undecided[last:])).tolist()


# threads is pinned: perfbench/tracer.py reads it as args[2] (ROADMAP item 1)
def _sweep(prop: Property, cfg: CheckConfig,
           threads: int) -> tuple[str, list[Counterexample], int, dict]:
    """Check prop at every point: (verdict, the first
    cfg.counterexample_cap counterexamples, points checked, stats).

    The points, failures and exact fallbacks a block's orders hold are
    tallied for the whole block at once.  Python then visits, in order,
    only the rows with an UNDECIDED cell (every row without prop.vector)
    and, while fewer than the cap are held, the rows with a failing cell.
    In a visited row compare runs, in column order, at every UNDECIDED
    cell and at the failing cells, up to the cap, to recompute their
    sides.  Exact fallbacks are counted at vector.TIE cells and where
    compare reports one at an UNDECIDED cell.

    threads is ignored: sweeps run on the calling thread.  It stays the
    third positional parameter only because the benchmark's tracer reads
    it there; sweep_report passes 1."""
    passing = _PASSING[prop.relation]
    fails, visit, tally = (table[prop.relation] for table in (_FAILS, _VISIT, _TALLY))
    cap = cfg.counterexample_cap
    cex: list[Counterexample] = []
    failed = exact = 0  # at UNDECIDED cells
    bulk = np.zeros(3, dtype=np.int64)  # the points, and failures and TIEs elsewhere

    def full():
        return len(cex) == cap

    for rows, cells in _blocks(prop):
        at = np.bincount(cells.ravel() + 1, minlength=_ORDERS)
        bulk += tally @ at
        if not at[vector.UNDECIDED + 1] and (full() or not at[fails].any()):
            continue
        gaps = at[GAP + 1] > 0
        undecided = (cells == vector.UNDECIDED).any(axis=1)
        failing = fails[cells + 1].any(axis=1)
        for r in _visits(undecided, failing, full):
            row = rows[r]
            cols = prop.cols(row)
            orders = cells[r][cells[r] != GAP] if gaps else cells[r]
            compare = prop.at(row)
            lead = () if row is None else (row,)
            todo = np.flatnonzero((_UNDECIDED_ONLY if full() else visit)[orders + 1])
            for i, decided in zip(todo.tolist(), orders[todo].tolist()):
                fallback = decided == vector.UNDECIDED
                if not fallback and full():
                    continue
                col = cols[i]
                order, lhs, rhs, used_exact = compare(*col)
                exact += fallback and used_exact
                if fallback and order in passing:
                    continue
                point = tuple(zip(prop.names, (*lead, *col)))
                if order in passing:
                    raise InconsistencyError(
                        f"the vector and scalar paths disagree at {point}; "
                        "this is an implementation bug")
                failed += fallback
                if len(cex) < cap:
                    cex.append(Counterexample(point, lhs, rhs))
    points, failures, ties = bulk.tolist()
    stats = {"exact_fallbacks": exact + ties} if exact + ties else {}
    return (REFUTED if failed + failures else HOLDS), cex, points, stats


def sweep_report(function: str, label: str, params: dict, prop: Property,
                 cfg: CheckConfig, table: SpfTable | None = None) -> CheckReport:
    """Sweep prop into a report.  Refuses to start when table does not
    reach the sieve limit the property needs."""
    t0 = time.perf_counter()
    if table is not None and table.limit < prop.limit:
        raise ResourceError(
            f"{label} needs a sieve limit of at least {prop.limit}, "
            f"table covers {table.limit}")
    verdict, cex, checked, stats = _sweep(prop, cfg, 1)
    return CheckReport(
        function=function,
        property=label,
        params=params,
        verdict=verdict,
        counterexamples=cex,
        pairs_checked=checked,
        elapsed_seconds=time.perf_counter() - t0,
        stats=stats,
    )


class _Singletons:
    """The points of a line as its row's columns: (x,) for each x in xs,
    made on access so a long line holds no tuple per point."""

    __slots__ = ("xs",)

    def __init__(self, xs: Sequence[int]):
        self.xs = xs

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i: int) -> tuple[int]:
        return (self.xs[i],)


def line(name: str, points: Sequence[int], compare: Compare, relation: str,
         decide: Callable[[np.ndarray], np.ndarray], limit: int = 0) -> Property:
    """A property with one coordinate: compare(x) at each point x, all in
    one row.  decide(xs) decides the points at once, given as an int64
    array: their orders, with vector.UNDECIDED at the points it leaves to
    compare (see Property.vector)."""
    def decide_line(_):
        return decide(np.asarray(points, dtype=np.int64))[None, :]

    return Property((name,), (None,), lambda _: _Singletons(points),
                    lambda _: compare, relation, limit, decide_line)


def _grid(cfg: CheckConfig, compare: Compare, relation: str, limit: int,
          coprime: bool, decide) -> Property:
    """compare(m, n) over the (m, n) grid of cfg, only at coprime pairs
    when coprime is set.  decide(m, n) decides a block of rows at every
    column at once, given the rows as a column m and the columns as a row
    n (on a coprime grid, as a block with 1 in each left-out cell, which
    becomes a GAP), both vector.Args: the orders at its cells (see
    Property.vector)."""
    ns = np.arange(1, cfg.max_n + 1)
    every = [(n,) for n in range(1, cfg.max_n + 1)]

    def cols(m):
        return [(n,) for n in ns[np.gcd(ns, m) == 1].tolist()] if coprime else every

    def decide_block(rows):
        ms = np.asarray(rows, dtype=np.int64)[:, None]
        keep = np.gcd(ms, ns) == 1 if coprime else None
        cells = decide(vector.Arg(ms),
                       vector.Arg(ns if keep is None else np.where(keep, ns, 1)))
        return cells if keep is None else np.where(keep, cells, GAP)

    return Property(("m", "n"), range(1, cfg.max_m + 1), cols,
                    lambda m: partial(compare, m), relation, limit, decide_block,
                    cfg.max_n)


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


def _check(ev: Evaluator, spec: PropertySpec, cfg: CheckConfig) -> CheckReport:
    prop = grid_property(ev, spec, cfg)
    params = {"max_m": cfg.max_m, "max_n": cfg.max_n}
    if spec.k is not None:
        params["k"] = spec.k
    return sweep_report(ev.fn.name, spec.label(), params, prop, cfg, ev.table)


def check_multiplicative(f: ArithFn, cfg: CheckConfig, table: SpfTable) -> CheckReport:
    """f(mn) = f(m) f(n) over all coprime pairs of the grid."""
    return run_property_check(f, PropertySpec(MULTIPLICATIVE), cfg, table)


def check_submult(f: ArithFn, direction: str, cfg: CheckConfig,
                  table: SpfTable) -> CheckReport:
    """f(mn) <= f(m) f(n) (direction "sub") or >= ("sup") over the grid."""
    spec = PropertySpec(SUB_MULT if direction == SUB else SUP_MULT)
    return run_property_check(f, spec, cfg, table)


def check_subhom(f: ArithFn, direction: str, cfg: CheckConfig,
                 table: SpfTable) -> CheckReport:
    """f(mn) <= m f(n) (direction "sub") or >= ("sup") over the grid."""
    spec = PropertySpec(SUB_HOM if direction == SUB else SUP_HOM)
    return run_property_check(f, spec, cfg, table)


def check_k_submult(f: ArithFn, k: int, direction: str, cfg: CheckConfig,
                    table: SpfTable) -> CheckReport:
    """f(mn)^k <= f(m^k) f(n^k) ("sub") or >= ("sup") over the grid.

    Refuses to start unless the sieve covers max_m * max_n; f at m^k and
    n^k comes from the factorizations of m and n."""
    spec = PropertySpec(K_SUB_MULT if direction == SUB else K_SUP_MULT, k)
    return run_property_check(f, spec, cfg, table)


def check_k_subhom(f: ArithFn, k: int, direction: str, cfg: CheckConfig,
                   table: SpfTable) -> CheckReport:
    """f(mn)^k <= m^k f(n^k) ("sub") or >= ("sup") over the grid."""
    spec = PropertySpec(K_SUB_HOM if direction == SUB else K_SUP_HOM, k)
    return run_property_check(f, spec, cfg, table)


def _as_int(v: Value, fn_name: str, at: int) -> int:
    if v.denominator != 1:
        raise UnsupportedInputError(
            f"{fn_name}({at}) = {v} is not an integer; cross-power comparison "
            "requires an integer-valued exponent function"
        )
    return v.numerator


def power_formula(f: vector.RowValues, g: vector.RowValues):
    """The cross-power comparison f(mn)^g(mn) vs f(m)^(g(m) n) f(n)^(g(n) m)
    as decide(m, n) over a block of rows (see _grid): the log2 filter of
    vector.power_orders over int64 values of f and g, then
    vector.cross_power_ties on what it leaves.  A row with a base <= 0 or
    an exponent that is not an integer >= 0 is left UNDECIDED, and the
    scalar path raises its error in place; vector.Unproven for a block
    without tables."""

    def decide(m, n):
        args = (m * n, m, n)
        fs, fok = zip(*(vector.positive(f(x)) for x in args))
        gs, gok = zip(*(vector.exponents(g(x)) for x in args))
        fmn, fm, fn = fs
        gmn, gm, gn = (np.asarray(x.num, dtype=np.float64) for x in gs)
        orders = vector.power_orders(
            [(fmn.num, fmn.den, gmn)],
            [(fm.num, fm.den, gm * n.x), (fn.num, fn.den, gn * m.x)])
        orders = vector.cross_power_ties(orders, m.x, n.x, fs, gs)
        proven = reduce(operator.and_, fok + gok)
        return orders if np.all(proven) else np.where(proven, orders, vector.UNDECIDED)

    return decide


def check_power_submult(f: ArithFn, g: ArithFn, direction: str, cfg: CheckConfig,
                        table: SpfTable) -> CheckReport:
    """Sub/sup-multiplicativity of h(n) = f(n)^(g(n)/n), decided exactly.

    h(mn) <= h(m) h(n) is equivalent, after raising both sides to the
    mn-th power, to f(mn)^g(mn) <= f(m)^(g(m) n) * f(n)^(g(n) m); both
    sides are products of integer powers of positive rationals, which
    cmp_power_products orders exactly.  g must be integer-valued.  Rows
    are decided in bulk by power_formula; the cells it leaves undecided go
    to cmp_power_products_detail.
    """
    fe = Evaluator(f, table)
    ge = Evaluator(g, table)

    def compare(m, n):
        gm = _as_int(ge(m), g.name, m)
        gn = _as_int(ge(n), g.name, n)
        gmn = _as_int(ge(m * n), g.name, m * n)
        if min(gm, gn, gmn) < 0:
            raise UnsupportedInputError(
                f"{g.name} takes a negative value on the grid")
        lhs = ((fe(m * n), gmn),)
        rhs = ((fe(m), gm * n), (fe(n), gn * m))
        order, used_exact = cmp_power_products_detail(lhs, rhs)
        return order, lhs, rhs, used_exact

    decide = power_formula(vector.RowValues(fe, cfg.max_m, cfg.max_n),
                           vector.RowValues(ge, cfg.max_m, cfg.max_n))
    # h's sub-multiplicativity evaluates f and g where sub-mult evaluates f
    prop = _grid(cfg, compare, direction,
                 sieve_limit([PropertySpec(SUB_MULT)], cfg), False, decide)
    label = "power-sub-mult" if direction == SUB else "power-sup-mult"
    return sweep_report(f"{f.name}^({g.name}/n)", label,
                        {"max_m": cfg.max_m, "max_n": cfg.max_n}, prop, cfg, table)


def check_identity_bound(f: ArithFn, direction: str, max_n: int,
                         table: SpfTable) -> CheckReport:
    """f(n) <= n ("le") or f(n) >= n ("ge") for all 1 <= n <= max_n.

    Verifies the side conditions consumed by the bounded-* inference
    rules.  The line is decided from f's value table over [0, max_n],
    point by point with Fraction values where f has none."""
    ev = Evaluator(f, table)
    values = vector.RowValues(ev, 1, max_n)

    def compare(n):
        v = ev(n)
        return cmp_values(v, n), v, Fraction(n), False

    def decide(ns):
        return vector.orders(values(vector.Arg(ns)),
                             vector.Row(ns, 1, max_n.bit_length(), 1))

    prop = line("n", range(1, max_n + 1), compare,
                SUB if direction == "le" else SUP, decide, max_n)
    return sweep_report(f.name, LE_IDENTITY if direction == "le" else GE_IDENTITY,
                        {"max_n": max_n}, prop, CheckConfig(), table)


# ---------------------------------------------------------------------------
# Dispatch and classification
# ---------------------------------------------------------------------------


def run_property_check(f: ArithFn, spec: PropertySpec, cfg: CheckConfig,
                       table: SpfTable) -> CheckReport:
    """Sweep one property family over cfg's grid."""
    return _check(Evaluator(f, table), spec, cfg)


def classify_specs(cfg: CheckConfig) -> list[PropertySpec]:
    """The properties classify sweeps, in report order: every family, the
    k-families once for each k in cfg.k_set."""
    specs = [PropertySpec(fam) for fam in FAMILIES if fam not in K_FAMILIES]
    specs += [PropertySpec(fam, k) for k in sorted(cfg.k_set) for fam in K_FAMILIES]
    return specs


def classify(f: ArithFn, cfg: CheckConfig, table: SpfTable) -> list[CheckReport]:
    """One report per property family, k-families instantiated over
    cfg.k_set, in a fixed order."""
    if f.kind == POWER:
        raise UsageError(f"{f.name}: power combinators cannot be classified "
                         "(no standalone values)")
    ev = Evaluator(f, table)
    return [_check(ev, spec, cfg) for spec in classify_specs(cfg)]


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
    return [_check(ev, PropertySpec(tag.family, k), cfg) for k in ks]
