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
once.  The global families (check, classify, the global half of local
--bridge, reports_for_tag) run the same formula shape once per block on
int64 numerators and denominators of all its cells, and decide each row
whose bit-length bounds prove every product below 2**62.  The power
comparisons (the cross-power checks here, eq12, eq13 and corollary1 in
submult.inequalities, each a line of one row) run a padded log2 filter
over the block in numpy and leave ties and near-ties undecided; the
cross-power checks then settle in numpy the cells whose sides normalize
to the same factors and the exact ties that fit int64 and the digit
budget (vector.cross_power_ties).  The sweep then visits the block's rows
in order: undecided cells, rows the vector path cannot take and functions
without an int64 value table go to the scalar path, which is also what
recomputes a decided row's counterexamples up to the cap, so reports do
not depend on the path.  The local criteria and the identity bounds are
scalar.
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
# relation -> whether order LESS, EQUAL, GREATER, vector.UNDECIDED or
# vector.TIE fails it, indexed by order + 1 (a TIE fails as EQUAL does);
# _VISIT marks the orders the sweep calls compare at, the failing ones and
# vector.UNDECIDED (at index 3)
_FAILS = {rel: (*(o not in ok for o in (LESS, EQUAL, GREATER)), False, EQUAL not in ok)
          for rel, ok in _PASSING.items()}
_UNDECIDED_ONLY = np.array([False, False, False, True, False])
_ORDERS = len(_UNDECIDED_ONLY)
_VISIT = {rel: np.array(fails) | _UNDECIDED_ONLY for rel, fails in _FAILS.items()}


@dataclass(frozen=True)
class CheckConfig:
    max_m: int = 100
    max_n: int = 100
    k_set: tuple[int, ...] = (2,)
    stop_at_first: bool = False
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
# decide(rows) -> for each of a block of rows, the order at each col of
# cols(row), vector.UNDECIDED at the cells it leaves to compare, or None to
# leave it the whole row
Decide = Callable[[list], "list[np.ndarray | None]"]

_CELLS = 8192  # cells of a block of rows decided at once; bounds the temporaries


@dataclass(frozen=True)
class Property:
    """A relation between two sides, to be checked at every point.

    The points are (row, *col) for each row in rows and each col in
    cols(row), with coordinates named by names; a row of None (a line)
    adds no coordinate, so its points are the cols.  at(row) is the row's
    compare closure, called once per point as compare(*col).  limit is
    the sieve limit that covers every value the sweep evaluates.

    vector, when set, decides a block of consecutive rows at once: for
    each row of vector(rows), in order, the order of the two sides at
    every col of cols(row), in that order, with vector.UNDECIDED at the
    cells it cannot prove, or None when it can prove none of them; at(row)
    then decides those cells point by point.  vector.TIE marks an EQUAL
    that compare would have reached through its exact fallback, and
    counts as one."""

    names: tuple[str, ...]
    rows: Iterable[int | None]
    cols: Callable[[int | None], Sequence[tuple]]
    at: Callable[[int | None], Compare]
    relation: str  # SUB, SUP, EQ or LT
    limit: int = 0
    vector: Decide | None = None


def _blocks(prop: Property):
    """(row, cols(row), the order at each col, the number of cols at each
    order + 1) for each row of prop, in order.  prop.vector is asked once
    per block of consecutive rows of at most _CELLS cells in all, or of one
    row; the cells it leaves to compare are vector.UNDECIDED."""
    rows, colss, cells = [], [], 0
    for row in prop.rows:
        cols = prop.cols(row)
        if rows and cells + len(cols) > _CELLS:
            yield from _decided(prop, rows, colss)
            rows, colss, cells = [], [], 0
        rows.append(row)
        colss.append(cols)
        cells += len(cols)
    if rows:
        yield from _decided(prop, rows, colss)


def _decided(prop: Property, rows: list, colss: list):
    sizes = [len(cols) for cols in colss]
    decided = [None] * len(rows) if prop.vector is None else prop.vector(rows)
    orders = [np.full(size, vector.UNDECIDED, dtype=np.int8) if row is None else row
              for row, size in zip(decided, sizes)]
    at = np.concatenate(orders) + 1 + _ORDERS * np.repeat(np.arange(len(rows)), sizes)
    counts = np.bincount(at, minlength=_ORDERS * len(rows)).reshape(-1, _ORDERS)
    return zip(rows, colss, orders, counts.tolist())


# threads is pinned: perfbench/tracer.py reads it as args[2] (ROADMAP item 1)
def _sweep(prop: Property, cfg: CheckConfig,
           threads: int) -> tuple[str, list[Counterexample], int, dict]:
    """Check prop at every point: (verdict, the first
    cfg.counterexample_cap counterexamples, points checked, stats).

    compare runs, in column order, at every cell prop.vector leaves
    UNDECIDED (every cell of a row it returns None for), and at the failing
    cells it decides, up to the cap, to recompute their sides.  Exact
    fallbacks are counted at vector.TIE cells and where compare reports
    one at an UNDECIDED cell.  With cfg.stop_at_first the sweep ends after
    the first row that has a counterexample.

    threads is ignored: sweeps run on the calling thread.  It stays the
    third positional parameter only because the benchmark's tracer reads
    it there; sweep_report passes 1."""
    passing = _PASSING[prop.relation]
    fails, visit = _FAILS[prop.relation], _VISIT[prop.relation]
    cap = cfg.counterexample_cap
    cex: list[Counterexample] = []
    checked = failed = exact = 0
    for row, cols, orders, counts in _blocks(prop):
        checked += len(cols)
        exact += counts[vector.TIE + 1]
        failed_before = failed
        failed += sum(c for c, f in zip(counts, fails) if f)
        if counts[vector.UNDECIDED + 1] or (failed > failed_before and len(cex) < cap):
            compare = prop.at(row)
            lead = () if row is None else (row,)
            wanted = _UNDECIDED_ONLY if len(cex) == cap else visit
            todo = np.flatnonzero(wanted[orders + 1])
            for i, decided in zip(todo.tolist(), orders[todo].tolist()):
                fallback = decided == vector.UNDECIDED
                if not fallback and len(cex) == cap:
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
        if cfg.stop_at_first and failed > failed_before:
            break
    stats = {"exact_fallbacks": exact} if exact else {}
    return (REFUTED if failed else HOLDS), cex, checked, stats


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
         limit: int = 0,
         decide: Callable[[np.ndarray], np.ndarray | None] | None = None) -> Property:
    """A property with one coordinate: compare(x) at each point x, all in
    one row.  decide(xs), unless None, decides the points at once, given
    as an int64 array (see Property.vector)."""
    vector = None if decide is None else (
        lambda _: [decide(np.asarray(points, dtype=np.int64))])
    return Property((name,), (None,), lambda _: _Singletons(points),
                    lambda _: compare, relation, limit, vector)


def _grid(cfg: CheckConfig, compare: Compare, relation: str, limit: int,
          coprime: bool, decide) -> Property:
    """compare(m, n) over the (m, n) grid of cfg, only at coprime pairs
    when coprime is set.  decide(m, n), unless None, decides a block of
    rows at every column at once, given the rows as a column m and the
    columns as a row n (on a coprime grid, as a block with 1 in each
    left-out cell), both vector.Args: the orders at its cells and at each
    row whether they are proven, or None (see Property.vector)."""
    ns = np.arange(1, cfg.max_n + 1)
    every = [(n,) for n in range(1, cfg.max_n + 1)]

    def pick(m):
        return [(n,) for n in ns[np.gcd(ns, m) == 1].tolist()] if coprime else every

    def decide_block(rows):
        ms = np.array(rows, dtype=np.int64)[:, None]
        keep = np.gcd(ms, ns) == 1 if coprime else None
        # a left-out column is read at n = 1, and its order dropped
        decided = decide(vector.Arg(ms),
                         vector.Arg(ns if keep is None else np.where(keep, ns, 1)))
        if decided is None:
            return [None] * len(rows)
        orders, proven = decided
        if keep is not None:
            orders = [row[cols] for row, cols in zip(orders, keep)]
        proven = np.broadcast_to(proven, ms.shape)[:, 0].tolist()
        return [row if ok else None for row, ok in zip(orders, proven)]

    return Property(("m", "n"), range(1, cfg.max_m + 1), pick,
                    lambda m: partial(compare, m), relation, limit,
                    None if decide is None else decide_block)


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
    shape as formula() on int64 values of f, and at each row whether the
    bounds prove it exact; None for a block without tables."""
    shape = FORMULAS[family][0]

    def decide(m, n):
        try:
            return vector.orders(*shape(f, k, m, n))
        except vector.Unproven:
            return None

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
    time in int64 where ev's values have a table (see submult.vector),
    point by point with Fraction values elsewhere."""
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
    an exponent that is not an integer >= 0 is not proven, and the scalar
    path raises its error in place; None for a block without tables."""

    def decide(m, n):
        args = (m * n, m, n)
        try:
            fs, fok = zip(*(vector.positive(f(x)) for x in args))
            gs, gok = zip(*(vector.exponents(g(x)) for x in args))
        except vector.Unproven:
            return None
        fmn, fm, fn = fs
        gmn, gm, gn = (np.asarray(x.num, dtype=np.float64) for x in gs)
        orders = vector.power_orders(
            [(fmn.num, fmn.den, gmn)],
            [(fm.num, fm.den, gm * n.x), (fn.num, fn.den, gn * m.x)])
        return (vector.cross_power_ties(orders, m.x, n.x, fs, gs),
                reduce(operator.and_, fok + gok))

    return decide


def check_power_submult(f: ArithFn, g: ArithFn, direction: str, cfg: CheckConfig,
                        table: SpfTable, *, use_filter: bool = True) -> CheckReport:
    """Sub/sup-multiplicativity of h(n) = f(n)^(g(n)/n), decided exactly.

    h(mn) <= h(m) h(n) is equivalent, after raising both sides to the
    mn-th power, to f(mn)^g(mn) <= f(m)^(g(m) n) * f(n)^(g(n) m); both
    sides are products of integer powers of positive rationals, which
    cmp_power_products orders exactly.  g must be integer-valued.  Rows
    are decided in bulk by power_formula; the cells it leaves undecided,
    and every cell when use_filter is False, go to
    cmp_power_products_detail.
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
        order, used_exact = cmp_power_products_detail(lhs, rhs, use_filter=use_filter)
        return order, lhs, rhs, used_exact

    decide = None
    if use_filter:
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
    rules."""
    ev = Evaluator(f, table)

    def compare(n):
        v = ev(n)
        return cmp_values(v, n), v, Fraction(n), False

    prop = line("n", range(1, max_n + 1), compare,
                SUB if direction == "le" else SUP, max_n)
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
