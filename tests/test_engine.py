"""The single sweep engine: the benchmark's traced names, the derived
sieve limit, and the formulas shared by global checks, local criteria
and named inequalities."""

import dataclasses
import importlib
import importlib.util
import itertools
import json
import math
import re
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from submult import checks, functions, inequalities, vector
from submult.checks import (
    HOLDS,
    REFUTED,
    CheckConfig,
    run_property_check,
    sieve_limit,
    sweep_report,
)
from submult.cli import main
from submult.core import EQUAL, GREATER, LESS, build_spf_table, primes_upto
from submult.inequalities import verify_eq16, verify_eq23
from submult.inference import (
    FAMILIES,
    K_FAMILIES,
    K_SUB_MULT,
    K_SUP_MULT,
    MULTIPLICATIVE,
    SUP_MULT,
    PropertySpec,
)
from submult.local import EQ22, LocalCriterion, check_local, prime_power_property

from blocks import scalar_oracle
from mutants import MUTANTS, ROOT
from oracles import d_oracle, phi_oracle, sigma_oracle, spf_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


# --- benchmark contract --------------------------------------------------------


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return getattr(owner, attr)


def test_benchmark_tracer_wraps_and_restores_every_traced_name(capsys):
    tracer_mod = _load_tracer()
    targets = [(module, path) for module, path, _, _ in tracer_mod.TARGETS]
    originals = {t: _resolve(*t) for t in targets}
    tracer = tracer_mod.Tracer()
    tracer.install()  # raises LookupError if a traced name has gone
    try:
        for t, orig in originals.items():
            assert _resolve(*t).__wrapped__ is orig, t
        main(["local", "sigma", "eq21", "sup", "--bridge", "--max-prime", "7",
              "--max-exp", "2", "--max-m", "6", "--max-n", "6", "--json"])
        bridged = json.loads(capsys.readouterr().out)["reports"]
        main(["inequality", "eq13", "--max-n", "50", "--json"])
        # n^n < n^n: every point is a tie the vector filter leaves undecided
        main(["inequality", "corollary1", "--f", "identity", "--g", "identity",
              "--max-prime", "7", "--max-n", "10", "--json"])
    finally:
        tracer.uninstall()
    for t, orig in originals.items():
        assert _resolve(*t) is orig, t
    capsys.readouterr()
    totals = tracer.totals()
    # every sweep runs through checks._sweep: 4 primes x 9 exponent pairs
    # locally, 36 global pairs, 49 eq13 points, 4 primes and 9 points of
    # corollary1
    assert totals["checks.sweep"]["calls"] == 5
    assert totals["checks.sweep"]["points"] == 4 * 9 + 36 + 49 + 4 + 9
    # the local triples are decided on exact Python ints and the global
    # pairs in int64; only their counterexamples' sides are recomputed
    # with Fractions
    local_cex, global_cex = (len(r["counterexamples"]) for r in bridged[:2])
    assert totals["core.cmp_values"]["calls"] == local_cex + global_cex
    # the vector log2 filter decides every eq13 point; only the cells it
    # leaves undecided, here the corollary1 ties, reach the scalar comparison
    assert totals["core.cmp_power"]["calls"] == 4 + 9
    assert totals["core.factorize"]["calls"] > 0


def _perfbench(monkeypatch):
    """The benchmark's workloads and worker modules, imported from perfbench/."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("workloads"), importlib.import_module("worker")


@pytest.mark.parametrize("scale", ["tiny", "full"])
def test_benchmark_commands_match_the_reference(monkeypatch, scale):
    # every command the benchmark can run, at each scale, run as the
    # benchmark runs it: the exit code, the reports' projection and the
    # inferred tags its reference records
    workloads, worker = _perfbench(monkeypatch)
    reference = json.loads((PERFBENCH / "reference.json").read_text())[scale]
    cmds = workloads.all_commands(scale)
    assert sorted(cmd.key for cmd in cmds) == sorted(reference)
    for cmd in cmds:
        assert worker.outcome(*worker.run_command(cmd)) == reference[cmd.key], cmd.key


VECTOR_PATH = ("orders", "power_orders", "power_ties")


def test_the_scalar_oracle_reaches_every_sweep(monkeypatch):
    """Inside scalar_oracle no benchmark command reaches the vector
    comparisons, which the same commands call outside it."""
    workloads, worker = _perfbench(monkeypatch)
    calls = []
    for name in VECTOR_PATH:
        def spy(*args, _name=name, _f=getattr(vector, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(vector, name, spy)
    cmds = workloads.all_commands("tiny")
    for cmd in cmds:
        worker.run_command(cmd)
    assert set(calls) == set(VECTOR_PATH)
    calls.clear()
    with scalar_oracle():
        for cmd in cmds:
            worker.run_command(cmd)
    assert calls == []


def _without_costs(reports):
    return [{key: value for key, value in report.items()
             if key not in ("elapsed_seconds", "stats")} for report in reports]


def test_every_benchmark_command_matches_the_scalar_oracle(monkeypatch):
    """Every command the benchmark can run at the tiny scale gives the same
    exit code, reports and inferred tags on the scalar path, all but the
    time and the stats, which count the exact fallbacks the oracle forces."""
    workloads, worker = _perfbench(monkeypatch)
    cmds = workloads.all_commands("tiny")
    assert len(cmds) == 28
    for cmd in cmds:
        code, reports, tags = worker.run_command(cmd)
        with scalar_oracle():
            scalar_code, scalar_reports, scalar_tags = worker.run_command(cmd)
        assert ((code, _without_costs(reports), tags)
                == (scalar_code, _without_costs(scalar_reports), scalar_tags)), cmd.key


@pytest.mark.parametrize("direction", ["sup", "sub"])
def test_local_criteria_are_decided_in_bulk(capsys, monkeypatch, direction):
    # the benchmark's local command, and its refuted converse: only the
    # sides of the counterexamples the reports list reach cmp_values
    calls = []

    def counting(x, y, cmp_values=checks.cmp_values):
        calls.append((x, y))
        return cmp_values(x, y)

    monkeypatch.setattr(checks, "cmp_values", counting)
    main(["local", "sigma", "eq21", direction, "--bridge", "--max-prime", "100",
          "--max-exp", "12", "--max-m", "120", "--max-n", "120", "--json"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert reports[0]["triples_checked"] == 25 * 13 * 13
    assert len(calls) == sum(len(r["counterexamples"]) for r in reports[:2])


# --- sieve limit ---------------------------------------------------------------


ALL_SPECS = ([PropertySpec(f) for f in FAMILIES if f not in K_FAMILIES]
             + [PropertySpec(f, k) for f in K_FAMILIES for k in (2, 3, 4)])


@pytest.fixture
def factored(monkeypatch):
    """Every argument the global sweeps factor through the sieve, and the
    top of every int64 value table they read."""
    seen = []

    def recording_factorize(n, table, factorize=functions.factorize):
        seen.append(n)
        return factorize(n, table)

    def recording_table(ev, limit, bound=None, table=vector.value_table):
        seen.append(limit)
        return table(ev, limit, bound)

    monkeypatch.setattr(functions, "factorize", recording_factorize)
    monkeypatch.setattr(vector, "value_table", recording_table)
    return seen


@pytest.mark.parametrize("spec", ALL_SPECS, ids=PropertySpec.label)
@pytest.mark.parametrize("max_m, max_n", [(9, 7), (7, 9)])
def test_sieve_limit_is_the_closed_form_and_suffices(registry, factored, spec,
                                                     max_m, max_n):
    # every family factors m, n and m n, and the bases m, n of m^k, n^k
    cfg = CheckConfig(max_m=max_m, max_n=max_n)
    limit = sieve_limit([spec], cfg)
    assert limit == max_m * max_n
    run_property_check(registry.get("sigma"), spec, cfg, build_spf_table(limit))
    assert factored and max(factored) <= limit


def _announced_limit(err):
    return int(re.search(r"sieve limit: (\d+)", err).group(1))


def test_classify_sieve_limit(capsys, factored):
    main(["classify", "phi", "--max-m", "12", "--max-n", "9", "--k-set", "2,3,4"])
    limit = _announced_limit(capsys.readouterr().err)
    assert limit == 12 * 9
    assert max(factored) <= limit


@pytest.mark.parametrize("criterion, k", [("eq14", None), ("eq18", 3),
                                          ("eq21", None), ("eq22", 3)])
def test_local_bridge_sieve_limit(capsys, factored, criterion, k):
    argv = ["local", "sigma", criterion, "sup", "--bridge", "--max-prime", "5",
            "--max-exp", "2", "--max-m", "12", "--max-n", "9"]
    main(argv + (["--k", str(k)] if k else []))
    limit = _announced_limit(capsys.readouterr().err)
    assert limit == 12 * 9
    assert max(factored) <= limit


@pytest.fixture
def no_trial_division(monkeypatch):
    """trial_factorize raises wherever the package binds it."""
    def refuse(n):
        raise AssertionError(f"trial division of {n}")

    for module in ("core", "functions", "local"):
        monkeypatch.setattr(f"submult.{module}.trial_factorize", refuse)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("family", K_FAMILIES)
def test_k_sweeps_never_trial_divide(registry, no_trial_division, family, k):
    cfg = CheckConfig(max_m=12, max_n=9, counterexample_cap=3)
    spec = PropertySpec(family, k)
    table = build_spf_table(sieve_limit([spec], cfg))
    for fn in registry.functions():
        run_property_check(fn, spec, cfg, table)


@pytest.mark.parametrize("argv", [
    ["classify", "d", "--k-set", "2,3,4"],
    ["local", "sigma", "eq18", "sup", "--k", "3", "--bridge", "--max-prime", "5",
     "--max-exp", "2"],
    ["local", "phi", "eq22", "sub", "--k", "3", "--bridge", "--max-prime", "5",
     "--max-exp", "2"],
], ids=["classify", "eq18", "eq22"])
def test_commands_never_trial_divide(capsys, no_trial_division, argv):
    assert main(argv + ["--max-m", "12", "--max-n", "9", "--json"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["reports"]


# --- formulas shared by checks, local criteria and inequalities ------------------

ORACLES = {"phi": phi_oracle, "d": d_oracle, "sigma": sigma_oracle}


def _outcome(report, count):
    return (report.verdict,
            [(c.point, c.lhs, c.rhs) for c in report.counterexamples], count)


def _brute_force_local(oracle, crit, max_prime, max_exp):
    """The local criterion written out on divisor-enumeration oracles."""
    f = cache(oracle)
    k = crit.k or 1
    hom = crit.criterion in ("eq21", "eq22")
    cex, count = [], 0
    for p in (q for q in range(2, max_prime + 1) if spf_oracle(q) == q):
        for a in range(max_exp + 1):
            for b in range(max_exp + 1):
                count += 1
                lhs = f(p ** (a + b)) ** k
                rhs = (p ** (k * a) if hom else f(p ** (k * a))) * f(p ** (k * b))
                if not (lhs <= rhs if crit.direction == "sub" else lhs >= rhs):
                    cex.append(((("p", p), ("a", a), ("b", b)), lhs, rhs))
    return (REFUTED if cex else HOLDS), cex[:10], count


@pytest.mark.parametrize("case", ["eq23-k2", "eq23-k3", "eq16",
                                  "oracle-phi", "oracle-d", "oracle-sigma"])
def test_shared_formulas_agree(registry, case):
    if case.startswith("eq23"):
        k = int(case[-1])
        ineq = verify_eq23(30, 6, k)
        local = check_local(registry.get("phi"), LocalCriterion(EQ22, "sub", k), 30, 6)
        assert (_outcome(ineq, ineq.pairs_checked)
                == _outcome(local, local.triples_checked))
    elif case == "eq16":
        ineq = verify_eq16(30, 6)
        # eq14 sup on the registry's sigma_over_d, at a, b >= 1
        prop = prime_power_property(registry.get("sigma_over_d"), SUP_MULT, None,
                                    primes_upto(30), range(1, 7))
        eq14 = sweep_report("sigma_over_d", "eq14:sup", {}, prop, CheckConfig())
        assert _outcome(ineq, ineq.pairs_checked) == _outcome(eq14, eq14.pairs_checked)
    else:
        name = case.split("-")[1]
        for criterion, k in (("eq14", None), ("eq18", 2), ("eq21", None), ("eq22", 2)):
            for direction in ("sub", "sup"):
                crit = LocalCriterion(criterion, direction, k)
                report = check_local(registry.get(name), crit, 5, 3)
                assert (_outcome(report, report.triples_checked)
                        == _brute_force_local(ORACLES[name], crit, 5, 3)), crit.label()


# --- the contract of Property.vector ----------------------------------------------


def _swept(monkeypatch, module, run):
    """The Property that run() hands to module's sweep_report."""
    props = []
    monkeypatch.setattr(module, "sweep_report", lambda *args: props.append(args[3]))
    run()
    return props[0]


REGISTRY = functions.builtin_registry()


def _grid(fn, spec, size):
    cfg = CheckConfig(max_m=size, max_n=size)
    return lambda mp, table: checks.grid_property(functions.Evaluator(fn, table), spec, cfg)


VECTOR_BUILDERS = {
    "grid": _grid(REGISTRY.get("sigma"), PropertySpec(SUP_MULT), 30),
    "coprime-grid": _grid(REGISTRY.get("n_plus_d"), PropertySpec(MULTIPLICATIVE), 30),
    # f(mn)^2 = (mn)^8 fits in 62 bits in the first rows only, and the
    # others are decided on Python ints
    "python-int-rows": _grid(functions.make_prime_power_fn("n^4", lambda p, a: p ** (4 * a)),
                           PropertySpec(K_SUB_MULT, 2), 40),
    "identity-bound": lambda mp, table: _swept(
        mp, checks, lambda: checks.check_identity_bound(REGISTRY.get("sigma"), "ge", 500,
                                                        table)),
    # a line of three blocks
    "long-identity-bound": lambda mp, table: _swept(
        mp, checks, lambda: checks.check_identity_bound(
            REGISTRY.get("sigma"), "ge", 2 * checks._CELLS + 5,
            build_spf_table(2 * checks._CELLS + 5))),
    "eq13": lambda mp, table: _swept(
        mp, inequalities, lambda: inequalities.verify_eq13(300, table=table)),
    "cross-power": lambda mp, table: _swept(
        mp, checks, lambda: checks.check_power_submult(
            REGISTRY.get("sigma"), REGISTRY.get("identity"), checks.SUB,
            CheckConfig(max_m=12, max_n=12), table)),
    "prime-powers": lambda mp, table: prime_power_property(
        REGISTRY.get("sigma"), K_SUP_MULT, 3, primes_upto(30), range(5)),
    "eq20": lambda mp, table: _swept(
        mp, inequalities, lambda: inequalities.verify_eq20(12, 5)),
}
ORDERS = {LESS, EQUAL, GREATER, vector.UNDECIDED, vector.TIE, checks.GAP}


def _is_point(builder):
    """Whether a tuple of the axes of the builder's Property is one of its
    points: the coprime pairs on the coprime grid, every tuple elsewhere."""
    if builder == "coprime-grid":
        return lambda point: math.gcd(*point) == 1
    return lambda point: True


@pytest.mark.parametrize("builder", VECTOR_BUILDERS)
def test_vector_returns_one_int8_row_per_row_over_its_cols(monkeypatch, table_10k, builder):
    prop = VECTOR_BUILDERS[builder](monkeypatch, table_10k)
    rows, cols = list(prop.axes[0]), checks._cols(prop)
    per = max(1, checks._CELLS // len(cols))
    seen = set()
    for block in (rows[:per], rows[-1:], rows[len(rows) // 2:][:3]):
        cells = checks._block(prop, block, checks._col_coords(cols))
        assert isinstance(cells, np.ndarray) and cells.dtype == np.int8
        assert cells.shape == (len(block), len(cols))
        # GAP exactly at the tuples of the axes that are no point
        assert (cells != checks.GAP).tolist() == [
            [_is_point(builder)((row, *col)) for col in cols] for row in block]
        seen |= set(np.unique(cells).tolist())
    assert seen <= ORDERS
    if builder == "coprime-grid":
        assert checks.GAP in seen
    # only the power filters leave cells to compare: every other block is
    # decided whole, not declined
    if builder not in ("eq13", "cross-power"):
        assert vector.UNDECIDED not in seen


@pytest.mark.parametrize("builder", VECTOR_BUILDERS)
def test_each_vector_call_decides_at_most_a_block(monkeypatch, table_10k, builder):
    """The sweep hands Property.vector the coordinates of a run of at most
    max(1, _CELLS // cols) rows, as int64 arrays, the rows a column and
    each other axis a row over the cols, and gets back the block's cells:
    at most _CELLS of them or one row, so that a line longer than _CELLS
    points is decided a run of points at a time."""
    prop = VECTOR_BUILDERS[builder](monkeypatch, table_10k)
    cols = checks._cols(prop)
    shapes = []

    def spy(rows, *others):
        assert rows.dtype == np.int64 and rows.shape[1:] == (1,)
        assert [axis.ravel().tolist() for axis in others] == [list(axis) for axis in zip(*cols)]
        assert all(axis.dtype == np.int64 and axis.shape[0] == 1 for axis in others)
        cells = prop.vector(rows, *others)
        shapes.append((len(rows), cells.shape))
        return cells

    checks._sweep(dataclasses.replace(prop, vector=spy), CheckConfig(), 1)
    per = max(1, checks._CELLS // len(cols))
    assert sum(rows for rows, _ in shapes) == len(prop.axes[0])
    for rows, (height, width) in shapes:
        assert rows == height <= per and width == len(cols)
        assert height * width <= checks._CELLS or height == 1


@pytest.mark.parametrize("builder", VECTOR_BUILDERS)
def test_the_scalar_path_compares_the_product_of_the_axes_in_order(monkeypatch, table_10k,
                                                                   builder):
    """Without a vector path the sweep compares each point once, in
    lexicographic order: every tuple of the product of the axes that keep
    leaves a point, and it counts as many."""
    prop = VECTOR_BUILDERS[builder](monkeypatch, table_10k)
    assert (prop.keep is None) == (builder != "coprime-grid")
    seen = []

    def spy(*point):
        seen.append(point)
        return prop.compare(*point)

    _, _, checked, _ = checks._sweep(dataclasses.replace(prop, vector=None, compare=spy),
                                     CheckConfig(), 1)
    points = list(filter(_is_point(builder), itertools.product(*prop.axes)))
    assert seen == points and checked == len(points)


_AXIS_KINDS = {"list": list, "array": lambda axis: np.array(axis, dtype=np.int64)}


@pytest.mark.parametrize("kind", _AXIS_KINDS)
@pytest.mark.parametrize("builder, axes", [
    ("grid", (range(1, 31, 3), range(2, 31, 2))),
    ("coprime-grid", (range(2, 31, 4), range(1, 31, 3))),
    ("prime-powers", (primes_upto(30)[::2], range(0, 5, 2), range(1, 5))),
])
def test_a_sweep_decides_the_same_on_any_kind_of_axis(monkeypatch, table_10k, builder, axes,
                                                      kind):
    """The sweep takes each axis, a range (of any step), a list or an array,
    as int64 arrays for its blocks, and gives the same result on every
    kind, on the vector and the scalar path; compare and the
    counterexamples see Python ints, so no p**a or m*n can wrap."""
    prop = VECTOR_BUILDERS[builder](monkeypatch, table_10k)
    compare, seen = prop.compare, []

    def spy(*point):
        seen.append(point)
        return compare(*point)

    prop = dataclasses.replace(prop, axes=axes, compare=spy)
    converted = dataclasses.replace(prop, axes=tuple(map(_AXIS_KINDS[kind], axes)))
    results = [checks._sweep(dataclasses.replace(p, vector=vec), CheckConfig(), 1)
               for p in (prop, converted) for vec in (p.vector, None)]
    assert all(result == results[0] for result in results)
    assert seen and all(type(x) is int for point in seen for x in point)
    assert all(type(x) is int for _, cexs, _, _ in results for cex in cexs
               for x in cex.coords())


@pytest.mark.parametrize("path", ["vector", "scalar"])
@pytest.mark.parametrize("builder", VECTOR_BUILDERS)
def test_one_pass_tallies_each_relation_as_its_own_sweep(monkeypatch, table_10k,
                                                         builder, path):
    """_sweep_many over several relations gives each what _sweep gives the
    property with that relation alone: verdict, counterexamples up to the
    cap, points and stats, on the vector path and on the scalar path."""
    prop = VECTOR_BUILDERS[builder](monkeypatch, table_10k)
    if path == "scalar":
        prop = dataclasses.replace(prop, vector=None)
    cfg = CheckConfig(counterexample_cap=3)
    relations = (checks.SUB, checks.SUP, checks.EQ, checks.LT)
    shared = checks._sweep_many(prop, cfg, relations)
    assert shared == [checks._sweep(dataclasses.replace(prop, relation=rel), cfg, 1)
                      for rel in relations]
    # the cross-power grid's exact ties are counted for every relation
    if builder == "cross-power":
        assert all(stats["exact_fallbacks"] > 0 for *_, stats in shared)


# --- the mutation gate ---------------------------------------------------------


@pytest.mark.parametrize("name, file, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_each_mutant_changes_one_place(name, file, old, new):
    """tests/mutants.py, the gate run by hand, can only apply each mutant
    while its old text occurs exactly once in its file."""
    assert (ROOT / file).read_text().count(old) == 1 and new != old
