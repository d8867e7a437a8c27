"""The mutation gate: one-line mutants of the exactness proofs and of the
code around them, each of which the tier-1 suite must kill.

For each mutant, src/ and tests/ (and perfbench/, whose tracer and
reference data tests read, and README.md, whose library snippet a test
runs) are copied to a temporary directory, the mutant's old text, which
occurs exactly once in its file (as test_engine.py checks), is replaced
by its new text, and pytest -x runs there, without that check, which
the mutant itself fails.  A mutant whose run passes survives.  One line
is printed per mutant, and the exit status is 1 if any survives.  A
killed mutant costs seconds, a survivor a full tier-1 run (about 30 s).

    python tests/mutants.py [NAME ...]
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 900  # seconds for one mutant's run; one that hangs counts as killed

V, C, L = "src/submult/vector.py", "src/submult/core.py", "src/submult/local.py"
K = "src/submult/checks.py"

# (name, file, old text, new text)
MUTANTS = [
    # the int64 proofs of vector's Rows and tables
    ("bits-63", V, "BITS = 62  #", "BITS = 63  #"),
    ("exact-keeps-int64-one-bit-past-the-bound", V,
     "reduce(bits, axis=None) <= BITS\n", "reduce(bits, axis=None) <= BITS + 1\n"),
    ("exact-skips-its-memory-check", V,
     "    if _TEMPS * (40 * cells.size", "    if False and _TEMPS * (40 * cells.size"),
    ("power-values-bounds-of-0", V,
     "return Row(self.num[at], self.den[at], nbits, dbits)",
     "return Row(self.num[at], self.den[at], 0, 0)"),
    ("orders-one-sided-bound", V,
     "bits = np.maximum(lhs.nbits + rhs.dbits, rhs.nbits + lhs.dbits)",
     "bits = lhs.nbits + rhs.dbits"),
    ("times-unchecked", V,
     "    if (_absmax(a).bit_length() + _absmax(b).bit_length() > BITS",
     "    if False and (_absmax(a).bit_length() + _absmax(b).bit_length() > BITS"),
    ("plus-unchecked", V,
     "    if (max(_absmax(a), _absmax(b)).bit_length() + 1 > BITS",
     "    if False and (max(_absmax(a), _absmax(b)).bit_length() + 1 > BITS"),
    ("rule-values-unproven", V,
     "    _prove(_absmax(num).bit_length(), _absmax(den).bit_length())", "    pass"),
    ("rule-values-bulk-takes-any-type", V,
     "ints = set(map(type, vals)) == {int}", "ints = True"),
    ("rule-values-bulk-overflow-escapes", V,
     "        try:\n            if ints:\n",
     "        if ints:\n            np.array(vals, dtype)\n        try:\n            if ints:\n"),
    ("rule-values-call-the-rule-at-exponent-0", V,
     "rule(p, k * a) if a else 1", "rule(p, k * a) if a or True else 1"),
    ("rule-values-2-at-exponent-0", V, "rule(p, k * a) if a else 1", "rule(p, k * a) if a else 2"),
    ("rule-values-proven-up-to-2^62", V,
     "if max(bits) > BITS - 1:", "if max(bits) > BITS:"),
    ("build-bytes-without-the-tables", V,
     "    return (entries * 8 * arrays + max(", "    return (max("),
    # the bulk power comparisons against the scalar filter and exact branch
    ("log2-pad-below-the-scalar-pad", V,
     "_PAD_ABS = 2 * core._PAD_ABS", "_PAD_ABS = core._PAD_ABS / 2"),
    ("bulk-ties-every-non-identical-cell", V,
     "orders.flat[todo[tie]] = TIE", "orders.flat[todo[~identical]] = TIE"),
    ("bulk-ties-beyond-the-digit-budget", V,
     "(1 + 1e-9) <= core.DEFAULT_DIGIT_BUDGET", "(1 + 1e-9) <= 10 * core.DEFAULT_DIGIT_BUDGET"),
    ("cross-power-ties-without-the-row-bound", V,
     "    rows = reduce(np.logical_and", "    rows = True | reduce(np.logical_and"),
    ("cross-power-ties-without-the-cell-bound", V,
     "    fits = (((reduced", "    fits = True | (((reduced"),
    ("power-ties-identical-reads-the-first-rhs-exponent", V,
     "(exps[1:].sum(axis=0) == exps[0])", "(exps[1] == exps[0])"),
    # swapping the two maps outright is equivalent: the tie test and fits
    # are symmetric in them
    ("power-ties-left-map-reads-rhs-numerators", V,
     "left, right = (np.sign(index), index)", "left, right = (0 * index, index)"),
    ("bit-lengths-of-python-ints-one-short", V,
     "otypes=[np.float64])(x)\n", "otypes=[np.float64])(x) - 1\n"),
    ("arg-bits-of-0-at-power-1", V,
     "            return _bit_lengths(tops)\n", "            return 0 * _bit_lengths(tops)\n"),
    # the decisions a block declines, where the scalar path raises
    ("positive-admits-0", V, "if not (row.num > 0).all():", "if not (row.num >= 0).all():"),
    ("exponents-admit-a-negative-value", V,
     "if (row.num < 0).any() or ", "if "),
    # a prime-power table with a zero divisor, which local's blocks decline
    ("decide-ignores-a-failed-prime-table", V,
     "        raise Unproven  # a zero divisor", "        pass  # a zero divisor"),
    ("k-powers-read-from-the-k-1-table", V,
     "            table = power_table(self.ev, k, self.count)",
     "            table = value_table(self.ev, self.limit, self.count)"),
    # the scalar power comparison, the oracle of the bulk ones
    ("exact-branch-flips-its-order", C, "    if a < b:", "    if a > b:"),
    ("exact-branch-ties-to-less", C, "    return EQUAL, True", "    return LESS, True"),
    ("digit-budget-only-with-the-filter", C,
     "    if est > DEFAULT_DIGIT_BUDGET:", "    if use_filter and est > DEFAULT_DIGIT_BUDGET:"),
    ("identical-sides-after-the-budget", C, "    if left == right:",
     "    if left == right and 2 * _estimated_digits(left) <= DEFAULT_DIGIT_BUDGET:"),
    ("digit-budget-of-10^7", C, "DEFAULT_DIGIT_BUDGET = 10**6", "DEFAULT_DIGIT_BUDGET = 10**7"),
    # the prime-power sweeps
    ("every-exponent-up-to-the-largest-read", L,
     "    return sorted(read)", "    return list(range(max(read) + 1))"),
    ("unread-exponents-hold-0", V,
     "np.full(max(exps) + 1, cells[1])", "np.full(max(exps) + 1, 0)"),
    ("k-e-not-recorded", L,
     "read.update(x.x.ravel().tolist(), (k * x.x).ravel().tolist())",
     "read.update(x.x.ravel().tolist())"),
    # the bridge's forward obligation, which needs f >= 0
    ("bridge-skips-its-positivity-check", L,
     "    elif not _nonnegative(f, crit, local):", "    elif False:"),
    # the sweep's blocks and the cells it visits
    ("sweep-cap-room-strict", K,
     "(np.cumsum(failing) <= room)", "(np.cumsum(failing) < room)"),
    ("declined-block-skips-keep", K,
     "        cells = np.full(np.broadcast_shapes(",
     "        return np.full(np.broadcast_shapes("),
    ("decided-block-skips-keep", K,
     "        cells = prop.vector(*coords)", "        return prop.vector(*coords)"),
    ("cols-in-fortran-order", K,
     "    return list(product(*(_axis(axis).tolist() for axis in prop.axes[1:])))",
     "    return [col[::-1] for col in product(*(_axis(axis).tolist()\n"
     "                                           for axis in prop.axes[:0:-1]))]"),
    # the axes as int64 arrays, and compare's points as Python ints
    ("range-axis-without-its-step", K,
     "np.arange(axis.start, axis.stop, axis.step, dtype=np.int64)",
     "np.arange(axis.start, axis.stop, dtype=np.int64)"),
    ("compare-sees-int64-rows", K,
     "zip(block[rs].tolist(), cs.tolist()", "zip(block[rs], cs.tolist()"),
    # one pass tallied for several relations (classify's sub/sup pairs)
    ("shared-pass-recomputes-by-the-first-relations-mask", K,
     "if fail_at[j][decided + 1] and len(cexs[j]) < cap]",
     "if fail_at[0][decided + 1] and len(cexs[j]) < cap]"),
    ("shared-pass-visits-by-the-first-relations-mask", K,
     "                failing = fail[flat + 1]", "                failing = fails[0][flat + 1]"),
    ("shared-pass-one-cap-across-relations", K,
     "and len(cexs[j]) < cap]", "and sum(map(len, cexs)) < cap]"),
    ("shared-pass-exact-fallbacks-in-the-first-report-only", K,
     "cex, points, dict(stats))", "cex, points, dict(stats) if cex is cexs[0] else {})"),
    ("classify-shares-the-coprime-sweep", K,
     "return FORMULAS[spec.family][0], spec.k, spec.family == MULTIPLICATIVE",
     "return FORMULAS[spec.family][0], spec.k"),
    # the test oracle: the scalar path must reach every sweep, classify's too
    ("oracle-patches-sweep-only", "tests/blocks.py",
     '    sweep_many = checks._sweep_many\n'
     '    with pytest.MonkeyPatch.context() as m:\n'
     '        m.setattr(checks, "_sweep_many", lambda prop, *args: sweep_many(',
     '    sweep = checks._sweep\n'
     '    with pytest.MonkeyPatch.context() as m:\n'
     '        m.setattr(checks, "_sweep", lambda prop, *args: sweep('),
    # reports
    ("render-value-misses-the-digit-limit", "src/submult/report.py",
     "    except ValueError:  # more digits", "    except TypeError:  # more digits"),
]


def run(file: str, old: str, new: str) -> tuple[bool, str]:
    """Whether tier-1 kills the mutant, and the first failing test or why."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".*"))
        shutil.copy(ROOT / "README.md", tmp)
        path = Path(tmp) / file
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{file}: the old text {old!r} occurs {text.count(old)} times")
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--deselect", "tests/test_engine.py::test_each_mutant_changes_one_place",
                 "tests"], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT} s"
    failed = re.search(r"^(FAILED|ERROR) (\S+)", proc.stdout, re.M)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return proc.returncode != 0, failed.group(2) if failed else last


def main(names: list[str]) -> int:
    unknown = set(names) - {name for name, *_ in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = []
    for name, file, old, new in MUTANTS:
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        killed, why = run(file, old, new)
        print(f"{'killed' if killed else 'SURVIVED'}  {name}  "
              f"({time.perf_counter() - t0:.0f} s)  {why}", flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(survivors)} survivor(s)" + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
