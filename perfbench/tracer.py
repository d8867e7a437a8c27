"""Per-layer tracing from outside the program.

The tracer replaces each traced function where a submult module binds it
(``checks.cmp_values``, ``core._sieve.spf_sieve``, ...) with a wrapper that
counts calls and time, and restores the originals afterwards.  Nothing
under ``src/`` changes.  A traced name that no longer exists raises
``LookupError`` at install time, so a refactor cannot silently zero a
layer: update ``TARGETS`` instead.

Coarse layers (commands, checkers, sweeps, the sieve) also record spans
(id, parent id, layer, start, end, thread), kept in memory and written at
the end of the run.  Hot per-pair layers (evaluation, comparison,
factorization) are only aggregated as count and time.  Counters are per
thread and merged when read.  A layer's self time is its time minus the
time of traced calls made inside it on the same thread; with
``--threads 2`` the pool threads' calls are not subtracted from the
calling sweep.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict

# (module, attribute path, layer, records spans)
TARGETS = (
    ("submult.core", "_sieve.spf_sieve", "core.sieve", True),
    ("submult.functions", "factorize", "core.factorize", False),
    ("submult.inequalities", "factorize", "core.factorize", False),
    ("submult.functions", "trial_factorize", "core.trial_factorize", False),
    ("submult.local", "trial_factorize", "core.trial_factorize", False),
    ("submult.functions", "evaluate", "functions.evaluate", False),
    ("submult.functions", "Evaluator.__call__", "functions.evaluator", False),
    ("submult.checks", "cmp_values", "core.cmp_values", False),
    ("submult.checks", "cmp_power_products_detail", "core.cmp_power", False),
    ("submult.inequalities", "cmp_power_products_detail", "core.cmp_power", False),
    ("submult.checks", "_sweep", "checks.sweep", True),
    ("submult.cli", "run_property_check", "checks.checker", True),
    ("submult.cli", "classify", "checks.checker", True),
    ("submult.checks", "reports_for_tag", "checks.checker", True),
    ("submult.cli", "check_local", "local.check", True),
    ("submult.cli", "bridge_consistency", "local.bridge", True),
    ("submult.cli", "verify_eq12", "inequalities.verify", True),
    ("submult.cli", "verify_eq13", "inequalities.verify", True),
    ("submult.cli", "verify_corollary1", "inequalities.verify", True),
    ("submult.functions", "close_tags", "inference.close", True),
    ("submult.inference", "close_tags", "inference.close", True),
    ("submult.report", "make_envelope", "report", True),
    ("submult.report", "envelope_to_json", "report", True),
)


def _count_sieve(agg, args, result, parent, dt):
    agg["entries"] += args[0] + 1
    agg["bytes"] += result.nbytes  # computed: the table's array size


def _count_evaluate(agg, args, result, parent, dt):
    if parent is not None and parent[1] == "functions.evaluator":
        agg["misses"] += 1  # an Evaluator lookup that had to evaluate


def _count_cmp_power(agg, args, result, parent, dt):
    path = "exact" if result[1] else "filter"
    agg[path] += 1
    agg[path + "_time"] += dt


def _count_sweep(agg, args, result, parent, dt):
    agg["points"] += result[2]
    agg["counterexamples"] += len(result[1])


def _count_local(agg, args, result, parent, dt):
    agg["triples"] += result.triples_checked


def _count_verify(agg, args, result, parent, dt):
    reports = result if isinstance(result, tuple) else (result,)
    agg["points"] += sum(r.pairs_checked for r in reports)


def _count_close(agg, args, result, parent, dt):
    agg["tags"] += sum(len(tags) for tags in result.values())


def _count_report(agg, args, result, parent, dt):
    if isinstance(result, str):  # envelope_to_json; make_envelope returns a dict
        agg["bytes"] += len(result.encode())


_EXTRA = {
    "core.sieve": _count_sieve,
    "functions.evaluate": _count_evaluate,
    "core.cmp_power": _count_cmp_power,
    "checks.sweep": _count_sweep,
    "local.check": _count_local,
    "inequalities.verify": _count_verify,
    "inference.close": _count_close,
    "report": _count_report,
}


class _ThreadState:
    def __init__(self):
        # frame: [child seconds, layer, id of the innermost enclosing span]
        self.stack: list[list] = []
        self.agg: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.spans: list[tuple] = []
        self.thread = threading.get_ident()


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._saved: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self.pass_index = 0

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = self._tls.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def reset(self) -> None:
        """Zero the counters; call between passes, with no traced call running."""
        for st in self._states:
            st.agg.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for st in self._states:
            for layer, agg in st.agg.items():
                for key, val in agg.items():
                    out[layer][key] += val
        return out

    def spans(self) -> list[dict]:
        keys = ("id", "parent", "layer", "start", "end", "thread", "pass")
        rows = [dict(zip(keys, s)) for st in self._states for s in st.spans]
        return sorted(rows, key=lambda r: r["start"])

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, span: bool):
        state, ids, perf = self._state, self._ids, time.perf_counter
        extra = _EXTRA.get(layer)
        sweep = layer == "checks.sweep"
        tracer = self

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            outer = parent[2] if parent is not None else None
            frame = [0.0, layer, next(ids) if span else outer]
            stack.append(frame)
            c0 = time.process_time() if sweep else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                agg = st.agg[layer]
                agg["calls"] += 1
                agg["time"] += dt
                agg["self"] += dt - frame[0]
                if sweep and args[2] > 1:  # the sweep ran on the thread pool
                    agg["pool_cpu"] += time.process_time() - c0
                    agg["pool_time"] += dt
                if span:
                    st.spans.append((frame[2], outer, layer, t0, t0 + dt,
                                     st.thread, tracer.pass_index))
            if extra is not None:
                extra(agg, args, result, parent, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, layer: str, fn, *args):
        """Run fn(*args) as a traced span of the given layer (e.g. a command)."""
        return self._wrap(fn, layer, True)(*args)

    def install(self) -> None:
        for module, path, layer, span in TARGETS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for name in parents:
                    owner = getattr(owner, name)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.uninstall()
                raise LookupError(
                    f"traced name {module}.{path} no longer exists; "
                    "update perfbench/tracer.py TARGETS") from None
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, layer, span))

    def uninstall(self) -> None:
        """Restore every original and check that each one is back in place."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
            if getattr(owner, attr) is not orig:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
