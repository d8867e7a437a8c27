"""One workload in a fresh interpreter; started by perfbench/run.py.

Imports submult from the checkout's ``src/``, runs the workload's commands
back to back (one *pass*) until the measuring window is over, checks
every command against the reference data, and prints one JSON object on
its last stdout line.  With ``--setup-probe`` it only times the set-up
(import submult, build the registry and its tag closure) and prints it.

Untraced runs (``--trace 0``) time every pass.  Traced runs alternate an
untraced and a traced pass, so the tracing overhead is measured in the
same process, and check that a traced pass reports exactly what an
untraced one does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from oracle import check_first_counterexample, points_checked, project
from tracer import Tracer
from workloads import commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
MIN_PASSES = 3  # per kind of pass, whatever the window
MAX_FAILURE_NOTES = 20


def setup() -> float:
    """Import submult from the checkout and build the registry; seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import submult
    from submult.functions import builtin_registry

    builtin_registry().closed_tags()
    elapsed = time.perf_counter() - t0
    where = Path(submult.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"submult was imported from {where}, not from {ROOT / 'src'}")
    return elapsed


def run_command(cmd) -> tuple[int, list[dict], list[str] | None]:
    """Run one command; (exit code, JSON reports, inferred tags or None)."""
    from submult import checks, cli, core, functions, inference, report

    if not cmd.is_power:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cmd.cli_argv())
        return code, json.loads(out.getvalue())["reports"], None
    _, base, expo, size = cmd.key.split()
    reg = functions.builtin_registry()
    fn = functions.combine(functions.POWER, (reg.get(base), reg.get(expo)),
                           name=f"{base}^{expo}")
    known = [*reg.tags_for(base), *reg.tags_for(expo)]
    tags = [t for t in inference.infer_properties(fn, known) if t.subject == fn.name]
    cfg = checks.CheckConfig(max_m=int(size), max_n=int(size))
    table = core.build_spf_table(cfg.max_m * cfg.max_n)
    reports = [report.report_to_json(r) for tag in tags
               for r in checks.reports_for_tag(fn, tag, cfg, table,
                                               threads=cmd.threads)]
    code = 1 if any(r["verdict"] == checks.REFUTED for r in reports) else 0
    return code, reports, [t.label() for t in tags]


def outcome(code: int, reports: list[dict], tags) -> dict:
    """What the reference records for a command."""
    out = {"exit": code, "reports": [project(r) for r in reports]}
    if tags is not None:
        out["tags"] = tags
    return out


class Runner:
    """Runs passes and keeps the correctness tally of the whole run."""

    def __init__(self, cmds, reference: dict, tracer=None):
        self.cmds = cmds
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.oracle_checked: set[str] = set()
        self.untraced_outcome: dict[str, dict] = {}

    def _fail(self, cmd, why: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{cmd.key}: {why}")

    def one_pass(self, traced: bool) -> dict:
        """Run every command once; timings of the pass, checked afterwards."""
        results, durations, cpus = [], [], []
        for cmd in self.cmds:
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            try:
                if traced:
                    result = self.tracer.span("command", run_command, cmd)
                else:
                    result = run_command(cmd)
            except Exception as exc:  # a crash is a failed command; keep going
                result = exc
            durations.append(time.perf_counter() - t0)
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            cpus.append(ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime)
            results.append(result)

        points = 0
        for cmd, result in zip(self.cmds, results):
            self.attempted += 1
            if isinstance(result, Exception):
                self._fail(cmd, f"raised {type(result).__name__}: {result}")
                continue
            got = outcome(*result)
            points += sum(points_checked(r) for r in got["reports"])
            want = self.reference.get(cmd.key)
            if want is None:
                self._fail(cmd, "no reference entry")
                continue
            if got != want:
                self._fail(cmd, "exit code or reports differ from the reference")
                continue
            if traced:
                if got != self.untraced_outcome.get(cmd.key):
                    self._fail(cmd, "traced run differs from the untraced run")
                    continue
            else:
                self.untraced_outcome[cmd.key] = got
            if cmd.key not in self.oracle_checked:
                self.oracle_checked.add(cmd.key)
                for rep in result[1]:
                    try:
                        why = check_first_counterexample(rep)
                    except Exception as exc:  # an oracle crash fails the command
                        why = f"oracle raised {type(exc).__name__}: {exc}"
                    if why:
                        self._fail(cmd, why)
                        break
        return {"wall": sum(durations), "durations": durations, "cpus": cpus,
                "points": points}


def layer_metrics(t: dict, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass from the tracer's totals."""

    def g(layer, key):
        return float(t.get(layer, {}).get(key, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    lookups = g("functions.evaluator", "calls")
    cp_calls = g("core.cmp_power", "calls")
    return {
        "core.sieve.calls": g("core.sieve", "calls"),
        "core.sieve.time_s": g("core.sieve", "time"),
        "core.sieve.entries": g("core.sieve", "entries"),
        "core.sieve.bytes": g("core.sieve", "bytes"),
        "core.sieve.share": ratio(g("core.sieve", "time"), untraced_wall),
        "core.factorize.calls": g("core.factorize", "calls"),
        "core.factorize.time_s": g("core.factorize", "time"),
        "core.trial_factorize.calls": g("core.trial_factorize", "calls"),
        "core.trial_factorize.time_s": g("core.trial_factorize", "time"),
        "functions.evaluate.calls": g("functions.evaluate", "calls"),
        "functions.evaluate.time_s": g("functions.evaluate", "time"),
        "functions.evaluator.lookups": lookups,
        "functions.evaluator.hit_ratio":
            ratio(lookups - g("functions.evaluate", "misses"), lookups),
        "core.cmp_values.calls": g("core.cmp_values", "calls"),
        "core.cmp_values.time_s": g("core.cmp_values", "time"),
        "core.cmp_power.calls": cp_calls,
        "core.cmp_power.filter_decided": g("core.cmp_power", "filter"),
        "core.cmp_power.exact": g("core.cmp_power", "exact"),
        "core.cmp_power.filter_ratio": ratio(g("core.cmp_power", "filter"), cp_calls),
        "core.cmp_power.filter_time_s": g("core.cmp_power", "filter_time"),
        "core.cmp_power.exact_time_s": g("core.cmp_power", "exact_time"),
        "checks.sweep.calls": g("checks.sweep", "calls"),
        "checks.sweep.time_s": g("checks.sweep", "time"),
        "checks.sweep.self_s": g("checks.sweep", "self"),
        "checks.sweep.points": g("checks.sweep", "points"),
        "checks.sweep.counterexamples": g("checks.sweep", "counterexamples"),
        "checks.sweep.cpu_per_wall":
            ratio(g("checks.sweep", "pool_cpu"), g("checks.sweep", "pool_time")),
        "local.check.time_s": g("local.check", "time"),
        "local.triples": g("local.check", "triples"),
        "local.bridge.time_s": g("local.bridge", "time"),
        "inequalities.verify.time_s": g("inequalities.verify", "time"),
        "inequalities.points": g("inequalities.verify", "points"),
        "inference.close.time_s": g("inference.close", "time"),
        "inference.close.tags": g("inference.close", "tags"),
        "report.time_s": g("report", "time"),
        "report.bytes": g("report", "bytes"),
    }


def typical_pass(passes: list[dict], key: str) -> float:
    """Sum over commands of each command's median over passes.

    Less sensitive than the median pass to slow spells of a shared
    machine that hit one command of a pass but not the others."""
    return sum(statistics.median(col) for col in zip(*(p[key] for p in passes)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    setup_s = setup()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    from submult.core import kernel_backend

    cmds = commands(args.workload, args.seed, args.scale)
    reference = json.loads(REFERENCE.read_text())[args.scale]
    tracer = Tracer() if args.trace else None
    runner = Runner(cmds, reference, tracer)

    # The window includes an untimed warm-up pass (lazy imports, allocator).
    # A pass is not started when less than half of one would fit.
    start = time.perf_counter()
    runner.one_pass(traced=False)
    untraced, traced = [], []
    while True:
        round_start = time.perf_counter()
        untraced.append(runner.one_pass(traced=False))
        if tracer is not None:
            tracer.pass_index += 1
            tracer.reset()
            tracer.install()
            try:
                pass_ = runner.one_pass(traced=True)
            finally:
                tracer.uninstall()
            pass_["layers"] = tracer.totals()
            traced.append(pass_)
        now = time.perf_counter()
        left = args.seconds - (now - start)
        if len(untraced) >= MIN_PASSES and left < (now - round_start) / 2:
            break

    wall = typical_pass(untraced, "durations")
    out = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.notes,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": kernel_backend(),
        "commands": [c.key for c in cmds],
        "threads": max(c.threads for c in cmds),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "pass_walls_s": [p["wall"] for p in untraced],
        "command_durations_s": [p["durations"] for p in untraced],
    }
    if tracer is None:
        out["metrics"] = {
            "wall_s": wall,
            "checks_per_s": untraced[0]["points"] / wall,
            "cpu_s": typical_pass(untraced, "cpus"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        per_pass = [layer_metrics(p["layers"], wall) for p in traced]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        durations = [d for p in untraced for d in p["durations"]]
        metrics.update({
            "cli.commands": float(len(cmds)),
            "cli.command_p50_s": statistics.median(durations),
            "cli.command_max_s": max(durations),
            "trace.overhead_frac": typical_pass(traced, "durations") / wall - 1.0,
        })
        out["metrics"] = metrics
        out["command_samples"] = len(durations)
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(
                {"commands": out["commands"], "spans": tracer.spans()}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
