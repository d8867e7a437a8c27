#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.  Exit code 0 when it passes.

Usage (from the repository root): python3 perfbench/selftest.py

Checks, for every workload in untraced and traced mode, that the run is
correct, that the printed metric names and units are exactly those
BENCHMARK.json declares for the mode, and that each workload exercises
its layer: only ``powers`` reaches the exact bigint comparison, and the
sieve's share of wall time is highest on ``kpow``.  It also checks that
the correctness gate rejects a wrong reference, that a traced name which
no longer exists fails loudly and leaves nothing wrapped, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

SEED = 7


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    layers = {}
    for trace in (0, 1):
        for wl in WORKLOADS:
            proc = run("--workload", wl, "--seed", str(SEED), "--seconds", "1",
                       "--trace", str(trace), "--scale", "tiny")
            check(proc.returncode == 0, f"{wl} trace={trace} exits 0 {proc.stderr[-500:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl} trace={trace} result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{wl} trace={trace} correct, {res['attempted']} attempted")
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            check(units == declared[trace],
                  f"{wl} trace={trace} metrics match BENCHMARK.json")
            if trace:
                layers[wl] = {k: v["value"] for k, v in res["metrics"].items()}

    exact = {wl: m["core.cmp_power.exact"] for wl, m in layers.items()}
    check(exact["powers"] > 0 and all(v == 0 for wl, v in exact.items()
                                      if wl != "powers"),
          f"core.cmp_power.exact > 0 on powers only: {exact}")
    share = {wl: m["core.sieve.share"] for wl, m in layers.items()}
    check(max(share, key=share.get) == "kpow",
          f"core.sieve.share highest on kpow: {share}")

    # the gate: a reference that disagrees fails every command
    worker.setup()
    cmds = commands("grid", SEED, "tiny")
    reference = json.loads(worker.REFERENCE.read_text())["tiny"]
    wrong = {k: {**v, "exit": v["exit"] + 1} for k, v in reference.items()}
    runner = worker.Runner(cmds, wrong)
    runner.one_pass(traced=False)
    check(runner.failed == len(cmds), "a wrong reference fails every command")

    # a traced name that no longer exists fails loudly and unwraps the rest
    from submult import checks

    original = checks.cmp_values
    saved = tracer.TARGETS
    tracer.TARGETS = saved + (("submult.checks", "no_such_name", "x", False),)
    try:
        tracer.Tracer().install()
        raised = False
    except LookupError:
        raised = True
    finally:
        tracer.TARGETS = saved
    check(raised and checks.cmp_values is original,
          "a missing traced name raises and leaves nothing wrapped")

    # without the program's sources the benchmark refuses to run
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "grid", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
