#!/usr/bin/env python3
"""submult benchmark: one workload, one seed, one measuring window.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Closed loop with one client: a fresh child interpreter (perfbench/worker.py)
imports submult from ``src/`` and runs the workload's commands back to back
through ``submult.cli.main(argv + ["--json"])`` with output captured in
memory, until the window is over.  Workloads, metrics and the layer each
per-layer metric belongs to are described in perfbench/README.md.

Set-up time is measured in separate short-lived interpreters, several
times, and reported as the median.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  The line before it is the run record (commit, versions,
backend, nproc, seed, sample counts).  Traced runs also write their spans
to ``.perfbench/``.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole run, worker included, ends before this

sys.path.insert(0, str(HERE))
from workloads import SCALES, WORKLOADS  # noqa: E402


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def _child(args: list[str], timeout: float) -> dict:
    """Run the worker; its last stdout line as JSON.  Raises on failure."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over src/ (paths and contents), for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="input sizes; 'tiny' is for perfbench/selftest.py")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "submult" / "__init__.py").is_file():
        print(f"error: no submult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_child(["--setup-probe"], 60)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--scale", args.scale]
        trace_out = None
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            trace_out = OUT_DIR / f"trace-{args.workload}-{args.scale}-seed{args.seed}.json"
            worker_args += ["--trace-out", str(trace_out)]
        res = _child(worker_args, max(1.0, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = _declared(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are printed "
              "but not declared in BENCHMARK.json, or declared but not printed",
              file=sys.stderr)
        return 2
    record = {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": res["python"],
        "numpy": res["numpy"],
        "kernel_backend": res["backend"],
        "nproc": os.cpu_count(),
        "threads": res["threads"],
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": res["commands"],
        "samples": {
            "setup_s": len(setups),
            "untraced_passes": res["untraced_passes"],
            "traced_passes": res["traced_passes"],
            "commands_timed": res.get("command_samples"),
        },
        "pass_walls_s": res["pass_walls_s"],
        "command_durations_s": res["command_durations_s"],
        "setup_samples_s": setups,
        "computed": ["core.sieve.bytes"] if args.trace else [],
        "failures": res["failures"],
        "trace_file": str(trace_out.relative_to(ROOT)) if trace_out else None,
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
