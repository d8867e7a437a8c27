#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the checkout's submult.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every command any seed can generate, at both scales, once with one
thread and once with two, and records the exit code and the projection
of each report.  Refuses to write when the two thread counts disagree or
when the brute-force oracle rejects a first counterexample.  Regenerate
only when an intended change to the reports' content lands, never to
make a failing benchmark pass.
"""

from __future__ import annotations

import json
import sys

from oracle import check_first_counterexample
from worker import REFERENCE, outcome, run_command, setup
from workloads import SCALES, Command, all_commands


def main() -> int:
    setup()
    reference: dict[str, dict] = {}
    problems = []
    for scale in SCALES:
        reference[scale] = {}
        for cmd in all_commands(scale):
            argv = tuple(cmd.key.split())  # without --threads
            code, reports, tags = run_command(Command(argv))
            got = outcome(code, reports, tags)
            if outcome(*run_command(Command((*argv, "--threads", "2")))) != got:
                problems.append(f"{cmd.key}: differs between 1 and 2 threads")
            for rep in reports:
                why = check_first_counterexample(rep)
                if why:
                    problems.append(f"{cmd.key}: {why}")
            reference[scale][cmd.key] = got
            print(f"{scale:5} exit={code} {cmd.key}", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
