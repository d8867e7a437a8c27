"""Command-line surface.

Subcommands: eval, check, local, classify, inequality.  Exit codes are a
stable contract: 0 = holds on the requested range, 1 = refuted
(counterexamples listed), 2 = usage / domain / resource error.

Sieve limits are derived from the checked properties' formulas over the
range flags (including the k-power blowup) and announced on stderr
before sweeping, so stdout carries only the result (plain text, or the
JSON envelope under --json).
"""

from __future__ import annotations

import argparse
import os
import sys

from submult import report as rpt
from submult.checks import (
    SUB,
    SUP,
    CheckConfig,
    classify,
    classify_specs,
    run_property_check,
    sieve_limit,
)
from submult.core import build_spf_table
from submult.errors import SubmultError, UsageError
from submult.functions import builtin_registry, evaluate
from submult.inequalities import (
    INEQUALITY_IDS,
    verify_corollary1,
    verify_eq12,
    verify_eq13,
    verify_eq16,
    verify_eq20,
    verify_eq23,
)
from submult.inference import FAMILIES, K_FAMILIES, PropertySpec
from submult.local import CRITERIA, LocalCriterion, bridge_consistency, check_local

DEFAULT_MAX_M = 100
DEFAULT_MAX_N = 100
DEFAULT_MAX_PRIME = 50
DEFAULT_MAX_EXP = 10
DEFAULT_K = 2


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _colored(verdict: str) -> str:
    if not _use_color():
        return verdict
    code = "32" if verdict in ("holds-on-range", "consistent") else "31"
    return f"\033[{code}m{verdict}\033[0m"


def _print_human(envelope: dict) -> None:
    for rep in envelope["reports"]:
        if rep["kind"] == "bridge":
            verdict = "consistent" if rep["consistent"] else "INCONSISTENT"
            print(f"bridge {rep['criterion']} vs {rep['property']}: "
                  f"{_colored(verdict)}")
            for note in rep["notes"]:
                print(f"  {note}")
            continue
        if rep["kind"] == "local-criterion":
            label = rep["criterion"] + (f"(k={rep['k']})" if rep["k"] else "")
            label = f"{label}:{rep['direction']}"
            count = f"{rep['triples_checked']} triples"
        else:
            label = rep["property"]
            count = f"{rep['pairs_checked']} pairs"
        print(f"{rep['function']}  {label}  {_colored(rep['verdict'])}  "
              f"({count}, {rep['elapsed_seconds']:.3f}s)")
        for cex in rep["counterexamples"]:
            point = ", ".join(f"{k}={v}" for k, v in cex["point"].items())
            print(f"  counterexample ({point}): "
                  f"lhs = {rpt._side_csv(cex['lhs'])}, "
                  f"rhs = {rpt._side_csv(cex['rhs'])}")


def _emit(args, command: str, inputs: dict, reports: list) -> dict:
    # inputs.threads is pinned until the envelope's schema bump (ROADMAP item 4)
    inputs["threads"] = args.threads
    envelope = rpt.make_envelope(command, inputs, reports)
    if getattr(args, "csv", None):
        rpt.write_counterexample_csv(args.csv, envelope)
    if getattr(args, "json", False):
        print(rpt.envelope_to_json(envelope))
    else:
        _print_human(envelope)
    return envelope


def _exit_code(reports) -> int:
    for rep in reports:
        if getattr(rep, "verdict", "holds-on-range") == "refuted":
            return 1
    return 0


def _announce_sieve(limit: int) -> None:
    print(f"sieve limit: {limit}", file=sys.stderr)


def _property_spec(args) -> PropertySpec:
    if args.property in K_FAMILIES:
        return PropertySpec(args.property, args.k)
    return PropertySpec(args.property)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    fn = builtin_registry().get(args.function)
    print(evaluate(fn, args.n))
    return 0


def _cmd_check(args) -> int:
    registry = builtin_registry()
    fn = registry.get(args.function)
    spec = _property_spec(args)
    cfg = CheckConfig(max_m=args.max_m, max_n=args.max_n, k_set=(args.k,))
    limit = sieve_limit([spec], cfg)
    _announce_sieve(limit)
    table = build_spf_table(limit)
    report = run_property_check(fn, spec, cfg, table)
    inputs = {"function": args.function, "property": args.property,
              "k": args.k if spec.k is not None else None,
              "max_m": args.max_m, "max_n": args.max_n}
    _emit(args, "check", inputs, [report])
    return _exit_code([report])


def _cmd_local(args) -> int:
    registry = builtin_registry()
    fn = registry.get(args.function)
    k = args.k if args.criterion in ("eq18", "eq22") else None
    crit = LocalCriterion(args.criterion, args.direction, k)
    local = check_local(fn, crit, args.max_prime, args.max_exp)
    reports = [local]
    if args.bridge:
        spec = PropertySpec(crit.global_family(), k)
        cfg = CheckConfig(max_m=args.max_m, max_n=args.max_n,
                          k_set=(k,) if k else (DEFAULT_K,))
        limit = sieve_limit([spec], cfg)
        _announce_sieve(limit)
        table = build_spf_table(limit)
        global_report = run_property_check(fn, spec, cfg, table)
        bridge = bridge_consistency(fn, crit, local, global_report)
        reports.extend([global_report, bridge])
    inputs = {"function": args.function, "criterion": args.criterion,
              "direction": args.direction, "k": k,
              "max_prime": args.max_prime, "max_exp": args.max_exp,
              "bridge": args.bridge}
    _emit(args, "local", inputs, reports)
    return _exit_code(reports)


def _cmd_classify(args) -> int:
    registry = builtin_registry()
    fn = registry.get(args.function)
    k_set = _parse_k_set(args.k_set)
    cfg = CheckConfig(max_m=args.max_m, max_n=args.max_n, k_set=k_set)
    limit = sieve_limit(classify_specs(cfg), cfg)
    _announce_sieve(limit)
    table = build_spf_table(limit)
    reports = classify(fn, cfg, table)
    inputs = {"function": args.function, "max_m": args.max_m,
              "max_n": args.max_n, "k_set": list(k_set)}
    _emit(args, "classify", inputs, reports)
    return 0  # classification is informative, not pass/fail


def _cmd_inequality(args) -> int:
    ineq = args.id
    if ineq == "eq12":
        reports = [verify_eq12(args.max_prime)]
    elif ineq == "eq13":
        _announce_sieve(args.max_n)
        reports = [verify_eq13(args.max_n)]
    elif ineq == "eq16":
        reports = [verify_eq16(args.max_prime, args.max_exp)]
    elif ineq == "eq20":
        reports = [verify_eq20(args.max_ab, args.max_k)]
    elif ineq == "eq23":
        reports = [verify_eq23(args.max_prime, args.max_exp, args.k)]
    else:  # corollary1
        registry = builtin_registry()
        f = registry.get(args.f)
        g = registry.get(args.g)
        limit = max(args.max_prime, args.max_n)
        _announce_sieve(limit)
        table = build_spf_table(limit)
        a, b = verify_corollary1(f, g, args.max_prime, args.max_n,
                                 registry=registry, table=table)
        reports = [a, b]
    inputs = {"id": ineq}
    for key in ("max_prime", "max_n", "max_exp", "max_ab", "max_k", "k", "f", "g"):
        if hasattr(args, key):
            inputs[key] = getattr(args, key)
    _emit(args, "inequality", inputs, reports)
    return _exit_code(reports)


def _parse_k_set(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError:
        raise UsageError(f"bad k-set {text!r}; expected e.g. '2,3'") from None
    if not ks:
        raise UsageError("k-set must not be empty")
    return ks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sp, *, csv: bool = True) -> None:
    sp.add_argument("--json", action="store_true",
                    help="emit the report envelope as JSON on stdout")
    if csv:
        sp.add_argument("--csv", metavar="PATH",
                        help="also write counterexamples to a CSV file")
    # --threads is pinned: the benchmark's workloads pass it (ROADMAP item 1)
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility and ignored; sweeps run "
                         "on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submult",
        description="Exact verification of multiplicativity-type inequalities "
                    "for arithmetic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a function at n")
    p.add_argument("function")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check", help="verify one property on an (m, n) grid")
    p.add_argument("function")
    p.add_argument("property", choices=FAMILIES)
    p.add_argument("--k", type=int, default=DEFAULT_K,
                   help="exponent for k-properties (default 2)")
    p.add_argument("--max-m", type=int, default=DEFAULT_MAX_M)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("local", help="verify a prime-power local criterion")
    p.add_argument("function")
    p.add_argument("criterion", choices=CRITERIA)
    p.add_argument("direction", choices=(SUB, SUP))
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--max-prime", type=int, default=DEFAULT_MAX_PRIME)
    p.add_argument("--max-exp", type=int, default=DEFAULT_MAX_EXP)
    p.add_argument("--bridge", action="store_true",
                   help="also run the matching global check and the "
                        "local/global consistency test")
    p.add_argument("--max-m", type=int, default=DEFAULT_MAX_M,
                   help="global grid for --bridge")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                   help="global grid for --bridge")
    _add_common(p)
    p.set_defaults(handler=_cmd_local)

    p = sub.add_parser("classify", help="sweep every property family")
    p.add_argument("function")
    p.add_argument("--max-m", type=int, default=DEFAULT_MAX_M)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--k-set", default="2", help="comma-separated, e.g. 2,3")
    _add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("inequality", help="verify a named inequality")
    p.add_argument("id", choices=INEQUALITY_IDS)
    p.add_argument("--max-prime", type=int, default=DEFAULT_MAX_PRIME)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--max-exp", type=int, default=DEFAULT_MAX_EXP)
    p.add_argument("--max-ab", type=int, default=50)
    p.add_argument("--max-k", type=int, default=6)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--f", default="sigma", help="base function (corollary1)")
    p.add_argument("--g", default="phi", help="exponent function (corollary1)")
    _add_common(p)
    p.set_defaults(handler=_cmd_inequality)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SubmultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
