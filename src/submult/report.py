"""Serialization of reports: JSON envelope (schema in schema/) and CSV
export of counterexample lists.

Values render as "7" or "14/3"; power products as lists of
[base, exponent] pairs so reports never print astronomically long
integers.  Human and JSON output are both derived from these dicts.
"""

from __future__ import annotations

import csv
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from importlib import resources

from submult.checks import CheckReport
from submult.errors import ResourceError
from submult.local import BridgeReport, LocalCriterion, LocalReport

SCHEMA_VERSION = "1"


def render_value(v: Fraction) -> str:
    try:
        return str(v)
    except ValueError:  # more digits than Python converts to text
        raise ResourceError(f"a value to report has more than "
                            f"{sys.get_int_max_str_digits()} decimal digits") from None


def side_to_json(side) -> dict:
    if isinstance(side, Fraction):
        return {"value": render_value(side)}
    return {"powers": [[render_value(base), exp] for base, exp in side]}


def _cex_to_json(cex) -> dict:
    return {
        "point": {name: value for name, value in cex.point},
        "lhs": side_to_json(cex.lhs),
        "rhs": side_to_json(cex.rhs),
    }


def check_report_to_json(r: CheckReport) -> dict:
    return {
        "kind": "property-check",
        "function": r.function,
        "property": r.property,
        "params": dict(r.params),
        "verdict": r.verdict,
        "counterexamples": [_cex_to_json(c) for c in r.counterexamples],
        "pairs_checked": r.pairs_checked,
        "elapsed_seconds": round(r.elapsed_seconds, 6),
        "stats": dict(r.stats),
    }


def local_report_to_json(r: LocalReport) -> dict:
    return {
        "kind": "local-criterion",
        "function": r.function,
        "criterion": r.criterion.criterion,
        "direction": r.criterion.direction,
        "k": r.criterion.k,
        "max_prime": r.max_prime,
        "max_exp": r.max_exp,
        "verdict": r.verdict,
        "counterexamples": [_cex_to_json(c) for c in r.counterexamples],
        "triples_checked": r.triples_checked,
        "elapsed_seconds": round(r.elapsed_seconds, 6),
    }


def bridge_report_to_json(r: BridgeReport) -> dict:
    return {
        "kind": "bridge",
        "function": r.function,
        "criterion": r.criterion,
        "property": r.property,
        "consistent": r.consistent,
        "notes": list(r.notes),
    }


def report_to_json(r) -> dict:
    if isinstance(r, CheckReport):
        return check_report_to_json(r)
    if isinstance(r, LocalReport):
        return local_report_to_json(r)
    if isinstance(r, BridgeReport):
        return bridge_report_to_json(r)
    raise TypeError(f"not a report: {r!r}")


def label(rep: dict) -> str:
    """What a report dict checked: a check's property, or a local report's
    criterion in full, as LocalCriterion.label() gives it."""
    if rep["kind"] == "local-criterion":
        return LocalCriterion(rep["criterion"], rep["direction"], rep["k"]).label()
    return rep["property"]


def make_envelope(command: str, inputs: dict, reports: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": dict(inputs),
        "reports": [report_to_json(r) for r in reports],
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def envelope_to_json(envelope: dict) -> str:
    """The envelope on one line; without indent, json uses its C encoder."""
    return json.dumps(envelope, sort_keys=True)


def schema_path():
    """Path to the shipped envelope schema."""
    return resources.files("submult") / "schema" / "report_envelope.schema.json"


def load_schema() -> dict:
    return json.loads(schema_path().read_text())


def write_counterexample_csv(path: str, envelope: dict) -> None:
    """Flatten every counterexample in the envelope to one CSV row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["function", "property", "point", "lhs", "rhs"])
        for rep in envelope["reports"]:
            if "counterexamples" not in rep:
                continue
            for cex in rep["counterexamples"]:
                point = ";".join(f"{k}={v}" for k, v in cex["point"].items())
                writer.writerow([
                    rep["function"], label(rep), point,
                    _side_csv(cex["lhs"]), _side_csv(cex["rhs"]),
                ])


def _side_csv(side: dict) -> str:
    if "value" in side:
        return side["value"]
    return " * ".join(f"({b})^{e}" for b, e in side["powers"])
