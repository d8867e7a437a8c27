"""Correctness gate: report projections and a brute-force counterexample check.

``project`` keeps the deterministic part of a JSON report: verdict, the
ordered counterexample points and sides, and the number of pairs, triples
or instances checked.  Timing fields, ``stats`` and the envelope's
timestamp are dropped.

``check_first_counterexample`` re-evaluates the first counterexample of a
report from the definitions, with functions computed by divisor
enumeration (trial division up to the square root).  It shares no code
with submult: no sieve, no prime-power formulas, no log filter.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod


def project(rep: dict) -> dict:
    """The deterministic fields of one report, as recorded in the reference."""
    if rep["kind"] == "bridge":
        return {k: rep[k] for k in
                ("kind", "function", "criterion", "property", "consistent", "notes")}
    out = {
        "kind": rep["kind"],
        "function": rep["function"],
        "verdict": rep["verdict"],
        "counterexamples": [[c["point"], c["lhs"], c["rhs"]]
                            for c in rep["counterexamples"]],
    }
    if rep["kind"] == "local-criterion":
        out.update(criterion=rep["criterion"], direction=rep["direction"],
                   k=rep["k"], triples_checked=rep["triples_checked"])
    else:
        out.update(property=rep["property"], pairs_checked=rep["pairs_checked"])
    return out


def points_checked(proj: dict) -> int:
    return proj.get("pairs_checked", proj.get("triples_checked", 0))


# ---------------------------------------------------------------------------
# Brute-force arithmetic functions.  An argument is an int, or (p, e) for
# the prime power p**e, whose divisors are p**0 .. p**e.
# ---------------------------------------------------------------------------


def _value(x) -> int:
    return x[0] ** x[1] if isinstance(x, tuple) else x


def _divisors(x) -> list[int]:
    if isinstance(x, tuple):
        p, e = x
        return [p**i for i in range(e + 1)]
    small = [d for d in range(1, isqrt(x) + 1) if x % d == 0]
    return sorted(set(small + [x // d for d in small]))


def _prime_divisors(divs: list[int]) -> list[int]:
    # a composite divisor has a smaller prime divisor, found first
    primes: list[int] = []
    for d in divs[1:]:
        if all(d % q for q in primes):
            primes.append(d)
    return primes


def _phi(x) -> int:
    n = _value(x)
    for p in _prime_divisors(_divisors(x)):
        n = n // p * (p - 1)
    return n


def _d(x) -> int:
    return len(_divisors(x))


def _sigma(x) -> int:
    return sum(_divisors(x))


BRUTE = {
    "phi": lambda x: Fraction(_phi(x)),
    "d": lambda x: Fraction(_d(x)),
    "sigma": lambda x: Fraction(_sigma(x)),
    "identity": lambda x: Fraction(_value(x)),
    "constant-1": lambda x: Fraction(1),
    "sigma_over_phi": lambda x: Fraction(_sigma(x), _phi(x)),
    "sigma_over_d": lambda x: Fraction(_sigma(x), _d(x)),
    "phi_over_d": lambda x: Fraction(_phi(x), _d(x)),
    "n_plus_d": lambda x: Fraction(_value(x) + _d(x)),
    "n_times_phi": lambda x: Fraction(_value(x) * _phi(x)),
    "n_over_phi": lambda x: Fraction(_value(x), _phi(x)),
}


def _side(side: dict):
    """A JSON side as a Fraction, or as a list of (Fraction base, exponent)."""
    if "value" in side:
        return Fraction(side["value"])
    return [(Fraction(b), e) for b, e in side["powers"]]


def _product(powers) -> Fraction:
    return prod((b**e for b, e in powers), start=Fraction(1))


def _fails(relation: str, lhs: Fraction, rhs: Fraction) -> bool:
    """True when (lhs, rhs) is a counterexample to the relation."""
    return {"eq": lhs != rhs, "le": lhs > rhs, "ge": lhs < rhs,
            "lt": lhs >= rhs}[relation]


def _expected_global(rep: dict, pt: dict):
    prop, name = rep["property"], rep["function"]
    if prop.startswith("power-"):
        base, expo = name[: -len("/n)")].split("^(")
        f, g = BRUTE[base], BRUTE[expo]
        m, n = pt["m"], pt["n"]
        lhs = [(f(m * n), int(g(m * n)))]
        rhs = [(f(m), int(g(m)) * n), (f(n), int(g(n)) * m)]
        return lhs, rhs, "le" if prop == "power-sub-mult" else "ge"
    if name in ("eq12", "eq13", "corollary1"):
        x = pt.get("p", pt.get("n"))
        if name == "eq12":
            lhs = [(Fraction(x + 1), x - 1)]
        elif name == "eq13":
            lhs = [(BRUTE["sigma"](x), _phi(x))]
        else:
            f, g = BRUTE[rep["params"]["f"]], BRUTE[rep["params"]["g"]]
            lhs = [(f(x), int(g(x)))]
        return lhs, [(Fraction(x), x)], "lt"
    f = BRUTE[name]
    m, n = pt["m"], pt["n"]
    family, _, k = prop.partition("(k=")
    k = int(k.rstrip(")")) if k else 1
    relation = "eq" if family == "multiplicative" else (
        "le" if "sub" in family else "ge")
    lhs = f(m * n) ** k
    if family == "multiplicative" or family.endswith("mult"):
        rhs = f(m**k) * f(n**k)
    else:
        rhs = Fraction(m**k) * f(n**k)
    return lhs, rhs, relation


def _expected_local(rep: dict, pt: dict):
    f = BRUTE[rep["function"]]
    p, a, b = pt["p"], pt["a"], pt["b"]
    k = rep["k"] or 1
    lhs = f((p, a + b)) ** k
    if rep["criterion"] in ("eq14", "eq18"):
        rhs = f((p, k * a)) * f((p, k * b))
    else:
        rhs = Fraction(p ** (k * a)) * f((p, k * b))
    return lhs, rhs, "le" if rep["direction"] == "sub" else "ge"


def check_first_counterexample(rep: dict) -> str | None:
    """None when the report's first counterexample is confirmed by brute
    force (or it has none); otherwise a description of the mismatch."""
    if not rep.get("counterexamples"):
        return None
    cex = rep["counterexamples"][0]
    pt = cex["point"]
    if rep["kind"] == "local-criterion":
        lhs, rhs, relation = _expected_local(rep, pt)
    else:
        lhs, rhs, relation = _expected_global(rep, pt)
    got_lhs, got_rhs = _side(cex["lhs"]), _side(cex["rhs"])
    if (got_lhs, got_rhs) != (lhs, rhs):
        return f"sides at {pt}: reported {got_lhs} vs {got_rhs}, brute force {lhs} vs {rhs}"
    if isinstance(lhs, list):
        lhs, rhs = _product(lhs), _product(rhs)
    if not _fails(relation, lhs, rhs):
        return f"{pt} is reported as a counterexample but the relation holds there"
    return None
