"""Workload definitions: the commands each workload runs, made from a seed.

A workload is a fixed list of commands run back to back as one *pass*.
The seed picks one member from each pool and the order of the commands;
the members of a pool were chosen because one pass costs about the same
whichever member is picked (measured within a few percent of each other
on a 2-core x86-64 machine), so different seeds give comparable passes.

Commands are either CLI argv lists (run through ``submult.cli.main``) or
``power`` commands, which build a power combinator with the library API,
infer its tags and sweep-verify each one; the CLI cannot reach that
layer.  ``Command.key`` names a command independently of ``--threads``,
so a threaded run is checked against the same reference entry as the
single-threaded one.

``grid`` runs one small sweep with ``--threads 2`` so the sweep engine's
thread pool is exercised and checked; a workload running every grid
command on two threads was tried and dropped, because its wall time
spread by 28% between runs on a shared 2-core machine (the two threads
contend for the interpreter lock; its CPU time spread by 9%).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("grid", "kpow", "powers")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # CLI argv, or ("power", base, exponent, size)

    @property
    def is_power(self) -> bool:
        return self.argv[0] == "power"

    @property
    def threads(self) -> int:
        argv = self.argv
        return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1

    @property
    def key(self) -> str:
        """The command without --threads: reports must not depend on it."""
        argv = list(self.argv)
        if "--threads" in argv:
            i = argv.index("--threads")
            del argv[i:i + 2]
        return " ".join(argv)

    def cli_argv(self) -> list[str]:
        return [*self.argv, "--json"]


# Per scale: grid sizes and ranges.  "tiny" exists for the self-test.
_SIZES = {
    "full": {
        "classify": 80, "check": 200, "threads2": 100,
        "local": ("100", "12", "120"),
        "kmult": (200, 200), "khom": (120, 200), "kclassify": 40,
        "eq13": "20000", "eq12": "40000", "cor": ("5000", "15000"),
        "power": 50,
    },
    "tiny": {
        "classify": 12, "check": 20, "threads2": 16,
        "local": ("20", "4", "20"),
        "kmult": (60, 60), "khom": (40, 60), "kclassify": 12,
        "eq13": "2000", "eq12": "2000", "cor": ("200", "1000"),
        "power": 12,
    },
}

# grid: rational (Fraction) functions, classify cost within ~4% per pool
GRID_POOLS = (
    ("phi_over_d", "n_over_phi", "sigma_over_d"),
    ("sigma_over_phi", "n_plus_d", "n_times_phi"),
)
# kpow: k = 3 sweeps whose sieve is max(m, n)^3 entries; d k-sub-hom is
# refuted, so its counterexamples go through the oracle
KPOW_POOLS = (
    ("d", "sigma", "identity"),  # k-sup-mult
    ("phi", "identity", "d"),  # k-sub-hom
    ("d", "phi", "sigma"),  # classify --k-set 2,3,4
)
# powers: bases of base^identity combinators, whose exponent ties make the
# exact bigint comparison run
POWERS_POOLS = (
    ("sigma", "sigma_over_d"),
    ("n_over_phi", "sigma_over_phi"),
    ("phi", "phi_over_d"),
)


def _grid(picks, s: dict) -> list[tuple[str, ...]]:
    c, ch, t2 = str(s["classify"]), str(s["check"]), str(s["threads2"])
    max_prime, max_exp, bridge = s["local"]
    cmds = [("classify", fn, "--max-m", c, "--max-n", c) for fn in picks]
    cmds.append(("check", "sigma", "sub-mult", "--max-m", ch, "--max-n", ch))
    cmds.append(("check", "sigma", "sub-mult", "--max-m", t2, "--max-n", t2,
                 "--threads", "2"))
    cmds.append(("local", "sigma", "eq21", "sup", "--bridge",
                 "--max-prime", max_prime, "--max-exp", max_exp,
                 "--max-m", bridge, "--max-n", bridge))
    return cmds


def _kpow(picks, s: dict) -> list[tuple[str, ...]]:
    (mm, mn), (hm, hn), kc = s["kmult"], s["khom"], str(s["kclassify"])
    mult, hom, cls = picks
    return [
        ("check", mult, "k-sup-mult", "--k", "3",
         "--max-m", str(mm), "--max-n", str(mn)),
        ("check", hom, "k-sub-hom", "--k", "3",
         "--max-m", str(hm), "--max-n", str(hn)),
        ("classify", cls, "--k-set", "2,3,4", "--max-m", kc, "--max-n", kc),
    ]


def _powers(picks, s: dict) -> list[tuple[str, ...]]:
    max_prime, max_n = s["cor"]
    size = str(s["power"])
    cmds = [
        ("inequality", "eq13", "--max-n", s["eq13"]),
        ("inequality", "eq12", "--max-prime", s["eq12"]),
        ("inequality", "corollary1", "--f", "sigma", "--g", "phi",
         "--max-prime", max_prime, "--max-n", max_n),
        ("power", "identity", "identity", size),
    ]
    return cmds + [("power", base, "identity", size) for base in picks]


_WORKLOADS = {"grid": (GRID_POOLS, _grid), "kpow": (KPOW_POOLS, _kpow),
              "powers": (POWERS_POOLS, _powers)}


def commands(workload: str, seed: int, scale: str = "full") -> list[Command]:
    """The commands of one pass, in run order; same seed, same commands."""
    pools, build = _WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    cmds = [Command(a) for a in build([rng.choice(p) for p in pools],
                                      _SIZES[scale])]
    rng.shuffle(cmds)
    return cmds


def all_commands(scale: str) -> list[Command]:
    """Every command any seed can generate at this scale (for the reference)."""
    out: dict[str, Command] = {}
    for pools, build in _WORKLOADS.values():
        for picks in itertools.product(*pools):
            for argv in build(picks, _SIZES[scale]):
                cmd = Command(argv)
                out.setdefault(cmd.key, cmd)
    return list(out.values())
