"""Seeded inputs and case lists of the four benchmark workloads.

A case is one CLI invocation ``quadalg.cli.main([command, file, *flags])``
on one generated JSON description.  Every input is a pure function of the
seed; the program under test sees only the written files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "quadalg" / "corpus"

# The grid of scripts/run_corpus.py, in its column order.
CORPUS_COMMANDS = ("dual", "hilbert", "koszul", "regular", "nakayama", "skew",
                   "superpotential", "symmetrize", "derivquot", "extiso", "cy",
                   "pbw", "thm5")

SKEW_CY_COMMANDS = (("cy",), ("cy", "--sigma", "id"), ("extiso",), ("skew",),
                    ("regular",))

KOSZUL_DEPTH_COMMANDS = ("koszul", "hilbert", "dual", "regular", "nakayama")

LETTERS = ("x", "y", "z", "w", "v", "u")

# q of the skew polynomial rings: small rationals other than 0 and +-1, so
# that the Nakayama twist is never the identity and `cy --sigma id` is
# always a negative verdict.  All of the same height, so that the Fraction
# growth, and with it the cost of a case, does not depend on the seed.
Q_CHOICES = (Fraction(2, 3), Fraction(-2, 3), Fraction(3, 2), Fraction(-3, 2))

# Why each workload exists.  Every one is a closed loop with one client.
WORKLOADS = (
    # Every corpus file x every command at --max-degree 5, with every
    # lru_cache emptied before each case: what a user pays per CLI
    # invocation.  Inputs are tiny, so the fixed costs of io, cli, frobenius,
    # superpotential and pbw carry the load.
    "corpus_cli",
    # The same grid in one interpreter, caches emptied once per sweep and
    # warm across it: how run_corpus.py and the tests use the library.  The
    # only workload where cross-command cache reuse carries the load, so the
    # cost of bounding the caches shows here and nowhere else.
    "corpus_session",
    # Skew polynomial rings in 3 and 4 letters, q drawn by the seed: a few
    # cases of seconds each, dominated by relation spans on (n+1)^k words
    # and TruncatedAlgebra.to_graded_algebra, down into linalg.  The path
    # that building the dual from Koszul components replaces.
    "skew_cy",
    # Degree-6 certificates on dense random n=3 algebras (small 3^6 ambient,
    # Fraction growth, mostly negative verdicts, NotRegular escapes from
    # nakayama) and on the sparse n=4 skew polynomial ring (4^6 ambient,
    # up to ~350 MB): linalg elimination and quadratic spans with almost no
    # frobenius or skew work, so a change to the dual truncation alone
    # should leave it flat.  Not in BENCHMARK.json: its one cycle of 20
    # cases of 1-5 s takes about 50 s on the shared machine, and 22 such
    # runs do not fit the benchmark's time budget next to the other three
    # workloads.  run.py --all and --workload koszul_depth still run it.
    "koszul_depth",
)

DEFAULT_SEED = 0

# Seconds of case time one cycle takes on the tuned machine (2 vCPU Xeon,
# Python 3.11.7) when nothing else runs on it.  A run of --seconds S does
# round(S / cycle) whole cycles, at least one, so that it does the same work
# on any machine and at any moment.  At the declared 16 s that is 6, 15, 2
# and 1 cycles; on the shared machine, which mostly runs 1.5-2x slower than
# idle, a run takes about twice as long, and a koszul_depth run, one cycle
# that cannot be split, about 50 s.
NOMINAL_CYCLE_S = {"corpus_cli": 2.5, "corpus_session": 1.1, "skew_cy": 7.5,
                   "koszul_depth": 25.0}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def _term(coeff, word):
    return {"coeff": str(Fraction(coeff)), "word": list(word)}


def skew_polynomial(n: int, q: Fraction) -> dict:
    """x_i x_j = q x_j x_i for i < j: AS-regular of dimension n."""
    names = LETTERS[:n]
    rels = [[_term(1, (names[i], names[j])), _term(-q, (names[j], names[i]))]
            for i in range(n) for j in range(i + 1, n)]
    return {"generators": list(names), "relations": rels}


def _rank(rows) -> int:
    # kept apart from quadalg.linalg so that inputs do not depend on the
    # code under test
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_random(rng: random.Random, n: int, nrel: int) -> dict:
    """nrel independent relations, each with every degree-2 word and
    integer coefficients in [-3, 3]."""
    names = LETTERS[:n]
    words = [(a, b) for a in names for b in names]
    while True:
        rows = [[rng.randint(-3, 3) for _ in words] for _ in range(nrel)]
        if _rank(rows) == nrel:
            break
    rels = [[_term(c, w) for c, w in zip(row, words) if c] for row in rows]
    return {"generators": list(names), "relations": rels}


def build(workload: str, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """Write the workload's inputs under workdir and return one cycle of
    its cases as (case id, argv), in grid order: input-major, then command.

    The order is fixed because corpus_session shares caches across the
    cycle, so the order decides which case pays for a miss."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    inputs: dict[str, dict] = {}
    grid: list[tuple[str, tuple[str, ...], str]] = []
    if workload in ("corpus_cli", "corpus_session"):
        for path in sorted(CORPUS_DIR.glob("*.json")):
            inputs[path.stem] = json.loads(path.read_text())
            grid += [(path.stem, (cmd,), "5") for cmd in CORPUS_COMMANDS]
    elif workload == "skew_cy":
        for n in (3, 4):
            q = rng.choice(Q_CHOICES)
            inputs[f"skew{n}"] = skew_polynomial(n, q)
            grid += [(f"skew{n}", cmd, "5") for cmd in SKEW_CY_COMMANDS]
    elif workload == "koszul_depth":
        for i, nrel in enumerate((3, 4, 5)):
            inputs[f"dense{i}"] = dense_random(rng, 3, nrel)
        inputs["skew4"] = skew_polynomial(4, rng.choice(Q_CHOICES))
        grid += [(name, (cmd,), "6") for name in inputs
                 for cmd in KOSZUL_DEPTH_COMMANDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, doc in inputs.items():
        (workdir / f"{name}.json").write_text(json.dumps(doc, indent=1))
    return [(f"{name}:{' '.join(cmd)}",
             [cmd[0], str(workdir / f"{name}.json"), "--max-degree", deg, *cmd[1:]])
            for name, cmd, deg in grid]
