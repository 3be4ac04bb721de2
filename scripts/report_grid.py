#!/usr/bin/env python3
"""Run every CLI command over a fixed grid of inputs; fingerprint each report.

The grid is the bundled corpus, the skew polynomial rings in 3 and 4
letters with x_i x_j = -2/3 x_j x_i for i < j, and the Sklyanin algebras
S(1, 2, 3) (regular, PBW in no generator order) and S(1, 1, 1)
(degenerate, PBW), times every command, times the flag sets {default,
--sigma id, --max-degree 4}: 546 runs.  Then poly3 with a unipotent,
non-diagonal sigma section, times every command, with --sigma file: 13
runs.  Then the 3-letter skew ring with a deformation section whose
Nakayama shift the twist moves (a witnessed non-CY deformation on a
3-dimensional base), times every command, with default flags: 13 runs.
Then six pins: hilbert on a 2-letter file with one coefficient that some
Python versions' Fraction reads and others do not, for each of three
such coefficients; and kxy, whose Koszul components vanish from degree
3, times regular, koszul and cy at --max-degree 20, past the word cap.
Last two: the same deformation of the 3-letter skew ring written on
recombined relation rows, its nu and theta recombined to match, times
pbw and thm5 with default flags: 580 runs in all.  Each run prints one
line: the case, the exit code, and the sha256 of the printed report with
its timing_ms line removed.  Every functools cache of the package is
emptied before each run, so a run sees what a fresh CLI invocation sees.

Two checkouts print the same lines exactly when their reports agree byte
for byte apart from timing_ms.  The script exits 1 when any run reports
an internal cross-check failure (two routes to one verdict disagreed),
after printing every line:

    PYTHONPATH=src python3 scripts/report_grid.py > grid.txt
"""

import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import re
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import quadalg
from quadalg.cli import COMMANDS, main

FLAG_SETS = ((), ("--sigma", "id"), ("--max-degree", "4"))
SIGMA_FILE = (("--sigma", "file"),)
# rows in the file convention: the images of the letters as row vectors
UNIPOTENT_SIGMA = [["1", "1", "0"], ["0", "1", "2"], ["0", "0", "1"]]
SKEW_Q = Fraction(-2, 3)
SKLYANIN_POINTS = ((1, 2, 3), (1, 1, 1))
# nu of the relations ab + 2/3 ba, ac + 2/3 ca, bc + 2/3 cb of skew3
SKEW3_NU = (("b",), ("a", "c"), ("b",))
# the same deformation on other relation rows: row i combines the skew3
# rows with the coefficients RECOMBINED[i], and so do its nu and theta
RECOMBINED = ((0, -1, 1), (2, 1, 0), (1, 0, 3))
# coefficients that Fraction reads on some Python versions only
VERSION_COEFFS = (("inner_spaces", "2 / 3"), ("underscore", "1_000"),
                  ("arabic_indic_digit", "\u0663"))
PAST_CAP = (("--max-degree", "20"),)
TIMING = re.compile(r'\n  "timing_ms": \d+,')


def skew_polynomial(n, q):
    """x_i x_j = q x_j x_i for i < j, on the letters a, b, c, ..."""
    names = [chr(ord("a") + i) for i in range(n)]
    rels = [[{"coeff": "1", "word": [names[i], names[j]]},
             {"coeff": str(-q), "word": [names[j], names[i]]}]
            for i in range(n) for j in range(i + 1, n)]
    return {"generators": names, "relations": rels}


def sklyanin(a, b, c):
    """a yz + b zy + c xx, cyclically in (x, y, z); zero terms left out."""
    names = ("x", "y", "z")
    rels = []
    for i in range(3):
        x, y, z = names[i], names[(i + 1) % 3], names[(i + 2) % 3]
        rels.append([{"coeff": str(v), "word": list(w)}
                     for v, w in ((a, (y, z)), (b, (z, y)), (c, (x, x))) if v])
    return {"generators": list(names), "relations": rels}


def recombined(doc, coeffs):
    """doc with its relations and deformation restated on the rows
    sum_j coeffs[i][j] relations[j]; repeated words add up on reading."""
    def combine(row, term_lists):
        return [{"coeff": str(c * Fraction(t["coeff"])), "word": t["word"]}
                for c, terms in zip(row, term_lists) if c for t in terms]

    defm = doc["deformation"]
    return {"generators": doc["generators"],
            "relations": [combine(row, doc["relations"]) for row in coeffs],
            "deformation": {
                "nu": [combine(row, defm["nu"]) for row in coeffs],
                "theta": [str(sum(c * Fraction(t)
                                  for c, t in zip(row, defm["theta"])))
                          for row in coeffs]}}


def caches():
    """Every functools cache defined at module level in the package, each
    once: a cache is kept only in the module that defines it, not in the
    modules that import it."""
    out = []
    for info in pkgutil.iter_modules(quadalg.__path__):
        mod = importlib.import_module(f"quadalg.{info.name}")
        for obj in vars(mod).values():
            if (hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == mod.__name__):
                out.append(obj)
    return out


def inputs(workdir):
    """(name, path, commands, flag sets) of every grid input: the corpus in
    name order, then the skew rings, then the Sklyanin algebras, each with
    every command and flag set; then poly3 with the unipotent sigma section,
    with --sigma file only; then skew3 with its deformation, with default
    flags only; then the coefficient files with hilbert and kxy past the
    word cap; last skew3's deformation on recombined rows with pbw and
    thm5."""
    corpus = resources.files("quadalg") / "corpus"
    out = [(p.name[:-5], str(p), COMMANDS, FLAG_SETS)
           for p in sorted(corpus.iterdir(), key=lambda p: p.name)
           if p.name.endswith(".json")]
    for n in (3, 4):
        path = Path(workdir) / f"skew{n}.json"
        path.write_text(json.dumps(skew_polynomial(n, SKEW_Q), indent=1))
        out.append((f"skew{n}", str(path), COMMANDS, FLAG_SETS))
    for abc in SKLYANIN_POINTS:
        name = "sklyanin" + "".join(map(str, abc))
        path = Path(workdir) / f"{name}.json"
        path.write_text(json.dumps(sklyanin(*abc), indent=1))
        out.append((name, str(path), COMMANDS, FLAG_SETS))
    poly3 = json.loads((corpus / "poly3.json").read_text())
    poly3["sigma"] = UNIPOTENT_SIGMA
    path = Path(workdir) / "poly3_unipotent.json"
    path.write_text(json.dumps(poly3, indent=1))
    out.append(("poly3_unipotent", str(path), COMMANDS, SIGMA_FILE))
    skew3 = skew_polynomial(3, SKEW_Q)
    skew3["deformation"] = {
        "nu": [[{"coeff": "-1", "word": [x]} for x in row] for row in SKEW3_NU],
        "theta": ["0"] * len(SKEW3_NU)}
    path = Path(workdir) / "skew3_deformed.json"
    path.write_text(json.dumps(skew3, indent=1))
    out.append(("skew3_deformed", str(path), COMMANDS, ((),)))
    for name, coeff in VERSION_COEFFS:
        path = Path(workdir) / f"coeff_{name}.json"
        path.write_text(json.dumps({
            "generators": ["x", "y"],
            "relations": [[{"coeff": "1", "word": ["x", "y"]},
                           {"coeff": coeff, "word": ["y", "x"]}]]}))
        out.append((f"coeff_{name}", str(path), ("hilbert",), ((),)))
    out.append(("kxy", str(corpus / "kxy.json"), ("regular", "koszul", "cy"),
                PAST_CAP))
    path = Path(workdir) / "skew3_recombined.json"
    path.write_text(json.dumps(recombined(skew3, RECOMBINED), indent=1))
    out.append(("skew3_recombined", str(path), ("pbw", "thm5"), ((),)))
    return out


def run():
    clear = caches()
    broken = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, path, commands, flag_sets in inputs(workdir):
            for cmd in commands:
                for flags in flag_sets:
                    for cache in clear:
                        cache.cache_clear()
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = main([cmd, path, *flags])
                    report = buf.getvalue()
                    broken += "internal cross-check failed" in report
                    digest = hashlib.sha256(
                        TIMING.sub("", report).encode()).hexdigest()
                    case = " ".join((name, cmd) + flags)
                    print(f"{case}\t{code}\t{digest}", flush=True)
    if broken:
        print(f"{broken} runs failed an internal cross-check", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(run())
