#!/usr/bin/env python3
"""Sweep every bundled corpus file through every subcommand and tabulate.

Cells show the exit status: ok (0), fail (1), err (2), limit (3).
Commands that need a deformation section or a specific dimension will
legitimately report err on files lacking them.  After the table, one line
per package cache gives its hits, misses, current size and bound over the
sweep, which runs in one process with the caches warm across commands.

The table and the cache lines go to stdout and are the same on every run;
scripts/run_corpus.expected holds them, and a change that moves a status
or a cache count updates that file in the same commit:

    PYTHONPATH=src python3 scripts/run_corpus.py | diff scripts/run_corpus.expected -

The timing line goes to stderr.
"""

import argparse
import contextlib
import io
import sys
import time
from importlib import resources

from quadalg.cli import COMMANDS, main
from report_grid import caches

LABEL = {0: "ok", 1: "fail", 2: "err", 3: "limit"}


def run(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-degree", type=int, default=5)
    args = ap.parse_args(argv)
    corpus_dir = resources.files("quadalg") / "corpus"
    files = sorted(p.name[:-5] for p in corpus_dir.iterdir()
                   if p.name.endswith(".json"))
    commands = list(COMMANDS)
    width = max(len(f) for f in files) + 2
    cell = max(len(c) for c in commands) + 1
    header = " " * width + "".join(c.rjust(cell) for c in commands)
    print(header)
    started = time.perf_counter()
    total = 0
    for name in files:
        path = str(corpus_dir / f"{name}.json")
        row = [name.ljust(width)]
        for cmd in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([cmd, path, "--max-degree", str(args.max_degree)])
            row.append(LABEL.get(code, str(code)).rjust(cell))
            total += 1
        print("".join(row))
    elapsed = time.perf_counter() - started
    print()
    print(f"{total} invocations in {elapsed:.1f}s", file=sys.stderr)
    for cache in caches():
        info = cache.cache_info()
        print(f"{cache.__module__}.{cache.__name__}: {info.hits} hits, "
              f"{info.misses} misses, {info.currsize} of {info.maxsize} "
              f"entries")
    return 0


if __name__ == "__main__":
    sys.exit(run())
