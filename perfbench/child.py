"""One benchmark run, in a fresh interpreter started by run.py.

Set-up is importing quadalg and writing the workload's inputs; the line
``ready`` on stdout marks its end, and the next line gives the machine's
slowdown right after it.  The run then drives the cases through
``quadalg.cli.main`` in a closed loop with one client and prints one JSON
result line on stdout.  Untraced cycles run under a speed.Meter, and the
result holds the slowdown around every case.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
        --workdir DIR [--setup-only | --freeze]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import quadalg  # noqa: E402
from quadalg import cli  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

COLD = {"corpus_cli", "skew_cy", "koszul_depth"}

def find_caches():
    """Every functools cache defined in a quadalg module, as (owner, cache).

    Found by scanning for cache_clear, so caches added or renamed later are
    covered without naming them here."""
    found = []
    for info in pkgutil.iter_modules(quadalg.__path__):
        mod = importlib.import_module(f"quadalg.{info.name}")
        for obj in vars(mod).values():
            if (hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == mod.__name__):
                found.append((info.name, obj))
    return found


class Runner:
    """Drives a workload's cases and keeps cache-count deltas."""

    def __init__(self, workload: str, cases, caches):
        self.cold = workload in COLD
        self.cases = cases
        self.caches = caches
        self.cache_counts = {owner: [0, 0] for owner, _ in caches}
        self.meter: speed.Meter | None = None
        # (start, end) of every case run since the meter was set
        self.spans: list[tuple[float, float]] = []

    def clear(self):
        for _owner, cache in self.caches:
            cache.cache_clear()

    def _cache_snapshot(self):
        return [(owner, cache.cache_info()) for owner, cache in self.caches]

    def case(self, index: int, tracer: Tracer | None = None):
        """Run one case: (case id, wall seconds, exit code, exception, stdout).
        Cache counts are kept only while tracing; the meter's samples are
        taken out of the wall time."""
        cid, argv = self.cases[index]
        if self.cold:
            self.clear()
        before = self._cache_snapshot() if tracer is not None else None
        if tracer is not None:
            tracer.case = index
        buf = io.StringIO()
        code = exc = None
        spent = self.meter.spent if self.meter else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as err:  # a case that raises out of main fails
            exc = type(err).__name__
        t1 = time.perf_counter()
        elapsed = t1 - t0
        if self.meter:
            elapsed -= self.meter.spent - spent
            self.spans.append((t0, t1))
        if before is not None:
            for (owner, old), (_, new) in zip(before, self._cache_snapshot()):
                self.cache_counts[owner][0] += new.hits - old.hits
                self.cache_counts[owner][1] += new.misses - old.misses
        return cid, elapsed, code, exc, buf.getvalue()

    def cycle(self, tracer: Tracer | None = None):
        """One pass over every case: per-case results."""
        if not self.cold:
            self.clear()
        return [self.case(i, tracer) for i in range(len(self.cases))]

    @staticmethod
    def seconds(results) -> float:
        return sum(t for _cid, t, *_ in results)

    def traced_cycle(self, tracer: Tracer):
        """One traced pass over every case, timed against untraced passes
        over the same cases: (traced results, traced seconds, untraced
        seconds).

        A warm-up pass comes first, so that neither side pays for bytecode
        specialisation or heap growth alone.  Cases of a cold workload are
        independent, so each one runs untraced and traced back to back, in
        alternating order.  corpus_session shares caches across its cycle,
        so there the traced cycle sits between two untraced ones."""
        if self.cold:
            self.case(0)
            untraced_s, results = 0.0, []
            for i in range(len(self.cases)):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        tracer.install()
                        results.append(self.case(i, tracer))
                        tracer.uninstall()
                    else:
                        untraced_s += self.case(i)[1]
            return results, self.seconds(results), untraced_s
        self.cycle()
        before = self.cycle()
        tracer.install()
        results = self.cycle(tracer)
        tracer.uninstall()
        after = self.cycle()
        return (results, self.seconds(results),
                (self.seconds(before) + self.seconds(after)) / 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--freeze", action="store_true",
                      help="print the expectations of one cycle instead")
    args = ap.parse_args(argv)
    out = sys.stdout
    cases = workloads.build(args.workload, args.seed, Path(args.workdir))
    print("ready", file=out, flush=True)
    print(speed.slowdown(), file=out, flush=True)
    if args.setup_only:
        return 0

    runner = Runner(args.workload, cases, find_caches())
    if args.freeze:
        results = runner.cycle()
        print(json.dumps(checks.freeze(args.workload, results), sort_keys=True), file=out)
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        results, traced_s, untraced_s = runner.traced_cycle(tracer)
        cycles, slowdowns = [results], [[1.0] * len(results)]
    else:
        with speed.Meter() as runner.meter:
            cycles = [runner.cycle()
                      for _ in range(workloads.cycles_for(args.workload, args.seconds))]
        slow = [runner.meter.slowdown(*span) for span in runner.spans]
        slowdowns = [slow[i:i + len(cases)] for i in range(0, len(slow), len(cases))]

    expected = checks.load_expected()
    verdicts = []
    for results in cycles:
        verdicts += checks.check_cycle(args.workload, args.seed, results, expected)
    problems = [p for _failed, p in verdicts if p]
    result = {
        "cycle_case_s": [[t for _cid, t, *_ in results] for results in cycles],
        "cycle_case_slowdown": slowdowns,
        "attempted": len(verdicts),
        "failed": sum(failed for failed, _p in verdicts),
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache_counts": runner.cache_counts,
    }
    if tracer is not None:
        result["overhead_s"] = traced_s - untraced_s
        result["overhead_frac"] = (traced_s - untraced_s) / untraced_s
        result["layers"] = tracer.layer_times()
        result["counters"] = tracer.counters
        result["spans"] = len(tracer.spans)
        spans_path = Path(args.workdir) / "spans.jsonl.gz"
        tracer.write(spans_path, [cid for cid, _argv in cases])
        result["spans_file"] = str(spans_path)
    print(json.dumps(result), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
