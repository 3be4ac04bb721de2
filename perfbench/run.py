#!/usr/bin/env python3
"""quadalg benchmark: four CLI workloads, end-to-end and per-layer metrics.

BENCHMARK.json lists three of them; koszul_depth is run by --all and on
request (workloads.py says why).

One run of one workload, from the root of a checkout:

    python3 perfbench/run.py --workload corpus_cli --seed 3 --seconds 16 --trace 0

The run happens in a fresh child interpreter (perfbench/child.py), so no
heap or cache state leaks from one run into the next; more children only
time the set-up.  A run does a fixed number of whole cycles of the
workload's cases, --seconds rounded to whole cycles of the length in
workloads.NOMINAL_CYCLE_S.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics of BENCHMARK.json.  Every time is divided by the
machine's slowdown measured around it (see speed.py), so it reads as on an
idle machine; a case's time is the median over the run's cycles, and
cases_per_s is the number of cases over the sum of those times.
With ``--trace 1`` it holds the per-layer metrics of one traced cycle, and
the tracing overhead against untraced passes over the same cases.  A
readable summary, the environment record and every failed check go to
stderr.

Everything at once, untraced runs of every workload over seeds 0..9, then
one traced run of each:

    python3 perfbench/run.py --all [--out FILE]

Freezing the expected verdicts (done once, at the seed commit):

    python3 perfbench/run.py --freeze
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 21
RUNS = 10
RUN_TIMEOUT_S = 170
CACHE_OWNERS = ("quadratic", "regular", "skew")


class RunError(RuntimeError):
    pass


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": model}


def spawn(child_args, deadline):
    """Run child.py; return (seconds from spawn to its 'ready' line over
    the slowdown the child measured right after it, the rest of its
    stdout)."""
    # fixed string hashing, and bytecode cached inside the work directory,
    # so that set-up is importing, not compiling, whatever the caller's
    # environment says
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = time.perf_counter()
    # unbuffered, so that readline() takes no more than the first line and
    # communicate(), which reads the pipe itself, gets all the rest
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *child_args],
                            stdout=subprocess.PIPE, cwd=ROOT, env=env, bufsize=0)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if first.strip() != b"ready" or proc.returncode != 0:
        raise RunError(f"child {' '.join(child_args)} exited {proc.returncode}")
    slow, rest = rest.decode().split("\n", 1)
    return ready / float(slow), rest


def run_once(workload, seed, seconds, trace):
    """Set-up samples plus one measured child; returns (setups, result)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = WORK / f"{workload}-s{seed}-t{trace}"
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(workdir)]
    setups = [spawn(base + ["--setup-only"], deadline)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    ready, rest = spawn(base, deadline)
    setups.append(ready)
    return setups, json.loads(rest.strip().splitlines()[-1])


def case_times(result) -> list[float]:
    """Per case, the median over cycles of its time over its slowdown."""
    cycles = [[t / slow for t, slow in zip(times, slows)] for times, slows
              in zip(result["cycle_case_s"], result["cycle_case_slowdown"])]
    return [statistics.median(per_case) for per_case in zip(*cycles)]


def end_to_end(result, setups) -> dict:
    times = case_times(result)
    return {
        "cases_per_s": len(times) / sum(times),
        "case_ms_p50": statistics.median(times) * 1e3,
        "case_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(result) -> dict:
    out = {}
    for layer, row in result["layers"].items():
        for key in ("self_s", "total_s", "calls"):
            out[f"{layer}.{key}"] = row[key]
    out.update(result["counters"])
    for owner in CACHE_OWNERS:
        hits, misses = result["cache_counts"].get(owner, (0, 0))
        out[f"{owner}.cache_hits"] = hits
        out[f"{owner}.cache_misses"] = misses
    out["checks.failed_frac"] = result["failed"] / result["attempted"]
    out["trace.overhead_s"] = result["overhead_s"]
    out["trace.overhead_frac"] = result["overhead_frac"]
    out["trace.spans"] = result["spans"]
    return out


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload, seed, seconds, trace) -> dict:
    setups, result = run_once(workload, seed, seconds, trace)
    values = per_layer(result) if trace else end_to_end(result, setups)
    units = {m["name"]: m["unit"]
             for m in spec()["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise RunError(f"metrics not measured: {missing}")
    env = environment()
    raw = result["cycle_case_s"]
    log = sys.stderr
    print(f"# {workload} seed={seed} trace={trace} python={env['python']} "
          f"nproc={env['nproc']} affinity={env['affinity']} cpu={env['cpu']!r}", file=log)
    print(f"# {len(raw)} cycle(s) of {len(raw[0])} cases, {len(setups)} set-up samples, "
          f"case time {sum(map(sum, raw)):.3f} s, mean slowdown per cycle "
          f"{' '.join(f'{statistics.fmean(x):.2f}' for x in result['cycle_case_slowdown'])}, "
          f"failed_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})", file=log)
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}", file=log)
    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}", file=log)
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "runs": values}


def run_all(seconds: int, out: Path) -> int:
    """Untraced runs over seeds 0..RUNS-1 of every workload, then one traced
    run of each."""
    declared = spec()
    report = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        samples: dict[str, list] = {}
        failed_frac = []
        for seed in range(RUNS):
            print(f"# {workload} seed {seed}", file=sys.stderr, flush=True)
            line = measure(workload, seed, seconds, 0)
            ok &= line["correct"]
            failed_frac.append(line["failed"] / line["attempted"])
            for name, m in line["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        report["workloads"][workload] = {
            "end_to_end": {name: quartiles(v) for name, v in samples.items()},
            "failed_frac": failed_frac}
    for workload in WORKLOADS:
        traced = measure(workload, DEFAULT_SEED, seconds, 1)
        ok &= traced["correct"]
        report["workloads"][workload]["per_layer"] = {
            n: m["value"] for n, m in traced["metrics"].items()}
    for workload, data in report["workloads"].items():
        print(f"\n== {workload}: {RUNS} untraced runs, seeds 0..{RUNS - 1}: "
              "median [q1, q3] spread")
        for m in declared["end_to_end"]:
            q = data["end_to_end"][m["name"]]
            print(f"  {m['name']:<26} {q['median']:>12.4f} {m['unit']:<6} "
                  f"[{q['q1']:.4f}, {q['q3']:.4f}] {q['spread']:.3f}")
        print(f"  {'failed_frac':<26} {statistics.median(data['failed_frac']):>12.4f} "
              f"fraction, per run {data['failed_frac']}")
        print(f"-- traced run, seed {DEFAULT_SEED}")
        for m in declared["per_layer"]:
            print(f"  {m['name']:<26} {data['per_layer'][m['name']]:>12.6g} {m['unit']}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwritten to {out}; all checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def freeze() -> int:
    """Write expected.json from one cycle of each workload at the default seed."""
    table = {}
    for key, workload in (("corpus", "corpus_cli"), ("skew_cy", "skew_cy"),
                          ("koszul_depth", "koszul_depth")):
        workdir = WORK / f"{workload}-freeze"
        _ready, rest = spawn(["--workload", workload, "--seed", str(DEFAULT_SEED),
                              "--seconds", "0", "--workdir", str(workdir), "--freeze"],
                             time.monotonic() + 600)
        table[key] = json.loads(rest.strip().splitlines()[-1])
    (HERE / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--out", type=Path, default=WORK / "results.json")
    ap.add_argument("--freeze", action="store_true")
    args = ap.parse_args(argv)
    # a terminated run still kills and waits for its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for needed in (ROOT / "src" / "quadalg" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"run from a quadalg checkout: {needed} is missing", file=sys.stderr)
            return 2
    if args.freeze:
        return freeze()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if not args.all and args.workload is None:
        ap.error("--workload, --all or --freeze is required")
    try:
        if args.all:
            return run_all(args.seconds, args.out)
        line = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
