"""The benchmark's frozen verdicts, checked in tier-1.

Each gated workload of perfbench is built at its default seed and run
through quadalg.cli.main in process, every package cache emptied before
each case, as the benchmark runs its cold workloads.  perfbench/checks.py
then compares every case with the exit code and verdict hash frozen in
perfbench/expected.json and with the facts of its family, so a change that
moves a frozen verdict fails here before it fails the benchmark.  perfbench/
is read, never written: its inputs go under the test's tmp_path.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from helpers import package_caches
from quadalg import cli

# perfbench's modules import one another by their plain names
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402


def _run(argv):
    """(exit code, exception name, stdout) of one cold case."""
    for cache in package_caches().values():
        cache.cache_clear()
    buf = io.StringIO()
    code = exc = None
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as err:  # the checks judge a case that raises
        exc = type(err).__name__
    return code, exc, buf.getvalue()


@pytest.mark.parametrize("workload", ["corpus_cli", "skew_cy", "koszul_depth"])
def test_every_gated_case_gives_its_frozen_verdict(workload, tmp_path):
    seed = workloads.DEFAULT_SEED
    cases = workloads.build(workload, seed, tmp_path)
    results = [(cid, 0.0, *_run(argv)) for cid, argv in cases]
    verdicts = checks.check_cycle(workload, seed, results,
                                  checks.load_expected())
    problems = [problem for _, problem in verdicts if problem is not None]
    assert problems == []
    failed = [cid for (cid, *_), (bad, _) in zip(results, verdicts) if bad]
    assert failed == []
