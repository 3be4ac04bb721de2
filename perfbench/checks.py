"""Correctness gate of the benchmark.

Every case is checked after it ran, outside its timing.  A case fails when
it raises out of ``cli.main``, prints no JSON report, or disagrees with what
is expected of it:

* the corpus grid, and the generated workloads at the default seed, are
  compared with the exit code and the sha256 of the ``verdict`` frozen in
  ``expected.json`` at the seed commit (``timing_ms`` is outside the
  verdict);
* at every seed the generated workloads are checked against facts that hold
  for every input of their family (Hilbert series of skew polynomial rings,
  CY verdicts of their twisted extensions, agreement of koszul with hilbert
  and dual).

The seed commit lets ``NotRegular`` escape ``cli.main`` from nakayama, cy
and extiso on a non-regular input.  Such an escape is a failed case, but it
is the frozen behaviour, so it does not make the run incorrect; a JSON
report with exit code 1, 2 or 3 in its place (the documented codes) passes.
A report of a failed internal cross-check (a ``ConsistencyError`` caught by
``cli.main``) fails its case and makes the run incorrect wherever it shows.
Any other failure makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

from workloads import DEFAULT_SEED

EXPECTED_PATH = Path(__file__).with_name("expected.json")
ESCAPING = {"nakayama", "cy", "extiso"}
# prefix of the error that cli.main reports for a ConsistencyError
CROSS_CHECK = "internal cross-check failed"


def verdict_sha256(verdict) -> str:
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(code, exc, stdout):
    """(exit code, report) of a finished case; report is None when the
    case raised or printed no JSON object."""
    if exc is not None:
        return None, None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return code, None
    return code, report if isinstance(report, dict) else None


def frozen_key(workload: str) -> str:
    return "corpus" if workload.startswith("corpus") else workload


def freeze(workload: str, results) -> dict:
    """Expectations of one cycle: exit code and verdict hash per case, or
    the exception that escaped."""
    table = {}
    for cid, _t, code, exc, stdout in results:
        code, report = outcome(code, exc, stdout)
        if exc is not None:
            table[cid] = {"raises": exc}
        elif report is not None and "verdict" in report:
            table[cid] = {"exit": code, "verdict_sha256": verdict_sha256(report["verdict"])}
        else:
            table[cid] = {"exit": code, "report": report}
    return table


def _family_checks(workload: str, cid: str, code, report, by_case) -> str | None:
    """Facts that hold at every seed; None when the case satisfies them."""
    name, command = cid.split(":", 1)
    verdict = report.get("verdict") if report else None
    if workload == "skew_cy":
        n = int(name[len("skew"):])
        want = {
            "cy": (0, lambda v: v["is_CY"] and v["dimension"] == n + 1),
            "cy --sigma id": (1, lambda v: not v["is_CY"] and "witness" in v),
            "extiso": (0, lambda v: all(v.values())),
            "skew": (0, lambda v: v["dims"] == [comb(n + k, k) for k in range(6)]),
            "regular": (0, lambda v: v["regular"] and v["gldim"] == n and
                        v["dual_dims"] == [comb(n, k) for k in range(6)]),
        }[command]
        if code != want[0] or verdict is None or not want[1](verdict):
            return f"exit {code}, verdict {verdict} breaks the skew polynomial facts"
        return None
    if workload == "koszul_depth":
        if name == "skew4" and code != 0:
            return f"exit {code} on the skew polynomial ring"
        if verdict is None:
            # the only error report a dense input may give is a command
            # that needs a regular algebra refusing a non-regular one
            regular = by_case.get(f"{name}:regular")
            if (command in ESCAPING and code in (1, 2, 3) and regular is not None
                    and not regular["verdict"]["regular"]):
                return None
            return f"exit {code} with error report {report}"
        if command == "koszul":
            hilbert, dual = by_case.get(f"{name}:hilbert"), by_case.get(f"{name}:dual")
            if hilbert and verdict["dims"] != hilbert["verdict"]["dims"]:
                return "koszul dims differ from hilbert dims"
            if dual and verdict["dual_dims"] != dual["verdict"]["dims"]:
                return "koszul dual_dims differ from dual dims"
        if name == "skew4" and command == "hilbert" and verdict["dims"] != [
                comb(k + 3, 3) for k in range(7)]:
            return "wrong Hilbert series of the skew polynomial ring"
        if command == "nakayama":
            regular = by_case.get(f"{name}:regular")
            if regular and regular["verdict"]["regular"] != (code == 0):
                return "nakayama exit code disagrees with the regular verdict"
    return None


def check_cycle(workload: str, seed: int, results, expected: dict):
    """Per case: (failed, problem), where problem is None unless the case
    makes the run incorrect."""
    frozen = expected.get(frozen_key(workload), {})
    use_frozen = workload.startswith("corpus") or seed == DEFAULT_SEED
    outcomes = {cid: outcome(code, exc, out) for cid, _t, code, exc, out in results}
    by_case = {cid: rep for cid, (_c, rep) in outcomes.items()
               if rep is not None and "verdict" in rep}
    verdicts = []
    for cid, _t, _code, exc, _out in results:
        name, command = cid.split(":", 1)
        code, report = outcomes[cid]
        want = frozen.get(cid) if use_frozen else None
        if use_frozen and want is None:
            verdicts.append((True, f"{cid}: no frozen expectation"))
        elif exc is not None:
            if want is not None:
                known = want == {"raises": exc}
            else:
                regular = by_case.get(f"{name}:regular")
                known = (exc == "NotRegular" and command.split()[0] in ESCAPING
                         and regular is not None and not regular["verdict"]["regular"])
            verdicts.append((True, None if known else f"{cid}: raised {exc}"))
        elif report is None:
            verdicts.append((True, f"{cid}: exit {code} without a JSON report"))
        elif str(report.get("error", "")).startswith(CROSS_CHECK):
            verdicts.append((True, f"{cid}: {report['error']}"))
        elif want is not None and "raises" in want:
            ok = code in (1, 2, 3)
            verdicts.append((not ok, None if ok else f"{cid}: exit {code}"))
        elif want is not None and not (
                code == want["exit"] and ("verdict_sha256" in want and "verdict" in report
                                          and verdict_sha256(report["verdict"])
                                          == want["verdict_sha256"]
                                          or want.get("report") == report)):
            verdicts.append((True, f"{cid}: exit {code} or verdict differs from "
                                   "the frozen expectation"))
        else:
            problem = _family_checks(workload, cid, code, report, by_case)
            verdicts.append((problem is not None,
                             f"{cid}: {problem}" if problem else None))
    return verdicts


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
