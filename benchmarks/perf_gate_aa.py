"""A/A calibration of the ``perf check`` gate: false alarms and detection.

Run directly: ``python benchmarks/perf_gate_aa.py [records]`` (with ``src``
on ``PYTHONPATH``); it writes ``BENCH_perf_gate_aa.json`` in the working
directory.  For each repeat count the tests and CI use (3 and 5) the script
records, in one process and one after the other as ``perf record`` does:

* *records* (default 12) quick records of the unchanged code, every quick
  scenario;
* *records* quick records of ``validate.parallel`` and ``parse.corpus``
  under the injected ``delay@parallel.merge:seconds=0.03`` (the shape of
  ``tests/test_perf.py::TestPerfCLI::test_injected_delay_trips_the_gate``).

Every pair of unchanged records (i < j) is one ``perf check``: a false
alarm is a pair where any scenario of the family is a confirmed
``Degradation``.  Two families are gated, the two scenarios the tests record
and every quick scenario (the CI shape).  Every (unchanged, delayed) pair
measures detection of the delay on ``validate.parallel``, both in the
two-scenario family and alone (CI's delayed record holds only that
scenario).  Each rate is given for the shipped detector
(:func:`repro.perf.detect.compare_samples` + :func:`repro.perf.detect.holm`)
and for the earlier rule -- a tripped screen confirmed whenever the mid-p is
at most ``alpha``, no power guard, no multiplicity correction -- recomputed
from the same samples.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys

from repro.perf import SCENARIOS, environment_fingerprint, run_scenario
from repro.perf.detect import Thresholds, Verdict, compare_samples, holm
from repro.resilience import faults

DELAY = "delay@parallel.merge:seconds=0.03"
TEST_FAMILY = ("parse.corpus", "validate.parallel")
REPEATS = (3, 5)


def record(scenarios, repeats: int) -> dict[str, tuple[float, ...]]:
    return {
        name: run_scenario(SCENARIOS[name], quick=True, repeats=repeats)[0]
        for name in scenarios
    }


def gate(baseline: dict, target: dict, family) -> tuple[set[str], set[str]]:
    """The scenarios one ``perf check`` flags: (shipped detector, old rule)."""
    alpha = Thresholds().alpha
    comparisons = [compare_samples(baseline[name], target[name]) for name in family]
    shipped = {
        name
        for name, comparison in zip(family, holm(comparisons))
        if comparison.verdict == Verdict.DEGRADATION
    }
    old = {
        name
        for name, comparison in zip(family, comparisons)
        if comparison.verdict in (Verdict.DEGRADATION, Verdict.MAYBE_DEGRADATION)
        and comparison.p_value is not None
        and comparison.p_value <= alpha
    }
    return shipped, old


def rate(hits: int, total: int) -> float:
    return round(hits / total, 4) if total else 0.0


def calibrate(records: int, repeats: int) -> dict:
    everything = tuple(SCENARIOS)
    unchanged = [record(everything, repeats) for _ in range(records)]
    faults.install(DELAY)
    try:
        delayed = [record(TEST_FAMILY, repeats) for _ in range(records)]
    finally:
        faults.uninstall()
    result: dict = {"repeats": repeats, "records": records, "false_alarms": {}}
    pairs = list(itertools.combinations(range(records), 2))
    for label, family in (("test_family", TEST_FAMILY), ("all_quick", everything)):
        alarms = {"shipped": 0, "old": 0}
        per_scenario = {name: {"shipped": 0, "old": 0} for name in family}
        for i, j in pairs:
            shipped, old = gate(unchanged[i], unchanged[j], family)
            alarms["shipped"] += bool(shipped)
            alarms["old"] += bool(old)
            for name in shipped:
                per_scenario[name]["shipped"] += 1
            for name in old:
                per_scenario[name]["old"] += 1
        result["false_alarms"][label] = {
            "pairs": len(pairs),
            "per_check_rate": {k: rate(v, len(pairs)) for k, v in alarms.items()},
            "per_scenario_rate": {
                name: {k: rate(v, len(pairs)) for k, v in counts.items()}
                for name, counts in per_scenario.items()
            },
        }
    detection = {}
    for label, family in (("test_family", TEST_FAMILY), ("alone", ("validate.parallel",))):
        caught = {"shipped": 0, "old": 0}
        for base, slow in itertools.product(unchanged, delayed):
            shipped, old = gate(base, slow, family)
            caught["shipped"] += "validate.parallel" in shipped
            caught["old"] += "validate.parallel" in old
        total = len(unchanged) * len(delayed)
        detection[label] = {"pairs": total, **{k: rate(v, total) for k, v in caught.items()}}
    result["detection"] = detection
    result["base_median_ms"] = {
        name: round(1000 * statistics.median(s for r in unchanged for s in r[name]), 3)
        for name in TEST_FAMILY
    }
    return result


def main() -> None:
    records = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    rows = [calibrate(records, repeats) for repeats in REPEATS]
    payload = {
        "experiment": "perf-gate-aa",
        "delay": DELAY,
        "thresholds": vars(Thresholds()),
        "rows": rows,
        "env": environment_fingerprint(),
    }
    with open("BENCH_perf_gate_aa.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for row in rows:
        print(f"repeats={row['repeats']} records={row['records']}")
        for label, entry in row["false_alarms"].items():
            print(f"  false alarms per check [{label}, {entry['pairs']} pairs]: "
                  f"{entry['per_check_rate']}")
        for label, entry in row["detection"].items():
            print(f"  detection [{label}, {entry['pairs']} pairs]: "
                  f"shipped={entry['shipped']} old={entry['old']}")


if __name__ == "__main__":
    main()
