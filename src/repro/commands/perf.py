"""``pgschema perf record|diff|trend|check``: the ``.perf/`` profile store
(docs/PERF_TRACKING.md).  Each sub-subcommand is a function of this module."""

import json
import subprocess
import sys

from ..perf import (
    PerfStoreError,
    ProfileStore,
    diff_runs,
    record_profiles,
    render_diff_markdown,
    render_trend_markdown,
    trend_rows,
)


def _git_head_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def record(args) -> int:
    store = ProfileStore(args.store)
    commit = args.commit or _git_head_commit()
    run = store.last_run() + 1

    def progress(scenario_id: str, best: float) -> None:
        if not args.json:
            print(f"  {scenario_id}: {best * 1000:.2f} ms")

    try:
        profiles = record_profiles(
            commit=commit,
            run=run,
            quick=args.quick,
            repeats=args.repeats,
            only=args.scenario,
            progress=progress,
        )
    except ValueError as error:
        raise PerfStoreError(str(error)) from None
    store.append(profiles)
    if args.json:
        print(
            json.dumps(
                {
                    "run": run,
                    "commit": commit,
                    "quick": args.quick,
                    "profiles": len(profiles),
                    "store": store.root,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"recorded run {run} at {commit[:12]}: "
            f"{len(profiles)} profile(s) -> {store.root}"
        )
    return 0


def _diff_report(args):
    try:
        return diff_runs(ProfileStore(args.store), args.baseline, args.target)
    except ValueError as error:
        raise PerfStoreError(str(error)) from None


def diff(args) -> int:
    report = _diff_report(args)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(render_diff_markdown(report), end="")
    return 1 if report.has_degradation else 0


def trend(args) -> int:
    try:
        history = trend_rows(ProfileStore(args.store), args.scenario)
    except ValueError as error:
        raise PerfStoreError(str(error)) from None
    if args.json:
        print(json.dumps(history, indent=2, sort_keys=True))
    else:
        print(render_trend_markdown(history), end="")
    return 0


def check(args) -> int:
    report = _diff_report(args)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif report.has_degradation:
        print(render_diff_markdown(report), end="")
    if report.has_degradation:
        degraded = ", ".join(entry.scenario for entry in report.degradations)
        print(
            f"perf check: FAIL -- confirmed degradation in {degraded} "
            f"(run {report.baseline_run} -> {report.target_run})",
            file=sys.stderr,
        )
        return 1
    if not args.json:
        print(
            f"perf check: OK (run {report.baseline_run} -> {report.target_run}, "
            f"{len(report.entries)} scenario(s), no confirmed degradation)"
        )
    return 0
