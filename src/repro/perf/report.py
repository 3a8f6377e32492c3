"""Reports over the profile store: run diffs, per-scenario trends, CI gate.

The shapes mirror perun's ``status``/``check`` split: :func:`diff_runs`
compares two recorded runs scenario-by-scenario through the detector and
is what ``pgschema perf diff``/``perf check`` render; :func:`trend_rows`
walks one scenario's history across every recorded run and backs
``pgschema perf trend``.  Both render to markdown (human) and JSON
(machine); the CI gate is just ``diff.has_degradation``.

Environment fingerprints gate comparability: a scenario whose baseline
and target were measured under different fingerprints is reported as
``incomparable`` rather than risked as a false verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .detect import Comparison, Thresholds, Verdict, compare_samples, holm
from .store import Profile, ProfileStore

__all__ = [
    "DiffEntry",
    "DiffReport",
    "diff_runs",
    "perf_summary",
    "render_diff_markdown",
    "render_trend_markdown",
    "trend_rows",
]

#: Report-layer statuses for scenarios the detector cannot judge.
STATUS_COMPARED = "compared"
STATUS_ADDED = "added"
STATUS_REMOVED = "removed"
STATUS_INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class DiffEntry:
    """One scenario's row in a run diff."""

    scenario: str
    family: str
    status: str
    comparison: Comparison | None = None
    baseline: Profile | None = None
    target: Profile | None = None

    @property
    def verdict(self) -> str | None:
        return self.comparison.verdict if self.comparison else None

    def to_json(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "family": self.family,
            "status": self.status,
            "comparison": self.comparison.to_json() if self.comparison else None,
            "baseline_commit": self.baseline.commit if self.baseline else None,
            "target_commit": self.target.commit if self.target else None,
        }


@dataclass(frozen=True)
class DiffReport:
    """Every scenario's comparison between two recorded runs."""

    baseline_run: int
    target_run: int
    entries: tuple[DiffEntry, ...]

    @property
    def has_degradation(self) -> bool:
        return any(
            entry.comparison is not None and entry.comparison.is_degradation
            for entry in self.entries
        )

    @property
    def degradations(self) -> list[DiffEntry]:
        return [
            entry
            for entry in self.entries
            if entry.comparison is not None and entry.comparison.is_degradation
        ]

    def verdict_counts(self) -> dict[str, int]:
        counts = {verdict: 0 for verdict in Verdict.ALL}
        for entry in self.entries:
            if entry.comparison is not None:
                counts[entry.comparison.verdict] += 1
        return counts

    def to_json(self) -> dict[str, Any]:
        return {
            "baseline_run": self.baseline_run,
            "target_run": self.target_run,
            "has_degradation": self.has_degradation,
            "verdicts": self.verdict_counts(),
            "entries": [entry.to_json() for entry in self.entries],
        }


def _latest_by_scenario(profiles: list[Profile]) -> dict[str, Profile]:
    latest: dict[str, Profile] = {}
    for profile in profiles:
        latest[profile.scenario] = profile  # append order: last one wins
    return latest


def diff_runs(
    store: ProfileStore,
    baseline_run: int | None = None,
    target_run: int | None = None,
    thresholds: Thresholds | None = None,
) -> DiffReport:
    """Compare two runs scenario-by-scenario through the detector.

    Defaults to the last two recorded runs -- the ``perf check`` CI shape,
    where run N-1 is the baseline artifact and run N is the fresh record.
    The compared scenarios are one family: :func:`~repro.perf.detect.holm`
    corrects their confirmations for multiplicity.
    """
    runs = store.runs()
    if target_run is None:
        target_run = max(runs, default=0)
    if baseline_run is None:
        earlier = [run for run in runs if run < target_run]
        baseline_run = max(earlier, default=0)
    for run, role in ((baseline_run, "baseline"), (target_run, "target")):
        if run not in runs:
            recorded = ", ".join(str(r) for r in runs) or "none"
            raise ValueError(
                f"{role} run {run} is not in the store (recorded runs: {recorded})"
            )
    baseline_profiles = _latest_by_scenario(runs[baseline_run])
    target_profiles = _latest_by_scenario(runs[target_run])
    entries: list[DiffEntry] = []
    for scenario in sorted(set(baseline_profiles) | set(target_profiles)):
        baseline = baseline_profiles.get(scenario)
        target = target_profiles.get(scenario)
        if baseline is None:
            assert target is not None
            entries.append(
                DiffEntry(scenario, target.family, STATUS_ADDED, target=target)
            )
        elif target is None:
            entries.append(
                DiffEntry(
                    scenario, baseline.family, STATUS_REMOVED, baseline=baseline
                )
            )
        elif baseline.env.get("digest") != target.env.get("digest"):
            entries.append(
                DiffEntry(
                    scenario,
                    target.family,
                    STATUS_INCOMPARABLE,
                    baseline=baseline,
                    target=target,
                )
            )
        else:
            comparison = compare_samples(
                baseline.samples, target.samples, thresholds
            )
            entries.append(
                DiffEntry(
                    scenario,
                    target.family,
                    STATUS_COMPARED,
                    comparison=comparison,
                    baseline=baseline,
                    target=target,
                )
            )
    compared = {i: e.comparison for i, e in enumerate(entries) if e.comparison is not None}
    for index, comparison in zip(compared, holm(list(compared.values()), thresholds)):
        entries[index] = replace(entries[index], comparison=comparison)
    return DiffReport(
        baseline_run=baseline_run, target_run=target_run, entries=tuple(entries)
    )


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1000:.2f}ms"


def render_diff_markdown(report: DiffReport) -> str:
    """The human view ``pgschema perf diff`` prints."""
    lines = [
        f"## perf diff: run {report.baseline_run} -> run {report.target_run}",
        "",
        "| scenario | verdict | ratio | p | baseline | target |",
        "|---|---|---|---|---|---|",
    ]
    for entry in report.entries:
        if entry.comparison is None:
            lines.append(
                f"| {entry.scenario} | ({entry.status}) | - | - | - | - |"
            )
            continue
        comparison = entry.comparison
        verdict = comparison.verdict
        if comparison.severity is not None:
            verdict = f"{verdict} ({comparison.severity})"
        p_text = "-" if comparison.p_value is None else f"{comparison.p_value:.4f}"
        lines.append(
            f"| {entry.scenario} | {verdict} | {comparison.ratio:.2f}x"
            f" | {p_text} | {_format_seconds(comparison.baseline_median)}"
            f" | {_format_seconds(comparison.target_median)} |"
        )
    counts = report.verdict_counts()
    summary = ", ".join(
        f"{verdict}: {counts[verdict]}" for verdict in Verdict.ALL if counts[verdict]
    )
    lines += ["", summary or "no comparable scenarios"]
    return "\n".join(lines) + "\n"


def trend_rows(
    store: ProfileStore, scenario: str | None = None
) -> dict[str, list[dict[str, Any]]]:
    """Per-scenario history across runs: median, best, delta vs previous.

    ``delta_pct`` is the median's percentage change against the previous
    run of the *same* scenario under the same environment fingerprint
    (``None`` for the first run or across a fingerprint change).
    """
    history: dict[str, list[dict[str, Any]]] = {}
    previous: dict[str, Profile] = {}
    for run, profiles in store.runs().items():
        for profile in _latest_by_scenario(profiles).values():
            if scenario is not None and profile.scenario != scenario:
                continue
            prior = previous.get(profile.scenario)
            delta_pct: float | None = None
            if (
                prior is not None
                and prior.env.get("digest") == profile.env.get("digest")
                and prior.median > 0
            ):
                delta_pct = (profile.median / prior.median - 1.0) * 100
            history.setdefault(profile.scenario, []).append(
                {
                    "run": run,
                    "commit": profile.commit,
                    "median_s": profile.median,
                    "best_s": profile.best,
                    "samples": len(profile.samples),
                    "quick": profile.quick,
                    "delta_pct": delta_pct,
                }
            )
            previous[profile.scenario] = profile
    if scenario is not None and not history:
        known = ", ".join(store.scenarios()) or "none"
        raise ValueError(
            f"scenario {scenario!r} has no recorded profiles (known: {known})"
        )
    return history


def render_trend_markdown(history: dict[str, list[dict[str, Any]]]) -> str:
    """The human view ``pgschema perf trend`` prints."""
    lines = ["## perf trend", ""]
    for name in sorted(history):
        lines += [
            f"### {name}",
            "",
            "| run | commit | median | best | delta |",
            "|---|---|---|---|---|",
        ]
        for row in history[name]:
            delta = (
                "-"
                if row["delta_pct"] is None
                else f"{row['delta_pct']:+.1f}%"
            )
            lines.append(
                f"| {row['run']} | {row['commit'][:12]}"
                f" | {_format_seconds(row['median_s'])}"
                f" | {_format_seconds(row['best_s'])} | {delta} |"
            )
        lines.append("")
    if len(lines) == 2:
        lines.append("no recorded profiles")
    return "\n".join(lines) + "\n"


def perf_summary(
    store: ProfileStore, thresholds: Thresholds | None = None
) -> dict[str, Any]:
    """The ``perf`` block for ``pgschema stats --json`` and ``/v1/stats``.

    The store summary plus the newest verdicts -- the diff of the last two
    recorded runs, reduced to counts and the degraded scenario ids.
    """
    summary = store.summary()
    summary["verdicts"] = None
    runs = sorted(store.runs()) if store.exists() else []
    if len(runs) >= 2:
        report = diff_runs(store, thresholds=thresholds)
        summary["verdicts"] = {
            "baseline_run": report.baseline_run,
            "target_run": report.target_run,
            "counts": report.verdict_counts(),
            "degradations": [entry.scenario for entry in report.degradations],
        }
    return summary
