"""Workload ``cdc``: validation while the graph (and its schema) mutates.

Seeded ``MutationWorkloadConfig`` journals, ~2000 commits x 5 ops in all
with ``violation_probability=0.2`` and a ``set_schema`` every ~250
commits, are consumed by ``CDCConsumer.run()`` with a checkpoint directory
(``checkpoint_every=16``) and an events log, then by ``run(resume=True)``
from the final checkpoint.  Each pass runs in a fresh interpreter and is
timed around the calls, so start-up is excluded (``oneshot`` measures it).

The commits are split over forty 50-commit journals.  One 2000-commit
journal costs minutes here, because every ``@key`` collision the stream
injects pairs with every earlier one, and a journal's cost follows its
violation count, which swings widely with the seed; forty short journals
average that out, so the rate measures the consumer, not the draw.
"""

from __future__ import annotations

import os
import time

from common import (
    SETUP_REPEATS,
    OpResult,
    Recorder,
    WorkloadResult,
    median,
    run_json_child,
)
from replay_cdc import reference_replay

JOURNALS = 40
COMMITS_PER_JOURNAL = 50
OPS_PER_COMMIT = 5
VIOLATION_PROBABILITY = 0.2
SCHEMA_CHANGE_EVERY = 5  # journals: one set_schema per ~250 commits


def generate(seed: int, directory: str) -> list[str]:
    from repro.workloads.mutations import MutationWorkloadConfig, write_mutation_journal

    paths = []
    for index in range(JOURNALS):
        path = os.path.join(directory, f"journal{index}.jsonl")
        write_mutation_journal(path, MutationWorkloadConfig(
            commits=COMMITS_PER_JOURNAL,
            ops_per_commit=OPS_PER_COMMIT,
            violation_probability=VIOLATION_PROBABILITY,
            schema_change_commits=(
                (COMMITS_PER_JOURNAL // 2,) if index % SCHEMA_CHANGE_EVERY == 0 else ()
            ),
            seed=seed * 1000 + index,
        ))
        paths.append(path)
    return paths


def check_run(run: dict, reference: dict) -> list[str]:
    """Why one journal's consumption disagrees with the reference replay."""
    problems = []
    if run["commits"] != reference["commits"]:
        problems.append(f"{run['commits']} commit(s), expected {reference['commits']}")
    if run["digest"] != reference["digest"]:
        problems.append("final report differs from the reference replay")
    if not run["transitions"] == run["logged_transitions"] == reference["transitions"]:
        problems.append(
            f"{run['transitions']} transition(s), {run['logged_transitions']} logged, "
            f"expected {reference['transitions']}"
        )
    return [f"cdc {run['journal']}: {problem}" for problem in problems]


def check_resume(run: dict, reference: dict) -> list[str]:
    problems = []
    if not str(run["recovered_from"]).startswith("checkpoint:"):
        problems.append(f"resumed from {run['recovered_from']}")
    if run["resume_commits"] != 0 or run["resume_digest"] != reference["digest"]:
        problems.append("resume replayed commits or changed the report")
    return [f"cdc resume {run['journal']}: {problem}" for problem in problems]


def named_metrics(passes: list[list[dict]]) -> dict:
    rates = [sum(r["commits"] for r in runs) / sum(r["run_s"] for r in runs) for runs in passes]
    resumes = [r["resume_s"] for runs in passes for r in runs]
    return {"cdc.commits_per_s": (median(rates), "1/s"), "cdc.resume_s": (median(resumes), "s")}


def run(checkout, seed: int, seconds: float, trace: bool, recorder: Recorder) -> WorkloadResult:
    result = WorkloadResult()
    result.primary = "cdc.commits_per_s"
    with checkout.tempdir("cdc-") as work:
        for attempt in range(SETUP_REPEATS):
            directory = os.path.join(work, f"inputs{attempt}")
            os.makedirs(directory)
            started = time.perf_counter()
            journals = generate(seed, directory)
            result.setup_s.append(time.perf_counter() - started)
        references = {os.path.basename(path): reference_replay(path) for path in journals}

        untraced: list[list[dict]] = []
        traced: list[list[dict]] = []
        window_start = time.perf_counter()
        deadline = window_start + seconds
        traced_from = window_start + seconds / 2 if trace else deadline
        index = 0
        while time.perf_counter() < deadline:
            passdir = os.path.join(work, f"pass{index}")
            os.makedirs(passdir)
            index += 1
            start = time.perf_counter()
            try:
                payload = run_json_child("replay_cdc.py", ["consume", passdir, *journals], checkout)
            except (RuntimeError, ValueError) as error:
                end = time.perf_counter()
                result.ops.append(OpResult("run", start, end, False, f"cdc pass: {error}"))
                continue
            in_traced_half = start >= traced_from
            (traced if in_traced_half else untraced).append(payload["runs"])
            for entry in payload["runs"]:
                begin = payload["_start"] + entry["start"]
                reference = references[entry["journal"]]
                for kind, problems, op_start, op_end in (
                    ("run", check_run(entry, reference), begin, begin + entry["run_s"]),
                    ("resume", check_resume(entry, reference), begin + entry["run_s"],
                     begin + entry["run_s"] + entry["resume_s"]),
                ):
                    op = OpResult(kind, op_start, op_end, not problems, "; ".join(problems))
                    op.traced = in_traced_half
                    result.ops.append(op)
                    if in_traced_half:
                        recorder.add(f"cdc.{kind}", op_start, op_end, journal=entry["journal"], ok=op.ok)
        result.window_s = time.perf_counter() - window_start
        result.read_peak_rss()

        result.named = named_metrics(untraced)
        result.traced_named = named_metrics(traced) if traced else {}
        rate = result.named["cdc.commits_per_s"][0]
        result.e2e["ops_per_s"] = rate
        result.e2e["validate_ms"] = 1000.0 / rate if rate else 0.0
        result.samples = {"passes": len(untraced), "journals": JOURNALS}
        result.stamp["validation_executor"] = "incremental"
        result.stamp["sat_executor"] = "none"
        if trace:
            layerdir = os.path.join(work, "layers")
            os.makedirs(layerdir)
            try:
                payload = run_json_child("replay_cdc.py", ["layers", layerdir, *journals], checkout)
            except (RuntimeError, ValueError) as error:
                result.ops.append(OpResult("replay", 0.0, 0.0, False, f"replay: {error}"))
                return result
            parent = recorder.add("replay.cdc", payload["_start"], payload["_start"] + payload["_wall_s"])
            recorder.add_children(parent, payload["_start"], payload["spans"])
            units = {"cdc.bytes_written_per_journal_byte": "ratio", "cdc.violation_events": "count"}
            result.layers = {
                name: (value, units.get(name, "ms")) for name, value in payload["layers"].items()
            }
    return result
