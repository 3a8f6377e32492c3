"""CDC consumption in a fresh interpreter, and the in-process reference.

Usage (checkout's ``src`` on PYTHONPATH)::

    python replay_cdc.py consume WORKDIR JOURNAL...
    python replay_cdc.py layers WORKDIR JOURNAL...

``consume`` times ``CDCConsumer.run()`` with checkpoints and an events log,
then ``run(resume=True)`` from the final checkpoint, per journal; start-up
is outside both timings.  ``layers`` replays the journals layer by layer.
The last stdout line is a JSON object.

:func:`reference_replay` is also the benchmark's correctness oracle: it
replays a journal through the ``IncrementalValidator`` mutators and
rebuilds the validator on ``set_schema`` instead of migrating it, so it
reaches the consumer's answers by another path.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import LayerTimer, median  # noqa: E402

CHECKPOINT_EVERY = 16


def canonical_digest(report) -> str:
    """Order-free digest of a report's violation multiset."""
    entries = sorted(
        json.dumps([v.rule, v.location, [str(e) for e in v.elements], v.detail])
        for v in report.violations
    )
    return hashlib.sha256("\n".join(entries).encode("utf-8")).hexdigest()


def reference_replay(path: str, timer: LayerTimer | None = None) -> dict:
    """Replay *path* commit by commit; returns the commit count, the number
    of violation transitions and the final report's digest."""
    from repro.pg import PropertyGraph
    from repro.schema import parse_schema
    from repro.validation import IncrementalValidator, MutationJournal
    from repro.workloads.mutations import MUTATION_SCHEMA_SDL

    timer = timer or LayerTimer()
    with timer.layer("journal.read"):
        events = list(MutationJournal(path).read())
    validator = IncrementalValidator(parse_schema(MUTATION_SCHEMA_SDL), PropertyGraph())
    previous: frozenset = frozenset()
    commits = transitions = 0
    pending = []

    def commit() -> None:
        nonlocal validator, previous, commits, transitions
        with timer.layer("incremental.apply"):
            for event in pending:
                validator = apply(validator, event)
        with timer.layer("incremental.report"):
            current = validator.report().keys()
            transitions += len(current - previous) + len(previous - current)
        previous = current
        commits += 1
        pending.clear()

    for event in events:
        if event.is_commit:
            commit()
        else:
            pending.append(event)
    if pending:
        commit()
    return {
        "commits": commits,
        "transitions": transitions,
        "digest": canonical_digest(validator.report()),
    }


def apply(validator, event):
    """Apply one journal event; a schema change rebuilds the validator."""
    from repro.schema import parse_schema
    from repro.validation import IncrementalValidator

    record = event.record
    op = event.op
    if op == "add_node":
        validator.add_node(record["id"], record["label"], record.get("properties"))
    elif op == "remove_node":
        validator.remove_node(record["id"])
    elif op == "add_edge":
        validator.add_edge(record["id"], record["source"], record["target"],
                           record["label"], record.get("properties"))
    elif op == "remove_edge":
        validator.remove_edge(record["id"])
    elif op == "set_property":
        validator.set_property(record["id"], record["name"], record["value"])
    elif op == "remove_property":
        validator.remove_property(record["id"], record["name"])
    elif op == "set_schema":
        validator = IncrementalValidator(parse_schema(record["sdl"]), validator.graph)
    else:
        raise ValueError(f"unknown journal op {op!r}")
    return validator


def consumer(schema, path: str, directory: str, checkpoints: bool = True):
    """A consumer writing its events log (and checkpoints) in *directory*."""
    from repro.validation import CDCConsumer

    return CDCConsumer(
        schema,
        path,
        checkpoint_dir=os.path.join(directory, "checkpoints") if checkpoints else None,
        checkpoint_every=CHECKPOINT_EVERY,
        events_path=os.path.join(directory, "events.jsonl"),
    )


def consume(workdir: str, journals: list[str]) -> dict:
    from repro.schema import parse_schema
    from repro.workloads.mutations import MUTATION_SCHEMA_SDL

    schema = parse_schema(MUTATION_SCHEMA_SDL)
    origin = time.perf_counter()
    runs = []
    for index, path in enumerate(journals):
        directory = os.path.join(workdir, f"consume{index}")
        os.makedirs(directory)
        started = time.perf_counter()
        result = consumer(schema, path, directory).run()
        run_end = time.perf_counter()
        resumed = consumer(schema, path, directory).run(resume=True)
        resume_end = time.perf_counter()
        with open(os.path.join(directory, "events.jsonl"), "rb") as handle:
            logged = sum(1 for _ in handle)
        runs.append({
            "journal": os.path.basename(path),
            "start": started - origin,
            "run_s": run_end - started,
            "resume_s": resume_end - run_end,
            "commits": result.commits,
            "transitions": len(result.events),
            "logged_transitions": logged,
            "checkpoints": result.checkpoints_written,
            "digest": canonical_digest(result.report),
            "resume_commits": resumed.commits,
            "resume_digest": canonical_digest(resumed.report),
            "recovered_from": resumed.recovered_from,
        })
    return {"runs": runs}


def layers(workdir: str, journals: list[str]) -> dict:
    """Per-layer replay of every journal (times summed over journals
    unless noted)."""
    from repro.pg import graph_from_dict
    from repro.schema import parse_schema
    from repro.validation import IncrementalValidator
    from repro.workloads.mutations import MUTATION_SCHEMA_SDL

    schema = parse_schema(MUTATION_SCHEMA_SDL)
    timer = LayerTimer()
    transitions = 0
    checkpoint_ms = []
    recover_ms = []
    written = journal_bytes = 0
    replaced: list[int] = []
    real_replace = os.replace

    def counting_replace(src, dst, *args, **kwargs):
        if os.path.basename(os.fspath(dst)).startswith("ckpt-"):
            replaced.append(os.path.getsize(src))
        return real_replace(src, dst, *args, **kwargs)

    for index, path in enumerate(journals):
        transitions += reference_replay(path, timer)["transitions"]
        # checkpoint cost: the same run with and without a checkpoint_dir
        bare_dir = os.path.join(workdir, f"bare{index}")
        os.makedirs(bare_dir)
        started = time.perf_counter()
        consumer(schema, path, bare_dir, checkpoints=False).run()
        bare_s = time.perf_counter() - started
        directory = os.path.join(workdir, f"layers{index}")
        os.makedirs(directory)
        replaced.clear()
        os.replace = counting_replace
        try:
            started = time.perf_counter()
            result = consumer(schema, path, directory).run()
            full_s = time.perf_counter() - started
        finally:
            os.replace = real_replace
        checkpoint_ms.append((full_s - bare_s) * 1000.0 / max(1, result.checkpoints_written))
        written += sum(replaced) + os.path.getsize(os.path.join(directory, "events.jsonl"))
        journal_bytes += os.path.getsize(path)
        newest = max(
            name for name in os.listdir(os.path.join(directory, "checkpoints"))
            if name.startswith("ckpt-") and name.endswith(".json")
        )
        with open(os.path.join(directory, "checkpoints", newest), "rb") as handle:
            payload = json.load(handle)
        with timer.layer("cdc.recover"):
            IncrementalValidator(parse_schema(payload["schema_sdl"]), graph_from_dict(payload["graph"]))
        recover_ms.append(LayerTimer.totals_of(timer.spans[-1:])["cdc.recover"])
    totals = timer.totals()
    return {
        "layers": {
            "journal.read_ms": totals["journal.read"],
            "incremental.apply_ms": totals["incremental.apply"],
            "incremental.report_ms": totals["incremental.report"],
            "cdc.checkpoint_ms": median(checkpoint_ms),
            "cdc.bytes_written_per_journal_byte": written / journal_bytes,
            "cdc.recover_ms": median(recover_ms),
            "cdc.violation_events": transitions,
        },
        "spans": timer.spans,
    }


def main(argv: list[str]) -> int:
    mode, workdir, *journals = argv
    payload = {"consume": consume, "layers": layers}[mode](workdir, journals)
    print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
