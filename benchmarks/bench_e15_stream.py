"""E15 -- out-of-core streaming validation.

Claim under test: validation does not need the Property Graph in RAM.  The
streaming validator runs the fused kernel over JSONL files of arbitrary
size by cutting them into scope-respecting chunks -- with reports
byte-identical to any in-memory engine.

Two things are measured/asserted here:

1. scale: a JSONL graph of n >= 10^6 elements streams through full strong
   validation with the peak resident chunk graph bounded by the chunk size
   (``peak_resident <= _RESIDENT_FACTOR * chunk_elements``, asserted from
   the ``stream.peak_resident`` obs gauge) and far below the graph size;
2. identity: the streamed report is byte-identical to in-memory validation
   -- jobs in {1, 2, 4}, chunking on and off.

Set ``PGSCHEMA_BENCH_QUICK=1`` for CI smoke mode: a small file stands in
for the million-element graph (the bounded-memory assertion still runs).
"""

import json
import os
import random
import time

import pytest

from repro import obs
from repro.pg import dump_graph_jsonl
from repro.validation import ParallelValidator, StreamValidator, compile_plan
from repro.workloads import load, user_session_graph

QUICK = os.environ.get("PGSCHEMA_BENCH_QUICK") == "1"

SCHEMA = load("user_session_edge_props")

#: users -> n = 5 * users (1 User + 2 UserSession + 2 user edges).
NUM_USERS = 400 if QUICK else 200_000

#: Elements per streaming chunk.
CHUNK = 512 if QUICK else 32768

#: Chunk graphs carry ghost endpoints and degree-role edge incidents on top
#: of their assigned elements, so the resident bound is a small constant
#: factor of the chunk size, not the chunk size itself.
_RESIDENT_FACTOR = 8

JOBS = [1, 2, 4]


def write_user_session_jsonl(path, num_users, seed=42):
    """Stream-write the ``user_session_graph`` shape without materialising
    the graph: the writer's memory is O(1) no matter how large the file."""
    rng = random.Random(seed)
    count = 0
    with open(path, "w", encoding="utf-8") as fp:
        edge_count = 0
        for user_index in range(num_users):
            user = f"u{user_index}"
            properties = {
                "id": f"user-{user_index}",
                "login": f"login{user_index}",
            }
            if rng.random() < 0.5:
                properties["nicknames"] = [
                    f"nick{user_index}_{i}" for i in range(rng.randint(1, 3))
                ]
            records = [
                {"type": "node", "id": user, "label": "User", "properties": properties}
            ]
            for session_index in range(2):
                session = f"s{user_index}_{session_index}"
                session_props = {
                    "id": f"sess-{user_index}-{session_index}",
                    "startTime": f"2019-06-30T{session_index:02d}:00",
                }
                if rng.random() < 0.5:
                    session_props["endTime"] = f"2019-06-30T{session_index:02d}:45"
                records.append(
                    {
                        "type": "node",
                        "id": session,
                        "label": "UserSession",
                        "properties": session_props,
                    }
                )
                records.append(
                    {
                        "type": "edge",
                        "id": f"e{edge_count}",
                        "source": session,
                        "target": user,
                        "label": "user",
                        "properties": {"certainty": round(rng.random(), 3)},
                    }
                )
                edge_count += 1
            for record in records:
                fp.write(json.dumps(record, separators=(",", ":")) + "\n")
                count += 1
    return count


# --------------------------------------------------------------------------- #
# 1. scale: n >= 10^6 in bounded memory
# --------------------------------------------------------------------------- #


@pytest.mark.experiment("E15")
def test_stream_validates_large_graph_in_bounded_memory(tmp_path):
    path = tmp_path / "big.jsonl"
    total = write_user_session_jsonl(path, NUM_USERS)
    if not QUICK:
        assert total >= 10**6, total
    validator = StreamValidator(SCHEMA, chunk_elements=CHUNK)
    with obs.observed(metrics=True) as observation:
        start = time.perf_counter()
        report = validator.validate(path)
        elapsed = time.perf_counter() - start
        snapshot = observation.registry.snapshot()
    assert report.conforms, report.summary()
    peak = snapshot["gauges"]["stream.peak_resident"]
    assert peak == validator.peak_resident
    assert peak <= _RESIDENT_FACTOR * CHUNK, (
        f"peak resident chunk graph {peak} exceeds "
        f"{_RESIDENT_FACTOR} * chunk_elements = {_RESIDENT_FACTOR * CHUNK}"
    )
    if not QUICK:
        assert peak < total / 4, f"peak {peak} not far below n={total}"
    assert snapshot["counters"]["stream.nodes"] == NUM_USERS * 3
    print(
        f"\nE15 stream @ n={total}: {elapsed:.1f} s "
        f"({total / elapsed / 1000:.0f}k elements/s), chunk={CHUNK}, "
        f"peak resident {peak} ({peak / total:.2%} of n)"
    )


@pytest.mark.experiment("E15")
def test_peak_resident_tracks_chunk_size(tmp_path):
    """Halving the chunk size must shrink the resident bound: the memory
    ceiling is set by the caller, not by the file."""
    path = tmp_path / "medium.jsonl"
    write_user_session_jsonl(path, 200 if QUICK else 2000)
    peaks = {}
    for chunk_elements in (64, 256, 1024):
        validator = StreamValidator(SCHEMA, chunk_elements=chunk_elements)
        validator.validate(path)
        peaks[chunk_elements] = validator.peak_resident
        assert validator.peak_resident <= _RESIDENT_FACTOR * chunk_elements
    print(f"\nE15 peak resident by chunk size: {peaks}")
    assert peaks[64] < peaks[1024]


# --------------------------------------------------------------------------- #
# 2. identity: streamed == in-memory, any worker count
# --------------------------------------------------------------------------- #


def _render(report):
    return (
        report.mode,
        report.complete,
        "\n".join(str(violation) for violation in report.violations),
    )


@pytest.mark.experiment("E15")
def test_streamed_reports_byte_identical_to_in_memory(tmp_path):
    graph = user_session_graph(60 if QUICK else 600, sessions_per_user=2, seed=9)
    graph.add_node("ghost", "Ghost")  # SS1: make the report non-empty
    graph.add_node("u-bad", "User", {"id": "dup", "login": 3})  # WS1
    path = tmp_path / "g.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        dump_graph_jsonl(graph, fp)
    plan = compile_plan(SCHEMA)
    renders = set()
    for jobs in JOBS:
        validator = ParallelValidator(SCHEMA, jobs=jobs, plan=plan)
        renders.add(_render(validator.validate(graph)))
    for chunk_elements in (50, 10**7):
        streamed = StreamValidator(
            SCHEMA, chunk_elements=chunk_elements, plan=plan
        ).validate(path)
        renders.add(_render(streamed))
    assert len(renders) == 1, "engines disagree on the rendered report"
    ((_, _, rendered),) = renders
    assert "SS1" in rendered and "WS1" in rendered
