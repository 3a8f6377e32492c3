"""E16 -- crash-resumable CDC validation over a mutation journal.

Three questions, one per benchmark group:

1. **Per-commit cost is bounded by touched scopes, not graph size.**  A
   fixed mutation journal is consumed on top of base graphs of growing
   size.  The consume-only timings (total minus the base-validation
   baseline measured separately) should stay flat across sizes -- the
   consumer's incremental engine marks the scopes each commit touches
   dirty, flushes them in one kernel pass per commit, and diffs only the
   scopes that flush changed to emit the commit's transitions.

2. **Checkpoint overhead.**  Consuming the same journal with checkpoints
   at every commit vs none quantifies the durability tax (serialise graph
   + violation store, fsync, rename).

3. **Recovery latency vs checkpoint interval.**  Resuming from the newest
   checkpoint costs (load + verify digest) + (replay the suffix after the
   checkpoint); a finer interval shortens the suffix at the price of more
   checkpoint writes during normal operation.
"""

import os

import pytest

from repro.pg.model import PropertyGraph
from repro.schema import parse_schema
from repro.validation import CDCConsumer
from repro.workloads import (
    MUTATION_SCHEMA_SDL,
    MutationWorkloadConfig,
    write_mutation_journal,
)

SCHEMA = parse_schema(MUTATION_SCHEMA_SDL)

if os.environ.get("PGSCHEMA_BENCH_QUICK") == "1":
    BASE_SIZES = [50, 200]
    COMMITS = 10
    INTERVALS = [1, 5]
else:
    BASE_SIZES = [100, 400, 1600, 6400]
    COMMITS = 40
    INTERVALS = [1, 4, 16]

OPS_PER_COMMIT = 5


def _base_graph(num_users: int) -> PropertyGraph:
    graph = PropertyGraph()
    for i in range(num_users):
        graph.add_node(
            f"base-u{i}", "User", {"id": f"base-{i}", "login": f"login{i}"}
        )
    return graph


def _journal(tmp_path, name="stream.jsonl", **overrides) -> str:
    path = str(tmp_path / name)
    config = MutationWorkloadConfig(
        commits=overrides.pop("commits", COMMITS),
        ops_per_commit=overrides.pop("ops_per_commit", OPS_PER_COMMIT),
        violation_probability=0.2,
        seed=7,
        **overrides,
    )
    write_mutation_journal(path, config)
    return path


@pytest.mark.experiment("E16")
@pytest.mark.parametrize("num_users", BASE_SIZES)
def test_base_validation_baseline(benchmark, tmp_path, num_users):
    """An empty journal isolates the O(n) base-graph validation setup."""
    path = _journal(tmp_path, commits=1, ops_per_commit=1)
    base = _base_graph(num_users)
    benchmark.extra_info["n"] = num_users

    def run():
        return CDCConsumer(SCHEMA, path, base_graph=base).run()

    result = benchmark(run)
    assert result.commits == 1


@pytest.mark.experiment("E16")
@pytest.mark.parametrize("num_users", BASE_SIZES)
def test_fixed_stream_over_growing_base(benchmark, tmp_path, num_users):
    """The same journal over growing bases: total minus the baseline above
    is the consume cost, which should not grow with the base size."""
    path = _journal(tmp_path)
    base = _base_graph(num_users)
    benchmark.extra_info["n"] = num_users
    benchmark.extra_info["commits"] = COMMITS

    def run():
        return CDCConsumer(SCHEMA, path, base_graph=base).run()

    result = benchmark(run)
    assert result.commits == COMMITS


@pytest.mark.experiment("E16")
@pytest.mark.parametrize("checkpoint", ["none", "every-commit"])
def test_checkpoint_overhead(benchmark, tmp_path, checkpoint):
    path = _journal(tmp_path)
    checkpoint_dir = str(tmp_path / "ckpt") if checkpoint != "none" else None
    benchmark.extra_info["commits"] = COMMITS

    def run():
        return CDCConsumer(
            SCHEMA, path, checkpoint_dir=checkpoint_dir, checkpoint_every=1
        ).run()

    result = benchmark(run)
    assert result.commits == COMMITS


@pytest.mark.experiment("E16")
@pytest.mark.parametrize("interval", INTERVALS)
def test_recovery_latency(benchmark, tmp_path, interval):
    """Warm-restart cost: load the newest checkpoint, verify it, replay
    the journal suffix behind it."""
    path = _journal(tmp_path)
    checkpoint_dir = str(tmp_path / f"ckpt-{interval}")
    kwargs = dict(checkpoint_dir=checkpoint_dir, checkpoint_every=interval)
    CDCConsumer(SCHEMA, path, **kwargs).run()  # leaves checkpoints behind
    benchmark.extra_info["commits"] = COMMITS

    def resume():
        return CDCConsumer(SCHEMA, path, **kwargs).run(resume=True)

    result = benchmark(resume)
    assert result.recovered_from.startswith("checkpoint:")
    assert result.report.complete
