"""E10 (extension) -- incremental vs from-scratch re-validation.

The incremental validator keeps a mutation stream's report current by
re-checking only affected scopes: a mutation marks them dirty and the next
read flushes them in one kernel pass.  Both sides read the verdict after
every mutation.  This benchmark quantifies the win over
re-running the indexed engine after every mutation, across graph sizes --
the speedup should grow linearly with graph size since per-mutation work is
O(affected scope), not O(n).  Equality of the resulting reports is asserted
(and tested exhaustively in the differential test suite).
"""

import pytest

from repro.validation import IncrementalValidator, IndexedValidator
from repro.workloads import load, user_session_graph

SCHEMA = load("user_session_edge_props")
SIZES = [100, 400, 1600]


def _mutations(live: IncrementalValidator, tag: str) -> bool:
    """A representative burst: add a user+session, break and fix a key.

    The verdict is read after every mutation, as the from-scratch side
    validates after every mutation: mutations only mark scopes dirty and a
    read flushes them, so reading once at the end would compare one batch
    flush against seven full runs."""
    user, session = f"u_{tag}", f"s_{tag}"
    burst = (
        lambda: live.add_node(user, "User", {"id": f"id_{tag}", "login": tag}),
        lambda: live.add_node(session, "UserSession", {"id": f"sid_{tag}", "startTime": "t"}),
        lambda: live.add_edge(f"e_{tag}", session, user, "user", {"certainty": 1.0}),
        lambda: live.set_property(user, "id", "user-0"),  # DS7 collision
        lambda: live.set_property(user, "id", f"id_{tag}"),  # repaired
        lambda: live.remove_node(session),
        lambda: live.remove_node(user),
    )
    for mutate in burst:
        mutate()
        conforms = live.conforms
    return conforms


@pytest.mark.experiment("E10")
@pytest.mark.parametrize("num_users", SIZES)
def test_incremental_mutation_burst(benchmark, num_users):
    graph = user_session_graph(num_users, 2, seed=5)
    live = IncrementalValidator(SCHEMA, graph)
    counter = [0]

    def burst():
        counter[0] += 1
        return _mutations(live, f"b{counter[0]}")

    benchmark.extra_info["n"] = len(graph)
    assert benchmark(burst)


@pytest.mark.experiment("E10")
@pytest.mark.parametrize("num_users", SIZES)
def test_from_scratch_equivalent_burst(benchmark, num_users):
    """The same burst, revalidating the whole graph after every mutation."""
    graph = user_session_graph(num_users, 2, seed=5)
    validator = IndexedValidator(SCHEMA)
    counter = [0]

    def burst():
        counter[0] += 1
        tag = f"b{counter[0]}"
        graph.add_node(f"u_{tag}", "User", {"id": f"id_{tag}", "login": tag})
        validator.validate(graph)
        graph.add_node(f"s_{tag}", "UserSession", {"id": f"sid_{tag}", "startTime": "t"})
        validator.validate(graph)
        graph.add_edge(f"e_{tag}", f"s_{tag}", f"u_{tag}", "user", {"certainty": 1.0})
        validator.validate(graph)
        graph.set_property(f"u_{tag}", "id", "user-0")
        validator.validate(graph)
        graph.set_property(f"u_{tag}", "id", f"id_{tag}")
        validator.validate(graph)
        graph.remove_node(f"s_{tag}")
        validator.validate(graph)
        graph.remove_node(f"u_{tag}")
        return validator.validate(graph).conforms

    benchmark.extra_info["n"] = len(graph)
    assert benchmark(burst)
