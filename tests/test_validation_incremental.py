"""Incremental validation must always equal from-scratch validation."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pg import PropertyGraph
from repro.validation import IncrementalValidator, IndexedValidator, validate
from repro.workloads import corrupt_graph, library_graph, user_session_graph
from repro.workloads.paper_schemas import CORPUS

SCHEMA = CORPUS["user_session_edge_props"].load()
LIBRARY = CORPUS["library"].load()


def assert_matches_scratch(incremental: IncrementalValidator):
    scratch = IndexedValidator(incremental.schema).validate(incremental.graph)
    assert incremental.report().keys() == scratch.keys(), (
        incremental.report().keys() ^ scratch.keys()
    )
    assert incremental.conforms == scratch.conforms


class TestBasicMutations:
    def test_initial_report(self):
        live = IncrementalValidator(SCHEMA, user_session_graph(5, 2, seed=0))
        assert live.conforms
        assert_matches_scratch(live)

    def test_add_bad_node_then_fix(self):
        live = IncrementalValidator(SCHEMA, user_session_graph(3, 1, seed=0))
        live.add_node("x", "Mystery")
        assert not live.conforms
        assert_matches_scratch(live)
        live.remove_node("x")
        assert live.conforms
        assert_matches_scratch(live)

    def test_property_mutations(self):
        live = IncrementalValidator(SCHEMA, user_session_graph(3, 1, seed=0))
        live.set_property("u0", "login", 99)  # WS1
        assert_matches_scratch(live)
        live.set_property("u0", "login", "fixed")
        assert_matches_scratch(live)
        live.remove_property("u0", "login")  # DS5
        assert_matches_scratch(live)
        live.set_property("u0", "login", "back")
        assert live.conforms

    def test_key_collision_and_repair(self):
        live = IncrementalValidator(SCHEMA, user_session_graph(3, 1, seed=0))
        live.set_property("u1", "id", "user-0")  # DS7 with u0
        assert not live.conforms
        assert_matches_scratch(live)
        live.set_property("u1", "id", "user-1b")
        assert live.conforms

    def test_edge_mutations(self):
        live = IncrementalValidator(SCHEMA, user_session_graph(3, 1, seed=0))
        edge = live.graph.out_edges("s0_0", "user")[0]
        live.remove_edge(edge)  # DS6
        assert not live.conforms
        assert_matches_scratch(live)
        live.add_edge("fresh", "s0_0", "u1", "user", {"certainty": 0.4})
        assert live.conforms
        assert_matches_scratch(live)
        live.add_edge("dup", "s0_0", "u2", "user")  # WS4
        assert_matches_scratch(live)

    def test_edge_property_mutations(self):
        live = IncrementalValidator(SCHEMA, user_session_graph(2, 1, seed=0))
        edge = live.graph.out_edges("s0_0", "user")[0]
        live.set_property(edge, "certainty", "broken")  # WS2
        assert_matches_scratch(live)
        live.set_property(edge, "certainty", 0.5)
        assert_matches_scratch(live)
        live.set_property(edge, "surprise", 1)  # SS3
        assert_matches_scratch(live)
        live.remove_property(edge, "surprise")
        assert live.conforms

    def test_remove_node_with_edges(self):
        live = IncrementalValidator(SCHEMA, user_session_graph(3, 2, seed=0))
        live.remove_node("u1")  # sessions s1_* lose their required user edge
        assert not live.conforms
        assert_matches_scratch(live)


def _random_stream(seed: int, read_every: int) -> None:
    """30 random mutations, compared with a scratch run every *read_every*
    mutations (the mutations between two reads flush together)."""
    rng = random.Random(seed)
    live = IncrementalValidator(SCHEMA, user_session_graph(4, 2, seed=seed))
    node_pool = list(live.graph.nodes)
    for step in range(30):
        action = rng.randrange(6)
        try:
            if action == 0:
                node = f"extra{step}"
                label = rng.choice(["User", "UserSession", "Mystery"])
                live.add_node(node, label, {"id": f"x{step}"})
                node_pool.append(node)
            elif action == 1 and node_pool:
                target = rng.choice(node_pool)
                if target in live.graph:
                    live.remove_node(target)
                    node_pool.remove(target)
            elif action == 2 and len(node_pool) >= 2:
                source, target = rng.sample(node_pool, 2)
                if source in live.graph and target in live.graph:
                    live.add_edge(f"edge{step}", source, target, rng.choice(["user", "odd"]))
            elif action == 3:
                edges = list(live.graph.edges)
                if edges:
                    live.remove_edge(rng.choice(edges))
            elif action == 4 and node_pool:
                node = rng.choice(node_pool)
                if node in live.graph:
                    live.set_property(
                        node,
                        rng.choice(["id", "login", "startTime", "odd"]),
                        rng.choice(["v", 3, 1.5, ("a", "b")]),
                    )
            else:
                if node_pool:
                    node = rng.choice(node_pool)
                    if node in live.graph:
                        live.remove_property(node, rng.choice(["id", "login"]))
        except Exception:
            continue  # structurally invalid mutation; state unchanged
        if step % read_every == read_every - 1:
            assert_matches_scratch(live)
    assert_matches_scratch(live)


class TestRandomisedStreams:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_mutation_stream(self, seed):
        _random_stream(seed, read_every=1)

    @pytest.mark.parametrize("seed", range(4, 12))
    def test_random_mutations_read_every_fifth(self, seed):
        _random_stream(seed, read_every=5)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_library_streams(self, seed):
        from repro.workloads import library_graph

        rng = random.Random(seed)
        live = IncrementalValidator(LIBRARY, library_graph(3, 4, 1, 1, seed=seed))
        nodes = list(live.graph.nodes)
        for step in range(12):
            roll = rng.random()
            if roll < 0.4 and len(nodes) >= 2:
                source, target = rng.sample(nodes, 2)
                if source in live.graph and target in live.graph:
                    live.add_edge(
                        f"m{step}",
                        source,
                        target,
                        rng.choice(["author", "relatedAuthor", "contains", "published"]),
                    )
            elif roll < 0.7:
                edges = list(live.graph.edges)
                if edges:
                    live.remove_edge(rng.choice(edges))
            else:
                node = rng.choice(nodes)
                if node in live.graph:
                    live.set_property(node, "title", rng.choice(["t", 5]))
            assert_matches_scratch(live)


class TestFromEmpty:
    def test_grow_from_empty(self):
        live = IncrementalValidator(SCHEMA, PropertyGraph())
        assert live.conforms
        live.add_node("u", "User", {"id": "1", "login": "a"})
        assert live.conforms
        live.add_node("s", "UserSession", {"id": "2"})
        assert not live.conforms  # missing startTime + user edge
        assert_matches_scratch(live)
        live.set_property("s", "startTime", "t")
        live.add_edge("e", "s", "u", "user", {"certainty": 1.0})
        assert live.conforms
        assert_matches_scratch(live)


#: The rules corrupt_graph has an injection strategy for.
_CORRUPTIBLE = ("SS1", "WS1", "SS2", "SS4", "WS3", "WS4", "DS1", "DS2", "DS5", "DS6", "DS7")


def _corrupted_cases() -> list:
    """(schema, corrupted graph) for every rule corrupt_graph can inject
    into a user_session_edge_props or a library graph."""
    bases = {
        "user_session_edge_props": (SCHEMA, user_session_graph(6, 2, seed=11)),
        "library": (LIBRARY, library_graph(3, 5, 1, 1, seed=11)),
    }
    cases = []
    for name, (schema, base) in bases.items():
        for index, rule in enumerate(_CORRUPTIBLE):
            corrupted = corrupt_graph(base, schema, rule, seed=index)
            if corrupted is not None:
                cases.append(pytest.param(schema, corrupted, id=f"{name}-{rule}"))
    return cases


def _exact(report) -> list:
    """The full violation list -- detail text included -- in one order."""
    return sorted(
        (v.rule, v.location, tuple(str(e) for e in v.elements), v.detail)
        for v in report.violations
    )


class TestExactReportParity:
    """Scope rechecks give the naive engine's report, detail text and all,
    whether the graph is validated whole or grown one mutation at a time."""

    def test_every_corruption_has_a_case(self):
        assert len(_corrupted_cases()) >= 16

    @pytest.mark.parametrize("schema, graph", _corrupted_cases())
    def test_matches_naive(self, schema, graph):
        expected = _exact(validate(schema, graph, engine="naive"))
        assert expected
        built = IncrementalValidator(schema, graph.copy())
        assert _exact(built.report()) == expected
        grown = IncrementalValidator(schema, PropertyGraph())
        for node in graph.nodes:
            grown.add_node(node, graph.label(node), graph.properties(node))
        for edge in graph.edges:
            source, target = graph.endpoints(edge)
            grown.add_edge(edge, source, target, graph.label(edge), graph.properties(edge))
        assert _exact(grown.report()) == expected


def _assert_filed_by_scope(live: IncrementalValidator) -> None:
    """Every stored violation sits under the scope its rule defines."""
    graph = live.graph
    for scope, violations in live._violations.items():
        assert violations, scope  # an empty scope stores nothing
        for violation in violations:
            first = violation.elements[0]
            if violation.rule in ("WS1", "SS1", "SS2", "DS4", "DS5", "DS6"):
                assert scope == ("node", first)
            elif violation.rule in ("WS2", "WS3", "SS3", "SS4", "DS2"):
                assert scope == ("edge", first)
            elif violation.rule in ("WS4", "DS1"):
                for edge in violation.elements:
                    assert scope == ("out", graph.endpoints(edge)[0], graph.label(edge))
            elif violation.rule == "DS3":
                for edge in violation.elements:
                    assert scope == ("in", graph.endpoints(edge)[1], graph.label(edge))
            else:
                assert violation.rule == "DS7"
                kind, site, signature = scope
                assert kind == "key"
                assert live._key_sites[site].location == violation.location
                assert set(violation.elements) <= live._signatures[site][signature]


class TestScopeStore:
    """The store built by one whole-graph pass equals, scope by scope, the
    store grown one mutation at a time with a read after each."""

    @pytest.mark.parametrize("schema, graph", _corrupted_cases())
    def test_whole_build_equals_grown_store(self, schema, graph):
        built = IncrementalValidator(schema, graph.copy())
        grown = IncrementalValidator(schema, PropertyGraph())
        for node in graph.nodes:
            grown.add_node(node, graph.label(node), graph.properties(node))
            grown.report()
        for edge in graph.edges:
            source, target = graph.endpoints(edge)
            grown.add_edge(edge, source, target, graph.label(edge), graph.properties(edge))
            grown.report()
        assert built._violations.keys() == grown._violations.keys()
        for scope, violations in built._violations.items():
            assert violations == grown._violations[scope], scope
        _assert_filed_by_scope(built)
        _assert_filed_by_scope(grown)

    def test_a_batched_commit_flushes_once(self):
        live = IncrementalValidator(SCHEMA, user_session_graph(4, 2, seed=5))
        before = dict(live._violations)
        # add, break a key, repair it and remove, all before one read
        live.add_node("u_new", "User", {"id": "id_new", "login": "new"})
        live.add_node("s_new", "UserSession", {"id": "sid_new", "startTime": "t"})
        live.add_edge("e_new", "s_new", "u_new", "user", {"certainty": 1.0})
        live.set_property("u_new", "id", "user-0")  # DS7 with u0
        live.set_property("u_new", "id", "id_new")
        live.remove_node("s_new")
        live.add_node("s_bad", "UserSession", {"id": "sid_bad"})  # DS5 + DS6
        live.set_property("u1", "id", "user-0")  # DS7 that stays
        removed, added = live.flush()
        assert _exact(live.report()) == _exact(validate(SCHEMA, live.graph, engine="naive"))
        assert {v.rule for v in added} == {"DS5", "DS6", "DS7"}
        assert removed == []
        _assert_filed_by_scope(live)
        # undo: the store returns to its old entries, scope by scope
        live.remove_node("s_bad")
        live.remove_node("u_new")
        live.set_property("u1", "id", "user-1")
        removed, added = live.flush()
        assert added == []
        assert {v.rule for v in removed} == {"DS5", "DS6", "DS7"}
        assert live._violations == before
        assert live.flush() == ([], [])  # nothing dirty: no pass
