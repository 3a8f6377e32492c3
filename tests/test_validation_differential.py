"""Differential testing: the implementations of Section 5 must agree.

* NaiveValidator, IndexedValidator and ParallelValidator (at every worker
  count) must produce *identical violation sets* on every input;
* FOValidator (the executable Theorem-1 encoding) must agree on the
  per-rule boolean verdicts.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fo import FOValidator
from repro.pg import PropertyGraph, random_graph
from repro.validation import IndexedValidator, NaiveValidator, ParallelValidator
from repro.workloads import conformant_graph, corrupt_graph, random_schema
from repro.workloads.paper_schemas import CORPUS

#: Worker counts the parallel engine joins the agreement matrix with.
PARALLEL_JOBS = (1, 2, 4)

SCHEMAS = {
    name: CORPUS[name].load()
    for name in ("user_session_edge_props", "library", "food_union", "food_interface")
}

LABEL_POOL = (
    "User",
    "UserSession",
    "Author",
    "Book",
    "BookSeries",
    "Publisher",
    "Person",
    "Pizza",
    "Pasta",
    "Food",
    "Ghost",
)
EDGE_POOL = (
    "user",
    "author",
    "favoriteBook",
    "relatedAuthor",
    "contains",
    "published",
    "favoriteFood",
    "weird",
)
PROP_POOL = ("id", "login", "title", "name", "certainty", "nicknames", "toppings")


def engines_agree(schema, graph):
    naive = NaiveValidator(schema).validate(graph)
    indexed = IndexedValidator(schema).validate(graph)
    assert naive.keys() == indexed.keys(), (
        naive.keys() ^ indexed.keys()
    )
    for jobs in PARALLEL_JOBS:
        parallel = ParallelValidator(schema, jobs=jobs).validate(graph)
        assert parallel.keys() == indexed.keys(), (
            jobs,
            parallel.keys() ^ indexed.keys(),
        )
    return indexed


def fo_agrees(schema, graph, indexed_report):
    fo_rules = FOValidator(schema).check_rules(graph)
    engine_bad = {violation.rule for violation in indexed_report.violations}
    fo_bad = {rule for rule, ok in fo_rules.items() if not ok}
    assert fo_bad == engine_bad, (fo_bad, engine_bad)


class TestRandomGraphs:
    @pytest.mark.parametrize("schema_name", sorted(SCHEMAS))
    @pytest.mark.parametrize("seed", range(5))
    def test_engines_and_fo_agree(self, schema_name, seed):
        schema = SCHEMAS[schema_name]
        graph = random_graph(
            14,
            20,
            node_labels=LABEL_POOL,
            edge_labels=EDGE_POOL,
            prop_names=PROP_POOL,
            prop_probability=0.6,
            seed=seed,
        )
        report = engines_agree(schema, graph)
        fo_agrees(schema, graph, report)

    @given(
        num_nodes=st.integers(min_value=0, max_value=16),
        num_edges=st.integers(min_value=0, max_value=24),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_engine_agreement_property(self, num_nodes, num_edges, seed):
        schema = SCHEMAS["library"]
        if num_nodes == 0:
            num_edges = 0
        graph = random_graph(
            num_nodes,
            num_edges,
            node_labels=LABEL_POOL,
            edge_labels=EDGE_POOL,
            prop_names=PROP_POOL,
            seed=seed,
        )
        engines_agree(schema, graph)


class TestRandomSchemas:
    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_on_generated_workloads(self, seed):
        schema = random_schema(
            num_object_types=5,
            num_interface_types=2,
            num_union_types=1,
            seed=seed,
        )
        graph = conformant_graph(schema, nodes_per_type=4, seed=seed)
        report = engines_agree(schema, graph)
        fo_agrees(schema, graph, report)


class TestCorruptions:
    RULES = ("SS1", "SS2", "SS4", "WS1", "WS3", "WS4", "DS1", "DS2", "DS5", "DS6", "DS7")

    @pytest.mark.parametrize("rule", RULES)
    def test_corruptions_keep_engines_agreeing(self, rule):
        schema = SCHEMAS["library"]
        from repro.workloads import library_graph

        base = library_graph(4, 6, num_series=1, num_publishers=2, seed=1)
        corrupted = corrupt_graph(base, schema, rule, seed=1)
        if corrupted is None:
            pytest.skip(f"no corruption opportunity for {rule} in this schema")
        report = engines_agree(schema, corrupted)
        assert rule in {violation.rule for violation in report.violations}


class TestEmptyGraph:
    @pytest.mark.parametrize("schema_name", sorted(SCHEMAS))
    def test_empty_graph(self, schema_name):
        schema = SCHEMAS[schema_name]
        report = engines_agree(schema, PropertyGraph())
        # an empty graph strongly satisfies every consistent schema
        assert report.conforms
        fo_agrees(schema, PropertyGraph(), report)


class TestParallelDeterminism:
    """Two parallel runs over the same input render byte-identical reports,
    regardless of worker count or rung (stable shard hash + canonical
    merge order)."""

    @pytest.mark.parametrize("rule", ("WS4", "DS1", "DS7"))
    def test_reports_are_byte_identical(self, rule, request):
        from repro.workloads import library_graph

        schema = SCHEMAS["library"]
        base = library_graph(4, 6, num_series=1, num_publishers=2, seed=1)
        corrupted = corrupt_graph(base, schema, rule, seed=1)
        if corrupted is None:
            pytest.skip(f"no corruption opportunity for {rule} in this schema")

        def render(jobs):
            report = ParallelValidator(schema, jobs=jobs).validate(corrupted)
            return "\n".join(str(violation) for violation in report.violations)

        reference = render(1)
        assert reference  # the corruption must actually produce violations
        for jobs in PARALLEL_JOBS:
            assert render(jobs) == reference, jobs
        request.getfixturevalue("process_rung")  # and one leg on processes
        assert render(2) == reference


class TestExtendedMode:
    def test_ep1_agreement_on_random_graphs(self):
        schema = SCHEMAS["user_session_edge_props"]
        naive = NaiveValidator(schema)
        indexed = IndexedValidator(schema)
        for seed in range(8):
            graph = random_graph(
                10,
                16,
                node_labels=("User", "UserSession"),
                edge_labels=("user",),
                prop_names=("certainty", "comment", "id"),
                prop_probability=0.4,
                seed=seed,
            )
            left = naive.validate(graph, mode="extended")
            right = indexed.validate(graph, mode="extended")
            assert left.keys() == right.keys(), seed
            parallel = ParallelValidator(schema, jobs=2).validate(
                graph, mode="extended"
            )
            assert parallel.keys() == right.keys(), seed

    def test_ep1_fires_only_in_extended_mode(self):
        from repro.pg import GraphBuilder

        schema = SCHEMAS["user_session_edge_props"]
        graph = (
            GraphBuilder()
            .node("u", "User", id="1", login="a")
            .node("s", "UserSession", id="2", startTime="t")
            .edge("s", "user", "u")  # missing mandatory certainty
            .graph()
        )
        strong = {v.rule for v in IndexedValidator(schema).validate(graph).violations}
        extended = {
            v.rule
            for v in IndexedValidator(schema).validate(graph, mode="extended").violations
        }
        assert "EP1" not in strong
        assert "EP1" in extended
