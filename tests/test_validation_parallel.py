"""The parallel engine's machinery: partitioning, rungs, merging.

Agreement with the sequential engines is covered by
``test_validation_differential.py``; this module tests the moving parts --
scope-respecting shard assignment, rung selection, worker-count
clamping, and the facade wiring.
"""

import pytest

from repro.pg import PropertyGraph, graph_from_dict, graph_to_dict
from repro.validation import (
    IndexedValidator,
    ParallelValidator,
    make_validator,
    partition_graph,
    validate,
)
from repro.workloads import corrupt_graph, library_graph, load, user_session_graph

SCHEMA = load("library")


def _graph():
    return library_graph(6, 15, num_series=2, num_publishers=2, seed=3)


class TestPartitioning:
    def test_shards_cover_the_graph_exactly_once(self):
        graph = _graph()
        for num_shards in (1, 2, 3, 7):
            shards = partition_graph(graph, num_shards)
            assert len(shards) == num_shards
            nodes = [node for shard in shards for node, _label in shard.nodes]
            edges = [record[0] for shard in shards for record in shard.edges]
            assert sorted(map(str, nodes)) == sorted(map(str, graph.nodes))
            assert sorted(map(str, edges)) == sorted(map(str, graph.edges))

    def test_records_carry_resolved_labels_and_endpoints(self):
        graph = _graph()
        (shard,) = partition_graph(graph, 1)
        for node, label in shard.nodes:
            assert graph.label(node) == label
        for edge, source, target, label, source_label, target_label in shard.edges:
            assert graph.endpoints(edge) == (source, target)
            assert graph.label(edge) == label
            assert graph.label(source) == source_label
            assert graph.label(target) == target_label

    def test_no_group_spans_two_shards(self):
        graph = _graph()
        shards = partition_graph(graph, 4)
        seen_source, seen_target = set(), set()
        for shard in shards:
            for source, label, records in shard.source_groups:
                assert (source, label) not in seen_source
                seen_source.add((source, label))
                assert all(r[1] == source and r[3] == label for r in records)
            for target, label, records in shard.target_groups:
                assert (target, label) not in seen_target
                seen_target.add((target, label))
                assert all(r[2] == target and r[3] == label for r in records)

    def test_assignment_is_stable_across_calls(self):
        graph = _graph()
        first = partition_graph(graph, 4)
        second = partition_graph(graph, 4)
        for left, right in zip(first, second):
            assert left.nodes == right.nodes
            assert left.edges == right.edges

    def test_empty_graph(self):
        shards = partition_graph(PropertyGraph(), 3)
        assert all(len(shard) == 0 for shard in shards)


class TestExecutorSelection:
    def test_jobs_one_runs_serial(self):
        validator = ParallelValidator(SCHEMA, jobs=1)
        assert validator.choose_executor(_graph()) == "serial"

    def test_single_core_hosts_stay_serial(self, monkeypatch):
        import repro.resilience.ladder as ladder_module

        monkeypatch.setattr(ladder_module, "usable_cores", lambda: 1)
        monkeypatch.setattr(ParallelValidator, "SMALL_GRAPH_THRESHOLD", 0)
        validator = ParallelValidator(SCHEMA, jobs=4)
        assert validator.choose_executor(_graph()) == "serial"

    def test_small_graphs_stay_serial_on_multicore(self, monkeypatch):
        import repro.resilience.ladder as ladder_module

        monkeypatch.setattr(ladder_module, "usable_cores", lambda: 8)
        validator = ParallelValidator(SCHEMA, jobs=4)
        small = _graph()
        assert len(small) < ParallelValidator.SMALL_GRAPH_THRESHOLD
        assert validator.choose_executor(small) == "serial"
        assert validator.shard_count == 4

    def test_large_graphs_use_processes_on_multicore(self, monkeypatch):
        import repro.resilience.ladder as ladder_module

        monkeypatch.setattr(ladder_module, "usable_cores", lambda: 8)
        schema = load("user_session_edge_props")
        validator = ParallelValidator(schema, jobs=4)
        large = user_session_graph(1024, sessions_per_user=2, seed=0)
        assert len(large) >= ParallelValidator.SMALL_GRAPH_THRESHOLD
        assert validator.choose_executor(large) == "process"

    def test_explicit_executor_wins(self, process_rung):
        """Only an explicit ``jobs`` reaches the process rung: without one
        even a big graph on a many-core host runs inline."""
        assert ParallelValidator(SCHEMA).choose_executor(_graph()) == "serial"
        assert ParallelValidator(SCHEMA, jobs=4).choose_executor(_graph()) == "process"

    def test_unknown_executor_rejected(self):
        # the rung is chosen, never named: there is no executor option
        with pytest.raises(TypeError, match="executor"):
            ParallelValidator(SCHEMA, executor="process")


class TestWorkerCounts:
    def test_no_jobs_means_one_worker_except_under_explicit_process(self, process_rung):
        # no worker count is one worker, whatever the host and the graph;
        # there is no longer an explicit process rung to make an exception
        assert ParallelValidator(SCHEMA).jobs == 1
        assert ParallelValidator(SCHEMA, jobs=3).jobs == 3

    def test_jobs_clamped_to_at_least_one(self):
        assert ParallelValidator(SCHEMA, jobs=0).jobs == 1
        assert ParallelValidator(SCHEMA, jobs=-3).jobs == 1

    @pytest.mark.parametrize("rung", ("serial",))
    def test_every_executor_path_agrees(self, rung):
        graph = _graph()
        expected = IndexedValidator(SCHEMA).validate(graph)
        validator = ParallelValidator(SCHEMA, jobs=3)
        assert validator.choose_executor(graph) == rung
        assert validator.validate(graph).keys() == expected.keys()

    def test_process_executor_smoke(self, process_rung):
        graph = library_graph(3, 5, num_series=1, num_publishers=1, seed=1)
        expected = IndexedValidator(SCHEMA).validate(graph)
        validator = ParallelValidator(SCHEMA, jobs=2)
        assert validator.choose_executor(graph) == "process"
        assert validator.validate(graph).keys() == expected.keys()

    def test_more_jobs_than_elements(self):
        graph = library_graph(1, 1, seed=0)
        report = ParallelValidator(SCHEMA, jobs=64).validate(graph)
        expected = IndexedValidator(SCHEMA).validate(graph)
        assert report.keys() == expected.keys()

    def test_empty_graph_conforms(self):
        report = ParallelValidator(SCHEMA, jobs=4).validate(PropertyGraph())
        assert report.conforms


class TestFacadeWiring:
    def test_make_validator_routes_parallel(self):
        validator = make_validator(SCHEMA, engine="parallel", jobs=2)
        assert isinstance(validator, ParallelValidator)
        assert validator.jobs == 2

    def test_validate_accepts_engine_and_jobs(self):
        graph = _graph()
        left = validate(SCHEMA, graph, engine="parallel", jobs=2)
        right = validate(SCHEMA, graph, engine="indexed")
        assert left.keys() == right.keys()

    def test_lone_surrogate_ids_fan_out_like_the_inline_run(self):
        """Lone-surrogate ids are valid JSON; the partitioner must hash them
        (every bucket encodes with ``surrogatepass``)."""
        document = graph_to_dict(corrupt_graph(_graph(), SCHEMA, "DS1", seed=1))
        for node in document["nodes"]:
            node["id"] = f"{node['id']}\ud800"
        for edge in document["edges"]:
            edge["id"] = f"{edge['id']}\udfff"
            edge["source"] = f"{edge['source']}\ud800"
            edge["target"] = f"{edge['target']}\ud800"
        graph = graph_from_dict(document)
        inline = validate(SCHEMA, graph)
        assert not inline.conforms
        fanned = validate(SCHEMA, graph, jobs=2)
        assert fanned.summary() == inline.summary()
        assert [str(v) for v in fanned.violations] == [str(v) for v in inline.violations]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown validation engine"):
            make_validator(SCHEMA, engine="quantum")
