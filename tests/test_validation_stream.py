"""JSONL graph I/O and the out-of-core streaming validator.

Two contracts under test:

* :mod:`repro.pg.io`'s JSON Lines path round-trips graphs and reports
  malformed records with line/column spans (golden messages);
* :class:`repro.validation.StreamValidator` produces reports that are
  *byte-identical* to in-memory validation of the same graph, regardless
  of chunk size, and honours budgets and observability contracts.
"""

import io
import json

import pytest

from repro.errors import GraphLoadError
from repro import obs
from repro.pg import (
    GraphBuilder,
    dump_graph_jsonl,
    iter_graph_jsonl,
    load_graph_jsonl,
    random_graph,
)
from repro.resilience import Budget, BudgetExhaustedError
from repro.validation import (
    IndexedValidator,
    ParallelValidator,
    StreamValidator,
    validate_jsonl,
)
from repro.validation.stream import StringPool
from repro.workloads import corrupt_graph, library_graph, user_session_graph
from repro.workloads.paper_schemas import CORPUS

SCHEMAS = {
    name: CORPUS[name].load()
    for name in ("user_session_edge_props", "library", "food_union")
}


def report_bytes(report):
    """Full serialized identity of a report -- order included."""
    return (
        report.mode,
        report.complete,
        report.rules_checked,
        tuple(str(violation) for violation in report.violations),
    )


def write_jsonl(tmp_path, graph, name="g.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fp:
        dump_graph_jsonl(graph, fp)
    return path


def graphs_for_streaming():
    yield "library", library_graph(6, 10, num_series=2, num_publishers=2, seed=3)
    yield "user_session_edge_props", user_session_graph(10, sessions_per_user=2, seed=4)
    for seed in range(3):
        yield "library", random_graph(
            16,
            24,
            node_labels=("Author", "Book", "BookSeries", "Publisher", "Ghost"),
            edge_labels=("wrote", "partOf", "publishedBy", "knows"),
            prop_names=("name", "title", "numPages", "weight"),
            prop_probability=0.6,
            seed=seed,
        )
    base = library_graph(6, 10, num_series=2, num_publishers=2, seed=3)
    for rule in ("WS1", "SS2", "WS3", "DS1"):
        corrupted = corrupt_graph(base, SCHEMAS["library"], rule, seed=9)
        if corrupted is not None:
            yield "library", corrupted


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        graph = library_graph(5, 8, num_series=1, num_publishers=2, seed=7)
        path = write_jsonl(tmp_path, graph)
        with open(path, "r", encoding="utf-8") as fp:
            loaded = load_graph_jsonl(fp, source=str(path))
        assert list(loaded.node_items()) == list(graph.node_items())
        assert list(loaded.edge_records()) == list(graph.edge_records())
        assert sorted(loaded.property_items()) == sorted(graph.property_items())

    def test_iter_skips_blank_lines(self):
        text = '{"type": "node", "id": "a", "label": "L"}\n\n  \n'
        records = list(iter_graph_jsonl(io.StringIO(text), "g.jsonl"))
        assert [line for line, _ in records] == [1]

    def test_empty_properties_key_omitted(self):
        builder = GraphBuilder()
        builder.node("a", "L")
        builder.node("b", "L", p=1)
        buffer = io.StringIO()
        dump_graph_jsonl(builder.graph(), buffer)
        first, second = buffer.getvalue().splitlines()
        assert "properties" not in first
        assert json.loads(second)["properties"] == {"p": 1}


class TestJsonlGoldenErrors:
    """Malformed records must carry exact line/column spans."""

    def load(self, text):
        with pytest.raises(GraphLoadError) as err:
            load_graph_jsonl(io.StringIO(text), source="g.jsonl")
        return err.value

    def test_invalid_json_has_line_and_column(self):
        good = '{"type": "node", "id": "a", "label": "L"}\n'
        error = self.load(good + "{bad}\n")
        assert error.line == 2
        assert error.column == 2
        assert error.offset == len(good) + 1
        assert str(error) == (
            "invalid JSON: Expecting property name enclosed in double quotes "
            "in g.jsonl at line 2, column 2 (char 43)"
        )

    def test_non_object_record(self):
        error = self.load("[1, 2]\n")
        assert (error.line, error.column) == (1, 1)
        assert "record must be an object, got list" in str(error)

    def test_missing_type_key(self):
        error = self.load('{"id": "a"}\n')
        assert "record is missing required key 'type'" in str(error)
        assert "at line 1, column 1" in str(error)

    def test_bad_type_value(self):
        error = self.load('{"type": "vertex", "id": "a"}\n')
        assert "record \"type\" must be \"node\" or \"edge\", got 'vertex'" in str(
            error
        )

    def test_node_missing_label(self):
        error = self.load('{"type": "node", "id": "a"}\n')
        assert str(error) == (
            "node record is missing required key 'label' "
            "in g.jsonl at line 1, column 1"
        )

    def test_edge_missing_target(self):
        error = self.load(
            '{"type": "edge", "id": "e", "label": "l", "source": "a"}\n'
        )
        assert "edge record is missing required key 'target'" in str(error)

    def test_bad_properties_shape(self):
        error = self.load(
            '{"type": "node", "id": "a", "label": "L", "properties": [1]}\n'
        )
        assert "node record properties must be an object, got list" in str(error)

    def test_duplicate_id_reports_offending_line(self):
        text = (
            '{"type": "node", "id": "a", "label": "L"}\n'
            '{"type": "node", "id": "a", "label": "L"}\n'
        )
        error = self.load(text)
        assert error.line == 2
        assert str(error) == (
            "malformed graph element: element id already in use: 'a' "
            "in g.jsonl at line 2, column 1"
        )

    def test_dangling_edge_reports_line(self):
        text = (
            '{"type": "node", "id": "a", "label": "L"}\n'
            '{"type": "edge", "id": "e", "label": "l", '
            '"source": "a", "target": "ghost"}\n'
        )
        error = self.load(text)
        assert error.line == 2
        assert "edge target is not a node: 'ghost'" in str(error)


class TestStringPool:
    def test_interning_is_dense_and_stable(self):
        pool = StringPool()
        assert pool.intern("a") == 0
        assert pool.intern("b") == 1
        assert pool.intern("a") == 0
        assert pool[1] == "b"
        assert len(pool) == 2


class TestStreamAgreement:
    """Streamed reports are byte-identical to in-memory validation."""

    @pytest.mark.parametrize("chunk_elements", [7, 50, 10**6])
    def test_chunked_equals_in_memory(self, tmp_path, chunk_elements):
        for schema_name, graph in graphs_for_streaming():
            schema = SCHEMAS[schema_name]
            path = write_jsonl(tmp_path, graph)
            expected = report_bytes(
                ParallelValidator(schema, jobs=1).validate(graph)
            )
            streamed = validate_jsonl(
                schema, path, chunk_elements=chunk_elements
            )
            assert report_bytes(streamed) == expected, (
                schema_name,
                chunk_elements,
            )
            assert streamed.keys() == IndexedValidator(schema).validate(graph).keys()

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_stream_equals_parallel(self, tmp_path, jobs):
        schema = SCHEMAS["library"]
        graph = corrupt_graph(
            library_graph(6, 10, num_series=2, num_publishers=2, seed=3),
            schema,
            "WS3",
            seed=5,
        )
        path = write_jsonl(tmp_path, graph)
        validator = ParallelValidator(schema, jobs=jobs)
        expected = report_bytes(validator.validate(graph))
        streamed = validate_jsonl(schema, path, chunk_elements=11)
        assert report_bytes(streamed) == expected

    def test_extended_mode_parity(self, tmp_path):
        schema = SCHEMAS["library"]
        graph = library_graph(5, 9, num_series=1, num_publishers=2, seed=8)
        path = write_jsonl(tmp_path, graph)
        for mode in ("weak", "strong"):
            expected = report_bytes(
                ParallelValidator(schema, jobs=1).validate(graph, mode=mode)
            )
            streamed = validate_jsonl(schema, path, mode=mode, chunk_elements=9)
            assert report_bytes(streamed) == expected, mode

    def test_empty_file_conforms(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        report = validate_jsonl(SCHEMAS["library"], path)
        assert report.conforms


class TestStreamBudget:
    def make_input(self, tmp_path):
        graph = user_session_graph(40, sessions_per_user=2, seed=6)
        return write_jsonl(tmp_path, graph), graph

    def test_mid_stream_exhaustion_yields_partial(self, tmp_path):
        path, graph = self.make_input(tmp_path)
        schema = SCHEMAS["user_session_edge_props"]
        budget = Budget(max_nodes=50)
        report = validate_jsonl(
            schema, path, chunk_elements=40, budget=budget
        )
        assert not report.complete
        assert report.verdict == "unknown"
        assert report.interruption is not None

    def test_partial_report_is_deterministic(self, tmp_path):
        path, _graph = self.make_input(tmp_path)
        schema = SCHEMAS["user_session_edge_props"]
        first = validate_jsonl(
            schema, path, chunk_elements=40, budget=Budget(max_nodes=50)
        )
        second = validate_jsonl(
            schema, path, chunk_elements=40, budget=Budget(max_nodes=50)
        )
        assert report_bytes(first) == report_bytes(second)

    def test_on_budget_error_raises(self, tmp_path):
        path, _graph = self.make_input(tmp_path)
        schema = SCHEMAS["user_session_edge_props"]
        with pytest.raises(BudgetExhaustedError):
            validate_jsonl(
                schema,
                path,
                chunk_elements=40,
                budget=Budget(max_nodes=50),
                on_budget="error",
            )

    def test_ample_budget_runs_complete(self, tmp_path):
        path, graph = self.make_input(tmp_path)
        schema = SCHEMAS["user_session_edge_props"]
        report = validate_jsonl(
            schema, path, budget=Budget(max_nodes=10**6)
        )
        assert report_bytes(report) == report_bytes(
            ParallelValidator(schema, jobs=1).validate(graph)
        )


class TestStreamObservability:
    def test_gauges_and_counters(self, tmp_path):
        graph = library_graph(6, 10, num_series=2, num_publishers=2, seed=3)
        path = write_jsonl(tmp_path, graph)
        schema = SCHEMAS["library"]
        validator = StreamValidator(schema, chunk_elements=10)
        with obs.observed(metrics=True) as observation:
            validator.validate(path)
            snapshot = observation.registry.snapshot()
        assert validator.peak_resident > 0
        assert snapshot["gauges"]["stream.peak_resident"] == validator.peak_resident
        assert snapshot["gauges"]["stream.pool.labels"] > 0
        assert snapshot["counters"]["stream.nodes"] >= graph.num_nodes
        assert snapshot["counters"]["stream.edges"] >= graph.num_edges
        assert snapshot["counters"]["stream.chunks"] >= 1

    def test_spans_recorded(self, tmp_path):
        graph = library_graph(4, 6, num_series=1, num_publishers=1, seed=2)
        path = write_jsonl(tmp_path, graph)
        with obs.observed(trace=True) as observation:
            StreamValidator(SCHEMAS["library"], chunk_elements=8).validate(path)
            names = [event.name for event in observation.tracer.events()]
        assert "validation.stream" in names
        assert "validation.stream.route" in names
        assert "validation.stream.chunk" in names

    def test_bad_chunk_elements_rejected(self):
        with pytest.raises(ValueError, match="chunk_elements must be positive"):
            StreamValidator(SCHEMAS["library"], chunk_elements=0)
        with pytest.raises(ValueError, match="unknown on_budget policy"):
            StreamValidator(SCHEMAS["library"], on_budget="explode")
