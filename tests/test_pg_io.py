"""JSON serialisation of Property Graphs."""

import io
import json
from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphError, render_error
from repro.pg import (
    GraphRecords,
    PropertyGraph,
    dump_graph,
    dumps_graph,
    graph_from_dict,
    load_graph,
    load_records,
    loads_graph,
    random_graph,
    records_from_dict,
)
from repro.workloads import user_session_graph


def graphs_equal(left: PropertyGraph, right: PropertyGraph) -> bool:
    if set(left.nodes) != set(right.nodes) or set(left.edges) != set(right.edges):
        return False
    for node in left.nodes:
        if left.label(node) != right.label(node):
            return False
        if left.properties(node) != right.properties(node):
            return False
    for edge in left.edges:
        if left.endpoints(edge) != right.endpoints(edge):
            return False
        if left.label(edge) != right.label(edge):
            return False
        if left.properties(edge) != right.properties(edge):
            return False
    return True


class TestRoundTrip:
    def test_empty_graph(self):
        assert graphs_equal(loads_graph(dumps_graph(PropertyGraph())), PropertyGraph())

    def test_small_graph(self):
        graph = PropertyGraph()
        graph.add_node("a", "A", {"p": 1, "xs": (1, 2)})
        graph.add_node("b", "B")
        graph.add_edge("e", "a", "b", "r", {"w": 0.25})
        assert graphs_equal(loads_graph(dumps_graph(graph)), graph)

    def test_file_round_trip(self):
        graph = random_graph(10, 15, seed=3)
        buffer = io.StringIO()
        dump_graph(graph, buffer)
        buffer.seek(0)
        assert graphs_equal(load_graph(buffer), graph)

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=60))
    def test_random_graphs_round_trip(self, num_nodes, num_edges):
        if num_nodes == 0:
            num_edges = 0
        graph = random_graph(num_nodes, num_edges, seed=num_nodes * 100 + num_edges)
        assert graphs_equal(loads_graph(dumps_graph(graph)), graph)

    def test_array_properties_round_trip_as_tuples(self):
        graph = PropertyGraph()
        graph.add_node("a", "A", {"xs": ("x", "y")})
        restored = loads_graph(dumps_graph(graph))
        assert restored.property_value("a", "xs") == ("x", "y")


# --------------------------------------------------------------------------- #
# the records-first loader agrees with graph_from_dict, error for error
# --------------------------------------------------------------------------- #


def _outcome(load, text: str):
    """What loading *text* gives: the loaded object, or what was raised --
    its type, the CLI's ``error[E_CODE]`` line and the JSON position."""
    try:
        return "loaded", load(io.StringIO(text), source="doc.json")
    except Exception as error:  # noqa: BLE001 -- compare whatever escapes
        return (
            "raised",
            type(error),
            render_error(error),
            getattr(error, "line", None),
            getattr(error, "column", None),
            getattr(error, "offset", None),
        )


def assert_same_view(view: GraphRecords, graph: PropertyGraph) -> None:
    """*view* holds exactly what :meth:`GraphRecords.from_graph` reads off
    *graph*, and answers every kernel accessor as *graph* does."""
    expected = GraphRecords.from_graph(graph)
    assert view.nodes == expected.nodes
    assert view.edges == expected.edges
    assert len(view) == len(graph)
    assert view.source_groups == expected.source_groups
    assert view.target_groups == expected.target_groups
    labels = {record[3] for record in view.edges} | {"absent"}
    for element in [*graph.nodes, *graph.edges, "no-such-element"]:
        assert dict(view.property_map(element)) == dict(graph.property_map(element))
    for node in graph.nodes:
        for label in labels:
            assert view.out_degree(node, label) == graph.out_degree(node, label)
            assert list(view.in_edge_records(node, label)) == graph.in_edge_records(
                node, label
            )


def assert_loaders_agree(text: str) -> None:
    """``load_records`` and ``load_graph`` raise the same error on *text*,
    or load the same graph."""
    graph_outcome = _outcome(load_graph, text)
    records_outcome = _outcome(load_records, text)
    if graph_outcome[0] == records_outcome[0] == "loaded":
        assert_same_view(records_outcome[1], graph_outcome[1])
    else:
        assert records_outcome == graph_outcome


def _doc(nodes=(), edges=()) -> str:
    return json.dumps({"nodes": list(nodes), "edges": list(edges)})


A = {"id": "a", "label": "A"}
B = {"id": "b", "label": "B", "properties": {"xs": [1, 2]}}
AB = {"id": "e", "source": "a", "target": "b", "label": "r"}

MALFORMED = {
    "not an object": "[]",
    "string document": '"graph"',
    "null document": "null",
    "nodes not an array": '{"nodes": {}}',
    "edges not an array": '{"nodes": [], "edges": 3}',
    "invalid JSON": '{"nodes": [,]}',
    "truncated JSON": '{"nodes": [{"id": "a", "label": "A"',
    "deep nesting": '{"nodes": [{"id": 1, "label": "T", "properties": {"x": '
    + "[" * 5000
    + "]" * 5000
    + "}}]}",
    "node not an object": _doc([1]),
    "node is an array": _doc([["a", "A"]]),
    "node without id": _doc([{"label": "A"}]),
    "node without label": _doc([{"id": "a"}]),
    "node without either": _doc([{}]),
    "node properties an array": _doc([{**A, "properties": []}]),
    "node properties a number": _doc([{**A, "properties": 0}]),
    "node properties a string": _doc([{**A, "properties": "p"}]),
    "node properties a bool": _doc([{**A, "properties": True}]),
    "duplicate node id": _doc([A, {**A, "label": "B"}]),
    "node ids equal as numbers": _doc([{"id": 1, "label": "A"}, {"id": True, "label": "A"}]),
    "node label a number": _doc([{"id": "a", "label": 7}]),
    "node label null": _doc([{"id": "a", "label": None}]),
    "duplicate id before bad label": _doc([A, {"id": "a", "label": 7}]),
    "bad label before bad property": _doc([{"id": "a", "label": 7, "properties": {"p": None}}]),
    "unhashable node id": _doc([{"id": ["a"], "label": "A"}]),
    "dict node id": _doc([{"id": {"k": 1}, "label": "A"}]),
    "property null": _doc([{**A, "properties": {"p": None}}]),
    "property object": _doc([{**A, "properties": {"p": {"q": 1}}}]),
    "property nested array": _doc([{**A, "properties": {"p": [[1]]}}]),
    "good then bad property": _doc([{**A, "properties": {"ok": [1], "p": [None]}}]),
    "edge not an object": _doc([A, B], ["e"]),
    "edge without id": _doc([A, B], [{k: v for k, v in AB.items() if k != "id"}]),
    "edge without source": _doc([A, B], [{k: v for k, v in AB.items() if k != "source"}]),
    "edge without target": _doc([A, B], [{k: v for k, v in AB.items() if k != "target"}]),
    "edge without label": _doc([A, B], [{k: v for k, v in AB.items() if k != "label"}]),
    "edge properties an array": _doc([A, B], [{**AB, "properties": [1]}]),
    "edge id is a node id": _doc([A, B], [{**AB, "id": "a"}]),
    "duplicate edge id": _doc([A, B], [AB, AB]),
    "dangling source": _doc([A, B], [{**AB, "source": "x"}]),
    "dangling target": _doc([A, B], [{**AB, "target": "x"}]),
    "dangling both": _doc([A, B], [{**AB, "source": "x", "target": "y"}]),
    "dangling source before bad label": _doc([A, B], [{**AB, "source": "x", "label": 1}]),
    "edge label a number": _doc([A, B], [{**AB, "label": 1}]),
    "edge label before bad property": _doc(
        [A, B], [{**AB, "label": 1, "properties": {"w": None}}]
    ),
    "unhashable edge id": _doc([A, B], [{**AB, "id": ["e"]}]),
    "unhashable source": _doc([A, B], [{**AB, "source": ["a"]}]),
    "unhashable target": _doc([A, B], [{**AB, "target": {"b": 1}}]),
    "edge property null": _doc([A, B], [{**AB, "properties": {"w": None}}]),
    "edge before its nodes is fine": '{"edges": [' + json.dumps(AB) + '], "nodes": '
    + json.dumps([A, B])
    + "}",
    "empty properties": _doc([{**A, "properties": {}}], [{**AB, "target": "a", "properties": {}}]),
    "null properties": _doc([{**A, "properties": None}]),
    "numeric ids": _doc(
        [{"id": 1, "label": "A"}, {"id": 2.5, "label": "A"}],
        [{"id": 3, "source": 1, "target": 2.5, "label": "r"}],
    ),
    "empty document": "{}",
}


class TestRecordsLoaderParity:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_same_error_or_same_graph(self, case):
        assert_loaders_agree(MALFORMED[case])

    def test_every_listed_error_really_is_one(self):
        raised = [
            case for case, text in MALFORMED.items() if _outcome(load_graph, text)[0] == "raised"
        ]
        assert len(raised) >= len(MALFORMED) - 6

    def test_non_json_elements_of_a_python_document(self):
        # library callers may hand in dict subclasses and tuples
        document = {
            "nodes": [
                OrderedDict(id="a", label="A", properties=OrderedDict(xs=(1, 2))),
                {"id": "b", "label": "B", "properties": {"t": ("x",), "n": 1}},
            ],
            "edges": [OrderedDict(id="e", source="a", target="b", label="r")],
        }
        assert_same_view(records_from_dict(document), graph_from_dict(document))
        bad_documents = (
            {"nodes": [OrderedDict(id="a")]},
            {"nodes": [{**A, "properties": OrderedDict(p=None)}]},
        )
        for bad in bad_documents:
            errors = []
            for load in (graph_from_dict, records_from_dict):
                with pytest.raises(GraphError) as caught:
                    load(bad, "doc")
                errors.append((type(caught.value), str(caught.value)))
            assert errors[0] == errors[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_graphs(self, seed):
        assert_loaders_agree(dumps_graph(random_graph(25, 60, seed=seed)))
        assert_loaders_agree(dumps_graph(user_session_graph(6, 2, seed=seed)))

    def test_view_of_a_graph_tracks_the_kernel_accessors(self):
        graph = user_session_graph(5, 3, seed=7)
        # parallel edges and a self-loop exercise both group maps
        graph.add_edge("extra1", "s0_0", "u0", "user")
        graph.add_edge("loop", "u0", "u0", "knows")
        assert_same_view(GraphRecords.from_graph(graph), graph)

    def test_records_loader_shares_plain_property_maps(self):
        document = json.loads(_doc([{**A, "properties": {"p": 1}}, B]))
        view = records_from_dict(document)
        assert view.property_map("a") is document["nodes"][0]["properties"]
        # a list value is normalised into a fresh map, as add_node does
        assert view.property_map("b") == {"xs": (1, 2)}
        assert document["nodes"][1]["properties"] == {"xs": [1, 2]}
