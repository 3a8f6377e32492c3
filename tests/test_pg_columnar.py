"""The columnar graph core: pools, columns, layout, and backend parity."""

import pickle

import pytest

from repro.errors import GraphError
from repro.pg import (
    ColumnarBuilder,
    ColumnarGraph,
    GraphBuilder,
    PropertyGraph,
    StringPool,
    freeze,
    profile_graph,
    random_graph,
)
from repro.pg.columnar import PropertyColumn
from repro.workloads import library_graph, user_session_graph


def sample_graph():
    builder = GraphBuilder()
    builder.node("u1", "User", login="alice", age=31, tags=("a", "b"))
    builder.node("u2", "User", login="bob")
    builder.node("p1", "Post", title="hi", score=1.5, draft=False)
    builder.edge("u1", "wrote", "p1", {"at": "t1"})
    builder.edge("u2", "liked", "p1")
    builder.edge("u1", "follows", "u2")
    return builder.graph()


class TestStringPool:
    def test_interning_is_dense_and_stable(self):
        pool = StringPool()
        assert pool.intern("a") == 0
        assert pool.intern("b") == 1
        assert pool.intern("a") == 0
        assert pool.id_of("b") == 1
        assert pool.id_of("zzz") == -1
        assert pool[1] == "b"
        assert len(pool) == 2
        assert "a" in pool and "zzz" not in pool


class TestReadParity:
    """Every read accessor must agree with the dict backend, element by
    element -- the contract that lets all four engines run unchanged."""

    @pytest.mark.parametrize(
        "make",
        [
            sample_graph,
            lambda: library_graph(4, 6, num_series=1, num_publishers=2, seed=1),
            lambda: user_session_graph(8, sessions_per_user=2, seed=2),
            lambda: random_graph(
                20,
                35,
                node_labels=("A", "B", "C"),
                edge_labels=("x", "y"),
                prop_names=("p", "q"),
                prop_probability=0.5,
                seed=5,
            ),
            PropertyGraph,
        ],
    )
    def test_accessors_agree(self, make):
        graph = make()
        frozen = freeze(graph)
        assert isinstance(frozen, ColumnarGraph)
        assert len(frozen) == len(graph)
        assert frozen.num_nodes == graph.num_nodes
        assert frozen.num_edges == graph.num_edges
        assert list(frozen.nodes) == list(graph.nodes)
        assert list(frozen.edges) == list(graph.edges)
        assert list(frozen.node_items()) == list(graph.node_items())
        assert list(frozen.edge_records()) == list(graph.edge_records())
        assert sorted(frozen.property_items()) == sorted(graph.property_items())
        for node in graph.nodes:
            assert frozen.label(node) == graph.label(node)
            assert dict(frozen.properties(node)) == dict(graph.properties(node))
            assert dict(frozen.property_map(node)) == dict(graph.property_map(node))
            assert frozen.is_node(node) and not frozen.is_edge(node)
            assert node in frozen
            for label in ("wrote", "liked", "follows", "user", "author", "x", "y"):
                assert frozen.out_degree(node, label) == graph.out_degree(node, label)
                assert sorted(frozen.out_edges(node, label)) == sorted(
                    graph.out_edges(node, label)
                )
                assert sorted(frozen.in_edges(node, label)) == sorted(
                    graph.in_edges(node, label)
                )
            assert sorted(frozen.out_edges(node)) == sorted(graph.out_edges(node))
            assert sorted(frozen.in_edges(node)) == sorted(graph.in_edges(node))
        for edge in graph.edges:
            assert frozen.label(edge) == graph.label(edge)
            assert frozen.endpoints(edge) == graph.endpoints(edge)
            assert dict(frozen.property_map(edge)) == dict(graph.property_map(edge))
            assert frozen.is_edge(edge) and not frozen.is_node(edge)
        for label in ("User", "Post", "Author", "Ghost"):
            assert frozen.nodes_with_label(label) == graph.nodes_with_label(label)
        assert "nope" not in frozen

    def test_error_messages_match_dict_backend(self):
        graph = sample_graph()
        frozen = freeze(graph)
        for method, args in [
            ("label", ("nope",)),
            ("endpoints", ("nope",)),
            ("properties", ("nope",)),
            ("endpoints", ("u1",)),
        ]:
            with pytest.raises(GraphError) as dict_err:
                getattr(graph, method)(*args)
            with pytest.raises(GraphError) as col_err:
                getattr(frozen, method)(*args)
            assert str(col_err.value) == str(dict_err.value)


class TestImmutability:
    def test_mutators_raise(self):
        frozen = freeze(sample_graph())
        for method in (
            "add_node",
            "add_edge",
            "set_property",
            "remove_property",
            "remove_edge",
            "remove_node",
        ):
            with pytest.raises(GraphError, match="graph is frozen"):
                getattr(frozen, method)()

    def test_copy_returns_self_and_thaw_matches(self):
        graph = sample_graph()
        frozen = freeze(graph)
        assert frozen.copy() is frozen
        thawed = frozen.thaw()
        assert isinstance(thawed, PropertyGraph)
        assert list(thawed.node_items()) == list(graph.node_items())
        assert list(thawed.edge_records()) == list(graph.edge_records())
        assert sorted(thawed.property_items()) == sorted(graph.property_items())
        thawed.add_node("new", "User")  # mutable again
        assert "new" not in frozen

    def test_freeze_of_frozen_is_identity(self):
        frozen = freeze(sample_graph())
        assert freeze(frozen) is frozen

    def test_model_freeze_method(self):
        graph = sample_graph()
        assert list(graph.freeze().node_items()) == list(graph.node_items())


class TestBuilder:
    def test_builder_matches_freeze(self):
        graph = sample_graph()
        builder = ColumnarBuilder()
        for node, label in graph.node_items():
            builder.add_node(node, label, graph.property_map(node))
        for edge, source, target, label, _sl, _tl in graph.edge_records():
            builder.add_edge(edge, source, target, label, graph.property_map(edge))
        assert len(builder) == len(graph)
        built = builder.build()
        frozen = freeze(graph)
        assert list(built.node_items()) == list(frozen.node_items())
        assert list(built.edge_records()) == list(frozen.edge_records())
        assert sorted(built.property_items()) == sorted(frozen.property_items())

    def test_builder_error_messages_match_property_graph(self):
        builder = ColumnarBuilder()
        graph = PropertyGraph()
        cases = [
            ("add_node", ("x", 3)),
            ("add_edge", ("e", "ghost", "ghost2", "l")),
        ]
        builder.add_node("dup", "L")
        graph.add_node("dup", "L")
        cases.append(("add_node", ("dup", "L")))
        for method, args in cases:
            with pytest.raises(GraphError) as dict_err:
                getattr(graph, method)(*args)
            with pytest.raises(GraphError) as col_err:
                getattr(builder, method)(*args)
            assert str(col_err.value) == str(dict_err.value)

    def test_builder_rejects_bad_property_values(self):
        builder = ColumnarBuilder()
        with pytest.raises(GraphError):
            builder.add_node("x", "L", {"p": None})
        with pytest.raises(GraphError, match="property names must be strings"):
            builder.add_node("y", "L", {3: "v"})


class TestPickle:
    def test_pickle_round_trip(self):
        frozen = freeze(sample_graph())
        clone = pickle.loads(pickle.dumps(frozen))
        assert list(clone.node_items()) == list(frozen.node_items())
        assert list(clone.edge_records()) == list(frozen.edge_records())
        assert sorted(clone.property_items()) == sorted(frozen.property_items())


class TestColumns:
    def test_mixed_column_still_detects_empty_tuples(self):
        # regression: a mixed (non-uniform) column must still report
        # has_empty_tuple, or the columnar DS5 empty-list check goes blind
        column = PropertyColumn.build([(0, "scalar"), (2, ())], 4)
        assert column.kind == "obj"
        assert column.item_kind is None
        assert column.has_empty_tuple

    def test_popcount_and_iteration(self):
        rows = [(i, i) for i in range(0, 64, 3)]
        column = PropertyColumn.build(rows, 64)
        present = {row for row, _ in rows}
        for lo, hi in [(0, 64), (5, 23), (17, 18), (63, 64), (10, 10)]:
            assert column.count_range(lo, hi) == len(
                [r for r in present if lo <= r < hi]
            )
            assert list(column.iter_present(lo, hi)) == sorted(
                r for r in present if lo <= r < hi
            )
            assert list(column.iter_absent(lo, hi)) == [
                r for r in range(lo, hi) if r not in present
            ]

    def test_bool_column_round_trips(self):
        column = PropertyColumn.build([(0, True), (3, False), (5, True)], 8)
        assert column.kind == "bool"
        assert column.get(0) is True
        assert column.get(3) is False
        assert column.get(5) is True


class TestStatsParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_profiles_equal_dict_path(self, seed):
        graph = random_graph(
            25,
            40,
            node_labels=("A", "B"),
            edge_labels=("x", "y"),
            prop_names=("p", "q", "r"),
            prop_probability=0.6,
            seed=seed,
        )
        dict_profile = profile_graph(graph)
        col_profile = profile_graph(freeze(graph))
        assert dict_profile.summary_lines() == col_profile.summary_lines()

    def test_profiles_equal_on_adversarial_values(self):
        builder = GraphBuilder()
        builder.node("a", "N", p=1, q=(1, 2), r="s")
        builder.node("b", "N", p="x", q=(), r=2.5)
        builder.node("c", "M", p=True)
        builder.edge("a", "e", "a", {"w": 1.0})  # self-loop
        builder.edge("a", "e", "b", {"w": "t"})
        builder.edge("b", "f", "c")
        graph = builder.graph()
        assert (
            profile_graph(graph).summary_lines()
            == profile_graph(freeze(graph)).summary_lines()
        )
