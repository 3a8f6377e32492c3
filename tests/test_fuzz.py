"""Robustness fuzzing: the front end never crashes, it raises typed errors."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.query_parser import parse_query
from repro.errors import GraphLoadError, ReproError
from repro.pg import GraphBuilder, loads_graph
from repro.schema import parse_schema
from repro.sdl import parse_document, print_document, tokenize
from repro.workloads.paper_schemas import CORPUS
from tests.test_pg_io import assert_loaders_agree


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.text(max_size=200))
def test_lexer_total(source):
    try:
        tokenize(source)
    except ReproError:
        pass  # typed failure is the contract


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.text(max_size=200))
def test_parser_total_on_arbitrary_text(source):
    try:
        parse_document(source)
    except ReproError:
        pass


# token-soup fuzzing: grammar-adjacent garbage stresses the parser more
_tokens = st.sampled_from(
    [
        "type", "interface", "union", "enum", "scalar", "input", "schema",
        "directive", "implements", "on", "query",
        "{", "}", "(", ")", "[", "]", "!", ":", "=", "@", "|", "&", "...",
        "Name", "T", "Int", "String", '"text"', "3", "1.5", "true", "null",
        "RED", "$var", ",",
    ]
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_tokens, max_size=40))
def test_parser_total_on_token_soup(parts):
    source = " ".join(parts)
    try:
        document = parse_document(source)
    except ReproError:
        return
    # whatever parsed must print and re-parse to the same AST
    assert parse_document(print_document(document)) == document


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_tokens, max_size=40))
def test_schema_builder_total(parts):
    try:
        parse_schema(" ".join(parts))
    except ReproError:
        pass


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.text(max_size=120))
def test_query_parser_total(source):
    try:
        parse_query(source)
    except ReproError:
        pass


names = st.text(
    alphabet="abcdefgABC_", min_size=1, max_size=8
).filter(lambda s: s[0].isalpha() or s[0] == "_")


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    labels=st.lists(names, min_size=1, max_size=4, unique=True),
    edges=st.lists(st.tuples(st.integers(0, 3), names, st.integers(0, 3)), max_size=6),
)
def test_inference_pipeline_total(labels, edges):
    """Arbitrary named graphs survive inference + self-validation."""
    from repro.inference import infer_schema
    from repro.validation import validate

    builder = GraphBuilder()
    node_ids = []
    for index, label in enumerate(labels):
        builder.node(f"n{index}", label)
        node_ids.append(f"n{index}")
    graph = builder.graph()
    for source_index, edge_label, target_index in edges:
        graph.add_edge(
            f"e{len(list(graph.edges))}",
            node_ids[source_index % len(node_ids)],
            node_ids[target_index % len(node_ids)],
            edge_label,
        )
    result = infer_schema(graph)
    assert validate(result.schema, graph).conforms


# --------------------------------------------------------------------------- #
# byte-mutation fuzzing: corrupt REAL documents, byte by byte
# --------------------------------------------------------------------------- #
#
# Random text rarely reaches the deep decoding paths (a fully-parsed prefix
# with one flipped brace, a truncated property map).  Mutating valid corpus
# documents does, and the contract is the same: a typed ReproError or a
# successful parse -- never AttributeError, KeyError, TypeError or
# RecursionError escaping to the caller.

_SDL_CORPUS = [entry.sdl for entry in CORPUS.values()]

_GRAPH_CORPUS = [
    json.dumps(
        {
            "nodes": [
                {"id": "u1", "label": "User", "properties": {"login": "alice"}},
                {"id": "u2", "label": "User", "properties": {"login": "bob"}},
                {"id": "p1", "label": "Post", "properties": {"score": 3.5}},
            ],
            "edges": [
                {"id": "e1", "source": "u1", "target": "u2", "label": "follows",
                 "properties": {"since": 2019}},
                {"id": "e2", "source": "u1", "target": "p1", "label": "wrote",
                 "properties": {}},
            ],
        }
    ),
    '{"nodes": [], "edges": []}',
    '{"nodes": [{"id": 1, "label": "T", "properties": {"xs": [1, 2, 3]}}]}',
]

_mutations = st.lists(
    st.tuples(
        st.sampled_from(("delete", "replace", "insert", "truncate", "duplicate")),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=8,
)


def _mutate(text: str, operations) -> str:
    data = bytearray(text.encode("utf-8"))
    for kind, position, value in operations:
        if not data:
            break
        index = position % len(data)
        if kind == "delete":
            del data[index]
        elif kind == "replace":
            data[index] = value
        elif kind == "insert":
            data.insert(index, value)
        elif kind == "truncate":
            del data[index:]
        else:  # duplicate a slice, stressing "unexpected repeated section"
            data[index:index] = data[index : index + 16]
    return data.decode("utf-8", errors="replace")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=st.sampled_from(_SDL_CORPUS), operations=_mutations)
def test_sdl_byte_mutation_corpus(document, operations):
    """Corrupted real schemas either parse or raise a typed ReproError."""
    try:
        parse_schema(_mutate(document, operations))
    except ReproError:
        pass


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=st.sampled_from(_GRAPH_CORPUS), operations=_mutations)
def test_graph_json_byte_mutation_corpus(document, operations):
    """Corrupted graph documents either load or raise a typed ReproError."""
    try:
        loads_graph(_mutate(document, operations), source="<fuzz>")
    except ReproError:
        pass


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=st.sampled_from(_GRAPH_CORPUS), operations=_mutations)
def test_records_loader_agrees_on_byte_mutations(document, operations):
    """The records-first loader raises what graph_from_dict raises on every
    corrupted document -- type, error line, JSON position -- and loads the
    same graph from every document that survives."""
    assert_loaders_agree(_mutate(document, operations))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.text(max_size=200))
def test_graph_loader_total_on_arbitrary_text(text):
    """Arbitrary text never escapes loads_graph untyped."""
    try:
        loads_graph(text, source="<fuzz>")
    except ReproError:
        pass


def test_graph_loader_reports_json_position():
    try:
        loads_graph('{"nodes": [,]}', source="bad.json")
    except GraphLoadError as error:
        assert error.source == "bad.json"
        assert error.line == 1 and error.column is not None
        assert "bad.json" in str(error)
    else:  # pragma: no cover
        raise AssertionError("malformed JSON must raise GraphLoadError")


def test_deeply_nested_documents_raise_typed_errors():
    nested_json = '{"nodes": [{"id": 1, "label": "T", "properties": {"x": ' + (
        "[" * 5000
    ) + ("]" * 5000) + "}}]}"
    try:
        loads_graph(nested_json, source="<deep>")
    except ReproError:
        pass
    nested_sdl = "type T { f: " + "[" * 5000 + "Int" + "]" * 5000 + " }"
    try:
        parse_schema(nested_sdl)
    except ReproError:
        pass


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10**6))
def test_analyzer_preverdicts_sound_on_random_schemas(seed):
    """Every SAT/UNSAT claim the dataflow analyzer makes about a random
    schema must agree with the Theorem-3 tableau (abstention is free)."""
    from repro.analysis import sat_preverdicts
    from repro.satisfiability import SatisfiabilityChecker
    from repro.workloads import random_schema

    schema = random_schema(
        num_object_types=4,
        num_interface_types=2,
        num_union_types=1,
        attributes_per_type=1,
        relationships_per_type=2,
        directive_probability=0.5,
        seed=seed,
    )
    pre = sat_preverdicts(schema)
    oracle = SatisfiabilityChecker(
        schema, cache=False, analysis_precheck=False
    )
    for type_name, claimed in sorted(pre.types.items()):
        verdict = oracle.check_type(type_name, find_witness=False)
        assert verdict.tableau_satisfiable == claimed, type_name
        assert verdict.decided_by == "tableau"
    for (type_name, field_name), claimed in sorted(pre.fields.items()):
        assert oracle.check_field(type_name, field_name) == claimed, (
            type_name,
            field_name,
        )
