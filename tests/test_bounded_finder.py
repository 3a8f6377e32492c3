"""The precompiled bounded witness search: pinned outcomes and exact pruning.

``golden/bounded_witnesses.json`` holds ``(satisfiable, assignments_tried,
reason, dumps_graph(witness))`` of ``find_model(type, max_nodes=4)`` for
every object type of ``hub_chain_schema(8, 6)`` and of every corpus schema,
without and with ``require_fields`` set to all the type's relationship
fields.  The values were recorded from the search before its schema tables
and multiset pruning existed, so any change to the enumeration order, the
obligation order or the chosen witness shows up here.
"""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pg.io import dumps_graph
from repro.satisfiability import BoundedModelFinder
from repro.satisfiability.bounded import _Obligation
from repro.schema import parse_schema, print_schema
from repro.workloads import CORPUS, hub_chain_schema, random_schema

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "bounded_witnesses.json").read_text()
)
HUB = "hub_chain_schema(8, 6)"


def _schema(name: str):
    if name == HUB:
        return hub_chain_schema(8, 6)
    return parse_schema(CORPUS[name].sdl, check=False)


def _cases() -> dict[str, list[tuple[str, tuple[str, ...], str]]]:
    """Schema name -> (type, require_fields, golden key) per pinned search."""
    cases: dict[str, list] = {}
    for key in GOLDEN:
        head, _, require = key.partition(" require=")
        schema_name, _, type_name = head.rpartition(" ")
        fields = tuple(require.split(",")) if require else ()
        cases.setdefault(schema_name, []).append((type_name, fields, key))
    return cases


CASES = _cases()


def test_golden_covers_every_object_type():
    assert set(CASES) == {HUB, *CORPUS}
    for schema_name, cases in CASES.items():
        pinned = {type_name for type_name, fields, _ in cases if not fields}
        assert pinned == set(_schema(schema_name).object_types), schema_name


@pytest.mark.parametrize("schema_name", sorted(CASES))
def test_find_model_matches_the_pinned_outcomes(schema_name):
    finder = BoundedModelFinder(_schema(schema_name))
    for type_name, fields, key in CASES[schema_name]:
        result = finder.find_model(type_name, max_nodes=4, require_fields=fields)
        got = [
            result.satisfiable,
            result.assignments_tried,
            None if result.reason is None else str(result.reason),
            None if result.witness is None else dumps_graph(result.witness),
        ]
        assert got == GOLDEN[key], key


def _label_multisets(schema, max_size: int):
    types = sorted(schema.object_types)
    for size in range(1, max_size + 1):
        yield from itertools.combinations_with_replacement(types, size)


def test_pruning_rejects_the_broken_hub_chains():
    # Stage0..Stage4 need a chain longer than four nodes: every multiset
    # holding one of them lacks the next stage and is rejected unsearched
    finder = BoundedModelFinder(hub_chain_schema(8, 6))
    for labels in _label_multisets(finder.schema, 3):
        if "Stage0" in labels:
            assert not finder._feasible(labels, finder._collect_obligations(labels))
    chain = ("Stage7", "Terminal")
    assert finder._feasible(chain, finder._collect_obligations(chain))


def _with_required_for_target(schema, picks: list[bool]):
    """*schema* with ``@requiredForTarget`` added to the relationship fields
    *picks* selects (random_schema never emits that directive itself, so
    without this no DS4 "in" obligation would be exercised)."""
    lines = print_schema(schema).splitlines()
    chosen = iter(picks * len(lines))
    for index, line in enumerate(lines):
        if line.lstrip().startswith("r") and next(chosen):
            lines[index] = line + " @requiredForTarget"
    return parse_schema("\n".join(lines))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_object_types=st.integers(1, 5),
    directive_probability=st.sampled_from((0.3, 0.6, 0.9)),
    required_for_target=st.lists(st.booleans(), min_size=1, max_size=6),
    with_required_fields=st.booleans(),
)
def test_pruning_is_exact(
    seed,
    num_object_types,
    directive_probability,
    required_for_target,
    with_required_fields,
):
    """Every multiset the feasibility check rejects is one the edge search
    cannot complete either."""
    schema = _with_required_for_target(
        random_schema(
            num_object_types=num_object_types,
            directive_probability=directive_probability,
            seed=seed,
        ),
        required_for_target,
    )
    finder = BoundedModelFinder(schema)
    for labels in _label_multisets(schema, 3):
        obligations = finder._collect_obligations(labels)
        if with_required_fields:
            # the demands find_model(require_fields=<every field>) adds on
            # node 0; an attribute there can never be met
            met = {(o.kind, o.node, o.field_name) for o in obligations}
            obligations += [
                _Obligation("out", 0, field_def.name, labels[0])
                for field_def in schema.object_types[labels[0]].fields
                if ("out", 0, field_def.name) not in met
            ]
        if not finder._feasible(labels, obligations):
            assert finder._search_edges(labels, frozenset(), obligations, 0) is None, labels
