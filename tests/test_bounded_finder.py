"""The precompiled bounded witness search: pinned outcomes, exact pruning,
and agreement with the independent SAT-encoding finder.

``golden/bounded_witnesses.json`` holds ``(satisfiable, assignments_tried,
reason, dumps_graph(witness))`` of ``find_model(type, max_nodes=4)`` for
every object type of ``hub_chain_schema(8, 6)`` and of every corpus schema.
The values were recorded from the search before its schema tables and
multiset pruning existed, so any change to the enumeration order, the
obligation order or the chosen witness shows up here.
"""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pg.io import dumps_graph
from repro.satisfiability import BoundedModelFinder, SATModelFinder
from repro.schema import parse_schema, print_schema
from repro.workloads import (
    CORPUS,
    cardinality_web_schema,
    deep_lattice_schema,
    hub_chain_schema,
    key_collision_schema,
    near_unsat_schema,
    random_schema,
    union_fanout_schema,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "bounded_witnesses.json").read_text()
)
HUB = "hub_chain_schema(8, 6)"


def _schema(name: str):
    if name == HUB:
        return hub_chain_schema(8, 6)
    return parse_schema(CORPUS[name].sdl, check=False)


def _cases() -> dict[str, list[tuple[str, str]]]:
    """Schema name -> (type, golden key) per pinned search."""
    cases: dict[str, list] = {}
    for key in GOLDEN:
        schema_name, _, type_name = key.rpartition(" ")
        cases.setdefault(schema_name, []).append((type_name, key))
    return cases


CASES = _cases()


def test_golden_covers_every_object_type():
    assert set(CASES) == {HUB, *CORPUS}
    for schema_name, cases in CASES.items():
        pinned = {type_name for type_name, _ in cases}
        assert pinned == set(_schema(schema_name).object_types), schema_name


@pytest.mark.parametrize("schema_name", sorted(CASES))
def test_find_model_matches_the_pinned_outcomes(schema_name):
    finder = BoundedModelFinder(_schema(schema_name))
    for type_name, key in CASES[schema_name]:
        result = finder.find_model(type_name, max_nodes=4)
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
)
def test_pruning_is_exact(
    seed, num_object_types, directive_probability, required_for_target
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
        if not finder._feasible(labels, obligations):
            assert finder._search_edges(labels, frozenset(), obligations, 0) is None, labels


# --------------------------------------------------------------------------- #
# differential oracle: the SAT encoding decides the same bounded question
# --------------------------------------------------------------------------- #


def _differential_schemas():
    """The seven adversarial families, then ``random_schema`` seeds 0-19."""
    families = {
        "deep_lattice": deep_lattice_schema(),
        "union_fanout": union_fanout_schema(),
        "key_collision": key_collision_schema(),
        "near_unsat": near_unsat_schema(),
        "near_unsat_collide": near_unsat_schema(collide=True),
        "cardinality_web": cardinality_web_schema(),
        "cardinality_web_collide": cardinality_web_schema(collide=True),
    }
    families.update({f"random{seed}": random_schema(seed=seed) for seed in range(20)})
    return [pytest.param(schema, id=name) for name, schema in families.items()]


@pytest.mark.parametrize("schema", _differential_schemas())
def test_sat_encoding_agrees_with_the_pruned_search(schema):
    """For every object type and every bound k = 1..3, the pruned search and
    :class:`SATModelFinder` -- an independent CNF encoding of the same
    question -- agree on whether a k-node witness exists."""
    pruned = BoundedModelFinder(schema)
    encoded = SATModelFinder(schema)
    for type_name in sorted(schema.object_types):
        for bound in (1, 2, 3):
            expected = encoded.find_model(type_name, max_nodes=bound).satisfiable
            got = pruned.find_model(type_name, max_nodes=bound)
            assert got.reason is None, (type_name, bound, got.reason)
            assert got.satisfiable == expected, (type_name, bound)
