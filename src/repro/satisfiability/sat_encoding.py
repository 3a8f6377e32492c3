"""Bounded Property Graph satisfiability, encoded as propositional SAT.

A second, independent finite-model engine: the existence of a strongly
satisfying Property Graph with exactly ``k`` nodes containing the queried
object type is encoded as a CNF over

* type variables ``t(i, T)`` -- node i carries object type T (exactly one
  per node), and
* edge variables ``e(i, f, j)`` -- an f-labelled edge from node i to node j
  (at most one per triple; parallel edges never help satisfiability, the
  same argument the Theorem-3 proof uses for @distinct),

with clauses for SS4/WS3 (edges justified and correctly targeted), WS4
(non-list cardinality), DS2 (@noLoops), DS3 (@uniqueForTarget), DS4
(@requiredForTarget, via witness variables), and DS6 (@required edges).
Scalar attributes and @key constraints are handled outside the encoding,
exactly as in :mod:`repro.satisfiability.bounded`: the decoded witness gets
fresh well-typed property values and is confirmed by the real validator.

No production path runs it: it is the independent oracle the test suite
checks the pruned :class:`~repro.satisfiability.bounded.BoundedModelFinder`
against, type by type and bound by bound (``tests/test_bounded_finder.py``,
``tests/test_sat_encoding.py``).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from ..sat.cnf import CNF
from ..sat.solver import solve
from ..schema.subtype import is_named_subtype
from ..validation import sites
from ..validation.indexed import IndexedValidator
from .bounded import BoundedSearchResult, materialise_graph

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.model import GraphQLSchema


class SATModelFinder:
    """Finite-model search by reduction to propositional SAT."""

    def __init__(self, schema: "GraphQLSchema") -> None:
        self.schema = schema
        self._validator = IndexedValidator(schema)
        self._object_types = sorted(schema.object_types)
        self._roles = sorted(
            {
                field_name
                for _t, field_name, field_def in schema.field_declarations()
                if field_def.is_relationship
            }
        )

    def find_model(self, object_type: str, max_nodes: int = 4) -> BoundedSearchResult:
        """Search size-k models for k = 1..max_nodes."""
        result = BoundedSearchResult(satisfiable=False, bound=max_nodes)
        if object_type not in self.schema.object_types or not self._object_types:
            return result
        for size in range(1, max_nodes + 1):
            result.assignments_tried += 1
            witness = self._solve_at_size(object_type, size)
            if witness is not None:
                result.satisfiable = True
                result.witness = witness
                return result
        return result

    # ------------------------------------------------------------------ #

    def _solve_at_size(self, object_type: str, size: int):
        encoding = _Encoding(self.schema, self._object_types, self._roles, size)
        encoding.encode(object_type)
        solved = solve(CNF(encoding.num_vars, tuple(encoding.clauses)))
        if not solved.satisfiable:
            return None
        labels, edges = encoding.decode(solved.assignment)
        graph = materialise_graph(self.schema, labels, edges)
        report = self._validator.validate(graph, mode="strong")
        return graph if report.conforms else None


class _Encoding:
    """The CNF for one (target type, node count) pair."""

    def __init__(
        self,
        schema: "GraphQLSchema",
        object_types: list[str],
        roles: list[str],
        size: int,
    ) -> None:
        self.schema = schema
        self.object_types = object_types
        self.roles = roles
        self.size = size
        self.clauses: list[tuple[int, ...]] = []
        self.num_vars = 0
        self._type_var: dict[tuple[int, str], int] = {}
        self._edge_var: dict[tuple[int, str, int], int] = {}
        for node in range(size):
            for type_name in object_types:
                self._type_var[(node, type_name)] = self._fresh()
        for source in range(size):
            for role in roles:
                for target in range(size):
                    self._edge_var[(source, role, target)] = self._fresh()

    def _fresh(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def type_var(self, node: int, type_name: str) -> int:
        return self._type_var[(node, type_name)]

    def edge_var(self, source: int, role: str, target: int) -> int:
        return self._edge_var[(source, role, target)]

    def _labels_below(self, type_name: str) -> list[str]:
        return [
            label
            for label in self.object_types
            if is_named_subtype(self.schema, label, type_name)
        ]

    # ------------------------------------------------------------------ #

    def encode(self, target_type: str) -> None:
        schema, size = self.schema, self.size
        nodes = range(size)

        # node 0 carries the queried type
        self.clauses.append((self.type_var(0, target_type),))

        # exactly one object type per node
        for node in nodes:
            self.clauses.append(
                tuple(self.type_var(node, t) for t in self.object_types)
            )
            for first, second in itertools.combinations(self.object_types, 2):
                self.clauses.append(
                    (-self.type_var(node, first), -self.type_var(node, second))
                )

        declarations: dict[str, list[tuple[str, object]]] = {role: [] for role in self.roles}
        for type_name, field_name, field_def in schema.field_declarations():
            if field_def.is_relationship and type_name in schema.object_types:
                declarations[field_name].append((type_name, field_def))

        # SS4 + WS3: an edge needs a declaring source type, and per declaring
        # type the target must lie below the declared base
        for role in self.roles:
            declaring = declarations[role]
            declaring_names = [name for name, _field in declaring]
            for source in nodes:
                for target in nodes:
                    edge = self.edge_var(source, role, target)
                    self.clauses.append(
                        (-edge,)
                        + tuple(self.type_var(source, name) for name in declaring_names)
                    )
                    for name, field_def in declaring:
                        allowed = self._labels_below(field_def.type.base)
                        self.clauses.append(
                            (-edge, -self.type_var(source, name))
                            + tuple(self.type_var(target, t) for t in allowed)
                        )
                    # WS4: non-list declarations allow one outgoing edge
            for name, field_def in declaring:
                if field_def.type.is_list:
                    continue
                for source in nodes:
                    for t1, t2 in itertools.combinations(nodes, 2):
                        self.clauses.append(
                            (
                                -self.type_var(source, name),
                                -self.edge_var(source, role, t1),
                                -self.edge_var(source, role, t2),
                            )
                        )

        # DS2: @noLoops
        for site in sites.no_loops_sites(schema):
            for label in self._labels_below(site.type_name):
                for node in nodes:
                    self.clauses.append(
                        (
                            -self.type_var(node, label),
                            -self.edge_var(node, site.field_name, node),
                        )
                    )

        # DS6: @required relationships
        for site in sites.required_edge_sites(schema):
            for label in self._labels_below(site.type_name):
                for node in nodes:
                    self.clauses.append(
                        (-self.type_var(node, label),)
                        + tuple(
                            self.edge_var(node, site.field_name, target)
                            for target in nodes
                        )
                    )

        # DS3: @uniqueForTarget -- at most one incoming f-edge from sources
        # below the declaring type
        for site in sites.unique_for_target_sites(schema):
            source_labels = self._labels_below(site.type_name)
            for target in nodes:
                for s1, s2 in itertools.combinations(nodes, 2):
                    for l1 in source_labels:
                        for l2 in source_labels:
                            self.clauses.append(
                                (
                                    -self.type_var(s1, l1),
                                    -self.type_var(s2, l2),
                                    -self.edge_var(s1, site.field_name, target),
                                    -self.edge_var(s2, site.field_name, target),
                                )
                            )
                # a single source with... parallel edges are impossible in
                # this encoding (one variable per triple), so same-source
                # double-counting cannot occur

        # DS4: @requiredForTarget -- via witness variables w(source):
        # w -> edge ∧ source-below-t; target-typed -> ⋁ w
        for site in sites.required_for_target_sites(schema):
            source_labels = self._labels_below(site.type_name)
            target_labels = self._labels_below(site.field.type.base)
            for target in nodes:
                witnesses = []
                for source in nodes:
                    witness = self._fresh()
                    witnesses.append(witness)
                    self.clauses.append(
                        (-witness, self.edge_var(source, site.field_name, target))
                    )
                    self.clauses.append(
                        (-witness,)
                        + tuple(self.type_var(source, label) for label in source_labels)
                    )
                for label in target_labels:
                    self.clauses.append(
                        (-self.type_var(target, label),) + tuple(witnesses)
                    )

    def decode(self, assignment: dict[int, bool]):
        labels = []
        for node in range(self.size):
            label = next(
                t for t in self.object_types if assignment[self.type_var(node, t)]
            )
            labels.append(label)
        edges = frozenset(
            (source, role, target)
            for (source, role, target), var in self._edge_var.items()
            if assignment[var]
        )
        return tuple(labels), edges
