"""The type-dependency graph the dataflow passes run over.

Nodes are the schema's composite types (object, interface, union); edges
are relationship field *declarations*, annotated with the directive facts
the ALCQI translation actually uses (``@required``, ``@requiredForTarget``,
``@uniqueForTarget``, list-ness).  The graph also precomputes the indexes
every pass needs in O(1):

* ``below(t)`` -- the object types at or below ``t`` (the type itself, its
  implementors, or its union members), straight from the schema model;
* ``applicable(ot)`` -- for an object type, every declaration ``(c, f)``
  with ``ot ∈ below(c)``: the declarations whose translated axioms
  constrain ``ot``'s nodes;
* ``allowed(ot, f)`` -- the admissible target object types of an ``f``-edge
  out of an ``ot`` node: the intersection of ``below(base)`` over every
  applicable declaration of ``f`` (the conjunction of the translation's
  ``∀f.basetype`` axioms).  Built for possibly *inconsistent* schemas
  (``parse_schema(check=False)``), where the intersection can genuinely be
  empty;
* ``obligations_at(x, f)`` / ``caps_at(x, f)`` -- the declarations whose
  ``@requiredForTarget`` lower bound / ``@uniqueForTarget`` cap applies at
  a node of object type ``x``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..record import Record
from ..schema.directives import (
    DISTINCT,
    NO_LOOPS,
    REQUIRED,
    REQUIRED_FOR_TARGET,
    UNIQUE_FOR_TARGET,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.model import GraphQLSchema


class FieldEdge(Record):
    """One relationship field declaration, as a dependency-graph edge bundle.

    ``targets`` is ``below(base)``: the object types an edge declared here
    may point at.  ``line``/``column`` preserve the declaration's source
    span for diagnostics.
    """

    declarer: str
    field_name: str
    base: str
    targets: frozenset[str]
    is_list: bool
    required: bool
    required_for_target: bool
    unique_for_target: bool
    distinct: bool
    no_loops: bool
    line: int = 0
    column: int = 0

    @property
    def location(self) -> str:
        return f"{self.declarer}.{self.field_name}"


class TypeDependencyGraph:
    """The annotated dependency graph of one schema, with pass indexes."""

    def __init__(self, schema: "GraphQLSchema") -> None:
        self.schema = schema
        self.edges: tuple[FieldEdge, ...] = tuple(self._build_edges(schema))
        #: edges grouped by declaring type, in declaration order
        self.out_edges: dict[str, tuple[FieldEdge, ...]] = {}
        #: the own declaration of (object type, field name), when present
        self.own: dict[tuple[str, str], FieldEdge] = {}
        #: (target object type, field name) -> @requiredForTarget declarations
        self.obligations: dict[tuple[str, str], tuple[FieldEdge, ...]] = {}
        #: (target object type, field name) -> @uniqueForTarget declarations
        self.caps: dict[tuple[str, str], tuple[FieldEdge, ...]] = {}
        #: object type -> field name -> every declaration applicable to it
        self.applicable: dict[str, dict[str, tuple[FieldEdge, ...]]] = {
            name: {} for name in schema.object_types
        }
        out: dict[str, list[FieldEdge]] = {}
        obligations: dict[tuple[str, str], list[FieldEdge]] = {}
        caps: dict[tuple[str, str], list[FieldEdge]] = {}
        applicable: dict[str, dict[str, list[FieldEdge]]] = {
            name: {} for name in schema.object_types
        }
        for edge in self.edges:
            out.setdefault(edge.declarer, []).append(edge)
            if edge.declarer in schema.object_types:
                self.own[(edge.declarer, edge.field_name)] = edge
            for object_type in self.below(edge.declarer):
                applicable[object_type].setdefault(edge.field_name, []).append(edge)
            if edge.required_for_target:
                for target in edge.targets:
                    obligations.setdefault((target, edge.field_name), []).append(edge)
            if edge.unique_for_target:
                for target in edge.targets:
                    caps.setdefault((target, edge.field_name), []).append(edge)
        self.out_edges = {name: tuple(edges) for name, edges in out.items()}
        self.obligations = {key: tuple(edges) for key, edges in obligations.items()}
        self.caps = {key: tuple(edges) for key, edges in caps.items()}
        self.applicable = {
            name: {field: tuple(edges) for field, edges in fields.items()}
            for name, fields in applicable.items()
        }
        self._allowed: dict[tuple[str, str], frozenset[str]] = {}

    @staticmethod
    def _build_edges(schema: "GraphQLSchema") -> Iterator[FieldEdge]:
        for type_name, _field_name, field_def in schema.field_declarations():
            if not field_def.is_relationship:
                continue
            yield FieldEdge(
                declarer=type_name,
                field_name=field_def.name,
                base=field_def.type.base,
                targets=schema.object_types_below(field_def.type.base),
                is_list=field_def.type.is_list,
                required=field_def.has_directive(REQUIRED),
                required_for_target=field_def.has_directive(REQUIRED_FOR_TARGET),
                unique_for_target=field_def.has_directive(UNIQUE_FOR_TARGET),
                distinct=field_def.has_directive(DISTINCT),
                no_loops=field_def.has_directive(NO_LOOPS),
                line=getattr(field_def, "line", 0) or 0,
                column=getattr(field_def, "column", 0) or 0,
            )

    @property
    def nodes(self) -> tuple[str, ...]:
        """Every composite/union type name, objects first, sorted."""
        schema = self.schema
        return tuple(
            sorted(schema.object_types)
            + sorted(schema.interface_types)
            + sorted(schema.union_types)
        )

    def below(self, type_name: str) -> frozenset[str]:
        return self.schema.object_types_below(type_name)

    def allowed(self, object_type: str, field_name: str) -> frozenset[str]:
        """Admissible targets of an ``f``-edge out of an ``ot`` node.

        The intersection of ``below(base)`` over every applicable
        declaration -- each contributes a ``∀f.basetype`` axiom the edge
        target must satisfy at once.  Empty when the declarations
        contradict (possible in ``check=False`` schemas) or the family of
        some base is empty.  Returns the empty set for a field the type
        has no applicable declaration of (such an edge is forbidden
        outright by the translation's ``≤0`` axioms).
        """
        key = (object_type, field_name)
        cached = self._allowed.get(key)
        if cached is not None:
            return cached
        declarations = self.applicable.get(object_type, {}).get(field_name, ())
        result: frozenset[str] | None = None
        for edge in declarations:
            result = edge.targets if result is None else result & edge.targets
        computed = frozenset() if result is None else result
        self._allowed[key] = computed
        return computed

    def obligations_at(self, target: str, field_name: str) -> tuple[FieldEdge, ...]:
        return self.obligations.get((target, field_name), ())

    def caps_at(self, target: str, field_name: str) -> tuple[FieldEdge, ...]:
        return self.caps.get((target, field_name), ())

    def required_fields(self, object_type: str) -> dict[str, tuple[FieldEdge, ...]]:
        """Field name -> applicable declarations, for every field some
        applicable declaration marks ``@required``."""
        return {
            field_name: declarations
            for field_name, declarations in self.applicable.get(object_type, {}).items()
            if any(edge.required for edge in declarations)
        }

    def obligation_fields_at(self, object_type: str) -> tuple[str, ...]:
        """The field names with a ``@requiredForTarget`` obligation at nodes
        of *object_type*, sorted."""
        return tuple(
            sorted(
                field_name
                for (target, field_name) in self.obligations
                if target == object_type
            )
        )
