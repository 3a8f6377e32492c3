"""Constraint sites: where in a schema each directive-based rule is anchored.

A *site* is a schema location that activates one of the DS rules -- e.g.
``(t, f)`` with ``(@distinct, ∅) ∈ directives_F(t, f)`` activates DS1.  Both
validation engines enumerate the same sites; they differ only in how they
check the graph against them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..record import Record
from ..schema.directives import (
    DISTINCT,
    KEY,
    NO_LOOPS,
    REQUIRED,
    REQUIRED_FOR_TARGET,
    UNIQUE_FOR_TARGET,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.model import FieldDefinition, GraphQLSchema


class FieldSite(Record):
    """A directive applied to a field definition: the paper's (t, f)."""

    type_name: str
    field_name: str
    field: "FieldDefinition"

    @property
    def location(self) -> str:
        return f"{self.type_name}.{self.field_name}"


class KeySite(Record):
    """A ``@key(fields: [...])`` directive applied to a type."""

    type_name: str
    fields: tuple[str, ...]

    @property
    def location(self) -> str:
        return f"{self.type_name} @key({', '.join(self.fields)})"


def field_sites_with(schema: "GraphQLSchema", directive_name: str) -> list[FieldSite]:
    """All (t, f) with the named directive in directives_F(t, f)."""
    return [
        FieldSite(type_name, field_name, field_def)
        for type_name, field_name, field_def in schema.field_declarations()
        if field_def.has_directive(directive_name)
    ]


def distinct_sites(schema: "GraphQLSchema") -> list[FieldSite]:
    return field_sites_with(schema, DISTINCT)


def no_loops_sites(schema: "GraphQLSchema") -> list[FieldSite]:
    return field_sites_with(schema, NO_LOOPS)


def unique_for_target_sites(schema: "GraphQLSchema") -> list[FieldSite]:
    return field_sites_with(schema, UNIQUE_FOR_TARGET)


def required_for_target_sites(schema: "GraphQLSchema") -> list[FieldSite]:
    return field_sites_with(schema, REQUIRED_FOR_TARGET)


def required_attribute_sites(schema: "GraphQLSchema") -> list[FieldSite]:
    """DS5 sites: @required where type_S(t, f) ∈ S ∪ W_S."""
    return [
        site
        for site in field_sites_with(schema, REQUIRED)
        if site.field.is_attribute
    ]


def required_edge_sites(schema: "GraphQLSchema") -> list[FieldSite]:
    """DS6 sites: @required where type_S(t, f) ∉ S ∪ W_S."""
    return [
        site
        for site in field_sites_with(schema, REQUIRED)
        if site.field.is_relationship
    ]


def key_sites(schema: "GraphQLSchema") -> list[KeySite]:
    """DS7 sites: every @key directive on any type."""
    sites: list[KeySite] = []
    for type_name in (
        *schema.object_types,
        *schema.interface_types,
        *schema.union_types,
    ):
        for directive in schema.directives_t(type_name):
            if directive.name != KEY:
                continue
            fields = directive.argument("fields", ())
            sites.append(KeySite(type_name, tuple(fields)))  # type: ignore[arg-type]
    return sites


def labels_below(schema: "GraphQLSchema", type_name: str) -> frozenset[str]:
    """The labels l with ``l ⊑_S type_name`` under rules 1-3.

    This is the declared type itself plus its implementing object types
    (interface) or member object types (union).  Note the type itself is
    included by rule 1 even for interfaces/unions: a node *labelled* with an
    interface name satisfies λ(v) ⊑ it (it would separately violate SS1).
    """
    return frozenset({type_name}) | schema.object_types_below(type_name)
