"""Abstract syntax tree for GraphQL SDL documents (June 2018 spec, §3).

All nodes are immutable records (:mod:`repro.record`).  The AST is
deliberately close to the grammar; interpretation (which fields are
attributes vs relationships, what the directives mean, ...) happens in
:mod:`repro.schema.build`, not here.

Definition-level nodes carry the 1-based ``line``/``column`` of the token
that opens them (0 when built programmatically).  The span fields are
excluded from equality so hand-assembled ASTs compare equal to parsed ones.
"""

from __future__ import annotations

from ..record import Record, Spanned


# --------------------------------------------------------------------------- #
# value literals (§2.9)
# --------------------------------------------------------------------------- #


class ValueNode(Record):
    """Base class for GraphQL value literals."""

    __slots__ = ()


class IntValue(ValueNode):
    value: int


class FloatValue(ValueNode):
    value: float


class StringValue(ValueNode):
    value: str
    block: bool = False


class BooleanValue(ValueNode):
    value: bool


class NullValue(ValueNode):
    pass


class EnumValue(ValueNode):
    name: str


class ListValue(ValueNode):
    values: tuple[ValueNode, ...]


class ObjectValue(ValueNode):
    fields: tuple[tuple[str, ValueNode], ...]


class Variable(ValueNode):
    """A ``$name`` reference; only legal inside executable documents."""

    name: str


# --------------------------------------------------------------------------- #
# type references (§3.4.1)
# --------------------------------------------------------------------------- #


class TypeNode(Record):
    """Base class for type references."""

    __slots__ = ()


class NamedTypeNode(TypeNode):
    name: str


class ListTypeNode(TypeNode):
    of_type: TypeNode


class NonNullTypeNode(TypeNode):
    of_type: TypeNode


# --------------------------------------------------------------------------- #
# directives in use (§2.12)
# --------------------------------------------------------------------------- #


class ArgumentNode(Spanned):
    name: str
    value: ValueNode


class DirectiveNode(Spanned):
    name: str
    arguments: tuple[ArgumentNode, ...] = ()


# --------------------------------------------------------------------------- #
# type system definitions (§3)
# --------------------------------------------------------------------------- #


class InputValueDefinition(Spanned):
    """An argument definition (of a field or a directive) or an input field."""

    name: str
    type: TypeNode
    default_value: ValueNode | None = None
    directives: tuple[DirectiveNode, ...] = ()
    description: str | None = None


class FieldDefinition(Spanned):
    name: str
    type: TypeNode
    arguments: tuple[InputValueDefinition, ...] = ()
    directives: tuple[DirectiveNode, ...] = ()
    description: str | None = None


class Definition(Spanned):
    """Base class for top-level SDL definitions."""

    __slots__ = ()


class SchemaDefinition(Definition):
    """``schema { query: ... }`` -- parsed but ignored by the Property Graph
    interpretation (Section 3.6 of the paper)."""

    operation_types: tuple[tuple[str, str], ...]
    directives: tuple[DirectiveNode, ...] = ()


class ScalarTypeDefinition(Definition):
    name: str
    directives: tuple[DirectiveNode, ...] = ()
    description: str | None = None


class ObjectTypeDefinition(Definition):
    name: str
    fields: tuple[FieldDefinition, ...] = ()
    interfaces: tuple[str, ...] = ()
    directives: tuple[DirectiveNode, ...] = ()
    description: str | None = None


class InterfaceTypeDefinition(Definition):
    name: str
    fields: tuple[FieldDefinition, ...] = ()
    directives: tuple[DirectiveNode, ...] = ()
    description: str | None = None


class UnionTypeDefinition(Definition):
    name: str
    types: tuple[str, ...] = ()
    directives: tuple[DirectiveNode, ...] = ()
    description: str | None = None


class EnumValueDefinition(Spanned):
    name: str
    directives: tuple[DirectiveNode, ...] = ()
    description: str | None = None


class EnumTypeDefinition(Definition):
    name: str
    values: tuple[EnumValueDefinition, ...] = ()
    directives: tuple[DirectiveNode, ...] = ()
    description: str | None = None


class InputObjectTypeDefinition(Definition):
    """``input`` types -- parsed for completeness, ignored by the Property
    Graph interpretation (the paper's formalization omits input types)."""

    name: str
    fields: tuple[InputValueDefinition, ...] = ()
    directives: tuple[DirectiveNode, ...] = ()
    description: str | None = None


class DirectiveDefinition(Definition):
    name: str
    arguments: tuple[InputValueDefinition, ...] = ()
    locations: tuple[str, ...] = ()
    description: str | None = None


class Document(Record):
    """A parsed SDL document: a sequence of top-level definitions."""

    definitions: tuple[Definition, ...] = ()

    def definitions_of(self, kind: type) -> list:
        """All definitions of one node class, in document order."""
        return [defn for defn in self.definitions if isinstance(defn, kind)]
