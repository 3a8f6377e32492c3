"""The formal GraphQL schema model (Definition 4.1 of the paper).

A schema S over ``(F, A, T, S, D)`` consists of

* ``type_F  : (OT ∪ IT) × F ⇀ T ∪ W_T``   -- field types,
* ``type_AF : dom(type_F) × A ⇀ S ∪ W_S`` -- field-argument types,
* ``type_AD : D × A ⇀ S ∪ W_S``           -- directive-argument types,
* ``union   : UT → 2^OT``                  -- union membership,
* ``implementation : IT → 2^OT``           -- interface implementation,
* ``directives_T/F/AF``                    -- applied directives.

:class:`GraphQLSchema` stores these as dictionaries and exposes accessors
named after the paper's functions (``type_f``, ``args``, ``fields``, ...).
It also pre-classifies each field as an *attribute definition* (scalar/enum
base type -- specifies a node property, §3.2) or a *relationship definition*
(object/interface/union base type -- specifies outgoing edges, §3.3).
"""

from __future__ import annotations

import enum
import threading
import weakref
from typing import TypeVar, cast

from ..errors import SchemaError
from ..record import Record, Spanned
from .directives import KEY
from .scalars import ScalarRegistry
from .typerefs import TypeRef


class FieldKind(enum.Enum):
    """The paper's two-way classification of field definitions (§3.1)."""

    ATTRIBUTE = "attribute"
    RELATIONSHIP = "relationship"


class AppliedDirective(Spanned):
    """A pair ``(d, argvals)`` from ``D × AV`` (Definition 4.1).

    ``arguments`` is the partial function *argvals* as a sorted tuple of
    (name, value) pairs; values are plain Python values (lists as tuples).
    """

    name: str
    arguments: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def of(name: str, **arguments: object) -> "AppliedDirective":
        normalised = tuple(
            sorted(
                (arg, tuple(value) if isinstance(value, list) else value)
                for arg, value in arguments.items()
            )
        )
        return AppliedDirective(name, normalised)

    def argument(self, name: str, default: object = None) -> object:
        for arg_name, value in self.arguments:
            if arg_name == name:
                return value
        return default

    @property
    def argument_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.arguments)


class ArgumentDefinition(Spanned):
    """A field-argument definition: a point of ``type_AF`` plus extras."""

    name: str
    type: TypeRef
    default: object = None
    has_default: bool = False
    directives: tuple[AppliedDirective, ...] = ()


class FieldDefinition(Spanned):
    """A field definition: a point of ``type_F`` with its arguments and directives."""

    name: str
    type: TypeRef
    kind: FieldKind
    arguments: tuple[ArgumentDefinition, ...] = ()
    directives: tuple[AppliedDirective, ...] = ()
    description: str | None = None

    def argument(self, name: str) -> ArgumentDefinition | None:
        for arg in self.arguments:
            if arg.name == name:
                return arg
        return None

    def has_directive(self, directive_name: str) -> bool:
        return any(d.name == directive_name for d in self.directives)

    @property
    def is_attribute(self) -> bool:
        return self.kind is FieldKind.ATTRIBUTE

    @property
    def is_relationship(self) -> bool:
        return self.kind is FieldKind.RELATIONSHIP


class ObjectType(Spanned):
    """An object type ``ot ∈ OT``: node type whose name labels nodes (§3.1)."""

    name: str
    fields: tuple[FieldDefinition, ...] = ()
    interfaces: tuple[str, ...] = ()
    directives: tuple[AppliedDirective, ...] = ()
    description: str | None = None

    def field(self, field_name: str) -> FieldDefinition | None:
        for field_def in self.fields:
            if field_def.name == field_name:
                return field_def
        return None

    @property
    def keys(self) -> tuple[tuple[str, ...], ...]:
        """The field-name lists of the @key directives on this type."""
        return tuple(
            tuple(directive.argument("fields", ()))  # type: ignore[arg-type]
            for directive in self.directives
            if directive.name == KEY
        )


class InterfaceType(Spanned):
    """An interface type ``it ∈ IT`` (used for edge targets, §3.4)."""

    name: str
    fields: tuple[FieldDefinition, ...] = ()
    directives: tuple[AppliedDirective, ...] = ()
    description: str | None = None

    def field(self, field_name: str) -> FieldDefinition | None:
        for field_def in self.fields:
            if field_def.name == field_name:
                return field_def
        return None


class UnionType(Spanned):
    """A union type ``ut ∈ UT`` with its member object types."""

    name: str
    members: frozenset[str] = frozenset()
    directives: tuple[AppliedDirective, ...] = ()
    description: str | None = None


class DirectiveDefinition(Record):
    """A directive type: a row of ``type_AD`` (the directive's argument types)."""

    name: str
    arguments: dict[str, TypeRef] = {}
    locations: tuple[str, ...] = ()


_T = TypeVar("_T")

# Derived state (the validation plan, the sat verdict cache, the dataflow
# analysis) is a pure function of a schema, so it lives in the schema's
# memo, keyed by the entry's class and freed with the schema.  The WeakSet
# lets the caches' ``*_info``/``*_clear`` functions reach the live memos.
_memo_lock = threading.Lock()
_memo_holders: "weakref.WeakSet[GraphQLSchema]" = weakref.WeakSet()


def memo_entries(kind: "type[_T]") -> "list[_T]":
    """The *kind* entry of every live schema memo that holds one."""
    with _memo_lock:
        memos = [schema._memo or {} for schema in _memo_holders]
    return [cast(_T, memo[kind]) for memo in memos if kind in memo]


def memo_clear(kind: type) -> None:
    """Drop the *kind* entry from every live schema memo."""
    with _memo_lock:
        for schema in _memo_holders:
            (schema._memo or {}).pop(kind, None)


class GraphQLSchema:
    """A consistent GraphQL schema interpreted as a Property Graph schema.

    Instances are produced by :func:`repro.schema.build.build_schema` (from a
    parsed SDL document) or assembled programmatically; after assembly they
    should be treated as immutable.
    """

    #: Derived state by entry class; made by the first :meth:`memo_put`.
    _memo: "dict[type, object] | None" = None

    def __init__(
        self,
        object_types: dict[str, ObjectType] | None = None,
        interface_types: dict[str, InterfaceType] | None = None,
        union_types: dict[str, UnionType] | None = None,
        scalars: ScalarRegistry | None = None,
        directive_definitions: dict[str, DirectiveDefinition] | None = None,
        warnings: tuple[str, ...] = (),
    ) -> None:
        self.object_types: dict[str, ObjectType] = object_types or {}
        self.interface_types: dict[str, InterfaceType] = interface_types or {}
        self.union_types: dict[str, UnionType] = union_types or {}
        self.scalars: ScalarRegistry = scalars or ScalarRegistry()
        self.directive_definitions: dict[str, DirectiveDefinition] = (
            directive_definitions or {}
        )
        #: Non-fatal notes from schema building (ignored SDL features, §3.6).
        self.warnings: tuple[str, ...] = warnings
        self._implementations: dict[str, frozenset[str]] = {}
        self._rebuild_indexes()

    def _rebuild_indexes(self) -> None:
        implementations: dict[str, set[str]] = {
            name: set() for name in self.interface_types
        }
        for object_type in self.object_types.values():
            for interface_name in object_type.interfaces:
                if interface_name not in implementations:
                    raise SchemaError(
                        f"type {object_type.name} implements unknown interface "
                        f"{interface_name}"
                    )
                implementations[interface_name].add(object_type.name)
        self._implementations = {
            name: frozenset(members) for name, members in implementations.items()
        }

    # ------------------------------------------------------------------ #
    # the sets (F, A, T, S, D)
    # ------------------------------------------------------------------ #

    @property
    def type_names(self) -> frozenset[str]:
        """T = OT ∪ IT ∪ UT ∪ S."""
        return (
            frozenset(self.object_types)
            | frozenset(self.interface_types)
            | frozenset(self.union_types)
            | self.scalars.names
        )

    @property
    def field_names(self) -> frozenset[str]:
        """F: every field name used in some object or interface type."""
        names: set[str] = set()
        for composite in (*self.object_types.values(), *self.interface_types.values()):
            names.update(field_def.name for field_def in composite.fields)
        return frozenset(names)

    def is_object_type(self, name: str) -> bool:
        return name in self.object_types

    def is_interface_type(self, name: str) -> bool:
        return name in self.interface_types

    def is_union_type(self, name: str) -> bool:
        return name in self.union_types

    def is_scalar_type(self, name: str) -> bool:
        """True when name ∈ S (enums included, per the paper's convention)."""
        return self.scalars.is_scalar(name)

    def is_composite_type(self, name: str) -> bool:
        """True for object and interface types (the domain of type_F)."""
        return name in self.object_types or name in self.interface_types

    # ------------------------------------------------------------------ #
    # the paper's accessor functions
    # ------------------------------------------------------------------ #

    def composite(self, type_name: str) -> ObjectType | InterfaceType:
        """The object or interface type of this name."""
        found = self.object_types.get(type_name) or self.interface_types.get(type_name)
        if found is None:
            raise SchemaError(f"no object or interface type named {type_name}")
        return found

    def fields(self, type_name: str) -> tuple[str, ...]:
        """``fields_S(t)``: names of the fields defined for a composite type."""
        return tuple(field_def.name for field_def in self.composite(type_name).fields)

    def field(self, type_name: str, field_name: str) -> FieldDefinition | None:
        """The field definition, or None when (t, f) ∉ dom(type_F)."""
        if not self.is_composite_type(type_name):
            return None
        return self.composite(type_name).field(field_name)

    def type_f(self, type_name: str, field_name: str) -> TypeRef | None:
        """``type_F(t, f)``, or None when undefined."""
        field_def = self.field(type_name, field_name)
        return field_def.type if field_def else None

    def args(self, type_name: str, field_name: str) -> tuple[str, ...]:
        """``args_S(t, f)``: the argument names of a field."""
        field_def = self.field(type_name, field_name)
        if field_def is None:
            return ()
        return tuple(arg.name for arg in field_def.arguments)

    def type_af(self, type_name: str, field_name: str, arg_name: str) -> TypeRef | None:
        """``type_AF((t, f), a)``, or None when undefined."""
        field_def = self.field(type_name, field_name)
        if field_def is None:
            return None
        arg = field_def.argument(arg_name)
        return arg.type if arg else None

    def type_ad(self, directive_name: str, arg_name: str) -> TypeRef | None:
        """``type_AD(d, a)``, or None when undefined."""
        definition = self.directive_definitions.get(directive_name)
        if definition is None:
            return None
        return definition.arguments.get(arg_name)

    def union(self, union_name: str) -> frozenset[str]:
        """``union_S(ut)``: the member object types of a union."""
        union_type = self.union_types.get(union_name)
        if union_type is None:
            raise SchemaError(f"no union type named {union_name}")
        return union_type.members

    def implementation(self, interface_name: str) -> frozenset[str]:
        """``implementation_S(it)``: the object types implementing an interface."""
        try:
            return self._implementations[interface_name]
        except KeyError:
            raise SchemaError(f"no interface type named {interface_name}") from None

    def directives_t(self, type_name: str) -> tuple[AppliedDirective, ...]:
        """``directives_T(t)`` for composite and union types."""
        if self.is_composite_type(type_name):
            return self.composite(type_name).directives
        union_type = self.union_types.get(type_name)
        if union_type is not None:
            return union_type.directives
        return ()

    def directives_f(self, type_name: str, field_name: str) -> tuple[AppliedDirective, ...]:
        """``directives_F(t, f)``."""
        field_def = self.field(type_name, field_name)
        return field_def.directives if field_def else ()

    def has_field_directive(
        self, type_name: str, field_name: str, directive_name: str
    ) -> bool:
        """``(d, ∅) ∈ directives_F(t, f)`` for argument-less directives."""
        return any(
            directive.name == directive_name
            for directive in self.directives_f(type_name, field_name)
        )

    # ------------------------------------------------------------------ #
    # derived views used throughout the library
    # ------------------------------------------------------------------ #

    def field_declarations(self) -> list[tuple[str, str, FieldDefinition]]:
        """dom(type_F) as a list of (type name, field name, definition)."""
        return [
            (composite.name, field_def.name, field_def)
            for composite in (*self.object_types.values(), *self.interface_types.values())
            for field_def in composite.fields
        ]

    def object_types_below(self, type_name: str) -> frozenset[str]:
        """All object types ot with ot ⊑_S type_name (the "node types of" a
        declared type): the type itself if an object type, its implementors
        if an interface, its members if a union."""
        if type_name in self.object_types:
            return frozenset({type_name})
        if type_name in self.interface_types:
            return self.implementation(type_name)
        if type_name in self.union_types:
            return self.union(type_name)
        return frozenset()

    def memo_get(self, kind: "type[_T]") -> "_T | None":
        """This schema's memoized *kind* entry, or None."""
        return cast("_T | None", (self._memo or {}).get(kind))

    def memo_put(self, entry: _T, replace: bool = False) -> _T:
        """Store *entry* under its class; return the stored entry (the first
        one stored wins, so racing builders agree, unless *replace*)."""
        with _memo_lock:
            if self._memo is None:
                self._memo = {}
                _memo_holders.add(self)
            if replace:
                self._memo[type(entry)] = entry
            return cast(_T, self._memo.setdefault(type(entry), entry))

    def __getstate__(self) -> dict[str, object]:
        """Pickled without the memo (its entries hold locks and closures):
        a process worker rebuilds what it needs."""
        return {key: value for key, value in self.__dict__.items() if key != "_memo"}

    def __repr__(self) -> str:
        return (
            f"GraphQLSchema(objects={len(self.object_types)}, "
            f"interfaces={len(self.interface_types)}, "
            f"unions={len(self.union_types)}, "
            f"scalars={len(self.scalars.custom_names)}+builtin)"
        )
