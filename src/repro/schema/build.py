"""Build a formal :class:`GraphQLSchema` from a parsed SDL document.

This module realises the interpretation rules of Section 3 plus the
"ignored features" policy of Section 3.6:

* object types define node types, interface/union types define edge-target
  families, scalar and enum declarations extend ``S``;
* root operation types (named in a ``schema { ... }`` block, or the
  conventionally-named ``Query``/``Mutation``/``Subscription`` when there is
  no block) are dropped, together with fields referencing them;
* field arguments on attribute definitions are ignored;
* field arguments whose type is not scalar/enum-based are ignored;
* applications of unknown directives are ignored;
* ``input`` type definitions are ignored.

Every ignored feature produces an entry in ``schema.warnings``.  Anything
that cannot be interpreted *and* cannot be ignored (unknown referenced types,
inadmissible type wrappings, duplicate definitions) raises
:class:`~repro.errors.SchemaError`.  After assembly the schema is checked for
interface and directives consistency (Definitions 4.3/4.4) because the paper
assumes all schemas are consistent.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .. import obs
from ..errors import SchemaError
from ..sdl import ast
from ..sdl.parser import parse_document
from .directives import (
    FIELD_LEVEL_DIRECTIVES,
    OBJECT_LEVEL_DIRECTIVES,
    STANDARD_DIRECTIVE_ARGS,
    canonical_directive_name,
)
from .model import (
    AppliedDirective,
    ArgumentDefinition,
    DirectiveDefinition,
    FieldDefinition,
    FieldKind,
    GraphQLSchema,
    InterfaceType,
    ObjectType,
    UnionType,
)
from .scalars import ScalarRegistry
from .typerefs import TypeRef

_ROOT_OPERATION_NAMES = ("Query", "Mutation", "Subscription")


def parse_schema(
    source: str,
    check: bool = True,
    scalar_predicates: Mapping[str, Callable[[object], bool]] | None = None,
) -> GraphQLSchema:
    """Parse SDL text and build the formal schema in one step."""
    with obs.span("sdl.parse", bytes=len(source)):
        document = parse_document(source)
    return build_schema(document, check=check, scalar_predicates=scalar_predicates)


def build_schema(
    document: ast.Document,
    check: bool = True,
    scalar_predicates: Mapping[str, Callable[[object], bool]] | None = None,
) -> GraphQLSchema:
    """Interpret an SDL document as a Property Graph schema.

    Args:
        document: The parsed SDL document.
        check: Run the consistency checks of Definitions 4.3/4.4 (on by
            default; the paper assumes consistent schemas).
        scalar_predicates: Optional value-domain predicates for custom
            scalars declared in the document (by default a custom scalar
            accepts every atomic value).

    Raises:
        SchemaError: On uninterpretable input.
        ConsistencyError: When *check* is set and the schema is inconsistent.
    """
    span = obs.span("schema.build", definitions=len(document.definitions))
    with span:
        builder = _SchemaBuilder(document, scalar_predicates or {})
        schema = builder.build()
        if check:
            from .consistency import check_consistency

            check_consistency(schema)
        span.set(
            types=len(schema.object_types),
            warnings=len(schema.warnings),
        )
    return schema


def value_to_python(node: ast.ValueNode) -> object:
    """Convert a constant SDL value literal into a plain Python value.

    Enum values become their name strings, lists become tuples, input
    objects become tuples of (name, value) pairs, ``null`` becomes None.
    """
    if isinstance(node, ast.IntValue):
        return node.value
    if isinstance(node, ast.FloatValue):
        return node.value
    if isinstance(node, ast.StringValue):
        return node.value
    if isinstance(node, ast.BooleanValue):
        return node.value
    if isinstance(node, ast.NullValue):
        return None
    if isinstance(node, ast.EnumValue):
        return node.name
    if isinstance(node, ast.ListValue):
        return tuple(value_to_python(item) for item in node.values)
    if isinstance(node, ast.ObjectValue):
        return tuple((name, value_to_python(value)) for name, value in node.fields)
    raise SchemaError(f"not a constant value: {node!r}")


class _SchemaBuilder:
    def __init__(
        self,
        document: ast.Document,
        scalar_predicates: Mapping[str, Callable[[object], bool]],
    ) -> None:
        self._document = document
        self._scalar_predicates = scalar_predicates
        self._warnings: list[str] = []
        self._scalars = ScalarRegistry()
        self._directive_defs: dict[str, DirectiveDefinition] = {}
        self._object_defs: dict[str, ast.ObjectTypeDefinition] = {}
        self._interface_defs: dict[str, ast.InterfaceTypeDefinition] = {}
        self._union_defs: dict[str, ast.UnionTypeDefinition] = {}
        self._input_names: set[str] = set()
        self._root_types: set[str] = set()

    # ------------------------------------------------------------------ #

    def build(self) -> GraphQLSchema:
        self._collect_definitions()
        self._determine_root_types()
        object_types = {
            name: self._build_object_type(defn)
            for name, defn in self._object_defs.items()
            if name not in self._root_types
        }
        interface_types = {
            name: self._build_interface_type(defn)
            for name, defn in self._interface_defs.items()
        }
        union_types = {
            name: self._build_union_type(defn) for name, defn in self._union_defs.items()
        }
        return GraphQLSchema(
            object_types=object_types,
            interface_types=interface_types,
            union_types=union_types,
            scalars=self._scalars,
            directive_definitions=self._directive_defs,
            warnings=tuple(self._warnings),
        )

    # ------------------------------------------------------------------ #
    # pass 1: names
    # ------------------------------------------------------------------ #

    def _collect_definitions(self) -> None:
        seen: set[str] = set()

        def claim(name: str, what: str) -> None:
            if name in seen:
                raise SchemaError(f"duplicate type definition: {what} {name}")
            seen.add(name)

        for definition in self._document.definitions:
            if isinstance(definition, ast.ScalarTypeDefinition):
                claim(definition.name, "scalar")
                self._scalars.register_scalar(
                    definition.name, self._scalar_predicates.get(definition.name)
                )
            elif isinstance(definition, ast.EnumTypeDefinition):
                claim(definition.name, "enum")
                if not definition.values:
                    raise SchemaError(f"enum type {definition.name} has no values")
                self._scalars.register_enum(
                    definition.name, (value.name for value in definition.values)
                )
            elif isinstance(definition, ast.ObjectTypeDefinition):
                claim(definition.name, "type")
                self._object_defs[definition.name] = definition
            elif isinstance(definition, ast.InterfaceTypeDefinition):
                claim(definition.name, "interface")
                self._interface_defs[definition.name] = definition
            elif isinstance(definition, ast.UnionTypeDefinition):
                claim(definition.name, "union")
                self._union_defs[definition.name] = definition
            elif isinstance(definition, ast.InputObjectTypeDefinition):
                claim(definition.name, "input")
                self._input_names.add(definition.name)
                self._warnings.append(
                    f"input type {definition.name} is ignored "
                    "(input types play no role in Property Graph schemas)"
                )
            elif isinstance(definition, ast.DirectiveDefinition):
                self._register_directive_definition(definition)
            elif isinstance(definition, ast.SchemaDefinition):
                pass  # handled in _determine_root_types
            else:  # pragma: no cover - parser produces no other kinds
                raise SchemaError(f"unsupported definition: {definition!r}")
        for name, args in STANDARD_DIRECTIVE_ARGS.items():
            self._directive_defs.setdefault(
                name,
                DirectiveDefinition(name, dict(args), ("OBJECT", "FIELD_DEFINITION")),
            )

    def _register_directive_definition(self, definition: ast.DirectiveDefinition) -> None:
        name = canonical_directive_name(definition.name)
        if name in STANDARD_DIRECTIVE_ARGS:
            # Definition 4.5 fixes the standard directives' signatures
            raise SchemaError(
                f"duplicate directive definition: @{name} is a standard directive"
            )
        if name in self._directive_defs:
            raise SchemaError(f"duplicate directive definition: @{name}")
        arguments: dict[str, TypeRef] = {}
        for arg in definition.arguments:
            ref = TypeRef.from_ast(arg.type)
            arguments[arg.name] = ref
        self._directive_defs[name] = DirectiveDefinition(
            name, arguments, definition.locations
        )

    def _determine_root_types(self) -> None:
        schema_blocks = self._document.definitions_of(ast.SchemaDefinition)
        if schema_blocks:
            for block in schema_blocks:
                for operation, type_name in block.operation_types:
                    self._root_types.add(type_name)
                    self._warnings.append(
                        f"root operation type {type_name} ({operation}) is ignored "
                        "(Section 3.6: root types play no role in Property Graph schemas)"
                    )
        else:
            for conventional in _ROOT_OPERATION_NAMES:
                if conventional in self._object_defs:
                    self._root_types.add(conventional)
                    self._warnings.append(
                        f"conventionally-named root type {conventional} is ignored "
                        "(Section 3.6)"
                    )

    # ------------------------------------------------------------------ #
    # pass 2: types
    # ------------------------------------------------------------------ #

    def _kind_of_basetype(self, base: str) -> str | None:
        if self._scalars.is_scalar(base):
            return "scalar"
        if base in self._object_defs and base not in self._root_types:
            return "object"
        if base in self._interface_defs:
            return "interface"
        if base in self._union_defs:
            return "union"
        if base in self._input_names:
            return "input"
        if base in self._root_types:
            return "root"
        return None

    def _build_object_type(self, definition: ast.ObjectTypeDefinition) -> ObjectType:
        for interface_name in definition.interfaces:
            if interface_name not in self._interface_defs:
                raise SchemaError(
                    f"type {definition.name} implements unknown interface {interface_name}"
                )
        return ObjectType(
            name=definition.name,
            fields=self._build_fields(definition.name, definition.fields),
            interfaces=definition.interfaces,
            directives=self._build_directives(
                definition.directives, f"type {definition.name}", location="OBJECT"
            ),
            description=definition.description,
            line=definition.line,
            column=definition.column,
        )

    def _build_interface_type(
        self, definition: ast.InterfaceTypeDefinition
    ) -> InterfaceType:
        return InterfaceType(
            name=definition.name,
            fields=self._build_fields(definition.name, definition.fields),
            directives=self._build_directives(
                definition.directives, f"interface {definition.name}", location="OBJECT"
            ),
            description=definition.description,
            line=definition.line,
            column=definition.column,
        )

    def _build_union_type(self, definition: ast.UnionTypeDefinition) -> UnionType:
        members: set[str] = set()
        for member in definition.types:
            if member in self._root_types:
                self._warnings.append(
                    f"union {definition.name} member {member} is a root type; ignored"
                )
                continue
            if member not in self._object_defs:
                raise SchemaError(
                    f"union {definition.name} member {member} is not an object type"
                )
            members.add(member)
        if not members:
            raise SchemaError(f"union {definition.name} has no (usable) member types")
        return UnionType(
            name=definition.name,
            members=frozenset(members),
            directives=self._build_directives(
                definition.directives, f"union {definition.name}", location="UNION"
            ),
            description=definition.description,
            line=definition.line,
            column=definition.column,
        )

    def _build_fields(
        self, owner: str, field_defs: tuple[ast.FieldDefinition, ...]
    ) -> tuple[FieldDefinition, ...]:
        fields: list[FieldDefinition] = []
        seen: set[str] = set()
        for field_def in field_defs:
            if field_def.name in seen:
                raise SchemaError(f"duplicate field {owner}.{field_def.name}")
            seen.add(field_def.name)
            built = self._build_field(owner, field_def)
            if built is not None:
                fields.append(built)
        return tuple(fields)

    def _build_field(
        self, owner: str, field_def: ast.FieldDefinition
    ) -> FieldDefinition | None:
        where = f"{owner}.{field_def.name}"
        ref = TypeRef.from_ast(field_def.type)
        kind_name = self._kind_of_basetype(ref.base)
        if kind_name is None:
            raise SchemaError(f"field {where} references unknown type {ref.base}")
        if kind_name == "root":
            self._warnings.append(
                f"field {where} references a root operation type and is ignored"
            )
            return None
        if kind_name == "input":
            raise SchemaError(f"field {where} has an input type as its value type")
        kind = FieldKind.ATTRIBUTE if kind_name == "scalar" else FieldKind.RELATIONSHIP
        arguments = self._build_arguments(where, kind, field_def.arguments)
        directives = self._build_directives(
            field_def.directives, f"field {where}", location="FIELD_DEFINITION"
        )
        return FieldDefinition(
            name=field_def.name,
            type=ref,
            kind=kind,
            arguments=arguments,
            directives=directives,
            description=field_def.description,
            line=field_def.line,
            column=field_def.column,
        )

    def _build_arguments(
        self,
        where: str,
        kind: FieldKind,
        argument_defs: tuple[ast.InputValueDefinition, ...],
    ) -> tuple[ArgumentDefinition, ...]:
        if kind is FieldKind.ATTRIBUTE and argument_defs:
            # Section 3.6: arguments of attribute definitions carry no meaning.
            self._warnings.append(
                f"arguments of attribute definition {where} are ignored (Section 3.6)"
            )
            return ()
        arguments: list[ArgumentDefinition] = []
        seen: set[str] = set()
        for arg_def in argument_defs:
            if arg_def.name in seen:
                raise SchemaError(f"duplicate argument {where}({arg_def.name})")
            seen.add(arg_def.name)
            ref = TypeRef.from_ast(arg_def.type)
            if not self._scalars.is_scalar(ref.base):
                # Section 3.6: non-scalar argument types cannot describe edge
                # properties and are ignored.
                self._warnings.append(
                    f"argument {where}({arg_def.name}) has non-scalar type "
                    f"{ref} and is ignored (Section 3.6)"
                )
                continue
            default: object = None
            has_default = arg_def.default_value is not None
            if has_default:
                default = value_to_python(arg_def.default_value)
            arguments.append(
                ArgumentDefinition(
                    name=arg_def.name,
                    type=ref,
                    default=default,
                    has_default=has_default,
                    directives=self._build_directives(
                        arg_def.directives,
                        f"argument {where}({arg_def.name})",
                        location="ARGUMENT_DEFINITION",
                    ),
                    line=arg_def.line,
                    column=arg_def.column,
                )
            )
        return tuple(arguments)

    def _build_directives(
        self,
        directive_nodes: tuple[ast.DirectiveNode, ...],
        where: str,
        location: str,
    ) -> tuple[AppliedDirective, ...]:
        applied: list[AppliedDirective] = []
        for node in directive_nodes:
            name = canonical_directive_name(node.name)
            if name not in self._directive_defs:
                self._warnings.append(
                    f"unknown directive @{node.name} on {where} is ignored (Section 3.6)"
                )
                continue
            if location == "OBJECT" and name in FIELD_LEVEL_DIRECTIVES:
                self._warnings.append(
                    f"directive @{name} applies to field definitions, "
                    f"not to {where}; ignored"
                )
                continue
            if location == "FIELD_DEFINITION" and name in OBJECT_LEVEL_DIRECTIVES:
                self._warnings.append(
                    f"directive @{name} applies to object types, not to {where}; ignored"
                )
                continue
            arguments = tuple(
                sorted((arg.name, value_to_python(arg.value)) for arg in node.arguments)
            )
            applied.append(
                AppliedDirective(name, arguments, line=node.line, column=node.column)
            )
        return tuple(applied)
