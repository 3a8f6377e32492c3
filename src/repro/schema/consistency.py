"""Schema consistency (Definitions 4.3-4.5 of the paper).

A schema is *consistent* when it is both interface consistent and directives
consistent; the paper assumes all schemas are consistent, so the builder
rejects inconsistent ones by default.

Interface consistency (Definition 4.3): every object type implementing an
interface must (1) contain every interface field with a subtype-compatible
type, (2) repeat every interface-field argument at the identical type, and
(3) add extra arguments only at nullable types.

Directives consistency (Definition 4.4): every applied directive must supply
every non-null-typed argument of its directive definition, and every supplied
argument value must lie in ``values_W`` of its declared type.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConsistencyError
from .subtype import is_subtype

if TYPE_CHECKING:  # pragma: no cover
    from .model import AppliedDirective, GraphQLSchema


def _at(node: object) -> str:
    """`` (at line L, column C)`` when the node carries a source span.

    Model objects assembled programmatically have no span (line 0) and
    contribute nothing, so messages stay clean for in-memory schemas.
    """
    line = getattr(node, "line", 0)
    column = getattr(node, "column", 0)
    return f" (at line {line}, column {column})" if line else ""


def interface_consistency_errors(schema: "GraphQLSchema") -> list[str]:
    """All violations of Definition 4.3, as human-readable messages."""
    errors: list[str] = []
    for interface_name, interface_type in schema.interface_types.items():
        for object_name in sorted(schema.implementation(interface_name)):
            object_type = schema.object_types[object_name]
            for interface_field in interface_type.fields:
                object_field = object_type.field(interface_field.name)
                where = f"{object_name} (implements {interface_name})"
                if object_field is None:
                    errors.append(
                        f"{where} lacks interface field {interface_field.name}"
                        f"{_at(object_type)}"
                    )
                    continue
                if not is_subtype(schema, object_field.type, interface_field.type):
                    errors.append(
                        f"{where}: field {interface_field.name} has type "
                        f"{object_field.type}, not a subtype of "
                        f"{interface_field.type}{_at(object_field)}"
                    )
                for interface_arg in interface_field.arguments:
                    object_arg = object_field.argument(interface_arg.name)
                    if object_arg is None:
                        errors.append(
                            f"{where}: field {interface_field.name} lacks argument "
                            f"{interface_arg.name}{_at(object_field)}"
                        )
                    elif object_arg.type != interface_arg.type:
                        errors.append(
                            f"{where}: argument {interface_field.name}"
                            f"({interface_arg.name}) has type {object_arg.type}, "
                            f"expected exactly {interface_arg.type}"
                            f"{_at(object_arg)}"
                        )
                interface_arg_names = {
                    arg.name for arg in interface_field.arguments
                }
                for object_arg in object_field.arguments:
                    if (
                        object_arg.name not in interface_arg_names
                        and object_arg.type.non_null
                    ):
                        errors.append(
                            f"{where}: extra argument {interface_field.name}"
                            f"({object_arg.name}) beyond interface "
                            f"{interface_name} must have a nullable type, not "
                            f"{object_arg.type} (Definition 4.3(3))"
                            f"{_at(object_arg)}"
                        )
    return errors


def directives_consistency_errors(schema: "GraphQLSchema") -> list[str]:
    """All violations of Definition 4.4, as human-readable messages."""
    errors: list[str] = []
    for where, directive in _all_applied_directives(schema):
        definition = schema.directive_definitions.get(directive.name)
        if definition is None:
            errors.append(
                f"{where}: directive @{directive.name} is not defined{_at(directive)}"
            )
            continue
        supplied = dict(directive.arguments)
        for arg_name, arg_type in definition.arguments.items():
            if arg_type.non_null and arg_name not in supplied:
                errors.append(
                    f"{where}: @{directive.name} lacks required argument "
                    f"{arg_name}{_at(directive)}"
                )
        for arg_name, value in supplied.items():
            arg_type = definition.arguments.get(arg_name)
            if arg_type is None:
                errors.append(
                    f"{where}: @{directive.name} has undefined argument "
                    f"{arg_name}{_at(directive)}"
                )
                continue
            if not schema.scalars.in_values_w(value, arg_type):
                errors.append(
                    f"{where}: @{directive.name}({arg_name}: {value!r}) is not a "
                    f"value of type {arg_type}{_at(directive)}"
                )
    return errors


def consistency_errors(schema: "GraphQLSchema") -> list[str]:
    """All violations of Definition 4.5 (interface + directives consistency)."""
    return interface_consistency_errors(schema) + directives_consistency_errors(schema)


def is_consistent(schema: "GraphQLSchema") -> bool:
    """Definition 4.5: interface consistent and directives consistent."""
    return not consistency_errors(schema)


def check_consistency(schema: "GraphQLSchema") -> None:
    """Raise :class:`ConsistencyError` listing all violations, if any."""
    errors = consistency_errors(schema)
    if errors:
        raise ConsistencyError(
            "schema is not consistent (Definition 4.5):\n  " + "\n  ".join(errors)
        )


def _all_applied_directives(
    schema: "GraphQLSchema",
) -> list[tuple[str, "AppliedDirective"]]:
    """Every (location description, applied directive) pair in the schema."""
    found: list[tuple[str, "AppliedDirective"]] = []
    for type_name in (
        *schema.object_types,
        *schema.interface_types,
        *schema.union_types,
    ):
        for directive in schema.directives_t(type_name):
            found.append((f"type {type_name}", directive))
    for type_name, field_name, field_def in schema.field_declarations():
        for directive in field_def.directives:
            found.append((f"field {type_name}.{field_name}", directive))
        for argument in field_def.arguments:
            for directive in argument.directives:
                found.append(
                    (f"argument {type_name}.{field_name}({argument.name})", directive)
                )
    return found
