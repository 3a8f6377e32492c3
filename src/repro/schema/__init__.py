"""The formal GraphQL schema model and its Property Graph interpretation.

Exports resolve on first access (PEP 562), like the top-level package:
building a schema loads neither the printer nor, unless ``check=True``,
the consistency checks.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .build import build_schema, parse_schema, value_to_python
    from .consistency import (
        check_consistency,
        consistency_errors,
        directives_consistency_errors,
        interface_consistency_errors,
        is_consistent,
    )
    from .directives import (
        DISTINCT,
        KEY,
        NO_LOOPS,
        REQUIRED,
        REQUIRED_FOR_TARGET,
        STANDARD_DIRECTIVES,
        UNIQUE_FOR_TARGET,
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
    from .printer import print_schema, schema_to_document
    from .scalars import BUILTIN_SCALARS, ScalarRegistry
    from .subtype import is_named_subtype, is_subtype, label_conforms
    from .typerefs import TypeRef, all_wrappings

__all__ = [
    "AppliedDirective",
    "ArgumentDefinition",
    "BUILTIN_SCALARS",
    "DISTINCT",
    "DirectiveDefinition",
    "FieldDefinition",
    "FieldKind",
    "GraphQLSchema",
    "InterfaceType",
    "KEY",
    "NO_LOOPS",
    "ObjectType",
    "REQUIRED",
    "REQUIRED_FOR_TARGET",
    "STANDARD_DIRECTIVES",
    "ScalarRegistry",
    "TypeRef",
    "UNIQUE_FOR_TARGET",
    "UnionType",
    "all_wrappings",
    "build_schema",
    "canonical_directive_name",
    "check_consistency",
    "consistency_errors",
    "directives_consistency_errors",
    "interface_consistency_errors",
    "is_consistent",
    "is_named_subtype",
    "is_subtype",
    "label_conforms",
    "parse_schema",
    "print_schema",
    "schema_to_document",
    "value_to_python",
]

# Exported name -> the submodule that defines it; keep in step with the
# TYPE_CHECKING imports above (tests/test_meta.py pins both).
_EXPORTS = {
    "build_schema": "build",
    "parse_schema": "build",
    "value_to_python": "build",
    "check_consistency": "consistency",
    "consistency_errors": "consistency",
    "directives_consistency_errors": "consistency",
    "interface_consistency_errors": "consistency",
    "is_consistent": "consistency",
    "DISTINCT": "directives",
    "KEY": "directives",
    "NO_LOOPS": "directives",
    "REQUIRED": "directives",
    "REQUIRED_FOR_TARGET": "directives",
    "STANDARD_DIRECTIVES": "directives",
    "UNIQUE_FOR_TARGET": "directives",
    "canonical_directive_name": "directives",
    "AppliedDirective": "model",
    "ArgumentDefinition": "model",
    "DirectiveDefinition": "model",
    "FieldDefinition": "model",
    "FieldKind": "model",
    "GraphQLSchema": "model",
    "InterfaceType": "model",
    "ObjectType": "model",
    "UnionType": "model",
    "print_schema": "printer",
    "schema_to_document": "printer",
    "BUILTIN_SCALARS": "scalars",
    "ScalarRegistry": "scalars",
    "is_named_subtype": "subtype",
    "is_subtype": "subtype",
    "label_conforms": "subtype",
    "TypeRef": "typerefs",
    "all_wrappings": "typerefs",
}


__getattr__ = _lazy_exports(globals(), _EXPORTS)
