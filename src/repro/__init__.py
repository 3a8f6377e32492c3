"""repro: Property Graph schemas via the GraphQL Schema Definition Language.

A comprehensive reproduction of

    Olaf Hartig and Jan Hidders.
    "Defining Schemas for Property Graphs by using the GraphQL Schema
    Definition Language."  GRADES-NDA 2019.

The package implements the paper end to end, from scratch:

* :mod:`repro.pg` -- the Property Graph model (Definition 2.1);
* :mod:`repro.sdl` -- a GraphQL SDL lexer/parser/printer (June 2018);
* :mod:`repro.schema` -- the formal schema model, type system, subtype
  relation and consistency checks (Section 4);
* :mod:`repro.validation` -- weak/directives/strong satisfaction (Section
  5) with naive and indexed engines;
* :mod:`repro.fo` -- the Theorem-1 first-order encoding, executable;
* :mod:`repro.sat`, :mod:`repro.dl` -- SAT and ALCQI-tableau substrates;
* :mod:`repro.satisfiability` -- Theorems 2 and 3: the CNF reduction, the
  ALCQI translation, and bounded finite-model search (Section 6.2);
* :mod:`repro.lint` -- static analysis: stable diagnostic codes with source
  spans, and polynomial unsatisfiability pre-checks that short-circuit the
  tableau (Example 6.1's class);
* :mod:`repro.api` -- the S3.6 GraphQL-API extension with a query executor;
* :mod:`repro.baselines` -- Angles' schema model, the paper's comparator;
* :mod:`repro.workloads` -- the paper's example corpus and generators.

Quickstart::

    from repro import parse_schema, GraphBuilder, validate

    schema = parse_schema('''
        type User @key(fields: ["id"]) {
          id: ID! @required
          follows: [User] @distinct @noLoops
        }
    ''')
    graph = (
        GraphBuilder()
        .node("alice", "User", id="u1")
        .node("bob", "User", id="u2")
        .edge("alice", "follows", "bob")
        .graph()
    )
    report = validate(schema, graph)
    assert report.conforms
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from .errors import (
        ConsistencyError,
        GraphError,
        QueryError,
        ReproError,
        SchemaError,
        SDLSyntaxError,
    )
    from .lint import Diagnostic, Severity, lint_schema
    from .pg import GraphBuilder, PropertyGraph
    from .satisfiability import SatisfiabilityChecker
    from .schema import GraphQLSchema, TypeRef, parse_schema, print_schema
    from .validation import (
        ValidationReport,
        Violation,
        satisfies_directives,
        strongly_satisfies,
        validate,
        weakly_satisfies,
    )

__version__ = "1.0.0"

__all__ = [
    "ConsistencyError",
    "Diagnostic",
    "GraphBuilder",
    "GraphError",
    "GraphQLSchema",
    "PropertyGraph",
    "QueryError",
    "ReproError",
    "SDLSyntaxError",
    "SatisfiabilityChecker",
    "SchemaError",
    "Severity",
    "TypeRef",
    "ValidationReport",
    "Violation",
    "__version__",
    "lint_schema",
    "parse_schema",
    "print_schema",
    "satisfies_directives",
    "strongly_satisfies",
    "validate",
    "weakly_satisfies",
]

# Exported name -> the subpackage that defines it.  The names resolve on
# first access (PEP 562), so ``python -m repro.cli lint`` never imports the
# validation engines or the satisfiability checker; keep this table in step
# with the TYPE_CHECKING imports above (tests/test_meta.py pins both).
_EXPORTS = {
    "ConsistencyError": "errors",
    "GraphError": "errors",
    "QueryError": "errors",
    "ReproError": "errors",
    "SchemaError": "errors",
    "SDLSyntaxError": "errors",
    "Diagnostic": "lint",
    "Severity": "lint",
    "lint_schema": "lint",
    "GraphBuilder": "pg",
    "PropertyGraph": "pg",
    "SatisfiabilityChecker": "satisfiability",
    "GraphQLSchema": "schema",
    "TypeRef": "schema",
    "parse_schema": "schema",
    "print_schema": "schema",
    "ValidationReport": "validation",
    "Violation": "validation",
    "satisfies_directives": "validation",
    "strongly_satisfies": "validation",
    "validate": "validation",
    "weakly_satisfies": "validation",
}


def _lazy_exports(namespace: dict[str, Any], exports: dict[str, str]) -> Callable[[str], Any]:
    """A package's PEP 562 ``__getattr__``: binds *exports* (name -> submodule) on first use."""

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = import_module(f".{exports[name]}", namespace["__name__"])
        namespace[name] = getattr(module, name)
        return namespace[name]

    return __getattr__


__getattr__ = _lazy_exports(globals(), _EXPORTS)
