"""The lint rule catalogue: polynomial-time static diagnostics.

Each rule is a function over a built :class:`~repro.schema.model.GraphQLSchema`
that yields :class:`~repro.lint.diagnostics.Diagnostic` objects.  Rules are
registered with a stable code (``PG001``...) and a slug name.  The *error*
findings of PG001 and PG003 constitute a proof that an object type is
unsatisfiable (they carry ``unsat_type``).  Those findings are sound with
respect to the Theorem-3 ALCQI translation -- every axiom the reasoning
below appeals to is one the translation emits.  The satisfiability engine
does not consult them: the cardinality interval analysis
(:mod:`repro.analysis.cardinality`, PG011) proves every such type UNSAT
too, and it is the static rung of the decision ladder (see
:mod:`repro.satisfiability.engine`).

The two unsat-proving rules:

* **PG001** (conflicting cardinality, Example 6.1's class).  For a target
  object type ``x`` and field ``f``, ``@requiredForTarget`` on disjoint
  declaring object types forces distinct incoming ``f``-sources, while
  ``@uniqueForTarget`` on a common supertype caps them at one.  Both the
  unconditional form (diagram (a): the target type itself is unsatisfiable)
  and the conditional form (diagram (c): a type whose own ``@required`` edge
  would overflow the cap at every admissible target) are detected.
* **PG003** (dead required targets).  A ``@required`` edge whose admissible
  target object types are all provably unpopulatable -- or an incoming
  ``@requiredForTarget`` obligation from a provably unpopulatable source --
  makes the declaring/target type unpopulatable in turn; the set is closed
  under a fixpoint seeded with the PG001 verdicts.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..record import Record
from ..schema.directives import (
    DISTINCT,
    KEY,
    NO_LOOPS,
    REQUIRED,
    REQUIRED_FOR_TARGET,
    UNIQUE_FOR_TARGET,
)
from ..schema.subtype import is_subtype
from .diagnostics import Diagnostic, Severity, Span

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.model import AppliedDirective, FieldDefinition, GraphQLSchema

CheckFunction = Callable[["GraphQLSchema"], Iterator[Diagnostic]]


class LintRule(Record):
    """A registered rule: metadata plus its check function."""

    code: str
    name: str
    description: str
    check: CheckFunction


#: The registry, keyed and ordered by code.
RULES: dict[str, LintRule] = {}


def rule(
    code: str, name: str, description: str
) -> Callable[[CheckFunction], CheckFunction]:
    """Class decorator registering a check function under a stable code."""

    def decorate(fn: CheckFunction) -> CheckFunction:
        if code in RULES:  # pragma: no cover - authoring error
            raise ValueError(f"duplicate lint rule code {code}")
        RULES[code] = LintRule(code, name, description, fn)
        return fn

    return decorate


def all_rules() -> tuple[LintRule, ...]:
    """Every registered rule, ordered by code."""
    return tuple(RULES[code] for code in sorted(RULES))


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #


def _relationship_declarations(
    schema: "GraphQLSchema",
) -> list[tuple[str, "FieldDefinition"]]:
    """(declaring type name, field definition) for every relationship field."""
    return [
        (type_name, field_def)
        for type_name, _field_name, field_def in schema.field_declarations()
        if field_def.is_relationship
    ]


def _below(schema: "GraphQLSchema", type_name: str) -> frozenset[str]:
    return schema.object_types_below(type_name)


def _covered(schema: "GraphQLSchema", object_type: str, ancestor: str) -> bool:
    """Is *object_type* ⊑ *ancestor* (itself / implementor / union member)?"""
    return object_type in _below(schema, ancestor)


class _IncomingBound(Record):
    """One declaration contributing an incoming-edge bound at some target."""

    declarer: str
    field: "FieldDefinition"


def _incoming_bounds(
    schema: "GraphQLSchema", directive_name: str, object_declarers_only: bool
) -> dict[tuple[str, str], list[_IncomingBound]]:
    """Map (target object type, field name) -> declarations with *directive*.

    For ``@requiredForTarget`` (lower bounds) only object-type declarers are
    collected: distinct object types are disjoint, so each contributes a
    *distinct* required source node -- the soundness of PG001 rests on that.
    For ``@uniqueForTarget`` (caps) interface declarers count too.
    """
    bounds: dict[tuple[str, str], list[_IncomingBound]] = {}
    for declarer, field_def in _relationship_declarations(schema):
        if not field_def.has_directive(directive_name):
            continue
        if object_declarers_only and declarer not in schema.object_types:
            continue
        for target in _below(schema, field_def.type.base):
            bounds.setdefault((target, field_def.name), []).append(
                _IncomingBound(declarer, field_def)
            )
    return bounds


def _conflicting_unsat_types(schema: "GraphQLSchema") -> dict[str, Diagnostic]:
    """All object types the PG001 reasoning proves unsatisfiable."""
    verdicts: dict[str, Diagnostic] = {}
    lower = _incoming_bounds(schema, REQUIRED_FOR_TARGET, object_declarers_only=True)
    caps = _incoming_bounds(schema, UNIQUE_FOR_TARGET, object_declarers_only=False)

    # Unconditional conflicts: the target type itself cannot be populated.
    for (target, field_name), cap_list in sorted(caps.items()):
        sources = lower.get((target, field_name), [])
        for cap in cap_list:
            required = sorted(
                {b.declarer for b in sources if _covered(schema, b.declarer, cap.declarer)}
            )
            if len(required) >= 2 and target not in verdicts:
                verdicts[target] = Diagnostic(
                    code="PG001",
                    severity=Severity.ERROR,
                    message=(
                        f"conflicting cardinality bounds: @requiredForTarget on "
                        f"{' and '.join(f'{t}.{field_name}' for t in required)} "
                        f"forces {len(required)} distinct incoming '{field_name}' "
                        f"edges at every {target} node, but @uniqueForTarget on "
                        f"{cap.declarer}.{field_name} admits at most one; no "
                        f"{target} node can exist"
                    ),
                    location=target,
                    span=Span.of(cap.field),
                    rule="conflicting-cardinality",
                    unsat_type=target,
                )

    # Conditional conflicts: a type whose own @required edge overflows the
    # cap at *every* admissible target (diagram (c)'s merge-forcing pattern).
    for type_name in sorted(schema.object_types):
        if type_name in verdicts:
            continue
        object_type = schema.object_types[type_name]
        for field_def in object_type.fields:
            if not (field_def.is_relationship and field_def.has_directive(REQUIRED)):
                continue
            targets = sorted(_below(schema, field_def.type.base))
            if not targets:
                continue  # PG003 reports empty target families
            witnesses: list[tuple[str, str, str]] = []
            for target in targets:
                clash = None
                for cap in caps.get((target, field_def.name), []):
                    if not _covered(schema, type_name, cap.declarer):
                        continue
                    others = [
                        b.declarer
                        for b in lower.get((target, field_def.name), [])
                        if b.declarer != type_name
                        and _covered(schema, b.declarer, cap.declarer)
                    ]
                    if others:
                        clash = (target, cap.declarer, sorted(others)[0])
                        break
                if clash is None:
                    witnesses = []
                    break
                witnesses.append(clash)
            if witnesses:
                target, cap_declarer, other = witnesses[0]
                verdicts[type_name] = Diagnostic(
                    code="PG001",
                    severity=Severity.ERROR,
                    message=(
                        f"conflicting cardinality bounds: the @required edge "
                        f"'{field_def.name}' must reach a target that already "
                        f"needs an incoming '{field_def.name}' edge from "
                        f"{other} (@requiredForTarget), while @uniqueForTarget "
                        f"on {cap_declarer}.{field_def.name} admits only one "
                        f"incoming source -- the {type_name} node would have to "
                        f"merge with a disjoint {other} node; no {type_name} "
                        f"node can exist"
                    ),
                    location=f"{type_name}.{field_def.name}",
                    span=Span.of(field_def),
                    rule="conflicting-cardinality",
                    unsat_type=type_name,
                )
                break
    return verdicts


def _unpopulatable_types(schema: "GraphQLSchema") -> dict[str, Diagnostic | None]:
    """Fixpoint of provably unpopulatable object types.

    Seeded with the PG001 verdicts (mapped to ``None`` so PG003 does not
    re-report them); propagation steps attach a fresh PG003 diagnostic.
    """
    dead: dict[str, Diagnostic | None] = {
        name: None for name in _conflicting_unsat_types(schema)
    }
    changed = True
    while changed:
        changed = False
        # a @required edge whose admissible targets are all dead
        for type_name in sorted(schema.object_types):
            if type_name in dead:
                continue
            object_type = schema.object_types[type_name]
            for field_def in object_type.fields:
                if not (
                    field_def.is_relationship and field_def.has_directive(REQUIRED)
                ):
                    continue
                targets = sorted(_below(schema, field_def.type.base))
                if all(target in dead for target in targets):
                    detail = (
                        f"the target family of type {field_def.type} is empty"
                        if not targets
                        else "every admissible target type ("
                        + ", ".join(targets)
                        + ") is itself unpopulatable"
                    )
                    dead[type_name] = Diagnostic(
                        code="PG003",
                        severity=Severity.ERROR,
                        message=(
                            f"required edge '{field_def.name}' can never be "
                            f"populated: {detail}; no {type_name} node can exist"
                        ),
                        location=f"{type_name}.{field_def.name}",
                        span=Span.of(field_def),
                        rule="dead-required-target",
                        unsat_type=type_name,
                    )
                    changed = True
                    break
        # a @requiredForTarget obligation from an unpopulatable source family
        for declarer, field_def in _relationship_declarations(schema):
            if not field_def.has_directive(REQUIRED_FOR_TARGET):
                continue
            sources = _below(schema, declarer)
            if not sources or not all(source in dead for source in sources):
                continue
            for target in sorted(_below(schema, field_def.type.base)):
                if target in dead:
                    continue
                dead[target] = Diagnostic(
                    code="PG003",
                    severity=Severity.ERROR,
                    message=(
                        f"@requiredForTarget on {declarer}.{field_def.name} "
                        f"demands an incoming edge from {declarer}, but no "
                        f"{declarer} node can exist; no {target} node can exist"
                    ),
                    location=target,
                    span=Span.of(field_def),
                    rule="dead-required-target",
                    unsat_type=target,
                )
                changed = True
    return dead


# --------------------------------------------------------------------------- #
# the rules
# --------------------------------------------------------------------------- #


@rule(
    "PG001",
    "conflicting-cardinality",
    "@requiredForTarget lower bounds exceed a @uniqueForTarget cap "
    "(Example 6.1's class); the affected type is unsatisfiable",
)
def check_conflicting_cardinality(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    yield from _conflicting_unsat_types(schema).values()


@rule(
    "PG002",
    "noloops-forced-cycle",
    "@noLoops on a required edge whose only admissible target is the "
    "declaring type forces every instance into a multi-node cycle",
)
def check_noloops_forced_cycle(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    for type_name in sorted(schema.object_types):
        for field_def in schema.object_types[type_name].fields:
            if not field_def.is_relationship or not field_def.has_directive(NO_LOOPS):
                continue
            if not (
                field_def.has_directive(REQUIRED)
                or field_def.has_directive(REQUIRED_FOR_TARGET)
            ):
                continue
            if _below(schema, field_def.type.base) == frozenset({type_name}):
                yield Diagnostic(
                    code="PG002",
                    severity=Severity.WARNING,
                    message=(
                        f"@noLoops with a required '{field_def.name}' edge whose "
                        f"only admissible target is {type_name} itself: every "
                        f"{type_name} node needs a distinct {type_name} partner, "
                        f"so single-node instances are impossible"
                    ),
                    location=f"{type_name}.{field_def.name}",
                    span=Span.of(field_def),
                    rule="noloops-forced-cycle",
                )


@rule(
    "PG003",
    "dead-required-target",
    "a @required edge into a provably unpopulatable target family (or a "
    "@requiredForTarget obligation from one), propagated to a fixpoint; "
    "the affected type is unsatisfiable",
)
def check_dead_required_target(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    for diagnostic in _unpopulatable_types(schema).values():
        if diagnostic is not None:
            yield diagnostic


@rule(
    "PG004",
    "unpopulatable-edge",
    "a non-required edge definition that no graph can ever populate",
)
def check_unpopulatable_edge(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    dead = _unpopulatable_types(schema)
    for declarer, field_def in _relationship_declarations(schema):
        if field_def.has_directive(REQUIRED):
            continue  # PG003 owns the required case
        targets = sorted(_below(schema, field_def.type.base))
        if targets and not all(target in dead for target in targets):
            continue
        detail = (
            f"type {field_def.type} has no object types below it"
            if not targets
            else "every admissible target type ("
            + ", ".join(targets)
            + ") is unpopulatable"
        )
        yield Diagnostic(
            code="PG004",
            severity=Severity.WARNING,
            message=f"edge definition can never be populated: {detail}",
            location=f"{declarer}.{field_def.name}",
            span=Span.of(field_def),
            rule="unpopulatable-edge",
        )


@rule(
    "PG005",
    "unimplemented-interface",
    "an interface no object type implements denotes the empty type",
)
def check_unimplemented_interface(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    for interface_name in sorted(schema.interface_types):
        if not schema.implementation(interface_name):
            yield Diagnostic(
                code="PG005",
                severity=Severity.WARNING,
                message=(
                    f"no object type implements interface {interface_name}; "
                    f"edges declared at type {interface_name} can never be "
                    f"populated"
                ),
                location=interface_name,
                span=Span.of(schema.interface_types[interface_name]),
                rule="unimplemented-interface",
            )


@rule(
    "PG006",
    "unused-definition",
    "a scalar, enum, or union definition nothing in the schema references",
)
def check_unused_definition(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    used: set[str] = set()
    for _type_name, _field_name, field_def in schema.field_declarations():
        used.add(field_def.type.base)
        for argument in field_def.arguments:
            used.add(argument.type.base)
    for definition in schema.directive_definitions.values():
        for arg_type in definition.arguments.values():
            used.add(arg_type.base)
    for name in sorted(schema.scalars.custom_names - used):
        kind = "enum" if schema.scalars.is_enum(name) else "scalar"
        yield Diagnostic(
            code="PG006",
            severity=Severity.INFO,
            message=f"{kind} type {name} is defined but never used",
            location=name,
            rule="unused-definition",
        )
    for name in sorted(set(schema.union_types) - used):
        yield Diagnostic(
            code="PG006",
            severity=Severity.INFO,
            message=f"union type {name} is defined but never used as a field type",
            location=name,
            span=Span.of(schema.union_types[name]),
            rule="unused-definition",
        )


@rule(
    "PG007",
    "invalid-key",
    "@key over unknown, relationship, list-typed, or nullable fields",
)
def check_invalid_key(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    for type_name in sorted({**schema.object_types, **schema.interface_types}):
        composite = schema.composite(type_name)
        for directive in composite.directives:
            if directive.name != KEY:
                continue
            span = Span.of(directive)
            key_fields = directive.argument("fields", ())
            if not isinstance(key_fields, tuple):
                key_fields = (key_fields,) if key_fields else ()
            if not key_fields:
                yield Diagnostic(
                    code="PG007",
                    severity=Severity.ERROR,
                    message="@key with an empty fields list can never identify nodes",
                    location=type_name,
                    span=span,
                    rule="invalid-key",
                )
                continue
            for field_name in key_fields:
                field_def = composite.field(str(field_name))
                if field_def is None:
                    yield Diagnostic(
                        code="PG007",
                        severity=Severity.ERROR,
                        message=f"@key names unknown field '{field_name}'",
                        location=type_name,
                        span=span,
                        rule="invalid-key",
                    )
                elif field_def.is_relationship:
                    yield Diagnostic(
                        code="PG007",
                        severity=Severity.ERROR,
                        message=(
                            f"@key names relationship field '{field_name}'; keys "
                            f"are built from attribute (property) fields"
                        ),
                        location=type_name,
                        span=span,
                        rule="invalid-key",
                    )
                else:
                    if field_def.type.is_list:
                        yield Diagnostic(
                            code="PG007",
                            severity=Severity.WARNING,
                            message=(
                                f"@key field '{field_name}' is list-typed "
                                f"({field_def.type}); list properties make "
                                f"fragile identifiers"
                            ),
                            location=type_name,
                            span=span,
                            rule="invalid-key",
                        )
                    if not field_def.type.non_null:
                        yield Diagnostic(
                            code="PG007",
                            severity=Severity.WARNING,
                            message=(
                                f"@key field '{field_name}' is nullable "
                                f"({field_def.type}); nodes lacking the property "
                                f"escape the key constraint"
                            ),
                            location=type_name,
                            span=span,
                            rule="invalid-key",
                        )


_TARGET_SIDE_DIRECTIVES = (NO_LOOPS, UNIQUE_FOR_TARGET, REQUIRED_FOR_TARGET)


@rule(
    "PG008",
    "redundant-directive",
    "duplicate directive applications and directives that cannot have any "
    "effect where they are applied",
)
def check_redundant_directive(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    def duplicates(
        directives: Iterable["AppliedDirective"], location: str
    ) -> Iterator[Diagnostic]:
        seen: set[tuple[str, tuple[tuple[str, object], ...]]] = set()
        for directive in directives:
            key = (directive.name, directive.arguments)
            if key in seen:
                arg_text = ", ".join(f"{n}: {v!r}" for n, v in directive.arguments)
                yield Diagnostic(
                    code="PG008",
                    severity=Severity.WARNING,
                    message=(
                        f"duplicate directive application @{directive.name}"
                        f"({arg_text})" if arg_text else
                        f"duplicate directive application @{directive.name}"
                    ),
                    location=location,
                    span=Span.of(directive),
                    rule="redundant-directive",
                )
            seen.add(key)

    for type_name in sorted(
        {**schema.object_types, **schema.interface_types, **schema.union_types}
    ):
        yield from duplicates(schema.directives_t(type_name), type_name)
    for type_name, field_name, field_def in schema.field_declarations():
        location = f"{type_name}.{field_name}"
        yield from duplicates(field_def.directives, location)
        if field_def.is_attribute:
            for directive in field_def.directives:
                if directive.name in _TARGET_SIDE_DIRECTIVES:
                    yield Diagnostic(
                        code="PG008",
                        severity=Severity.INFO,
                        message=(
                            f"@{directive.name} constrains edges and has no "
                            f"effect on the attribute field '{field_name}'"
                        ),
                        location=location,
                        span=Span.of(directive),
                        rule="redundant-directive",
                    )
            continue
        if field_def.has_directive(DISTINCT) and not field_def.type.is_list:
            yield Diagnostic(
                code="PG008",
                severity=Severity.INFO,
                message=(
                    f"@distinct has no effect: '{field_name}' is declared at the "
                    f"non-list type {field_def.type}, which already admits at "
                    f"most one edge"
                ),
                location=location,
                span=Span.of(field_def),
                rule="redundant-directive",
            )
        if field_def.has_directive(NO_LOOPS):
            self_targets = _below(schema, type_name) & _below(
                schema, field_def.type.base
            )
            if not self_targets:
                yield Diagnostic(
                    code="PG008",
                    severity=Severity.INFO,
                    message=(
                        f"@noLoops has no effect: no node can be both a source "
                        f"({type_name}) and a target ({field_def.type.base}) of "
                        f"'{field_name}' edges"
                    ),
                    location=location,
                    span=Span.of(field_def),
                    rule="redundant-directive",
                )


@rule(
    "PG009",
    "interface-argument-mismatch",
    "implementing types must repeat interface-field arguments at identical "
    "types and add extras only at nullable types (Definition 4.3(2)/(3))",
)
def check_interface_argument_mismatch(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    for interface_name in sorted(schema.interface_types):
        interface_type = schema.interface_types[interface_name]
        for object_name in sorted(schema.implementation(interface_name)):
            object_type = schema.object_types[object_name]
            for interface_field in interface_type.fields:
                object_field = object_type.field(interface_field.name)
                if object_field is None:
                    continue  # PG010 reports the missing field
                location = f"{object_name}.{interface_field.name}"
                for interface_arg in interface_field.arguments:
                    object_arg = object_field.argument(interface_arg.name)
                    if object_arg is None:
                        yield Diagnostic(
                            code="PG009",
                            severity=Severity.ERROR,
                            message=(
                                f"missing argument '{interface_arg.name}' required "
                                f"by interface {interface_name} (Definition 4.3(2))"
                            ),
                            location=location,
                            span=Span.of(object_field),
                            rule="interface-argument-mismatch",
                        )
                    elif object_arg.type != interface_arg.type:
                        yield Diagnostic(
                            code="PG009",
                            severity=Severity.ERROR,
                            message=(
                                f"argument '{interface_arg.name}' has type "
                                f"{object_arg.type}, but interface "
                                f"{interface_name} declares it at exactly "
                                f"{interface_arg.type} (Definition 4.3(2))"
                            ),
                            location=location,
                            span=Span.of(object_arg),
                            rule="interface-argument-mismatch",
                        )
                declared = {arg.name for arg in interface_field.arguments}
                for object_arg in object_field.arguments:
                    if object_arg.name not in declared and object_arg.type.non_null:
                        yield Diagnostic(
                            code="PG009",
                            severity=Severity.ERROR,
                            message=(
                                f"extra argument '{object_arg.name}' beyond "
                                f"interface {interface_name} must have a nullable "
                                f"type, not {object_arg.type} (Definition 4.3(3))"
                            ),
                            location=location,
                            span=Span.of(object_arg),
                            rule="interface-argument-mismatch",
                        )


@rule(
    "PG010",
    "interface-field-shadowing",
    "implementing types must contain every interface field at a "
    "subtype-compatible type (Definition 4.3(1))",
)
def check_interface_field_shadowing(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    for interface_name in sorted(schema.interface_types):
        interface_type = schema.interface_types[interface_name]
        for object_name in sorted(schema.implementation(interface_name)):
            object_type = schema.object_types[object_name]
            for interface_field in interface_type.fields:
                object_field = object_type.field(interface_field.name)
                if object_field is None:
                    yield Diagnostic(
                        code="PG010",
                        severity=Severity.ERROR,
                        message=(
                            f"missing field '{interface_field.name}' required by "
                            f"interface {interface_name} (Definition 4.3(1))"
                        ),
                        location=object_name,
                        span=Span.of(object_type),
                        rule="interface-field-shadowing",
                    )
                elif not is_subtype(schema, object_field.type, interface_field.type):
                    yield Diagnostic(
                        code="PG010",
                        severity=Severity.ERROR,
                        message=(
                            f"field '{interface_field.name}' has type "
                            f"{object_field.type}, which is not a subtype of the "
                            f"interface {interface_name} declaration "
                            f"{interface_field.type} (Definition 4.3(1))"
                        ),
                        location=f"{object_name}.{interface_field.name}",
                        span=Span.of(object_field),
                        rule="interface-field-shadowing",
                    )


# --------------------------------------------------------------------------- #
# the dataflow-analysis rules (PG011-PG018)
# --------------------------------------------------------------------------- #
#
# Thin surfaces over :mod:`repro.analysis`: the fixpoint passes run once per
# schema (memoized there) and each rule below republishes one diagnostic
# code.  The satisfiability engine reads the same analysis directly
# (:func:`repro.analysis.sat_preverdicts`): a type it decides reports
# ``decided_by="analysis"`` and, when UNSAT, carries the PG011 finding.
# Here PG011/PG012 suppress findings the polynomial rules above already
# report (PG001/PG003/PG004), so a schema gains new lint findings only where
# the fixpoints see strictly further.


def _analysis_findings(schema: "GraphQLSchema", code: str) -> Iterator[Diagnostic]:
    from ..analysis import analyze_schema  # deferred: keep lint importable alone

    for diagnostic in analyze_schema(schema).diagnostics:
        if diagnostic.code == code:
            yield diagnostic


@rule(
    "PG011",
    "interval-unsat",
    "cardinality interval analysis proves an object type unsatisfiable "
    "beyond what PG001/PG003 detect (fixpoint over required-edge intervals)",
)
def check_interval_unsat(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    already = _unpopulatable_types(schema)
    for diagnostic in _analysis_findings(schema, "PG011"):
        if diagnostic.unsat_type in already:
            continue  # PG001/PG003 already prove and report this type
        yield diagnostic


@rule(
    "PG012",
    "interval-dead-edge",
    "interval analysis proves an edge definition unpopulatable beyond what "
    "PG004 detects (the SS4 / ∀-meet / forced-cap-overflow generalizations)",
)
def check_interval_dead_edge(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    already = {
        diagnostic.location for diagnostic in check_unpopulatable_edge(schema)
    }
    lint_dead = _unpopulatable_types(schema)
    for diagnostic in _analysis_findings(schema, "PG012"):
        if diagnostic.location in already:
            continue  # PG004 already reports this edge definition
        declarer = diagnostic.location.split(".", 1)[0]
        if declarer in lint_dead:
            continue  # PG001/PG003 already report the declaring type
        yield diagnostic


# PG013-PG018 republish one analysis code each, unfiltered.
for _code, _name, _description in (
    ("PG013", "implied-directive", "a directive whose translated axiom is entailed by "
     "another declaration of the same field across interface inheritance"),
    ("PG014", "contradictory-inheritance", "an own relationship declaration whose target "
     "family is disjoint from the applicable interface declarations' families"),
    ("PG015", "key-domain-collision", "a @key built entirely from finite value domains "
     "(Boolean/enum) bounds the keyed family's instance count"),
    ("PG016", "vacuous-key", "a @key made redundant by another key over a subset of its "
     "fields (or a reordered duplicate)"),
    ("PG017", "dead-abstract-type", "an interface or union whose entire object-type family "
     "is provably unpopulatable denotes the empty type"),
    ("PG018", "isolated-type", "an object type disconnected from the relationship "
     "structure: no edges in or out, no interface or union membership"),
):
    rule(_code, _name, _description)(partial(_analysis_findings, code=_code))
