"""The lint rule catalogue: polynomial-time static diagnostics.

Each rule is a function over a built :class:`~repro.schema.model.GraphQLSchema`
that yields :class:`~repro.lint.diagnostics.Diagnostic` objects.  Rules are
registered with a stable code (``PG001``...) and a slug name.  The *error*
findings of PG001, PG003 and PG011 constitute a proof that an object type is
unsatisfiable (they carry ``unsat_type``).  All three render one fixpoint:
the dead side of the cardinality interval analysis
(:mod:`repro.analysis.cardinality`), which is also the static rung of the
sat decision ladder (see :mod:`repro.satisfiability.engine`).  Each dead
type is reported once, under the code its
:class:`~repro.analysis.DeadProof` maps to:

* **PG001** (conflicting cardinality, Example 6.1's class).
  ``@requiredForTarget`` on disjoint declaring object types forces distinct
  incoming ``f``-sources, while ``@uniqueForTarget`` on a common supertype
  caps them at one.  The unconditional form (diagram (a): the target type
  itself is unsatisfiable) is reported at the type with the cap's span; the
  conditional form (diagram (c): a type whose own ``@required`` edge would
  overflow the cap at every live admissible target) at the field.
* **PG003** (dead required targets).  A ``@required`` edge whose admissible
  target object types are all dead (reported at the field), or an incoming
  ``@requiredForTarget`` obligation no live object type can serve
  (reported at the target type with the obligation's span).
* **PG011** (interval-unsat) reports the one remaining proof: a
  ``@required`` field the type inherits but does not declare, so SS4
  forbids the edge outright.
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
    from ..analysis import DeadProof
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


#: the dead-proof rules that lint reports itself, and their codes; the
#: remaining rule (missing-field) stays with PG011
_PROOF_CODES = {
    "incoming-overflow": "PG001",
    "forced-cap-overflow": "PG001",
    "dead-targets": "PG003",
    "unservable-obligation": "PG003",
}


def _dead_proofs(schema: "GraphQLSchema") -> dict[str, "DeadProof"]:
    """Dead object type -> its proof, from the memoized analysis."""
    from ..analysis import analyze_schema  # deferred: keep lint importable alone

    dead: dict[str, DeadProof] = analyze_schema(schema).fact("cardinality").dead
    return dead


def _proof_findings(schema: "GraphQLSchema", code: str) -> Iterator[Diagnostic]:
    """The findings of *code* (PG001 or PG003), one per dead type."""
    dead = _dead_proofs(schema)
    for type_name, proof in dead.items():
        if _PROOF_CODES.get(proof.rule) == code:
            yield _render_proof(schema, type_name, proof, dead)


def _render_proof(
    schema: "GraphQLSchema",
    type_name: str,
    proof: "DeadProof",
    dead: dict[str, "DeadProof"],
) -> Diagnostic:
    """One PG001/PG003 finding, located and worded by the proof's rule."""
    edge = proof.edge
    field_name = edge.field_name
    location = f"{type_name}.{field_name}"
    doom = f"no {type_name} node can exist"
    if proof.rule == "incoming-overflow":
        location = type_name
        message = (
            f"conflicting cardinality bounds: @requiredForTarget on "
            f"{' and '.join(f'{t}.{field_name}' for t in proof.names)} "
            f"forces {len(proof.names)} distinct incoming '{field_name}' "
            f"edges at every {type_name} node, but @uniqueForTarget on "
            f"{edge.location} admits at most one; {doom}"
        )
    elif proof.rule == "forced-cap-overflow":
        cap_declarer, other = proof.names
        message = (
            f"conflicting cardinality bounds: the @required edge "
            f"'{field_name}' must reach a target that already needs an "
            f"incoming '{field_name}' edge from {other} (@requiredForTarget), "
            f"while @uniqueForTarget on {cap_declarer}.{field_name} admits "
            f"only one incoming source -- the {type_name} node would have to "
            f"merge with a disjoint {other} node; {doom}"
        )
    elif proof.rule == "dead-targets":
        if proof.names:
            detail = (
                "every admissible target type ("
                + ", ".join(proof.names)
                + ") is itself unpopulatable"
            )
        elif edge.targets:
            detail = f"the declarations of '{field_name}' admit no common target type"
        else:
            own = schema.object_types[type_name].field(field_name)
            assert own is not None  # the proof rests on the type's own field
            detail = f"the target family of type {own.type} is empty"
        message = f"required edge '{field_name}' can never be populated: {detail}; {doom}"
    else:  # unservable-obligation
        location = type_name
        declarer = edge.declarer
        cause = (
            f"no {declarer} node can exist"
            if all(source in dead for source in _below(schema, declarer))
            else f"no {declarer} node can emit one to a {type_name} node"
        )
        message = (
            f"@requiredForTarget on {edge.location} demands an incoming edge "
            f"from {declarer}, but {cause}; {doom}"
        )
    code = _PROOF_CODES[proof.rule]
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        location=location,
        span=Span(edge.line, edge.column),
        rule=RULES[code].name,
        unsat_type=type_name,
    )


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
    yield from _proof_findings(schema, "PG001")


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
    "@requiredForTarget obligation no live type can serve), propagated to a "
    "fixpoint; the affected type is unsatisfiable",
)
def check_dead_required_target(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    yield from _proof_findings(schema, "PG003")


@rule(
    "PG004",
    "unpopulatable-edge",
    "a non-required edge definition that no graph can ever populate",
)
def check_unpopulatable_edge(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    dead = _dead_proofs(schema)
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
# PG001/PG003 above render the cardinality pass's dead proofs, and PG011
# reports only the proofs they do not render; PG012 skips the edge
# definitions PG004 already reports, so each finding appears once.


def _analysis_findings(schema: "GraphQLSchema", code: str) -> Iterator[Diagnostic]:
    from ..analysis import analyze_schema  # deferred: keep lint importable alone

    for diagnostic in analyze_schema(schema).diagnostics:
        if diagnostic.code == code:
            yield diagnostic


@rule(
    "PG011",
    "interval-unsat",
    "cardinality interval analysis proves an object type unsatisfiable by a "
    "proof PG001/PG003 do not render: a @required field the type inherits "
    "but does not declare",
)
def check_interval_unsat(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    dead = _dead_proofs(schema)
    for diagnostic in _analysis_findings(schema, "PG011"):
        if dead[str(diagnostic.unsat_type)].rule not in _PROOF_CODES:
            yield diagnostic


@rule(
    "PG012",
    "interval-dead-edge",
    "interval analysis proves an edge definition of a live declarer "
    "unpopulatable beyond what PG004 detects (the SS4 / ∀-meet / "
    "forced-cap-overflow generalizations)",
)
def check_interval_dead_edge(schema: "GraphQLSchema") -> Iterator[Diagnostic]:
    already = {
        diagnostic.location for diagnostic in check_unpopulatable_edge(schema)
    }
    for diagnostic in _analysis_findings(schema, "PG012"):
        if diagnostic.location not in already:
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
