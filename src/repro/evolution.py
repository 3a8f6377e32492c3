"""Schema evolution: diff two schemas and classify compatibility.

When a schema evolves from S_old to S_new, the operational question is
whether existing data survives: does every Property Graph that strongly
satisfies S_old still strongly satisfy S_new?  This module computes a
structural diff and classifies each change:

* **compatible** -- cannot invalidate any conforming instance (adding an
  optional field, widening a non-list field to a list, removing a
  constraint directive, adding a whole new type, …);
* **breaking** -- rejects some conforming instances (removing a type or
  field, adding ``@required``/``@key``/target-side directives, narrowing a
  field type, removing an enum value, …).

The classification is *sound for breakage in the checked direction*: every
change flagged compatible really preserves strong satisfaction, which the
property-based tests exercise by replaying conforming instances against
evolved schemas.  (Some breaking flags may be pessimistic -- e.g. adding
``@noLoops`` breaks only instances that actually contain loops.)
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from .record import Record
from .schema.directives import (
    DISTINCT,
    NO_LOOPS,
    REQUIRED,
    REQUIRED_FOR_TARGET,
    UNIQUE_FOR_TARGET,
)

if TYPE_CHECKING:  # pragma: no cover
    from .schema.model import FieldDefinition, GraphQLSchema

#: Directives whose *addition* constrains instances further.
_CONSTRAINING = (
    REQUIRED,
    DISTINCT,
    NO_LOOPS,
    UNIQUE_FOR_TARGET,
    REQUIRED_FOR_TARGET,
)


class Impact(enum.Enum):
    COMPATIBLE = "compatible"
    BREAKING = "breaking"


class Change(Record):
    """One classified schema change."""

    impact: Impact
    location: str
    description: str

    def __str__(self) -> str:
        return f"[{self.impact.value}] {self.location}: {self.description}"

    def to_json(self) -> dict[str, str]:
        return {
            "impact": self.impact.value,
            "location": self.location,
            "description": self.description,
        }


class SchemaDiff(Record, frozen=False):
    """The classified difference between two schemas."""

    changes: list[Change] = []

    @property
    def breaking(self) -> list[Change]:
        return [change for change in self.changes if change.impact is Impact.BREAKING]

    @property
    def compatible(self) -> list[Change]:
        return [change for change in self.changes if change.impact is Impact.COMPATIBLE]

    @property
    def is_backward_compatible(self) -> bool:
        """True when every conforming old instance conforms to the new schema."""
        return not self.breaking

    def summary(self) -> str:
        if not self.changes:
            return "schemas are identical"
        return (
            f"{len(self.changes)} change(s): "
            f"{len(self.breaking)} breaking, {len(self.compatible)} compatible"
        )

    def to_json(self) -> dict[str, object]:
        return {
            "summary": self.summary(),
            "backward_compatible": self.is_backward_compatible,
            "changes": [change.to_json() for change in self.changes],
        }


def diff_schemas(old: "GraphQLSchema", new: "GraphQLSchema") -> SchemaDiff:
    """Diff *old* → *new* and classify every change."""
    diff = SchemaDiff()
    _diff_types(old, new, diff)
    _diff_scalars(old, new, diff)
    return diff


def _add(diff: SchemaDiff, impact: Impact, location: str, description: str) -> None:
    diff.changes.append(Change(impact, location, description))


def _diff_types(old: "GraphQLSchema", new: "GraphQLSchema", diff: SchemaDiff) -> None:
    old_objects, new_objects = set(old.object_types), set(new.object_types)
    for name in sorted(new_objects - old_objects):
        _add(diff, Impact.COMPATIBLE, f"type {name}", "object type added")
    for name in sorted(old_objects - new_objects):
        _add(
            diff,
            Impact.BREAKING,
            f"type {name}",
            "object type removed (existing nodes become unjustified, SS1)",
        )
    for name in sorted(old_objects & new_objects):
        _diff_object_type(old, new, name, diff)

    for union_name in sorted(set(old.union_types) & set(new.union_types)):
        removed = old.union(union_name) - new.union(union_name)
        added = new.union(union_name) - old.union(union_name)
        if removed:
            _add(
                diff,
                Impact.BREAKING,
                f"union {union_name}",
                f"members removed: {', '.join(sorted(removed))} "
                "(edges to them lose WS3 justification)",
            )
        if added:
            _add(
                diff,
                Impact.COMPATIBLE,
                f"union {union_name}",
                f"members added: {', '.join(sorted(added))}",
            )
    for interface_name in sorted(set(old.interface_types) & set(new.interface_types)):
        removed = old.implementation(interface_name) - new.implementation(interface_name)
        if removed & set(new.object_types):
            _add(
                diff,
                Impact.BREAKING,
                f"interface {interface_name}",
                f"implementations removed: {', '.join(sorted(removed))}",
            )


def _diff_object_type(
    old: "GraphQLSchema", new: "GraphQLSchema", type_name: str, diff: SchemaDiff
) -> None:
    old_type = old.object_types[type_name]
    new_type = new.object_types[type_name]
    old_fields = {field_def.name: field_def for field_def in old_type.fields}
    new_fields = {field_def.name: field_def for field_def in new_type.fields}

    for name in sorted(set(new_fields) - set(old_fields)):
        field_def = new_fields[name]
        if field_def.has_directive(REQUIRED):
            _add(
                diff,
                Impact.BREAKING,
                f"{type_name}.{name}",
                "field added with @required (existing elements lack it, DS5/DS6)",
            )
        else:
            _add(diff, Impact.COMPATIBLE, f"{type_name}.{name}", "optional field added")
    for name in sorted(set(old_fields) - set(new_fields)):
        _add(
            diff,
            Impact.BREAKING,
            f"{type_name}.{name}",
            "field removed (existing properties/edges become unjustified, SS2/SS4)",
        )
    for name in sorted(set(old_fields) & set(new_fields)):
        _diff_field(old, new, type_name, old_fields[name], new_fields[name], diff)

    # type-level @key directives
    old_keys = set(old_type.keys)
    new_keys = set(new_type.keys)
    for key in sorted(new_keys - old_keys):
        _add(
            diff,
            Impact.BREAKING,
            f"type {type_name}",
            f"@key(fields: {list(key)}) added (existing duplicates violate DS7)",
        )
    for key in sorted(old_keys - new_keys):
        _add(
            diff,
            Impact.COMPATIBLE,
            f"type {type_name}",
            f"@key(fields: {list(key)}) removed",
        )


def _diff_field(
    old: "GraphQLSchema",
    new: "GraphQLSchema",
    type_name: str,
    old_field: "FieldDefinition",
    new_field: "FieldDefinition",
    diff: SchemaDiff,
) -> None:
    where = f"{type_name}.{old_field.name}"
    if old_field.kind is not new_field.kind:
        _add(
            diff,
            Impact.BREAKING,
            where,
            f"field changed kind: {old_field.kind.value} → {new_field.kind.value}",
        )
        return
    if old_field.type != new_field.type:
        _classify_type_change(old, new, where, old_field, new_field, diff)

    old_directives = {d.name for d in old_field.directives}
    new_directives = {d.name for d in new_field.directives}
    for directive in _CONSTRAINING:
        if directive in new_directives and directive not in old_directives:
            _add(diff, Impact.BREAKING, where, f"@{directive} added")
        if directive in old_directives and directive not in new_directives:
            _add(diff, Impact.COMPATIBLE, where, f"@{directive} removed")

    old_args = {argument.name: argument for argument in old_field.arguments}
    new_args = {argument.name: argument for argument in new_field.arguments}
    for name in sorted(set(old_args) - set(new_args)):
        _add(
            diff,
            Impact.BREAKING,
            f"{where}({name})",
            "edge-property argument removed (existing properties unjustified, SS3)",
        )
    for name in sorted(set(new_args) - set(old_args)):
        _add(diff, Impact.COMPATIBLE, f"{where}({name})", "edge-property argument added")
    for name in sorted(set(old_args) & set(new_args)):
        if old_args[name].type != new_args[name].type:
            old_ref, new_ref = old_args[name].type, new_args[name].type
            widened = (
                old_ref.base == new_ref.base
                and old_ref.is_list == new_ref.is_list
                and not new_ref.non_null
                and (not new_ref.inner_non_null or old_ref.inner_non_null)
            )
            _add(
                diff,
                Impact.COMPATIBLE if widened else Impact.BREAKING,
                f"{where}({name})",
                f"argument type changed: {old_ref} → {new_ref}",
            )


def _classify_type_change(
    old: "GraphQLSchema",
    new: "GraphQLSchema",
    where: str,
    old_field: "FieldDefinition",
    new_field: "FieldDefinition",
    diff: SchemaDiff,
) -> None:
    old_ref, new_ref = old_field.type, new_field.type
    description = f"type changed: {old_ref} → {new_ref}"
    if old_field.is_attribute:
        # value sets must not shrink; dropping non-null or an Int→Float
        # widening keeps every old value legal
        same_shape = old_ref.is_list == new_ref.is_list
        base_widens = old_ref.base == new_ref.base or (
            old_ref.base == "Int" and new_ref.base == "Float"
        )
        nullability_relaxes = (not new_ref.non_null or old_ref.non_null) and (
            not new_ref.inner_non_null or old_ref.inner_non_null
        )
        compatible = same_shape and base_widens and nullability_relaxes
    else:
        # targets must not shrink; every object type below the old base must
        # stay below the new base, and list-ness must not shrink (a non-list
        # declaration adds the WS4 cardinality bound)
        old_targets = old.object_types_below(old_ref.base)
        new_targets = new.object_types_below(new_ref.base)
        compatible = old_targets <= new_targets and (
            new_ref.is_list or not old_ref.is_list
        )
    _add(
        diff,
        Impact.COMPATIBLE if compatible else Impact.BREAKING,
        where,
        description,
    )


def _diff_scalars(old: "GraphQLSchema", new: "GraphQLSchema", diff: SchemaDiff) -> None:
    for name in sorted(old.scalars.custom_names & new.scalars.custom_names):
        if old.scalars.is_enum(name) and new.scalars.is_enum(name):
            removed = old.scalars.enum_values(name) - new.scalars.enum_values(name)
            added = new.scalars.enum_values(name) - old.scalars.enum_values(name)
            if removed:
                _add(
                    diff,
                    Impact.BREAKING,
                    f"enum {name}",
                    f"values removed: {', '.join(sorted(removed))} (WS1)",
                )
            if added:
                _add(
                    diff,
                    Impact.COMPATIBLE,
                    f"enum {name}",
                    f"values added: {', '.join(sorted(added))}",
                )
    for name in sorted(old.scalars.custom_names - new.scalars.custom_names):
        _add(diff, Impact.BREAKING, f"scalar {name}", "scalar/enum type removed")
    for name in sorted(new.scalars.custom_names - old.scalars.custom_names):
        _add(diff, Impact.COMPATIBLE, f"scalar {name}", "scalar/enum type added")
