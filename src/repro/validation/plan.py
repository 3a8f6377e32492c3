"""Compiled validation plans: schema analysis done once, reused everywhere.

Validating a graph needs a fixed amount of *schema analysis* -- the seven
constraint-site tables of :mod:`repro.validation.sites`, the label closures
``labels_below`` used by every DS rule, and per-(label, field) lookups that
the hot loops would otherwise re-derive per element.  A
:class:`ValidationPlan` performs this analysis exactly once per schema and
exposes it as flat dictionaries:

* the seven site tables (``distinct_sites`` ... ``key_sites``);
* memoized label closures (:meth:`ValidationPlan.labels_below`) and the
  derived subtype test :meth:`ValidationPlan.is_below`;
* per-node-label dispatch records (:class:`NodeRules`) fusing WS1, SS1, SS2,
  DS4, DS5, DS6 and the DS7 signature fields for one label;
* per-(source label, edge label) dispatch records (:class:`EdgeRules`)
  fusing WS2, WS3, WS4, SS3, SS4, DS1, DS2 and EP1 for one edge shape.

Plans are immutable once built (the record caches are append-only memo
tables) and are shared by :class:`~repro.validation.indexed.IndexedValidator`,
:class:`~repro.validation.incremental.IncrementalValidator` and
:class:`~repro.validation.parallel.ParallelValidator`.

:func:`compile_plan` keeps each schema's plan in that schema's memo
(:meth:`~repro.schema.model.GraphQLSchema.memo_get`), so the ``validate()``
facade stops repaying schema-analysis cost on every call and the plan is
freed with its schema; :func:`plan_cache_info` exposes hit/miss/compile
counters for tests and benchmarks.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from .. import obs
from ..record import Record
from ..schema.model import memo_clear, memo_entries
from . import sites

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.model import GraphQLSchema
    from ..schema.typerefs import TypeRef

ValueChecker = Callable[[object], bool]


class NodeRules(Record):
    """Everything the per-node rules need for one node label."""

    #: label ∈ OT (SS1 fires on every node otherwise).
    known: bool
    #: property name -> (declared TypeRef | None, values_W checker | None).
    #: A missing name means the property is not a field at all (SS2); a None
    #: checker means the field is a relationship (SS2's second clause).
    properties: dict[str, tuple["TypeRef", ValueChecker | None]]
    #: DS5 obligations: (site location, field name, field type is a list).
    required_attrs: tuple[tuple[str, str, bool], ...]
    #: DS6 obligations: (site location, field name).
    required_edges: tuple[tuple[str, str], ...]
    #: DS4 obligations: (site location, field name, allowed source labels).
    incoming_required: tuple[tuple[str, str, frozenset[str]], ...]
    #: DS7 memberships: (key-site index, scalar key fields of the site).
    key_memberships: tuple[tuple[int, tuple[str, ...]], ...]


class EdgeRules(Record):
    """Everything the per-edge rules need for one (source label, edge label)."""

    #: type_F(source label, edge label), or None when undefined.
    ref: "TypeRef | None"
    #: SS4 verdict for this shape: None (fine), "missing" or "attribute".
    ss4: str | None
    #: WS3: allowed target labels (labels_below of the base type); None when
    #: the field is undefined (WS3 does not apply).
    ws3_targets: frozenset[str] | None
    #: SS3: the declared argument names.
    args: frozenset[str]
    #: WS2: argument name -> (declared TypeRef, values_W checker).
    arg_checkers: dict[str, tuple["TypeRef", ValueChecker]]
    #: DS2 site locations that make a loop illegal for this shape.
    no_loops: tuple[str, ...]
    #: WS4 applies (field defined with a non-list type).
    ws4: bool
    #: DS1 site locations with source label below the site type.
    distinct: tuple[str, ...]
    #: EP1: non-null, default-less argument names (mandatory edge properties).
    mandatory_args: tuple[str, ...]


class ValidationPlan:
    """The immutable compiled form of one schema's validation constraints."""

    __slots__ = (
        "schema",
        "distinct_sites",
        "no_loops_sites",
        "unique_ft_sites",
        "required_ft_sites",
        "required_attr_sites",
        "required_edge_sites",
        "key_sites",
        "key_scalar_fields",
        "unique_ft_by_field",
        "_distinct_by_field",
        "_no_loops_by_field",
        "_labels_below",
        "_node_rules",
        "_edge_rules",
        "__weakref__",
    )

    def __init__(self, schema: "GraphQLSchema") -> None:
        self.schema = schema
        # the seven site tables, computed once per plan
        self.distinct_sites = sites.distinct_sites(schema)
        self.no_loops_sites = sites.no_loops_sites(schema)
        self.unique_ft_sites = sites.unique_for_target_sites(schema)
        self.required_ft_sites = sites.required_for_target_sites(schema)
        self.required_attr_sites = sites.required_attribute_sites(schema)
        self.required_edge_sites = sites.required_edge_sites(schema)
        self.key_sites = sites.key_sites(schema)
        # memo tables (append-only; lazily filled per label encountered)
        self._labels_below: dict[str, frozenset[str]] = {}
        self._node_rules: dict[str, NodeRules] = {}
        self._edge_rules: dict[tuple[str, str], EdgeRules] = {}
        # DS7: the scalar-typed key fields per site, in site order
        self.key_scalar_fields: tuple[tuple[str, ...], ...] = tuple(
            tuple(
                field_name
                for field_name in site.fields
                if (ref := schema.type_f(site.type_name, field_name)) is not None
                and schema.is_scalar_type(ref.base)
            )
            for site in self.key_sites
        )
        # DS3: field name -> ((site location, allowed source labels), ...)
        by_field: dict[str, list[tuple[str, frozenset[str]]]] = {}
        for site in self.unique_ft_sites:
            by_field.setdefault(site.field_name, []).append(
                (site.location, self.labels_below(site.type_name))
            )
        self.unique_ft_by_field: dict[str, tuple[tuple[str, frozenset[str]], ...]] = {
            name: tuple(entries) for name, entries in by_field.items()
        }
        self._distinct_by_field: dict[str, list] = {}
        for site in self.distinct_sites:
            self._distinct_by_field.setdefault(site.field_name, []).append(site)
        self._no_loops_by_field: dict[str, list] = {}
        for site in self.no_loops_sites:
            self._no_loops_by_field.setdefault(site.field_name, []).append(site)

    # ------------------------------------------------------------------ #
    # label closures and subtyping
    # ------------------------------------------------------------------ #

    def labels_below(self, type_name: str) -> frozenset[str]:
        """Memoized ``labels_below`` (the labels l with l ⊑_S type_name)."""
        found = self._labels_below.get(type_name)
        if found is None:
            found = sites.labels_below(self.schema, type_name)
            self._labels_below[type_name] = found
        return found

    def is_below(self, label: str, type_name: str) -> bool:
        """``label ⊑_S type_name`` for named types, via the cached closure."""
        return label in self.labels_below(type_name)

    # ------------------------------------------------------------------ #
    # compiled per-label dispatch records
    # ------------------------------------------------------------------ #

    def node_rules(self, label: str) -> NodeRules:
        """The compiled node record for one label (built on first use)."""
        found = self._node_rules.get(label)
        if found is None:
            found = self._build_node_rules(label)
            self._node_rules[label] = found
        return found

    def edge_rules(self, source_label: str, edge_label: str) -> EdgeRules:
        """The compiled edge record for one (source label, edge label)."""
        key = (source_label, edge_label)
        found = self._edge_rules.get(key)
        if found is None:
            found = self._build_edge_rules(source_label, edge_label)
            self._edge_rules[key] = found
        return found

    def _build_node_rules(self, label: str) -> NodeRules:
        schema = self.schema
        properties: dict[str, tuple["TypeRef", ValueChecker | None]] = {}
        if schema.is_composite_type(label):
            for field_def in schema.composite(label).fields:
                checker = (
                    schema.scalars.checker_w(field_def.type)
                    if schema.is_scalar_type(field_def.type.base)
                    else None
                )
                properties[field_def.name] = (field_def.type, checker)
        return NodeRules(
            known=label in schema.object_types,
            properties=properties,
            required_attrs=tuple(
                (site.location, site.field_name, site.field.type.is_list)
                for site in self.required_attr_sites
                if label in self.labels_below(site.type_name)
            ),
            required_edges=tuple(
                (site.location, site.field_name)
                for site in self.required_edge_sites
                if label in self.labels_below(site.type_name)
            ),
            incoming_required=tuple(
                (site.location, site.field_name, self.labels_below(site.type_name))
                for site in self.required_ft_sites
                if label in self.labels_below(site.field.type.base)
            ),
            key_memberships=tuple(
                (index, self.key_scalar_fields[index])
                for index, site in enumerate(self.key_sites)
                if label in self.labels_below(site.type_name)
            ),
        )

    def _build_edge_rules(self, source_label: str, edge_label: str) -> EdgeRules:
        schema = self.schema
        field_def = schema.field(source_label, edge_label)
        if field_def is None:
            ref = None
            ss4: str | None = "missing"
            ws3_targets = None
        else:
            ref = field_def.type
            ss4 = "attribute" if schema.is_scalar_type(ref.base) else None
            ws3_targets = self.labels_below(ref.base)
        arg_checkers: dict[str, tuple["TypeRef", ValueChecker]] = {}
        if field_def is not None:
            for argument in field_def.arguments:
                if schema.is_scalar_type(argument.type.base):
                    arg_checkers[argument.name] = (
                        argument.type,
                        schema.scalars.checker_w(argument.type),
                    )
        return EdgeRules(
            ref=ref,
            ss4=ss4,
            ws3_targets=ws3_targets,
            args=(
                frozenset(argument.name for argument in field_def.arguments)
                if field_def is not None
                else frozenset()
            ),
            arg_checkers=arg_checkers,
            no_loops=tuple(
                site.location
                for site in self._no_loops_by_field.get(edge_label, ())
                if source_label in self.labels_below(site.type_name)
            ),
            ws4=ref is not None and not ref.is_list,
            distinct=tuple(
                site.location
                for site in self._distinct_by_field.get(edge_label, ())
                if source_label in self.labels_below(site.type_name)
            ),
            mandatory_args=(
                tuple(
                    argument.name
                    for argument in field_def.arguments
                    if argument.type.non_null and not argument.has_default
                )
                if field_def is not None
                else ()
            ),
        )


# --------------------------------------------------------------------------- #
# the plan cache: one plan per schema, kept in the schema's memo
# --------------------------------------------------------------------------- #

_stats_lock = threading.Lock()
_stats = {"hits": 0, "misses": 0}


def compile_plan(schema: "GraphQLSchema") -> ValidationPlan:
    """The compiled plan for *schema*, from the schema's memo when possible.

    Schemas are treated as immutable after assembly, so the plan is kept on
    the schema itself and freed with it.
    """
    plan = schema.memo_get(ValidationPlan)
    outcome = "misses" if plan is None else "hits"
    with _stats_lock:
        _stats[outcome] += 1
    obs.count(f"validation.plan_cache.{outcome}")
    if plan is None:
        with obs.span("validation.plan.compile"):
            # threads that both missed both compile; the first plan stored
            # wins and every caller gets it, so the race is only redundant
            plan = schema.memo_put(ValidationPlan(schema))
    return plan


def plan_cache_info() -> dict[str, int]:
    """Cache statistics: ``hits``, ``misses`` (== compilations) and
    ``size``, the live schemas holding a plan (reported by ``pgschema
    validate --profile``, ``pgschema stats --json`` and the service
    ``/v1/stats`` endpoint)."""
    with _stats_lock:
        info = dict(_stats)
    info["size"] = len(memo_entries(ValidationPlan))
    return info


def plan_cache_clear() -> None:
    """Drop every memoized plan and reset the statistics."""
    memo_clear(ValidationPlan)
    with _stats_lock:
        _stats.update(hits=0, misses=0)
