"""The indexed validation engine: near-linear-time validation.

Finds exactly the same violations as :class:`~repro.validation.naive.NaiveValidator`
(the differential tests enforce agreement) but replaces every nested
quantifier with a hash-grouping pass:

* WS4 groups edges by (source, label);
* DS1 groups by (source, target, label), DS3 by (target, label);
* DS4/DS5/DS6 use per-label node lists and the graph's incidence indexes;
* DS7 groups nodes by their key-value signature.

With a fixed schema the whole pass is O(|V| + |E| + |dom σ|) expected time,
which experiment E1 contrasts against the naive engine's quadratic growth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .. import obs
from ..errors import BudgetExhaustedError, check_on_budget
from ..pg.values import value_signature
from ..schema.subtype import is_named_subtype
from .plan import ValidationPlan, compile_plan
from .violations import (
    ValidationReport,
    Violation,
    _ordered_pairs,
    record_rule_checks,
    rules_for_mode,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..pg.model import ElementId, PropertyGraph
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema

_MISSING = ("<missing>",)


class IndexedValidator:
    """Hash-indexed validator; the sequential production engine."""

    def __init__(
        self,
        schema: "GraphQLSchema",
        plan: ValidationPlan | None = None,
        budget: "Budget | None" = None,
        on_budget: str = "unknown",
    ) -> None:
        check_on_budget(on_budget)
        self.schema = schema
        # all schema analysis (site tables, label closures) lives in the
        # compiled plan, shared across validators via the plan cache
        self.plan = plan if plan is not None else compile_plan(schema)
        self.budget = budget
        self.on_budget = on_budget
        self._distinct = self.plan.distinct_sites
        self._no_loops = self.plan.no_loops_sites
        self._unique_ft = self.plan.unique_ft_sites
        self._required_ft = self.plan.required_ft_sites
        self._required_attr = self.plan.required_attr_sites
        self._required_edge = self.plan.required_edge_sites
        self._keys = self.plan.key_sites

    def validate(
        self,
        graph: "PropertyGraph",
        mode: str = "strong",
        budget: "Budget | None" = None,
    ) -> ValidationReport:
        """Check *graph* for weak / directives / strong satisfaction.

        Under a ``budget``, element counts are charged up front and the
        deadline is read between rule passes; exhaustion yields a *partial*
        report (violations found so far, ``complete=False``) unless the
        validator was built with ``on_budget="error"``.
        """
        rules = rules_for_mode(mode)
        if budget is None and self.budget is not None:
            budget = self.budget.renew()
        report = ValidationReport(mode=mode, rules_checked=rules)
        span = obs.span(
            "validation.run", engine="indexed", mode=mode, elements=len(graph)
        )
        with span:
            try:
                if budget is not None:
                    budget.charge_nodes(len(graph), site="validation.indexed")
                index = _GraphIndex(graph)
                checkers = self._checkers()
                for rule in rules:
                    if budget is not None:
                        budget.check_deadline(site="validation.indexed")
                    report.extend(checkers[rule](graph, index))
            except BudgetExhaustedError as stop:
                if self.on_budget == "error":
                    raise
                report.complete = False
                report.interruption = stop.reason
            span.set(violations=len(report.violations), complete=report.complete)
        observation = obs.active()
        if observation is not None and observation.registry is not None:
            observation.registry.count("validation.runs")
            record_rule_checks(
                observation.registry, rules, graph.num_nodes, graph.num_edges
            )
        return report

    def profile_rules(
        self, graph: "PropertyGraph", mode: str = "strong"
    ) -> tuple[ValidationReport, dict[str, float]]:
        """Like :meth:`validate`, but also time each rule's pass.

        Returns ``(report, {rule id: wall seconds})``; the timing dict feeds
        ``pgschema validate --profile`` and the E12 experiment table.
        """
        rules = rules_for_mode(mode)
        report = ValidationReport(mode=mode, rules_checked=rules)
        index = _GraphIndex(graph)
        checkers = self._checkers()
        # per-rule timings live in a private registry so the profile is one
        # more view over the metrics vocabulary; the legacy return shape
        # ({rule id: seconds}) is derived from the histogram sums
        registry = obs.MetricsRegistry()
        for rule in rules:
            with registry.timer(f"validation.rule.{rule}"):
                report.extend(checkers[rule](graph, index))
        histograms = registry.snapshot()["histograms"]
        timings = {
            rule: histograms[f"validation.rule.{rule}"]["sum"] for rule in rules
        }
        observation = obs.active()
        if observation is not None and observation.registry is not None:
            observation.registry.merge_snapshot(registry.drain())
        return report, timings

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _checkers(self):
        return {
            "WS1": self._ws1,
            "WS2": self._ws2,
            "WS3": self._ws3,
            "WS4": self._ws4,
            "DS1": self._ds1,
            "DS2": self._ds2,
            "DS3": self._ds3,
            "DS4": self._ds4,
            "DS5": self._ds5,
            "DS6": self._ds6,
            "DS7": self._ds7,
            "SS1": self._ss1,
            "SS2": self._ss2,
            "SS3": self._ss3,
            "SS4": self._ss4,
            "EP1": self._ep1,
        }

    def _below(self, type_name: str) -> frozenset[str]:
        return self.plan.labels_below(type_name)

    # ------------------------------------------------------------------ #
    # weak satisfaction
    # ------------------------------------------------------------------ #

    def _ws1(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        schema = self.schema
        for node, name, value in index.node_properties:
            ref = schema.type_f(graph.label(node), name)
            if ref is None or not schema.is_scalar_type(ref.base):
                continue
            if not schema.scalars.in_values_w(value, ref):
                yield Violation(
                    "WS1",
                    f"{graph.label(node)}.{name}",
                    (node,),
                    f"value {value!r} is not in values_W({ref})",
                )

    def _ws2(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        schema = self.schema
        for edge, name, value in index.edge_properties:
            source, _target = graph.endpoints(edge)
            type_name, field_name = graph.label(source), graph.label(edge)
            ref = schema.type_af(type_name, field_name, name)
            if ref is None:
                continue
            if not schema.scalars.in_values_w(value, ref):
                yield Violation(
                    "WS2",
                    f"{type_name}.{field_name}({name})",
                    (edge,),
                    f"value {value!r} is not in values_W({ref})",
                )

    def _ws3(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        schema = self.schema
        for edge in graph.edges:
            source, target = graph.endpoints(edge)
            ref = schema.type_f(graph.label(source), graph.label(edge))
            if ref is None:
                continue
            if not is_named_subtype(schema, graph.label(target), ref.base):
                yield Violation(
                    "WS3",
                    f"{graph.label(source)}.{graph.label(edge)}",
                    (edge,),
                    f"target label {graph.label(target)} is not a subtype of {ref.base}",
                )

    def _ws4(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        schema = self.schema
        for (source, label), edges in index.by_source_label.items():
            if len(edges) < 2:
                continue
            ref = schema.type_f(graph.label(source), label)
            if ref is None or ref.is_list:
                continue
            for e1, e2 in _ordered_pairs(edges):
                yield Violation(
                    "WS4",
                    f"{graph.label(source)}.{label}",
                    (e1, e2),
                    f"two parallel edges for non-list field type {ref}",
                )

    # ------------------------------------------------------------------ #
    # directives satisfaction
    # ------------------------------------------------------------------ #

    def _ds1(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        for site in self._distinct:
            below = self._below(site.type_name)
            for (source, target, label), edges in index.by_endpoints_label.items():
                if label != site.field_name or len(edges) < 2:
                    continue
                if graph.label(source) not in below:
                    continue
                for e1, e2 in _ordered_pairs(edges):
                    yield Violation(
                        "DS1",
                        site.location,
                        (e1, e2),
                        "two @distinct edges share both endpoints",
                    )

    def _ds2(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        for site in self._no_loops:
            below = self._below(site.type_name)
            for edge in index.loops_by_label.get(site.field_name, ()):
                source = graph.endpoints(edge)[0]
                if graph.label(source) in below:
                    yield Violation(
                        "DS2", site.location, (edge,), "@noLoops edge is a self-loop"
                    )

    def _ds3(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        for site in self._unique_ft:
            below = self._below(site.type_name)
            for (target, label), edges in index.by_target_label.items():
                if label != site.field_name or len(edges) < 2:
                    continue
                qualifying = [
                    edge
                    for edge in edges
                    if graph.label(graph.endpoints(edge)[0]) in below
                ]
                for e1, e2 in _ordered_pairs(qualifying):
                    yield Violation(
                        "DS3",
                        site.location,
                        (e1, e2),
                        "target has two incoming @uniqueForTarget edges",
                    )

    def _ds4(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        for site in self._required_ft:
            source_below = self._below(site.type_name)
            target_below = self._below(site.field.type.base)
            for label in target_below:
                for node in index.nodes_by_label.get(label, ()):
                    has_incoming = any(
                        graph.label(graph.endpoints(edge)[0]) in source_below
                        for edge in graph.in_edges(node, site.field_name)
                    )
                    if not has_incoming:
                        yield Violation(
                            "DS4",
                            site.location,
                            (node,),
                            f"node of type {graph.label(node)} lacks a required "
                            f"incoming {site.field_name} edge",
                        )

    def _ds5(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        for site in self._required_attr:
            for label in self._below(site.type_name):
                for node in index.nodes_by_label.get(label, ()):
                    if not graph.has_property(node, site.field_name):
                        yield Violation(
                            "DS5",
                            site.location,
                            (node,),
                            f"required property {site.field_name} is absent",
                        )
                    elif site.field.type.is_list and graph.property_value(
                        node, site.field_name
                    ) == ():
                        yield Violation(
                            "DS5",
                            site.location,
                            (node,),
                            f"required list property {site.field_name} is empty",
                        )

    def _ds6(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        for site in self._required_edge:
            for label in self._below(site.type_name):
                for node in index.nodes_by_label.get(label, ()):
                    if not graph.out_edges(node, site.field_name):
                        yield Violation(
                            "DS6",
                            site.location,
                            (node,),
                            f"required outgoing {site.field_name} edge is absent",
                        )

    def _ds7(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        for site_index, site in enumerate(self._keys):
            scalar_fields = self.plan.key_scalar_fields[site_index]
            groups: dict[tuple, list["ElementId"]] = {}
            for label in self._below(site.type_name):
                for node in index.nodes_by_label.get(label, ()):
                    signature = tuple(
                        value_signature(graph.property_value(node, field_name))
                        if graph.has_property(node, field_name)
                        else _MISSING
                        for field_name in scalar_fields
                    )
                    groups.setdefault(signature, []).append(node)
            for group in groups.values():
                for v1, v2 in _ordered_pairs(group):
                    yield Violation(
                        "DS7",
                        site.location,
                        (v1, v2),
                        "two distinct nodes agree on all key fields",
                    )

    # ------------------------------------------------------------------ #
    # strong satisfaction
    # ------------------------------------------------------------------ #

    def _ss1(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        object_types = self.schema.object_types
        for label, nodes in index.nodes_by_label.items():
            if label in object_types:
                continue
            for node in nodes:
                yield Violation(
                    "SS1", "", (node,), f"label {label} is not an object type"
                )

    def _ss2(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        schema = self.schema
        for node, name, _value in index.node_properties:
            ref = schema.type_f(graph.label(node), name)
            if ref is None:
                yield Violation(
                    "SS2",
                    f"{graph.label(node)}.{name}",
                    (node,),
                    f"property {name} is not a field of {graph.label(node)}",
                )
            elif not schema.is_scalar_type(ref.base):
                yield Violation(
                    "SS2",
                    f"{graph.label(node)}.{name}",
                    (node,),
                    f"property {name} corresponds to a relationship field",
                )

    def _ss3(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        schema = self.schema
        for edge, name, _value in index.edge_properties:
            source, _target = graph.endpoints(edge)
            type_name, field_name = graph.label(source), graph.label(edge)
            if name not in schema.args(type_name, field_name):
                yield Violation(
                    "SS3",
                    f"{type_name}.{field_name}({name})",
                    (edge,),
                    f"edge property {name} is not a declared argument",
                )

    def _ss4(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        schema = self.schema
        for edge in graph.edges:
            source, _target = graph.endpoints(edge)
            type_name, field_name = graph.label(source), graph.label(edge)
            ref = schema.type_f(type_name, field_name)
            if ref is None:
                yield Violation(
                    "SS4",
                    f"{type_name}.{field_name}",
                    (edge,),
                    f"edge label {field_name} is not a field of {type_name}",
                )
            elif schema.is_scalar_type(ref.base):
                yield Violation(
                    "SS4",
                    f"{type_name}.{field_name}",
                    (edge,),
                    f"edge label {field_name} corresponds to an attribute field",
                )


    # ------------------------------------------------------------------ #
    # extension rules (not part of Definitions 5.1-5.3)
    # ------------------------------------------------------------------ #

    def _ep1(self, graph: "PropertyGraph", index: "_GraphIndex") -> Iterator[Violation]:
        """§3.5 in prose: a non-null, default-less field argument makes the
        corresponding edge property mandatory."""
        schema = self.schema
        for (source, label), edges in index.by_source_label.items():
            field_def = schema.field(graph.label(source), label)
            if field_def is None:
                continue
            mandatory = [
                argument.name
                for argument in field_def.arguments
                if argument.type.non_null and not argument.has_default
            ]
            if not mandatory:
                continue
            for edge in edges:
                for name in mandatory:
                    if not graph.has_property(edge, name):
                        yield Violation(
                            "EP1",
                            f"{graph.label(source)}.{label}({name})",
                            (edge,),
                            f"mandatory edge property {name} is absent",
                        )


class _GraphIndex:
    """One-pass hash indexes over a Property Graph, built per validation."""

    def __init__(self, graph: "PropertyGraph") -> None:
        self.nodes_by_label: dict[str, list["ElementId"]] = {}
        for node in graph.nodes:
            self.nodes_by_label.setdefault(graph.label(node), []).append(node)

        self.by_source_label: dict[tuple, list["ElementId"]] = {}
        self.by_target_label: dict[tuple, list["ElementId"]] = {}
        self.by_endpoints_label: dict[tuple, list["ElementId"]] = {}
        self.loops_by_label: dict[str, list["ElementId"]] = {}
        for edge in graph.edges:
            source, target = graph.endpoints(edge)
            label = graph.label(edge)
            self.by_source_label.setdefault((source, label), []).append(edge)
            self.by_target_label.setdefault((target, label), []).append(edge)
            self.by_endpoints_label.setdefault((source, target, label), []).append(edge)
            if source == target:
                self.loops_by_label.setdefault(label, []).append(edge)

        self.node_properties: list[tuple["ElementId", str, object]] = []
        self.edge_properties: list[tuple["ElementId", str, object]] = []
        for element, name, value in graph.property_items():
            if graph.is_node(element):
                self.node_properties.append((element, name, value))
            else:
                self.edge_properties.append((element, name, value))

