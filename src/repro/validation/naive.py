"""The naive validation engine: a direct transcription of Section 5.

Every rule is implemented with exactly the quantifier structure of its
definition -- pairwise rules loop over pairs of edges or nodes, the
per-element rules loop over nodes/edges and re-derive everything from
scratch.  This is the "straightforward implementation of the first-order
logical formulas" whose cost Theorem 1's discussion bounds at O(n²) data
complexity, and it serves as the baseline in experiment E1.

For production use prefer the default engine of
:func:`repro.validation.validate`, the fused plan kernel of
:class:`repro.validation.parallel.ParallelValidator`, which finds exactly
the same violations (the differential tests enforce this) in near-linear
time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .. import obs
from ..errors import BudgetExhaustedError, check_on_budget
from ..pg.values import values_equal
from ..schema.subtype import is_named_subtype
from . import sites
from .violations import (
    ValidationReport,
    Violation,
    canonical_pair,
    record_rule_checks,
    rules_for_mode,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..pg.model import PropertyGraph
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema


class NaiveValidator:
    """Quantifier-faithful validator (the Theorem-1 baseline algorithm)."""

    def __init__(
        self,
        schema: "GraphQLSchema",
        budget: "Budget | None" = None,
        on_budget: str = "unknown",
    ) -> None:
        check_on_budget(on_budget)
        self.schema = schema
        self.budget = budget
        self.on_budget = on_budget

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def validate(
        self,
        graph: "PropertyGraph",
        mode: str = "strong",
        budget: "Budget | None" = None,
    ) -> ValidationReport:
        """Check *graph* for weak / directives / strong satisfaction.

        The quadratic passes make this the engine most in need of a
        ``budget``: the deadline is read between rule passes and exhaustion
        yields a partial report unless ``on_budget="error"``.
        """
        rules = rules_for_mode(mode)
        if budget is None and self.budget is not None:
            budget = self.budget.renew()
        report = ValidationReport(mode=mode, rules_checked=rules)
        checkers = {
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
        span = obs.span(
            "validation.run", engine="naive", mode=mode, elements=len(graph)
        )
        with span:
            try:
                if budget is not None:
                    budget.charge_nodes(len(graph), site="validation.naive")
                for rule in rules:
                    if budget is not None:
                        budget.check_deadline(site="validation.naive")
                    report.extend(checkers[rule](graph))
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

    # ------------------------------------------------------------------ #
    # weak satisfaction (Definition 5.1)
    # ------------------------------------------------------------------ #

    def _ws1(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        for element, name, value in graph.property_items():
            if not graph.is_node(element):
                continue
            ref = schema.type_f(graph.label(element), name)
            if ref is None or not schema.is_scalar_type(ref.base):
                continue
            if not schema.scalars.in_values_w(value, ref):
                yield Violation(
                    "WS1",
                    f"{graph.label(element)}.{name}",
                    (element,),
                    f"value {value!r} is not in values_W({ref})",
                )

    def _ws2(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        for element, name, value in graph.property_items():
            if not graph.is_edge(element):
                continue
            source, _target = graph.endpoints(element)
            type_name, field_name = graph.label(source), graph.label(element)
            ref = schema.type_af(type_name, field_name, name)
            if ref is None:
                continue
            if not schema.scalars.in_values_w(value, ref):
                yield Violation(
                    "WS2",
                    f"{type_name}.{field_name}({name})",
                    (element,),
                    f"value {value!r} is not in values_W({ref})",
                )

    def _ws3(self, graph: "PropertyGraph") -> Iterator[Violation]:
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

    def _ws4(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        edges = list(graph.edges)
        for e1 in edges:
            for e2 in edges:
                if e1 is e2 or str(e1) > str(e2):
                    continue
                s1, _ = graph.endpoints(e1)
                s2, _ = graph.endpoints(e2)
                if s1 != s2 or graph.label(e1) != graph.label(e2):
                    continue
                ref = schema.type_f(graph.label(s1), graph.label(e1))
                if ref is None or ref.is_list:
                    continue
                yield Violation(
                    "WS4",
                    f"{graph.label(s1)}.{graph.label(e1)}",
                    canonical_pair(e1, e2),
                    f"two parallel edges for non-list field type {ref}",
                )

    # ------------------------------------------------------------------ #
    # directives satisfaction (Definition 5.2)
    # ------------------------------------------------------------------ #

    def _ds1(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        edges = list(graph.edges)
        for site in sites.distinct_sites(schema):
            for e1 in edges:
                for e2 in edges:
                    if e1 is e2 or str(e1) > str(e2):
                        continue
                    if graph.label(e1) != site.field_name:
                        continue
                    if graph.label(e2) != site.field_name:
                        continue
                    if graph.endpoints(e1) != graph.endpoints(e2):
                        continue
                    source = graph.endpoints(e1)[0]
                    if not is_named_subtype(schema, graph.label(source), site.type_name):
                        continue
                    yield Violation(
                        "DS1",
                        site.location,
                        canonical_pair(e1, e2),
                        "two @distinct edges share both endpoints",
                    )

    def _ds2(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        for site in sites.no_loops_sites(schema):
            for edge in graph.edges:
                if graph.label(edge) != site.field_name:
                    continue
                source, target = graph.endpoints(edge)
                if source != target:
                    continue
                if not is_named_subtype(schema, graph.label(source), site.type_name):
                    continue
                yield Violation(
                    "DS2", site.location, (edge,), "@noLoops edge is a self-loop"
                )

    def _ds3(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        edges = list(graph.edges)
        for site in sites.unique_for_target_sites(schema):
            for e1 in edges:
                for e2 in edges:
                    if e1 is e2 or str(e1) > str(e2):
                        continue
                    if graph.label(e1) != site.field_name:
                        continue
                    if graph.label(e2) != site.field_name:
                        continue
                    if graph.endpoints(e1)[1] != graph.endpoints(e2)[1]:
                        continue
                    if not is_named_subtype(
                        schema, graph.label(graph.endpoints(e1)[0]), site.type_name
                    ):
                        continue
                    if not is_named_subtype(
                        schema, graph.label(graph.endpoints(e2)[0]), site.type_name
                    ):
                        continue
                    yield Violation(
                        "DS3",
                        site.location,
                        canonical_pair(e1, e2),
                        "target has two incoming @uniqueForTarget edges",
                    )

    def _ds4(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        for site in sites.required_for_target_sites(schema):
            target_base = site.field.type.base
            for node in graph.nodes:
                if not is_named_subtype(schema, graph.label(node), target_base):
                    continue
                has_incoming = any(
                    graph.label(edge) == site.field_name
                    and is_named_subtype(
                        schema, graph.label(graph.endpoints(edge)[0]), site.type_name
                    )
                    for edge in graph.edges
                    if graph.endpoints(edge)[1] == node
                )
                if not has_incoming:
                    yield Violation(
                        "DS4",
                        site.location,
                        (node,),
                        f"node of type {graph.label(node)} lacks a required "
                        f"incoming {site.field_name} edge",
                    )

    def _ds5(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        for site in sites.required_attribute_sites(schema):
            for node in graph.nodes:
                if not is_named_subtype(schema, graph.label(node), site.type_name):
                    continue
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

    def _ds6(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        for site in sites.required_edge_sites(schema):
            for node in graph.nodes:
                if not is_named_subtype(schema, graph.label(node), site.type_name):
                    continue
                has_outgoing = any(
                    graph.label(edge) == site.field_name
                    for edge in graph.edges
                    if graph.endpoints(edge)[0] == node
                )
                if not has_outgoing:
                    yield Violation(
                        "DS6",
                        site.location,
                        (node,),
                        f"required outgoing {site.field_name} edge is absent",
                    )

    def _ds7(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        nodes = list(graph.nodes)
        for site in sites.key_sites(schema):
            scalar_fields = [
                field_name
                for field_name in site.fields
                if (ref := schema.type_f(site.type_name, field_name)) is not None
                and schema.is_scalar_type(ref.base)
            ]
            for v1 in nodes:
                for v2 in nodes:
                    if v1 is v2 or str(v1) > str(v2):
                        continue
                    if not is_named_subtype(schema, graph.label(v1), site.type_name):
                        continue
                    if not is_named_subtype(schema, graph.label(v2), site.type_name):
                        continue
                    if all(
                        self._key_fields_agree(graph, v1, v2, field_name)
                        for field_name in scalar_fields
                    ):
                        yield Violation(
                            "DS7",
                            site.location,
                            canonical_pair(v1, v2),
                            "two distinct nodes agree on all key fields",
                        )

    @staticmethod
    def _key_fields_agree(
        graph: "PropertyGraph", v1: object, v2: object, field_name: str
    ) -> bool:
        """DS7's per-field condition: both absent, or both present and equal."""
        has1, has2 = graph.has_property(v1, field_name), graph.has_property(v2, field_name)
        if not has1 and not has2:
            return True
        if has1 and has2:
            return values_equal(
                graph.property_value(v1, field_name),  # type: ignore[arg-type]
                graph.property_value(v2, field_name),  # type: ignore[arg-type]
            )
        return False

    # ------------------------------------------------------------------ #
    # strong satisfaction (Definition 5.3)
    # ------------------------------------------------------------------ #

    def _ss1(self, graph: "PropertyGraph") -> Iterator[Violation]:
        for node in graph.nodes:
            if graph.label(node) not in self.schema.object_types:
                yield Violation(
                    "SS1",
                    "",
                    (node,),
                    f"label {graph.label(node)} is not an object type",
                )

    def _ss2(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        for element, name, _value in graph.property_items():
            if not graph.is_node(element):
                continue
            ref = schema.type_f(graph.label(element), name)
            if ref is None:
                yield Violation(
                    "SS2",
                    f"{graph.label(element)}.{name}",
                    (element,),
                    f"property {name} is not a field of {graph.label(element)}",
                )
            elif not schema.is_scalar_type(ref.base):
                yield Violation(
                    "SS2",
                    f"{graph.label(element)}.{name}",
                    (element,),
                    f"property {name} corresponds to a relationship field",
                )

    def _ss3(self, graph: "PropertyGraph") -> Iterator[Violation]:
        schema = self.schema
        for element, name, _value in graph.property_items():
            if not graph.is_edge(element):
                continue
            source, _target = graph.endpoints(element)
            type_name, field_name = graph.label(source), graph.label(element)
            if name not in schema.args(type_name, field_name):
                yield Violation(
                    "SS3",
                    f"{type_name}.{field_name}({name})",
                    (element,),
                    f"edge property {name} is not a declared argument",
                )

    def _ss4(self, graph: "PropertyGraph") -> Iterator[Violation]:
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

    def _ep1(self, graph: "PropertyGraph") -> Iterator[Violation]:
        """§3.5 in prose: a non-null, default-less field argument makes the
        corresponding edge property mandatory."""
        schema = self.schema
        for edge in graph.edges:
            source, _target = graph.endpoints(edge)
            type_name, field_name = graph.label(source), graph.label(edge)
            field_def = schema.field(type_name, field_name)
            if field_def is None:
                continue
            for argument in field_def.arguments:
                if not argument.type.non_null or argument.has_default:
                    continue
                if not graph.has_property(edge, argument.name):
                    yield Violation(
                        "EP1",
                        f"{type_name}.{field_name}({argument.name})",
                        (edge,),
                        f"mandatory edge property {argument.name} is absent",
                    )
