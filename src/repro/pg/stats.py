"""Profiling of Property Graph instances.

:func:`profile_graph` computes the per-label statistics a schema designer
(or the schema-inference module) wants to see before writing a schema:
node/edge label histograms, per-label property coverage (how many nodes
carry each property, how many distinct values, inferred scalar kinds),
degree distributions per (source label, edge label), and endpoint-type
distributions per edge label.  `pgschema stats GRAPH.json` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .values import value_signature

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import MetricsRegistry
    from .model import PropertyGraph


@dataclass
class PropertyProfile:
    """Statistics of one property name under one node/edge label."""

    name: str
    count: int = 0
    distinct: int = 0
    kinds: set[str] = field(default_factory=set)

    def coverage(self, total: int) -> float:
        return self.count / total if total else 0.0


@dataclass
class LabelProfile:
    """Statistics of one node label."""

    label: str
    count: int = 0
    properties: dict[str, PropertyProfile] = field(default_factory=dict)


@dataclass
class EdgeLabelProfile:
    """Statistics of one edge label."""

    label: str
    count: int = 0
    endpoint_pairs: dict[tuple[str, str], int] = field(default_factory=dict)
    properties: dict[str, PropertyProfile] = field(default_factory=dict)
    max_out_degree: int = 0
    max_in_degree: int = 0
    loops: int = 0


@dataclass
class GraphProfile:
    """The complete profile of one Property Graph."""

    num_nodes: int = 0
    num_edges: int = 0
    node_labels: dict[str, LabelProfile] = field(default_factory=dict)
    edge_labels: dict[str, EdgeLabelProfile] = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        """A human-readable report, one line per fact."""
        lines = [f"nodes: {self.num_nodes}, edges: {self.num_edges}"]
        for label, profile in sorted(self.node_labels.items()):
            lines.append(f"node label {label}: {profile.count} node(s)")
            for name, prop in sorted(profile.properties.items()):
                kinds = "/".join(sorted(prop.kinds))
                lines.append(
                    f"  .{name}: on {prop.count}/{profile.count} "
                    f"({prop.coverage(profile.count):.0%}), {prop.distinct} distinct, "
                    f"kind {kinds}"
                )
        for label, profile in sorted(self.edge_labels.items()):
            lines.append(
                f"edge label {label}: {profile.count} edge(s), "
                f"max out-degree {profile.max_out_degree}, "
                f"max in-degree {profile.max_in_degree}, loops {profile.loops}"
            )
            for (source, target), count in sorted(profile.endpoint_pairs.items()):
                lines.append(f"  ({source}) -[{label}]-> ({target}): {count}")
            for name, prop in sorted(profile.properties.items()):
                kinds = "/".join(sorted(prop.kinds))
                lines.append(
                    f"  .{name}: on {prop.count}/{profile.count}, kind {kinds}"
                )
        return lines


def profile_to_registry(profile: GraphProfile) -> "MetricsRegistry":
    """Render a profile as a metrics registry (one JSON vocabulary).

    ``pgschema stats --json`` exports the result through
    :func:`repro.obs.export.metrics_payload`, so instance profiles share
    the exact artifact shape of ``--metrics`` run snapshots.
    """
    from ..obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.count("pg.nodes", profile.num_nodes)
    registry.count("pg.edges", profile.num_edges)
    for label, node_profile in profile.node_labels.items():
        registry.count(f"pg.nodes.{label}", node_profile.count)
        registry.observe("pg.label_size.node", node_profile.count)
        for name, prop in node_profile.properties.items():
            registry.count(f"pg.props.node.{label}.{name}", prop.count)
            registry.gauge(f"pg.props_distinct.node.{label}.{name}", prop.distinct)
    for label, edge_profile in profile.edge_labels.items():
        registry.count(f"pg.edges.{label}", edge_profile.count)
        registry.observe("pg.label_size.edge", edge_profile.count)
        registry.count(f"pg.loops.{label}", edge_profile.loops)
        registry.gauge(f"pg.max_out_degree.{label}", edge_profile.max_out_degree)
        registry.gauge(f"pg.max_in_degree.{label}", edge_profile.max_in_degree)
        for name, prop in edge_profile.properties.items():
            registry.count(f"pg.props.edge.{label}.{name}", prop.count)
            registry.gauge(f"pg.props_distinct.edge.{label}.{name}", prop.distinct)
    return registry


def _value_kind(value: object) -> str:
    if isinstance(value, bool):
        return "Boolean"
    if isinstance(value, int):
        return "Int"
    if isinstance(value, float):
        return "Float"
    if isinstance(value, tuple):
        inner = sorted({_value_kind(item) for item in value}) or ["empty"]
        return f"[{'/'.join(inner)}]"
    return "String"


def profile_graph(graph: "PropertyGraph") -> GraphProfile:
    """Compute the full profile of *graph* in two passes."""
    profile = GraphProfile(num_nodes=graph.num_nodes, num_edges=graph.num_edges)
    distinct_values: dict[tuple[str, str, bool], set[object]] = {}

    for node in graph.nodes:
        label = graph.label(node)
        label_profile = profile.node_labels.setdefault(label, LabelProfile(label))
        label_profile.count += 1
        for name, value in graph.properties(node).items():
            prop = label_profile.properties.setdefault(name, PropertyProfile(name))
            prop.count += 1
            prop.kinds.add(_value_kind(value))
            distinct_values.setdefault((label, name, True), set()).add(
                value_signature(value)
            )

    out_degree: dict[tuple, int] = {}
    in_degree: dict[tuple, int] = {}
    for edge in graph.edges:
        label = graph.label(edge)
        source, target = graph.endpoints(edge)
        edge_profile = profile.edge_labels.setdefault(label, EdgeLabelProfile(label))
        edge_profile.count += 1
        pair = (graph.label(source), graph.label(target))
        edge_profile.endpoint_pairs[pair] = edge_profile.endpoint_pairs.get(pair, 0) + 1
        if source == target:
            edge_profile.loops += 1
        out_key, in_key = (source, label), (target, label)
        out_degree[out_key] = out_degree.get(out_key, 0) + 1
        in_degree[in_key] = in_degree.get(in_key, 0) + 1
        edge_profile.max_out_degree = max(
            edge_profile.max_out_degree, out_degree[out_key]
        )
        edge_profile.max_in_degree = max(edge_profile.max_in_degree, in_degree[in_key])
        for name, value in graph.properties(edge).items():
            prop = edge_profile.properties.setdefault(name, PropertyProfile(name))
            prop.count += 1
            prop.kinds.add(_value_kind(value))
            distinct_values.setdefault((label, name, False), set()).add(
                value_signature(value)
            )

    for (label, name, is_node), values in distinct_values.items():
        holder = profile.node_labels if is_node else profile.edge_labels
        holder[label].properties[name].distinct = len(values)
    return profile
