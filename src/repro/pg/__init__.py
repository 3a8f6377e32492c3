"""Property Graph substrate (Definition 2.1 of the paper).

Exports resolve on first access (PEP 562), like the top-level package:
loading a graph file does not import the generators or the profiler.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .build import GraphBuilder
    from .generate import chain_graph, random_graph, star_graph
    from .io import (
        dump_graph,
        dump_graph_jsonl,
        dumps_graph,
        graph_from_dict,
        graph_to_dict,
        load_graph,
        load_records,
        loads_graph,
        records_from_dict,
    )
    from .jsonl import iter_graph_jsonl, load_graph_jsonl
    from .model import ElementId, PropertyGraph
    from .records import GraphRecords
    from .stats import GraphProfile, profile_graph
    from .values import (
        PropertyValue,
        is_array_value,
        is_atomic_value,
        is_property_value,
        normalize_value,
        value_signature,
        values_equal,
    )

__all__ = [
    "ElementId",
    "GraphBuilder",
    "GraphProfile",
    "GraphRecords",
    "PropertyGraph",
    "PropertyValue",
    "chain_graph",
    "dump_graph",
    "dump_graph_jsonl",
    "dumps_graph",
    "graph_from_dict",
    "graph_to_dict",
    "is_array_value",
    "is_atomic_value",
    "is_property_value",
    "iter_graph_jsonl",
    "load_graph",
    "load_graph_jsonl",
    "load_records",
    "loads_graph",
    "normalize_value",
    "profile_graph",
    "random_graph",
    "records_from_dict",
    "star_graph",
    "value_signature",
    "values_equal",
]

# Exported name -> the submodule that defines it; keep in step with the
# TYPE_CHECKING imports above (tests/test_meta.py pins both).
_EXPORTS = {
    "GraphBuilder": "build",
    "chain_graph": "generate",
    "random_graph": "generate",
    "star_graph": "generate",
    "dump_graph": "io",
    "dump_graph_jsonl": "io",
    "dumps_graph": "io",
    "graph_from_dict": "io",
    "graph_to_dict": "io",
    "load_graph": "io",
    "load_records": "io",
    "loads_graph": "io",
    "records_from_dict": "io",
    "iter_graph_jsonl": "jsonl",
    "load_graph_jsonl": "jsonl",
    "ElementId": "model",
    "PropertyGraph": "model",
    "GraphRecords": "records",
    "GraphProfile": "stats",
    "profile_graph": "stats",
    "PropertyValue": "values",
    "is_array_value": "values",
    "is_atomic_value": "values",
    "is_property_value": "values",
    "normalize_value": "values",
    "value_signature": "values",
    "values_equal": "values",
}


__getattr__ = _lazy_exports(globals(), _EXPORTS)
