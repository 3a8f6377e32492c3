"""``pgschema export-cypher``: Neo4j constraint DDL and, optionally, the data."""

from ..baselines import graph_to_cypher, schema_to_cypher_ddl
from . import load_graph, load_schema


def run(args) -> int:
    schema = load_schema(args.schema)
    export = schema_to_cypher_ddl(schema)
    print(export.ddl, end="")
    for item in export.unsupported:
        print(f"// not expressible in Cypher DDL: {item}")
    if args.graph:
        print(graph_to_cypher(load_graph(args.graph)), end="")
    return 0
