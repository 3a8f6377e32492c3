"""``pgschema query``: a GraphQL query over a graph through the generated API."""

import json

from ..api import GraphQLExecutor, extend_to_api_schema
from . import load_graph, load_schema


def run(args) -> int:
    schema = load_schema(args.schema)
    graph = load_graph(args.graph)
    executor = GraphQLExecutor(extend_to_api_schema(schema), graph)
    print(json.dumps(executor.execute(args.query_text), indent=2, default=str))
    return 0
