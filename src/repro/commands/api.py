"""``pgschema api``: the §3.6 GraphQL API schema."""

from ..api import extend_to_api_schema
from . import load_schema


def run(args) -> int:
    schema = load_schema(args.schema)
    print(extend_to_api_schema(schema).sdl, end="")
    return 0
