"""``pgschema check``: parse a schema, report warnings, check consistency."""

from ..schema.consistency import consistency_errors
from . import load_schema


def run(args) -> int:
    schema = load_schema(args.schema, check=False)
    for warning in schema.warnings:
        print(f"warning: {warning}")
    errors = consistency_errors(schema)
    if errors:
        print(f"schema is NOT consistent ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(
        f"schema is consistent: {len(schema.object_types)} object type(s), "
        f"{len(schema.interface_types)} interface(s), "
        f"{len(schema.union_types)} union(s)"
    )
    return 0
