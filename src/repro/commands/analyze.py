"""``pgschema analyze``: the dataflow-analysis passes over a schema."""

import json
import sys

from ..analysis import analyze_schema
from ..lint import has_errors
from . import load_schema


def run(args) -> int:
    schema = load_schema(args.schema, check=False)
    result = analyze_schema(schema)
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        cardinality = result.fact("cardinality")
        decided = 0
        for type_name in sorted(schema.object_types):
            verdict = cardinality.type_verdict_name(type_name)
            decided += verdict != "unknown"
            print(
                f"{type_name}: {verdict} "
                f"(interval {cardinality.interval(type_name)})"
            )
        for (declarer, field_name), verdict in sorted(
            cardinality.field_verdicts.items()
        ):
            label = "sat" if verdict else ("unsat" if verdict is False else "unknown")
            decided += verdict is not None
            print(f"{declarer}.{field_name}: {label}")
        for finding in result.diagnostics:
            print(finding.render(args.schema))
        total = len(schema.object_types) + len(cardinality.field_verdicts)
        print(
            f"{decided}/{total} element(s) decided statically; "
            f"{len(result.diagnostics)} finding(s)"
        )
    if args.timings:
        for name, seconds in result.timings.items():
            print(f"  {name:12s} {seconds * 1000:9.3f} ms", file=sys.stderr)
    return 1 if has_errors(result.diagnostics) else 0
