"""``pgschema diff``: classify schema evolution (backward compatible vs breaking)."""

import json
import sys

from ..errors import ReproError, render_error
from ..evolution import diff_schemas
from . import load_schema


def run(args) -> int:
    try:
        old = load_schema(args.old_schema)
        new = load_schema(args.new_schema)
    except (ReproError, OSError) as error:
        # a schema that cannot even be loaded leaves the compatibility
        # question UNDECIDED -- exit 3 (the UNKNOWN code), not 2
        print(render_error(error), file=sys.stderr)
        return 3
    diff = diff_schemas(old, new)
    if args.json:
        print(json.dumps(diff.to_json(), indent=2, sort_keys=True))
    else:
        print(diff.summary())
        for change in diff.changes:
            print(f"  {change}")
    return 0 if diff.is_backward_compatible else 1
