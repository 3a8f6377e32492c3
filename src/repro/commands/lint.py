"""``pgschema lint``: the static-analysis rules with source spans."""

import json

from ..lint import Severity, has_errors, lint_schema
from . import load_schema


def run(args) -> int:
    schema = load_schema(args.schema, check=False)
    findings = lint_schema(schema, select=args.select, ignore=args.ignore)
    if args.json:
        print(json.dumps([finding.to_json() for finding in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render(args.schema))
        counts = {
            severity: sum(1 for f in findings if f.severity is severity)
            for severity in Severity
        }
        print(
            f"{len(findings)} finding(s): "
            f"{counts[Severity.ERROR]} error(s), "
            f"{counts[Severity.WARNING]} warning(s), "
            f"{counts[Severity.INFO]} info"
        )
    return 1 if has_errors(findings) else 0
