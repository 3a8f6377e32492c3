"""``pgschema translate``: the ALCQI TBox of the Theorem-3 translation."""

from ..dl import schema_to_tbox
from . import load_schema


def run(args) -> int:
    schema = load_schema(args.schema, check=False)
    tbox = schema_to_tbox(schema)
    for axiom in tbox.axioms:
        print(axiom)
    for name, definiens in tbox.definitions.items():
        print(f"{name} ≡ {definiens}")
    for group in tbox.disjoint_groups:
        print("disjoint(" + ", ".join(sorted(group)) + ")")
    return 0
