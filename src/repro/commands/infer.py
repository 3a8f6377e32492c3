"""``pgschema infer``: induce an SDL schema from a graph instance."""

from ..inference import infer_schema
from . import load_graph


def run(args) -> int:
    graph = load_graph(args.graph)
    result = infer_schema(graph)
    print(result.sdl, end="")
    for label, keys in sorted(result.key_candidates.items()):
        if len(keys) > 1:
            print(f"# {label}: other key candidates: {', '.join(keys[1:])}")
    return 0
