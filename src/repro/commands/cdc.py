"""``pgschema cdc``: consume a mutation journal, keeping the violation set current."""

from ..validation import CDCConsumer
from . import budget_from_args, escaped, load_graph, load_schema


def run(args) -> int:
    schema = load_schema(args.schema)
    base_graph = load_graph(args.graph) if args.graph else None
    consumer = CDCConsumer(
        schema,
        args.journal,
        base_graph=base_graph,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        events_path=args.events_json,
        budget=budget_from_args(args),
        on_budget=args.on_budget,
    )
    result = consumer.run(resume=args.resume)
    if result.recovered_from is not None:
        print(f"resumed from {result.recovered_from}")
    print(
        f"{result.commits} commit(s), {result.events_applied} event(s) applied, "
        f"{len(result.events)} violation transition(s), "
        f"{result.checkpoints_written} checkpoint(s)"
        + (f", {result.retries} retried apply(s)" if result.retries else "")
    )
    for event in result.events:
        print(escaped(f"  {event}"))
    print(result.report.summary())
    if result.report.violations:
        return 1
    return 0 if result.report.complete else 3
