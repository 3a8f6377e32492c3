"""``pgschema validate``: the Schema Validation Problem (Section 5)."""

import sys

from .. import obs
from ..errors import GraphLoadError
from . import budget_from_args, escaped, load_graph, load_schema


def run(args) -> int:
    schema = load_schema(args.schema)
    if args.stream:
        from ..validation import StreamValidator

        if not args.graph.endswith(".jsonl"):
            raise GraphLoadError(
                f"--stream validates JSON-Lines graph files; {args.graph!r} "
                "is not a .jsonl file (see docs/STREAMING.md)",
                source=args.graph,
            )
        report = StreamValidator(
            schema,
            chunk_elements=args.chunk_size,
            budget=budget_from_args(args),
            on_budget=args.on_budget,
        ).validate(args.graph, mode=args.mode)
        return finish(report)
    # the plan kernel reads records, never the mutable graph
    graph = load_graph(args.graph, records=args.engine == "parallel")
    from ..validation import make_validator

    validator = make_validator(
        schema,
        args.engine,
        jobs=args.jobs,
        budget=budget_from_args(args),
        on_budget=args.on_budget,
    )
    if not args.profile:
        return finish(validator.validate(graph, args.mode))
    report, spans = _with_spans(lambda: validator.validate(graph, args.mode))
    _print_profile(args.engine, validator, graph, spans)
    return finish(report)


def _with_spans(run):
    """Call ``run()`` with span tracing on; return its result and spans.

    An observation installed by ``--trace``/``--metrics`` keeps its metrics
    registry during the call, and the spans are added to its trace too.
    """
    outer = obs.active()
    tracer = obs.Tracer()
    obs.install(tracer, outer.registry if outer is not None else None)
    try:
        result = run()
    finally:
        if outer is None:
            obs.uninstall()
        else:
            obs.install(outer.tracer, outer.registry)
            if outer.tracer is not None:
                outer.tracer.absorb(tracer.events())
    return result, tracer.events()


def _print_profile(engine: str, validator, graph, spans) -> None:
    """``validate --profile``: the stage split of the engine that ran."""
    from ..validation import plan_cache_info

    def span_ms(name: str) -> float:
        return 1000 * sum(
            span.duration or 0.0 for span in spans if span.name == name
        )

    if engine == "parallel":
        print(
            f"  engine    parallel (executor {validator.choose_executor(graph)}, "
            f"{validator.shard_count} shard(s))",
            file=sys.stderr,
        )
        for stage, name in (
            ("partition", "validation.partition"),
            ("kernel", "validation.shard"),
            ("merge", "validation.merge"),
        ):
            print(f"  {stage:9s} {span_ms(name):9.3f} ms", file=sys.stderr)
    else:
        print(f"  engine    {engine}", file=sys.stderr)
    print(f"  {'total':9s} {span_ms('validation.run'):9.3f} ms", file=sys.stderr)
    info = plan_cache_info()
    print(
        f"  plan cache: {info['hits']} hit(s), {info['misses']} miss(es), "
        f"{info['size']} plan(s)",
        file=sys.stderr,
    )


def finish(report) -> int:
    """Print a validation report; the exit status it implies."""
    with obs.span("validation.report", violations=len(report.violations)):
        print(report.summary())
        for violation in sorted(report.violations, key=str):
            print(escaped(f"  {violation}"))
    if report.violations:
        return 1
    return 0 if report.complete else 3
