"""The ``pgschema`` subcommand handlers: ``repro.commands.<name>.run(args)``.

:func:`repro.cli.main` imports a handler module only when it dispatches
it (docs/PERFORMANCE.md, "Cold start").  The shared loaders live here, not
in ``repro.cli``: ``python -m repro.cli`` runs that file as ``__main__``,
so importing it back would compile it a second time.
"""

import gc


def load_schema(path: str, check: bool = True):
    from ..schema import parse_schema

    with open(path) as handle:
        return parse_schema(handle.read(), check=check)


def load_graph(path: str, records: bool = False):
    """Load a graph document; ``.jsonl`` files go through the line format.

    ``records=True`` reads a JSON document straight into the
    read-only :class:`~repro.pg.records.GraphRecords` view the plan kernel
    validates.  Cyclic GC is paused while the document is decoded and
    built, then everything loaded is frozen out of later collections: the
    freshly decoded data holds no cycles, and a short-lived CLI process
    never frees it, so collecting it is pure overhead.  (Library loaders
    leave the collector alone; the service decodes in threads.)
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        if path.endswith(".jsonl"):
            from ..pg.jsonl import load_graph_jsonl

            # binary: the line reader decodes, and its offsets are bytes
            with open(path, "rb") as lines:
                graph = load_graph_jsonl(lines, source=path)
        else:
            from ..pg import io

            with open(path) as handle:
                graph = io.load_records(handle) if records else io.load_graph(handle)
        gc.freeze()
    finally:
        if collecting:
            gc.enable()
    return graph


def escaped(text: str) -> str:
    """*text* with lone surrogates (JSON ids may carry them, UTF-8 cannot
    encode them) printed as ``\\ud800`` escapes."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def budget_from_args(args):
    """The ``--timeout``/``--max-nodes`` budget, or None (and no import)."""
    if args.timeout is None and args.max_nodes is None:
        return None
    from ..resilience.budget import Budget

    return Budget(deadline=args.timeout, max_nodes=args.max_nodes)
