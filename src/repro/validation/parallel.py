"""The parallel validation engine: compiled plans fanned over shards.

:class:`ParallelValidator` validates a Property Graph by (1) compiling the
schema into a :class:`~repro.validation.plan.ValidationPlan` (cached across
calls), (2) splitting the graph into scope-respecting shards
(:mod:`repro.validation.shard`; a one-shard run takes the graph's
:class:`~repro.pg.records.GraphRecords` view as its shard), (3) running the
*fused shard kernel* :func:`validate_shard` over every shard -- serially, on
a thread pool, or on a process pool -- and (4) merging the per-shard
results into one deterministic
:class:`~repro.validation.violations.ValidationReport`.

The kernel is the per-shard hot loop.  Unlike
:class:`~repro.validation.indexed.IndexedValidator`, which runs one pass per
rule and re-derives schema lookups per element, the kernel makes a single
pass over the shard's nodes and a single pass over its edges, dispatching
through the plan's per-label records: one dict hit per element resolves
every rule that can apply to it.  This is where the engine's single-core
speedup comes from; the shard fan-out adds multi-core scaling on top.

Executor selection (``executor="auto"``):

* no ``jobs`` given (the default of :func:`~repro.validation.validate` and
  ``pgschema validate``) -- run the kernel inline on one shard, no pool.
  Measured on a 2-core host, inline beat both pools at every size from 5k
  to 200k elements (``BENCH_e12.json``, docs/PERFORMANCE.md);
* ``jobs == 1`` or a single-core host -- inline as well, over ``jobs``
  shards (pool machinery is pure overhead for CPU-bound work without
  spare cores);
* an explicit ``jobs > 1`` on a small graph
  (``len(graph) < SMALL_GRAPH_THRESHOLD``) -- thread pool (cheap to start;
  process startup would dominate);
* otherwise -- process pool, sidestepping the GIL for true multi-core runs.
  Workers receive the schema and graph once (via the pool initializer) and
  recompile the plan locally, so the plan's closures are never pickled.

Two runs over the same graph produce byte-identical reports regardless of
the executor: shard assignment uses a process-stable hash, shard results are
merged in shard order, and the final violation list is canonically sorted.

**Worker-failure recovery.**  Scheduling, retries with exponential backoff,
the executor fallback ladder process → thread → serial, stuck-worker
timeouts (``shard_timeout``) and the recovery log are delegated to the
shared :class:`~repro.resilience.ExecutorLadder` (extracted from this
module so the portfolio satisfiability engine reuses the identical
recovery contract).  Because merging is positional (results land in a
shard-indexed array) the recovered report is byte-identical to an
undisturbed run no matter which executor finally produced each shard.
When even the serial rung fails, the last cause is re-raised wrapped in
:class:`~repro.errors.WorkerFailureError`.  Recovery decisions are
recorded in :attr:`ParallelValidator.recovery_log` so chaos tests can
assert a fault actually fired and was survived.

**Budgets.**  An optional :class:`~repro.resilience.Budget` bounds the run:
elements are charged against ``max_nodes`` up front, and the deadline is
checked between attempts, inside the shard kernel (every
``_DEADLINE_CHECK_EVERY`` elements), and while waiting on workers.
Exhaustion surfaces as :class:`~repro.errors.BudgetExhaustedError`; the
:meth:`ParallelValidator.validate` entry point converts it into a *partial*
report (``complete=False``, violations found so far, structured
``interruption``) unless ``on_budget="error"`` asked for the exception.

Fault-injection sites (see :mod:`repro.resilience.faults`):
``parallel.worker`` fires at every shard attempt (context: ``shard``,
``attempt``, ``executor``) and ``parallel.merge`` before the merge step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .. import obs
from ..errors import BudgetExhaustedError
from ..pg.records import GraphRecords
from ..pg.values import value_signature
from ..resilience import faults
from ..resilience.ladder import FALLBACK as _FALLBACK  # noqa: F401  (re-export)
# usable_cores lives in the ladder (sat's portfolio needs it without this
# module); callers and tests still import and patch it here
from ..resilience.ladder import ExecutorLadder, usable_cores
from ..schema.scalars import INT_MAX, INT_MIN
from .plan import ValidationPlan, compile_plan
from .shard import ColumnarShard, GraphShard, partition_graph
from .violations import (
    ValidationReport,
    Violation,
    _ordered_pairs,
    record_rule_checks,
    rules_for_mode,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..errors import BudgetReason
    from ..pg.columnar import ColumnarGraph, PropertyColumn
    from ..pg.model import ElementId, PropertyGraph
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema
    from ..schema.scalars import ScalarRegistry
    from ..schema.typerefs import TypeRef

#: (key-site index, key-value signature, node) emitted by shard kernels;
#: the merge step groups them to decide DS7 across shard boundaries.
SignatureTriple = tuple

ShardResult = tuple[list[Violation], list[SignatureTriple]]

_MISSING = ("<missing>",)

_EXECUTORS = ("auto", "serial", "thread", "process")

#: Deadline-check cadence inside the shard kernel (elements per check).
_DEADLINE_CHECK_EVERY = 2048

_ON_BUDGET = ("unknown", "error")


class ParallelValidator:
    """The fused plan-kernel validator: inline by default, sharded over a
    thread or process pool when ``jobs`` asks for workers.  Agrees with the
    naive and indexed engines on every input."""

    #: Below this graph size (|V| + |E|), "auto" prefers threads to
    #: processes: worker startup and graph transfer would dominate.
    SMALL_GRAPH_THRESHOLD = 4096

    def __init__(
        self,
        schema: "GraphQLSchema",
        jobs: int | None = None,
        executor: str = "auto",
        plan: ValidationPlan | None = None,
        budget: "Budget | None" = None,
        on_budget: str = "unknown",
        max_retries: int = 2,
        retry_base_delay: float = 0.05,
        shard_timeout: float | None = None,
        fallback: bool = True,
    ) -> None:
        """``jobs`` is the worker count; left at None it defaults to the
        usable cores for an explicit ``executor``, while ``"auto"`` then runs
        the kernel inline on one shard.

        Resilience knobs (all optional; the defaults leave healthy runs
        untouched):

        * ``budget`` -- a template :class:`~repro.resilience.Budget`; every
          ``validate()`` call runs under a fresh renewal of it.
        * ``on_budget`` -- ``"unknown"`` returns a partial report on
          exhaustion, ``"error"`` raises.
        * ``max_retries`` -- same-executor retries per ladder rung before
          failing shards fall down process → thread → serial.
        * ``retry_base_delay`` -- base of the exponential backoff sleep.
        * ``shard_timeout`` -- wall seconds one shard attempt may take
          before it is treated as a stuck worker and recovered.
        * ``fallback`` -- disable the executor ladder (then exhausted
          retries raise :class:`~repro.errors.WorkerFailureError`).
        """
        if executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
            )
        if on_budget not in _ON_BUDGET:
            raise ValueError(
                f"unknown on_budget policy {on_budget!r}; expected one of {_ON_BUDGET}"
            )
        self.schema = schema
        self.plan = plan if plan is not None else compile_plan(schema)
        self.jobs = max(1, jobs) if jobs is not None else usable_cores()
        self.executor = executor
        #: "auto" without a worker count runs the kernel inline on one shard.
        self.inline = jobs is None and executor == "auto"
        self.budget = budget
        self.on_budget = on_budget
        self.max_retries = max(0, max_retries)
        self.retry_base_delay = retry_base_delay
        self.shard_timeout = shard_timeout
        self.fallback = fallback
        #: recovery events of the last run: one dict per failed attempt
        #: (keys: shard, executor, attempt, error).
        self.recovery_log: list[dict] = []

    def validate(
        self,
        graph: "PropertyGraph | GraphRecords | ColumnarGraph",
        mode: str = "strong",
        budget: "Budget | None" = None,
    ) -> ValidationReport:
        """Check *graph* for weak / directives / strong satisfaction.

        A :class:`~repro.pg.records.GraphRecords` view (what
        ``pgschema validate`` loads) validates exactly like the
        :class:`~repro.pg.model.PropertyGraph` it describes."""
        with obs.span(
            "validation.run",
            engine="parallel",
            mode=mode,
            jobs=self.shard_count,
            elements=len(graph),
        ):
            return self._validate(graph, mode, budget)

    def _validate(
        self,
        graph: "PropertyGraph | GraphRecords | ColumnarGraph",
        mode: str,
        budget: "Budget | None",
    ) -> ValidationReport:
        rules = rules_for_mode(mode)
        if budget is None and self.budget is not None:
            budget = self.budget.renew()
        with obs.span("validation.partition", jobs=self.shard_count):
            if self.shard_count > 1 or getattr(graph, "is_columnar", False):
                shards = partition_graph(graph, self.shard_count)
            else:
                # one shard: the records view is that shard, and the graph
                # the kernel reads
                if not isinstance(graph, GraphRecords):
                    graph = GraphRecords.from_graph(graph)  # type: ignore[arg-type]
                shards = [graph]
        observation = obs.active()
        if observation is not None and observation.registry is not None:
            registry = observation.registry
            registry.count("validation.runs")
            registry.count("validation.shards", len(shards))
            total_nodes = total_edges = 0
            for shard in shards:
                registry.observe(
                    "validation.shard_size", len(shard.nodes) + len(shard.edges)
                )
                total_nodes += len(shard.nodes)
                total_edges += len(shard.edges)
            record_rule_checks(registry, rules, total_nodes, total_edges)
        results: list[ShardResult | None] = [None] * len(shards)
        interruption: "BudgetReason | None" = None
        try:
            if budget is not None:
                budget.charge_nodes(len(graph), site="validation.parallel")
            self._run_shards(graph, shards, rules, results, budget)
        except BudgetExhaustedError as stop:
            if self.on_budget == "error":
                raise
            interruption = stop.reason
        return self._merge(results, mode, rules, interruption)

    @property
    def shard_count(self) -> int:
        """How many shards :meth:`validate` partitions the graph into."""
        return 1 if self.inline else self.jobs

    def choose_executor(self, graph: "PropertyGraph | GraphRecords") -> str:
        """The executor "auto" resolves to for this graph."""
        if self.executor != "auto":
            return self.executor
        if self.inline or self.jobs <= 1 or usable_cores() <= 1:
            # No worker count asked for, one worker, or one core: pool
            # machinery is overhead for this CPU-bound kernel, and on the
            # measured 2-core host the inline kernel beat both pools at
            # every size.  Fan-out is opt-in through an explicit jobs.
            return "serial"
        if len(graph) < self.SMALL_GRAPH_THRESHOLD:
            return "thread"
        return "process"

    # ------------------------------------------------------------------ #
    # execution: attempts, retries, the executor fallback ladder
    # ------------------------------------------------------------------ #

    def _run_shards(
        self,
        graph: "PropertyGraph | GraphRecords",
        shards: "Sequence[GraphShard | GraphRecords]",
        rules: tuple[str, ...],
        results: "list[ShardResult | None]",
        budget: "Budget | None",
    ) -> None:
        """Fill ``results`` (shard-indexed, so merging stays deterministic),
        delegating retries and the executor fallback to the shared
        :class:`~repro.resilience.ExecutorLadder`."""
        ladder = ExecutorLadder(
            jobs=self.jobs,
            max_retries=self.max_retries,
            retry_base_delay=self.retry_base_delay,
            task_timeout=self.shard_timeout,
            fallback=self.fallback,
            site="validation.parallel",
            log_key="shard",
            timeout_label="shard_timeout",
        )
        self.recovery_log = ladder.recovery_log

        def serial(index: int, attempt: int) -> ShardResult:
            faults.fault_point(
                "parallel.worker",
                shard=shards[index].index,
                attempt=attempt,
                executor="serial",
            )
            with obs.span(
                "validation.shard",
                shard=shards[index].index,
                attempt=attempt,
                executor="serial",
            ):
                return validate_shard(self.plan, graph, shards[index], rules, budget)

        def thread_submit(pool, index: int, attempt: int):
            return pool.submit(
                _thread_validate,
                self.plan,
                graph,
                shards[index],
                rules,
                attempt,
                budget,
            )

        def process_submit(pool, index: int, attempt: int):
            return pool.submit(_pool_validate, (shards[index], rules, attempt, budget))

        def make_process_pool(workers: int):
            # imported here: the inline and thread paths never load
            # multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_initializer,
                initargs=(self.schema, graph, faults.active_spec(), obs.worker_config()),
            )

        ladder.run(
            self.choose_executor(graph),
            range(len(shards)),
            results,
            serial=serial,
            thread_submit=thread_submit,
            process_submit=process_submit,
            make_process_pool=make_process_pool,
            budget=budget,
        )

    def _merge(
        self,
        results: "Sequence[ShardResult | None]",
        mode: str,
        rules: tuple[str, ...],
        interruption: "BudgetReason | None" = None,
    ) -> ValidationReport:
        faults.fault_point("parallel.merge")
        # The merge barrier doubles as the span-merge barrier: worker tasks
        # that ran with observability on arrive as TracedResult wrappers,
        # absorbed into the parent tracer/registry before the deterministic
        # report merge (which therefore stays byte-identical either way).
        results = [obs.unwrap(result) for result in results]
        with obs.span("validation.merge", shards=len(results)):
            return self._merge_results(results, mode, rules, interruption)

    def _merge_results(
        self,
        results: "Sequence[ShardResult | None]",
        mode: str,
        rules: tuple[str, ...],
        interruption: "BudgetReason | None",
    ) -> ValidationReport:
        return merge_shard_results(self.plan, results, mode, rules, interruption)


def merge_shard_results(
    plan: ValidationPlan,
    results: "Sequence[ShardResult | None]",
    mode: str,
    rules: tuple[str, ...],
    interruption: "BudgetReason | None" = None,
) -> ValidationReport:
    """Merge per-shard (violations, DS7 triples) results into one
    deterministic report: DS7 is decided by grouping the signature triples
    across shards, then the combined violation list is canonically sorted.
    Shared by :class:`ParallelValidator` and the out-of-core streaming
    validator (:mod:`repro.validation.stream`), whose chunk results merge
    through the identical code path -- that is what makes streamed and
    in-memory reports byte-identical."""
    violations: list[Violation] = []
    signature_groups: dict[tuple, list["ElementId"]] = {}
    for result in results:
        if result is None:  # shard never completed (partial, budgeted run)
            continue
        shard_violations, triples = result
        violations.extend(shard_violations)
        for site_index, signature, node in triples:
            signature_groups.setdefault((site_index, signature), []).append(node)
    key_sites = plan.key_sites
    for (site_index, _signature), nodes in signature_groups.items():
        if len(nodes) < 2:
            continue
        location = key_sites[site_index].location
        for first, second in _ordered_pairs(nodes):
            violations.append(
                Violation(
                    "DS7",
                    location,
                    (first, second),
                    "two distinct nodes agree on all key fields",
                )
            )
    violations.sort(key=_sort_key)
    report = ValidationReport(
        mode=mode,
        rules_checked=rules,
        complete=interruption is None,
        interruption=interruption,
    )
    report.extend(violations)
    return report


def _sort_key(violation: Violation) -> tuple:
    return (
        violation.rule,
        violation.location,
        tuple(str(element) for element in violation.elements),
        violation.detail,
    )


# --------------------------------------------------------------------------- #
# worker plumbing
# --------------------------------------------------------------------------- #

_pool_plan: ValidationPlan | None = None
_pool_graph: "PropertyGraph | GraphRecords | None" = None


def _thread_validate(
    plan: ValidationPlan,
    graph: "PropertyGraph | GraphRecords",
    shard: "GraphShard | GraphRecords",
    rules: tuple[str, ...],
    attempt: int,
    budget: "Budget | None",
) -> ShardResult:
    faults.fault_point(
        "parallel.worker", shard=shard.index, attempt=attempt, executor="thread"
    )
    with obs.span(
        "validation.shard", shard=shard.index, attempt=attempt, executor="thread"
    ):
        return validate_shard(plan, graph, shard, rules, budget)


def _pool_initializer(
    schema: "GraphQLSchema",
    graph: "PropertyGraph | GraphRecords",
    fault_spec: str | None,
    obs_config: dict | None = None,
) -> None:
    """Runs once per worker process: compile the plan locally (its closures
    are never pickled), pin the shared graph, and mirror the parent's fault
    plan -- shipping the spec explicitly keeps injection working under any
    multiprocessing start method, and marking the process as a worker arms
    ``mode=exit`` crash faults (a real ``os._exit``, never in the parent).
    The parent's observability config rides along the same way: workers
    record into a private capture buffer (sharing the parent tracer's
    monotonic epoch) whose contents ship back with each task result."""
    global _pool_plan, _pool_graph
    _pool_plan = compile_plan(schema)
    _pool_graph = graph
    faults.mark_worker_process()
    faults.install(fault_spec)
    obs.install_worker(obs_config)


def _pool_validate(
    task: "tuple[GraphShard | GraphRecords, tuple[str, ...], int, Budget | None]",
) -> "ShardResult | obs.TracedResult":
    shard, rules, attempt, budget = task
    assert _pool_plan is not None and _pool_graph is not None
    faults.fault_point(
        "parallel.worker", shard=shard.index, attempt=attempt, executor="process"
    )
    with obs.span(
        "validation.shard", shard=shard.index, attempt=attempt, executor="process"
    ):
        result = validate_shard(_pool_plan, _pool_graph, shard, rules, budget)
    return obs.package(result)


# --------------------------------------------------------------------------- #
# the fused shard kernel
# --------------------------------------------------------------------------- #


def validate_shard(
    plan: ValidationPlan,
    graph: "PropertyGraph | GraphRecords | ColumnarGraph",
    shard: "GraphShard | GraphRecords | ColumnarShard",
    rules: tuple[str, ...],
    budget: "Budget | None" = None,
) -> ShardResult:
    """Check every rule in *rules* against one shard of *graph*.

    Returns the violations whose scope lies inside the shard plus the DS7
    signature triples for the merge step.  Union over a full partition ==
    the sequential engines' result (the differential tests enforce this).

    Besides the shard's records, the dict kernel reads only three graph
    accessors -- ``property_map``, ``out_degree`` (DS6) and
    ``in_edge_records`` (DS4 reads the source label ``r[4]``) -- which
    :class:`~repro.pg.model.PropertyGraph` and
    :class:`~repro.pg.records.GraphRecords` both provide; a records view is
    passed as both *graph* and *shard*.

    :class:`~repro.validation.shard.ColumnarShard` row-range shards (from a
    frozen :class:`~repro.pg.columnar.ColumnarGraph`) dispatch to the
    columnar kernel, which sweeps label-id and endpoint columns run by run
    instead of doing per-element dict hits; both kernels emit the same
    violation multiset, so merged reports are byte-identical across
    backends.

    A ``budget`` deadline is read every ``_DEADLINE_CHECK_EVERY`` elements
    -- one monotonic-clock read amortised over thousands of kernel
    iterations, so budgeted and unbudgeted runs stay within noise of each
    other.
    """
    if isinstance(shard, ColumnarShard):
        return _validate_columnar_shard(plan, graph, shard, rules, budget)
    active = frozenset(rules)
    violations: list[Violation] = []
    emit = violations.append
    triples: list[SignatureTriple] = []
    property_map = graph.property_map
    elements_seen = 0

    # ---------------------------- node pass ---------------------------- #
    ws1 = "WS1" in active
    ss1 = "SS1" in active
    ss2 = "SS2" in active
    ds4 = "DS4" in active
    ds5 = "DS5" in active
    ds6 = "DS6" in active
    ds7 = "DS7" in active
    node_rules = plan.node_rules
    if ws1 or ss1 or ss2 or ds4 or ds5 or ds6 or ds7:
        in_edge_records = graph.in_edge_records
        out_degree = graph.out_degree
        for node, label in shard.nodes:
            if budget is not None:
                elements_seen += 1
                if not elements_seen % _DEADLINE_CHECK_EVERY:
                    budget.check_deadline(site="validation.shard")
            rec = node_rules(label)
            if ss1 and not rec.known:
                emit(
                    Violation(
                        "SS1", "", (node,), f"label {label} is not an object type"
                    )
                )
            props = property_map(node)
            if props and (ws1 or ss2):
                declared = rec.properties
                for name, value in props.items():
                    entry = declared.get(name)
                    if entry is None:
                        if ss2:
                            emit(
                                Violation(
                                    "SS2",
                                    f"{label}.{name}",
                                    (node,),
                                    f"property {name} is not a field of {label}",
                                )
                            )
                        continue
                    ref, checker = entry
                    if checker is None:
                        if ss2:
                            emit(
                                Violation(
                                    "SS2",
                                    f"{label}.{name}",
                                    (node,),
                                    f"property {name} corresponds to a relationship field",
                                )
                            )
                        continue
                    if ws1 and not checker(value):
                        emit(
                            Violation(
                                "WS1",
                                f"{label}.{name}",
                                (node,),
                                f"value {value!r} is not in values_W({ref})",
                            )
                        )
            if ds5:
                for location, field_name, is_list in rec.required_attrs:
                    value = props.get(field_name)
                    if value is None and field_name not in props:
                        emit(
                            Violation(
                                "DS5",
                                location,
                                (node,),
                                f"required property {field_name} is absent",
                            )
                        )
                    elif is_list and value == ():
                        emit(
                            Violation(
                                "DS5",
                                location,
                                (node,),
                                f"required list property {field_name} is empty",
                            )
                        )
            if ds6:
                for location, field_name in rec.required_edges:
                    if not out_degree(node, field_name):
                        emit(
                            Violation(
                                "DS6",
                                location,
                                (node,),
                                f"required outgoing {field_name} edge is absent",
                            )
                        )
            if ds4:
                for location, field_name, source_below in rec.incoming_required:
                    for record in in_edge_records(node, field_name):
                        if record[4] in source_below:
                            break
                    else:
                        emit(
                            Violation(
                                "DS4",
                                location,
                                (node,),
                                f"node of type {label} lacks a required "
                                f"incoming {field_name} edge",
                            )
                        )
            if ds7 and rec.key_memberships:
                for site_index, scalar_fields in rec.key_memberships:
                    signature = tuple(
                        value_signature(props[field_name])
                        if field_name in props
                        else _MISSING
                        for field_name in scalar_fields
                    )
                    triples.append((site_index, signature, node))

    # ---------------------------- edge pass ---------------------------- #
    ws2 = "WS2" in active
    ws3 = "WS3" in active
    ss3 = "SS3" in active
    ss4 = "SS4" in active
    ds2 = "DS2" in active
    ep1 = "EP1" in active
    edge_rules = plan.edge_rules
    if ws2 or ws3 or ss3 or ss4 or ds2 or ep1:
        for edge, source, target, edge_label, source_label, target_label in shard.edges:
            if budget is not None:
                elements_seen += 1
                if not elements_seen % _DEADLINE_CHECK_EVERY:
                    budget.check_deadline(site="validation.shard")
            rec = edge_rules(source_label, edge_label)
            if ss4 and rec.ss4 is not None:
                emit(
                    Violation(
                        "SS4",
                        f"{source_label}.{edge_label}",
                        (edge,),
                        f"edge label {edge_label} is not a field of {source_label}"
                        if rec.ss4 == "missing"
                        else f"edge label {edge_label} corresponds to an attribute field",
                    )
                )
            if ws3 and rec.ws3_targets is not None and target_label not in rec.ws3_targets:
                emit(
                    Violation(
                        "WS3",
                        f"{source_label}.{edge_label}",
                        (edge,),
                        f"target label {target_label} is not a subtype of "
                        f"{rec.ref.base}",  # type: ignore[union-attr]
                    )
                )
            if ds2 and rec.no_loops and source == target:
                for location in rec.no_loops:
                    emit(
                        Violation(
                            "DS2", location, (edge,), "@noLoops edge is a self-loop"
                        )
                    )
            props = property_map(edge)
            if props and (ws2 or ss3):
                arg_checkers = rec.arg_checkers
                declared_args = rec.args
                for name, value in props.items():
                    if ss3 and name not in declared_args:
                        emit(
                            Violation(
                                "SS3",
                                f"{source_label}.{edge_label}({name})",
                                (edge,),
                                f"edge property {name} is not a declared argument",
                            )
                        )
                    if ws2:
                        entry = arg_checkers.get(name)
                        if entry is not None and not entry[1](value):
                            emit(
                                Violation(
                                    "WS2",
                                    f"{source_label}.{edge_label}({name})",
                                    (edge,),
                                    f"value {value!r} is not in values_W({entry[0]})",
                                )
                            )
            if ep1 and rec.mandatory_args:
                for name in rec.mandatory_args:
                    if name not in props:
                        emit(
                            Violation(
                                "EP1",
                                f"{source_label}.{edge_label}({name})",
                                (edge,),
                                f"mandatory edge property {name} is absent",
                            )
                        )

    # ------------------------- edge-group passes ------------------------ #
    ws4 = "WS4" in active
    ds1 = "DS1" in active
    if ws4 or ds1:
        for _source, edge_label, records in shard.source_groups:
            source_label = records[0][4]
            rec = edge_rules(source_label, edge_label)
            if ws4 and rec.ws4:
                for first, second in _ordered_pairs([r[0] for r in records]):
                    emit(
                        Violation(
                            "WS4",
                            f"{source_label}.{edge_label}",
                            (first, second),
                            f"two parallel edges for non-list field type {rec.ref}",
                        )
                    )
            if ds1 and rec.distinct:
                by_endpoints: dict[tuple, list] = {}
                for r in records:
                    by_endpoints.setdefault((r[1], r[2]), []).append(r[0])
                for group in by_endpoints.values():
                    if len(group) < 2:
                        continue
                    for location in rec.distinct:
                        for first, second in _ordered_pairs(group):
                            emit(
                                Violation(
                                    "DS1",
                                    location,
                                    (first, second),
                                    "two @distinct edges share both endpoints",
                                )
                            )
    if "DS3" in active:
        unique_ft_by_field = plan.unique_ft_by_field
        if unique_ft_by_field:
            for _target, edge_label, records in shard.target_groups:
                for location, source_below in unique_ft_by_field.get(edge_label, ()):
                    qualifying = [r[0] for r in records if r[4] in source_below]
                    if len(qualifying) < 2:
                        continue
                    for first, second in _ordered_pairs(qualifying):
                        emit(
                            Violation(
                                "DS3",
                                location,
                                (first, second),
                                "target has two incoming @uniqueForTarget edges",
                            )
                        )
    return violations, triples


# --------------------------------------------------------------------------- #
# the columnar shard kernel
# --------------------------------------------------------------------------- #


def _column_accepts(
    scalars: "ScalarRegistry", ref: "TypeRef", column: "PropertyColumn"
) -> bool:
    """Whole-column acceptance of values_W(ref): every value stored in
    *column* is provably a member, so WS1/WS2 skip the per-value loop.
    Stored values are never None, which is why nullability plays no role
    here (absence models null); tuples likewise never contain None."""
    kind = column.kind
    if ref.is_list:
        if kind != "obj":
            return False  # non-tuple values can never satisfy a list type
        item_kind = column.item_kind
        if item_kind is None:
            return False
        if item_kind == "empty":
            return True
        return scalars.accepts_kind(
            ref.base,
            item_kind,
            int32=column.item_int_min >= INT_MIN and column.item_int_max <= INT_MAX,
            finite=column.item_floats_finite,
        )
    if kind == "obj":
        return False
    return scalars.accepts_kind(
        ref.base,
        kind,
        int32=column.int_min >= INT_MIN and column.int_max <= INT_MAX,
        finite=column.floats_finite,
    )


#: Column kinds whose DS7 signature is the inline pair (kind, value),
#: bypassing the value_signature call (identical output by construction).
_SIGNATURE_TAGS = frozenset(("int", "float", "bool", "str"))


def _validate_columnar_shard(
    plan: ValidationPlan,
    graph: "ColumnarGraph",
    shard: ColumnarShard,
    rules: tuple[str, ...],
    budget: "Budget | None" = None,
) -> ShardResult:
    """The fused kernel over a columnar shard: one pass over the node-row
    range, one over the edge-row range, and CSR-slice group passes.

    Work is organised by *run* -- maximal row ranges sharing a label (or a
    (source label, edge label) shape) -- so per-label dispatch records,
    interned-id lookups and wholesale column checks are paid once per run
    instead of once per element.  Emission content matches the dict kernel
    string for string; only emission *order* differs, which the canonical
    merge sort erases.
    """
    active = frozenset(rules)
    violations: list[Violation] = []
    emit = violations.append
    triples: list[SignatureTriple] = []
    labels = graph.labels
    keys = graph.keys
    scalars = plan.schema.scalars
    node_ids = graph.node_id_list
    edge_ids = graph.edge_id_list
    node_ext_of = graph.node_ext_of
    edge_ext_of = graph.edge_ext_of
    edge_src = graph.edge_src
    edge_tgt = graph.edge_tgt
    node_label_ids = graph.node_label_ids
    edge_run_index: dict[tuple[int, int], int] = {
        (src_label, edge_label): index
        for index, (src_label, edge_label, _start, _stop) in enumerate(graph.edge_runs)
    }
    pending = 0  # deadline-cadence accumulator (checked per run)

    # ---------------------------- node pass ---------------------------- #
    ws1 = "WS1" in active
    ss1 = "SS1" in active
    ss2 = "SS2" in active
    ds4 = "DS4" in active
    ds5 = "DS5" in active
    ds6 = "DS6" in active
    ds7 = "DS7" in active
    node_rules = plan.node_rules
    if ws1 or ss1 or ss2 or ds4 or ds5 or ds6 or ds7:
        node_columns = graph.node_columns
        shard_lo, shard_hi = shard.node_start, shard.node_stop
        for label_id, run_lo, run_hi in graph.node_runs:
            lo = run_lo if run_lo > shard_lo else shard_lo
            hi = run_hi if run_hi < shard_hi else shard_hi
            if lo >= hi:
                continue
            count = hi - lo
            if budget is not None:
                pending += count
                if pending >= _DEADLINE_CHECK_EVERY:
                    budget.check_deadline(site="validation.shard")
                    pending = 0
            label = labels[label_id]
            rec = node_rules(label)
            if ss1 and not rec.known:
                detail = f"label {label} is not an object type"
                for row in range(lo, hi):
                    emit(Violation("SS1", "", (node_ids[node_ext_of[row]],), detail))
            if ws1 or ss2:
                declared = rec.properties
                for key_id, column in node_columns.items():
                    if not column.count_range(lo, hi):
                        continue
                    name = keys[key_id]
                    entry = declared.get(name)
                    if entry is None:
                        if ss2:
                            location = f"{label}.{name}"
                            detail = f"property {name} is not a field of {label}"
                            for row in column.iter_present(lo, hi):
                                emit(
                                    Violation(
                                        "SS2",
                                        location,
                                        (node_ids[node_ext_of[row]],),
                                        detail,
                                    )
                                )
                        continue
                    ref, checker = entry
                    if checker is None:
                        if ss2:
                            location = f"{label}.{name}"
                            detail = (
                                f"property {name} corresponds to a relationship field"
                            )
                            for row in column.iter_present(lo, hi):
                                emit(
                                    Violation(
                                        "SS2",
                                        location,
                                        (node_ids[node_ext_of[row]],),
                                        detail,
                                    )
                                )
                        continue
                    if ws1 and not _column_accepts(scalars, ref, column):
                        location = f"{label}.{name}"
                        for row in column.iter_present(lo, hi):
                            value = column.get(row)
                            if not checker(value):
                                emit(
                                    Violation(
                                        "WS1",
                                        location,
                                        (node_ids[node_ext_of[row]],),
                                        f"value {value!r} is not in values_W({ref})",
                                    )
                                )
            if ds5:
                for location, field_name, is_list in rec.required_attrs:
                    key_id = keys.id_of(field_name)
                    column = node_columns.get(key_id) if key_id >= 0 else None
                    detail = f"required property {field_name} is absent"
                    if column is None:
                        for row in range(lo, hi):
                            emit(
                                Violation(
                                    "DS5",
                                    location,
                                    (node_ids[node_ext_of[row]],),
                                    detail,
                                )
                            )
                        continue
                    if column.count_range(lo, hi) < count:
                        for row in column.iter_absent(lo, hi):
                            emit(
                                Violation(
                                    "DS5",
                                    location,
                                    (node_ids[node_ext_of[row]],),
                                    detail,
                                )
                            )
                    if is_list and column.has_empty_tuple:
                        empty_detail = (
                            f"required list property {field_name} is empty"
                        )
                        for row in column.iter_present(lo, hi):
                            if column.get(row) == ():
                                emit(
                                    Violation(
                                        "DS5",
                                        location,
                                        (node_ids[node_ext_of[row]],),
                                        empty_detail,
                                    )
                                )
            if ds6:
                for location, field_name in rec.required_edges:
                    edge_label_id = labels.id_of(field_name)
                    detail = f"required outgoing {field_name} edge is absent"
                    if edge_label_id < 0:
                        for row in range(lo, hi):
                            emit(
                                Violation(
                                    "DS6",
                                    location,
                                    (node_ids[node_ext_of[row]],),
                                    detail,
                                )
                            )
                        continue
                    run_index = edge_run_index.get((label_id, edge_label_id))
                    if (
                        run_index is not None
                        and graph.run_distinct_sources(run_index) == run_hi - run_lo
                    ):
                        continue  # every node of this label is a source
                    sources = graph.sources_with_edge_label(edge_label_id)
                    for row in range(lo, hi):
                        if node_ext_of[row] not in sources:
                            emit(
                                Violation(
                                    "DS6",
                                    location,
                                    (node_ids[node_ext_of[row]],),
                                    detail,
                                )
                            )
            if ds4:
                for location, field_name, source_below in rec.incoming_required:
                    detail = (
                        f"node of type {label} lacks a required "
                        f"incoming {field_name} edge"
                    )
                    edge_label_id = labels.id_of(field_name)
                    if edge_label_id < 0:
                        for row in range(lo, hi):
                            emit(
                                Violation(
                                    "DS4",
                                    location,
                                    (node_ids[node_ext_of[row]],),
                                    detail,
                                )
                            )
                        continue
                    allowed = frozenset(
                        label_index
                        for source_label in source_below
                        if (label_index := labels.id_of(source_label)) >= 0
                    )
                    targets = graph.targets_of_labelled_sources(
                        edge_label_id, allowed
                    )
                    for row in range(lo, hi):
                        if node_ext_of[row] not in targets:
                            emit(
                                Violation(
                                    "DS4",
                                    location,
                                    (node_ids[node_ext_of[row]],),
                                    detail,
                                )
                            )
            if ds7 and rec.key_memberships:
                for site_index, scalar_fields in rec.key_memberships:
                    columns = []
                    for field_name in scalar_fields:
                        key_id = keys.id_of(field_name)
                        column = node_columns.get(key_id) if key_id >= 0 else None
                        tag = (
                            column.kind
                            if column is not None and column.kind in _SIGNATURE_TAGS
                            else None
                        )
                        columns.append((column, tag))
                    for row in range(lo, hi):
                        signature = tuple(
                            (
                                (tag, column.get(row))
                                if tag is not None
                                else value_signature(column.get(row))
                            )
                            if column is not None and column.has(row)
                            else _MISSING
                            for column, tag in columns
                        )
                        triples.append(
                            (site_index, signature, node_ids[node_ext_of[row]])
                        )

    # ---------------------------- edge pass ---------------------------- #
    ws2 = "WS2" in active
    ws3 = "WS3" in active
    ss3 = "SS3" in active
    ss4 = "SS4" in active
    ds2 = "DS2" in active
    ep1 = "EP1" in active
    edge_rules = plan.edge_rules
    if ws2 or ws3 or ss3 or ss4 or ds2 or ep1:
        edge_columns = graph.edge_columns
        shard_lo, shard_hi = shard.edge_start, shard.edge_stop
        for run_index, (src_label_id, edge_label_id, run_lo, run_hi) in enumerate(
            graph.edge_runs
        ):
            lo = run_lo if run_lo > shard_lo else shard_lo
            hi = run_hi if run_hi < shard_hi else shard_hi
            if lo >= hi:
                continue
            count = hi - lo
            if budget is not None:
                pending += count
                if pending >= _DEADLINE_CHECK_EVERY:
                    budget.check_deadline(site="validation.shard")
                    pending = 0
            source_label = labels[src_label_id]
            edge_label = labels[edge_label_id]
            rec = edge_rules(source_label, edge_label)
            if ss4 and rec.ss4 is not None:
                location = f"{source_label}.{edge_label}"
                detail = (
                    f"edge label {edge_label} is not a field of {source_label}"
                    if rec.ss4 == "missing"
                    else f"edge label {edge_label} corresponds to an attribute field"
                )
                for row in range(lo, hi):
                    emit(
                        Violation("SS4", location, (edge_ids[edge_ext_of[row]],), detail)
                    )
            if ws3 and rec.ws3_targets is not None:
                allowed = frozenset(
                    label_index
                    for target_label in rec.ws3_targets
                    if (label_index := labels.id_of(target_label)) >= 0
                )
                if not graph.run_target_labels(run_index) <= allowed:
                    location = f"{source_label}.{edge_label}"
                    base = rec.ref.base  # type: ignore[union-attr]
                    for row in range(lo, hi):
                        ext = edge_ext_of[row]
                        target_label_id = node_label_ids[edge_tgt[ext]]
                        if target_label_id not in allowed:
                            emit(
                                Violation(
                                    "WS3",
                                    location,
                                    (edge_ids[ext],),
                                    f"target label {labels[target_label_id]} is "
                                    f"not a subtype of {base}",
                                )
                            )
            if ds2 and rec.no_loops and graph.run_has_loops(run_index):
                for row in range(lo, hi):
                    ext = edge_ext_of[row]
                    if edge_src[ext] == edge_tgt[ext]:
                        for location in rec.no_loops:
                            emit(
                                Violation(
                                    "DS2",
                                    location,
                                    (edge_ids[ext],),
                                    "@noLoops edge is a self-loop",
                                )
                            )
            if ws2 or ss3:
                declared_args = rec.args
                arg_checkers = rec.arg_checkers
                for key_id, column in edge_columns.items():
                    if not column.count_range(lo, hi):
                        continue
                    name = keys[key_id]
                    if ss3 and name not in declared_args:
                        location = f"{source_label}.{edge_label}({name})"
                        detail = f"edge property {name} is not a declared argument"
                        for row in column.iter_present(lo, hi):
                            emit(
                                Violation(
                                    "SS3",
                                    location,
                                    (edge_ids[edge_ext_of[row]],),
                                    detail,
                                )
                            )
                    if ws2:
                        entry = arg_checkers.get(name)
                        if entry is not None and not _column_accepts(
                            scalars, entry[0], column
                        ):
                            location = f"{source_label}.{edge_label}({name})"
                            checker = entry[1]
                            for row in column.iter_present(lo, hi):
                                value = column.get(row)
                                if not checker(value):
                                    emit(
                                        Violation(
                                            "WS2",
                                            location,
                                            (edge_ids[edge_ext_of[row]],),
                                            f"value {value!r} is not in "
                                            f"values_W({entry[0]})",
                                        )
                                    )
            if ep1 and rec.mandatory_args:
                for name in rec.mandatory_args:
                    key_id = keys.id_of(name)
                    column = edge_columns.get(key_id) if key_id >= 0 else None
                    location = f"{source_label}.{edge_label}({name})"
                    detail = f"mandatory edge property {name} is absent"
                    if column is None:
                        for row in range(lo, hi):
                            emit(
                                Violation(
                                    "EP1",
                                    location,
                                    (edge_ids[edge_ext_of[row]],),
                                    detail,
                                )
                            )
                    elif column.count_range(lo, hi) < count:
                        for row in column.iter_absent(lo, hi):
                            emit(
                                Violation(
                                    "EP1",
                                    location,
                                    (edge_ids[edge_ext_of[row]],),
                                    detail,
                                )
                            )

    # ------------------------- edge-group passes ------------------------ #
    ws4 = "WS4" in active
    ds1 = "DS1" in active
    if (ws4 or ds1) and shard.source_groups:
        out_csr = graph.out_csr_edges()
        for node_ext, edge_label_id, start, end in shard.source_groups:
            source_label = labels[node_label_ids[node_ext]]
            edge_label = labels[edge_label_id]
            rec = edge_rules(source_label, edge_label)
            if ws4 and rec.ws4:
                members = [edge_ids[out_csr[position]] for position in range(start, end)]
                location = f"{source_label}.{edge_label}"
                detail = f"two parallel edges for non-list field type {rec.ref}"
                for first, second in _ordered_pairs(members):
                    emit(Violation("WS4", location, (first, second), detail))
            if ds1 and rec.distinct:
                by_target: dict[int, list] = {}
                for position in range(start, end):
                    ext = out_csr[position]
                    by_target.setdefault(edge_tgt[ext], []).append(edge_ids[ext])
                for group in by_target.values():
                    if len(group) < 2:
                        continue
                    for location in rec.distinct:
                        for first, second in _ordered_pairs(group):
                            emit(
                                Violation(
                                    "DS1",
                                    location,
                                    (first, second),
                                    "two @distinct edges share both endpoints",
                                )
                            )
    if "DS3" in active and shard.target_groups:
        unique_ft_by_field = plan.unique_ft_by_field
        if unique_ft_by_field:
            in_csr = graph.in_csr_edges()
            for _node_ext, edge_label_id, start, end in shard.target_groups:
                entries = unique_ft_by_field.get(labels[edge_label_id])
                if not entries:
                    continue
                for location, source_below in entries:
                    qualifying = []
                    for position in range(start, end):
                        ext = in_csr[position]
                        if labels[node_label_ids[edge_src[ext]]] in source_below:
                            qualifying.append(edge_ids[ext])
                    if len(qualifying) < 2:
                        continue
                    for first, second in _ordered_pairs(qualifying):
                        emit(
                            Violation(
                                "DS3",
                                location,
                                (first, second),
                                "target has two incoming @uniqueForTarget edges",
                            )
                        )
    return violations, triples
