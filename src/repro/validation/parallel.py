"""The parallel validation engine: compiled plans fanned over shards.

:class:`ParallelValidator` validates a Property Graph by (1) compiling the
schema into a :class:`~repro.validation.plan.ValidationPlan` (cached across
calls), (2) splitting the graph into scope-respecting shards
(:mod:`repro.validation.shard`; a one-shard run takes the graph's
:class:`~repro.pg.records.GraphRecords` view as its shard), (3) running the
*fused shard kernel* :func:`validate_shard` over every shard -- inline or
on a process pool -- and (4) merging the per-shard
results into one deterministic
:class:`~repro.validation.violations.ValidationReport`.

The kernel is the per-shard hot loop.  Unlike
:class:`~repro.validation.indexed.IndexedValidator`, which runs one pass per
rule and re-derives schema lookups per element, the kernel makes a single
pass over the shard's nodes and a single pass over its edges, dispatching
through the plan's per-label records: one dict hit per element resolves
every rule that can apply to it.  This is where the engine's single-core
speedup comes from; the shard fan-out adds multi-core scaling on top.

Rung selection is the project's one fan-out policy,
:func:`~repro.resilience.ladder.choose_rung`, with the graph size as the
engine's size test:

* no ``jobs`` given (the default of :func:`~repro.validation.validate` and
  ``pgschema validate``) -- run the kernel inline on one shard, no pool.
  Measured on a 2-core host, inline beat the process pool at every size
  from 5k to 200k elements (``BENCH_e12.json``, docs/PERFORMANCE.md);
* ``jobs == 1``, a single-core host, or a small graph
  (``len(graph) < SMALL_GRAPH_THRESHOLD``) -- inline as well, over ``jobs``
  shards (process startup would dominate a small graph);
* otherwise -- process pool, sidestepping the GIL for true multi-core runs.
  There is no thread pool: the kernel is pure Python, so the GIL would
  serialise its shards.

Two runs over the same graph produce byte-identical reports regardless of
the rung: shard assignment uses a process-stable hash, shard results are
merged in shard order, and the final violation list is canonically sorted.

**Fan-out.**  Every shard is one task of the shared
:class:`~repro.resilience.ExecutorLadder`, which runs it on whichever rung
it picks: the module-level task ``_shard_task`` wraps :func:`validate_shard`
in a ``validation.shard`` span, its state is ``(plan, graph)``, and a
process worker builds that state once as ``(compile_plan(schema), graph)``
-- the schema and graph are shipped once per worker and the plan's closures
are never pickled.  The ladder owns the rest: pools, the ``parallel.worker``
fault site, retries with :func:`~repro.resilience.ladder.backoff`, the fallback process →
serial, stuck-worker timeouts (``shard_timeout``) and the recovery log.
Because merging is positional (results land in a shard-indexed array) the
recovered report is byte-identical to an undisturbed run no matter which
rung finally produced each shard.  When even the serial rung fails,
the last cause is re-raised wrapped in
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
from ..errors import BudgetExhaustedError, check_on_budget
from ..pg.records import GraphRecords
from ..pg.values import value_signature
from ..resilience import faults
from ..resilience.ladder import ExecutorLadder, choose_rung
# re-exported for callers that import it from here; only the ladder's
# choose_rung reads it
from ..resilience.ladder import usable_cores as usable_cores
from .plan import ValidationPlan, compile_plan
from .shard import GraphShard, partition_graph
from .violations import (
    ValidationReport,
    Violation,
    _ordered_pairs,
    record_rule_checks,
    rules_for_mode,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..errors import BudgetReason
    from ..pg.model import ElementId, PropertyGraph
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema

#: (key-site index, key-value signature, node) emitted by shard kernels;
#: the merge step groups them to decide DS7 across shard boundaries.
SignatureTriple = tuple

ShardResult = tuple[list[Violation], list[SignatureTriple]]

_MISSING = ("<missing>",)

#: Deadline-check cadence inside the shard kernel (elements per check).
_DEADLINE_CHECK_EVERY = 2048


class ParallelValidator:
    """The fused plan-kernel validator: inline by default, sharded (over a
    process pool on a large graph) when ``jobs`` asks for workers.  Agrees
    with the naive and indexed engines on every input."""

    #: Below this graph size (|V| + |E|) the shards run inline even when
    #: ``jobs`` asks for workers: worker startup and graph transfer would
    #: dominate.
    SMALL_GRAPH_THRESHOLD = 4096

    def __init__(
        self,
        schema: "GraphQLSchema",
        jobs: int | None = None,
        plan: ValidationPlan | None = None,
        budget: "Budget | None" = None,
        on_budget: str = "unknown",
        shard_timeout: float | None = None,
    ) -> None:
        """``jobs`` is the worker count and the shard count; left at None it
        is 1 -- the kernel runs inline on one shard
        (:func:`~repro.resilience.ladder.choose_rung`).

        Resilience knobs (all optional; the defaults leave healthy runs
        untouched):

        * ``budget`` -- a template :class:`~repro.resilience.Budget`; every
          ``validate()`` call runs under a fresh renewal of it.
        * ``on_budget`` -- ``"unknown"`` returns a partial report on
          exhaustion, ``"error"`` raises.
        * ``shard_timeout`` -- wall seconds one shard attempt may take
          before it is treated as a stuck worker and recovered.
        """
        _rung, self.jobs = choose_rung(jobs)
        check_on_budget(on_budget)
        self.schema = schema
        self.plan = plan if plan is not None else compile_plan(schema)
        self.budget = budget
        self.on_budget = on_budget
        self.shard_timeout = shard_timeout
        #: recovery events of the last run: one dict per failed attempt
        #: (keys: shard, executor, attempt, error).
        self.recovery_log: list[dict] = []

    def validate(
        self,
        graph: "PropertyGraph | GraphRecords",
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
        graph: "PropertyGraph | GraphRecords",
        mode: str,
        budget: "Budget | None",
    ) -> ValidationReport:
        rules = rules_for_mode(mode)
        if budget is None and self.budget is not None:
            budget = self.budget.renew()
        with obs.span("validation.partition", jobs=self.shard_count):
            if self.shard_count > 1:
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
        # results are shard-indexed, so merging stays deterministic whichever
        # rung of the ladder produced each one
        results: list[ShardResult | None] = [None] * len(shards)
        interruption: "BudgetReason | None" = None
        ladder = ExecutorLadder(
            jobs=self.jobs,
            task_timeout=self.shard_timeout,
            site="validation.parallel",
            log_key="shard",
        )
        self.recovery_log = ladder.recovery_log
        try:
            if budget is not None:
                budget.charge_nodes(len(graph), site="validation.parallel")
            ladder.run(
                self.choose_executor(graph),
                _shard_task,
                (self.plan, graph),
                {index: (shard, rules, budget) for index, shard in enumerate(shards)},
                results,
                "parallel.worker",
                worker=(_worker_state, (self.schema, graph)),
                budget=budget,
            )
        except BudgetExhaustedError as stop:
            if self.on_budget == "error":
                raise
            interruption = stop.reason
        return self._merge(results, mode, rules, interruption)

    @property
    def shard_count(self) -> int:
        """How many shards :meth:`validate` partitions the graph into."""
        return self.jobs

    def choose_executor(self, graph: "PropertyGraph | GraphRecords") -> str:
        """The rung :func:`~repro.resilience.ladder.choose_rung` picks for
        this graph."""
        return choose_rung(self.jobs, len(graph) >= self.SMALL_GRAPH_THRESHOLD)[0]

    def _merge(
        self,
        results: "Sequence[ShardResult | None]",
        mode: str,
        rules: tuple[str, ...],
        interruption: "BudgetReason | None" = None,
    ) -> ValidationReport:
        faults.fault_point("parallel.merge")
        with obs.span("validation.merge", shards=len(results)):
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
# the ladder task
# --------------------------------------------------------------------------- #


def _shard_task(
    state: "tuple[ValidationPlan, PropertyGraph | GraphRecords]",
    payload: "tuple[GraphShard | GraphRecords, tuple[str, ...], Budget | None]",
    attempt: int,
    rung: str,
) -> ShardResult:
    """One shard attempt on any rung: the fused kernel in a span."""
    plan, graph = state
    shard, rules, budget = payload
    with obs.span("validation.shard", shard=shard.index, attempt=attempt, executor=rung):
        return validate_shard(plan, graph, shard, rules, budget)


def _worker_state(
    schema: "GraphQLSchema", graph: "PropertyGraph | GraphRecords"
) -> "tuple[ValidationPlan, PropertyGraph | GraphRecords]":
    """A process worker's state: the plan compiled locally (its closures are
    never pickled) and the graph shipped once per worker."""
    return compile_plan(schema), graph


# --------------------------------------------------------------------------- #
# the fused shard kernel
# --------------------------------------------------------------------------- #


def validate_shard(
    plan: ValidationPlan,
    graph: "PropertyGraph | GraphRecords",
    shard: "GraphShard | GraphRecords",
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

    A ``budget`` deadline is read every ``_DEADLINE_CHECK_EVERY`` elements
    -- one monotonic-clock read amortised over thousands of kernel
    iterations, so budgeted and unbudgeted runs stay within noise of each
    other.
    """
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
