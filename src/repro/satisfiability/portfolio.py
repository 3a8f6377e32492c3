"""Portfolio whole-schema satisfiability: batching, fan-out, engine racing.

``check_schema`` asks one question per schema element -- every object type
and every relationship (edge) definition.  The serial loop answers them one
tableau search at a time.  This module turns the sweep into a portfolio:

* **Batched work units.**  The schema is partitioned into per-declaring-type
  :class:`SatUnit`\\ s.  A unit's single batch concept
  ``t ⊓ ∃f1.B1 ⊓ ... ⊓ ∃fk.Bk`` decides the type *and* all k of its edge
  definitions with one tableau search when satisfiable (the common case for
  sound schemas: SAT of the conjunction implies SAT of every conjunct
  pair).  Only when the batch is UNSAT does the unit fall back to staged
  per-element checks -- first ``t`` alone (UNSAT there settles every field
  too), then individual fields -- reproducing the serial verdicts exactly.
* **Fan-out.**  Units are scheduled over the shared
  :class:`~repro.resilience.ladder.ExecutorLadder` (the PR 3 retry/backoff/
  process→thread→serial recovery machinery), with results merged
  positionally into canonical report order, so reports are byte-identical
  for any ``jobs`` count or executor rung.
* **Racing** (``engine="race"``).  A unit's batch concept is decided by the
  Theorem-3 tableau and the bounded finite-model finder concurrently, each
  under its own :class:`~repro.resilience.Budget`; the first decisive
  verdict cancels the loser's budget (the loser unwinds at its next
  cooperative check).  The bounded half searches with ``require_fields`` so
  a found witness decides the type and all batched fields at once.  A
  bounded *failure* is never decisive (finite search below a bound refutes
  nothing), so racing cannot change a verdict -- only ``decided_by``.
* **Caching.**  Every decided verdict flows through the checker's
  :class:`~repro.satisfiability.cache.SatCache`; process-worker results are
  absorbed into the parent's cache on merge, so a repeat ``check_schema``
  over the same schema replays from memory.

Verdict soundness of the batch decomposition: the batch concept is the
conjunction of the type concept and each field concept, so batch-SAT
implies every element SAT; batch-UNSAT implies nothing per element and is
always followed by per-element re-checks; a budget-tripped batch falls back
to the serial per-element procedure under fresh budget renewals, so typed
UNKNOWNs match the serial engine's.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .. import obs
from ..dl.concepts import And, Exists, Name, Role
from ..errors import BudgetExhaustedError
from ..resilience import Budget, faults
from ..resilience.ladder import ExecutorLadder, usable_cores
from .engine import (
    SatisfiabilityChecker,
    SchemaSatisfiabilityReport,
    TypeSatisfiability,
    profile_from_registry,
    record_report_outcomes,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..dl.concepts import Concept
    from ..schema.model import GraphQLSchema
    from .bounded import BoundedSearchResult

__all__ = [
    "SatUnit",
    "UnitResult",
    "build_units",
    "check_unit",
    "run_portfolio",
]

_ENGINES = ("portfolio", "race")
_EXECUTORS = ("auto", "serial", "thread", "process")


@dataclass(frozen=True)
class SatUnit:
    """One batched work unit: a declaring type and its relationship fields.

    ``type_name`` is the object type the unit must produce a
    :class:`~repro.satisfiability.engine.TypeSatisfiability` for, or None
    for interface-declared fields (interfaces get no type verdict in the
    report, only field verdicts).  ``fields`` holds ``(field_name,
    target_base)`` pairs in declaration order.
    """

    index: int
    type_name: str | None
    declaring: str
    fields: tuple[tuple[str, str], ...]


@dataclass
class UnitResult:
    """The picklable outcome of one unit (crosses process boundaries)."""

    index: int
    type_verdict: TypeSatisfiability | None
    fields: dict[tuple[str, str], bool | None]
    wins: dict[str, int] = field(default_factory=dict)


def build_units(schema: "GraphQLSchema") -> list[SatUnit]:
    """Partition the schema into per-declaring-type work units.

    Every object type gets a unit (even field-less ones -- the type verdict
    is still owed); interfaces declaring relationship fields get
    field-only units.  Grouping follows ``field_declarations()`` exactly,
    so the union of unit elements equals the serial sweep's element set.
    """
    groups: dict[str, list[tuple[str, str]]] = {}
    for type_name, field_name, field_def in schema.field_declarations():
        if field_def.is_relationship:
            groups.setdefault(type_name, []).append(
                (field_name, field_def.type.base)
            )
    units: list[SatUnit] = []
    for type_name in sorted(schema.object_types):
        units.append(
            SatUnit(
                len(units), type_name, type_name, tuple(groups.pop(type_name, ()))
            )
        )
    for declaring in sorted(groups):
        units.append(SatUnit(len(units), None, declaring, tuple(groups[declaring])))
    return units


# --------------------------------------------------------------------------- #
# the per-unit kernel (runs on any rung: inline, thread, or worker process)
# --------------------------------------------------------------------------- #


def check_unit(
    checker: SatisfiabilityChecker,
    unit: SatUnit,
    *,
    find_witnesses: bool = False,
    race: bool = False,
) -> UnitResult:
    """Decide one unit: cache → lint → batch concept → staged fallback."""
    with obs.span(
        "sat.unit",
        unit=unit.index,
        declaring=unit.declaring,
        fields=len(unit.fields),
    ):
        return _check_unit(checker, unit, find_witnesses, race)


def _check_unit(
    checker: SatisfiabilityChecker,
    unit: SatUnit,
    find_witnesses: bool,
    race: bool,
) -> UnitResult:
    wins: dict[str, int] = {}

    def win(engine: str) -> None:
        wins[engine] = wins.get(engine, 0) + 1

    cache = checker.cache
    fields: dict[tuple[str, str], bool | None] = {}
    pending: list[tuple[str, str]] = []
    for field_name, base in unit.fields:
        key = (unit.declaring, field_name)
        if cache is not None:
            cached = cache.get_field(key)
            if cached is not None:
                fields[key] = cached
                win("cache")
                continue
        pending.append((field_name, base))

    type_verdict: TypeSatisfiability | None = None
    if unit.type_name is not None:
        if cache is not None:
            cached_type = cache.get_type(unit.type_name)
            if cached_type is not None:
                if find_witnesses and cached_type.tableau_satisfiable:
                    cached_type.bounded = checker._bounded_result(
                        unit.type_name, checker._fresh_budget(None)
                    )
                type_verdict = cached_type
                win("cache")
        if type_verdict is None and checker.lint_precheck:
            diagnostic = checker.lint_verdict(unit.type_name)
            if diagnostic is not None:
                type_verdict = TypeSatisfiability(
                    unit.type_name,
                    tableau_satisfiable=False,
                    decided_by="lint",
                    diagnostic=diagnostic,
                )
                win("lint")
                if cache is not None:
                    cache.put_type(type_verdict)
                # a dead declaring type makes every edge definition dead too
                for field_name, _base in pending:
                    key = (unit.declaring, field_name)
                    fields[key] = False
                    if cache is not None:
                        cache.put_field(key, False)
                pending = []

    # the dataflow-analysis pre-verdict feed: drain elements the fixpoints
    # proved, so the batch concept only carries genuinely open questions.
    # Verdicts are reported exactly as the tableau would report them
    # (decided_by="tableau"), keeping reports byte-identical; only the
    # win/obs accounting records the skipped searches.
    verdicts = checker.analysis_verdicts()
    if verdicts is not None:
        still: list[tuple[str, str]] = []
        for field_name, base in pending:
            key = (unit.declaring, field_name)
            if key in verdicts.fields:
                fields[key] = verdicts.fields[key]
                win("analysis")
                obs.count("sat.analysis.field_hits")
                if cache is not None:
                    cache.put_field(key, verdicts.fields[key])
            else:
                still.append((field_name, base))
        pending = still
        if unit.type_name is not None and type_verdict is None:
            analysis = verdicts.types.get(unit.type_name)
            if analysis is not None:
                bounded = None
                if find_witnesses and analysis:
                    bounded = checker._bounded_result(unit.type_name, None)
                type_verdict = TypeSatisfiability(unit.type_name, analysis, bounded)
                win("analysis")
                obs.count("sat.analysis.type_hits")
                if cache is not None:
                    cache.put_type(type_verdict)

    need_type = unit.type_name is not None and type_verdict is None
    if need_type or pending:
        type_verdict = _decide_batch(
            checker,
            unit,
            pending,
            fields,
            type_verdict,
            need_type,
            find_witnesses,
            race,
            win,
        )
    return UnitResult(unit.index, type_verdict, fields, wins)


def _decide_batch(
    checker: SatisfiabilityChecker,
    unit: SatUnit,
    pending: list[tuple[str, str]],
    fields: dict[tuple[str, str], bool | None],
    type_verdict: TypeSatisfiability | None,
    need_type: bool,
    find_witnesses: bool,
    race: bool,
    win,
) -> TypeSatisfiability | None:
    """Run the batch concept, then stage fallbacks on UNSAT/UNKNOWN."""
    cache = checker.cache
    parts: "list[Concept]" = [Name(unit.declaring)]
    parts.extend(Exists(Role(field_name), Name(base)) for field_name, base in pending)
    batch = parts[0] if len(parts) == 1 else And(tuple(parts))

    race_bounded: "BoundedSearchResult | None" = None
    if race and need_type:
        sat, decided_by, race_bounded = _race_batch(
            checker, unit, batch, tuple(field_name for field_name, _base in pending)
        )
    else:
        sat, decided_by = _tableau_batch(checker, batch)

    if sat is True:
        win(decided_by)
        for field_name, _base in pending:
            key = (unit.declaring, field_name)
            fields[key] = True
            if cache is not None:
                cache.put_field(key, True)
        if need_type:
            bounded = None
            if find_witnesses:
                if race_bounded is not None and race_bounded.satisfiable:
                    bounded = race_bounded
                else:
                    bounded = checker._bounded_result(
                        unit.type_name, checker._fresh_budget(None)
                    )
            type_verdict = TypeSatisfiability(
                unit.type_name, True, bounded, decided_by=decided_by
            )
            if cache is not None:
                cache.put_type(type_verdict)
        return type_verdict

    if sat is False and need_type and not pending:
        # the batch was Name(t) alone: a direct UNSAT verdict
        win(decided_by)
        type_verdict = TypeSatisfiability(unit.type_name, False, decided_by=decided_by)
        if cache is not None:
            cache.put_type(type_verdict)
        return type_verdict

    # batch UNSAT with fields in it, or budget-tripped batch: stage down to
    # the serial per-element procedure (fresh budget renewals per element),
    # which reproduces the serial engine's verdicts exactly.
    if need_type:
        type_verdict = checker.check_type(unit.type_name, find_witness=find_witnesses)
        win(type_verdict.decided_by)
    type_unsat = (
        unit.type_name is not None
        and type_verdict is not None
        and type_verdict.tableau_satisfiable is False
    )
    for field_name, _base in pending:
        key = (unit.declaring, field_name)
        if type_unsat:
            # t ⊓ ∃f.B is subsumed by the unsatisfiable t: False without a
            # search (the serial engine's tableau returns exactly this)
            fields[key] = False
            if cache is not None:
                cache.put_field(key, False)
        else:
            fields[key] = checker.check_field(unit.declaring, field_name)
        win("tableau" if fields[key] is not None else "budget")
    return type_verdict


def _tableau_batch(
    checker: SatisfiabilityChecker, batch: "Concept"
) -> tuple[bool | None, str]:
    """Decide the batch concept with the tableau alone."""
    try:
        return (
            checker.tableau.is_satisfiable(batch, budget=checker._fresh_budget(None)),
            "tableau",
        )
    except BudgetExhaustedError:
        # not decisive; the staged fallback re-checks per element (and
        # re-raises there under on_budget="error")
        return None, "budget"


def _race_batch(
    checker: SatisfiabilityChecker,
    unit: SatUnit,
    batch: "Concept",
    field_names: tuple[str, ...],
) -> "tuple[bool | None, str, BoundedSearchResult | None]":
    """Race the tableau against the bounded finder on one batch concept.

    Each racer gets its own budget (a renewal of the checker's template, or
    a plain unlimited budget serving purely as a cancellation handle); the
    first decisive answer cancels the other racer.  Decisive means: any
    tableau verdict, or a bounded search that *found* a witness.  A bounded
    search that merely failed below its node bound decides nothing.
    """
    template = checker.budget
    budget_tableau = template.renew() if template is not None else Budget()
    budget_bounded = template.renew() if template is not None else Budget()

    def tableau_half() -> "tuple[str, bool | None, BoundedSearchResult | None]":
        try:
            verdict = checker.tableau.is_satisfiable(batch, budget=budget_tableau)
        except BudgetExhaustedError:
            return "tableau", None, None
        return "tableau", verdict, None

    def bounded_half() -> "tuple[str, bool | None, BoundedSearchResult | None]":
        result = checker._finder.find_model(
            unit.type_name,
            checker.bounded_max_nodes,
            budget=budget_bounded,
            require_fields=field_names,
        )
        return "bounded", (True if result.satisfiable else None), result

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(tableau_half), pool.submit(bounded_half)]
        for future in as_completed(futures):
            engine, sat, bounded = future.result()
            if sat is None:
                continue
            if engine == "tableau":
                budget_bounded.cancel()
                obs.count("sat.race.cancelled.bounded")
            else:
                budget_tableau.cancel()
                obs.count("sat.race.cancelled.tableau")
            obs.count(f"sat.race.won.{engine}")
            return sat, engine, bounded
    return None, "budget", None


# --------------------------------------------------------------------------- #
# executor rungs
# --------------------------------------------------------------------------- #


def _thread_check(
    checker: SatisfiabilityChecker,
    unit: SatUnit,
    find_witnesses: bool,
    race: bool,
    attempt: int,
) -> UnitResult:
    faults.fault_point(
        "portfolio.worker", unit=unit.index, attempt=attempt, executor="thread"
    )
    return check_unit(checker, unit, find_witnesses=find_witnesses, race=race)


_WORKER_CHECKER: "SatisfiabilityChecker | None" = None


def _worker_init(
    schema: "GraphQLSchema",
    config: tuple,
    fault_spec: str | None,
    obs_config: dict | None = None,
) -> None:
    """Process-pool initializer: build this worker's checker once."""
    global _WORKER_CHECKER
    faults.mark_worker_process()
    faults.install(fault_spec)
    obs.install_worker(obs_config)
    (
        max_nodes,
        bounded_max_nodes,
        lint_precheck,
        budget,
        on_budget,
        analysis_precheck,
    ) = config
    _WORKER_CHECKER = SatisfiabilityChecker(
        schema,
        max_nodes=max_nodes,
        bounded_max_nodes=bounded_max_nodes,
        lint_precheck=lint_precheck,
        budget=budget,
        on_budget=on_budget,
        analysis_precheck=analysis_precheck,
    )


def _process_check(payload: tuple) -> "UnitResult | obs.TracedResult":
    unit, find_witnesses, race, attempt = payload
    faults.fault_point(
        "portfolio.worker", unit=unit.index, attempt=attempt, executor="process"
    )
    assert _WORKER_CHECKER is not None
    result = check_unit(
        _WORKER_CHECKER, unit, find_witnesses=find_witnesses, race=race
    )
    return obs.package(result)


def _choose_executor(executor: str, jobs: int, units: int) -> str:
    if executor not in _EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
        )
    if executor != "auto":
        return executor
    if jobs <= 1 or units <= 1 or usable_cores() <= 1:
        return "serial"
    # tableau searches are pure-Python CPU work: threads only help while a
    # unit races (its halves overlap); real fan-out speedup needs processes
    return "process" if units >= jobs else "thread"


# --------------------------------------------------------------------------- #
# the driver
# --------------------------------------------------------------------------- #


def run_portfolio(
    checker: SatisfiabilityChecker,
    *,
    find_witnesses: bool = False,
    jobs: int | None = None,
    engine: str = "portfolio",
    executor: str = "auto",
    max_retries: int = 2,
    retry_base_delay: float = 0.05,
    unit_timeout: float | None = None,
    fallback: bool = True,
) -> SchemaSatisfiabilityReport:
    """The portfolio ``check_schema``: batch, fan out, merge, memoize."""
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    race = engine == "race"
    units = build_units(checker.schema)
    if jobs is None:
        jobs = usable_cores()
    jobs = max(1, jobs)
    mode = _choose_executor(executor, jobs, len(units))
    results: "list[UnitResult | None]" = [None] * len(units)
    ladder = ExecutorLadder(
        jobs=jobs,
        max_retries=max_retries,
        retry_base_delay=retry_base_delay,
        task_timeout=unit_timeout,
        fallback=fallback,
        site="satisfiability.portfolio",
        log_key="unit",
        timeout_label="unit_timeout",
    )

    def serial(index: int, attempt: int) -> UnitResult:
        faults.fault_point(
            "portfolio.worker", unit=index, attempt=attempt, executor="serial"
        )
        return check_unit(
            checker, units[index], find_witnesses=find_witnesses, race=race
        )

    def thread_submit(pool, index, attempt):
        return pool.submit(
            _thread_check, checker, units[index], find_witnesses, race, attempt
        )

    def process_submit(pool, index, attempt):
        return pool.submit(_process_check, (units[index], find_witnesses, race, attempt))

    def make_process_pool(workers: int) -> ProcessPoolExecutor:
        config = (
            checker._max_nodes,
            checker.bounded_max_nodes,
            checker.lint_precheck,
            checker.budget,
            checker.on_budget,
            checker.analysis_precheck,
        )
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(checker.schema, config, faults.active_spec(), obs.worker_config()),
        )

    with obs.span(
        "sat.run", engine=engine, executor=mode, jobs=jobs, units=len(units)
    ):
        ladder.run(
            mode,
            range(len(units)),
            results,
            serial=serial,
            thread_submit=thread_submit,
            process_submit=process_submit,
            make_process_pool=make_process_pool,
        )
        checker.last_recovery_log = ladder.recovery_log
        report, wins = _merge(checker, results, absorb_bounded=not race)

    # ``last_profile`` is derived from a per-run metrics registry -- the
    # unified profiling surface -- then folded into the globally observed
    # registry so ``--metrics`` snapshots carry the same counters.
    run_registry = obs.MetricsRegistry()
    run_registry.count("sat.units", len(units))
    for engine_name, win_count in wins.items():
        run_registry.count(f"sat.wins.{engine_name}", win_count)
    checker.last_profile = profile_from_registry(run_registry, engine, mode, jobs)
    observation = obs.active()
    if observation is not None and observation.registry is not None:
        observation.registry.merge_snapshot(run_registry.drain())
    record_report_outcomes(report)
    return report


def _merge(
    checker: SatisfiabilityChecker,
    results: "list[UnitResult | None]",
    absorb_bounded: bool,
) -> tuple[SchemaSatisfiabilityReport, dict[str, int]]:
    """Deterministic merge into canonical report order + cache absorption.

    Results computed in worker processes never touched the parent cache, so
    their verdicts are absorbed here (race-found bounded witnesses are not:
    a ``require_fields`` search may find a different witness than the plain
    one, and the cache must replay exactly what uncached runs compute).
    """
    cache = checker.cache
    wins: dict[str, int] = {}
    by_type: dict[str, TypeSatisfiability] = {}
    field_verdicts: dict[tuple[str, str], bool | None] = {}
    # span-merge barrier: process-worker results arrive wrapped with their
    # recorded spans/metrics when observability is on; absorb them before
    # the deterministic report merge
    results = [obs.unwrap(result) for result in results]
    for result in results:
        assert result is not None  # the ladder fills every index or raises
        for engine, count in result.wins.items():
            wins[engine] = wins.get(engine, 0) + count
        for key, verdict in result.fields.items():
            field_verdicts[key] = verdict
            if cache is not None:
                cache.put_field(key, verdict)
        if result.type_verdict is not None:
            by_type[result.type_verdict.type_name] = result.type_verdict
            if cache is not None:
                cache.put_type(result.type_verdict)
                bounded = result.type_verdict.bounded
                if absorb_bounded and bounded is not None:
                    cache.put_bounded(
                        result.type_verdict.type_name,
                        checker.bounded_max_nodes,
                        bounded,
                    )
    report = SchemaSatisfiabilityReport()
    for type_name in sorted(checker.schema.object_types):
        report.types[type_name] = by_type[type_name]
    for type_name, field_name, field_def in checker.schema.field_declarations():
        if field_def.is_relationship:
            report.fields[(type_name, field_name)] = field_verdicts[
                (type_name, field_name)
            ]
    return report, wins
