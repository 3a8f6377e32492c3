"""Portfolio whole-schema satisfiability: decide in the parent, fan out the rest.

``check_schema`` asks one question per schema element -- every object type
and every relationship (edge) definition.  The serial loop answers them one
at a time.  This module turns the sweep into a portfolio:

* **The decision ladder first, in the calling process.**  Every element
  goes through :meth:`~repro.satisfiability.engine.SatisfiabilityChecker.decision_ladder`
  (verdict cache → dataflow analysis) before any fan-out, so the
  parent's :class:`~repro.satisfiability.cache.SatCache` is what a repeat
  sweep replays, and elements the ladder decides never cost a worker.
* **Batched work units.**  The schema is partitioned into per-declaring-type
  :class:`SatUnit`\\ s; what the ladder leaves open is shipped as a unit
  holding only the open elements.  A unit's single batch concept
  ``t ⊓ ∃f1.B1 ⊓ ... ⊓ ∃fk.Bk`` decides the type *and* all k of its open
  edge definitions with one tableau search when satisfiable (SAT of the
  conjunction implies SAT of every conjunct pair).  Only when the batch is
  UNSAT does the unit fall back to staged per-element checks -- first
  ``t`` alone (UNSAT there settles every field too), then individual
  fields -- reproducing the serial verdicts exactly.
* **Fan-out.**  Each open unit is one task of the shared
  :class:`~repro.resilience.ladder.ExecutorLadder`: the task is
  :func:`check_unit`, its state the parent's checker, and a process worker
  builds its own :class:`~repro.satisfiability.engine.SatisfiabilityChecker`
  once from the schema and the parent's configuration.  The ladder owns
  pools, the ``portfolio.worker`` fault site, retry with backoff and the
  process→serial recovery.  The open units run inline unless ``jobs``
  asks for workers (:func:`~repro.resilience.ladder.choose_rung`): each
  decides in milliseconds, and a pool's start-up cost more than it saved
  on every committed measurement (docs/PERFORMANCE.md).
  Results merge into canonical report order, so reports are
  byte-identical for any ``jobs`` count or rung, and
  process-worker verdicts are absorbed into the parent's cache.

Verdict soundness of the batch decomposition: the batch concept is the
conjunction of the type concept and each field concept, so batch-SAT
implies every element SAT; batch-UNSAT implies nothing per element and is
always followed by per-element re-checks; a budget-tripped batch falls back
to the serial per-element procedure under fresh budget renewals, so typed
UNKNOWNs match the serial engine's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import obs
from ..dl.concepts import And, Exists, Name, Role
from ..errors import BudgetExhaustedError
from ..record import Record
from ..resilience.ladder import ExecutorLadder, choose_rung
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

__all__ = [
    "SatUnit",
    "UnitResult",
    "build_units",
    "check_unit",
    "run_portfolio",
]

class SatUnit(Record):
    """One batched work unit: a declaring type and its relationship fields.

    ``type_name`` is the object type the unit must produce a
    :class:`~repro.satisfiability.engine.TypeSatisfiability` for, or None
    when no type verdict is owed: for interface-declared fields (interfaces
    get no type verdict in the report, only field verdicts), and in an open
    unit whose type the decision ladder already decided.  ``fields`` holds
    ``(field_name, target_base)`` pairs in declaration order.
    """

    index: int
    type_name: str | None
    declaring: str
    fields: tuple[tuple[str, str], ...]


class UnitResult(Record, frozen=False):
    """The picklable outcome of one unit (crosses process boundaries); on
    the process rung it carries the worker cache's lookup deltas."""

    index: int
    type_verdict: TypeSatisfiability | None
    fields: dict[tuple[str, str], bool | None]
    wins: dict[str, int] = {}
    lookups: tuple[int, ...] | None = None

    def win(self, engine: str) -> None:
        self.wins[engine] = self.wins.get(engine, 0) + 1


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


def _ladder_pass(
    checker: SatisfiabilityChecker, unit: SatUnit, find_witnesses: bool
) -> tuple[UnitResult, SatUnit | None]:
    """The decision ladder over one unit's elements, in the calling process.

    Returns what the ladder decided and the open remainder of the unit (None
    when nothing is left for a search).
    """
    decided = UnitResult(unit.index, None, {})
    open_type = None
    if unit.type_name is not None:
        verdict, rung = checker.decision_ladder(
            unit.type_name, find_witness=find_witnesses
        )
        if rung is None:
            open_type = unit.type_name
        else:
            decided.type_verdict = verdict
            decided.win(rung)
    open_fields = []
    for field_name, base in unit.fields:
        verdict, rung = checker.decision_ladder(unit.declaring, field_name)
        if rung is None:
            open_fields.append((field_name, base))
        else:
            decided.fields[(unit.declaring, field_name)] = verdict
            decided.win(rung)
    if open_type is None and not open_fields:
        return decided, None
    return decided, SatUnit(unit.index, open_type, unit.declaring, tuple(open_fields))


# --------------------------------------------------------------------------- #
# the per-unit kernel for open units (runs on either rung: inline or in a
# worker process)
# --------------------------------------------------------------------------- #


def check_unit(
    checker: SatisfiabilityChecker,
    work: tuple[SatUnit, bool],
    attempt: int,
    rung: str,
) -> UnitResult:
    """Decide one open unit: batch concept, then the staged fallback.

    The ladder task of :func:`run_portfolio`: *work* is the unit and whether
    to find witnesses; the verdicts do not depend on *attempt* or
    *rung*."""
    unit, find_witnesses = work
    cache = checker.cache if rung == "process" else None
    before = cache.lookups() if cache is not None else ()
    with obs.span(
        "sat.batch",
        unit=unit.index,
        declaring=unit.declaring,
        fields=len(unit.fields),
    ):
        result = UnitResult(unit.index, None, {})
        result.type_verdict = _decide_batch(checker, unit, result, find_witnesses)
    if cache is not None:
        result.lookups = tuple(now - then for now, then in zip(cache.lookups(), before))
    return result


def _decide_batch(
    checker: SatisfiabilityChecker,
    unit: SatUnit,
    result: UnitResult,
    find_witnesses: bool,
) -> TypeSatisfiability | None:
    """Run the batch concept, then stage fallbacks on UNSAT/UNKNOWN."""
    cache = checker.cache
    fields = result.fields
    parts: "list[Concept]" = [Name(unit.declaring)]
    parts.extend(Exists(Role(field_name), Name(base)) for field_name, base in unit.fields)
    batch = parts[0] if len(parts) == 1 else And(tuple(parts))
    try:
        sat = checker.tableau.is_satisfiable(batch, budget=checker._fresh_budget(None))
    except BudgetExhaustedError:
        # not decisive; the staged fallback re-checks per element (and
        # re-raises there under on_budget="error")
        sat = None

    type_verdict: TypeSatisfiability | None = None
    if sat is True:
        result.win("tableau")
        for field_name, _base in unit.fields:
            key = (unit.declaring, field_name)
            fields[key] = True
            if cache is not None:
                cache.put_field(key, True)
        if unit.type_name is not None:
            bounded = None
            if find_witnesses:
                bounded = checker._bounded_result(
                    unit.type_name, checker._fresh_budget(None)
                )
            type_verdict = TypeSatisfiability(unit.type_name, True, bounded)
            if cache is not None:
                cache.put_type(type_verdict)
        return type_verdict

    if sat is False and unit.type_name is not None and not unit.fields:
        # the batch was Name(t) alone: a direct UNSAT verdict
        result.win("tableau")
        type_verdict = TypeSatisfiability(unit.type_name, False)
        if cache is not None:
            cache.put_type(type_verdict)
        return type_verdict

    # batch UNSAT with fields in it, or budget-tripped batch: stage down to
    # the serial per-element procedure (fresh budget renewals per element),
    # which reproduces the serial engine's verdicts exactly.
    if unit.type_name is not None:
        type_verdict = checker.check_type(unit.type_name, find_witness=find_witnesses)
        result.win(type_verdict.decided_by)
    type_unsat = type_verdict is not None and type_verdict.tableau_satisfiable is False
    for field_name, _base in unit.fields:
        key = (unit.declaring, field_name)
        if type_unsat:
            # t ⊓ ∃f.B is subsumed by the unsatisfiable t: False without a
            # search (the serial engine's tableau returns exactly this)
            fields[key] = False
            if cache is not None:
                cache.put_field(key, False)
        else:
            fields[key] = checker.check_field(unit.declaring, field_name)
        result.win("tableau" if fields[key] is not None else "budget")
    return type_verdict


# --------------------------------------------------------------------------- #
# the driver
# --------------------------------------------------------------------------- #


def run_portfolio(
    checker: SatisfiabilityChecker,
    *,
    find_witnesses: bool = False,
    jobs: int | None = None,
    unit_timeout: float | None = None,
) -> SchemaSatisfiabilityReport:
    """The portfolio ``check_schema``: ladder, batch, fan out, merge, memoize.

    The open units run inline unless ``jobs`` asks for workers: the rung is
    :func:`~repro.resilience.ladder.choose_rung`'s, whose size test here is
    "at least ``jobs`` units left open by the decision ladder"."""
    units = build_units(checker.schema)
    decided: list[UnitResult] = []
    open_units: dict[int, SatUnit] = {}
    worked: "list[UnitResult | None]" = [None] * len(units)

    with obs.span("sat.run", engine="portfolio", units=len(units)) as span:
        for unit in units:
            with obs.span(
                "sat.unit",
                unit=unit.index,
                declaring=unit.declaring,
                fields=len(unit.fields),
            ):
                result, remainder = _ladder_pass(checker, unit, find_witnesses)
            decided.append(result)
            if remainder is not None:
                open_units[unit.index] = remainder
        mode, width = choose_rung(jobs, len(open_units) >= (jobs or 1))
        span.set(executor=mode, jobs=width, open=len(open_units))
        ladder = ExecutorLadder(
            jobs=width,
            task_timeout=unit_timeout,
            site="satisfiability.portfolio",
            log_key="unit",
        )
        ladder.run(
            mode,
            check_unit,
            checker,
            {index: (unit, find_witnesses) for index, unit in open_units.items()},
            worked,
            "portfolio.worker",
            # cache=True: each worker keeps its own schema-keyed cache
            worker=(
                SatisfiabilityChecker,
                (
                    checker.schema,
                    checker._max_nodes,
                    checker.bounded_max_nodes,
                    checker.budget,
                    checker.on_budget,
                    True,
                    checker.analysis_precheck,
                ),
            ),
        )
        checker.last_recovery_log = ladder.recovery_log
        report, wins = _merge(checker, decided, [worked[index] for index in open_units])

    # ``last_profile`` is derived from a per-run metrics registry -- the
    # unified profiling surface -- then folded into the globally observed
    # registry so ``--metrics`` snapshots carry the same counters.
    run_registry = obs.MetricsRegistry()
    run_registry.count("sat.units", len(units))
    run_registry.count("sat.units.open", len(open_units))
    for engine_name, win_count in wins.items():
        run_registry.count(f"sat.wins.{engine_name}", win_count)
    checker.last_profile = profile_from_registry(run_registry, "portfolio", mode, width)
    observation = obs.active()
    if observation is not None and observation.registry is not None:
        observation.registry.merge_snapshot(run_registry.drain())
    record_report_outcomes(report)
    return report


def _merge(
    checker: SatisfiabilityChecker,
    decided: list[UnitResult],
    worked: list[UnitResult],
) -> tuple[SchemaSatisfiabilityReport, dict[str, int]]:
    """Deterministic merge into canonical report order + cache absorption.

    *decided* holds the ladder's verdicts (already in the parent's cache);
    *worked* the open units' results.  Results computed in worker processes
    never touched the parent cache, so their verdicts are absorbed here and
    their cache lookups added to its counters.
    """
    cache = checker.cache
    if cache is not None:
        for result in worked:
            if result.lookups is not None:
                cache.add_lookups(result.lookups)
            for key, verdict in result.fields.items():
                cache.put_field(key, verdict)
            verdict = result.type_verdict
            if verdict is not None:
                cache.put_type(verdict)
                if verdict.bounded is not None:
                    cache.put_bounded(
                        verdict.type_name, checker.bounded_max_nodes, verdict.bounded
                    )
    wins: dict[str, int] = {}
    by_type: dict[str, TypeSatisfiability] = {}
    field_verdicts: dict[tuple[str, str], bool | None] = {}
    for result in decided + worked:
        for engine, count in result.wins.items():
            wins[engine] = wins.get(engine, 0) + count
        field_verdicts.update(result.fields)
        if result.type_verdict is not None:
            by_type[result.type_verdict.type_name] = result.type_verdict
    report = SchemaSatisfiabilityReport()
    for type_name in sorted(checker.schema.object_types):
        report.types[type_name] = by_type[type_name]
    for type_name, field_name, field_def in checker.schema.field_declarations():
        if field_def.is_relationship:
            report.fields[(type_name, field_name)] = field_verdicts[
                (type_name, field_name)
            ]
    return report, wins
