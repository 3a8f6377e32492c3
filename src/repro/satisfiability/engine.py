"""Object-type satisfiability: the decision engines of Section 6.2.

:class:`SatisfiabilityChecker` offers:

* ``check_type`` -- the decision ladder (:meth:`~SatisfiabilityChecker.decision_ladder`:
  verdict cache, then the one static rung, the dataflow analysis of
  :func:`repro.analysis.sat_preverdicts`), then, for a type the ladder
  leaves open, the paper's procedure (Theorem 3): translate the schema to
  an ALCQI TBox and run the tableau.  An analysis verdict (e.g. Example
  6.1's conflicting-cardinality class) reports ``decided_by="analysis"``,
  an UNSAT one with the PG011 finding, and no tableau is ever built.  The
  tableau decides satisfiability over *unrestricted* (possibly infinite)
  models; the analysis is sound for exactly that semantics.
* ``check_type_finite`` -- bounded search for an actual witness Property
  Graph.  Property Graphs are finite, so this is the semantics the paper's
  Definition of satisfiability literally asks for; ALCQI lacks the finite
  model property, and the two engines can diverge on schemas that force
  infinite models (the paper's diagram (b); see EXPERIMENTS.md).
* ``check_field`` -- edge-definition satisfiability via the paper's §6.2
  reduction: an edge definition (t, f) is populatable iff the concept
  ``t ⊓ ∃f.basetype(type_S(t, f))`` is satisfiable.  The same ladder runs
  first.
* ``check_schema`` -- the whole-schema soundness report the paper motivates
  ("every part of the schema can be populated").  The default is the
  *portfolio* engine (:mod:`repro.satisfiability.portfolio`): the ladder
  runs over every element in the calling process, and only per-type work
  units with open elements are batched into single tableau searches and
  fanned over the executor ladder (``jobs=``).  ``engine="serial"`` is the
  element-by-element loop over ``check_type``/``check_field``; both engines
  produce byte-identical reports for any ``jobs``.

Checker instances are cheap: the tableau and the bounded finder are built
lazily *per thread* (a tableau's completion-tree state is not shareable
across concurrent checks), all threads share one TBox, one analysis
pre-verdict feed and one :class:`~repro.satisfiability.cache.SatCache`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from .. import obs
from ..dl.concepts import And, Concept, Exists, Name, Role
from ..errors import BudgetExhaustedError, BudgetReason, check_on_budget
from ..lint.diagnostics import Diagnostic
from ..record import Record
from .bounded import BoundedModelFinder, BoundedSearchResult
from .cache import SatCache, sat_cache_for

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis import SatPreVerdicts
    from ..dl.tableau import Tableau
    from ..dl.tbox import TBox
    from ..pg.model import PropertyGraph
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema

_ENGINES = ("portfolio", "serial")


def profile_from_registry(
    registry: "obs.MetricsRegistry", engine: str, rung: str, jobs: int
) -> dict:
    """Derive the ``last_profile`` dict from a per-run metrics registry.

    Every ``check_schema`` run records its unit count and per-engine win
    counts into a private :class:`~repro.obs.MetricsRegistry`
    (``sat.units``, ``sat.wins.<engine>``); this renders that registry in
    the historical ``last_profile`` shape -- the JSON keys ``engine``,
    ``executor``, ``jobs``, ``units`` and ``wins`` are frozen by golden
    tests, so profiling surfaces stay backward-compatible while the
    registry is the single source of truth.
    """
    snapshot = registry.snapshot()
    prefix = "sat.wins."
    wins = {
        name[len(prefix):]: int(value)
        for name, value in snapshot["counters"].items()
        if name.startswith(prefix)
    }
    return {
        "engine": engine,
        "executor": rung,
        "jobs": jobs,
        "units": int(snapshot["counters"].get("sat.units", 0)),
        "wins": wins,
    }


def record_report_outcomes(report: "SchemaSatisfiabilityReport") -> None:
    """Count per-element verdicts of one ``check_schema`` run into the
    active metrics registry (``sat.types.sat`` / ``sat.fields.unknown`` /
    ...).  No-op when observation is off."""
    observation = obs.active()
    if observation is None or observation.registry is None:
        return
    registry = observation.registry
    for verdict in report.types.values():
        registry.count(f"sat.types.{verdict.verdict}")
    for ok in report.fields.values():
        outcome = "sat" if ok else ("unsat" if ok is False else "unknown")
        registry.count(f"sat.fields.{outcome}")


class TypeSatisfiability(Record, frozen=False):
    """The verdicts for one object type.

    ``tableau_satisfiable`` is three-valued: True/False for a decided
    SAT/UNSAT, None when an execution budget ran out first -- the
    structured cause is then in ``reason`` and ``decided_by`` is
    ``"budget"``.  ``decided_by`` otherwise records which engine produced
    the verdict: ``"analysis"`` when the dataflow analysis proved it (no
    tableau ran; for an UNSAT type ``diagnostic`` holds the PG011 finding),
    or ``"tableau"`` for the Theorem-3 decision.
    """

    type_name: str
    tableau_satisfiable: bool | None
    bounded: BoundedSearchResult | None = None
    decided_by: str = "tableau"
    diagnostic: Diagnostic | None = None
    reason: "BudgetReason | None" = None

    @property
    def verdict(self) -> str:
        """``"sat"``, ``"unsat"`` or ``"unknown"`` (budget exhausted)."""
        if self.tableau_satisfiable is None:
            return "unknown"
        return "sat" if self.tableau_satisfiable else "unsat"

    def without_witness(self) -> "TypeSatisfiability":
        """A copy with no bounded search attached."""
        fields = (self.decided_by, self.diagnostic, self.reason)
        return TypeSatisfiability(self.type_name, self.tableau_satisfiable, None, *fields)

    @property
    def witness(self) -> "PropertyGraph | None":
        return self.bounded.witness if self.bounded else None

    @property
    def finitely_satisfiable(self) -> bool | None:
        """True when a finite witness exists, None when unknown (the bounded
        search failed -- or never completed -- but the tableau says
        satisfiable, or the whole check ran out of budget), False when the
        tableau proves unsatisfiability (no models at all)."""
        if self.bounded is not None and self.bounded.satisfiable:
            return True
        if self.tableau_satisfiable is False:
            return False
        return None


class SchemaSatisfiabilityReport(Record, frozen=False):
    """Per-element satisfiability of a whole schema (§6.2's soundness check)."""

    types: dict[str, TypeSatisfiability] = {}
    fields: dict[tuple[str, str], bool | None] = {}

    @property
    def unsatisfiable_types(self) -> list[str]:
        return sorted(
            name
            for name, verdict in self.types.items()
            if verdict.tableau_satisfiable is False
        )

    @property
    def unknown_types(self) -> list[str]:
        """Types whose check ran out of budget (no verdict either way)."""
        return sorted(
            name
            for name, verdict in self.types.items()
            if verdict.tableau_satisfiable is None
        )

    @property
    def unsatisfiable_fields(self) -> list[tuple[str, str]]:
        return sorted(key for key, ok in self.fields.items() if ok is False)

    @property
    def unknown_fields(self) -> list[tuple[str, str]]:
        return sorted(key for key, ok in self.fields.items() if ok is None)

    @property
    def sound(self) -> bool:
        """Every object type and every relationship definition is *proven*
        populatable -- budget-exhausted (unknown) elements count against
        soundness because nothing was proven about them."""
        return not (
            self.unsatisfiable_types
            or self.unsatisfiable_fields
            or self.unknown_types
            or self.unknown_fields
        )

    def to_json(self) -> dict:
        """A canonical, JSON-serializable rendering of every verdict.

        Deterministic engines produce byte-identical dumps for any ``jobs``
        count or rung -- the portfolio determinism tests serialize
        reports through this and compare the bytes.
        """
        types = {}
        for name in sorted(self.types):
            verdict = self.types[name]
            entry: dict = {
                "verdict": verdict.verdict,
                "decided_by": verdict.decided_by,
            }
            if verdict.diagnostic is not None:
                entry["diagnostic"] = verdict.diagnostic.code
            if verdict.reason is not None:
                entry["reason"] = str(verdict.reason)
            if verdict.bounded is not None:
                bounded = verdict.bounded
                entry["bounded"] = {
                    "satisfiable": bounded.satisfiable,
                    "bound": bounded.bound,
                    "witness_size": (
                        len(bounded.witness) if bounded.witness is not None else None
                    ),
                }
            types[name] = entry
        fields = {
            f"{type_name}.{field_name}": ok
            for (type_name, field_name), ok in sorted(self.fields.items())
        }
        return {"sound": self.sound, "types": types, "fields": fields}

    def summary(self) -> str:
        if self.sound:
            return f"sound: all {len(self.types)} object types populatable"
        parts = []
        if self.unsatisfiable_types:
            parts.append("unsatisfiable types: " + ", ".join(self.unsatisfiable_types))
        if self.unsatisfiable_fields:
            parts.append(
                "unpopulatable edges: "
                + ", ".join(f"{t}.{f}" for t, f in self.unsatisfiable_fields)
            )
        if self.unknown_types:
            parts.append(
                "undecided (budget): " + ", ".join(self.unknown_types)
            )
        if self.unknown_fields:
            parts.append(
                "undecided edges (budget): "
                + ", ".join(f"{t}.{f}" for t, f in self.unknown_fields)
            )
        return "; ".join(parts)


class SatisfiabilityChecker:
    """Object-type satisfiability over one (possibly inconsistent) schema."""

    def __init__(
        self,
        schema: "GraphQLSchema",
        max_nodes: int = 5000,
        bounded_max_nodes: int = 4,
        budget: "Budget | None" = None,
        on_budget: str = "unknown",
        cache: "bool | SatCache" = True,
        analysis_precheck: bool = True,
    ) -> None:
        """``budget`` is a *template*: every ``check_type``/``check_field``
        call runs under a fresh :meth:`~repro.resilience.Budget.renew` of
        it, so one pathological type cannot starve the rest of a
        ``check_schema`` sweep.  ``on_budget`` decides what exhaustion
        yields: ``"unknown"`` (default) returns a typed UNKNOWN verdict
        with the structured reason attached, ``"error"`` re-raises the
        :class:`~repro.errors.BudgetExhaustedError`.

        ``cache`` controls verdict memoization: True (default) attaches the
        schema's shared :func:`~repro.satisfiability.cache.sat_cache_for`
        cache (verdicts replay across calls and checker instances), False
        disables caching entirely, and an explicit
        :class:`~repro.satisfiability.cache.SatCache` uses that instance.
        A checker given a custom ``budget`` template, or with the analysis
        off, gets a *private* cache under ``cache=True``: a shared hit
        decided under somebody else's budget, or by the analysis, would
        bypass exactly the limit being studied or the tableau asked for.

        ``analysis_precheck`` enables the static rung
        (:func:`repro.analysis.sat_preverdicts`), consulted after the cache
        and before any tableau, budgeted or not; turning it off is the one
        way to make the tableau decide every element.
        """
        check_on_budget(on_budget)
        self.schema = schema
        self.bounded_max_nodes = bounded_max_nodes
        self.analysis_precheck = analysis_precheck
        self.budget = budget
        self.on_budget = on_budget
        self._max_nodes = max_nodes
        self._tbox: "TBox | None" = None
        self._tbox_lock = threading.Lock()
        self._analysis_verdicts: "SatPreVerdicts | None" = None
        if cache is True:
            private = budget is not None or not analysis_precheck
            self.cache: "SatCache | None" = (
                SatCache(schema) if private else sat_cache_for(schema)
            )
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        #: profile of the last ``check_schema`` run (engine win counts,
        #: executor, unit count) -- filled by the portfolio driver.
        self.last_profile: dict | None = None
        #: worker-recovery events of the last portfolio ``check_schema``.
        self.last_recovery_log: list[dict] = []
        self._field_concepts: dict[tuple[str, str], Concept] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # lazy components: the decision ladder can decide without either.
    # The tableau and the bounded finder hold per-search mutable state, so
    # they are built per *thread* (service threads may share a checker);
    # the TBox, analysis verdicts and SatCache are shared.
    # ------------------------------------------------------------------ #

    @property
    def tbox(self) -> "TBox":
        """The ALCQI translation, built on first tableau use."""
        if self._tbox is None:
            with self._tbox_lock:
                if self._tbox is None:
                    from ..dl.translate import schema_to_tbox

                    self._tbox = schema_to_tbox(self.schema)
        return self._tbox

    @property
    def tableau(self) -> Tableau:
        """This thread's Theorem-3 tableau, built on first use (all threads
        share one TBox and, through ``label_cache``, one set of proved
        root-label verdicts)."""
        tableau = getattr(self._local, "tableau", None)
        if tableau is None:
            from ..dl.tableau import Tableau

            tableau = Tableau(self.tbox, max_nodes=self._max_nodes)
            if self.cache is not None:
                tableau.label_cache = self.cache.labels
            self._local.tableau = tableau
        return tableau

    @property
    def _finder(self) -> BoundedModelFinder:
        """This thread's bounded finite-model finder, built on first use."""
        finder = getattr(self._local, "finder", None)
        if finder is None:
            finder = BoundedModelFinder(self.schema)
            self._local.finder = finder
        return finder

    def analysis_verdicts(self) -> "SatPreVerdicts | None":
        """The dataflow-analysis pre-verdict feed, or None when disabled.

        Computed lazily once per checker (a racing thread computes an equal
        feed); None when ``analysis_precheck`` is off.
        """
        if not self.analysis_precheck:
            return None
        if self._analysis_verdicts is None:
            from ..analysis import sat_preverdicts

            self._analysis_verdicts = sat_preverdicts(self.schema)
        return self._analysis_verdicts

    def _fresh_budget(self, override: "Budget | None") -> "Budget | None":
        """The per-call budget: an explicit override as-is, else a renewed
        copy of the template (fresh deadline/counters per check)."""
        if override is not None:
            return override
        return self.budget.renew() if self.budget is not None else None

    # ------------------------------------------------------------------ #

    def decision_ladder(
        self,
        type_name: str,
        field_name: str | None = None,
        *,
        find_witness: bool = False,
        budget: "Budget | None" = None,
    ) -> "tuple[TypeSatisfiability | bool | None, str | None]":
        """Decide one element without a search: cache → analysis.

        The element is the object type *type_name*, or the edge definition
        (*type_name*, *field_name*).  Returns ``(verdict, rung)``: a
        :class:`TypeSatisfiability` (type) or a bool (edge definition) and
        the rung that decided it -- ``"cache"`` or ``"analysis"`` -- or
        ``(None, None)`` when the element is still open and needs the
        tableau.  Verdicts decided below the cache are stored in it; a
        satisfiable type gets its bounded witness re-attached or computed
        when *find_witness* asks for one.

        The analysis is polynomial and runs under any budget after a
        deadline check: a per-call *budget* already past its deadline leaves
        the element to the tableau, which reports the expiry.
        """
        cache = self.cache
        key = (type_name, field_name)
        verdict: "TypeSatisfiability | bool | None" = None
        if cache is not None:
            verdict = (
                cache.get_type(type_name) if field_name is None else cache.get_field(key)
            )
        rung = None if verdict is None else "cache"
        expired = budget is not None and budget.remaining_seconds() == 0.0
        verdicts = self.analysis_verdicts() if rung is None and not expired else None
        if verdicts is not None:
            if field_name is None and type_name in verdicts.types:
                rung = "analysis"
                diagnostic = verdicts.diagnostics.get(type_name)
                verdict = TypeSatisfiability(
                    type_name, verdicts.types[type_name], None, "analysis", diagnostic
                )
                obs.count("sat.analysis.type_hits")
            elif field_name is not None and key in verdicts.fields:
                rung = "analysis"
                verdict = verdicts.fields[key]
                obs.count("sat.analysis.field_hits")
        if rung is None:
            return None, None
        if isinstance(verdict, TypeSatisfiability):
            if cache is not None and rung != "cache":
                cache.put_type(verdict)
            if find_witness and verdict.tableau_satisfiable:
                verdict.bounded = self._bounded_result(
                    type_name, self._fresh_budget(budget)
                )
        elif cache is not None and rung != "cache":
            cache.put_field(key, verdict)
        return verdict, rung

    def is_satisfiable(
        self, object_type: str, budget: "Budget | None" = None
    ) -> bool:
        """The Section-6.2 decision: the decision ladder, then Theorem 3.

        When a ladder rung decides the type the tableau is bypassed (and
        never constructed); otherwise the tableau decides.  A boolean
        cannot express UNKNOWN, so budget exhaustion always raises here
        regardless of ``on_budget``; use :meth:`check_type` for the
        graceful three-valued verdict.
        """
        verdict, rung = self.decision_ladder(object_type, budget=budget)
        if rung is not None:
            return verdict.tableau_satisfiable
        return self.tableau.is_satisfiable(
            Name(object_type), budget=self._fresh_budget(budget)
        )

    def check_type(
        self,
        object_type: str,
        find_witness: bool = True,
        budget: "Budget | None" = None,
    ) -> TypeSatisfiability:
        """The full verdict for one object type.

        Runs the :meth:`decision_ladder` first; an analysis verdict returns
        at once (``decided_by="analysis"``).  Otherwise falls back to the
        tableau (plus the bounded witness search when requested).  Under an
        exhausted budget the result is a typed UNKNOWN (``verdict ==
        "unknown"``, structured ``reason``) -- never a wrong SAT/UNSAT --
        unless ``on_budget="error"`` asked for the exception.

        Decided verdicts are memoized in the attached
        :class:`~repro.satisfiability.cache.SatCache`; a later call (from
        any checker over the same schema) replays the stored verdict,
        re-attaching a bounded witness per the caller's ``find_witness``.
        """
        with obs.span("sat.check_type", type=object_type):
            return self._check_type(object_type, find_witness, budget)

    def _check_type(
        self,
        object_type: str,
        find_witness: bool,
        budget: "Budget | None",
    ) -> TypeSatisfiability:
        verdict, rung = self.decision_ladder(
            object_type, find_witness=find_witness, budget=budget
        )
        if rung is not None:
            return verdict
        run_budget = self._fresh_budget(budget)
        try:
            tableau_verdict = self.tableau.is_satisfiable(
                Name(object_type), budget=run_budget
            )
        except BudgetExhaustedError as stop:
            if self.on_budget == "error":
                raise
            return TypeSatisfiability(
                object_type,
                tableau_satisfiable=None,
                decided_by="budget",
                reason=stop.reason,
            )
        bounded = None
        if find_witness and tableau_verdict:
            bounded = self._bounded_result(object_type, run_budget)
        verdict = TypeSatisfiability(object_type, tableau_verdict, bounded)
        if self.cache is not None:
            self.cache.put_type(verdict)
        return verdict

    def _bounded_result(
        self, object_type: str, budget: "Budget | None"
    ) -> BoundedSearchResult:
        """The bounded witness search at the default bound, memoized."""
        cache = self.cache
        if cache is not None:
            cached = cache.get_bounded(object_type, self.bounded_max_nodes)
            if cached is not None:
                return cached
        result = self._finder.find_model(
            object_type, self.bounded_max_nodes, budget=budget
        )
        if cache is not None:
            cache.put_bounded(object_type, self.bounded_max_nodes, result)
        return result

    def check_type_finite(
        self,
        object_type: str,
        max_nodes: int | None = None,
        budget: "Budget | None" = None,
    ) -> BoundedSearchResult:
        """Finite-model search only (the paper's literal semantics)."""
        return self._finder.find_model(
            object_type,
            max_nodes or self.bounded_max_nodes,
            budget=self._fresh_budget(budget),
        )

    def check_field(
        self, type_name: str, field_name: str, budget: "Budget | None" = None
    ) -> bool | None:
        """§6.2: is the edge definition (t, f) populatable?

        Equivalent to adding ``@required`` to the field and asking whether
        the declaring type remains satisfiable: the concept
        ``t ⊓ ∃f.basetype`` must be satisfiable.  Returns None (unknown)
        when the budget runs out under ``on_budget="unknown"``.  Decided
        verdicts are memoized like :meth:`check_type`'s.
        """
        field_def = self.schema.field(type_name, field_name)
        if field_def is None or field_def.is_attribute:
            raise ValueError(f"{type_name}.{field_name} is not a relationship definition")
        verdict, rung = self.decision_ladder(type_name, field_name, budget=budget)
        if rung is not None:
            return verdict
        concept = self._field_concept(type_name, field_name, field_def.type.base)
        try:
            verdict = self.tableau.is_satisfiable(
                concept, budget=self._fresh_budget(budget)
            )
        except BudgetExhaustedError:
            if self.on_budget == "error":
                raise
            return None
        if self.cache is not None:
            self.cache.put_field((type_name, field_name), verdict)
        return verdict

    def _field_concept(
        self, type_name: str, field_name: str, base: str
    ) -> Concept:
        """The §6.2 edge-populatability concept, built once per field."""
        key = (type_name, field_name)
        concept = self._field_concepts.get(key)
        if concept is None:
            concept = And(
                (Name(type_name), Exists(Role(field_name), Name(base)))
            )
            self._field_concepts[key] = concept
        return concept

    def check_schema(
        self,
        find_witnesses: bool = False,
        *,
        jobs: int | None = None,
        engine: str = "portfolio",
        unit_timeout: float | None = None,
    ) -> SchemaSatisfiabilityReport:
        """Check every object type and every relationship definition.

        ``engine`` selects the whole-schema strategy:

        * ``"portfolio"`` (default) -- the :meth:`decision_ladder` over
          every element in this process, then per-type batched work units
          holding the still-open elements, run inline unless ``jobs`` asks
          for workers (then over the executor ladder's process rung, when
          at least ``jobs`` units stay open); deterministic, so reports are
          byte-identical to ``"serial"`` for any ``jobs``.
        * ``"serial"`` -- the element-by-element loop over
          :meth:`check_type` and :meth:`check_field`.

        ``unit_timeout`` is the stuck-worker ceiling of the executor ladder.
        After any run, ``self.last_profile`` holds the rung used (key
        ``executor``), unit count and per-engine win counts.
        """
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
        if engine == "serial":
            self.last_recovery_log = []
            # the serial sweep has no batched units and tracks no wins: its
            # profile is an empty run registry rendered in the legacy shape
            self.last_profile = profile_from_registry(
                obs.MetricsRegistry(), "serial", "serial", 1
            )
            with obs.span("sat.run", engine="serial", jobs=1):
                report = self._check_schema_serial(find_witnesses)
            record_report_outcomes(report)
            return report
        from .portfolio import run_portfolio

        return run_portfolio(
            self,
            find_witnesses=find_witnesses,
            jobs=jobs,
            unit_timeout=unit_timeout,
        )

    def _check_schema_serial(
        self, find_witnesses: bool = False
    ) -> SchemaSatisfiabilityReport:
        """The reference element-by-element sweep (``engine="serial"``)."""
        report = SchemaSatisfiabilityReport()
        for type_name in sorted(self.schema.object_types):
            report.types[type_name] = self.check_type(
                type_name, find_witness=find_witnesses
            )
        for type_name, field_name, field_def in self.schema.field_declarations():
            if field_def.is_relationship:
                report.fields[(type_name, field_name)] = self.check_field(
                    type_name, field_name
                )
        return report
