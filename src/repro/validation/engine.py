"""Facade over the validation engines.

:func:`validate` decides the Schema Validation Problem of Section 6.1 for
one (schema, graph) pair; the convenience predicates mirror the paper's
three satisfaction notions.

The default engine is ``"parallel"``: the fused plan kernel
(:func:`repro.validation.parallel.validate_shard`), which checks every rule
in one pass per element -- the shape Theorem 1's AC0 bound describes.
Without ``jobs`` it runs inline on one shard; an explicit ``jobs`` shards
it, over a process pool on a large graph.  ``"indexed"`` (one pass per rule) stays
available as a reference engine; the incremental validator and the bounded
model finder run the plan kernel too.

Validator construction goes through the compiled-plan cache
(:func:`repro.validation.plan.compile_plan`), so repeated ``validate()``
calls against the same schema no longer repay the schema-analysis cost
(site tables, label closures) on every call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .parallel import ParallelValidator
from .plan import compile_plan
from .violations import ValidationReport

if TYPE_CHECKING:  # pragma: no cover
    from ..pg.model import PropertyGraph
    from ..resilience import Budget
    from ..schema.model import GraphQLSchema

ENGINES = ("indexed", "naive", "parallel")


def make_validator(
    schema: "GraphQLSchema",
    engine: str = "parallel",
    jobs: int | None = None,
    budget: "Budget | None" = None,
    on_budget: str = "unknown",
):
    """Instantiate a validator by engine name.

    Args:
        engine: ``"parallel"`` (default), ``"indexed"`` or ``"naive"``.
        jobs: Worker count for the parallel engine.  None (default) runs
            its kernel inline on one shard; an explicit count shards it,
            over a process pool on a large graph.  Ignored by the
            sequential engines.
        budget: Template :class:`~repro.resilience.Budget`; each
            ``validate()`` call runs under a fresh renewal of it.
        on_budget: ``"unknown"`` (default) turns budget exhaustion into a
            partial report with ``complete=False``; ``"error"`` raises
            :class:`~repro.errors.BudgetExhaustedError` instead.
    """
    if engine == "indexed":
        from .indexed import IndexedValidator

        return IndexedValidator(
            schema, plan=compile_plan(schema), budget=budget, on_budget=on_budget
        )
    if engine == "naive":
        from .naive import NaiveValidator

        return NaiveValidator(schema, budget=budget, on_budget=on_budget)
    if engine == "parallel":
        return ParallelValidator(
            schema,
            jobs=jobs,
            plan=compile_plan(schema),
            budget=budget,
            on_budget=on_budget,
        )
    raise ValueError(f"unknown validation engine: {engine!r}")


def validate(
    schema: "GraphQLSchema",
    graph: "PropertyGraph",
    mode: str = "strong",
    engine: str = "parallel",
    jobs: int | None = None,
    budget: "Budget | None" = None,
    on_budget: str = "unknown",
) -> ValidationReport:
    """Validate *graph* against *schema*.

    Args:
        mode: ``"weak"`` (Definition 5.1), ``"directives"`` (Definition 5.2)
            or ``"strong"`` (Definition 5.3, the default -- this is the
            Schema Validation Problem).
        engine: ``"parallel"`` (the fused plan kernel; default),
            ``"indexed"`` (one pass per rule) or ``"naive"``
            (quantifier-faithful baseline).
        jobs: Worker count for the parallel engine; None (default) runs
            the kernel inline, without a pool.
        budget: Optional execution budget; when it runs out the report is
            returned *partial* (``complete=False``, ``verdict=="unknown"``
            unless violations were already found) rather than wrong.
        on_budget: ``"unknown"`` or ``"error"`` -- see :func:`make_validator`.
    """
    return make_validator(
        schema, engine, jobs=jobs, budget=budget, on_budget=on_budget
    ).validate(graph, mode)


def weakly_satisfies(schema: "GraphQLSchema", graph: "PropertyGraph") -> bool:
    """Definition 5.1: does the graph weakly satisfy the schema?"""
    return validate(schema, graph, mode="weak").conforms


def satisfies_directives(schema: "GraphQLSchema", graph: "PropertyGraph") -> bool:
    """Definition 5.2: does the graph satisfy the schema's directives?"""
    return validate(schema, graph, mode="directives").conforms


def strongly_satisfies(schema: "GraphQLSchema", graph: "PropertyGraph") -> bool:
    """Definition 5.3: does the graph strongly satisfy the schema?"""
    return validate(schema, graph, mode="strong").conforms
