"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one base class.  Subsystems refine it:

* :class:`GraphError` -- malformed Property Graphs (Definition 2.1 violations
  such as reusing an identifier for both a node and an edge).
* :class:`GraphLoadError` -- a graph *document* (JSON on disk) that cannot
  even be decoded into a Property Graph, carrying file/offset context.
* :class:`SDLSyntaxError` -- lexer/parser failures, carrying a source position.
* :class:`SchemaError` -- a schema that cannot be built (unknown types,
  inadmissible wrapping shapes, duplicate definitions).
* :class:`ConsistencyError` -- a schema that violates interface or directives
  consistency (Definitions 4.3/4.4); such schemas are rejected before
  validation, because the paper assumes all schemas are consistent.
* :class:`QueryError` -- errors in the GraphQL-API extension (Section 3.6).
* :class:`BudgetExhaustedError` -- a cooperative execution budget (deadline,
  node count, expansion count, memory estimate) ran out before a decision
  procedure finished; carries a structured :class:`BudgetReason`.
* :class:`WorkerFailureError` -- a parallel-validation shard could not be
  completed even after retries and executor fallback.
* :class:`FaultConfigError` -- a malformed ``PGSCHEMA_FAULTS`` specification.
* :class:`ServiceError` / :class:`OverloadedError` -- the schema-registry
  service cannot start (bad registry dir, unbindable address) or sheds load
  (admission queue full; surfaced to HTTP clients as a typed 503).

Uniform taxonomy: every class carries a stable machine-readable ``code``
(``E_...``) and the CLI ``exit_code`` it maps to.  Command-line error
rendering goes through :func:`render_error` so every subcommand reports
failures the same way (one line, code included).
"""

from __future__ import annotations

from .record import Record


class ReproError(Exception):
    """Base class for all errors raised by this library.

    Class attributes:
        code: Stable machine-readable identifier (``E_...``), safe to match
            on across releases.
        exit_code: The process exit status the CLI maps this error to.
    """

    code = "E_GENERIC"
    exit_code = 2


class GraphError(ReproError):
    """A Property Graph violates the structural rules of Definition 2.1."""

    code = "E_GRAPH"


class GraphLoadError(GraphError):
    """A graph document (JSON) could not be decoded into a Property Graph.

    Raised for malformed/truncated JSON, wrong top-level shapes, and missing
    required keys -- always with enough context (source name, element index,
    line/column/offset where known) to locate the problem.  An error placed
    on a line without a column is at the line's column 1.  ``unit`` names
    what the offset counts: ``"char"`` in decoded text, ``"byte"`` in a
    file read in binary.
    """

    code = "E_LOAD"

    def __init__(
        self,
        message: str,
        *,
        source: str | None = None,
        line: int | None = None,
        column: int | None = None,
        offset: int | None = None,
        unit: str = "char",
    ) -> None:
        if line is not None and column is None:
            column = 1
        self.source = source
        self.line = line
        self.column = column
        self.offset = offset
        where = ""
        if source:
            where = f" in {source}"
        if line is not None:
            where += f" at line {line}, column {column}"
            if offset is not None:
                where += f" ({unit} {offset})"
        super().__init__(f"{message}{where}")


class SDLSyntaxError(ReproError):
    """A syntax error in a GraphQL SDL (or query) document.

    Attributes:
        message: Human-readable description of the problem.
        line: 1-based line of the offending token.
        column: 1-based column of the offending token.
    """

    code = "E_SYNTAX"

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.message = message
        self.line = line
        self.column = column
        location = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{location}")


class SchemaError(ReproError):
    """A schema definition cannot be turned into a formal schema."""

    code = "E_SCHEMA"


class ConsistencyError(SchemaError):
    """A schema violates Definition 4.3 or 4.4 (interface/directives consistency)."""

    code = "E_CONSISTENCY"


class QueryError(ReproError):
    """A GraphQL query cannot be executed against the graph/API schema."""

    code = "E_QUERY"


class BudgetReason(Record):
    """Structured explanation of why a budget-limited run stopped early.

    Attributes:
        dimension: Which limit ran out -- ``"deadline"``, ``"nodes"``,
            ``"expansions"``, ``"memory"``, ``"assignments"`` or
            ``"decisions"``.
        limit: The configured ceiling for that dimension (seconds for
            ``"deadline"``, counts/bytes otherwise).
        used: How much had been consumed when the budget tripped.
        site: The subsystem that noticed, e.g. ``"dl.tableau"`` or
            ``"validation.parallel"``.
    """

    dimension: str
    limit: float
    used: float
    site: str = ""

    def __str__(self) -> str:
        where = f" at {self.site}" if self.site else ""
        if self.dimension == "deadline":
            return (
                f"deadline of {self.limit:g}s exceeded after {self.used:.3f}s{where}"
            )
        return (
            f"{self.dimension} budget of {self.limit:g} exhausted "
            f"(used {self.used:g}){where}"
        )


class BudgetExhaustedError(ReproError):
    """A cooperative execution budget ran out before the work finished.

    The answer is *unknown*, not wrong: callers configured with
    ``on_budget="unknown"`` receive a typed UNKNOWN/partial verdict carrying
    :attr:`reason` instead of this exception.
    """

    code = "E_BUDGET"
    exit_code = 3

    def __init__(self, reason: "BudgetReason | str") -> None:
        if isinstance(reason, str):
            reason = BudgetReason(dimension="nodes", limit=0, used=0, site=reason)
        self.reason = reason
        super().__init__(str(reason))

    def __reduce__(self):
        # keep the structured reason across process-pool pickling (the
        # default args-based reconstruction would collapse it to a string)
        return (self.__class__, (self.reason,))


#: What a budgeted engine does on exhaustion: ``"unknown"`` returns a typed
#: UNKNOWN / partial answer, ``"error"`` raises :class:`BudgetExhaustedError`.
ON_BUDGET = ("unknown", "error")


def check_on_budget(on_budget: str) -> None:
    """Raise ``ValueError`` unless *on_budget* is one of :data:`ON_BUDGET`."""
    if on_budget not in ON_BUDGET:
        raise ValueError(
            f"unknown on_budget policy {on_budget!r}; expected one of {ON_BUDGET}"
        )


class WorkerFailureError(ReproError):
    """A parallel shard failed even after retries and executor fallback."""

    code = "E_WORKER"

    def __init__(self, message: str, *, shard: int | None = None, attempts: int = 0) -> None:
        self.shard = shard
        self.attempts = attempts
        super().__init__(message)


class FaultConfigError(ReproError):
    """A malformed fault-injection specification (``PGSCHEMA_FAULTS``)."""

    code = "E_FAULTS"


class ServiceError(ReproError):
    """The schema-registry service cannot start or serve (bad registry
    directory, unbindable address, corrupt manifest).  CLI exit 2: these are
    operator-input problems, not undecided questions."""

    code = "E_SERVICE"


class OverloadedError(ServiceError):
    """The service admission queue is full.  Requests rejected this way get
    a *typed* refusal (HTTP 503 carrying this code) -- never a wrong or
    partial answer dressed up as a verdict."""

    code = "E_OVERLOAD"


def render_error(error: BaseException) -> str:
    """One-line, uniformly formatted rendering of an error for the CLI.

    ``ReproError`` subclasses render with their stable code; anything else
    (e.g. ``OSError`` from a missing file) falls back to ``E_IO``.
    """
    code = error.code if isinstance(error, ReproError) else "E_IO"
    return f"error[{code}]: {error}"


def exit_code_for(error: BaseException) -> int:
    """The CLI exit status for *error* (2 for non-library errors)."""
    return error.exit_code if isinstance(error, ReproError) else 2
