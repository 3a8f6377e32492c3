"""The diagnostic model of the schema lint engine.

A :class:`Diagnostic` is one finding of one lint rule: a stable code
(``PG001``, ...), a severity, a human-readable message, the schema location
it concerns (``OT1`` or ``IT.hasOT1``), and -- when the schema was parsed
from SDL text -- the 1-based source :class:`Span` of the offending
declaration, so tools can point at the exact line like a compiler does.
"""

from __future__ import annotations

import enum

from ..record import Record


class Severity(enum.Enum):
    """How bad a finding is; ``error`` drives the nonzero lint exit code."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


class Span(Record):
    """A 1-based source position; ``Span()`` means "no source available"."""

    line: int = 0
    column: int = 0

    def __bool__(self) -> bool:
        return self.line > 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

    @staticmethod
    def of(node: object) -> "Span":
        """The span of any model/AST object carrying line/column attributes."""
        return Span(getattr(node, "line", 0) or 0, getattr(node, "column", 0) or 0)


class Diagnostic(Record):
    """One lint finding.

    Attributes:
        code: Stable rule code, e.g. ``PG001``.
        severity: error / warning / info.
        message: Human-readable description of the problem.
        location: The schema element concerned (``T`` or ``T.f``).
        span: Source position of the offending declaration (may be empty).
        rule: The rule's slug name, e.g. ``conflicting-cardinality``.
        unsat_type: When the rule *proves* an object type unsatisfiable,
            the type's name; drives the satisfiability short-circuit.
    """

    code: str
    severity: Severity
    message: str
    location: str = ""
    span: Span = Span()
    rule: str = ""
    unsat_type: str | None = None

    def render(self, source_name: str = "") -> str:
        """One compiler-style text line for this finding."""
        prefix = ""
        if source_name:
            prefix += f"{source_name}:"
        if self.span:
            prefix += f"{self.span}: "
        elif prefix:
            prefix += " "
        where = f"{self.location}: " if self.location else ""
        return f"{prefix}{self.severity.value} {self.code} [{self.rule}] {where}{self.message}"

    def to_json(self) -> dict:
        """A JSON-serialisable view (for ``pgschema lint --json``)."""
        payload: dict = {
            "code": self.code,
            "severity": self.severity.value,
            "rule": self.rule,
            "location": self.location,
            "message": self.message,
        }
        if self.span:
            payload["line"] = self.span.line
            payload["column"] = self.span.column
        if self.unsat_type is not None:
            payload["unsatisfiableType"] = self.unsat_type
        return payload


def sort_key(diagnostic: Diagnostic) -> tuple:
    """Stable report order: by source position, then code, then location."""
    return (
        diagnostic.span.line,
        diagnostic.span.column,
        diagnostic.code,
        diagnostic.location,
        diagnostic.message,
    )
