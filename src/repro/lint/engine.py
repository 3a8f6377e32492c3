"""Running the lint rules over a schema.

:func:`lint_schema` is the front door: it resolves a rule selection, runs
every selected rule, and returns the findings in stable report order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .. import obs
from ..errors import SchemaError
from .diagnostics import Diagnostic, Severity, sort_key
from .rules import RULES, LintRule, all_rules

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.model import GraphQLSchema


def resolve_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> tuple[LintRule, ...]:
    """The rules to run: all by default, narrowed by code or slug name.

    Tokens may bundle several selectors with commas (``PG011,PG017``), the
    idiom of mainstream linters' ``--select``.  Raises
    :class:`SchemaError` for a code/name that matches no rule, so a typo
    in ``--select PG01`` fails loudly instead of silently linting with
    nothing; the error suggests the closest known code or slug.
    """
    by_name = {rule.name: rule for rule in RULES.values()}

    def split(tokens: Iterable[str]) -> list[str]:
        return [
            part.strip()
            for token in tokens
            for part in token.split(",")
            if part.strip()
        ]

    def lookup(token: str) -> LintRule:
        rule = RULES.get(token) or by_name.get(token)
        if rule is None:
            import difflib

            known = ", ".join(sorted(RULES))
            close = difflib.get_close_matches(
                token, [*RULES, *by_name], n=1, cutoff=0.4
            )
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise SchemaError(
                f"unknown lint rule {token!r} (known codes: {known}){hint}"
            )
        return rule

    chosen = (
        {rule.code for rule in map(lookup, split(select))}
        if select is not None
        else set(RULES)
    )
    chosen -= {rule.code for rule in map(lookup, split(ignore or ()))}
    return tuple(rule for rule in all_rules() if rule.code in chosen)


def lint_schema(
    schema: "GraphQLSchema",
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> tuple[Diagnostic, ...]:
    """All findings of the selected rules, in stable report order."""
    rules = resolve_rules(select, ignore)
    span = obs.span("lint.run", rules=len(rules))
    with span:
        findings: list[Diagnostic] = []
        for rule in rules:
            findings.extend(rule.check(schema))
        span.set(findings=len(findings))
    observation = obs.active()
    if observation is not None and observation.registry is not None:
        observation.registry.count("lint.runs")
        for finding in findings:
            observation.registry.count(f"lint.findings.{finding.code}")
    return tuple(sorted(findings, key=sort_key))


def has_errors(findings: Iterable[Diagnostic]) -> bool:
    """True when any finding has error severity (drives the CLI exit code)."""
    return any(finding.severity is Severity.ERROR for finding in findings)
