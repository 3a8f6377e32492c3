"""Static analysis (lint) over property-graph schemas.

A rule-based diagnostics engine that runs in polynomial time over a built
:class:`~repro.schema.model.GraphQLSchema`: stable rule codes (``PG001``...),
severities, and source spans pointing back into the SDL document.  Exports
resolve on first access (PEP 562): the dataflow analysis, the sat ladder's
static rung, builds :class:`Diagnostic` findings without loading the rules.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .diagnostics import Diagnostic, Severity, Span, sort_key
    from .engine import has_errors, lint_schema, resolve_rules
    from .rules import RULES, LintRule, all_rules

# Exported name -> the submodule that defines it; keep in step with the
# TYPE_CHECKING imports above (tests/test_meta.py pins both).
_EXPORTS = {
    "Diagnostic": "diagnostics",
    "Severity": "diagnostics",
    "Span": "diagnostics",
    "sort_key": "diagnostics",
    "has_errors": "engine",
    "lint_schema": "engine",
    "resolve_rules": "engine",
    "RULES": "rules",
    "LintRule": "rules",
    "all_rules": "rules",
}
__all__ = list(_EXPORTS)

__getattr__ = _lazy_exports(globals(), _EXPORTS)
