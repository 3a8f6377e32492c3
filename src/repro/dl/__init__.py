"""Description-logic substrate: ALCQI with a tableau decision procedure.

Exports resolve on first access (PEP 562), like the top-level package:
building concepts loads neither the tableau nor the schema translation.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .concepts import (
        And,
        AtLeast,
        AtMost,
        Bottom,
        Concept,
        Exists,
        Forall,
        Name,
        Not,
        Or,
        Role,
        Top,
        conj,
        disj,
    )
    from .normal_form import complement, nnf
    from .tableau import Tableau, TableauLimitError, TableauStats
    from .tbox import Axiom, TBox
    from .translate import schema_to_tbox

__all__ = [
    "And",
    "AtLeast",
    "AtMost",
    "Axiom",
    "Bottom",
    "Concept",
    "Exists",
    "Forall",
    "Name",
    "Not",
    "Or",
    "Role",
    "TBox",
    "Tableau",
    "TableauLimitError",
    "TableauStats",
    "Top",
    "complement",
    "conj",
    "disj",
    "nnf",
    "schema_to_tbox",
]

# Exported name -> the submodule that defines it; keep in step with the
# TYPE_CHECKING imports above (tests/test_meta.py pins both).
_EXPORTS = {
    "And": "concepts",
    "AtLeast": "concepts",
    "AtMost": "concepts",
    "Bottom": "concepts",
    "Concept": "concepts",
    "Exists": "concepts",
    "Forall": "concepts",
    "Name": "concepts",
    "Not": "concepts",
    "Or": "concepts",
    "Role": "concepts",
    "Top": "concepts",
    "conj": "concepts",
    "disj": "concepts",
    "complement": "normal_form",
    "nnf": "normal_form",
    "Tableau": "tableau",
    "TableauLimitError": "tableau",
    "TableauStats": "tableau",
    "Axiom": "tbox",
    "TBox": "tbox",
    "schema_to_tbox": "translate",
}


__getattr__ = _lazy_exports(globals(), _EXPORTS)
