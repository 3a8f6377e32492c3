"""Schema satisfiability: Theorems 2 and 3 made executable.

Exports resolve on first access (PEP 562), like the top-level package:
``pgschema sat`` loads the checker and the bounded finder, not the SAT
encoding or the Theorem-2 reduction.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .bounded import BoundedModelFinder, BoundedSearchResult
    from .cache import SatCache, sat_cache_clear, sat_cache_for, sat_cache_info
    from .engine import (
        SatisfiabilityChecker,
        SchemaSatisfiabilityReport,
        TypeSatisfiability,
    )
    from .portfolio import SatUnit, UnitResult, build_units, check_unit, run_portfolio
    from .reduction import (
        ANCHOR_TYPE,
        Reduction,
        assignment_from_graph,
        graph_from_assignment,
        reduce_cnf_to_schema,
    )
    from .sat_encoding import SATModelFinder

__all__ = [
    "ANCHOR_TYPE",
    "BoundedModelFinder",
    "BoundedSearchResult",
    "Reduction",
    "SATModelFinder",
    "SatCache",
    "SatUnit",
    "SatisfiabilityChecker",
    "SchemaSatisfiabilityReport",
    "TypeSatisfiability",
    "UnitResult",
    "assignment_from_graph",
    "build_units",
    "check_unit",
    "graph_from_assignment",
    "reduce_cnf_to_schema",
    "run_portfolio",
    "sat_cache_clear",
    "sat_cache_for",
    "sat_cache_info",
]

# Exported name -> the submodule that defines it; keep in step with the
# TYPE_CHECKING imports above (tests/test_meta.py pins both).
_EXPORTS = {
    "BoundedModelFinder": "bounded",
    "BoundedSearchResult": "bounded",
    "SatCache": "cache",
    "sat_cache_clear": "cache",
    "sat_cache_for": "cache",
    "sat_cache_info": "cache",
    "SatisfiabilityChecker": "engine",
    "SchemaSatisfiabilityReport": "engine",
    "TypeSatisfiability": "engine",
    "SatUnit": "portfolio",
    "UnitResult": "portfolio",
    "build_units": "portfolio",
    "check_unit": "portfolio",
    "run_portfolio": "portfolio",
    "ANCHOR_TYPE": "reduction",
    "Reduction": "reduction",
    "assignment_from_graph": "reduction",
    "graph_from_assignment": "reduction",
    "reduce_cnf_to_schema": "reduction",
    "SATModelFinder": "sat_encoding",
}


__getattr__ = _lazy_exports(globals(), _EXPORTS)
