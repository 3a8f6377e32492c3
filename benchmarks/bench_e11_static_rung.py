"""E11 -- what does the static rung of the sat ladder buy over the tableau?

The decision ladder's one static rung, the cardinality interval analysis
(:func:`repro.analysis.sat_preverdicts`), decides Example 6.1's
conflicting-cardinality class and its dead-required-target closure in
polynomial time; the type reports ``decided_by="analysis"`` and carries
the PG011 finding.  The Theorem-3 route (``analysis_precheck=False``)
builds the full ALCQI translation and saturates a tableau.  Both must
return the same verdict, and each row asserts the route it claims: the
static row never searches, the tableau row does.  The rows quantify the
wall-time gap on the paper's two unsatisfiable diagrams and on a synthetic
chain family where the dead-type fixpoint has real depth.

Checker construction happens inside the timed callable: the point of the
static rung is that the TBox and tableau are never even built.
"""

import pytest

from repro.satisfiability import SatisfiabilityChecker
from repro.schema import parse_schema
from repro.workloads import CORPUS

CASES = {
    "example_6_1_a": "OT1",  # unconditional conflict (diagram (a))
    "diagram_c": "OT2",      # conditional conflict via forced merge
}


def _chain_schema(depth: int) -> str:
    """A depth-long @required chain ending in an unimplemented interface.

    Every link is unsatisfiable, provable only by propagating deadness all
    the way down -- the dead fixpoint at its deepest.
    """
    lines = ["interface Dead { x: Int }"]
    lines.append("type T0 { next: Dead @required }")
    for i in range(1, depth):
        lines.append(f"type T{i} {{ next: T{i - 1} @required }}")
    return "\n".join(lines)


def _decide(sdl: str, type_name: str, engine: str, check: bool):
    schema = parse_schema(sdl, check=check)
    checker = SatisfiabilityChecker(
        schema, cache=False, analysis_precheck=(engine == "analysis")
    )
    return checker, checker.check_type(type_name, find_witness=False)


def _assert_route(checker, verdict, engine: str) -> None:
    assert not verdict.tableau_satisfiable
    assert verdict.decided_by == engine
    # a tableau that decided has expanded nodes; the static row built none
    # (reading ``checker.tableau`` here builds a fresh, idle one)
    searched = checker.tableau.stats.expansions > 0
    assert searched == (engine == "tableau")
    if engine == "analysis":
        assert verdict.diagnostic is not None
        assert verdict.diagnostic.code == "PG011"


@pytest.mark.experiment("E11")
@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("engine", ["analysis", "tableau"])
def test_paper_diagrams(benchmark, name, engine):
    sdl = CORPUS[name].sdl
    checker, verdict = benchmark(_decide, sdl, CASES[name], engine, False)
    _assert_route(checker, verdict, engine)
    benchmark.extra_info["decided_by"] = verdict.decided_by


@pytest.mark.experiment("E11")
@pytest.mark.parametrize("depth", [4, 16, 64])
@pytest.mark.parametrize("engine", ["analysis", "tableau"])
def test_dead_chain_scaling(benchmark, depth, engine):
    sdl = _chain_schema(depth)
    checker, verdict = benchmark(_decide, sdl, f"T{depth - 1}", engine, True)
    _assert_route(checker, verdict, engine)
    benchmark.extra_info["decided_by"] = verdict.decided_by
