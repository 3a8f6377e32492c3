"""The schema lint engine: diagnostics, rules, and the static sat rung they
feed into (the analysis subsumes PG001/PG003's unsat proofs)."""

import json
import pathlib

import pytest

from repro.errors import SchemaError
from repro.lint import (
    RULES,
    Diagnostic,
    Severity,
    Span,
    all_rules,
    has_errors,
    lint_schema,
    resolve_rules,
)
from repro.analysis import sat_preverdicts
from repro.satisfiability import SatisfiabilityChecker
from repro.schema import parse_schema
from repro.workloads import (
    cardinality_web_schema,
    deep_lattice_schema,
    hub_chain_schema,
    key_collision_schema,
    near_unsat_schema,
    union_fanout_schema,
)
from repro.workloads.paper_schemas import CORPUS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def lint_sdl(sdl, **kwargs):
    return lint_schema(parse_schema(sdl, check=False), **kwargs)


def codes(findings):
    return sorted({f.code for f in findings})


def unsat_findings(schema, rules=("PG001", "PG003")):
    """The lint findings of *rules* that prove a type unsatisfiable."""
    return [f for f in lint_schema(schema, select=rules) if f.unsat_type is not None]


class TestDiagnosticModel:
    def test_render_with_span(self):
        diagnostic = Diagnostic(
            "PG001",
            Severity.ERROR,
            "boom",
            location="T",
            span=Span(3, 7),
            rule="conflicting-cardinality",
        )
        text = diagnostic.render("s.graphql")
        assert text == "s.graphql:3:7: error PG001 [conflicting-cardinality] T: boom"

    def test_render_without_span(self):
        diagnostic = Diagnostic("PG006", Severity.INFO, "unused", rule="unused-definition")
        assert diagnostic.render() == "info PG006 [unused-definition] unused"

    def test_to_json_round_trips(self):
        diagnostic = Diagnostic(
            "PG001",
            Severity.ERROR,
            "boom",
            location="T",
            span=Span(3, 7),
            rule="conflicting-cardinality",
            unsat_type="T",
        )
        payload = json.loads(json.dumps(diagnostic.to_json()))
        assert payload["code"] == "PG001"
        assert payload["severity"] == "error"
        assert payload["line"] == 3 and payload["column"] == 7
        assert payload["unsatisfiableType"] == "T"

    def test_empty_span_is_falsy_and_omitted(self):
        diagnostic = Diagnostic("PG006", Severity.INFO, "x")
        assert not diagnostic.span
        assert "line" not in diagnostic.to_json()

    def test_severity_rank_order(self):
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank


class TestRegistry:
    def test_codes_are_stable(self):
        assert sorted(RULES) == [f"PG{i:03d}" for i in range(1, 19)]

    def test_unsat_rules(self):
        # findings that prove a type unsatisfiable come from PG001/PG003 and
        # the analysis's PG011 only
        flagged = {
            f.code
            for entry in CORPUS.values()
            for f in lint_schema(parse_schema(entry.sdl, check=False))
            if f.unsat_type is not None
        }
        assert "PG001" in flagged
        assert flagged <= {"PG001", "PG003", "PG011"}

    def test_every_rule_documented(self):
        for rule in all_rules():
            assert rule.name and rule.description, rule.code

    def test_resolve_by_code_and_name(self):
        assert [r.code for r in resolve_rules(select=["PG002"])] == ["PG002"]
        assert [r.code for r in resolve_rules(select=["invalid-key"])] == ["PG007"]
        remaining = {r.code for r in resolve_rules(ignore=["PG001"])}
        assert remaining == set(RULES) - {"PG001"}

    def test_unknown_rule_rejected(self):
        with pytest.raises(SchemaError, match="unknown lint rule"):
            resolve_rules(select=["PG999"])
        with pytest.raises(SchemaError, match="unknown lint rule"):
            resolve_rules(ignore=["no-such-rule"])


class TestIndividualRules:
    """Each rule on a minimal triggering schema (mirrored in docs/LINTING.md)."""

    def test_pg001_unconditional_conflict(self):
        findings = lint_sdl(CORPUS["example_6_1_a"].sdl, select=["PG001"])
        assert [f.location for f in findings] == ["OT1"]
        assert findings[0].severity is Severity.ERROR
        assert findings[0].unsat_type == "OT1"
        assert findings[0].span.line > 0 and findings[0].span.column > 0

    def test_pg001_conditional_conflict(self):
        findings = lint_sdl(CORPUS["diagram_c"].sdl, select=["PG001"])
        assert [f.unsat_type for f in findings] == ["OT2"]

    def test_pg001_not_fooled_by_single_lower_bound(self):
        # one @requiredForTarget under one @uniqueForTarget is fine
        findings = lint_sdl(
            """
            interface IT { f: OT1 @uniqueForTarget }
            type OT1 implements IT { f: OT1 @uniqueForTarget }
            type OT2 { f: OT1 @requiredForTarget }
            """,
            select=["PG001"],
        )
        assert findings == ()

    def test_pg002_forced_cycle(self):
        findings = lint_sdl(
            "type T { next: T @required @noLoops }", select=["PG002"]
        )
        assert codes(findings) == ["PG002"]
        assert findings[0].severity is Severity.WARNING

    def test_pg002_silent_when_other_targets_exist(self):
        findings = lint_sdl(
            """
            interface I { x: Int }
            type T implements I { x: Int next: I @required @noLoops }
            type U implements I { x: Int }
            """,
            select=["PG002"],
        )
        assert findings == ()

    def test_pg003_required_into_dead_interface(self):
        findings = lint_sdl(
            """
            interface Lonely { x: Int }
            type T { toLonely: Lonely @required }
            """,
            select=["PG003"],
        )
        assert [f.unsat_type for f in findings] == ["T"]

    def test_pg003_fixpoint_propagates(self):
        # U is dead only because T is dead
        findings = lint_sdl(
            """
            interface Lonely { x: Int }
            type T { toLonely: Lonely @required }
            type U { toT: T @required }
            """,
            select=["PG003"],
        )
        assert sorted(f.unsat_type for f in findings) == ["T", "U"]

    def test_pg003_propagates_from_pg001_seed(self):
        # OT2 is PG001-unsat in diagram (c); a required edge into it dies too
        sdl = CORPUS["diagram_c"].sdl + "\ntype Extra { toOT2: OT2 @required }\n"
        findings = lint_sdl(sdl, select=["PG003"])
        assert [f.unsat_type for f in findings] == ["Extra"]

    def test_pg004_unpopulatable_optional_edge(self):
        findings = lint_sdl(
            """
            interface Lonely { x: Int }
            type T { toLonely: [Lonely] }
            """,
            select=["PG004"],
        )
        assert [f.location for f in findings] == ["T.toLonely"]
        assert findings[0].severity is Severity.WARNING

    def test_pg005_unimplemented_interface(self):
        findings = lint_sdl(
            "interface Lonely { x: Int }\ntype T { y: Int }", select=["PG005"]
        )
        assert [f.location for f in findings] == ["Lonely"]

    def test_pg006_unused_scalar_enum_union(self):
        findings = lint_sdl(
            """
            scalar Unused
            enum Color { RED }
            union Pair = T
            type T { x: Int }
            """,
            select=["PG006"],
        )
        assert sorted(f.location for f in findings) == ["Color", "Pair", "Unused"]
        assert all(f.severity is Severity.INFO for f in findings)

    def test_pg006_used_definitions_are_silent(self):
        findings = lint_sdl(
            """
            scalar Date
            union Pair = T
            type T { x: Date p: Pair }
            """,
            select=["PG006"],
        )
        assert findings == ()

    def test_pg007_key_violations(self):
        findings = lint_sdl(
            """
            type T @key(fields: ["ghost", "toU", "tags", "name"]) {
              name: String
              tags: [String!]!
              toU: U
            }
            type U { x: Int }
            """,
            select=["PG007"],
        )
        by_message = {f.message.split("'")[1]: f for f in findings}
        assert by_message["ghost"].severity is Severity.ERROR
        assert by_message["toU"].severity is Severity.ERROR
        assert by_message["tags"].severity is Severity.WARNING  # list-typed
        assert by_message["name"].severity is Severity.WARNING  # nullable

    def test_pg007_good_key_is_silent(self):
        findings = lint_sdl(
            'type T @key(fields: ["id"]) { id: ID! }', select=["PG007"]
        )
        assert findings == ()

    def test_pg008_duplicate_directive(self):
        findings = lint_sdl(
            "type T { x: Int @required @required }", select=["PG008"]
        )
        assert codes(findings) == ["PG008"]
        assert "duplicate" in findings[0].message

    def test_pg008_distinct_on_non_list(self):
        findings = lint_sdl(
            "type T { toT: T @distinct }", select=["PG008"]
        )
        assert findings and findings[0].severity is Severity.INFO

    def test_pg008_target_directive_on_attribute(self):
        findings = lint_sdl(
            "type T { x: Int @noLoops }", select=["PG008"]
        )
        assert findings and "no effect on the attribute" in findings[0].message

    def test_pg008_vacuous_noloops(self):
        findings = lint_sdl(
            "type T { toU: U @noLoops }\ntype U { x: Int }", select=["PG008"]
        )
        assert findings and "noLoops has no effect" in findings[0].message

    def test_pg009_extra_non_null_argument(self):
        findings = lint_sdl(
            """
            type B { x: Int }
            interface I { rel(a: Int): B }
            type T implements I { rel(a: Int extra: Float!): B }
            """,
            select=["PG009"],
        )
        assert findings and "Definition 4.3(3)" in findings[0].message
        assert findings[0].severity is Severity.ERROR

    def test_pg009_argument_type_mismatch(self):
        findings = lint_sdl(
            """
            type B { x: Int }
            interface I { rel(a: Int): B }
            type T implements I { rel(a: Int!): B }
            """,
            select=["PG009"],
        )
        assert findings and "Definition 4.3(2)" in findings[0].message

    def test_pg010_shadowing_at_incompatible_type(self):
        findings = lint_sdl(
            "interface I { x: Int }\ntype T implements I { x: String }",
            select=["PG010"],
        )
        assert findings and "not a subtype" in findings[0].message

    def test_pg010_missing_field(self):
        findings = lint_sdl(
            "interface I { x: Int }\ntype T implements I { y: Int }",
            select=["PG010"],
        )
        assert findings and "missing field 'x'" in findings[0].message

    def test_pg010_covariant_refinement_allowed(self):
        findings = lint_sdl(
            """
            interface Food { self: Food }
            type Pizza implements Food { self: Pizza }
            """,
            select=["PG010"],
        )
        assert findings == ()


class TestCorpus:
    """The whole paper corpus through the full rule suite."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_lint_runs_clean_of_crashes(self, name):
        schema = parse_schema(CORPUS[name].sdl, check=False)
        findings = lint_schema(schema)
        assert all(isinstance(f, Diagnostic) for f in findings)

    @pytest.mark.parametrize(
        "name", [name for name, entry in CORPUS.items() if entry.consistent]
    )
    def test_satisfiable_schemas_have_no_unsat_verdicts(self, name):
        """Soundness on the corpus: lint never flags a satisfiable type."""
        schema = parse_schema(CORPUS[name].sdl, check=False)
        if name == "diagram_c":
            return  # consistent but deliberately unsatisfiable (OT2)
        assert unsat_findings(schema) == []

    @pytest.mark.parametrize(
        "name,expect_errors",
        [(name, name in {"example_6_1_a", "diagram_c"}) for name in sorted(CORPUS)],
    )
    def test_exit_status_partition(self, name, expect_errors):
        """Only the paper's two unsatisfiable diagrams produce lint errors."""
        schema = parse_schema(CORPUS[name].sdl, check=False)
        assert has_errors(lint_schema(schema)) == expect_errors

    def test_diagram_b_is_completely_clean(self):
        """diagram (b) is only *infinitely* satisfiable -- a polynomial rule
        that flagged it would be unsound for the tableau semantics."""
        schema = parse_schema(CORPUS["diagram_b"].sdl)
        assert lint_schema(schema) == ()

    @pytest.mark.parametrize("name", ["example_6_1_a", "diagram_b", "diagram_c"])
    def test_golden_diagnostics(self, name):
        schema = parse_schema(CORPUS[name].sdl, check=False)
        rendered = "".join(
            f.render(f"{name}.graphql") + "\n" for f in lint_schema(schema)
        )
        golden = (GOLDEN_DIR / f"lint_{name}.txt").read_text()
        assert rendered == golden


class TestTableauShortCircuit:
    """The static rung must decide without ever touching the tableau."""

    @pytest.fixture
    def no_tableau(self, monkeypatch):
        def forbidden(self):  # pragma: no cover - failure path
            raise AssertionError("tableau was constructed for a statically decided type")

        monkeypatch.setattr(SatisfiabilityChecker, "tableau", property(forbidden))
        monkeypatch.setattr(SatisfiabilityChecker, "tbox", property(forbidden))

    def test_example_6_1_a_decided_statically(self, no_tableau):
        checker = SatisfiabilityChecker(CORPUS["example_6_1_a"].load())
        verdict = checker.check_type("OT1")
        assert not verdict.tableau_satisfiable
        assert verdict.decided_by == "analysis"
        assert verdict.diagnostic is not None
        assert verdict.diagnostic.code == "PG011"
        assert verdict.diagnostic.span.line > 0
        assert not checker.is_satisfiable("OT1")

    def test_diagram_c_decided_statically(self, no_tableau):
        checker = SatisfiabilityChecker(CORPUS["diagram_c"].load())
        verdict = checker.check_type("OT2")
        assert verdict.decided_by == "analysis"
        assert verdict.diagnostic.code == "PG011"
        assert verdict.diagnostic.span.line > 0

    def test_precheck_can_be_disabled(self):
        checker = SatisfiabilityChecker(
            CORPUS["example_6_1_a"].load(), analysis_precheck=False
        )
        verdict = checker.check_type("OT1", find_witness=False)
        assert not verdict.tableau_satisfiable
        assert verdict.decided_by == "tableau"
        assert verdict.diagnostic is None

    @pytest.mark.parametrize(
        "name", ["example_6_1_a", "diagram_b", "diagram_c", "library", "vehicles"]
    )
    def test_precheck_agrees_with_tableau(self, name):
        """The static rung never changes a verdict, only how it is reached."""
        schema = CORPUS[name].load()
        fast = SatisfiabilityChecker(schema)
        slow = SatisfiabilityChecker(schema, analysis_precheck=False)
        for type_name in sorted(schema.object_types):
            assert fast.is_satisfiable(type_name) == slow.is_satisfiable(
                type_name
            ), type_name

    def test_lint_explains_unsat_while_the_tableau_decides(self):
        # lint still says *why* a type is dead while the tableau decides it
        schema = CORPUS["diagram_c"].load()
        assert {f.unsat_type for f in unsat_findings(schema)} == {"OT2"}
        checker = SatisfiabilityChecker(schema, analysis_precheck=False)
        verdict = checker.check_type("OT2", find_witness=False)
        assert not verdict.tableau_satisfiable
        assert verdict.decided_by == "tableau"


def _dead_chain_sdl(depth):
    """A @required chain into an unimplemented interface: every link dead."""
    lines = ["interface Dead { x: Int }", "type T0 { next: Dead @required }"]
    lines += [f"type T{i} {{ next: T{i - 1} @required }}" for i in range(1, depth)]
    return "\n".join(lines)


def _unsat_proving_schemas():
    for name, entry in sorted(CORPUS.items()):
        yield name, parse_schema(entry.sdl, check=False)
    yield "dead_chain", parse_schema(_dead_chain_sdl(8))
    yield "hub_chain", hub_chain_schema(depth=3, leaves=2)
    yield "deep_lattice", deep_lattice_schema(3, 2)
    for collide in (False, True):
        yield f"near_unsat_{collide}", near_unsat_schema(2, collide=collide)
        yield f"cardinality_web_{collide}", cardinality_web_schema(2, collide=collide)
    yield "union_fanout", union_fanout_schema(members=3, fields=3)
    yield "key_collision", key_collision_schema(blocks=2, enum_values=2)


@pytest.mark.parametrize(
    "name,schema",
    _unsat_proving_schemas(),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_lint_unsat_findings_are_sound_and_subsumed_by_the_analysis(name, schema):
    """Every type PG001/PG003 prove dead is UNSAT for the tableau, and the
    analysis proves it UNSAT too: the sat ladder needs no lint rung.
    PG001/PG003/PG011 partition the analysis's dead types: each is
    reported exactly once."""
    oracle = SatisfiabilityChecker(schema, cache=False, analysis_precheck=False)
    static = sat_preverdicts(schema).types
    for finding in unsat_findings(schema):
        dead = finding.unsat_type
        verdict = oracle.check_type(dead, find_witness=False)
        assert verdict.tableau_satisfiable is False, (name, finding.code, dead)
        assert verdict.decided_by == "tableau"
        assert static.get(dead) is False, (name, finding.code, dead)
    reported = [
        finding.unsat_type
        for finding in unsat_findings(schema, rules=("PG001", "PG003", "PG011"))
    ]
    analysis_dead = {t for t, verdict in static.items() if verdict is False}
    assert sorted(reported) == sorted(analysis_dead), name


def test_analysis_only_proofs_are_worded_by_what_they_prove():
    # T's obligation has a live source type, A, which cannot point at T
    unserved = lint_sdl(
        "interface I { to: X @requiredForTarget }\n"
        "union X = T | U\n"
        "type A implements I { to: U }\n"
        "type T { name: String }\n"
        "type U { name: String }",
        select=["PG003", "PG011"],
    )
    assert [(f.code, f.location) for f in unserved] == [("PG003", "T")]
    assert "no I node can emit one to a T node" in unserved[0].message
    # T.r's own family is not empty, but no type meets both declarations
    disjoint = lint_sdl(
        "interface I { r: A @required }\n"
        "type A { x: Int }\n"
        "type B { x: Int }\n"
        "type T implements I { r: B @required }",
        select=["PG003", "PG011"],
    )
    assert [(f.code, f.location) for f in disjoint] == [("PG003", "T.r")]
    assert "the declarations of 'r' admit no common target type" in disjoint[0].message


def test_incoming_overflow_takes_precedence_over_dead_targets():
    # Sink1 is dead twice over: its own incoming 'feed' interval is empty,
    # and its required 'next' edge reaches only the dead Sink0.  The proof
    # that reads no other verdict wins, so lint reports PG001 at Sink1.
    findings = lint_schema(cardinality_web_schema(2, collide=True), select=["PG001"])
    assert [f.location for f in findings] == ["Sink0", "Sink1"]
