"""The schema dataflow analyzer: lattice, passes, pre-verdicts, surfaces.

The heart of the file is the differential suite: on every corpus schema,
the scaling generators and random schemas, every SAT/UNSAT pre-verdict the
fixpoints emit must agree with the Theorem-3 tableau, and ``check_schema``
reports must be byte-identical with the analysis feed on or off.
"""

import json

import pytest

from repro.analysis import (
    AnalysisError,
    AnalysisPass,
    PassManager,
    analysis_cache_clear,
    analyze_schema,
    default_passes,
    fixpoint,
    sat_preverdicts,
)
from repro.analysis.cardinality import CardinalityFacts
from repro.analysis.graph import TypeDependencyGraph
from repro.analysis.lattice import (
    EMPTY,
    ONE_OR_MORE,
    TOP,
    ZERO,
    Interval,
    at_least,
    at_most,
    exactly,
)
from repro.cli import main
from repro.errors import SchemaError
from repro.lint.diagnostics import Diagnostic, Severity, sort_key
from repro.lint.engine import resolve_rules
from repro.satisfiability import SatisfiabilityChecker
from repro.schema import parse_schema
from repro.workloads import (
    CORPUS,
    deep_lattice_schema,
    hub_chain_schema,
    load,
    near_unsat_schema,
    random_schema,
)


# --------------------------------------------------------------------------- #
# the interval lattice
# --------------------------------------------------------------------------- #


class TestInterval:
    def test_constants(self):
        assert TOP == Interval(0, None)
        assert ZERO == Interval(0, 0)
        assert EMPTY.is_empty
        assert ONE_OR_MORE == Interval(1, None)

    def test_meet_is_intersection(self):
        assert at_least(2).meet(at_most(5)) == Interval(2, 5)
        assert at_least(2).meet(at_most(1)).is_empty
        assert TOP.meet(exactly(3)) == exactly(3)

    def test_join_is_hull(self):
        assert exactly(1).join(exactly(4)) == Interval(1, 4)
        assert TOP.join(exactly(2)) == TOP

    def test_contains(self):
        assert exactly(3).contains(3)
        assert not exactly(3).contains(2)
        assert TOP.contains(10**9)
        assert not EMPTY.contains(0)

    def test_str_forms(self):
        assert str(TOP) == "[0, ∞)"
        assert str(exactly(2)) == "[2, 2]"
        assert str(EMPTY) == "∅"

    def test_meet_commutes_and_empty_absorbs(self):
        a, b = Interval(1, 7), Interval(4, None)
        assert a.meet(b) == b.meet(a) == Interval(4, 7)
        assert EMPTY.meet(TOP).is_empty


# --------------------------------------------------------------------------- #
# the type-dependency graph
# --------------------------------------------------------------------------- #


class TestTypeDependencyGraph:
    def test_allowed_is_the_forall_meet(self):
        schema = load("food_interface")
        graph = TypeDependencyGraph(schema)
        for object_type in schema.object_types:
            for field_name in graph.applicable.get(object_type, {}):
                allowed = graph.allowed(object_type, field_name)
                for declaration in graph.applicable[object_type][field_name]:
                    assert allowed <= graph.below(declaration.base)

    def test_own_covers_every_object_relationship(self):
        schema = load("library")
        graph = TypeDependencyGraph(schema)
        for type_name, field_name, field_def in schema.field_declarations():
            if field_def.is_relationship and type_name in schema.object_types:
                assert (type_name, field_name) in graph.own

    def test_obligations_and_caps_resolve_to_object_targets(self):
        schema = load("example_6_1_a")
        graph = TypeDependencyGraph(schema)
        assert graph.obligations_at("OT1", "hasOT1")
        assert graph.caps_at("OT1", "hasOT1")


# --------------------------------------------------------------------------- #
# the pass framework
# --------------------------------------------------------------------------- #


class _Noop(AnalysisPass):
    name = "noop"

    def run(self, context):
        return "fact"


class TestPassManager:
    def test_unknown_dependency_rejected(self):
        class Bad(AnalysisPass):
            name = "bad"
            requires = ("missing",)

            def run(self, context):  # pragma: no cover
                return None

        with pytest.raises(AnalysisError, match="requires 'missing'"):
            PassManager([Bad()])

    def test_duplicate_name_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            PassManager([_Noop(), _Noop()])

    def test_facts_and_timings_recorded(self):
        result = PassManager([_Noop()]).run(load("library"))
        assert result.fact("noop") == "fact"
        assert "noop" in result.timings

    def test_fixpoint_counts_rounds(self):
        state = {"n": 0}

        def step():
            state["n"] += 1
            return state["n"] < 4

        assert fixpoint(step, name="t") == 4

    def test_fixpoint_ceiling_guards_nonmonotone_steps(self):
        with pytest.raises(AnalysisError, match="did not converge"):
            fixpoint(lambda: True, name="diverge", max_rounds=10)

    def test_diagnostics_sorted_regardless_of_emission_order(self):
        """Fixpoint passes may emit findings in any order; reports are
        deterministic by (line, column, code, location, message)."""
        findings = [
            Diagnostic("PG012", Severity.WARNING, "b", location="B.f"),
            Diagnostic("PG011", Severity.ERROR, "a", location="A"),
            Diagnostic("PG011", Severity.ERROR, "z", location="A"),
        ]

        class Shuffled(AnalysisPass):
            name = "shuffled"

            def run(self, context):
                for finding in reversed(findings):
                    context.emit(finding)
                return None

        result = PassManager([Shuffled()]).run(load("library"))
        assert list(result.diagnostics) == sorted(findings, key=sort_key)


# --------------------------------------------------------------------------- #
# the cardinality pass
# --------------------------------------------------------------------------- #


class TestCardinality:
    def facts(self, schema) -> CardinalityFacts:
        return analyze_schema(schema).fact("cardinality")

    def test_example_6_1_a_target_is_dead(self):
        facts = self.facts(load("example_6_1_a"))
        assert "OT1" in facts.dead
        assert facts.interval("OT1") == ZERO
        assert facts.type_verdict("OT1") is False

    def test_diagram_b_cycle_stays_undecided(self):
        facts = self.facts(load("diagram_b"))
        assert not facts.dead
        for type_name in ("OT1", "OT2", "OT3"):
            assert facts.type_verdict(type_name) is None

    def test_library_is_entirely_good(self):
        schema = load("library")
        facts = self.facts(schema)
        assert facts.good == frozenset(schema.object_types)
        assert all(v is True for v in facts.field_verdicts.values())

    def test_unservable_obligation_beyond_lint(self):
        # rule 3 proves T dead though the obligation's source family is
        # empty; lint renders that proof as PG003 at T with the
        # obligation's span, and PG011 does not repeat it
        schema = parse_schema(
            "interface Emitter { to: [T] @requiredForTarget }\n"
            "type T { name: String }"
        )
        facts = self.facts(schema)
        assert facts.dead["T"].rule == "unservable-obligation"
        from repro.lint import lint_schema

        findings = [
            finding
            for finding in lint_schema(schema)
            if finding.unsat_type == "T"
        ]
        assert [(f.code, f.location, str(f.span)) for f in findings] == [
            ("PG003", "T", "1:21")
        ]
        assert "no Emitter node can exist" in findings[0].message

    def test_near_unsat_blocks_flip_with_the_second_obligation(self):
        alive = self.facts(near_unsat_schema(2, collide=False))
        assert not alive.dead
        assert alive.type_verdict("Sink0") is True
        dead = self.facts(near_unsat_schema(2, collide=True))
        assert {"Sink0", "Sink1", "Probe"} <= set(dead.dead)

    def test_deep_lattice_refuses_cyclic_sat_claims(self):
        facts = self.facts(deep_lattice_schema(4, 2))
        assert not facts.dead
        assert not facts.good


# --------------------------------------------------------------------------- #
# the satellite passes (diagnostics surfaced as PG013-PG018)
# --------------------------------------------------------------------------- #


def _codes(schema):
    return [d.code for d in analyze_schema(schema).diagnostics]


class TestSatellitePasses:
    def test_implied_directive_across_inheritance(self):
        schema = parse_schema(
            "interface I { moved: [J] @required }\n"
            "type A implements I { moved: [J] @required }\n"
            "type J { name: String }"
        )
        assert "PG013" in _codes(schema)

    def test_contradictory_inheritance_on_inconsistent_schema(self):
        schema = parse_schema(
            "interface P1 { f: [A] }\n"
            "interface P2 { f: [B] }\n"
            "type A implements P1 { f: [A] }\n"
            "type B implements P2 { f: [B] }\n"
            "type C implements P1 & P2 { f: [A] }",
            check=False,
        )
        assert "PG014" in _codes(schema)

    def test_key_domain_collision_and_vacuous_key(self):
        schema = parse_schema(
            "enum Color { RED GREEN }\n"
            'type A @key(fields: ["flag"]) @key(fields: ["flag", "hue"]) {\n'
            "  flag: Boolean!\n  hue: Color!\n}"
        )
        codes = _codes(schema)
        assert codes.count("PG015") == 2  # 2 and 4 value tuples
        assert "PG016" in codes

    def test_key_pass_handles_interface_keys(self):
        schema = parse_schema(
            'interface I @key(fields: ["flag"]) { flag: Boolean! }\n'
            "type A implements I { flag: Boolean! }"
        )
        assert "PG015" in _codes(schema)

    def test_dead_abstract_type_and_isolated_type(self):
        schema = parse_schema(
            "interface Emitter { to: [T] @requiredForTarget }\n"
            "type T { name: String }\n"
            "union Only = T\n"
            "type Lonely { tag: String }"
        )
        codes = _codes(schema)
        assert "PG017" in codes
        assert "PG018" in codes


# --------------------------------------------------------------------------- #
# memoization and the lint surface
# --------------------------------------------------------------------------- #


class TestFrontDoor:
    def test_analyze_schema_memoizes_per_instance(self):
        schema = load("library")
        first = analyze_schema(schema)
        assert analyze_schema(schema) is first
        analysis_cache_clear()
        assert analyze_schema(schema) is not first

    def test_new_rules_never_join_the_unsat_class(self):
        # of the analysis rules only PG011 proves a type dead, and each
        # type it names is one the sat ladder's static rung decides UNSAT
        from repro.lint import lint_schema

        for _name, schema in _all_schemas():
            static = sat_preverdicts(schema).types
            for finding in lint_schema(schema, select=[f"PG{i:03d}" for i in range(11, 19)]):
                if finding.code == "PG011":
                    assert static[finding.unsat_type] is False
                else:
                    assert finding.unsat_type is None, finding

    def test_lint_suppresses_findings_already_reported(self):
        from repro.lint import lint_schema

        # example_6_1_a's OT1 is PG001 territory; PG011 must stay silent
        findings = lint_schema(load("example_6_1_a"))
        codes = [f.code for f in findings]
        assert "PG001" in codes
        assert "PG011" not in codes

    def test_select_by_new_slug(self):
        assert [r.code for r in resolve_rules(select=["interval-unsat"])] == [
            "PG011"
        ]

    def test_comma_bundled_selectors(self):
        codes = [r.code for r in resolve_rules(select=["PG011,PG017", "PG013"])]
        assert codes == ["PG011", "PG013", "PG017"]

    def test_unknown_rule_suggests_closest(self):
        with pytest.raises(SchemaError, match="unknown lint rule") as info:
            resolve_rules(select=["PG0011"])
        assert "did you mean" in str(info.value)
        with pytest.raises(SchemaError, match="interval-unsat"):
            resolve_rules(select=["interval-unsats"])


# --------------------------------------------------------------------------- #
# the differential suite: pre-verdicts vs the tableau, byte for byte
# --------------------------------------------------------------------------- #


#: The two dead-proof rules no generator reaches, one input each:
#: (name, SDL, the type proved dead, the rule that proves it).  The second
#: fails Definition 4.5 (``A`` lacks ``I.f``), so it is parsed unchecked.
_RULE_INPUTS = (
    (
        "unservable_obligation",
        "interface Emitter { to: [T] @requiredForTarget }\ntype T { name: String }",
        "T",
        "unservable-obligation",
    ),
    (
        "missing_field",
        "interface I { f: T @required }\n"
        "type A implements I { name: String }\n"
        "type T { x: Int }",
        "A",
        "missing-field",
    ),
)


def _generated_schemas():
    yield "hub_chain", hub_chain_schema(depth=5, leaves=3)
    yield "deep_lattice", deep_lattice_schema(4, 2)
    yield "near_unsat_sat", near_unsat_schema(3, collide=False)
    yield "near_unsat_unsat", near_unsat_schema(3, collide=True)
    for seed in range(6):
        yield f"random{seed}", random_schema(seed=seed)
    for name, sdl, _dead, _rule in _RULE_INPUTS:
        yield name, parse_schema(sdl, check=False)


@pytest.mark.parametrize(
    "sdl, dead, rule", [entry[1:] for entry in _RULE_INPUTS], ids=[e[0] for e in _RULE_INPUTS]
)
def test_rule_inputs_are_proved_dead_by_their_rule(sdl, dead, rule):
    facts = analyze_schema(parse_schema(sdl, check=False)).fact("cardinality")
    assert facts.dead[dead].rule == rule


def test_differential_inputs_cover_every_dead_rule():
    rules = {
        proof.rule
        for _name, schema in _all_schemas()
        for proof in analyze_schema(schema).fact("cardinality").dead.values()
    }
    assert rules == {
        "missing-field",
        "dead-targets",
        "unservable-obligation",
        "incoming-overflow",
        "forced-cap-overflow",
    }


def _all_schemas():
    for name in CORPUS:
        yield name, load(name)
    yield from _generated_schemas()


@pytest.mark.parametrize(
    "name,schema", _all_schemas(), ids=lambda value: value if isinstance(value, str) else ""
)
def test_preverdicts_agree_with_the_tableau(name, schema):
    pre = sat_preverdicts(schema)
    oracle = SatisfiabilityChecker(schema, cache=False, analysis_precheck=False)
    for type_name, claimed in sorted(pre.types.items()):
        verdict = oracle.check_type(type_name, find_witness=False)
        assert verdict.tableau_satisfiable == claimed, f"{name}: type {type_name}"
        assert verdict.decided_by == "tableau"
    for (type_name, field_name), claimed in sorted(pre.fields.items()):
        assert (
            oracle.check_field(type_name, field_name) == claimed
        ), f"{name}: field {type_name}.{field_name}"


@pytest.mark.parametrize(
    "name",
    ["example_6_1_a", "diagram_b", "diagram_c", "library", "food_interface"],
)
@pytest.mark.parametrize("engine", ["serial", "portfolio"])
def test_reports_are_byte_identical_with_analysis_on_or_off(name, engine):
    schema = load(name)
    with_feed = SatisfiabilityChecker(schema, cache=False)
    without = SatisfiabilityChecker(schema, cache=False, analysis_precheck=False)
    report_on = with_feed.check_schema(engine=engine, find_witnesses=True).to_json()
    report_off = without.check_schema(engine=engine, find_witnesses=True).to_json()
    # the analysis names itself where it decided, with PG011 on an UNSAT type
    static = sat_preverdicts(schema).types
    for type_name, entry in report_on["types"].items():
        off = report_off["types"][type_name]
        assert off["decided_by"] == "tableau" and "diagnostic" not in off
        if type_name in static:
            assert entry.pop("decided_by") == "analysis"
            if static[type_name] is False:
                assert entry.pop("diagnostic") == "PG011"
        else:
            assert entry.pop("decided_by") == "tableau"
        assert "diagnostic" not in entry
        del off["decided_by"]
    dump = lambda report: json.dumps(report, sort_keys=True)  # noqa: E731
    assert dump(report_on) == dump(report_off)


def test_portfolio_accounts_analysis_wins():
    checker = SatisfiabilityChecker(load("library"), cache=False)
    report = checker.check_schema(engine="portfolio")
    assert report.sound
    wins = checker.last_profile["wins"]
    assert wins.get("analysis", 0) > 0
    assert wins.get("tableau", 0) == 0  # the whole schema decided statically


def test_corpus_static_decision_rate_meets_the_bar():
    """At least 30% of corpus elements (types + relationship declarations)
    must be decided without any tableau search -- the acceptance floor."""
    decided = total = 0
    for name in CORPUS:
        schema = load(name)
        pre = sat_preverdicts(schema)
        decided += pre.decided
        total += len(schema.object_types) + sum(
            1
            for *_x, field_def in schema.field_declarations()
            if field_def.is_relationship
        )
    assert decided / total >= 0.30


def test_cache_hits_still_win_over_analysis():
    schema = load("library")
    first = SatisfiabilityChecker(schema)
    first.check_schema(engine="portfolio")
    second = SatisfiabilityChecker(schema)
    second.check_schema(engine="portfolio")
    assert second.last_profile["wins"].get("cache", 0) > 0


def test_budgeted_checkers_use_the_feed():
    from repro.resilience import Budget

    checker = SatisfiabilityChecker(load("library"), budget=Budget(max_nodes=10**6))
    assert checker.analysis_verdicts() == sat_preverdicts(load("library"))
    report = checker.check_schema()
    assert report.sound
    elements = len(report.types) + len(report.fields)
    assert checker.last_profile["wins"] == {"analysis": elements}
    disabled = SatisfiabilityChecker(load("library"), analysis_precheck=False)
    assert disabled.analysis_verdicts() is None


def test_dead_chain_is_unsat_under_a_tight_node_budget():
    # the static rung decides under a budget the tableau cannot finish in
    from repro.resilience import Budget

    lines = ["interface Dead { x: Int }", "type T0 { next: Dead @required }"]
    lines += [f"type T{i} {{ next: T{i - 1} @required }}" for i in range(1, 64)]
    schema = parse_schema("\n".join(lines))
    budgeted = SatisfiabilityChecker(schema, budget=Budget(max_nodes=50))
    verdict = budgeted.check_type("T63", find_witness=False)
    assert verdict.verdict == "unsat"
    assert verdict.decided_by == "analysis"
    assert verdict.diagnostic.code == "PG011"
    tableau_only = SatisfiabilityChecker(
        schema, budget=Budget(max_nodes=50), analysis_precheck=False
    )
    assert tableau_only.check_type("T63", find_witness=False).verdict == "unknown"


# --------------------------------------------------------------------------- #
# the CLI surface
# --------------------------------------------------------------------------- #


class TestAnalyzeCommand:
    @pytest.fixture
    def library_file(self, tmp_path):
        path = tmp_path / "library.graphql"
        path.write_text(CORPUS["library"].sdl)
        return str(path)

    def test_human_output_and_exit_zero(self, library_file, capsys):
        assert main(["analyze", library_file]) == 0
        out = capsys.readouterr().out
        assert "Book: sat" in out
        assert "decided statically" in out

    def test_error_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "dead.graphql"
        path.write_text(
            "interface Emitter { to: [T] @requiredForTarget }\n"
            "type T { name: String }\n"
        )
        assert main(["analyze", str(path)]) == 1
        assert "PG011" in capsys.readouterr().out

    def test_json_payload_shape(self, library_file, capsys):
        assert main(["analyze", library_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"passes", "types", "fields", "diagnostics"}
        assert [entry["name"] for entry in payload["passes"]] == [
            "cardinality",
            "implication",
            "keys",
            "reachability",
        ]
        assert payload["types"]["Book"]["verdict"] == "sat"
        assert payload["fields"]["Book.author"] == "sat"

    def test_timings_go_to_stderr(self, library_file, capsys):
        assert main(["analyze", library_file, "--timings"]) == 0
        assert "cardinality" in capsys.readouterr().err

    def test_sat_no_analysis_flag(self, library_file, capsys):
        assert main(
            ["sat", library_file, "--no-witness", "--no-analysis", "--profile"]
        ) == 0
        err = capsys.readouterr().err
        assert "analysis" not in err.split("decided by:")[1].splitlines()[0]

    def test_analyze_obs_metrics(self, library_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["analyze", library_file, "--metrics", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        text = json.dumps(payload)
        assert "analysis.pass.cardinality.seconds" in text


def test_default_passes_pipeline_names():
    assert [p.name for p in default_passes()] == [
        "cardinality",
        "implication",
        "keys",
        "reachability",
    ]
