"""Compiled validation plans and the per-schema plan cache."""

import pytest

from repro.validation import (
    IndexedValidator,
    ParallelValidator,
    compile_plan,
    plan_cache_clear,
    plan_cache_info,
    validate,
)
from repro.validation import plan as plan_module
from repro.workloads import load, user_session_graph


@pytest.fixture(autouse=True)
def fresh_cache():
    plan_cache_clear()
    yield
    plan_cache_clear()


def _small_workload():
    schema = load("user_session_edge_props")
    graph = user_session_graph(4, sessions_per_user=2, seed=0)
    return schema, graph


class TestPlanCache:
    def test_repeated_validate_hits_the_cache(self):
        schema, graph = _small_workload()
        for _ in range(3):
            assert validate(schema, graph).conforms
        info = plan_cache_info()
        assert info["misses"] == 1, "schema analysed more than once"
        assert info["hits"] == 2
        assert info["size"] == 1

    def test_site_tables_computed_once_across_validations(self, monkeypatch):
        """The expensive schema analysis (the site tables) must run exactly
        once no matter how many times the same schema is validated."""
        schema, graph = _small_workload()
        calls = {"count": 0}
        original = plan_module.sites.key_sites

        def counting_key_sites(target_schema):
            calls["count"] += 1
            return original(target_schema)

        monkeypatch.setattr(plan_module.sites, "key_sites", counting_key_sites)
        for _ in range(4):
            validate(schema, graph)
        assert calls["count"] == 1

    def test_engines_share_one_plan(self):
        schema, _graph = _small_workload()
        plan = compile_plan(schema)
        assert IndexedValidator(schema, plan=plan).plan is plan
        assert ParallelValidator(schema, plan=plan).plan is plan
        # going through compile_plan again returns the same object
        assert compile_plan(schema) is plan

    def test_distinct_schemas_get_distinct_plans(self):
        first = load("user_session_edge_props")
        second = load("library")
        assert compile_plan(first) is not compile_plan(second)
        assert plan_cache_info()["size"] == 2

    def test_clear_resets_counters(self):
        schema, _graph = _small_workload()
        compile_plan(schema)
        compile_plan(schema)
        plan_cache_clear()
        assert plan_cache_info() == {"hits": 0, "misses": 0, "size": 0}


class TestPlanSemantics:
    def test_checker_w_matches_in_values_w(self):
        """The compiled per-field checkers decide exactly values_W."""
        schema = load("user_session_edge_props")
        samples = (
            "text", "", 0, 1, -7, 3.5, True, False, None,
            (), ("a", "b"), (1, 2), ("a", None),
        )
        for type_def in (schema.composite(name) for name in sorted(schema.object_types)):
            for field_def in type_def.fields:
                if not schema.is_scalar_type(field_def.type.base):
                    continue
                checker = schema.scalars.checker_w(field_def.type)
                for value in samples:
                    assert checker(value) == schema.scalars.in_values_w(
                        value, field_def.type
                    ), (type_def.name, field_def.name, value)

    def test_labels_below_is_shared_and_memoized(self):
        schema = load("food_interface")
        plan = compile_plan(schema)
        first = plan.labels_below("Food")
        assert plan.labels_below("Food") is first  # memoized
        assert plan.is_below("Pizza", "Food")
        assert not plan.is_below("Person", "Food")

    def test_incremental_validator_reuses_the_compiled_plan(self):
        from repro.validation import IncrementalValidator

        schema, graph = _small_workload()
        plan = compile_plan(schema)
        incremental = IncrementalValidator(schema, graph, plan=plan)
        assert incremental.plan is plan
        assert plan_cache_info()["misses"] == 1

    def test_node_rules_flag_unknown_labels(self):
        schema = load("library")
        plan = compile_plan(schema)
        assert plan.node_rules("Book").known
        assert not plan.node_rules("Ghost").known
