"""A schema's derived state lives on the schema: one memo per instance.

The validation plan, the sat verdict cache and the dataflow analysis are
pure functions of the schema, kept in its memo.  They must be freed with
the schema, and a pickled schema must leave them behind.
"""

import gc
import pickle
import weakref

from repro.analysis import analyze_schema
from repro.lint import lint_schema
from repro.satisfiability import SatisfiabilityChecker
from repro.satisfiability.cache import SatCache
from repro.schema import parse_schema
from repro.validation import compile_plan, plan_cache_info
from repro.validation.plan import ValidationPlan
from repro.workloads import CORPUS

SDL = CORPUS["library"].sdl


def _warm(schema) -> None:
    compile_plan(schema)
    SatisfiabilityChecker(schema).check_schema()
    analyze_schema(schema)
    lint_schema(schema)


def test_derived_state_is_freed_with_the_schema():
    schema = parse_schema(SDL)
    _warm(schema)
    alive = weakref.ref(schema)
    del schema
    gc.collect()
    assert alive() is None


def test_analysed_schemas_do_not_accumulate():
    before = plan_cache_info()["size"]
    refs = []
    for _ in range(5):
        schema = parse_schema(SDL)
        analyze_schema(schema)
        compile_plan(schema)
        refs.append(weakref.ref(schema))
        del schema
    gc.collect()
    assert [ref() for ref in refs] == [None] * 5
    assert plan_cache_info()["size"] == before


def test_pickled_schema_leaves_its_memo_behind():
    schema = parse_schema(SDL)
    _warm(schema)
    clone = pickle.loads(pickle.dumps(schema))
    for kind in (ValidationPlan, SatCache):
        assert schema.memo_get(kind) is not None
        assert clone.memo_get(kind) is None
    assert clone._memo is None
    # the copy rebuilds what it needs, to the same answers
    assert compile_plan(clone) is not compile_plan(schema)
    report = SatisfiabilityChecker(clone).check_schema(find_witnesses=False)
    expected = SatisfiabilityChecker(schema).check_schema(find_witnesses=False)
    assert report.to_json() == expected.to_json()
