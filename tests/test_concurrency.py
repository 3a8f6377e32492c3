"""Thread-safety hammers for the process-wide caches (ISSUE 9, satellite 1).

The service serves many tenants from one process, so the per-schema plan
and sat caches and the compiled-scalar memo are hit from concurrent
threads.  These tests hammer the public entry points from a thread pool
and assert

* every thread observes **byte-identical** reports (no torn plans, no
  cross-talk between cached checkers);
* the cache bookkeeping stays consistent (hits + misses add up, one
  entry per live schema).
"""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dl.concepts import Name
from repro.satisfiability import (
    BoundedSearchResult,
    SatisfiabilityChecker,
    TypeSatisfiability,
)
from repro.satisfiability import cache as cache_module
from repro.satisfiability.cache import (
    LabelSetCache,
    SatCache,
    sat_cache_clear,
    sat_cache_info,
)
from repro.schema import parse_schema
from repro.schema.scalars import scalar_checker_clear, scalar_checker_info
from repro.service import report_payload
from repro.validation import plan_cache_clear, plan_cache_info, validate
from repro.workloads import CORPUS, user_session_graph

THREADS = 8
ROUNDS = 6


@pytest.fixture(autouse=True)
def fresh_caches():
    plan_cache_clear()
    sat_cache_clear()
    scalar_checker_clear()
    yield
    plan_cache_clear()
    sat_cache_clear()
    scalar_checker_clear()


def canonical(report) -> str:
    return json.dumps(report_payload(report), sort_keys=True)


class TestValidateHammer:
    def test_concurrent_validate_byte_identical(self):
        """One shared schema, many threads: every report byte-identical to
        the single-threaded baseline, one plan compile total."""
        schema = parse_schema(CORPUS["user_session_edge_props"].sdl)
        graph = user_session_graph(30, 3, seed=0)
        expected = canonical(validate(schema, graph, mode="strong"))

        def worker(_index: int) -> list[str]:
            return [
                canonical(validate(schema, graph, mode="strong"))
                for _ in range(ROUNDS)
            ]

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(worker, range(THREADS)))
        assert {payload for batch in outcomes for payload in batch} == {expected}
        info = plan_cache_info()
        # the double-compile race is benign (first write wins) but must be
        # rare enough that the memo is doing its job
        assert info["size"] == 1
        assert info["hits"] >= THREADS * ROUNDS - THREADS

    def test_concurrent_distinct_schemas_no_crosstalk(self):
        """Different schemas validated concurrently never swap plans: a
        graph violating schema B still conforms to schema A."""
        sdl_a = CORPUS["user_session_edge_props"].sdl
        sdl_b = sdl_a.replace("login: String!", "login: Int!")
        schema_a = parse_schema(sdl_a)
        schema_b = parse_schema(sdl_b)
        graph = user_session_graph(10, 2, seed=0)
        expected_a = canonical(validate(schema_a, graph, mode="strong"))
        expected_b = canonical(validate(schema_b, graph, mode="strong"))
        assert expected_a != expected_b  # the schemas genuinely disagree

        def worker(index: int) -> tuple[str, ...]:
            schema, expected = (
                (schema_a, expected_a) if index % 2 == 0 else (schema_b, expected_b)
            )
            return tuple(
                canonical(validate(schema, graph, mode="strong"))
                for _ in range(ROUNDS)
            ), expected

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for payloads, expected in pool.map(worker, range(THREADS)):
                assert set(payloads) == {expected}
        assert plan_cache_info()["size"] == 2

    def test_concurrent_many_schemas_stay_consistent(self):
        """Hammering many schemas at once: reports stay correct and every
        live schema holds exactly one plan."""
        schemas = [parse_schema(CORPUS["library"].sdl) for _ in range(36)]
        graph = user_session_graph(4, 1, seed=0)
        expected = canonical(validate(schemas[0], graph, mode="weak"))

        def worker(index: int) -> str:
            return canonical(
                validate(schemas[index % len(schemas)], graph, mode="weak")
            )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = set(pool.map(worker, range(len(schemas) * 2)))
        assert outcomes == {expected}
        info = plan_cache_info()
        assert info["size"] == len(schemas)
        assert info["hits"] + info["misses"] == len(schemas) * 2 + 1


class TestSatHammer:
    def test_concurrent_check_schema_byte_identical(self):
        schema = parse_schema(CORPUS["user_session_edge_props"].sdl)
        expected = json.dumps(
            SatisfiabilityChecker(schema).check_schema(find_witnesses=False).to_json(),
            sort_keys=True,
        )

        def worker(_index: int) -> list[str]:
            checker = SatisfiabilityChecker(schema)
            return [
                json.dumps(
                    checker.check_schema(find_witnesses=False).to_json(),
                    sort_keys=True,
                )
                for _ in range(3)
            ]

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(worker, range(THREADS)))
        assert {payload for batch in outcomes for payload in batch} == {expected}
        totals = sat_cache_info()
        assert totals["hits"] + totals["misses"] > 0
        assert totals["schemas"] == 1  # one shared per-schema cache, no dupes


def _yield_between_opcodes(frame, event, _arg):
    """Trace function: in the cache module, give up the GIL between
    bytecodes, so a read-modify-write of a counter can interleave."""
    if frame.f_code.co_filename != cache_module.__file__:
        return None
    frame.f_trace_opcodes = True
    if event == "opcode":
        time.sleep(0)
    return _yield_between_opcodes


class TestSatCacheCounters:
    """Every lookup counts exactly once, hit or miss, under contention.

    CPython only switches threads between bytecodes at a few points, so an
    unlocked ``hits += 1`` rarely loses an update by itself; the hammer
    traces the cache module opcode by opcode and yields at every one,
    which makes a lost update near-certain unless the lock is held.
    """

    LOOKUPS = 60

    @staticmethod
    def _hammer(lookup) -> None:
        barrier = threading.Barrier(THREADS)

        def worker(index: int) -> None:
            sys.settrace(_yield_between_opcodes)
            try:
                barrier.wait(timeout=60)
                for round_ in range(TestSatCacheCounters.LOOKUPS):
                    lookup(index + round_)
            finally:
                sys.settrace(None)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(worker, range(THREADS)))

    @pytest.mark.parametrize("layer", ("type", "field", "bounded"))
    def test_sat_cache_hits_plus_misses_add_up(self, layer):
        schema = parse_schema(CORPUS["user_session_edge_props"].sdl)
        cache = SatCache(schema)
        cache.put_type(TypeSatisfiability("User", True))
        cache.put_field(("User", "follows"), True)
        cache.put_bounded("User", 4, BoundedSearchResult(satisfiable=True, bound=4))
        lookups = {
            # every other lookup hits a stored entry
            "type": lambda i: cache.get_type("User" if i % 2 else "UserSession"),
            "field": lambda i: cache.get_field(("User", "follows" if i % 2 else "x")),
            "bounded": lambda i: cache.get_bounded("User", 4 if i % 2 else 3),
        }
        self._hammer(lookups[layer])
        assert cache.hits + cache.misses == THREADS * self.LOOKUPS
        assert cache.hits == cache.misses

    def test_label_cache_hits_plus_misses_add_up(self):
        cache = LabelSetCache()
        known = frozenset({Name("A")})
        cache.store(known, True, known)
        unknown = frozenset({Name("B")})
        self._hammer(lambda i: cache.lookup(known if i % 2 else unknown))
        assert cache.hits + cache.misses == THREADS * self.LOOKUPS
        assert cache.hits == cache.misses == THREADS * self.LOOKUPS // 2


class TestScalarCheckerHammer:
    def test_concurrent_checker_w_memo_consistent(self):
        """checker_w memoization under contention: every thread gets a
        predicate deciding exactly values_W, and hits+misses adds up."""
        schema = parse_schema(CORPUS["user_session_edge_props"].sdl)
        refs = [
            field_def.type
            for name in sorted(schema.object_types)
            for field_def in schema.composite(name).fields
            if schema.is_scalar_type(field_def.type.base)
        ]
        samples = ("text", "", 0, 1, True, None, 3.5)

        def worker(_index: int) -> None:
            for _ in range(ROUNDS):
                for ref in refs:
                    checker = schema.scalars.checker_w(ref)
                    for value in samples:
                        assert checker(value) == schema.scalars.in_values_w(
                            value, ref
                        )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for result in pool.map(worker, range(THREADS)):
                assert result is None
        info = scalar_checker_info()
        # per-ref memo: at most one compiled checker per distinct TypeRef
        # (the benign double-compile race can only lose, never duplicate)
        assert info["size"] <= len(set(refs))
        assert info["hits"] + info["misses"] == THREADS * ROUNDS * len(refs)
