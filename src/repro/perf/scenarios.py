"""The registry of deterministic, seeded profiling scenarios.

Every engine the reproduction grew gets a tracked scenario -- parse, lint,
the dataflow analyzer, the indexed/parallel/stream validation
engines, portfolio satisfiability, CDC apply, and the warm service batch
path -- plus the *adversarial* families from :mod:`repro.workloads` that
stress the hard paths rather than the happy ones: deep interface lattices,
union fan-outs, pathological ``@key`` collision domains, and near-UNSAT
cardinality webs.

A scenario is a context manager factory: ``build(quick)`` performs the
one-time setup (generate the workload, spin up the service thread, write
the journal) and yields a zero-argument ``run`` callable; teardown happens
when the context exits.  :func:`run_scenario` times ``run`` -- one warm-up
execution (absorbing lazy imports, LRU fills and the analysis memo), then
``repeats`` timed samples -- under a scoped metrics observation whose
registry snapshot rides along in the recorded profile, so regressions stay
attributable to internal counters (plan-cache misses, tableau expansions,
shard sizes), not just wall clock.

Workload sizes are fixed per mode (``quick`` vs full) and every generator
is seeded, so two records on the same commit measure the *same* work.
"""

from __future__ import annotations

import gc
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterator

from .. import obs
from .store import Profile, environment_fingerprint

__all__ = [
    "SCENARIOS",
    "Scenario",
    "adversarial_families",
    "record_profiles",
    "run_scenario",
    "scenario",
    "select_scenarios",
]

DEFAULT_REPEATS = 5

BuildFn = Callable[[bool], ContextManager[Callable[[], object]]]


@dataclass(frozen=True)
class Scenario:
    """One registered profiling scenario."""

    id: str
    family: str
    description: str
    build: BuildFn
    adversarial: bool = False
    meta: dict[str, Any] = field(default_factory=dict)


SCENARIOS: dict[str, Scenario] = {}


def scenario(
    id: str, family: str, description: str, adversarial: bool = False
) -> Callable[[Callable[[bool], Iterator[Callable[[], object]]]], BuildFn]:
    """Register a generator function as a scenario build context."""

    def register(
        build: Callable[[bool], Iterator[Callable[[], object]]],
    ) -> BuildFn:
        managed: BuildFn = contextmanager(build)
        if id in SCENARIOS:
            raise ValueError(f"duplicate scenario id {id!r}")
        SCENARIOS[id] = Scenario(
            id=id,
            family=family,
            description=description,
            build=managed,
            adversarial=adversarial,
        )
        return managed

    return register


def adversarial_families() -> list[str]:
    return sorted(
        {entry.family for entry in SCENARIOS.values() if entry.adversarial}
    )


def select_scenarios(only: list[str] | None = None) -> list[Scenario]:
    """Scenarios in registry order, optionally filtered by id or prefix.

    Each ``only`` entry matches an exact scenario id, an id prefix
    (``validate.``), or a family name; unknown selectors raise with the
    known ids so CLI typos fail fast.
    """
    entries = list(SCENARIOS.values())
    if not only:
        return entries
    selected: dict[str, Scenario] = {}
    for pattern in only:
        matches = [
            entry
            for entry in entries
            if entry.id == pattern
            or entry.id.startswith(pattern)
            or entry.family == pattern
        ]
        if not matches:
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(f"unknown scenario {pattern!r}; known: {known}")
        for entry in matches:
            selected[entry.id] = entry
    return [entry for entry in entries if entry.id in selected]


def run_scenario(
    entry: Scenario, *, quick: bool = False, repeats: int = DEFAULT_REPEATS
) -> tuple[tuple[float, ...], dict[str, Any]]:
    """Time one scenario: per-repeat wall samples plus its metrics snapshot.

    The scenario runs under a private scoped observation, so recording
    composes with (and never clobbers) any ``--trace``/``--metrics``
    observation installed by the caller.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    previous = obs.active()
    samples: list[float] = []
    with entry.build(quick) as run:
        observation = obs.install(None, obs.MetricsRegistry())
        gc_was_enabled = gc.isenabled()
        try:
            run()  # warm-up: lazy imports, LRU caches, analysis memo
            # collect-then-disable: a GC pause (import-time garbage hits
            # threshold mid-loop) would otherwise land in one sample
            gc.collect()
            gc.disable()
            for _ in range(repeats):
                start = time.perf_counter()
                run()
                samples.append(time.perf_counter() - start)
            assert observation.registry is not None
            metrics = observation.registry.snapshot()
        finally:
            if gc_was_enabled:
                gc.enable()
            if previous is not None:
                obs.install(previous.tracer, previous.registry)
            else:
                obs.uninstall()
    return tuple(samples), metrics


def record_profiles(
    *,
    commit: str,
    run: int,
    quick: bool = False,
    repeats: int = DEFAULT_REPEATS,
    only: list[str] | None = None,
    progress: Callable[[str, float], None] | None = None,
) -> list[Profile]:
    """Run the (selected) registry and package the results as profiles."""
    env = environment_fingerprint()
    profiles: list[Profile] = []
    for entry in select_scenarios(only):
        samples, metrics = run_scenario(entry, quick=quick, repeats=repeats)
        profiles.append(
            Profile(
                commit=commit,
                run=run,
                scenario=entry.id,
                family=entry.family,
                samples=samples,
                env=env,
                quick=quick,
                metrics=metrics,
                meta={
                    "repeats": repeats,
                    "adversarial": entry.adversarial,
                    "description": entry.description,
                },
            )
        )
        if progress is not None:
            progress(entry.id, min(samples))
    return profiles


# --------------------------------------------------------------------------- #
# core-engine scenarios
# --------------------------------------------------------------------------- #


@scenario("parse.corpus", "parse", "parse + build every paper corpus schema")
def _parse_corpus(quick: bool) -> Iterator[Callable[[], object]]:
    from ..schema import parse_schema
    from ..workloads import CORPUS

    texts = [entry.sdl for entry in CORPUS.values()]
    rounds = 1 if quick else 3

    def run() -> object:
        for _ in range(rounds):
            for sdl in texts:
                parse_schema(sdl, check=False)
        return None

    yield run


@scenario("lint.corpus", "lint", "the PG001-PG018 rule set over the corpus")
def _lint_corpus(quick: bool) -> Iterator[Callable[[], object]]:
    from ..lint import lint_schema
    from ..workloads import CORPUS, load

    schemas = [load(name) for name in CORPUS]
    rounds = 1 if quick else 3

    def run() -> object:
        for _ in range(rounds):
            for schema in schemas:
                lint_schema(schema)
        return None

    yield run


@scenario("analysis.corpus", "analysis", "all dataflow fixpoint passes, cold")
def _analysis_corpus(quick: bool) -> Iterator[Callable[[], object]]:
    from ..analysis import analysis_cache_clear, analyze_schema
    from ..workloads import CORPUS, load

    names = list(CORPUS)[: 6 if quick else len(CORPUS)]
    schemas = [load(name) for name in names]

    def run() -> object:
        analysis_cache_clear()
        for schema in schemas:
            analyze_schema(schema)
        return None

    yield run


@scenario("validate.indexed", "validate", "indexed engine, user/session graph")
def _validate_indexed(quick: bool) -> Iterator[Callable[[], object]]:
    from ..validation import IndexedValidator, compile_plan
    from ..workloads import load, user_session_graph

    schema = load("user_session_edge_props")
    graph = user_session_graph(60 if quick else 600, 2, seed=7)
    validator = IndexedValidator(schema, plan=compile_plan(schema))
    yield lambda: validator.validate(graph)


@scenario("validate.parallel", "validate", "sharded engine, 2 shards")
def _validate_parallel(quick: bool) -> Iterator[Callable[[], object]]:
    from ..validation import ParallelValidator, compile_plan
    from ..workloads import load, user_session_graph

    schema = load("user_session_edge_props")
    graph = user_session_graph(60 if quick else 600, 2, seed=7)
    validator = ParallelValidator(schema, jobs=2, plan=compile_plan(schema))
    yield lambda: validator.validate(graph)


@scenario("validate.stream", "validate", "out-of-core JSONL streaming engine")
def _validate_stream(quick: bool) -> Iterator[Callable[[], object]]:
    from ..pg.io import dump_graph_jsonl
    from ..validation import StreamValidator, compile_plan
    from ..workloads import load, user_session_graph

    schema = load("user_session_edge_props")
    graph = user_session_graph(40 if quick else 400, 2, seed=7)
    with tempfile.TemporaryDirectory(prefix="pgschema-perf-") as tmp:
        path = os.path.join(tmp, "graph.jsonl")
        with open(path, "w", encoding="utf-8") as fp:
            dump_graph_jsonl(graph, fp)
        validator = StreamValidator(
            schema, chunk_elements=64 if quick else 512, plan=compile_plan(schema)
        )
        yield lambda: validator.validate(path)


@scenario("sat.portfolio", "sat", "portfolio fan-out over a hub/chain schema")
def _sat_portfolio(quick: bool) -> Iterator[Callable[[], object]]:
    from ..satisfiability import SatCache, SatisfiabilityChecker
    from ..workloads import hub_chain_schema

    schema = hub_chain_schema(depth=3 if quick else 8, leaves=2 if quick else 6)

    def run() -> object:
        # a fresh SatCache per execution: the measured work is the sweep,
        # not the warm-cache lookup path
        checker = SatisfiabilityChecker(schema, cache=SatCache(schema))
        return checker.check_schema(find_witnesses=False, jobs=2)

    yield run


@scenario("cdc.apply", "cdc", "mutation-journal consume over the CDC engine")
def _cdc_apply(quick: bool) -> Iterator[Callable[[], object]]:
    from ..schema import parse_schema
    from ..validation import CDCConsumer
    from ..workloads import (
        MUTATION_SCHEMA_SDL,
        MutationWorkloadConfig,
        write_mutation_journal,
    )

    schema = parse_schema(MUTATION_SCHEMA_SDL)
    with tempfile.TemporaryDirectory(prefix="pgschema-perf-") as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        write_mutation_journal(
            path,
            MutationWorkloadConfig(
                commits=6 if quick else 30, ops_per_commit=5, seed=11
            ),
        )
        yield lambda: CDCConsumer(schema, path).run()


@scenario("service.batch", "service", "warm batched serving over HTTP keep-alive")
def _service_batch(quick: bool) -> Iterator[Callable[[], object]]:
    from ..pg import graph_to_dict
    from ..service import ServiceClient, ServiceThread
    from ..workloads import CORPUS, user_session_graph

    requests = 4 if quick else 16
    document = graph_to_dict(user_session_graph(8, 2, seed=3))
    thread = ServiceThread(port=0)
    host, port = thread.start()
    try:
        with ServiceClient(host, port) as register_client:
            register_client.register(
                "perf", "users", CORPUS["user_session_edge_props"].sdl
            )

        def run() -> object:
            with ServiceClient(host, port) as client:
                for _ in range(requests):
                    status, payload = client.validate("perf", "users", document)
                    assert status == 200, payload
            return None

        yield run
    finally:
        thread.stop()


# --------------------------------------------------------------------------- #
# adversarial families (grammar-driven generators from repro.workloads)
# --------------------------------------------------------------------------- #


@scenario(
    "adversarial.lattice.sat",
    "adversarial.lattice",
    "deep interface/union lattice: ∀-meet resolution + looping models",
    adversarial=True,
)
def _adversarial_lattice(quick: bool) -> Iterator[Callable[[], object]]:
    from ..satisfiability import SatisfiabilityChecker
    from ..workloads import deep_lattice_schema

    schema = deep_lattice_schema(3 if quick else 5, 2)

    def run() -> object:
        checker = SatisfiabilityChecker(schema, cache=False)
        return checker.check_schema(find_witnesses=False, engine="serial")

    yield run


@scenario(
    "adversarial.union_fanout.sat",
    "adversarial.union_fanout",
    "suffix-union fan-outs: every field expands up to |members| alternatives",
    adversarial=True,
)
def _adversarial_union_fanout(quick: bool) -> Iterator[Callable[[], object]]:
    from ..satisfiability import SatisfiabilityChecker
    from ..workloads import union_fanout_schema

    schema = union_fanout_schema(
        members=4 if quick else 10, fields=4 if quick else 12
    )

    def run() -> object:
        checker = SatisfiabilityChecker(schema, cache=False)
        return checker.check_schema(find_witnesses=False, engine="serial")

    yield run


@scenario(
    "adversarial.key_collision.validate",
    "adversarial.key_collision",
    "pathological @key collision domains: DS7 over a saturated finite key space",
    adversarial=True,
)
def _adversarial_key_collision(quick: bool) -> Iterator[Callable[[], object]]:
    from ..validation import ParallelValidator, compile_plan
    from ..workloads import key_collision_graph, key_collision_schema

    blocks, enum_values = (3, 3) if quick else (6, 4)
    nodes_per_type = 40 if quick else 400
    schema = key_collision_schema(blocks, enum_values)
    graph = key_collision_graph(
        blocks, enum_values, nodes_per_type=nodes_per_type, seed=13
    )
    # the inline plan kernel, as validate() runs it
    validator = ParallelValidator(schema, plan=compile_plan(schema))
    # DS7 reports one violation per colliding pair: nodes are dealt
    # round-robin over the 2*enum_values key tuples, so the count is
    # sum-over-tuples C(count, 2) per block
    domain = 2 * enum_values
    expected = blocks * sum(
        count * (count - 1) // 2
        for count in (
            nodes_per_type // domain + (1 if slot < nodes_per_type % domain else 0)
            for slot in range(domain)
        )
    )

    def run() -> object:
        report = validator.validate(graph)
        assert len(report.violations) == expected, len(report.violations)
        return report

    yield run


@scenario(
    "adversarial.cardinality_web.sat",
    "adversarial.cardinality_web",
    "near-UNSAT cardinality web: Example 6.1 blocks wired in a @required ring",
    adversarial=True,
)
def _adversarial_cardinality_web(quick: bool) -> Iterator[Callable[[], object]]:
    from ..satisfiability import SatisfiabilityChecker
    from ..workloads import cardinality_web_schema

    schema = cardinality_web_schema(2 if quick else 5)

    def run() -> object:
        checker = SatisfiabilityChecker(schema, cache=False)
        return checker.check_schema(find_witnesses=False, engine="serial")

    yield run
