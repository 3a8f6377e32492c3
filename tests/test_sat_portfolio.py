"""Portfolio satisfiability: determinism, the parent-first ladder, caching,
recovery.

The contracts under test (docs/PERFORMANCE.md, E13):

1. the portfolio engine's ``check_schema`` report is *byte-identical*
   (through ``to_json()``) to the serial engine's, for any jobs count or
   rung, cold or warm cache -- including diagram (b), where the
   tableau and the bounded finder genuinely diverge;
2. the decision ladder (cache → lint → analysis) runs in the calling
   process: only units with open elements reach a worker, a fully decided
   schema builds no pool, and win counts do not depend on the rung;
3. the :class:`SatCache` memoizes decided verdicts across
   ``check_type`` / ``check_field`` / ``check_schema`` and across checker
   instances, and never caches budget-exhausted UNKNOWNs;
4. a hard worker kill during a process-rung sweep is recovered by the
   executor ladder with the report unchanged.

A test reaches the process rung through the ``process_rung`` fixture
(tests/conftest.py) and at least ``jobs`` open units.
"""

import concurrent.futures
import json

import pytest

from repro import obs
from repro.resilience import Budget, faults, ladder
from repro.satisfiability import (
    SatCache,
    SatisfiabilityChecker,
    build_units,
    sat_cache_clear,
    sat_cache_for,
    sat_cache_info,
)
from repro.schema import parse_schema
from repro.workloads import CORPUS, hub_chain_schema, load

JOBS = [1, 2, 4]


@pytest.fixture(autouse=True)
def _fresh_registry():
    sat_cache_clear()
    yield
    sat_cache_clear()


def _dump(report):
    return json.dumps(report.to_json(), sort_keys=True)


def _jobs_for(rung, request):
    """A ``jobs`` that reaches *rung*: 1 runs inline; 2 on the
    ``process_rung`` fixture's faked multi-core host forks."""
    if rung == "process":
        request.getfixturevalue("process_rung")
        return 2
    return 1


def _observed_sweep(checker, **kwargs):
    """Run ``check_schema``; return the report and how many units reached
    the executor ladder (the ``sat.units.open`` counter)."""
    with obs.observed(metrics=True) as observation:
        report = checker.check_schema(**kwargs)
    return report, observation.registry.snapshot()["counters"]["sat.units.open"]


# --------------------------------------------------------------------------- #
# determinism: byte-identical reports
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("jobs", JOBS)
def test_portfolio_reports_byte_identical_across_jobs(jobs):
    for name in CORPUS:
        schema = load(name)
        expected = _dump(
            SatisfiabilityChecker(schema, cache=False).check_schema(engine="serial")
        )
        checker = SatisfiabilityChecker(schema, cache=SatCache(schema))
        cold = checker.check_schema(jobs=jobs, engine="portfolio")
        warm = checker.check_schema(jobs=jobs, engine="portfolio")
        assert _dump(cold) == expected, name
        assert _dump(warm) == expected, (name, "warm replay must not differ")


@pytest.mark.parametrize("rung", ["serial", "process"])
@pytest.mark.parametrize("name", ["example_6_1_a", "diagram_b"])
def test_portfolio_reports_byte_identical_across_executors(rung, name, request):
    # analysis off: the ladder would decide every example_6_1_a element in
    # the parent; this way the tableau decides them on the executor rung,
    # dead OT1 and the units pointing at it (the batch-UNSAT staged fallback)
    schema = load(name)
    expected = _dump(
        SatisfiabilityChecker(schema, cache=False, analysis_precheck=False).check_schema(
            find_witnesses=True, engine="serial"
        )
    )
    checker = SatisfiabilityChecker(
        schema, cache=SatCache(schema), analysis_precheck=False
    )
    report, open_units = _observed_sweep(
        checker, find_witnesses=True, jobs=_jobs_for(rung, request), engine="portfolio"
    )
    assert _dump(report) == expected
    assert open_units > 0, "no unit reached the executor rung under test"
    assert checker.last_profile["executor"] == rung


def test_portfolio_with_witnesses_matches_serial():
    for name in ("library", "diagram_c", "hub"):
        schema = hub_chain_schema(depth=4, leaves=3) if name == "hub" else load(name)
        expected = _dump(
            SatisfiabilityChecker(schema, cache=False).check_schema(
                find_witnesses=True, engine="serial"
            )
        )
        report = SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
            find_witnesses=True, jobs=2, engine="portfolio"
        )
        assert _dump(report) == expected, name


# --------------------------------------------------------------------------- #
# the decision ladder runs in the parent; only open units fan out
# --------------------------------------------------------------------------- #


def test_portfolio_preserves_diagram_b_infinite_model_divergence(process_rung):
    """Diagram (b)'s OT2 is tableau-SAT but has no finite model: the
    portfolio must report it satisfiable with the bounded search
    empty-handed, not let the bounded failure masquerade as a verdict."""
    schema = load("diagram_b")
    report = SatisfiabilityChecker(schema, cache=SatCache(schema)).check_schema(
        find_witnesses=True, jobs=2, engine="portfolio"
    )
    ot2 = report.types["OT2"]
    assert ot2.tableau_satisfiable is True
    assert ot2.bounded is not None and not ot2.bounded.satisfiable
    assert ot2.finitely_satisfiable is None
    # the divergence is OT2's alone: its neighbours have finite witnesses
    assert report.types["OT1"].finitely_satisfiable is True
    assert report.types["OT3"].finitely_satisfiable is True


def _elements(schema):
    return len(schema.object_types) + sum(
        1 for *_loc, field_def in schema.field_declarations() if field_def.is_relationship
    )


def test_warm_shared_cache_decides_everything_without_a_pool(monkeypatch, process_rung):
    schema = load("diagram_b")  # every unit needs the tableau when cold
    SatisfiabilityChecker(schema).check_schema(jobs=1)

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a fully decided sweep must not build a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    second = SatisfiabilityChecker(schema)
    report, open_units = _observed_sweep(second, jobs=2, engine="portfolio")
    assert open_units == 0
    assert second.last_profile["wins"] == {"cache": _elements(schema)}
    assert not second.last_recovery_log
    assert report.sound


def test_no_jobs_runs_open_units_inline_on_a_many_core_host(monkeypatch, process_rung):
    """Diagram (b) leaves 4 units open.  Without ``jobs`` they run in the
    calling process, whatever the core count; ``jobs=2`` still picks the
    process rung."""
    schema = load("diagram_b")
    expected = _dump(
        SatisfiabilityChecker(schema, cache=False).check_schema(
            find_witnesses=True, engine="serial"
        )
    )

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a sweep without jobs must not build a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    checker = SatisfiabilityChecker(schema, cache=False)
    report, open_units = _observed_sweep(checker, find_witnesses=True)
    assert open_units == 4
    assert (checker.last_profile["executor"], checker.last_profile["jobs"]) == ("serial", 1)
    assert _dump(report) == expected
    with pytest.raises(AssertionError, match="must not build a pool"):
        SatisfiabilityChecker(schema, cache=False).check_schema(jobs=2)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_wins_and_reports_do_not_depend_on_the_executor(name, process_rung):
    schema = load(name)
    inline = SatisfiabilityChecker(schema, cache=SatCache(schema))
    inline_report = inline.check_schema(jobs=1)
    pooled = SatisfiabilityChecker(schema, cache=SatCache(schema))
    pooled_report = pooled.check_schema(jobs=2)
    assert _dump(pooled_report) == _dump(inline_report)
    assert pooled.last_profile["wins"] == inline.last_profile["wins"]


# --------------------------------------------------------------------------- #
# unit partitioning
# --------------------------------------------------------------------------- #


def test_build_units_covers_every_element_once():
    schema = load("food_interface")
    units = build_units(schema)
    typed = [unit.type_name for unit in units if unit.type_name is not None]
    assert sorted(typed) == sorted(schema.object_types)
    seen = set()
    for unit in units:
        for field_name, _base in unit.fields:
            key = (unit.declaring, field_name)
            assert key not in seen, "field assigned to two units"
            seen.add(key)
    expected = {
        (type_name, field_name)
        for type_name, field_name, field_def in schema.field_declarations()
        if field_def.is_relationship
    }
    assert seen == expected


def test_unknown_engine_and_executor_rejected():
    schema = load("library")
    checker = SatisfiabilityChecker(schema, cache=False)
    with pytest.raises(ValueError, match="unknown engine"):
        checker.check_schema(engine="quantum")
    # the rung is chosen, never named: there is no executor option
    with pytest.raises(TypeError, match="executor"):
        checker.check_schema(executor="process")


# --------------------------------------------------------------------------- #
# verdict caching
# --------------------------------------------------------------------------- #


def test_check_type_hits_cache_on_repeat():
    schema = load("library")
    cache = SatCache(schema)
    checker = SatisfiabilityChecker(schema, cache=cache)
    first = checker.check_type("Book", find_witness=False)
    hits_before = cache.cache_info()["hits"]
    second = checker.check_type("Book", find_witness=False)
    assert cache.cache_info()["hits"] > hits_before
    assert second.verdict == first.verdict
    assert second.decided_by == first.decided_by


def test_check_field_hits_cache_on_repeat():
    schema = load("library")
    cache = SatCache(schema)
    checker = SatisfiabilityChecker(schema, cache=cache)
    assert checker.check_field("Book", "author") is True
    hits_before = cache.cache_info()["hits"]
    assert checker.check_field("Book", "author") is True
    assert cache.cache_info()["hits"] == hits_before + 1


def test_cache_shared_across_checker_instances():
    schema = load("library")
    first = SatisfiabilityChecker(schema)  # cache=True -> shared registry
    first.check_schema(engine="portfolio")
    cache = sat_cache_for(schema)
    hits_before = cache.cache_info()["hits"]
    second = SatisfiabilityChecker(schema)
    second.check_schema(engine="portfolio")
    assert cache.cache_info()["hits"] > hits_before
    assert second.last_profile["wins"].get("cache", 0) > 0


def test_unknown_verdicts_are_never_cached():
    schema = parse_schema("type A { b: B @required }\ntype B { a: A @required }")
    cache = SatCache(schema)
    checker = SatisfiabilityChecker(
        schema, cache=cache, budget=Budget(max_nodes=1), analysis_precheck=False
    )
    verdict = checker.check_type("A", find_witness=False)
    assert verdict.verdict == "unknown"
    assert cache.cache_info()["types"] == 0
    # a bigger budget must get a fresh attempt and decide
    decided = SatisfiabilityChecker(schema, cache=cache, analysis_precheck=False)
    verdict = decided.check_type("A", find_witness=False)
    assert (verdict.verdict, verdict.decided_by) == ("sat", "tableau")
    assert cache.cache_info()["types"] == 1


def test_label_cache_shares_proofs_between_type_and_field_checks():
    schema = load("library")
    cache = SatCache(schema)
    # analysis off: this test exercises the tableau's label cache, and the
    # dataflow feed would otherwise decide the whole schema without a search
    checker = SatisfiabilityChecker(schema, cache=cache, analysis_precheck=False)
    checker.check_schema(engine="serial")
    info = cache.cache_info()
    assert info["label_entries"] > 0
    assert info["label_hits"] + info["label_misses"] > 0


def test_sat_cache_info_aggregates_registry():
    schema = load("library")
    SatisfiabilityChecker(schema).check_schema()
    info = sat_cache_info()
    assert info["schemas"] == 1
    assert info["types"] == len(schema.object_types)
    assert info["fields"] > 0
    sat_cache_clear()
    assert sat_cache_info()["schemas"] == 0


# --------------------------------------------------------------------------- #
# worker-crash recovery
# --------------------------------------------------------------------------- #


def test_hard_worker_kill_recovers_byte_identically(process_rung, monkeypatch):
    """An os._exit kill of a portfolio pool worker must be retried by the
    executor ladder and produce the undisturbed report byte-for-byte."""
    schema = load("library")
    faults.install(None)
    try:
        expected = _dump(
            SatisfiabilityChecker(
                schema, cache=False, analysis_precheck=False
            ).check_schema(engine="serial")
        )
    finally:
        faults.uninstall()
    faults.install("crash@portfolio.worker:unit=1,attempt=0,mode=exit")
    try:
        # analysis off: the ladder would otherwise decide every library
        # element in the parent and no worker would run
        checker = SatisfiabilityChecker(
            schema, cache=SatCache(schema), analysis_precheck=False
        )
        monkeypatch.setattr(ladder, "RETRY_BASE_DELAY", 0.01)
        report = checker.check_schema(jobs=2, engine="portfolio")
    finally:
        faults.uninstall()
    assert _dump(report) == expected
    assert checker.last_recovery_log, "the fault must have fired and been survived"
    # the dying worker takes its whole pool attempt down: the crashed unit
    # is logged, possibly alongside pool-mates that failed collaterally
    assert any(entry["unit"] == 1 for entry in checker.last_recovery_log)
    assert all(entry["executor"] == "process" for entry in checker.last_recovery_log)


@pytest.mark.parametrize("rung", ["serial"])
def test_raised_worker_crash_recovers_on_lighter_executors(rung, monkeypatch):
    schema = load("library")
    faults.install(None)
    try:
        expected = _dump(
            SatisfiabilityChecker(
                schema, cache=False, analysis_precheck=False
            ).check_schema(engine="serial")
        )
    finally:
        faults.uninstall()
    faults.install("crash@portfolio.worker:unit=0,attempt=0")
    try:
        checker = SatisfiabilityChecker(
            schema, cache=SatCache(schema), analysis_precheck=False
        )
        monkeypatch.setattr(ladder, "RETRY_BASE_DELAY", 0.01)
        report = checker.check_schema(jobs=1, engine="portfolio")
    finally:
        faults.uninstall()
    assert _dump(report) == expected
    assert checker.last_recovery_log
    assert checker.last_recovery_log[0]["unit"] == 0
    assert {entry["executor"] for entry in checker.last_recovery_log} == {rung}


# --------------------------------------------------------------------------- #
# profile surface
# --------------------------------------------------------------------------- #


def _cli_sat_profile(capsys, path, *argv):
    """``pgschema sat PATH --profile ARGV`` on fresh caches: stdout, and the
    hit + miss totals of the sat cache and the label cache."""
    import re

    from repro.cli import main

    sat_cache_clear()
    main(["sat", str(path), "--profile", *argv])
    out, err = capsys.readouterr()
    totals = [
        int(hits) + int(misses)
        for hits, misses in re.findall(r"(\d+) hit\(s\), (\d+) miss\(es\)", err)
    ]
    assert len(totals) == 2, err
    return out, err, totals


def test_process_rung_profile_counts_the_workers_cache_lookups(
    tmp_path, capsys, process_rung
):
    """diagram_b's 4 open units run in workers under ``--jobs 2``: the
    profile adds the workers' lookups to the parent's, so both caches
    report the inline run's lookup totals, and stdout is unchanged."""
    path = tmp_path / "diagram_b.graphql"
    path.write_text(CORPUS["diagram_b"].sdl)
    inline_out, _err, inline_totals = _cli_sat_profile(capsys, path)
    forked_out, forked_err, forked_totals = _cli_sat_profile(capsys, path, "--jobs", "2")
    assert "executor=process jobs=2" in forked_err
    assert forked_out == inline_out
    assert forked_totals == inline_totals
    assert inline_totals[1] > 0  # the label cache was consulted at all


def test_last_profile_records_engine_and_wins():
    schema = hub_chain_schema(depth=3, leaves=2)
    checker = SatisfiabilityChecker(schema, cache=SatCache(schema))
    checker.check_schema(jobs=2, engine="portfolio")
    profile = checker.last_profile
    assert profile["engine"] == "portfolio"
    assert profile["units"] == len(build_units(schema))
    assert sum(profile["wins"].values()) > 0
    checker.check_schema(engine="serial")
    assert checker.last_profile["engine"] == "serial"
