"""Chaos tests: injected crashes, stuck workers, and mid-search deadlines.

Every scenario here drives the deterministic fault harness
(:mod:`repro.resilience.faults`) against the real engines -- including hard
``os._exit`` kills of pool worker processes -- and asserts the two recovery
contracts from docs/RESILIENCE.md:

1. a recovered run is *byte-identical* to an undisturbed one (positional
   shard merging), and
2. a budget or fault may degrade an answer to UNKNOWN, never to a wrong one.

CI runs this module twice: once clean, and once with ``PGSCHEMA_FAULTS``
already set to a worker-crash plan (the chaos-smoke job).  Tests therefore
install their plans explicitly -- ``install()`` overrides the env plan,
``install(None)`` disables injection for baseline runs -- and restore the
environment plan with ``uninstall()``.  A test reaches the process rung
through the ``process_rung`` fixture (tests/conftest.py); retries are
shortened by patching the ladder's two retry constants.
"""

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.errors import BudgetExhaustedError, WorkerFailureError
from repro.resilience import Budget, faults, ladder
from repro.sat import pigeonhole, solve
from repro.satisfiability import SatisfiabilityChecker
from repro.schema import parse_schema
from repro.validation import ParallelValidator
from repro.workloads import corrupt_graph, load, user_session_graph

SCHEMA = load("user_session_edge_props")
GRAPH = user_session_graph(120, sessions_per_user=2, seed=13)
BAD_GRAPH = corrupt_graph(GRAPH, SCHEMA, "DS5", seed=3)

CYCLIC_SDL = """
type A { b: B @required }
type B { a: A @required }
"""


@pytest.fixture(autouse=True)
def _short_backoff(monkeypatch):
    monkeypatch.setattr(ladder, "RETRY_BASE_DELAY", 0.01)


def _run(spec, graph=GRAPH, *, jobs=4, budget=None, **kwargs):
    """Validate under an installed fault plan; always restore the env plan.
    The graph is below the process threshold, so the shards run inline
    unless the test takes the ``process_rung`` fixture."""
    faults.install(spec)
    try:
        validator = ParallelValidator(SCHEMA, jobs=jobs, **kwargs)
        report = validator.validate(graph, budget=budget)
    finally:
        faults.uninstall()
    return validator, report


@pytest.fixture(scope="module")
def baseline():
    """The undisturbed report (fault injection hard-disabled)."""
    faults.install(None)
    try:
        return ParallelValidator(SCHEMA, jobs=4).validate(GRAPH)
    finally:
        faults.uninstall()


@pytest.fixture(scope="module")
def bad_baseline():
    faults.install(None)
    try:
        return ParallelValidator(SCHEMA, jobs=4).validate(BAD_GRAPH)
    finally:
        faults.uninstall()


def _assert_identical(report, expected):
    assert report.complete
    assert report.conforms == expected.conforms
    assert report.keys() == expected.keys()
    assert report.summary() == expected.summary()


# --------------------------------------------------------------------------- #
# worker crashes
# --------------------------------------------------------------------------- #


def test_hard_worker_kill_recovers_byte_identically(baseline, process_rung):
    """An os._exit(70) in a pool worker (the segfault/OOM-kill simulation)
    surfaces as BrokenProcessPool; retry must reproduce the exact report."""
    validator, report = _run("crash@parallel.worker:shard=1,attempt=0,mode=exit")
    _assert_identical(report, baseline)
    assert validator.recovery_log  # the fault fired and was survived
    assert any(entry["executor"] == "process" for entry in validator.recovery_log)


def test_hard_worker_kill_with_violations_present(bad_baseline, process_rung):
    """Recovery must also preserve a *failing* report byte-for-byte."""
    validator, report = _run("crash@parallel.worker:shard=1,attempt=0,mode=exit", BAD_GRAPH)
    _assert_identical(report, bad_baseline)
    assert not report.conforms  # sanity: the corruption survived recovery
    assert validator.recovery_log


def test_raised_worker_crash_recovers(baseline, process_rung):
    validator, report = _run("crash@parallel.worker:shard=0,attempt=0")
    _assert_identical(report, baseline)
    assert validator.recovery_log


@pytest.mark.parametrize("rung", ["serial"])
def test_crash_recovery_on_lighter_executors(baseline, rung):
    """jobs=4 on a graph below the process threshold: the shards run, and
    recover, inline."""
    validator, report = _run("crash@parallel.worker:shard=0,attempt=0")
    _assert_identical(report, baseline)
    assert validator.recovery_log
    assert validator.recovery_log[0]["shard"] == 0
    assert validator.recovery_log[0]["attempt"] == 0
    assert {entry["executor"] for entry in validator.recovery_log} == {rung}


def test_non_matching_plan_changes_nothing(baseline, process_rung):
    """A plan that never matches must leave run and report untouched."""
    validator, report = _run("crash@parallel.worker:shard=999")
    _assert_identical(report, baseline)
    assert validator.recovery_log == []


# --------------------------------------------------------------------------- #
# the executor fallback ladder
# --------------------------------------------------------------------------- #


def test_ladder_falls_all_the_way_to_serial(baseline, process_rung, monkeypatch):
    """Crash *every* process attempt: after its retry each shard must fall
    to the serial rung and still produce the identical report."""
    monkeypatch.setattr(ladder, "MAX_RETRIES", 1)
    validator, report = _run("crash@parallel.worker:executor=process")
    _assert_identical(report, baseline)
    assert {entry["executor"] for entry in validator.recovery_log} == {"process"}
    assert {entry["attempt"] for entry in validator.recovery_log} == {0, 1}


def test_exhausted_ladder_raises_typed_worker_failure(process_rung, monkeypatch):
    """When even the serial rung crashes, the run must end in E_WORKER --
    not a hang, not a partial report pretending to be complete."""
    monkeypatch.setattr(ladder, "MAX_RETRIES", 0)
    monkeypatch.setattr(ladder, "RETRY_BASE_DELAY", 0.0)
    with pytest.raises(WorkerFailureError) as caught:
        _run("crash@parallel.worker")
    assert caught.value.code == "E_WORKER"
    assert caught.value.shard is not None


# --------------------------------------------------------------------------- #
# stuck workers and deadlines
# --------------------------------------------------------------------------- #


def test_stuck_worker_hits_shard_timeout_and_recovers(baseline, process_rung):
    """A worker sleeping past shard_timeout is treated as stuck; the retry
    (where the attempt=0 matcher no longer fires) must recover, and the
    stuck worker is terminated rather than left sleeping."""
    validator, report = _run(
        "delay@parallel.worker:shard=0,attempt=0,seconds=5",
        shard_timeout=0.2,
    )
    _assert_identical(report, baseline)
    assert validator.recovery_log
    assert "shard_timeout" in validator.recovery_log[0]["error"]
    deadline = time.monotonic() + 2.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not multiprocessing.active_children()


def test_deadline_during_stuck_worker_yields_partial_report(process_rung):
    """When the *run deadline* (not the shard ceiling) expires while a
    worker sleeps, the result is a typed partial report -- never a report
    claiming completeness."""
    _validator, report = _run(
        "delay@parallel.worker:shard=0,attempt=0,seconds=1.5",
        budget=Budget(deadline=0.2),
    )
    assert not report.complete
    assert report.verdict == "unknown"
    assert report.interruption.dimension == "deadline"


def test_malformed_env_spec_is_a_uniform_cli_error(tmp_path):
    """A typo in PGSCHEMA_FAULTS must print error[E_FAULTS] and exit 2 --
    not escape as an import-time traceback."""
    schema = tmp_path / "s.graphql"
    schema.write_text("type T { id: ID }")
    import repro

    env = dict(os.environ, PGSCHEMA_FAULTS="boom@nowhere")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(
            None,
            [os.path.dirname(os.path.dirname(repro.__file__)),
             env.get("PYTHONPATH", "")],
        )
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "check", str(schema)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error[E_FAULTS]:")
    assert "Traceback" not in done.stderr


def test_merge_fault_cannot_kill_the_main_process():
    """``mode=exit`` outside a registered pool worker degrades to a raised
    InjectedCrashError: a stray plan must never hard-kill the parent."""
    with pytest.raises(faults.InjectedCrashError):
        _run("crash@parallel.merge:mode=exit")


# --------------------------------------------------------------------------- #
# mid-search chaos in the decision procedures: UNKNOWN is never wrong
# --------------------------------------------------------------------------- #


def test_slowed_dpll_hits_deadline_instead_of_answering():
    """pigeonhole(4) is UNSAT but needs many decisions; with every decision
    delayed and a tight deadline the solver must raise -- answering SAT or
    UNSAT without finishing the search would be a guess."""
    faults.install("delay@sat.decision:seconds=0.005")
    try:
        with pytest.raises(BudgetExhaustedError) as caught:
            solve(pigeonhole(4), budget=Budget(deadline=0.05))
    finally:
        faults.uninstall()
    assert caught.value.reason.dimension == "deadline"


def test_slowed_bounded_search_reports_exhaustion():
    schema = parse_schema(CYCLIC_SDL)
    checker = SatisfiabilityChecker(schema, analysis_precheck=False)
    # the witness for A is only 3 assignments away, so the injected delay
    # must exceed the deadline to deterministically interrupt the search
    faults.install("delay@bounded.assignment:seconds=0.01")
    try:
        result = checker.check_type_finite(
            "A", max_nodes=4, budget=Budget(deadline=0.005)
        )
    finally:
        faults.uninstall()
    assert result.exhausted
    assert result.reason.dimension == "deadline"
    assert not result.satisfiable  # exhausted search never claims a witness


def test_slowed_tableau_degrades_only_to_unknown():
    """Under injected per-expansion delays and shrinking deadlines, every
    verdict is either UNKNOWN or exactly the undisturbed one."""
    oracle = SatisfiabilityChecker(SCHEMA, analysis_precheck=False)
    verdicts = [
        oracle.check_type(name, find_witness=False)
        for name in sorted(SCHEMA.object_types)
    ]
    assert {verdict.decided_by for verdict in verdicts} == {"tableau"}
    truth = {verdict.type_name: verdict.verdict for verdict in verdicts}
    faults.install("delay@dl.tableau:seconds=0.002")
    try:
        for deadline in (0.001, 0.01, 0.1):
            checker = SatisfiabilityChecker(
                SCHEMA, analysis_precheck=False, budget=Budget(deadline=deadline)
            )
            for name, expected in truth.items():
                verdict = checker.check_type(name, find_witness=False).verdict
                assert verdict in ("unknown", expected)
    finally:
        faults.uninstall()


# --------------------------------------------------------------------------- #
# observed fault -> recovery sequences
# --------------------------------------------------------------------------- #


def test_recovery_log_entries_carry_site_and_ordered_timestamps(baseline):
    """Every recovery entry names its ladder site and carries a monotonic
    ``at`` timestamp, so the fault -> recovery sequence of a run can be
    reconstructed from the log alone."""
    validator, report = _run("crash@parallel.worker:shard=0,attempt=0")
    _assert_identical(report, baseline)
    assert validator.recovery_log
    for entry in validator.recovery_log:
        assert entry["site"] == "validation.parallel"
        assert isinstance(entry["at"], float)
    stamps = [entry["at"] for entry in validator.recovery_log]
    assert stamps == sorted(stamps)


def test_trace_records_fault_then_recovery(baseline):
    """With tracing on, an injected crash leaves a ``fault.crash`` instant
    (recorded at the injection site) followed by a ``ladder.recovery``
    instant (recorded by the parent), in that order on one timeline."""
    from repro import obs

    obs.uninstall()
    with obs.observed(trace=True, metrics=True) as observation:
        validator, report = _run("crash@parallel.worker:shard=0,attempt=0")
    _assert_identical(report, baseline)
    events = observation.tracer.events()
    fault_instants = [e for e in events if e.name == "fault.crash"]
    recoveries = [e for e in events if e.name == "ladder.recovery"]
    assert fault_instants and recoveries
    assert fault_instants[0].attrs["site"] == "parallel.worker"
    assert recoveries[0].attrs["task"] == 0
    assert recoveries[0].attrs["executor"] == "serial"
    assert fault_instants[0].start <= recoveries[0].start
    # recovery_log timestamps live on the same monotonic clock as the trace
    assert validator.recovery_log[0]["at"] >= fault_instants[0].start
    counters = observation.registry.snapshot()["counters"]
    assert counters["faults.fired.crash"] >= 1
    assert counters["ladder.failures"] >= 1
    assert counters["ladder.retries"] >= 1
