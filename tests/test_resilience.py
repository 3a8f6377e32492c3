"""The resilient execution layer: budgets, typed UNKNOWNs, fault plans.

Chaos scenarios that kill real worker processes live in test_chaos.py;
this module covers the building blocks: Budget semantics, the error
taxonomy, fault-spec parsing and firing, the budgeted behaviour of
every decision procedure (tableau, bounded search, DPLL, validators), and
the crash posture of every ``atomic_write`` site.
"""

import ast
import os
import pickle
import re

import pytest

from repro.dl.tableau import TableauLimitError
from repro.errors import (
    BudgetExhaustedError,
    BudgetReason,
    FaultConfigError,
    GraphLoadError,
    ReproError,
    WorkerFailureError,
    exit_code_for,
    render_error,
)
from repro.resilience import Budget, ExecutorLadder, faults
from repro.resilience import ladder as ladder_module
from repro.resilience.ladder import EXECUTORS
from repro.sat import CNF, pigeonhole, solve
from repro.satisfiability import SatisfiabilityChecker
from repro.schema import parse_schema
from repro.service import SchemaRegistry
from repro.validation import (
    CDCConsumer,
    IndexedValidator,
    NaiveValidator,
    ParallelValidator,
    StreamValidator,
    validate,
)
from repro.workloads import CORPUS, load, user_session_graph

CYCLIC_SDL = """
type A { b: B @required }
type B { a: A @required }
"""


@pytest.fixture(scope="module")
def cyclic_schema():
    return parse_schema(CYCLIC_SDL)


@pytest.fixture(scope="module")
def session_schema():
    return load("user_session_edge_props")


@pytest.fixture(scope="module")
def session_graph():
    return user_session_graph(40, sessions_per_user=2, seed=7)


# --------------------------------------------------------------------------- #
# Budget semantics
# --------------------------------------------------------------------------- #


class TestBudget:
    def test_unlimited_by_default(self):
        budget = Budget()
        assert budget.unlimited
        budget.check_deadline()
        budget.charge_nodes(10**9)
        budget.charge_expansions(10**9)
        budget.charge_memory(10**12)

    def test_deadline_trips(self):
        budget = Budget(deadline=0.0)
        with pytest.raises(BudgetExhaustedError) as caught:
            budget.check_deadline(site="here")
        assert caught.value.reason.dimension == "deadline"
        assert caught.value.reason.site == "here"

    def test_node_budget_trips_past_limit_not_at_it(self):
        budget = Budget(max_nodes=2)
        budget.charge_nodes(2)
        with pytest.raises(BudgetExhaustedError) as caught:
            budget.charge_nodes(1, site="s")
        assert caught.value.reason.dimension == "nodes"
        assert caught.value.reason.limit == 2
        assert caught.value.reason.used == 3

    def test_expansion_and_memory_budgets(self):
        budget = Budget(max_expansions=1, max_memory=100)
        budget.charge_expansions(1)
        with pytest.raises(BudgetExhaustedError):
            budget.charge_expansions(1)
        budget = Budget(max_memory=100)
        with pytest.raises(BudgetExhaustedError) as caught:
            budget.charge_memory(101)
        assert caught.value.reason.dimension == "memory"

    def test_remaining_seconds_clamped_to_zero(self):
        assert Budget().remaining_seconds() is None
        assert Budget(deadline=0.0).remaining_seconds() == 0.0
        assert Budget(deadline=3600.0).remaining_seconds() > 0

    def test_renew_resets_consumption_keeps_limits(self):
        budget = Budget(max_nodes=5, max_expansions=7)
        budget.charge_nodes(5)
        fresh = budget.renew()
        assert fresh.nodes == 0
        assert fresh.max_nodes == 5 and fresh.max_expansions == 7
        fresh.charge_nodes(5)  # full allowance again

    def test_budget_pickles(self):
        budget = Budget(deadline=9.0, max_nodes=3)
        budget.charge_nodes(2)
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.max_nodes == 3 and clone.nodes == 2
        with pytest.raises(BudgetExhaustedError):
            clone.charge_nodes(2)

    def test_repr_names_the_set_limits(self):
        assert "unlimited" in repr(Budget())
        assert "max_nodes=4" in repr(Budget(max_nodes=4))


# --------------------------------------------------------------------------- #
# error taxonomy
# --------------------------------------------------------------------------- #


class TestErrorTaxonomy:
    def test_codes_and_exit_codes(self):
        reason = BudgetReason("deadline", 1.0, 2.0, "x")
        assert BudgetExhaustedError(reason).code == "E_BUDGET"
        assert exit_code_for(BudgetExhaustedError(reason)) == 3
        assert WorkerFailureError("w", shard=1).code == "E_WORKER"
        assert GraphLoadError("g").code == "E_LOAD"
        assert exit_code_for(OSError("nope")) == 2

    def test_render_error_is_uniform(self):
        assert render_error(GraphLoadError("bad", source="g.json")).startswith(
            "error[E_LOAD]: bad in g.json"
        )
        assert render_error(OSError("missing")).startswith("error[E_IO]:")

    def test_budget_error_pickles_with_structured_reason(self):
        reason = BudgetReason("expansions", 100, 101, "sat.dpll")
        clone = pickle.loads(pickle.dumps(BudgetExhaustedError(reason)))
        assert clone.reason == reason
        assert clone.reason.site == "sat.dpll"

    def test_tableau_limit_error_is_a_budget_error(self):
        assert issubclass(TableauLimitError, BudgetExhaustedError)

    def test_graph_load_error_formats_position(self):
        error = GraphLoadError("boom", source="g.json", line=2, column=7, offset=31)
        assert "g.json" in str(error) and "line 2" in str(error)
        assert error.offset == 31

    def test_injected_crash_is_not_a_repro_error(self):
        # recovery must survive *arbitrary* worker death, so the injected
        # crash must not be catchable via the library's own base class
        assert not issubclass(faults.InjectedCrashError, ReproError)


# --------------------------------------------------------------------------- #
# fault plans
# --------------------------------------------------------------------------- #


class TestFaultPlans:
    def teardown_method(self):
        faults.uninstall()

    def test_parse_spec_round_trip(self):
        plan = faults.parse_spec(
            "crash@parallel.worker:shard=1,attempt=0,mode=exit;"
            "delay@dl.tableau:seconds=0.5,times=2"
        )
        crash, delay = plan.rules
        assert crash.kind == "crash" and crash.site == "parallel.worker"
        assert crash.match == {"shard": "1", "attempt": "0"}
        assert crash.mode == "exit"
        assert delay.seconds == 0.5 and delay.times == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "boom@site",                      # unknown kind
            "crash",                          # no site
            "crash@",                         # empty site
            "crash@site:novalue",             # parameter without '='
            "crash@site:mode=explode",        # bad crash mode
            "delay@site:seconds=fast",        # non-numeric seconds
            "spike@site:bytes=many",          # non-numeric bytes
        ],
    )
    def test_bad_specs_raise_typed_config_errors(self, spec):
        with pytest.raises(FaultConfigError):
            faults.parse_spec(spec)

    def test_install_uninstall(self):
        ambient = faults.active_spec()  # a PGSCHEMA_FAULTS plan may be active
        plan = faults.install("crash@x")
        assert faults.enabled()
        assert faults.active_spec() == "crash@x"
        assert faults.active_plan() is plan
        faults.uninstall()
        assert faults.active_spec() == ambient  # env plan restored, not dropped
        faults.install(None)
        assert not faults.enabled()  # explicit None disables even the env plan
        faults.uninstall()

    def test_crash_raises_injected_error(self):
        faults.install("crash@x")
        with pytest.raises(faults.InjectedCrashError):
            faults.fault_point("x")

    def test_exit_mode_degrades_to_raise_outside_workers(self):
        # the main process must never be hard-killed by a plan
        faults.install("crash@x:mode=exit")
        with pytest.raises(faults.InjectedCrashError):
            faults.fault_point("x")

    def test_context_matchers_gate_firing(self):
        plan = faults.install("crash@x:shard=1")
        faults.fault_point("x", shard=0)
        faults.fault_point("x")  # missing context key: no match
        assert plan.fired_count() == 0
        with pytest.raises(faults.InjectedCrashError):
            faults.fault_point("x", shard=1)
        assert plan.fired_count("x") == 1

    def test_times_caps_firing(self):
        plan = faults.install("delay@x:seconds=0,times=2")
        for _ in range(5):
            faults.fault_point("x")
        assert plan.fired_count() == 2

    def test_spike_allocates_transiently(self):
        plan = faults.install("spike@x:bytes=1048576")
        faults.fault_point("x")
        assert plan.fired_count() == 1

    def test_disabled_fault_point_is_a_noop(self):
        faults.uninstall()
        if faults.enabled():
            pytest.skip("PGSCHEMA_FAULTS active in this environment")
        faults.fault_point("anywhere", shard=3)  # must not raise


# --------------------------------------------------------------------------- #
# budgeted decision procedures
# --------------------------------------------------------------------------- #


class TestBudgetedTableau:
    def test_expansion_budget_yields_typed_unknown(self, cyclic_schema):
        checker = SatisfiabilityChecker(
            cyclic_schema, analysis_precheck=False, budget=Budget(max_expansions=2)
        )
        result = checker.check_type("A", find_witness=False)
        assert result.verdict == "unknown"
        assert result.tableau_satisfiable is None
        assert result.decided_by == "budget"
        assert result.reason is not None and result.reason.dimension == "expansions"

    def test_node_budget_yields_typed_unknown(self, cyclic_schema):
        checker = SatisfiabilityChecker(
            cyclic_schema, analysis_precheck=False, budget=Budget(max_nodes=1)
        )
        assert checker.check_type("A", find_witness=False).verdict == "unknown"

    def test_on_budget_error_raises(self, cyclic_schema):
        checker = SatisfiabilityChecker(
            cyclic_schema,
            analysis_precheck=False,
            budget=Budget(max_expansions=2),
            on_budget="error",
        )
        with pytest.raises(BudgetExhaustedError):
            checker.check_type("A", find_witness=False)

    def test_boolean_entry_point_always_raises(self, cyclic_schema):
        # a bool cannot express UNKNOWN, so is_satisfiable never guesses
        checker = SatisfiabilityChecker(
            cyclic_schema, analysis_precheck=False, budget=Budget(max_expansions=2)
        )
        with pytest.raises(BudgetExhaustedError):
            checker.is_satisfiable("A")

    def test_budget_template_renewed_per_check(self, cyclic_schema):
        checker = SatisfiabilityChecker(
            cyclic_schema, analysis_precheck=False, budget=Budget(max_expansions=10_000)
        )
        # a shared (non-renewed) budget would exhaust across the sweep
        for _ in range(5):
            verdict = checker.check_type("A", find_witness=False)
            assert (verdict.verdict, verdict.decided_by) == ("sat", "tableau")

    def test_unknown_is_never_wrong(self, session_schema):
        """Shrinking budgets may only degrade answers to UNKNOWN."""
        oracle = SatisfiabilityChecker(session_schema, analysis_precheck=False)
        verdicts = [
            oracle.check_type(name, find_witness=False)
            for name in sorted(session_schema.object_types)
        ]
        assert {verdict.decided_by for verdict in verdicts} == {"tableau"}
        truth = {verdict.type_name: verdict.verdict for verdict in verdicts}
        for limit in (1, 2, 4, 8, 16, 64, 256):
            checker = SatisfiabilityChecker(
                session_schema,
                analysis_precheck=False,
                budget=Budget(max_expansions=limit),
            )
            for name, expected in truth.items():
                verdict = checker.check_type(name, find_witness=False).verdict
                assert verdict in ("unknown", expected)

    def test_check_schema_reports_undecided_types(self, cyclic_schema):
        checker = SatisfiabilityChecker(
            cyclic_schema, analysis_precheck=False, budget=Budget(max_expansions=2)
        )
        report = checker.check_schema()
        assert report.unknown_types == ["A", "B"]
        assert not report.sound  # nothing proven => not sound
        assert "undecided" in report.summary()

    def test_invalid_on_budget_rejected(self, cyclic_schema):
        with pytest.raises(ValueError):
            SatisfiabilityChecker(cyclic_schema, on_budget="guess")


class TestBudgetedBoundedSearch:
    def test_exhaustion_is_reported_not_raised(self, cyclic_schema):
        checker = SatisfiabilityChecker(cyclic_schema, analysis_precheck=False)
        result = checker.check_type_finite(
            "A", max_nodes=3, budget=Budget(max_expansions=1)
        )
        assert not result.satisfiable
        assert result.exhausted
        assert result.reason.dimension == "expansions"

    def test_unbudgeted_search_completes(self, cyclic_schema):
        checker = SatisfiabilityChecker(cyclic_schema, analysis_precheck=False)
        result = checker.check_type_finite("A", max_nodes=3)
        assert not result.exhausted


class TestBudgetedSolver:
    def test_decision_budget_trips(self):
        with pytest.raises(BudgetExhaustedError) as caught:
            solve(pigeonhole(4), budget=Budget(max_expansions=2))
        assert caught.value.reason.site == "sat.dpll"

    def test_easy_instances_fit_small_budgets(self):
        # unit propagation alone decides this: no decisions charged
        cnf = CNF.of([[1], [-1, 2]])
        assert solve(cnf, budget=Budget(max_expansions=1)).satisfiable


# --------------------------------------------------------------------------- #
# budgeted validation
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "build",
    [
        lambda schema, policy: NaiveValidator(schema, on_budget=policy),
        lambda schema, policy: IndexedValidator(schema, on_budget=policy),
        lambda schema, policy: ParallelValidator(schema, on_budget=policy),
        lambda schema, policy: StreamValidator(schema, on_budget=policy),
        lambda schema, policy: SatisfiabilityChecker(schema, on_budget=policy),
        lambda schema, policy: CDCConsumer(schema, "journal.jsonl", on_budget=policy),
    ],
    ids=["naive", "indexed", "parallel", "stream", "sat", "cdc"],
)
def test_every_engine_checks_the_on_budget_policy_alike(session_schema, build):
    with pytest.raises(ValueError) as caught:
        build(session_schema, "maybe")
    assert str(caught.value) == (
        "unknown on_budget policy 'maybe'; expected one of ('unknown', 'error')"
    )


class TestBudgetedValidation:
    def test_indexed_partial_report(self, session_schema, session_graph):
        validator = IndexedValidator(session_schema, budget=Budget(max_nodes=1))
        report = validator.validate(session_graph)
        assert not report.complete
        assert not report.conforms
        assert report.verdict == "unknown"
        assert report.interruption.dimension == "nodes"
        assert "INCOMPLETE" in report.summary()

    def test_naive_partial_report(self, session_schema, session_graph):
        report = NaiveValidator(
            session_schema, budget=Budget(deadline=0.0)
        ).validate(session_graph)
        assert report.verdict == "unknown"
        assert report.interruption.dimension == "deadline"

    @pytest.mark.parametrize("rung", ["serial", "process"])
    def test_parallel_partial_report(self, session_schema, session_graph, rung, request):
        if rung == "process":
            request.getfixturevalue("process_rung")
        validator = ParallelValidator(session_schema, jobs=2, budget=Budget(max_nodes=1))
        assert validator.choose_executor(session_graph) == rung
        report = validator.validate(session_graph)
        assert report.verdict == "unknown"
        assert report.interruption.dimension == "nodes"

    def test_on_budget_error_raises(self, session_schema, session_graph):
        validator = IndexedValidator(
            session_schema, budget=Budget(max_nodes=1), on_budget="error"
        )
        with pytest.raises(BudgetExhaustedError):
            validator.validate(session_graph)

    def test_facade_threads_budget(self, session_schema, session_graph):
        for engine in ("indexed", "naive", "parallel"):
            report = validate(
                session_schema,
                session_graph,
                engine=engine,
                budget=Budget(max_nodes=1),
            )
            assert report.verdict == "unknown", engine

    def test_unbudgeted_runs_are_complete(self, session_schema, session_graph):
        report = validate(session_schema, session_graph)
        assert report.complete and report.conforms
        assert report.verdict == "conforms"

    def test_generous_budget_changes_nothing(self, session_schema, session_graph):
        generous = Budget(deadline=3600.0, max_nodes=10**9)
        bounded = validate(session_schema, session_graph, budget=generous)
        unbounded = validate(session_schema, session_graph)
        assert bounded.complete
        assert bounded.keys() == unbounded.keys()
        assert bounded.summary() == unbounded.summary()

    def test_violations_found_before_exhaustion_are_kept(self, session_schema):
        """A partial report still carries what it proved: violations are
        facts, only conformance claims are withheld."""
        graph = user_session_graph(8, sessions_per_user=1, seed=1)
        # corrupt one node so the node pass finds a violation immediately
        node = next(iter(graph.nodes))
        graph.set_property(node, "no_such_field", 1)
        report = IndexedValidator(session_schema).validate(graph)
        assert report.violations  # sanity: the corruption is visible
        # deadline=0 trips on the first between-rules checkpoint, after
        # the up-front element charge -- the report stays typed and honest
        partial = IndexedValidator(
            session_schema, budget=Budget(deadline=0.0)
        ).validate(graph)
        assert not partial.complete
        assert partial.verdict in ("unknown", "violations")


# --------------------------------------------------------------------------- #
# durable writes: a crash before the rename keeps the previous state
# --------------------------------------------------------------------------- #


def _registry_case(root):
    """Version 1 is durable; the crashed write is version 2."""
    sdl = CORPUS["user_session_edge_props"].sdl
    registry = SchemaRegistry(root)
    registry.register("acme", "users", sdl)

    def recovered():
        reloaded = SchemaRegistry(root)
        return reloaded.list("acme") == [{"name": "users", "versions": [1]}]

    directory = os.path.join(root, "acme", "users")
    return (
        directory,
        os.path.join(directory, "2.graphql"),
        lambda: registry.register("acme", "users", sdl),
        recovered,
    )


@pytest.mark.parametrize(
    "site, case",
    [("registry.persist", _registry_case)],
)
def test_crash_before_rename_keeps_previous_file(tmp_path, site, case):
    directory, target, write, recovered = case(str(tmp_path / "root"))
    before = sorted(os.listdir(directory))
    previous = None
    if os.path.exists(target):
        with open(target, "rb") as fp:
            previous = fp.read()
    faults.install(f"crash@{site}:phase=rename")
    try:
        with pytest.raises(faults.InjectedCrashError):
            write()
    finally:
        faults.uninstall()
    if previous is None:
        assert not os.path.exists(target)
    else:
        with open(target, "rb") as fp:
            assert fp.read() == previous
    assert sorted(os.listdir(directory)) == sorted(before + [os.path.basename(target) + ".tmp"])
    assert recovered()


def test_atomic_write_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """The rename is durable only once its directory is synced: the last
    fsync of a write is the parent directory's, after ``os.replace``."""
    import stat

    from repro.resilience import durable

    calls = []
    real_replace, real_fsync = os.replace, os.fsync

    def replace(src, dst):
        calls.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(("fsync", kind, os.path.realpath(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    monkeypatch.setattr(durable.os, "replace", replace)
    monkeypatch.setattr(durable.os, "fsync", fsync)
    target = tmp_path / "version.json"
    durable.atomic_write(str(target), b"{}", "registry.persist")
    assert target.read_bytes() == b"{}"
    assert [call[:2] for call in calls] == [
        ("fsync", "file"), ("replace", "version.json"), ("fsync", "dir")
    ]
    if os.path.exists("/proc/self/fd"):
        assert calls[-1][2] == os.path.realpath(tmp_path)


# --------------------------------------------------------------------------- #
# the executor ladder: one task contract on every rung
# --------------------------------------------------------------------------- #

#: how often this process built a toy worker state
_toy_builds = 0


def _toy_state(offset):
    """A toy worker build: the state records which process built it and
    how many states that process had built by then."""
    global _toy_builds
    _toy_builds += 1
    return offset, os.getpid(), _toy_builds


def _toy_task(state, payload, attempt, rung):
    offset, pid, builds = state
    return payload * payload + offset, pid, builds


def _fault_context(entry):
    """The fault context an injected crash reported in a recovery entry."""
    match = re.search(r"\(context (\{.*\})\)", entry["error"])
    assert match, entry["error"]
    return ast.literal_eval(match.group(1))


def test_ladder_runs_one_task_contract_on_every_rung(monkeypatch):
    payloads = {0: 3, 2: 5, 3: 7, 6: 11}  # sparse: results stay positional
    expected = [9 + 100, None, 25 + 100, 49 + 100, None, None, 121 + 100, None]
    monkeypatch.setattr(ladder_module, "RETRY_BASE_DELAY", 0.0)
    faults.install("crash@resilience.toy:attempt=0")  # every first attempt
    try:
        for rung in EXECUTORS:
            ladder = ExecutorLadder(jobs=2, log_key="item")
            results = [None] * len(expected)
            ladder.run(
                rung,
                _toy_task,
                (100, os.getpid(), 0),
                payloads,
                results,
                "resilience.toy",
                worker=(_toy_state, (100,)),
                tenant="acme",
            )
            assert [r and r[0] for r in results] == expected, rung
            assert [_fault_context(entry) for entry in ladder.recovery_log] == [
                {"item": index, "attempt": 0, "executor": rung, "tenant": "acme"}
                for index in payloads
            ], rung
            assert {entry["executor"] for entry in ladder.recovery_log} == {rung}
            pids = {r[1] for r in results if r}
            if rung == "process":
                # two workers ran four tasks, each on the state it built once
                assert os.getpid() not in pids and len(pids) <= 2
                assert {r[2] for r in results if r} == {1}
            else:
                assert pids == {os.getpid()}
    finally:
        faults.uninstall()


def test_queued_tasks_are_not_taken_for_stuck_workers():
    """task_timeout runs from a task's submission: with one worker, three
    0.3 s tasks under a 0.5 s ceiling all finish without a recovery."""
    ladder = ExecutorLadder(jobs=1, task_timeout=0.5, log_key="item")
    results = [None] * 3
    faults.install("delay@resilience.toy:seconds=0.3")
    try:
        ladder.run(
            "process", _toy_task, None, {0: 1, 1: 2, 2: 3}, results,
            "resilience.toy", worker=(_toy_state, (0,)),
        )
    finally:
        faults.uninstall()
    assert ladder.recovery_log == []
    assert [r[0] for r in results] == [1, 4, 9]


@pytest.mark.parametrize(
    "start",
    [
        lambda schema: ParallelValidator(schema, jobs=2, executor="thread"),
        lambda schema: SatisfiabilityChecker(schema, cache=False).check_schema(
            jobs=2, executor="thread"
        ),
        lambda schema: ExecutorLadder(jobs=2).run(
            "thread", _toy_task, (0, os.getpid(), 0), {0: 1}, [None], "resilience.toy"
        ),
    ],
    ids=["ParallelValidator", "check_schema", "ExecutorLadder.run"],
)
def test_thread_executor_is_rejected(session_schema, start):
    """The engines take no executor option at all -- the rung is chosen,
    never named -- and the ladder runs only its two rungs."""
    with pytest.raises((TypeError, ValueError), match="executor|unknown rung 'thread'"):
        start(session_schema)


@pytest.mark.parametrize(
    "jobs, big_enough, cores, expected",
    [
        # no worker count means inline, on any host and any size
        (None, True, 8, ("serial", 1)),
        # the process rung needs jobs > 1, more than one core and a big input
        (4, True, 8, ("process", 4)),
        (4, False, 8, ("serial", 4)),
        (4, True, 1, ("serial", 4)),
        (1, True, 8, ("serial", 1)),
        (0, True, 8, ("serial", 1)),
    ],
)
def test_choose_rung_is_the_one_jobs_policy(
    monkeypatch, jobs, big_enough, cores, expected
):
    monkeypatch.setattr(ladder_module, "usable_cores", lambda: cores)
    assert ladder_module.choose_rung(jobs, big_enough) == expected


def test_choose_rung_rejects_unknown_executors():
    """Nothing names a rung: the policy takes the worker count and the size
    test, and no executor at all."""
    with pytest.raises(TypeError, match="executor"):
        ladder_module.choose_rung(executor="process", jobs=2)


def test_one_retry_policy_backs_off_within_the_budget(monkeypatch):
    """``backoff`` doubles from RETRY_BASE_DELAY and never sleeps past what
    the budget has left."""
    slept = []
    monkeypatch.setattr(ladder_module.time, "sleep", slept.append)
    for attempt in (1, 2, 3):
        ladder_module.backoff(attempt)
    assert slept == [0.05, 0.1, 0.2]
    slept.clear()
    ladder_module.backoff(3, Budget(deadline=0.03))
    assert len(slept) == 1 and 0 < slept[0] <= 0.03
    slept.clear()
    monkeypatch.setattr(ladder_module, "RETRY_BASE_DELAY", 0.0)
    ladder_module.backoff(1)
    assert slept == []
