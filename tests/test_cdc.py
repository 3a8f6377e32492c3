"""CDC validation: mutation journal, violation transitions, checkpoints,
and the crash-resume determinism guarantee."""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import BudgetExhaustedError, GraphLoadError
from repro.pg.model import PropertyGraph
from repro.resilience import Budget, faults, ladder
from repro.resilience.faults import InjectedCrashError
from repro.schema import parse_schema
from repro.validation import (
    CDCConsumer,
    IncrementalValidator,
    IndexedValidator,
    MutationJournal,
    migrated_validator,
)
from repro.workloads import (
    MUTATION_SCHEMA_SDL,
    MUTATION_SCHEMA_VARIANTS,
    MutationWorkloadConfig,
    mutation_stream,
    write_mutation_journal,
)


@pytest.fixture
def schema():
    return parse_schema(MUTATION_SCHEMA_SDL)


def make_journal(tmp_path, name="stream.jsonl", **config):
    path = str(tmp_path / name)
    write_mutation_journal(path, MutationWorkloadConfig(**config))
    return path


def scratch_keys(consumer):
    """From-scratch strong validation of the consumer's final state."""
    return (
        IndexedValidator(consumer._schema)
        .validate(consumer._validator.graph, mode="strong")
        .keys()
    )


# --------------------------------------------------------------------- #
# the journal layer
# --------------------------------------------------------------------- #


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = MutationJournal(path)
        records = [
            {"op": "add_node", "id": "u1", "label": "User",
             "properties": {"id": "x", "nicknames": ("a", "b")}},
            {"op": "set_property", "id": "u1", "name": "login", "value": "alice"},
            {"op": "commit"},
            {"op": "remove_node", "id": "u1"},
            {"op": "commit"},
        ]
        assert journal.write_events(records) == len(records)
        events = list(journal.read())
        assert [event.op for event in events] == [
            "add_node", "set_property", "commit", "remove_node", "commit"
        ]
        assert [event.seq for event in events] == [1, 2, 3, 4, 5]
        # header is line 1, events start at line 2
        assert [event.line for event in events] == [2, 3, 4, 5, 6]
        # tuples are encoded as lists
        assert events[0].record["properties"]["nicknames"] == ["a", "b"]
        assert events[-1].end_offset == journal.size()

    def test_resume_from_offset_matches_suffix(self, tmp_path):
        path = make_journal(tmp_path, commits=5, ops_per_commit=3, seed=1)
        journal = MutationJournal(path)
        events = list(journal.read())
        cut = events[6]
        suffix = list(journal.read(cut.end_offset, cut.seq, cut.line))
        assert [e.record for e in suffix] == [e.record for e in events[7:]]
        assert [e.seq for e in suffix] == [e.seq for e in events[7:]]
        assert [e.end_offset for e in suffix] == [e.end_offset for e in events[7:]]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"op": "commit"}\n')
        with pytest.raises(GraphLoadError, match="header"):
            list(MutationJournal(str(path)).read())

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"format": "pgschema-mutation-journal", "version": 99}\n')
        with pytest.raises(GraphLoadError, match="newer"):
            list(MutationJournal(str(path)).read())

    def test_invalid_json_has_span(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"format": "pgschema-mutation-journal", "version": 1}\n'
            '{"op": "commit"}\n'
            '{"op": "add_node", \n'
        )
        with pytest.raises(GraphLoadError) as err:
            list(MutationJournal(str(path)).read())
        assert err.value.line == 3
        assert err.value.source == str(path)
        assert err.value.offset is not None

    @pytest.mark.parametrize(
        "record, match",
        [
            ('{"id": "x"}', "missing required key 'op'"),
            ('{"op": "explode"}', "must be one of"),
            ('{"op": []}', "must be one of"),
            ('{"op": "add_node", "id": "x"}', "missing required key 'label'"),
            ('{"op": "add_edge", "id": "e", "source": "a", "target": "b", '
             '"label": "l", "properties": 7}', "properties must be an object"),
            ('{"op": "set_schema", "sdl": 5}', "sdl must be a string"),
            ('[1, 2]', "must be an object"),
        ],
    )
    def test_malformed_records(self, tmp_path, record, match):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"format": "pgschema-mutation-journal", "version": 1}\n' + record + "\n"
        )
        with pytest.raises(GraphLoadError, match=match) as err:
            list(MutationJournal(str(path)).read())
        assert err.value.line == 2

    def test_writer_rejects_bad_record(self, tmp_path):
        journal = MutationJournal(str(tmp_path / "j.jsonl"))
        with journal.writer() as writer:
            with pytest.raises(GraphLoadError):
                writer.event({"op": "add_node"})
            writer.commit()
        assert [event.op for event in journal.read()] == ["commit"]

    def test_append_does_not_duplicate_header(self, tmp_path):
        journal = MutationJournal(str(tmp_path / "j.jsonl"))
        with journal.writer() as writer:
            writer.event({"op": "add_node", "id": "a", "label": "User"})
        with journal.writer(append=True) as writer:
            writer.commit()
            writer.sync()
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert sum('"format"' in line for line in lines) == 1
        assert [event.op for event in journal.read()] == ["add_node", "commit"]


# --------------------------------------------------------------------- #
# the workload generator
# --------------------------------------------------------------------- #


class TestMutationWorkload:
    def test_deterministic(self):
        config = MutationWorkloadConfig(commits=10, seed=42)
        assert mutation_stream(config) == mutation_stream(config)

    def test_seed_changes_stream(self):
        a = mutation_stream(MutationWorkloadConfig(commits=10, seed=1))
        b = mutation_stream(MutationWorkloadConfig(commits=10, seed=2))
        assert a != b

    def test_commit_markers(self):
        events = mutation_stream(MutationWorkloadConfig(commits=7, seed=0))
        assert sum(event["op"] == "commit" for event in events) == 7
        assert events[-1]["op"] == "commit"

    def test_schema_change_commits(self):
        events = mutation_stream(
            MutationWorkloadConfig(commits=6, seed=0, schema_change_commits=(2, 5))
        )
        sdls = [event["sdl"] for event in events if event["op"] == "set_schema"]
        assert sdls == [MUTATION_SCHEMA_VARIANTS[0], MUTATION_SCHEMA_VARIANTS[1]]

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            MutationWorkloadConfig(op_distribution={"fly": 1.0})
        with pytest.raises(ValueError):
            MutationWorkloadConfig(violation_probability=1.5)
        with pytest.raises(ValueError):
            MutationWorkloadConfig(op_distribution={"add_node": 0.0})

    def test_every_stream_applies_cleanly(self, tmp_path, schema):
        """Generated streams never raise on apply (violations are schema-
        level, not structural)."""
        for seed in range(5):
            path = make_journal(
                tmp_path, f"s{seed}.jsonl", commits=12, ops_per_commit=6,
                seed=seed, violation_probability=0.5,
                schema_change_commits=(4, 9),
            )
            result = CDCConsumer(schema, path).run()
            assert result.commits == 12


# --------------------------------------------------------------------- #
# transitions and differential correctness
# --------------------------------------------------------------------- #


class TestTransitions:
    def test_appear_then_disappear(self, tmp_path, schema):
        journal = MutationJournal(str(tmp_path / "j.jsonl"))
        journal.write_events([
            {"op": "add_node", "id": "u1", "label": "User",
             "properties": {"id": "i1"}},  # missing @required login -> DS5
            {"op": "commit"},
            {"op": "set_property", "id": "u1", "name": "login", "value": "a"},
            {"op": "commit"},
        ])
        result = CDCConsumer(schema, journal).run()
        kinds = [(event.kind, event.rule, event.commit) for event in result.events]
        assert ("appeared", "DS5", 1) in kinds
        assert ("disappeared", "DS5", 2) in kinds
        appeared = [e for e in result.events if e.kind == "appeared" and e.rule == "DS5"]
        disappeared = [e for e in result.events if e.kind == "disappeared"]
        assert appeared[0].elements == ("u1",)
        # the DISAPPEARED event carries the detail the violation had
        assert disappeared[0].detail == appeared[0].detail
        assert result.report.conforms is False or result.report.conforms  # report valid
        assert result.conforms

    def test_events_file_matches_result(self, tmp_path, schema):
        path = make_journal(tmp_path, commits=10, seed=3, violation_probability=0.4)
        events_path = str(tmp_path / "events.jsonl")
        result = CDCConsumer(schema, path, events_path=events_path).run()
        lines = [
            json.loads(line)
            for line in open(events_path, encoding="utf-8")
            if line.strip()
        ]
        assert lines == [event.to_json() for event in result.events]
        assert len(result.events) > 0

    def test_implicit_final_commit(self, tmp_path, schema):
        journal = MutationJournal(str(tmp_path / "j.jsonl"))
        journal.write_events([
            {"op": "add_node", "id": "u1", "label": "User",
             "properties": {"id": "i", "login": "l"}},
            {"op": "commit"},
            # trailing events without a marker
            {"op": "add_node", "id": "u2", "label": "User",
             "properties": {"id": "i2"}},
        ])
        result = CDCConsumer(schema, journal).run()
        assert result.commits == 2
        assert any(e.rule == "DS5" and e.commit == 2 for e in result.events)


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("changes", [(), (3, 7, 11)])
    def test_matches_scratch(self, tmp_path, schema, seed, changes):
        path = make_journal(
            tmp_path, commits=14, ops_per_commit=6, seed=seed,
            violation_probability=0.35, schema_change_commits=changes,
        )
        consumer = CDCConsumer(schema, path)
        result = consumer.run()
        assert result.report.keys() == scratch_keys(consumer)

    def test_base_graph_not_mutated(self, tmp_path, schema):
        base = PropertyGraph()
        base.add_node("u0", "User", {"id": "base", "login": "base"})
        path = make_journal(tmp_path, commits=6, seed=4)
        consumer = CDCConsumer(schema, path, base_graph=base)
        result = consumer.run()
        assert result.commits == 6
        assert set(base.nodes) == {"u0"}  # the caller's graph is untouched
        assert "u0" in set(consumer._validator.graph.nodes)
        assert result.report.keys() == scratch_keys(consumer)


def _duplicate_key(sdl):
    """*sdl* with the User ``@key`` written twice: two key sites sharing one
    location, so one DS7 violation key lives in two scopes."""
    single = '@key(fields: ["id"])'
    assert single in sdl
    return sdl.replace(single, f"{single} {single}")


def _oracle_events(schema_sdl, path):
    """The violation transitions of *path*, computed without the
    incremental validator: replay each commit into a plain PropertyGraph
    (a set_schema replaces the schema), validate it from scratch with the
    naive engine, and diff the violation keys against the previous commit,
    each key represented by its smallest-detail violation."""
    from repro.validation import validate

    def current(schema, graph):
        kept = {}
        for violation in validate(schema, graph, engine="naive").violations:
            key = violation.key()
            if key not in kept or violation.detail < kept[key].detail:
                kept[key] = violation
        return kept

    def sort_key(key):
        rule, location, elements = key
        return (rule, location, [str(element) for element in elements])

    schema = parse_schema(schema_sdl)
    graph = PropertyGraph()
    previous = current(schema, graph)
    expected = []
    commit = 0
    events = list(MutationJournal(path).read())
    for index, event in enumerate(events):
        record = event.record
        if event.op == "add_node":
            graph.add_node(record["id"], record["label"], record.get("properties"))
        elif event.op == "remove_node":
            graph.remove_node(record["id"])
        elif event.op == "add_edge":
            graph.add_edge(record["id"], record["source"], record["target"],
                           record["label"], record.get("properties"))
        elif event.op == "remove_edge":
            graph.remove_edge(record["id"])
        elif event.op == "set_property":
            graph.set_property(record["id"], record["name"], record["value"])
        elif event.op == "remove_property":
            graph.remove_property(record["id"], record["name"])
        elif event.op == "set_schema":
            schema = parse_schema(record["sdl"])
        if not (event.is_commit or index == len(events) - 1):
            continue
        commit += 1
        now = current(schema, graph)
        for kind, side, other in (
            ("appeared", now, previous), ("disappeared", previous, now)
        ):
            for key in sorted(side.keys() - other.keys(), key=sort_key):
                violation = side[key]
                expected.append((kind, commit, violation.rule, violation.location,
                                 violation.elements, violation.detail))
        previous = now
    return expected


class TestEventOracle:
    """Every commit's events equal a from-scratch naive diff."""

    @pytest.mark.parametrize("duplicate_key", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("changes", [(), (3, 7, 11)])
    def test_events_match_naive_diff(self, tmp_path, seed, changes, duplicate_key):
        path = make_journal(
            tmp_path, commits=14, ops_per_commit=6, seed=seed,
            violation_probability=0.35, schema_change_commits=changes,
        )
        sdl = MUTATION_SCHEMA_SDL
        if duplicate_key:
            sdl = _duplicate_key(sdl)
            lines = open(path, encoding="utf-8").read().splitlines()
            for i, line in enumerate(lines):
                record = json.loads(line)
                if record.get("op") == "set_schema":
                    record["sdl"] = _duplicate_key(record["sdl"])
                    lines[i] = json.dumps(record)
            with open(path, "w", encoding="utf-8") as fp:
                fp.write("\n".join(lines) + "\n")
        result = CDCConsumer(parse_schema(sdl), path).run()
        got = [
            (e.kind, e.commit, e.rule, e.location, e.elements, e.detail)
            for e in result.events
        ]
        assert got == _oracle_events(sdl, path)
        if duplicate_key:
            # both sites report every collision the stream injects
            assert {e.location for e in result.events if e.rule == "DS7"} == {
                "User @key(id)"
            }

    def test_replaced_validator_mid_commit(self, tmp_path):
        """Mutations on both sides of a structural rebuild (twice in one
        commit) and of a migration, diffed against the commit boundary."""
        old = (
            "interface Named { name: String }\n"
            'type A implements Named @key(fields: ["name"]) { name: String b: B }\n'
            "type B { x: Int @required }\n"
        )
        structural = old.replace("implements Named ", "").replace("b: B", "b: B @required")
        local = old.replace("x: Int @required", "x: Int")
        journal = MutationJournal(str(tmp_path / "j.jsonl"))
        journal.write_events([
            {"op": "add_node", "id": "a1", "label": "A", "properties": {"name": "n"}},
            {"op": "add_node", "id": "a2", "label": "A", "properties": {"name": "n"}},
            {"op": "add_node", "id": "b1", "label": "B", "properties": {}},
            {"op": "add_edge", "id": "e1", "source": "a1", "target": "b1", "label": "b"},
            {"op": "commit"},
            {"op": "set_property", "id": "a2", "name": "name", "value": "m"},
            {"op": "set_schema", "sdl": structural},
            {"op": "add_node", "id": "a3", "label": "A", "properties": {"name": "n"}},
            {"op": "set_schema", "sdl": old},
            {"op": "set_property", "id": "b1", "name": "x", "value": 1},
            {"op": "commit"},
            {"op": "remove_property", "id": "b1", "name": "x"},
            {"op": "set_schema", "sdl": local},
            {"op": "add_node", "id": "b2", "label": "B", "properties": {}},
            {"op": "commit"},
            {"op": "set_schema", "sdl": structural},
            {"op": "commit"},
        ])
        observation = obs.install(None, obs.MetricsRegistry())
        try:
            result = CDCConsumer(parse_schema(old), journal).run()
        finally:
            obs.uninstall()
        assert observation.registry.counter_value("cdc.schema_rebuilds") == 3
        assert observation.registry.counter_value("cdc.schema_migrations") == 1
        got = [
            (e.kind, e.commit, e.rule, e.location, e.elements, e.detail)
            for e in result.events
        ]
        expected = _oracle_events(old, journal.path)
        assert got == expected
        assert {rule for _kind, _commit, rule, *_rest in expected} >= {"DS5", "DS6", "DS7"}


# --------------------------------------------------------------------- #
# crash-resume determinism (the tentpole guarantee)
# --------------------------------------------------------------------- #

COMMITS = 12


def baseline(tmp_path, schema, seed, **config):
    """One uninterrupted run: returns (events bytes, report keys, summary)."""
    base_dir = tmp_path / f"base{seed}"
    base_dir.mkdir(exist_ok=True)
    path = make_journal(
        base_dir, commits=COMMITS, ops_per_commit=5, seed=seed,
        violation_probability=0.35, **config,
    )
    events_path = str(base_dir / "events.jsonl")
    result = CDCConsumer(schema, path, events_path=events_path).run()
    with open(events_path, "rb") as fp:
        return path, fp.read(), result.report.keys(), result.report.summary()


def crash_then_resume(tmp_path, schema, journal_path, fault_spec, label,
                      checkpoint_every=3, resumes=1):
    """Run under *fault_spec* until it crashes, then resume to completion."""
    work = tmp_path / label
    work.mkdir()
    events_path = str(work / "events.jsonl")
    checkpoint_dir = str(work / "ckpt")
    kwargs = dict(
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        events_path=events_path,
    )
    plan = faults.install(fault_spec)
    crashed = False
    try:
        CDCConsumer(schema, journal_path, **kwargs).run()
    except InjectedCrashError:
        crashed = True
    finally:
        faults.uninstall()
    recovered = []
    for _ in range(resumes):
        result = CDCConsumer(schema, journal_path, **kwargs).run(resume=True)
        recovered.append(result.recovered_from)
    with open(events_path, "rb") as fp:
        return crashed, fp.read(), result, recovered, plan


class TestCrashResume:
    @pytest.fixture(autouse=True)
    def _no_retries(self, monkeypatch):
        """An injected crash must stop the consumer, not be retried away."""
        monkeypatch.setattr(ladder, "MAX_RETRIES", 0)

    @pytest.mark.parametrize("crash_commit", list(range(1, COMMITS + 1)))
    def test_crash_at_every_commit(self, tmp_path, schema, crash_commit):
        journal_path, events, keys, summary = baseline(tmp_path, schema, seed=5)
        crashed, resumed_events, result, recovered, plan = crash_then_resume(
            tmp_path, schema, journal_path,
            f"crash@cdc.apply:commit={crash_commit}", f"c{crash_commit}",
        )
        assert crashed and plan.fired_count("cdc.apply") == 1
        assert resumed_events == events
        assert result.report.keys() == keys
        assert result.report.summary() == summary

    @pytest.mark.parametrize("phase", ["begin", "rename"])
    def test_crash_mid_checkpoint(self, tmp_path, schema, phase):
        journal_path, events, keys, summary = baseline(tmp_path, schema, seed=6)
        crashed, resumed_events, result, recovered, _ = crash_then_resume(
            tmp_path, schema, journal_path,
            f"crash@cdc.checkpoint:phase={phase}", f"ckpt-{phase}",
        )
        assert crashed
        assert resumed_events == events
        assert result.report.keys() == keys
        assert result.report.summary() == summary

    def test_crash_during_recovery_then_resume_again(self, tmp_path, schema):
        journal_path, events, keys, _ = baseline(tmp_path, schema, seed=7)
        work = tmp_path / "recover-crash"
        work.mkdir()
        kwargs = dict(
            checkpoint_dir=str(work / "ckpt"), checkpoint_every=3,
            events_path=str(work / "events.jsonl"),
        )
        faults.install("crash@cdc.apply:commit=8")
        with pytest.raises(InjectedCrashError):
            CDCConsumer(schema, journal_path, **kwargs).run()
        faults.uninstall()
        # the first resume dies inside cdc.recover; the second succeeds
        faults.install("crash@cdc.recover:times=1")
        try:
            with pytest.raises(InjectedCrashError):
                CDCConsumer(schema, journal_path, **kwargs).run(resume=True)
            result = CDCConsumer(schema, journal_path, **kwargs).run(resume=True)
        finally:
            faults.uninstall()
        assert result.recovered_from.startswith("checkpoint:")
        with open(kwargs["events_path"], "rb") as fp:
            assert fp.read() == events
        assert result.report.keys() == keys

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path, schema):
        journal_path, events, keys, _ = baseline(tmp_path, schema, seed=8)
        work = tmp_path / "corrupt1"
        work.mkdir()
        kwargs = dict(
            checkpoint_dir=str(work / "ckpt"), checkpoint_every=2,
            events_path=str(work / "events.jsonl"),
        )
        faults.install("crash@cdc.apply:commit=9")
        with pytest.raises(InjectedCrashError):
            CDCConsumer(schema, journal_path, **kwargs).run()
        faults.uninstall()
        checkpoints = sorted(os.listdir(kwargs["checkpoint_dir"]))
        assert len(checkpoints) == 2  # pruned to newest two
        newest = os.path.join(kwargs["checkpoint_dir"], checkpoints[-1])
        with open(newest, "r+b") as fp:
            fp.truncate(os.path.getsize(newest) // 2)  # torn write
        result = CDCConsumer(schema, journal_path, **kwargs).run(resume=True)
        assert result.recovered_from == f"checkpoint:{checkpoints[-2]}"
        with open(kwargs["events_path"], "rb") as fp:
            assert fp.read() == events
        assert result.report.keys() == keys

    def test_all_checkpoints_corrupt_cold_replay(self, tmp_path, schema):
        journal_path, events, keys, summary = baseline(tmp_path, schema, seed=9)
        work = tmp_path / "corrupt2"
        work.mkdir()
        kwargs = dict(
            checkpoint_dir=str(work / "ckpt"), checkpoint_every=2,
            events_path=str(work / "events.jsonl"),
        )
        faults.install("crash@cdc.apply:commit=9")
        with pytest.raises(InjectedCrashError):
            CDCConsumer(schema, journal_path, **kwargs).run()
        faults.uninstall()
        for name in os.listdir(kwargs["checkpoint_dir"]):
            path = os.path.join(kwargs["checkpoint_dir"], name)
            with open(path, "wb") as fp:
                fp.write(b'{"format": "garbage"}')
        result = CDCConsumer(schema, journal_path, **kwargs).run(resume=True)
        assert result.recovered_from == "cold"
        with open(kwargs["events_path"], "rb") as fp:
            assert fp.read() == events
        assert result.report.keys() == keys
        assert result.report.summary() == summary

    def test_digest_tamper_detected(self, tmp_path, schema):
        """A bit-flip that keeps the JSON valid still fails the digest."""
        journal_path, events, keys, _ = baseline(tmp_path, schema, seed=10)
        work = tmp_path / "tamper"
        work.mkdir()
        kwargs = dict(
            checkpoint_dir=str(work / "ckpt"), checkpoint_every=2,
            events_path=str(work / "events.jsonl"),
        )
        faults.install("crash@cdc.apply:commit=9")
        with pytest.raises(InjectedCrashError):
            CDCConsumer(schema, journal_path, **kwargs).run()
        faults.uninstall()
        checkpoints = sorted(os.listdir(kwargs["checkpoint_dir"]))
        newest = os.path.join(kwargs["checkpoint_dir"], checkpoints[-1])
        payload = json.loads(open(newest, encoding="utf-8").read())
        payload["commit"] += 1  # forge the resume point, keep the old digest
        with open(newest, "w", encoding="utf-8") as fp:
            json.dump(payload, fp)
        result = CDCConsumer(schema, journal_path, **kwargs).run(resume=True)
        assert result.recovered_from == f"checkpoint:{checkpoints[-2]}"
        assert result.report.keys() == keys

    def test_older_checkpoint_version_refused(self, tmp_path, schema):
        """A well-formed, correctly digested checkpoint of another version
        is skipped: recovery takes the previous one."""
        from repro.validation.cdc import _checkpoint_blob

        journal_path, events, keys, _ = baseline(tmp_path, schema, seed=10)
        work = tmp_path / "older"
        work.mkdir()
        kwargs = dict(
            checkpoint_dir=str(work / "ckpt"), checkpoint_every=2,
            events_path=str(work / "events.jsonl"),
        )
        faults.install("crash@cdc.apply:commit=9")
        with pytest.raises(InjectedCrashError):
            CDCConsumer(schema, journal_path, **kwargs).run()
        faults.uninstall()
        checkpoints = sorted(os.listdir(kwargs["checkpoint_dir"]))
        newest = os.path.join(kwargs["checkpoint_dir"], checkpoints[-1])
        payload = json.loads(open(newest, encoding="utf-8").read())
        del payload["digest"]
        payload["version"] = 1
        with open(newest, "wb") as fp:
            fp.write(_checkpoint_blob(payload))
        result = CDCConsumer(schema, journal_path, **kwargs).run(resume=True)
        assert result.recovered_from == f"checkpoint:{checkpoints[-2]}"
        assert result.report.keys() == keys
        with open(kwargs["events_path"], "rb") as fp:
            assert fp.read() == events

    def test_crash_with_schema_changes_in_stream(self, tmp_path, schema):
        journal_path, events, keys, summary = baseline(
            tmp_path, schema, seed=11, schema_change_commits=(4, 8),
        )
        for crash_commit in (5, 9):
            crashed, resumed_events, result, _, _ = crash_then_resume(
                tmp_path, schema, journal_path,
                f"crash@cdc.apply:commit={crash_commit}", f"sc{crash_commit}",
            )
            assert crashed
            assert resumed_events == events
            assert result.report.keys() == keys
            assert result.report.summary() == summary

    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=5),
        crash_commit=st.integers(min_value=1, max_value=COMMITS),
        checkpoint_every=st.integers(min_value=1, max_value=6),
    )
    def test_property_crash_resume_determinism(
        self, tmp_path, schema, seed, crash_commit, checkpoint_every
    ):
        journal_path, events, keys, summary = baseline(tmp_path, schema, seed=seed)
        label = f"p{seed}-{crash_commit}-{checkpoint_every}"
        if (tmp_path / label).exists():  # hypothesis may repeat examples
            import shutil

            shutil.rmtree(tmp_path / label)
        crashed, resumed_events, result, _, _ = crash_then_resume(
            tmp_path, schema, journal_path,
            f"crash@cdc.apply:commit={crash_commit}", label,
            checkpoint_every=checkpoint_every,
        )
        assert crashed
        assert resumed_events == events
        assert result.report.keys() == keys
        assert result.report.summary() == summary


# --------------------------------------------------------------------- #
# retries, budgets
# --------------------------------------------------------------------- #


class TestRetry:
    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        monkeypatch.setattr(ladder, "RETRY_BASE_DELAY", 0.0)

    def test_transient_faults_are_retried(self, tmp_path, schema):
        path = make_journal(tmp_path, commits=5, seed=12)
        reference = CDCConsumer(schema, path).run()
        plan = faults.install("crash@cdc.apply:attempt=0")
        try:
            result = CDCConsumer(schema, path).run()
        finally:
            faults.uninstall()
        assert result.retries == result.commits
        assert plan.fired_count("cdc.apply") == result.commits
        assert result.report.keys() == reference.report.keys()
        assert [e.to_json() for e in result.events] == [
            e.to_json() for e in reference.events
        ]

    def test_exhausted_retries_propagate(self, tmp_path, schema, monkeypatch):
        path = make_journal(tmp_path, commits=5, seed=12)
        monkeypatch.setattr(ladder, "MAX_RETRIES", 1)
        plan = faults.install("crash@cdc.apply")
        try:
            with pytest.raises(InjectedCrashError):
                CDCConsumer(schema, path).run()
        finally:
            faults.uninstall()
        # one first attempt and MAX_RETRIES retries, then the crash propagates
        assert plan.fired_count("cdc.apply") == 2

    def test_permanent_apply_error_not_retried(self, tmp_path, schema):
        journal = MutationJournal(str(tmp_path / "j.jsonl"))
        journal.write_events([
            {"op": "remove_node", "id": "ghost"},
            {"op": "commit"},
        ])
        with pytest.raises(GraphLoadError, match="remove_node") as err:
            CDCConsumer(schema, journal).run()
        assert err.value.line == 2


class TestBudget:
    def test_unknown_partial_at_commit_boundary(self, tmp_path, schema):
        path = make_journal(tmp_path, commits=10, ops_per_commit=5, seed=13)
        budget = Budget(max_nodes=12)
        result = CDCConsumer(schema, path, budget=budget).run()
        assert result.report.complete is False
        assert result.report.verdict in ("unknown", "violations")
        assert result.report.interruption.dimension == "nodes"
        assert result.commits < 10

    def test_budget_error_mode_raises(self, tmp_path, schema):
        path = make_journal(tmp_path, commits=10, ops_per_commit=5, seed=13)
        with pytest.raises(BudgetExhaustedError):
            CDCConsumer(
                schema, path, budget=Budget(max_nodes=12), on_budget="error"
            ).run()

    def test_checkpointed_partial_resumes_to_full(self, tmp_path, schema):
        path = make_journal(tmp_path, commits=10, ops_per_commit=5, seed=14)
        reference = CDCConsumer(schema, path).run()
        checkpoint_dir = str(tmp_path / "ckpt")
        partial = CDCConsumer(
            schema, path, budget=Budget(max_nodes=12),
            checkpoint_dir=checkpoint_dir, checkpoint_every=1,
        ).run()
        assert partial.report.complete is False
        resumed = CDCConsumer(
            schema, path, checkpoint_dir=checkpoint_dir, checkpoint_every=1
        ).run(resume=True)
        assert resumed.recovered_from.startswith("checkpoint:")
        assert resumed.report.complete is True
        assert resumed.report.keys() == reference.report.keys()


# --------------------------------------------------------------------- #
# schema-change events: migrate vs rebuild
# --------------------------------------------------------------------- #

STRUCTURAL_OLD = """
interface Named { name: String }
type A implements Named { name: String }
type B { a: A }
"""

STRUCTURAL_NEW = """
interface Named { name: String }
type A { name: String }
type B { a: A }
"""


class TestSchemaChange:
    def run_with_metrics(self, schema, path, **kwargs):
        observation = obs.install(None, obs.MetricsRegistry())
        try:
            result = CDCConsumer(schema, path, **kwargs).run()
        finally:
            obs.uninstall()
        return result, observation.registry

    def test_scope_local_changes_migrate(self, tmp_path, schema):
        path = make_journal(
            tmp_path, commits=10, seed=15, schema_change_commits=(3, 6, 9),
        )
        result, registry = self.run_with_metrics(schema, path)
        assert registry.counter_value("cdc.schema_migrations") == 3
        assert registry.counter_value("cdc.schema_rebuilds") == 0
        assert registry.counter_value("cdc.schema_rechecked_scopes") > 0

    def test_structural_change_rebuilds(self, tmp_path):
        journal = MutationJournal(str(tmp_path / "j.jsonl"))
        journal.write_events([
            {"op": "add_node", "id": "a1", "label": "A",
             "properties": {"name": "x"}},
            {"op": "commit"},
            {"op": "set_schema", "sdl": STRUCTURAL_NEW},
            {"op": "commit"},
        ])
        old = parse_schema(STRUCTURAL_OLD)
        result, registry = self.run_with_metrics(old, str(tmp_path / "j.jsonl"))
        assert registry.counter_value("cdc.schema_rebuilds") == 1
        assert registry.counter_value("cdc.schema_migrations") == 0
        assert result.commits == 2

    def test_breaking_change_makes_violations_appear(self, tmp_path, schema):
        journal = MutationJournal(str(tmp_path / "j.jsonl"))
        journal.write_events([
            {"op": "add_node", "id": "s1", "label": "UserSession",
             "properties": {"id": "i", "startTime": "t"}},
            {"op": "add_node", "id": "u1", "label": "User",
             "properties": {"id": "x", "login": "l"}},
            {"op": "add_edge", "id": "e1", "source": "s1", "target": "u1",
             "label": "user", "properties": {"certainty": 0.5}},
            {"op": "commit"},
            {"op": "set_schema", "sdl": MUTATION_SCHEMA_VARIANTS[0]},
            {"op": "commit"},
            {"op": "set_schema", "sdl": MUTATION_SCHEMA_VARIANTS[1]},
            {"op": "commit"},
        ])
        result = CDCConsumer(schema, journal).run()
        ds5 = [e for e in result.events if e.rule == "DS5"]
        # endTime @required appears at commit 2, disappears at commit 3
        assert [(e.kind, e.commit) for e in ds5] == [
            ("appeared", 2), ("disappeared", 3)
        ]
        assert result.conforms

    def test_invalid_schema_event_is_permanent(self, tmp_path, schema):
        journal = MutationJournal(str(tmp_path / "j.jsonl"))
        journal.write_events([
            {"op": "set_schema", "sdl": "type Broken {"},
            {"op": "commit"},
        ])
        with pytest.raises(GraphLoadError, match="set_schema"):
            CDCConsumer(schema, journal).run()


class TestMigratedValidator:
    """Direct differential checks of the scope-bounded migration."""

    def build(self, sdl, mutate):
        schema = parse_schema(sdl)
        graph = PropertyGraph()
        mutate(graph)
        return IncrementalValidator(schema, graph)

    def assert_migration_matches(self, old_sdl, new_sdl, mutate, affected):
        source = self.build(old_sdl, mutate)
        new_schema = parse_schema(new_sdl)
        migrated, rechecked = migrated_validator(
            source, new_schema, frozenset(affected)
        )
        fresh = IncrementalValidator(new_schema, source.graph)
        assert migrated.report().keys() == fresh.report().keys()
        return rechecked

    def test_add_required_directive(self):
        def mutate(graph):
            graph.add_node("a1", "A", {"x": 1})
            graph.add_node("a2", "A", {})
            graph.add_node("b1", "B", {"y": 2})

        rechecked = self.assert_migration_matches(
            "type A { x: Int }\ntype B { y: Int }",
            "type A { x: Int @required }\ntype B { y: Int }",
            mutate, {"A"},
        )
        assert rechecked == 2  # the two A nodes, never B

    def test_add_key_site(self):
        def mutate(graph):
            graph.add_node("a1", "A", {"x": 1})
            graph.add_node("a2", "A", {"x": 1})

        self.assert_migration_matches(
            "type A { x: Int }",
            'type A @key(fields: ["x"]) { x: Int }',
            mutate, {"A"},
        )

    def test_remove_key_site(self):
        def mutate(graph):
            graph.add_node("a1", "A", {"x": 1})
            graph.add_node("a2", "A", {"x": 1})

        self.assert_migration_matches(
            'type A @key(fields: ["x"]) { x: Int }',
            "type A { x: Int }",
            mutate, {"A"},
        )

    def test_required_for_target(self):
        def mutate(graph):
            graph.add_node("a1", "A", {})
            graph.add_node("b1", "B", {})
            graph.add_node("b2", "B", {})
            graph.add_edge("e1", "a1", "b1", "r", {})

        self.assert_migration_matches(
            "type A { r: B }\ntype B { y: Int }",
            "type A { r: B @requiredForTarget }\ntype B { y: Int }",
            mutate, {"A", "B"},
        )

    def test_duplicated_key_site_keeps_both_copies(self):
        def mutate(graph):
            graph.add_node("a1", "A", {"x": 1})
            graph.add_node("a2", "A", {"x": 1})

        key = '@key(fields: ["x"])'
        source = self.build(f"type A {key} {key} {{ x: Int }}\ntype B {{ y: Int }}", mutate)
        new_schema = parse_schema(
            f"type A {key} {key} {{ x: Int }}\ntype B {{ y: Int @required }}"
        )
        # A is unaffected: its key scopes carry over as they are
        migrated, _ = migrated_validator(source, new_schema, frozenset({"B"}))
        fresh = IncrementalValidator(new_schema, source.graph)
        # one DS7 violation per site, as a rebuild (and a checkpoint) has it
        assert sorted(map(str, migrated.report().violations)) == sorted(
            map(str, fresh.report().violations)
        )
        assert len(fresh.report().violations) == 2

    def test_edge_directive_change(self):
        def mutate(graph):
            graph.add_node("a1", "A", {})
            graph.add_node("a2", "A", {})
            graph.add_edge("e1", "a1", "a2", "r", {})
            graph.add_edge("e2", "a1", "a2", "r", {})

        self.assert_migration_matches(
            "type A { r: [A] }",
            "type A { r: [A] @distinct }",
            mutate, {"A"},
        )


# --------------------------------------------------------------------- #
# checkpoint hygiene
# --------------------------------------------------------------------- #


class TestCheckpoints:
    def test_at_most_two_kept_and_tmp_pruned(self, tmp_path, schema):
        path = make_journal(tmp_path, commits=12, seed=16)
        checkpoint_dir = tmp_path / "ckpt"
        result = CDCConsumer(
            schema, path, checkpoint_dir=str(checkpoint_dir), checkpoint_every=2
        ).run()
        assert result.checkpoints_written == 6
        names = sorted(os.listdir(checkpoint_dir))
        assert len(names) == 2
        assert all(name.startswith("ckpt-") and name.endswith(".json") for name in names)

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path, schema):
        path = make_journal(tmp_path, commits=4, seed=17)
        checkpoint_dir = tmp_path / "ckpt"
        CDCConsumer(
            schema, path, checkpoint_dir=str(checkpoint_dir), checkpoint_every=2
        ).run()
        before = sorted(os.listdir(checkpoint_dir))
        result = CDCConsumer(
            schema, path, checkpoint_dir=str(checkpoint_dir), checkpoint_every=2
        ).run(resume=False)
        assert result.recovered_from is None
        assert sorted(os.listdir(checkpoint_dir)) == before

    def test_checkpoint_is_valid_json_with_digest(self, tmp_path, schema):
        path = make_journal(tmp_path, commits=4, seed=18)
        checkpoint_dir = tmp_path / "ckpt"
        CDCConsumer(
            schema, path, checkpoint_dir=str(checkpoint_dir), checkpoint_every=2
        ).run()
        name = sorted(os.listdir(checkpoint_dir))[-1]
        payload = json.loads((checkpoint_dir / name).read_text())
        assert payload["format"] == "pgschema-cdc-checkpoint"
        assert payload["version"] == 2
        for key in ("offset", "seq", "line", "commit", "events_offset",
                    "schema_sdl", "graph", "digest"):
            assert key in payload
        # the violation store is derived from the graph on recovery
        assert "violations" not in payload
