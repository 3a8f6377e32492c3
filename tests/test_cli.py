"""The pgschema command-line interface."""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.pg import dump_graph_jsonl, dumps_graph
from repro.workloads import (
    CORPUS,
    MUTATION_SCHEMA_SDL,
    MutationWorkloadConfig,
    user_session_graph,
    write_mutation_journal,
)


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.graphql"
    path.write_text(CORPUS["user_session_edge_props"].sdl)
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(dumps_graph(user_session_graph(3, 1, seed=0)))
    return str(path)


class TestCheck:
    def test_consistent_schema(self, schema_file, capsys):
        assert main(["check", schema_file]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_inconsistent_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.graphql"
        path.write_text(CORPUS["example_6_1_a"].sdl)
        assert main(["check", str(path)]) == 1
        assert "NOT consistent" in capsys.readouterr().out

    def test_warnings_shown(self, tmp_path, capsys):
        path = tmp_path / "warn.graphql"
        path.write_text(CORPUS["figure_1"].sdl)
        assert main(["check", str(path)]) == 0
        assert "warning" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.graphql"]) == 2

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "broken.graphql"
        path.write_text("type {{{{")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_output_independent_of_hash_seed(self, tmp_path):
        """Interface problems print in sorted order, not set order."""
        import os
        import subprocess
        import sys

        import repro

        path = tmp_path / "bad.graphql"
        path.write_text(CORPUS["example_6_1_a"].sdl)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH", "")])
            )
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "check", str(path)],
                capture_output=True,
                env=env,
                timeout=60,
            )
            assert done.returncode == 1, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"(implements IT)") == 2


class TestLint:
    @pytest.fixture
    def unsat_file(self, tmp_path):
        path = tmp_path / "a.graphql"
        path.write_text(CORPUS["example_6_1_a"].sdl)
        return str(path)

    def test_clean_schema_exits_zero(self, schema_file, capsys):
        assert main(["lint", schema_file]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_unsat_schema_exits_nonzero_with_span(self, unsat_file, capsys):
        assert main(["lint", unsat_file]) == 1
        out = capsys.readouterr().out
        # compiler-style line: file:line:column, stable code, location
        assert f"{unsat_file}:5:3: error PG001 [conflicting-cardinality] OT1:" in out

    def test_json_output(self, unsat_file, capsys):
        assert main(["lint", unsat_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        pg001 = [f for f in payload if f["code"] == "PG001"]
        assert pg001 and pg001[0]["unsatisfiableType"] == "OT1"
        assert pg001[0]["line"] == 5 and pg001[0]["column"] == 3

    def test_select_and_ignore(self, unsat_file, capsys):
        assert main(["lint", unsat_file, "--select", "PG004"]) == 0
        assert main(["lint", unsat_file, "--ignore", "PG004"]) == 1
        out = capsys.readouterr().out
        assert "PG004" not in out.split("\n")[-2]

    def test_unknown_rule_is_usage_error(self, schema_file, capsys):
        assert main(["lint", schema_file, "--select", "PG999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_warnings_alone_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "warn.graphql"
        path.write_text("type T { next: T @required @noLoops }")
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PG002" in out and "1 warning(s)" in out

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_exit_codes(self, name, tmp_path):
        """lint exits 0 on every satisfiable corpus schema, nonzero on the
        two schemas with unsatisfiable types."""
        path = tmp_path / f"{name}.graphql"
        path.write_text(CORPUS[name].sdl)
        expected = 1 if name in {"example_6_1_a", "diagram_c"} else 0
        assert main(["lint", str(path)]) == expected


class TestValidate:
    def test_conformant(self, schema_file, graph_file, capsys):
        assert main(["validate", schema_file, graph_file]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_violations_reported(self, schema_file, tmp_path, capsys):
        graph = user_session_graph(2, 1, seed=0)
        graph.add_node("ghost", "Phantom")
        path = tmp_path / "bad.json"
        path.write_text(dumps_graph(graph))
        assert main(["validate", schema_file, str(path)]) == 1
        out = capsys.readouterr().out
        assert "SS1" in out

    def test_modes_and_engines(self, schema_file, graph_file):
        for mode in ("weak", "directives", "strong", "extended"):
            assert main(["validate", schema_file, graph_file, "--mode", mode]) == 0
        assert main(["validate", schema_file, graph_file, "--engine", "naive"]) == 0

    def test_profile_reports_the_default_engine_stages(
        self, schema_file, graph_file, capsys
    ):
        assert main(["validate", schema_file, graph_file, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "conforms" in captured.out
        lines = captured.err.splitlines()
        assert lines[0] == "  engine    parallel (executor serial, 1 shard(s))"
        stages = [line.split()[0] for line in lines[1:5]]
        assert stages == ["partition", "kernel", "merge", "total"]
        assert all(float(line.split()[1]) >= 0 for line in lines[1:5])
        assert lines[5].startswith("  plan cache: ")

    def test_profile_names_a_pool_when_jobs_given(
        self, schema_file, graph_file, capsys
    ):
        argv = ["validate", schema_file, graph_file, "--profile", "--jobs", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().err.splitlines()[0]
        assert first.endswith(", 2 shard(s))")

    def test_profile_keeps_trace_spans(self, schema_file, graph_file, tmp_path):
        trace = tmp_path / "trace.json"
        argv = ["validate", schema_file, graph_file, "--profile", "--trace", str(trace)]
        assert main(argv) == 0
        names = {event["name"] for event in json.loads(trace.read_text())["traceEvents"]}
        assert {"validation.run", "validation.shard", "validation.merge"} <= names


class TestLoneSurrogateIds:
    """JSON ids may carry lone surrogates (``"a\\ud800"``): every engine
    accepts them, and the printers escape them instead of crashing."""

    SDL = "type A { b: B }\ntype B { x: Int }\n"
    # two b-edges out of one A node break WS4 (non-list field type B)
    NODES = [("a\ud800", "A"), ("b1\udfff", "B"), ("b2", "B")]
    EDGES = [("e1\ud800", "a\ud800", "b1\udfff"), ("e2", "a\ud800", "b2")]

    @pytest.fixture
    def schema_path(self, tmp_path):
        path = tmp_path / "s.graphql"
        path.write_text(self.SDL)
        return str(path)

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["inline", "jobs2"])
    def test_validate_prints_escaped_ids(self, schema_path, tmp_path, capsys, jobs):
        graph = {
            "nodes": [{"id": n, "label": label} for n, label in self.NODES],
            "edges": [
                {"id": e, "source": s, "target": t, "label": "b"}
                for e, s, t in self.EDGES
            ],
        }
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(graph))
        assert main(["validate", schema_path, str(graph_path), *jobs]) == 1
        out = capsys.readouterr().out
        assert "  WS4 [A.b] (e1\\ud800, e2)" in out

    def test_cdc_prints_escaped_ids_and_writes_json_events(
        self, schema_path, tmp_path, capsys
    ):
        from repro.validation import MutationJournal

        journal = tmp_path / "j.jsonl"
        MutationJournal(str(journal)).write_events(
            [{"op": "add_node", "id": n, "label": label} for n, label in self.NODES]
            + [
                {"op": "add_edge", "id": e, "source": s, "target": t, "label": "b"}
                for e, s, t in self.EDGES
            ]
            + [{"op": "commit"}]
        )
        events = tmp_path / "events.jsonl"
        argv = ["cdc", schema_path, str(journal), "--events-json", str(events)]
        assert main(argv) == 1
        assert "e1\\ud800" in capsys.readouterr().out
        # the events file is ASCII JSON: the surrogate round-trips as \ud800
        (event,) = [json.loads(line) for line in events.read_text().splitlines()]
        assert "e1\ud800" in event["elements"]


class TestSat:
    def test_satisfiable_schema(self, schema_file, capsys):
        assert main(["sat", schema_file]) == 0
        out = capsys.readouterr().out
        assert "User: SATISFIABLE" in out
        assert "witness" in out

    def test_unsat_type(self, tmp_path, capsys):
        path = tmp_path / "c.graphql"
        path.write_text(CORPUS["diagram_c"].sdl)
        assert main(["sat", str(path), "--type", "OT2"]) == 1
        assert "UNSATISFIABLE" in capsys.readouterr().out

    def test_infinite_only_model_reported(self, tmp_path, capsys):
        path = tmp_path / "b.graphql"
        path.write_text(CORPUS["diagram_b"].sdl)
        assert main(["sat", str(path), "--type", "OT2"]) == 0
        assert "no finite witness" in capsys.readouterr().out

    def test_no_witness_flag(self, schema_file, capsys):
        assert main(["sat", schema_file, "--no-witness"]) == 0


class TestTranslate:
    def test_tbox_printed(self, schema_file, capsys):
        assert main(["translate", schema_file]) == 0
        out = capsys.readouterr().out
        assert "⊑" in out
        assert "disjoint(" in out


class TestApiAndQuery:
    def test_api_schema_printed(self, schema_file, capsys):
        assert main(["api", schema_file]) == 0
        out = capsys.readouterr().out
        assert "type Query {" in out
        assert "allUser" in out

    def test_query_execution(self, schema_file, graph_file, capsys):
        assert (
            main(["query", schema_file, graph_file, "{ allUser { login } }"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        logins = {user["login"] for user in payload["data"]["allUser"]}
        assert logins == {"login0", "login1", "login2"}

    def test_bad_query(self, schema_file, graph_file, capsys):
        assert main(["query", schema_file, graph_file, "{ nonsense { x } }"]) == 2


class TestStatsAndExport:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "node label User" in out

    def test_stats_json_includes_cache_gauges(self, graph_file, capsys):
        """stats --json carries the process-wide cache occupancy gauges
        (plan cache, sat caches, compiled-scalar registry)."""
        assert main(["stats", graph_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "pgschema-metrics"
        gauges = payload["gauges"]
        for prefix in (
            "validation.plan_cache_info.",
            "sat.cache_info.",
            "schema.scalar_checkers_info.",
        ):
            assert any(name.startswith(prefix) for name in gauges), prefix
        assert "validation.plan_cache_info.size" in gauges
        assert "sat.cache_info.schemas" in gauges
        assert "schema.scalar_checkers_info.size" in gauges

    def test_export_cypher_schema_only(self, schema_file, capsys):
        assert main(["export-cypher", schema_file]) == 0
        out = capsys.readouterr().out
        assert "CREATE CONSTRAINT" in out
        assert "not expressible" in out

    def test_export_cypher_with_data(self, schema_file, graph_file, capsys):
        assert main(["export-cypher", schema_file, graph_file]) == 0
        out = capsys.readouterr().out
        assert "CREATE (n0:" in out

    def test_infer_command(self, graph_file, capsys):
        assert main(["infer", graph_file]) == 0
        out = capsys.readouterr().out
        assert "type User" in out

    def test_diff_command(self, schema_file, tmp_path, capsys):
        new_path = tmp_path / "new.graphql"
        new_path.write_text(
            CORPUS["user_session_edge_props"].sdl + "\ntype Extra { x: Int }\n"
        )
        assert main(["diff", schema_file, str(new_path)]) == 0
        assert "compatible" in capsys.readouterr().out

    def test_diff_breaking(self, schema_file, tmp_path, capsys):
        new_path = tmp_path / "new.graphql"
        new_path.write_text(
            CORPUS["user_session_edge_props"].sdl.replace(
                "endTime: Time!", "endTime: Time! @required"
            )
        )
        assert main(["diff", schema_file, str(new_path)]) == 1
        assert "breaking" in capsys.readouterr().out


class TestDiffRobustness:
    def test_json_output(self, schema_file, tmp_path, capsys):
        new_path = tmp_path / "new.graphql"
        new_path.write_text(
            CORPUS["user_session_edge_props"].sdl.replace(
                "endTime: Time!", "endTime: Time! @required"
            )
        )
        assert main(["diff", schema_file, str(new_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["backward_compatible"] is False
        assert any(
            change["impact"] == "breaking" for change in payload["changes"]
        )

    def test_json_identical(self, schema_file, capsys):
        assert main(["diff", schema_file, schema_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backward_compatible"] is True
        assert payload["changes"] == []

    def test_broken_schema_exits_three(self, schema_file, tmp_path, capsys):
        bad = tmp_path / "broken.graphql"
        bad.write_text("type {{{{")
        assert main(["diff", schema_file, str(bad)]) == 3
        err = capsys.readouterr().err
        assert "error" in err and "E_SYNTAX" in err

    def test_missing_file_exits_three(self, schema_file, capsys):
        assert main(["diff", schema_file, "/no/such/file.graphql"]) == 3
        assert "error" in capsys.readouterr().err


class TestValidateStream:
    @pytest.fixture
    def jsonl_file(self, tmp_path):
        path = tmp_path / "graph.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            dump_graph_jsonl(user_session_graph(3, 1, seed=0), fp)
        return str(path)

    def test_stream_conformant(self, schema_file, jsonl_file, capsys):
        assert main(["validate", schema_file, jsonl_file, "--stream"]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_stream_chunk_size(self, schema_file, jsonl_file):
        assert main(
            ["validate", schema_file, jsonl_file, "--stream", "--chunk-size", "2"]
        ) == 0

    def test_stream_requires_jsonl(self, schema_file, graph_file, capsys):
        assert main(["validate", schema_file, graph_file, "--stream"]) == 2
        assert "--stream validates JSON-Lines" in capsys.readouterr().err

    def test_stream_violations(self, schema_file, tmp_path, capsys):
        graph = user_session_graph(2, 1, seed=0)
        graph.add_node("ghost", "Phantom")
        path = tmp_path / "bad.jsonl"
        with open(path, "w", encoding="utf-8") as fp:
            dump_graph_jsonl(graph, fp)
        assert main(["validate", schema_file, str(path), "--stream"]) == 1
        assert "SS1" in capsys.readouterr().out


class TestServe:
    """``pgschema serve`` startup failures join the exit-code matrix:
    typed ``error[E_SERVICE]`` on stderr, exit 2 -- same contract as every
    other command's usage/IO errors."""

    def test_port_in_use_exits_two(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            port = sock.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert "error[E_SERVICE]" in err
        assert "cannot bind" in err

    def test_registry_dir_is_a_file_exits_two(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.write_text("not a directory")
        assert main(
            ["serve", "--port", "0", "--registry-dir", str(occupied)]
        ) == 2
        err = capsys.readouterr().err
        assert "error[E_SERVICE]" in err


class TestCdc:
    @pytest.fixture
    def journal_file(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_mutation_journal(
            str(path),
            MutationWorkloadConfig(
                commits=8, ops_per_commit=4, violation_probability=0.4, seed=0
            ),
        )
        return str(path)

    @pytest.fixture
    def mutation_schema_file(self, tmp_path):
        path = tmp_path / "mutation.graphql"
        path.write_text(MUTATION_SCHEMA_SDL)
        return str(path)

    def test_run_reports_transitions(
        self, mutation_schema_file, journal_file, capsys
    ):
        code = main(["cdc", mutation_schema_file, journal_file])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "commit(s)" in out

    def test_resume_from_checkpoint(
        self, mutation_schema_file, journal_file, tmp_path, capsys
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        main([
            "cdc", mutation_schema_file, journal_file,
            "--checkpoint-dir", checkpoint_dir, "--checkpoint-every", "2",
        ])
        capsys.readouterr()
        code = main([
            "cdc", mutation_schema_file, journal_file,
            "--checkpoint-dir", checkpoint_dir, "--resume",
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "resumed from checkpoint:" in out
        assert "0 commit(s)" in out

    def test_events_json(self, mutation_schema_file, journal_file, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        main([
            "cdc", mutation_schema_file, journal_file,
            "--events-json", str(events_path),
        ])
        lines = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
            if line
        ]
        assert lines
        assert {line["event"] for line in lines} <= {"appeared", "disappeared"}

    def test_missing_journal_exits_two(self, mutation_schema_file, capsys):
        assert main(["cdc", mutation_schema_file, "/no/such/journal.jsonl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_budget_exit_three(self, mutation_schema_file, tmp_path, capsys):
        # a violation-free journal whose budget runs out mid-stream: the
        # partial verdict is UNKNOWN, not violations, so the exit code is 3
        from repro.validation import MutationJournal

        journal = MutationJournal(str(tmp_path / "clean.jsonl"))
        events = []
        for i in range(6):
            events.append({
                "op": "add_node", "id": f"u{i}", "label": "User",
                "properties": {"id": f"i{i}", "login": f"l{i}"},
            })
            events.append({"op": "commit"})
        journal.write_events(events)
        code = main([
            "cdc", mutation_schema_file, str(tmp_path / "clean.jsonl"),
            "--max-nodes", "3",
        ])
        assert code == 3
        assert "incomplete" in capsys.readouterr().out.lower()

    def test_budget_violations_exit_one(
        self, mutation_schema_file, journal_file, capsys
    ):
        code = main([
            "cdc", mutation_schema_file, journal_file, "--max-nodes", "5"
        ])
        assert code == 1
        assert "incomplete" in capsys.readouterr().out.lower()


# A bad final line for any JSON-lines input, with the offset of its error
# within the line.  Each holds a non-ASCII character before the error, so
# a character offset would differ from the byte offset asserted.
_BAD_LINES = {
    "invalid-utf8": (b'["\xc3\xbc\xff"]\n', 4),
    "too-deep": (b"[" * 100_000 + b"\n", 0),
    "torn": (b'["\xc3\xbc", ', 7),
}


class TestMalformedLines:
    """Graph lines (inline and ``--stream``) and the mutation journal fail
    one typed way: exit 2 and one ``error[E_LOAD]`` line naming the bad
    line and the byte offset of its error."""

    @pytest.fixture
    def graph_lines(self, tmp_path):
        buffer = io.StringIO()
        dump_graph_jsonl(user_session_graph(600, 2, seed=0), buffer)
        lines = buffer.getvalue().splitlines(keepends=True)[:2999]
        path = tmp_path / "graph.jsonl"
        path.write_bytes(
            '{"type": "node", "id": "\u00fc", "label": "User"}\n'.encode()
            + "".join(lines).encode()
        )
        return path

    @pytest.fixture
    def journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_mutation_journal(str(path), MutationWorkloadConfig(commits=4, seed=0))
        return path

    @pytest.mark.parametrize("bad", sorted(_BAD_LINES))
    @pytest.mark.parametrize("command", ["validate", "validate-stream", "cdc"])
    def test_bad_final_line(
        self, command, bad, schema_file, graph_lines, journal, tmp_path, capsys
    ):
        if command == "cdc":
            schema = tmp_path / "mutation.graphql"
            schema.write_text(MUTATION_SCHEMA_SDL)
            path, argv = journal, ["cdc", str(schema), str(journal)]
        else:
            path, argv = graph_lines, ["validate", schema_file, str(graph_lines)]
            if command == "validate-stream":
                argv.append("--stream")
        good = path.read_bytes()
        line, error_at = _BAD_LINES[bad]
        path.write_bytes(good + line)
        assert main(argv) == 2
        err = capsys.readouterr().err
        number = good.count(b"\n") + 1
        if command != "cdc":
            assert number == 3001
        assert err.startswith("error[E_LOAD]: ")
        assert f" at line {number}, " in err
        assert err.rstrip().endswith(f"(byte {len(good) + error_at})")


_HELP_GOLDEN = Path(__file__).parent / "golden" / "cli_help"
# Every parser of the argparse tree: the top level, each subcommand and
# each ``perf`` sub-subcommand.  Golden name: the argv joined by "-".
_HELP_ARGVS = [
    [],
    *[
        [name]
        for name in (
            "check", "lint", "analyze", "validate", "cdc", "sat", "translate", "api",
            "query", "infer", "diff", "stats", "serve", "export-cypher", "perf",
        )
    ],
    *[["perf", name] for name in ("record", "diff", "trend", "check")],
]


@pytest.mark.parametrize("argv", _HELP_ARGVS, ids=lambda argv: "-".join(argv) or "pgschema")
def test_help_text_is_unchanged(argv, monkeypatch, capsys):
    # argparse wraps help to the terminal width: pin it
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    golden = _HELP_GOLDEN / f"{'-'.join(argv) or 'pgschema'}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_help_goldens_cover_every_parser():
    assert {path.stem for path in _HELP_GOLDEN.glob("*.txt")} == {
        "-".join(argv) or "pgschema" for argv in _HELP_ARGVS
    }
