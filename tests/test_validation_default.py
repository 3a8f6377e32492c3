"""The default validation engine: the fused plan kernel, inline.

``validate()`` and ``pgschema validate`` default to ``engine="parallel"``
without ``jobs``, which runs :func:`~repro.validation.parallel.validate_shard`
on one shard with no pool.  The benchmark's reference answer takes the same
path, so the checks that it is right live here: byte-identical CLI output
against the indexed and naive engines, identical reports against the
thread and process fan-outs, and no executor pool on the default path.
"""

import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.resilience.ladder as ladder_module
import repro.validation.parallel as parallel_module
from repro.cli import main
from repro.pg import dump_graph_jsonl, dumps_graph
from repro.validation import ParallelValidator, make_validator, validate
from repro.workloads import conformant_graph, corrupt_graph, load, user_session_graph
from repro.workloads.paper_schemas import CORPUS

SCHEMA_NAME = "user_session_edge_props"
SCHEMA = load(SCHEMA_NAME)

_SRC = str(Path(repro.__file__).resolve().parent.parent)

#: The violations the oneshot benchmark injects into its validate graph.
INJECTED_RULES = ("WS1", "DS5", "SS1")


def _corrupted(num_users: int, seed: int = 1):
    graph = user_session_graph(num_users, 2, seed=seed)
    for index, rule in enumerate(INJECTED_RULES):
        corrupted = corrupt_graph(graph, SCHEMA, rule, seed=seed * 31 + index)
        assert corrupted is not None, rule
        graph = corrupted
    return graph


def _render(report) -> list[str]:
    return [report.summary(), *(str(v) for v in sorted(report.violations, key=str))]


@pytest.fixture
def files(tmp_path):
    def write(graph):
        schema_path = tmp_path / "schema.graphql"
        schema_path.write_text(CORPUS[SCHEMA_NAME].sdl)
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(dumps_graph(graph))
        return str(schema_path), str(graph_path)

    return write


def _cli(capsys, *argv):
    code = main(["validate", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    ("engine", "num_users"), (("indexed", 900), ("naive", 12))
)
def test_cli_default_matches_reference_engine(files, capsys, engine, num_users):
    schema_path, graph_path = files(_corrupted(num_users))
    default_code, default_out = _cli(capsys, schema_path, graph_path)
    other_code, other_out = _cli(capsys, schema_path, graph_path, "--engine", engine)
    assert default_code == other_code == 1
    assert default_out == other_out
    for rule in INJECTED_RULES:
        assert f"\n  {rule} " in default_out, rule


def test_default_report_equals_serial_and_process_fan_out(request):
    graph = _corrupted(300)
    default = validate(SCHEMA, graph)
    assert default.violations
    for rung in ("serial", "process"):
        if rung == "process":
            request.getfixturevalue("process_rung")
        validator = make_validator(SCHEMA, jobs=2)
        assert validator.choose_executor(graph) == rung
        fanned = validator.validate(graph)
        assert _render(fanned) == _render(default), rung
        assert fanned.complete == default.complete


def test_default_path_creates_no_pool(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the default validation path started a pool")

    for module in (concurrent.futures, parallel_module, ladder_module):
        for name in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    # a many-core host and a graph above the process threshold: an explicit
    # jobs would pick the process pool here
    monkeypatch.setattr(ladder_module, "usable_cores", lambda: 8)
    graph = _corrupted(1000)
    assert len(graph) >= ParallelValidator.SMALL_GRAPH_THRESHOLD
    validator = make_validator(SCHEMA)
    assert validator.choose_executor(graph) == "serial"
    assert validator.shard_count == 1
    assert not validator.validate(graph).conforms
    assert not validate(SCHEMA, graph).conforms
    assert ParallelValidator(SCHEMA, jobs=4).choose_executor(graph) == "process"


# --------------------------------------------------------------------------- #
# the records-first load against the PropertyGraph paths
# --------------------------------------------------------------------------- #
#
# ``pgschema validate`` with the default engine reads a JSON graph straight
# into a GraphRecords view; the indexed engine and .jsonl inputs still build
# a PropertyGraph.  Stdout and exit code must not tell them apart.

#: The rules corrupt_graph can inject.
CORRUPTIBLE = ("SS1", "WS1", "SS2", "SS4", "WS3", "WS4", "DS1", "DS2", "DS5", "DS6", "DS7")


def _stressed(schema, seed: int):
    """A conformant graph plus a bare node of every object type (DS4, DS5,
    DS6) and parallel twins of every third edge (WS4, DS1, DS3); then that
    graph with each violation corrupt_graph can inject, one at a time
    (its injected ids would collide)."""
    graph = conformant_graph(schema, nodes_per_type=4, seed=seed)
    for type_name in sorted(schema.object_types):
        graph.add_node(f"bare_{type_name}", type_name)
    for index, edge in enumerate(sorted(graph.edges, key=str)[::3]):
        source, target = graph.endpoints(edge)
        graph.add_edge(
            f"twin{index}", source, target, graph.label(edge), graph.properties(edge)
        )
    yield graph
    for index, rule in enumerate(CORRUPTIBLE):
        corrupted = corrupt_graph(graph, schema, rule, seed=seed * 31 + index)
        if corrupted is not None:
            yield corrupted


def _write(tmp_path, sdl: str, graph, name: str = "graph"):
    schema_path = tmp_path / f"{name}.graphql"
    schema_path.write_text(sdl)
    json_path = tmp_path / f"{name}.json"
    json_path.write_text(dumps_graph(graph))
    jsonl_path = tmp_path / f"{name}.jsonl"
    with open(jsonl_path, "w") as handle:
        dump_graph_jsonl(graph, handle)
    return str(schema_path), str(json_path), str(jsonl_path)


def test_records_path_matches_indexed_on_the_corpus(tmp_path, capsys):
    fired = set()
    for name in sorted(CORPUS):
        for index, graph in enumerate(_stressed(load(name), seed=len(name))):
            schema_path, graph_path, _ = _write(tmp_path, CORPUS[name].sdl, graph)
            records = _cli(capsys, schema_path, graph_path)
            indexed = _cli(capsys, schema_path, graph_path, "--engine", "indexed")
            assert records == indexed, (name, index)
            fired |= {line.split()[0] for line in records[1].splitlines()[1:]}
    # the records view's accessors all ran: DS4 reads in_edge_records, DS6
    # out_degree, DS1/DS3/WS4 the edge groups, DS7 the property maps
    assert {"DS1", "DS3", "DS4", "DS6", "DS7", "WS4"} <= fired
    assert len(fired) >= 12


# the schema has no @distinct and no @noLoops site to violate
@pytest.mark.parametrize("rule", [rule for rule in CORRUPTIBLE if rule not in ("DS1", "DS2")])
def test_records_path_matches_indexed_on_corrupted_user_sessions(tmp_path, capsys, rule):
    graph = corrupt_graph(user_session_graph(30, 2, seed=3), SCHEMA, rule, seed=5)
    schema_path, graph_path, _ = _write(tmp_path, CORPUS[SCHEMA_NAME].sdl, graph)
    records = _cli(capsys, schema_path, graph_path)
    assert records == _cli(capsys, schema_path, graph_path, "--engine", "indexed")
    assert f"\n  {rule} " in records[1]


def test_records_path_profile_output(tmp_path, capsys):
    schema_path, graph_path, _ = _write(
        tmp_path, CORPUS["library"].sdl, next(_stressed(load("library"), seed=2))
    )
    code = main(["validate", schema_path, graph_path, "--profile"])
    captured = capsys.readouterr()
    assert (code, captured.out) == _cli(capsys, schema_path, graph_path, "--engine", "indexed")
    assert "engine    parallel (executor serial, 1 shard(s))" in captured.err
    for stage in ("partition", "kernel", "merge", "total"):
        assert f"  {stage} " in captured.err


@pytest.mark.parametrize(
    "budget", (("--max-nodes", "10"), ("--timeout", "1e-9"))
)
def test_records_path_budget_partial_reports(tmp_path, capsys, budget):
    schema_path, json_path, jsonl_path = _write(
        tmp_path, CORPUS[SCHEMA_NAME].sdl, _corrupted(40)
    )
    elapsed = re.compile(r"after \d+\.\d+s")
    records_code, records_out = _cli(capsys, schema_path, json_path, *budget)
    graph_code, graph_out = _cli(capsys, schema_path, jsonl_path, *budget)
    assert records_code == graph_code == 3
    assert elapsed.sub("", records_out) == elapsed.sub("", graph_out)
    assert "[INCOMPLETE: " in records_out


def _cli_process(argv, faults_spec):
    env = dict(os.environ, PYTHONPATH=_SRC, PGSCHEMA_FAULTS=faults_spec)
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "validate", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_records_path_under_injected_faults(tmp_path):
    schema_path, json_path, jsonl_path = _write(
        tmp_path, CORPUS[SCHEMA_NAME].sdl, _corrupted(40)
    )
    # a crashed first kernel attempt is retried: same report, and the
    # fault really fired on both paths
    outputs = []
    for graph_path in (json_path, jsonl_path):
        metrics = tmp_path / "metrics.json"
        code, out, _ = _cli_process(
            [schema_path, graph_path, "--metrics", str(metrics)],
            "crash@parallel.worker:attempt=0",
        )
        counters = json.loads(metrics.read_text())["counters"]
        assert counters.get("faults.fired.crash") == 1, graph_path
        outputs.append((code, out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1
    # a crash at the merge escapes on both paths alike
    crashes = [
        _cli_process([schema_path, graph_path], "crash@parallel.merge")
        for graph_path in (json_path, jsonl_path)
    ]
    (code, out, err), (other_code, other_out, other_err) = crashes
    assert code == other_code != 0
    assert out == other_out
    assert err.strip().splitlines()[-1] == other_err.strip().splitlines()[-1]
    assert "parallel.merge" in err
