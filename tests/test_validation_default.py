"""The default validation engine: the fused plan kernel, inline.

``validate()`` and ``pgschema validate`` default to ``engine="parallel"``
without ``jobs``, which runs :func:`~repro.validation.parallel.validate_shard`
on one shard with no pool.  The benchmark's reference answer takes the same
path, so the checks that it is right live here: byte-identical CLI output
against the indexed and naive engines, identical reports against the
thread and process fan-outs, and no executor pool on the default path.
"""

import concurrent.futures

import pytest

import repro.resilience.ladder as ladder_module
import repro.validation.parallel as parallel_module
from repro.cli import main
from repro.pg import dumps_graph
from repro.validation import ParallelValidator, make_validator, validate
from repro.workloads import corrupt_graph, load, user_session_graph
from repro.workloads.paper_schemas import CORPUS

SCHEMA_NAME = "user_session_edge_props"
SCHEMA = load(SCHEMA_NAME)

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


def test_default_report_equals_thread_and_process_fan_out():
    graph = _corrupted(300)
    default = validate(SCHEMA, graph)
    assert default.violations
    for executor in ("thread", "process"):
        fanned = make_validator(SCHEMA, jobs=2, executor=executor).validate(graph)
        assert _render(fanned) == _render(default), executor
        assert fanned.complete == default.complete


def test_default_path_creates_no_pool(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the default validation path started a pool")

    for module in (concurrent.futures, parallel_module, ladder_module):
        for name in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    # a many-core host and a graph above the thread threshold: an explicit
    # jobs would pick the process pool here
    monkeypatch.setattr(parallel_module, "usable_cores", lambda: 8)
    graph = _corrupted(1000)
    assert len(graph) >= ParallelValidator.SMALL_GRAPH_THRESHOLD
    validator = make_validator(SCHEMA)
    assert validator.choose_executor(graph) == "serial"
    assert validator.shard_count == 1
    assert not validator.validate(graph).conforms
    assert not validate(SCHEMA, graph).conforms
    assert ParallelValidator(SCHEMA, jobs=4).choose_executor(graph) == "process"
