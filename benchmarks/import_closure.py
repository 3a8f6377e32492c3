"""How much of ``repro`` each one-shot ``pgschema`` subcommand loads.

Run directly: ``python benchmarks/import_closure.py`` (with ``src`` on
``PYTHONPATH``).  Each subcommand runs once in a fresh interpreter on a
corpus input; the table lists the ``repro`` modules in ``sys.modules``
afterwards and their source lines, every module in ``sys.modules``
(standard library included), how many of the loaded ``repro`` classes are
``@dataclass``-decorated, whether :mod:`dataclasses` and
:mod:`concurrent.futures` were imported at all, and the cyclic-GC
collections per generation (``gc.get_stats()``) the run triggered.  Without a bytecode cache
(``PYTHONDONTWRITEBYTECODE=1``, or a fresh checkout) every one of those
lines is compiled again on every exec.  The counts repeat exactly from run
to run, so a change in them is a change in the program, not noise.
Informational only: ``tests/test_import_closure.py`` is the gate on which
modules load.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import repro
from repro.pg import dumps_graph
from repro.schema import print_schema
from repro.workloads import CORPUS, hub_chain_schema, user_session_graph

_PROBE = """
import contextlib, gc, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main({argv!r})
names = sorted(n for n in sys.modules if n == "repro" or n.startswith("repro."))
lines = 0
for name in names:
    with open(sys.modules[name].__file__, encoding="utf-8") as handle:
        lines += sum(1 for _ in handle)
decorated = sum(
    1
    for name in names
    for value in vars(sys.modules[name]).values()
    if isinstance(value, type)
    and value.__module__ == name
    and "__dataclass_fields__" in vars(value)
)
unused = [name in sys.modules for name in ("dataclasses", "concurrent.futures")]
collections = [generation["collections"] for generation in gc.get_stats()]
print(json.dumps([len(names), lines, len(sys.modules), decorated, unused, collections]))
"""


def closure(argv: list[str]) -> tuple[int, int, int, int, list[bool], list[int]]:
    """What ``pgschema *argv*`` loads and collects: ``repro`` modules,
    their source lines, all modules, dataclass-decorated ``repro`` classes,
    whether ``dataclasses`` / ``concurrent.futures`` are loaded, and GC
    collections per generation."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PGSCHEMA_FAULTS", None)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(argv=argv)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))  # type: ignore[return-value]


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:

        def write(name: str, text: str) -> str:
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return path

        schema = write("user_session.graphql", CORPUS["user_session_edge_props"].sdl)
        graph = write("graph.json", dumps_graph(user_session_graph(40, 2, seed=0)))
        # the oneshot benchmark's graph size: loading it is what GC sees
        big = write("big.json", dumps_graph(user_session_graph(4000, 2, seed=1), indent=None))
        runs = {
            "lint figure_1": ["lint", write("figure_1.graphql", CORPUS["figure_1"].sdl)],
            "validate user_session_edge_props": ["validate", schema, graph],
            "validate, 20k elements": ["validate", schema, big],
            "sat library": ["sat", write("library.graphql", CORPUS["library"].sdl)],
            "sat hub_chain_schema(8, 6)": [
                "sat",
                write("hub.graphql", print_schema(hub_chain_schema(depth=8, leaves=6))),
            ],
        }
        print(
            f"{'subcommand':<34} | {'modules':>7} | {'lines':>6} | "
            f"{'all modules':>11} | {'@dataclass':>10} | dataclasses/futures | "
            "gc collections (gen 0/1/2)"
        )
        for label, argv in runs.items():
            modules, lines, total, decorated, unused, collections = closure(argv)
            loaded = "/".join("yes" if flag else "no" for flag in unused)
            print(
                f"{label:<34} | {modules:>7} | {lines:>6} | {total:>11} | "
                f"{decorated:>10} | {loaded:<19} | " + "/".join(map(str, collections))
            )


if __name__ == "__main__":
    main()
