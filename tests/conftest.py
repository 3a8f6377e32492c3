"""Shared fixtures and helpers for the test suite.

Also provides a per-test wall-clock ceiling: with ``pytest-timeout``
installed (CI) its ``--timeout`` option governs; without it, a SIGALRM
fallback aborts any test running longer than ``PGSCHEMA_TEST_TIMEOUT``
seconds (default 120) so a hung worker or deadlocked pool can never wedge
the suite.  The fallback is a no-op off the main thread and on platforms
without SIGALRM.
"""

import importlib.util
import os
import signal
import threading

import pytest

from repro.schema import parse_schema
from repro.validation import validate
from repro.workloads.paper_schemas import CORPUS

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None
_FALLBACK_TIMEOUT = float(os.environ.get("PGSCHEMA_TEST_TIMEOUT", "120"))


@pytest.fixture(autouse=_HAVE_PYTEST_TIMEOUT is False)
def _sigalrm_test_timeout(request):
    """SIGALRM-based per-test ceiling when pytest-timeout is unavailable."""
    if (
        _FALLBACK_TIMEOUT <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded PGSCHEMA_TEST_TIMEOUT={_FALLBACK_TIMEOUT:g}s: "
            f"{request.node.nodeid}"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, _FALLBACK_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def process_rung(monkeypatch):
    """Put every fan-out that asks for ``jobs > 1`` on the process rung.

    Fakes the two observations of the one rung policy,
    :func:`repro.resilience.ladder.choose_rung`: a multi-core host
    (``usable_cores``) and a graph that passes the validation size test
    (``ParallelValidator.SMALL_GRAPH_THRESHOLD``).  A sat sweep still needs
    at least ``jobs`` open units, its own size test."""
    from repro.resilience import ladder
    from repro.validation import ParallelValidator

    monkeypatch.setattr(ladder, "usable_cores", lambda: 8)
    monkeypatch.setattr(ParallelValidator, "SMALL_GRAPH_THRESHOLD", 0)


def rules_fired(schema, graph, mode="strong", engine="indexed"):
    """The set of rule ids violated by the graph."""
    report = validate(schema, graph, mode=mode, engine=engine)
    return {violation.rule for violation in report.violations}


@pytest.fixture(scope="session")
def user_session_schema():
    return parse_schema(CORPUS["user_session_edge_props"].sdl)


@pytest.fixture(scope="session")
def library_schema():
    return parse_schema(CORPUS["library"].sdl)


@pytest.fixture(scope="session")
def food_union_schema():
    return parse_schema(CORPUS["food_union"].sdl)


@pytest.fixture(scope="session")
def food_interface_schema():
    return parse_schema(CORPUS["food_interface"].sdl)
