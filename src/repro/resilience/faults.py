"""Deterministic fault injection at named sites (chaos testing).

Production code calls :func:`fault_point` at a handful of *named sites*
(worker entry, tableau expansion, graph loading, ...).  When no fault plan
is installed the call is a single global load and a ``None`` check -- the
zero-overhead contract that ``bench_e12`` asserts.  When a plan is active,
matching rules fire deterministically: no randomness, no wall-clock
dependence, so every chaos test reproduces exactly.

A plan is a ``;``-separated list of rules::

    PGSCHEMA_FAULTS="crash@parallel.worker:shard=1,attempt=0,mode=exit;delay@dl.tableau:seconds=0.05,times=1"

Each rule is ``KIND@SITE[:key=value,...]`` where KIND is one of

* ``crash`` -- die at the site.  ``mode=exit`` hard-kills the process via
  ``os._exit`` *when running inside a registered pool worker* (simulating a
  segfault/OOM-kill, which surfaces as ``BrokenProcessPool`` in the parent);
  anywhere else -- and with the default ``mode=raise`` -- it raises
  :class:`InjectedCrashError` instead, so a stray plan can never kill the
  main process.
* ``delay`` -- sleep for ``seconds=...`` (simulating a stuck worker or a
  slow disk; pairs with deadline budgets and shard timeouts).
* ``spike`` -- transiently allocate ``bytes=...`` (simulating an
  allocation spike; pairs with memory-estimate budgets).

Reserved parameter keys: ``seconds``, ``bytes``, ``times`` (fire at most N
times per process), ``mode``.  Every *other* ``key=value`` pair is a context
matcher compared (as strings) against the keyword arguments the site passes
to :func:`fault_point` -- unmatched context means the rule does not fire.
Matching on ``attempt=0`` is the recommended way to make a fault fire on the
first try and vanish on retry: it is deterministic across process
boundaries, where per-process ``times`` counters reset.

The environment variable is parsed once, lazily at first use, so a
malformed spec raises a catchable :class:`~repro.errors.FaultConfigError`
(the CLI reports it as ``error[E_FAULTS]``) instead of crashing at import.
Tests install plans programmatically (:func:`install` / :func:`uninstall`,
which restores the environment-derived plan).  The executor ladder
re-installs the active spec inside pool workers, so plans survive any
multiprocessing start method.
"""

from __future__ import annotations

import os
import time
from .. import obs
from ..errors import FaultConfigError
from ..record import Record

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "InjectedCrashError",
    "active_plan",
    "active_spec",
    "enabled",
    "fault_point",
    "install",
    "load_env_plan",
    "mark_worker_process",
    "parse_spec",
    "uninstall",
]

ENV_VAR = "PGSCHEMA_FAULTS"

_KINDS = ("crash", "delay", "spike")
_PARAM_KEYS = frozenset({"seconds", "bytes", "times", "mode"})


class InjectedCrashError(RuntimeError):
    """An injected worker crash.  Deliberately *not* a ReproError: it
    simulates arbitrary worker death, which recovery must survive without
    recognising it."""


class FaultRule(Record, frozen=False):
    """One fault: fire ``kind`` at ``site`` when the context matches."""

    kind: str
    site: str
    match: dict[str, str] = {}
    seconds: float = 0.0
    bytes: int = 0
    times: int | None = None
    mode: str = "raise"
    fired: int = 0

    def matches(self, context: dict) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        for key, expected in self.match.items():
            if key not in context or str(context[key]) != expected:
                return False
        return True


class FaultPlan:
    """A parsed set of fault rules plus the spec they came from."""

    def __init__(self, rules: list[FaultRule], spec: str) -> None:
        self.rules = rules
        self.spec = spec
        self._sites = frozenset(rule.site for rule in rules)

    def apply(self, site: str, context: dict) -> None:
        if site not in self._sites:
            return
        for rule in self.rules:
            if rule.site == site and rule.matches(context):
                rule.fired += 1
                # record before triggering, so raise-mode crashes still
                # leave their mark on the trace (an exit-mode worker kill
                # takes its buffered events with it -- the parent-side
                # ladder.recovery event is the surviving evidence)
                obs.count(f"faults.fired.{rule.kind}")
                obs.instant(f"fault.{rule.kind}", **{"site": site, **context})
                _trigger(rule, site, context)

    def fired_count(self, site: str | None = None) -> int:
        """Total firings (for tests asserting a fault actually tripped)."""
        return sum(
            rule.fired for rule in self.rules if site is None or rule.site == site
        )


def _trigger(rule: FaultRule, site: str, context: dict) -> None:
    if rule.kind == "delay":
        time.sleep(rule.seconds)
    elif rule.kind == "spike":
        # allocate and immediately release: enough to register on a
        # cooperative memory budget or an RSS watcher, without leaking
        ballast = bytearray(rule.bytes)
        del ballast
    elif rule.kind == "crash":
        if rule.mode == "exit" and _in_worker_process:
            os._exit(70)
        raise InjectedCrashError(
            f"injected crash at {site} (context {context!r})"
        )


# --------------------------------------------------------------------------- #
# spec parsing
# --------------------------------------------------------------------------- #


def parse_spec(spec: str) -> FaultPlan:
    """Parse a ``PGSCHEMA_FAULTS`` specification string."""
    rules: list[FaultRule] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, tail = chunk.partition(":")
        kind, at, site = head.partition("@")
        kind = kind.strip()
        site = site.strip()
        if not at or kind not in _KINDS or not site:
            raise FaultConfigError(
                f"bad fault rule {chunk!r}: expected KIND@SITE[:k=v,...] "
                f"with KIND in {_KINDS}"
            )
        rule = FaultRule(kind=kind, site=site)
        for pair in filter(None, (p.strip() for p in tail.split(","))):
            key, eq, value = pair.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq or not key:
                raise FaultConfigError(f"bad fault parameter {pair!r} in {chunk!r}")
            try:
                if key == "seconds":
                    rule.seconds = float(value)
                elif key == "bytes":
                    rule.bytes = int(value)
                elif key == "times":
                    rule.times = int(value)
                elif key == "mode":
                    if value not in ("raise", "exit"):
                        raise FaultConfigError(
                            f"bad crash mode {value!r} (expected raise|exit)"
                        )
                    rule.mode = value
                else:
                    rule.match[key] = value
            except ValueError as bad:
                raise FaultConfigError(
                    f"bad fault parameter {pair!r} in {chunk!r}: {bad}"
                ) from None
        rules.append(rule)
    return FaultPlan(rules, spec)


# --------------------------------------------------------------------------- #
# module state: the active plan
# --------------------------------------------------------------------------- #

_in_worker_process = False

#: Sentinel: the environment variable has not been parsed yet.  Parsing is
#: deferred so a malformed ``PGSCHEMA_FAULTS`` surfaces as a catchable
#: :class:`~repro.errors.FaultConfigError` at first use (the CLI renders it
#: as ``error[E_FAULTS]``) instead of a raw traceback at import time.
_UNSET = object()


def _plan_from_env() -> FaultPlan | None:
    spec = os.environ.get(ENV_VAR)
    return parse_spec(spec) if spec else None


_env_plan: "FaultPlan | None | object" = _UNSET
_plan: "FaultPlan | None | object" = _UNSET


def _current_plan() -> FaultPlan | None:
    """The active plan, parsing the environment spec on first use."""
    global _env_plan, _plan
    if _plan is _UNSET:
        if _env_plan is _UNSET:
            _env_plan = _plan_from_env()
        _plan = _env_plan
    return _plan  # type: ignore[return-value]


def load_env_plan() -> FaultPlan | None:
    """Force-parse ``PGSCHEMA_FAULTS`` now (raising FaultConfigError on a
    bad spec).  The CLI calls this inside its error-handled path so operator
    typos fail fast and uniformly."""
    return _current_plan()


def install(spec: "str | FaultPlan | None") -> FaultPlan | None:
    """Install a fault plan (overriding any environment-derived one).

    Returns the installed plan so tests can inspect ``fired_count``.
    Passing None disables injection entirely until :func:`uninstall`.
    """
    global _plan
    if isinstance(spec, str):
        spec = parse_spec(spec)
    _plan = spec
    return spec


def uninstall() -> None:
    """Remove a programmatically installed plan, restoring the env-derived one."""
    global _env_plan, _plan
    if _env_plan is _UNSET:
        _env_plan = _plan_from_env()
    _plan = _env_plan


def enabled() -> bool:
    """Is any fault plan currently active?"""
    return _current_plan() is not None


def active_spec() -> str | None:
    """The active plan's spec string (for shipping to pool workers)."""
    plan = _current_plan()
    return plan.spec if plan is not None else None


def active_plan() -> FaultPlan | None:
    """The active plan object, if any."""
    return _current_plan()


def mark_worker_process() -> None:
    """Register the current process as a pool worker.

    Only registered workers honour ``crash ... mode=exit`` with a hard
    ``os._exit``; everywhere else the crash degrades to a raised
    :class:`InjectedCrashError`, so no plan can kill the main process.
    """
    global _in_worker_process
    _in_worker_process = True


def fault_point(site: str, **context) -> None:
    """Give the active fault plan (if any) a chance to fire at *site*.

    The disabled path is one global load and a None check; sites may be
    called from hot loops.  (The first-ever call may additionally parse
    ``PGSCHEMA_FAULTS``; after that ``_plan`` is always resolved.)
    """
    plan = _plan
    if plan is None:
        return
    if plan is _UNSET:
        plan = _current_plan()
        if plan is None:
            return
    plan.apply(site, context)
