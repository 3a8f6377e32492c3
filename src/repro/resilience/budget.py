"""Cooperative execution budgets: deadlines, work counts, memory estimates.

A :class:`Budget` bounds a decision procedure along up to four dimensions:

* **deadline** -- wall-clock seconds from the budget's start;
* **nodes** -- elements materialised or visited (tableau completion-tree
  nodes, graph elements scanned by a validator);
* **expansions** -- rule applications / search steps (tableau saturation
  iterations, bounded-search label assignments, DPLL decisions);
* **memory** -- a crude, cooperative *estimate* of bytes allocated by the
  search (completion-tree labels, cloned branch states).  This is not an
  allocator hook; it exists so runaway branching trips a limit long before
  the process OOMs.

Budgets are *cooperative*: the instrumented engines call :meth:`charge` /
:meth:`check_deadline` at their own cadence and a trip raises
:class:`~repro.errors.BudgetExhaustedError` carrying a structured
:class:`~repro.errors.BudgetReason`.  Facades catch that error and turn it
into a typed UNKNOWN/partial verdict when configured with
``on_budget="unknown"``.

A budget instance is single-use state (its counters only grow); use
:meth:`renew` to stamp out a fresh copy with the same limits -- the
satisfiability checker does this per ``check_type`` call so one slow type
cannot starve the next.  Budgets are picklable and fork-safe: the deadline
is an absolute ``time.monotonic`` instant, comparable across processes of
one host.
"""

from __future__ import annotations

import time
from typing import Any

from ..errors import BudgetExhaustedError, BudgetReason

__all__ = ["Budget", "UNLIMITED"]


class Budget:
    """A bundle of cooperative execution limits.

    Args:
        deadline: Wall-clock seconds allowed, measured from construction
            (or the last :meth:`renew`).  ``None`` = unlimited.
        max_nodes: Ceiling on charged node/element counts.
        max_expansions: Ceiling on charged search-step counts.
        max_memory: Ceiling on the cooperative byte estimate.
    """

    __slots__ = (
        "deadline",
        "max_nodes",
        "max_expansions",
        "max_memory",
        "started_at",
        "nodes",
        "expansions",
        "memory",
    )

    def __init__(
        self,
        deadline: float | None = None,
        max_nodes: int | None = None,
        max_expansions: int | None = None,
        max_memory: int | None = None,
    ) -> None:
        self.deadline = deadline
        self.max_nodes = max_nodes
        self.max_expansions = max_expansions
        self.max_memory = max_memory
        self.started_at = time.monotonic()
        self.nodes = 0
        self.expansions = 0
        self.memory = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def unlimited(self) -> bool:
        """True when no dimension is bounded (every check is a no-op)."""
        return (
            self.deadline is None
            and self.max_nodes is None
            and self.max_expansions is None
            and self.max_memory is None
        )

    def elapsed(self) -> float:
        """Wall-clock seconds since the budget started."""
        return time.monotonic() - self.started_at

    def remaining_seconds(self) -> float | None:
        """Seconds left before the deadline; None when no deadline is set.

        Never negative: an expired deadline reports 0.0 (callers use this
        as a ``future.result`` timeout, where a negative value would raise
        ``ValueError`` instead of timing out immediately).
        """
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.elapsed())

    def renew(self) -> "Budget":
        """A fresh budget with the same limits and zeroed consumption."""
        return Budget(
            deadline=self.deadline,
            max_nodes=self.max_nodes,
            max_expansions=self.max_expansions,
            max_memory=self.max_memory,
        )

    # ------------------------------------------------------------------ #
    # charging
    # ------------------------------------------------------------------ #

    def check_deadline(self, site: str = "") -> None:
        """Raise when the wall-clock deadline has passed."""
        if self.deadline is not None:
            used = self.elapsed()
            if used > self.deadline:
                raise BudgetExhaustedError(
                    BudgetReason("deadline", self.deadline, used, site)
                )

    def charge_nodes(self, count: int = 1, site: str = "") -> None:
        """Record *count* created/visited elements; raise past ``max_nodes``."""
        self.nodes += count
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExhaustedError(
                BudgetReason("nodes", self.max_nodes, self.nodes, site)
            )

    def charge_expansions(self, count: int = 1, site: str = "") -> None:
        """Record *count* search steps; raise past ``max_expansions``."""
        self.expansions += count
        if self.max_expansions is not None and self.expansions > self.max_expansions:
            raise BudgetExhaustedError(
                BudgetReason("expansions", self.max_expansions, self.expansions, site)
            )

    def charge_memory(self, estimate: int, site: str = "") -> None:
        """Record an *estimate* of bytes allocated; raise past ``max_memory``."""
        self.memory += estimate
        if self.max_memory is not None and self.memory > self.max_memory:
            raise BudgetExhaustedError(
                BudgetReason("memory", self.max_memory, self.memory, site)
            )

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        limits = ", ".join(
            f"{name}={value!r}"
            for name, value in (
                ("deadline", self.deadline),
                ("max_nodes", self.max_nodes),
                ("max_expansions", self.max_expansions),
                ("max_memory", self.max_memory),
            )
            if value is not None
        )
        return f"Budget({limits or 'unlimited'})"

    def __getstate__(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)


#: A shared no-limit budget for call sites that want to avoid None checks.
UNLIMITED = Budget()
