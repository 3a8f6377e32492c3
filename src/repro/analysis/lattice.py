"""The abstract domain of the dataflow analyzer: cardinality intervals.

An :class:`Interval` ``[lo, hi]`` abstracts a set of admissible counts --
how many instances of a type a model may contain, or how many incoming
edges a node may carry.  ``hi is None`` means unbounded (``[lo, ∞)``); an
interval whose bounds cross (``lo > hi``) is *empty* and denotes an
unsatisfiable constraint set.  ``meet`` (intersection) combines constraints
soundly: the meet of everything a schema demands of a node is empty exactly
when no node can satisfy all demands at once.

The lattice is the usual interval lattice over ℕ ∪ {∞}: ``TOP = [0, ∞)``
(no information), meet is bound-wise ``max``/``min``, join is the convex
hull.  All operations are total and the domain has no infinite descending
chains an analysis could diverge on (bounds only tighten toward a crossing).
"""

from __future__ import annotations

from ..record import Record


class Interval(Record):
    """A cardinality interval ``[lo, hi]`` with ``hi=None`` meaning ``∞``."""

    lo: int = 0
    hi: int | None = None

    @property
    def is_empty(self) -> bool:
        """True when the bounds cross: no count satisfies the constraints."""
        return self.hi is not None and self.lo > self.hi

    def meet(self, other: "Interval") -> "Interval":
        """Intersection: the counts admitted by *both* constraint sets."""
        lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return Interval(lo, hi)

    def join(self, other: "Interval") -> "Interval":
        """Convex hull: the tightest interval covering both operands."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def contains(self, count: int) -> bool:
        return count >= self.lo and (self.hi is None or count <= self.hi)

    def __str__(self) -> str:
        if self.is_empty:
            return "∅"
        upper = "∞)" if self.hi is None else f"{self.hi}]"
        return f"[{self.lo}, {upper}"


#: No information: any count is possible.
TOP = Interval(0, None)

#: The canonical empty interval (an unsatisfiable constraint set).
EMPTY = Interval(1, 0)

#: Exactly zero instances: a provably dead type.
ZERO = Interval(0, 0)

#: One or more: a type proven populatable (never constrained below 1).
ONE_OR_MORE = Interval(1, None)


def at_least(lower: int) -> Interval:
    """The lower-bound constraint ``[lower, ∞)``."""
    return Interval(lower, None)


def at_most(upper: int) -> Interval:
    """The upper-bound constraint ``[0, upper]``."""
    return Interval(0, upper)


def exactly(count: int) -> Interval:
    return Interval(count, count)
