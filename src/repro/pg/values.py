"""Property values for Property Graphs.

The paper (Section 2.1) assumes an infinite set ``Values`` of property values
and, for the GraphQL side, a set ``Vals`` of scalar values with
``Vals ⊆ Values``.  Property values in a Property Graph are either atomic
(booleans, integers, floats, strings) or arrays of atomic values [7].

This module fixes the concrete Python representation used throughout the
library:

* atomic values are ``bool``, ``int``, ``float`` or ``str``;
* array values are ``tuple`` objects whose items are atomic values
  (input ``list`` objects are normalised to tuples so that values stay
  hashable -- hashability is what makes the key-constraint check DS7 a
  linear-time grouping operation);
* ``None`` is *not* a value: the paper's special ``null`` is "not in Vals",
  and a Property Graph's ``σ`` is a partial function, so absence of a
  property models null.
"""

from __future__ import annotations

from ..errors import GraphError

#: Python types accepted as atomic property values.
ATOMIC_TYPES = (bool, int, float, str)

PropertyValue = bool | int | float | str | tuple


def is_atomic_value(value: object) -> bool:
    """Return True if *value* is an atomic property value."""
    return isinstance(value, ATOMIC_TYPES)


def is_array_value(value: object) -> bool:
    """Return True if *value* is an array of atomic property values."""
    return isinstance(value, tuple) and all(is_atomic_value(item) for item in value)


def is_property_value(value: object) -> bool:
    """Return True if *value* is a legal property value (atomic or array)."""
    return is_atomic_value(value) or is_array_value(value)


def normalize_value(value: object) -> PropertyValue:
    """Normalise *value* into the canonical representation.

    Lists and other non-string iterables of atomic values become tuples.
    Raises :class:`GraphError` for anything that is not a legal property
    value (e.g. ``None``, dicts, nested lists).
    """
    if is_atomic_value(value):
        return value  # type: ignore[return-value]
    if isinstance(value, (list, tuple)):
        items = tuple(value)
        if not all(is_atomic_value(item) for item in items):
            raise GraphError(
                f"array property values must contain only atomic values, got {value!r}"
            )
        return items
    raise GraphError(f"not a legal property value: {value!r}")


def value_signature(value: PropertyValue) -> tuple[object, ...]:
    """A hashable, type-strict signature of a property value.

    Two values have the same signature iff they are the same value in the
    type-strict sense this library uses throughout: Python's ``==`` would
    equate ``True``/``1``/``1.0``, but GraphQL's Boolean, Int and Float are
    disjoint scalar domains with distinct lexical forms, so signatures tag
    every atom with its runtime type.  Signatures are what the key check
    (DS7) groups by and what the first-order encoding of Theorem 1 uses as
    the ``value`` sort.
    """
    if isinstance(value, tuple):
        return ("array",) + tuple(value_signature(item) for item in value)
    return (type(value).__name__, value)


def values_equal(left: PropertyValue, right: PropertyValue) -> bool:
    """Type-strict equality of property values (see :func:`value_signature`)."""
    return value_signature(left) == value_signature(right)
