"""Scalar and enum value domains, and the ``values_W`` membership test.

Section 4.1 of the paper assumes a function ``values : Scalars → 2^Vals``
assigning a value set to each scalar type (with enum types folded into
``Scalars``), and extends it to wrapped types via ``values_W``:

1. ``values_W(t) = values(t) ∪ {null}`` for ``t ∈ Scalars``;
2. ``values_W(t!) = values_W(t) \\ {null}``;
3. ``values_W([t]) = L(values_W(t)) ∪ {null}``.

The sets are infinite, so :class:`ScalarRegistry` realises ``values`` as a
membership *predicate* per scalar type.  ``null`` is represented as Python
``None`` -- which in a Property Graph only ever arises as the *absence* of a
property, since ``σ`` is partial and ``None`` is not a property value.

Built-in scalar domains follow the GraphQL June 2018 spec:

* ``Int`` -- signed 32-bit integers (§3.5.1);
* ``Float`` -- finite IEEE-754 doubles, ints accepted by coercion (§3.5.2);
* ``String`` -- strings (§3.5.3);
* ``Boolean`` -- ``True``/``False`` (§3.5.4);
* ``ID`` -- strings or ints (§3.5.5: serialised as a string, but integer
  input is accepted).

Custom scalars (like the paper's ``scalar Time``) accept any atomic value by
default; a caller may register a narrower predicate.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Iterable, Mapping

from ..errors import SchemaError
from ..pg.values import is_atomic_value
from .typerefs import TypeRef

INT_MIN = -(2**31)
INT_MAX = 2**31 - 1

ScalarPredicate = Callable[[object], bool]

# Compiled-checker observability: every registry memoizes the closures
# :meth:`ScalarRegistry.checker_w` compiles (TypeRef is frozen/hashable, and
# predicates for a given name can never be redefined, so a memoized checker
# stays valid for the registry's lifetime).  The counters aggregate across
# registries; the WeakSet lets :func:`scalar_checker_info` report live
# occupancy without keeping registries alive.
_checker_lock = threading.Lock()
_checker_hits = 0
_checker_misses = 0
_registries: "weakref.WeakSet[ScalarRegistry]" = weakref.WeakSet()


def scalar_checker_info() -> dict[str, int]:
    """Aggregate compiled-checker statistics across live registries.

    ``hits``/``misses`` count :meth:`ScalarRegistry.checker_w` memo lookups
    (misses == closures compiled); ``size`` is the number of compiled
    checkers currently held, ``registries`` how many live registries hold
    them.  Reported by ``pgschema stats --json`` and the service's
    ``/v1/stats`` endpoint.
    """
    with _checker_lock:
        live = list(_registries)
        return {
            "hits": _checker_hits,
            "misses": _checker_misses,
            "size": sum(len(registry._checkers) for registry in live),
            "registries": len(live),
        }


def scalar_checker_clear() -> None:
    """Reset the aggregate counters and drop memoized checkers."""
    global _checker_hits, _checker_misses
    with _checker_lock:
        for registry in list(_registries):
            registry._checkers.clear()
        _checker_hits = 0
        _checker_misses = 0


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and INT_MIN <= value <= INT_MAX


def _is_float(value: object) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, float):
        return value == value and value not in (float("inf"), float("-inf"))
    return isinstance(value, int)


def _is_string(value: object) -> bool:
    return isinstance(value, str)


def _is_boolean(value: object) -> bool:
    return isinstance(value, bool)


def _is_id(value: object) -> bool:
    return isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool))


#: The five built-in scalar types of §3.5 and their membership predicates.
BUILTIN_SCALARS: Mapping[str, ScalarPredicate] = {
    "Int": _is_int,
    "Float": _is_float,
    "String": _is_string,
    "Boolean": _is_boolean,
    "ID": _is_id,
}


class ScalarRegistry:
    """The (finite) set ``S ⊂ Scalars`` of one schema, with value domains.

    Holds the built-in scalars, user-declared custom scalars, and enum types
    (which the paper folds into ``Scalars``); exposes membership in
    ``values(t)`` and in ``values_W(t)`` for wrapped ``t``.
    """

    def __init__(self) -> None:
        self._predicates: dict[str, ScalarPredicate] = dict(BUILTIN_SCALARS)
        self._enums: dict[str, frozenset[str]] = {}
        self._checkers: dict[TypeRef, ScalarPredicate] = {}
        _registries.add(self)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register_scalar(
        self, name: str, predicate: ScalarPredicate | None = None
    ) -> None:
        """Register a custom scalar; default domain is every atomic value."""
        if name in self._predicates or name in self._enums:
            raise SchemaError(f"scalar type already defined: {name}")
        self._predicates[name] = predicate or is_atomic_value

    def register_enum(self, name: str, values: Iterable[str]) -> None:
        """Register an enum type; its value set is the given names."""
        if name in self._predicates or name in self._enums:
            raise SchemaError(f"scalar/enum type already defined: {name}")
        value_set = frozenset(values)
        if not value_set:
            raise SchemaError(f"enum type {name} has no values")
        self._enums[name] = value_set

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def is_scalar(self, name: str) -> bool:
        """True when *name* ∈ S (including enums, per the paper's convention)."""
        return name in self._predicates or name in self._enums

    def is_enum(self, name: str) -> bool:
        return name in self._enums

    def is_builtin(self, name: str) -> bool:
        return name in BUILTIN_SCALARS

    def enum_values(self, name: str) -> frozenset[str]:
        try:
            return self._enums[name]
        except KeyError:
            raise SchemaError(f"not an enum type: {name}") from None

    @property
    def names(self) -> frozenset[str]:
        return frozenset(self._predicates) | frozenset(self._enums)

    @property
    def custom_names(self) -> frozenset[str]:
        return frozenset(
            name for name in self._predicates if name not in BUILTIN_SCALARS
        ) | frozenset(self._enums)

    # ------------------------------------------------------------------ #
    # values and values_W
    # ------------------------------------------------------------------ #

    def in_values(self, value: object, scalar_name: str) -> bool:
        """Membership in ``values(scalar_name)`` (never contains null)."""
        if value is None:
            return False
        if scalar_name in self._enums:
            return isinstance(value, str) and value in self._enums[scalar_name]
        predicate = self._predicates.get(scalar_name)
        if predicate is None:
            raise SchemaError(f"not a scalar type: {scalar_name}")
        return predicate(value)

    def in_values_w(self, value: object, type_ref: TypeRef) -> bool:
        """Membership in ``values_W(type_ref)``.

        ``None`` plays the role of the special value ``null``.  Array values
        are Python tuples; their items are checked against the wrapped type
        (``None`` items are legal exactly when the element type is nullable,
        although Property Graph arrays never actually contain them).
        """
        if not self.is_scalar(type_ref.base):
            raise SchemaError(f"values_W is defined on scalar types only, got {type_ref}")
        if value is None:
            return not type_ref.non_null
        if type_ref.is_list:
            if not isinstance(value, tuple):
                return False
            if type_ref.inner_non_null:
                return all(self.in_values(item, type_ref.base) for item in value)
            return all(
                item is None or self.in_values(item, type_ref.base) for item in value
            )
        return self.in_values(value, type_ref.base)

    def checker_w(self, type_ref: TypeRef) -> ScalarPredicate:
        """A compiled membership predicate for ``values_W(type_ref)``.

        Returns a closure equivalent to ``lambda v: in_values_w(v, type_ref)``
        with the wrapping shape resolved once instead of per value -- the
        form the compiled validation plans feed to their hot loops.  Compiled
        closures are memoized per registry (safe under concurrent access:
        dict reads/writes are atomic, a lost race costs one redundant
        compile of an interchangeable closure, never a wrong predicate).
        """
        global _checker_hits, _checker_misses
        memoized = self._checkers.get(type_ref)
        if memoized is not None:
            with _checker_lock:
                _checker_hits += 1
            return memoized
        with _checker_lock:
            _checker_misses += 1
        base = type_ref.base
        if base in self._enums:
            allowed = self._enums[base]

            def atom(value: object, _allowed=allowed) -> bool:
                return isinstance(value, str) and value in _allowed

        else:
            atom = self._predicates.get(base)  # type: ignore[assignment]
            if atom is None:
                raise SchemaError(
                    f"values_W is defined on scalar types only, got {type_ref}"
                )
        nullable = not type_ref.non_null
        if type_ref.is_list:
            if type_ref.inner_non_null:

                def check(value: object) -> bool:
                    if value is None:
                        return nullable
                    return isinstance(value, tuple) and all(
                        atom(item) for item in value
                    )

            else:

                def check(value: object) -> bool:
                    if value is None:
                        return nullable
                    return isinstance(value, tuple) and all(
                        item is None or atom(item) for item in value
                    )

        else:

            def check(value: object) -> bool:
                if value is None:
                    return nullable
                return atom(value)

        self._checkers[type_ref] = check
        return check

    def copy(self) -> "ScalarRegistry":
        clone = ScalarRegistry()
        clone._predicates = dict(self._predicates)
        clone._enums = dict(self._enums)
        return clone
