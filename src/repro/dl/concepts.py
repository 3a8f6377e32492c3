"""ALCQI concept and role syntax.

The description logic of the Theorem-3 proof: ALC (⊤, ⊥, concept names,
¬C, C ⊓ D, C ⊔ D, ∃R.C, ∀R.C) plus qualified number restrictions (≥n R.C,
≤n R.C) and inverse roles (R⁻ usable wherever a role is expected).

All nodes are immutable records (:mod:`repro.record`); n-ary ⊓/⊔ keep
their operands as tuples.  Use :func:`repro.dl.nnf.nnf` to push negations
inward before handing concepts to the tableau.
"""

from __future__ import annotations

from typing import Iterable

from ..record import Record


class Role(Record):
    """A role name or its inverse."""

    name: str
    inverse: bool = False

    def __init__(self, name: str, inverse: bool = False) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "inverse", inverse)

    def inv(self) -> "Role":
        """The inverse role: inv(R) = R⁻ and inv(R⁻) = R."""
        return Role(self.name, not self.inverse)

    def __str__(self) -> str:
        return f"{self.name}⁻" if self.inverse else self.name


class Concept(Record):
    """Base class for ALCQI concepts."""

    __slots__ = ()

    def __and__(self, other: "Concept") -> "Concept":
        return And((self, other))

    def __or__(self, other: "Concept") -> "Concept":
        return Or((self, other))

    def __invert__(self) -> "Concept":
        return Not(self)


class Top(Concept):
    def __str__(self) -> str:
        return "⊤"


class Bottom(Concept):
    def __str__(self) -> str:
        return "⊥"


class Name(Concept):
    """An atomic concept name."""

    name: str

    def __str__(self) -> str:
        return self.name


class Not(Concept):
    body: Concept

    def __str__(self) -> str:
        return f"¬{self.body}"


class And(Concept):
    parts: tuple[Concept, ...]

    def __str__(self) -> str:
        return "(" + " ⊓ ".join(str(part) for part in self.parts) + ")"


class Or(Concept):
    parts: tuple[Concept, ...]

    def __str__(self) -> str:
        return "(" + " ⊔ ".join(str(part) for part in self.parts) + ")"


class Exists(Concept):
    """∃R.C -- equivalent to ≥1 R.C."""

    role: Role
    body: Concept

    def __str__(self) -> str:
        return f"∃{self.role}.{self.body}"


class Forall(Concept):
    """∀R.C -- equivalent to ≤0 R.¬C."""

    role: Role
    body: Concept

    def __str__(self) -> str:
        return f"∀{self.role}.{self.body}"


class AtLeast(Concept):
    """≥n R.C"""

    n: int
    role: Role
    body: Concept

    def __str__(self) -> str:
        return f"≥{self.n} {self.role}.{self.body}"


class AtMost(Concept):
    """≤n R.C"""

    n: int
    role: Role
    body: Concept

    def __str__(self) -> str:
        return f"≤{self.n} {self.role}.{self.body}"


def conj(parts: Iterable[Concept]) -> Concept:
    """n-ary ⊓ with flattening; the empty conjunction is ⊤."""
    flat: list[Concept] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.parts)
        elif isinstance(part, Top):
            continue
        else:
            flat.append(part)
    if not flat:
        return Top()
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(parts: Iterable[Concept]) -> Concept:
    """n-ary ⊔ with flattening; the empty disjunction is ⊥."""
    flat: list[Concept] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.parts)
        elif isinstance(part, Bottom):
            continue
        else:
            flat.append(part)
    if not flat:
        return Bottom()
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))
