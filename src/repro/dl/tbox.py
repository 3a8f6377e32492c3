"""TBoxes: finite sets of general concept inclusions (GCIs).

A TBox is a list of axioms ``C ⊑ D``; equivalences ``C ≡ D`` are sugar for
two inclusions.  For the tableau the TBox is *internalised*: every axiom
``C ⊑ D`` contributes the universal constraint ``nnf(¬C ⊔ D)``, which is
added to the label of every node of the completion graph.
"""

from __future__ import annotations

from ..record import Record
from .concepts import Concept


class Axiom(Record):
    """A general concept inclusion C ⊑ D."""

    sub: Concept
    sup: Concept

    def __str__(self) -> str:
        return f"{self.sub} ⊑ {self.sup}"


class TBox(Record, frozen=False):
    """A terminology: a finite list of GCIs plus disjointness groups.

    A disjointness group is a set of concept *names* declared mutually
    disjoint.  Semantically it abbreviates the O(k²) axioms
    ``A ⊓ B ⊑ ⊥``; the tableau checks it natively (a clash as soon as a
    node's label contains two names of one group), which keeps the many
    pairwise-disjoint object types of a schema translation from exploding
    the axiom set.
    """

    axioms: list[Axiom] = []
    disjoint_groups: list[frozenset[str]] = []
    definitions: dict[str, Concept] = {}

    def include(self, sub: Concept, sup: Concept) -> None:
        """Add C ⊑ D."""
        self.axioms.append(Axiom(sub, sup))

    def declare_disjoint(self, names: "list[str] | tuple[str, ...]") -> None:
        """Declare the named concepts pairwise disjoint."""
        if len(names) >= 2:
            self.disjoint_groups.append(frozenset(names))

    def define(self, name: str, concept: Concept) -> None:
        """Add the *definition* ``name ≡ concept``.

        Definitions must be acyclic and each name defined once; the tableau
        then applies them by lazy unfolding (adding the definiens only to
        nodes that actually carry the name or its negation) instead of
        internalising two global disjunction axioms -- semantically
        identical, massively cheaper on schemas with many union/interface
        types.
        """
        if name in self.definitions:
            raise ValueError(f"concept {name} defined twice")
        self.definitions[name] = concept

    def __len__(self) -> int:
        return len(self.axioms)

    def __str__(self) -> str:
        return "\n".join(str(axiom) for axiom in self.axioms)
