"""A tableau decision procedure for ALCQI concept satisfiability w.r.t. a TBox.

This is the machinery behind Theorem 3: the paper translates (a restriction
of) Property Graph schemas into ALCQI and appeals to the known decidability
of concept satisfiability.  The algorithm here is the standard
completion-tree tableau for a DL with inverse roles and qualified number
restrictions (Horrocks & Sattler style):

* the TBox is internalised -- every node of the completion tree carries
  ``nnf(¬C ⊔ D)`` for every axiom ``C ⊑ D``; the TBox's disjointness
  groups are checked natively instead;
* deterministic rules: ⊓-rule, ∀-rule (propagating through inverse roles),
  and boolean constraint propagation on disjunctions (forcing the last
  open disjunct -- a pure optimisation of the ⊔-rule);
* nondeterministic rules (explored by depth-first search over an explicit
  stack): ⊔-rule, the choose-rule for ``≤n R.C``, and the ≤-rule that
  merges two not-provably-distinct neighbours when a number restriction is
  exceeded;
* generating rules: ∃-rule and ≥-rule, the latter creating pairwise-distinct
  fresh successors; both are subject to **pairwise blocking**, which is what
  guarantees termination in the presence of inverse roles and number
  restrictions;
* clash conditions: ``⊥`` in a label, ``{A, ¬A}`` in a label, two concepts
  of one disjointness group in a label, and an exceeded ``≤n R.C`` whose
  witnesses are all pairwise distinct.

Internally every concept is *interned* to a small integer id
(:class:`_ConceptTable`), so node labels are integer sets and all the hot
membership/label-equality operations avoid re-hashing nested concept
structures; complements are computed once per id.

Satisfiability w.r.t. a TBox is PSPACE-complete (the paper's Theorem 3
territory), so a pathological schema can make this search run essentially
forever.  Two cooperative limits turn runaway growth into *typed*, structured
failures instead:

* the ``max_nodes`` safety cap raises :class:`TableauLimitError` when one
  completion tree grows too large (the historical behaviour, now carrying a
  structured :class:`~repro.errors.BudgetReason`);
* an optional :class:`~repro.resilience.Budget` bounds the whole search --
  wall-clock deadline, expansion count, and a cooperative memory estimate
  covering branch clones -- raising
  :class:`~repro.errors.BudgetExhaustedError`.

Both exceptions share the ``BudgetExhaustedError`` base, so callers (the
satisfiability checker, the CLI) catch one type and report a typed UNKNOWN
verdict; a budget trip never yields a wrong SAT/UNSAT answer.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .. import obs
from ..errors import BudgetExhaustedError, BudgetReason
from ..record import Record
from ..resilience import faults
from .concepts import (
    And,
    AtLeast,
    AtMost,
    Bottom,
    Concept,
    Exists,
    Forall,
    Name,
    Not,
    Or,
    Role,
    Top,
)
from .nnf import complement, nnf
from .tbox import TBox

if TYPE_CHECKING:  # pragma: no cover
    from ..resilience import Budget

#: Cooperative memory estimate: bytes charged per completion-tree node
#: (label set + parent/role/children bookkeeping, order-of-magnitude).
_NODE_MEMORY_ESTIMATE = 512


class TableauLimitError(BudgetExhaustedError):
    """The completion tree exceeded the configured node limit.

    A specialisation of :class:`~repro.errors.BudgetExhaustedError` kept for
    its long-standing name; ``reason.dimension`` is ``"nodes"``.
    """


class TableauStats(Record, frozen=False):
    """Search statistics of one satisfiability check."""

    nodes_created: int = 0
    branches: int = 0
    merges: int = 0
    max_tree_size: int = 0
    expansions: int = 0
    clashes: int = 0
    max_branch_depth: int = 0


class _ConceptTable:
    """Interning table: NNF concepts <-> integer ids, with cached structure.

    ``kind`` is one of "top", "bottom", "name", "not", "and", "or",
    "exists", "forall", "atleast", "atmost".  ``parts`` holds child ids for
    and/or; ``body`` the child id for the quantified kinds; ``role``/``n``
    the role and cardinality.  Complements are memoised per id.
    """

    def __init__(self) -> None:
        self._ids: dict[Concept, int] = {}
        self._concepts: list[Concept] = []
        self.kind: list[str] = []
        self.parts: list[tuple[int, ...]] = []
        self.body: list[int] = []
        self.role: list[Role | None] = []
        self.n: list[int] = []
        self._complement: dict[int, int] = {}

    def intern(self, concept: Concept) -> int:
        """Intern an NNF concept, returning its id."""
        found = self._ids.get(concept)
        if found is not None:
            return found
        if isinstance(concept, Top):
            kind, parts, body, role, n = "top", (), -1, None, 0
        elif isinstance(concept, Bottom):
            kind, parts, body, role, n = "bottom", (), -1, None, 0
        elif isinstance(concept, Name):
            kind, parts, body, role, n = "name", (), -1, None, 0
        elif isinstance(concept, Not):
            # NNF: negation only in front of names
            kind, parts, body, role, n = "not", (), self.intern(concept.body), None, 0
        elif isinstance(concept, And):
            kind = "and"
            parts = tuple(self.intern(part) for part in concept.parts)
            body, role, n = -1, None, 0
        elif isinstance(concept, Or):
            kind = "or"
            parts = tuple(self.intern(part) for part in concept.parts)
            body, role, n = -1, None, 0
        elif isinstance(concept, Exists):
            kind, parts, body, role, n = (
                "exists",
                (),
                self.intern(concept.body),
                concept.role,
                1,
            )
        elif isinstance(concept, Forall):
            kind, parts, body, role, n = (
                "forall",
                (),
                self.intern(concept.body),
                concept.role,
                0,
            )
        elif isinstance(concept, AtLeast):
            kind, parts, body, role, n = (
                "atleast",
                (),
                self.intern(concept.body),
                concept.role,
                concept.n,
            )
        elif isinstance(concept, AtMost):
            kind, parts, body, role, n = (
                "atmost",
                (),
                self.intern(concept.body),
                concept.role,
                concept.n,
            )
        else:
            raise TypeError(f"not a concept: {concept!r}")
        new_id = len(self._concepts)
        self._ids[concept] = new_id
        self._concepts.append(concept)
        self.kind.append(kind)
        self.parts.append(parts)
        self.body.append(body)
        self.role.append(role)
        self.n.append(n)
        return new_id

    def concept(self, cid: int) -> Concept:
        return self._concepts[cid]

    def complement_of(self, cid: int) -> int:
        found = self._complement.get(cid)
        if found is None:
            found = self.intern(complement(self._concepts[cid]))
            self._complement[cid] = found
            self._complement[found] = cid
        return found

    def is_top(self, cid: int) -> bool:
        return self.kind[cid] == "top"


class Tableau:
    """Concept satisfiability w.r.t. a fixed TBox."""

    def __init__(
        self,
        tbox: TBox | None = None,
        max_nodes: int = 5000,
        *,
        budget: "Budget | None" = None,
        bcp: bool = True,
        guarded_axioms: bool = True,
        lazy_definitions: bool = True,
        disjointness_propagation: bool = True,
    ) -> None:
        """``budget`` bounds the whole search (deadline / expansions /
        memory estimate); ``max_nodes`` additionally caps one completion
        tree.  The keyword flags disable individual optimisations (all purely
        performance-affecting; every configuration decides the same
        satisfiability relation).  They exist for the ablation benchmark:

        * ``bcp`` -- boolean constraint propagation on disjunctions;
        * ``guarded_axioms`` -- lazy application of Name-guarded GCIs
          (off: every axiom is internalised into every label);
        * ``lazy_definitions`` -- lazy unfolding of union/interface
          definitions (off: definitions become two internalised GCIs);
        * ``disjointness_propagation`` -- deterministic ¬-propagation
          within disjointness groups.
        """
        # note: `tbox or TBox()` would discard an axiom-less TBox that still
        # carries definitions/disjointness (TBox.__len__ counts axioms only)
        self.tbox = tbox if tbox is not None else TBox()
        self.max_nodes = max_nodes
        self.budget = budget
        #: Optional cross-check verdict cache for root label sets (duck-typed:
        #: ``lookup(frozenset[Concept]) -> bool | None`` and ``store(initial,
        #: verdict, completed_root)``).  Attached by the satisfiability
        #: checker so tableaux over the same TBox share proved label sets;
        #: see :class:`repro.satisfiability.cache.LabelSetCache` for why the
        #: subset/superset rules are only sound at the root.
        self.label_cache = None
        self._run_budget: "Budget | None" = None
        self._bcp = bcp
        self.stats = TableauStats()
        self._table = _ConceptTable()
        # Axioms whose left-hand side is a concept name are applied *lazily*
        # (guarded on the name appearing in a node's label) instead of being
        # internalised into every label.  This is sound because the model
        # read off a completed tree interprets a primitive name as exactly
        # the nodes labelled with it -- provided membership in *defined*
        # names (unions/interfaces) is propagated from their members, which
        # the definition handling below arranges.  Axioms with a complex
        # left-hand side keep the classic internalised treatment.
        self._guarded: dict[int, tuple[int, ...]] = {}
        universal: list[int] = []
        axioms = list(self.tbox.axioms)
        if not lazy_definitions:
            # ablation path: definitions degrade to two plain GCIs
            from .tbox import Axiom

            for defined_name, definiens in self.tbox.definitions.items():
                axioms.append(Axiom(Name(defined_name), definiens))
                axioms.append(Axiom(definiens, Name(defined_name)))
        for axiom in axioms:
            sup_id = self._table.intern(nnf(axiom.sup))
            if guarded_axioms and isinstance(axiom.sub, Name):
                guard_id = self._table.intern(axiom.sub)
                self._guarded[guard_id] = self._guarded.get(guard_id, ()) + (sup_id,)
            else:
                constraint = self._table.intern(
                    nnf(Or((Not(axiom.sub), axiom.sup)))
                )
                universal.append(constraint)
        self._disjoint_groups = [
            frozenset(self._table.intern(Name(member)) for member in group)
            for group in self.tbox.disjoint_groups
        ]
        # lazy unfolding of definitions (name ≡ definiens):
        #  * name in label        -> add the definiens,
        #  * ¬name in label       -> add the negated definiens,
        #  * member name in label -> add the defined name (needed so that
        #    guarded axioms on union/interface names fire on their members).
        self._unfold: dict[int, tuple[int, ...]] = {}
        self._definition_closures: list[tuple[int, tuple[int, ...]]] = []
        definitions = self.tbox.definitions if lazy_definitions else {}
        for defined_name, definiens in definitions.items():
            name_id = self._table.intern(Name(defined_name))
            normalised = nnf(definiens)
            definiens_id = self._table.intern(normalised)
            self._add_unfold(name_id, definiens_id)
            self._add_unfold(
                self._table.complement_of(name_id),
                self._table.complement_of(definiens_id),
            )
            members: tuple[Concept, ...]
            if isinstance(normalised, Or):
                members = normalised.parts
            elif isinstance(normalised, (Name, Bottom)):
                members = (normalised,)
            else:
                members = ()
            for member in members:
                if isinstance(member, Name):
                    self._add_unfold(self._table.intern(member), name_id)
            # closure: ¬m for every member m entails ¬name (keeps the
            # choose-rule from branching on provably-negative memberships)
            if members and all(isinstance(member, Name) for member in members):
                self._definition_closures.append(
                    (
                        self._table.complement_of(name_id),
                        tuple(
                            self._table.complement_of(self._table.intern(member))
                            for member in members
                        ),
                    )
                )
        self._universal = tuple(universal)
        # disjointness propagation: member id -> complements of its group mates
        self._disjoint_complements: dict[int, tuple[int, ...]] = {}
        groups_to_propagate = self._disjoint_groups if disjointness_propagation else []
        for group in groups_to_propagate:
            for member in group:
                others = tuple(
                    self._table.complement_of(other)
                    for other in group
                    if other != member
                )
                existing = self._disjoint_complements.get(member, ())
                self._disjoint_complements[member] = existing + others

    def _add_unfold(self, trigger: int, consequence: int) -> None:
        existing = self._unfold.get(trigger, ())
        if consequence not in existing:
            self._unfold[trigger] = existing + (consequence,)

    def is_satisfiable(
        self, concept: Concept, budget: "Budget | None" = None
    ) -> bool:
        """Is *concept* satisfiable w.r.t. the TBox?

        ``budget`` (default: the instance budget) bounds this one check;
        exhaustion raises :class:`~repro.errors.BudgetExhaustedError` --
        never a wrong verdict.
        """
        self.stats = TableauStats()
        table = self._table
        initial = (table.intern(nnf(concept)),) + self._universal
        cache = self.label_cache
        key = None
        if cache is not None:
            key = frozenset(table.concept(cid) for cid in initial)
            hit = cache.lookup(key)
            if hit is not None:
                obs.count("tableau.label_cache.hits")
                return hit
            obs.count("tableau.label_cache.misses")
        self._run_budget = budget if budget is not None else self.budget
        state = _State()
        root = state.create_node(parent=None, roles=frozenset())
        self.stats.nodes_created += 1
        self._charge_nodes(1)
        state.add(root, initial)
        span = obs.span("tableau.search")
        try:
            with span:
                completed = self._expand(state)
                span.set(sat=completed is not None, expansions=self.stats.expansions)
        finally:
            self._run_budget = None
            self._record_stats()
        if cache is not None:
            # only *decided* verdicts are stored: a budget trip raised above
            completed_root = (
                frozenset(table.concept(cid) for cid in completed.label(root))
                if completed is not None
                else None
            )
            cache.store(key, completed is not None, completed_root)
        return completed is not None

    def _charge_nodes(self, count: int) -> None:
        budget = self._run_budget
        if budget is not None:
            budget.charge_nodes(count, site="dl.tableau")
            budget.charge_memory(count * _NODE_MEMORY_ESTIMATE, site="dl.tableau")

    def _record_stats(self) -> None:
        """Fold the finished search's :class:`TableauStats` into the active
        metrics registry (one aggregate write per search -- the expansion
        loop itself stays uninstrumented)."""
        observation = obs.active()
        if observation is None or observation.registry is None:
            return
        registry = observation.registry
        stats = self.stats
        registry.count("tableau.searches")
        registry.count("tableau.expansions", stats.expansions)
        registry.count("tableau.nodes_created", stats.nodes_created)
        registry.count("tableau.branches", stats.branches)
        registry.count("tableau.merges", stats.merges)
        registry.count("tableau.clashes", stats.clashes)
        registry.observe("tableau.tree_size", stats.max_tree_size)
        registry.observe("tableau.branch_depth", stats.max_branch_depth)

    # ------------------------------------------------------------------ #
    # the expansion loop (explicit DFS stack)
    # ------------------------------------------------------------------ #

    def _expand(self, initial: "_State") -> "_State | None":
        """DFS over the branch stack; returns the completed clash-free state
        (its root label feeds the label-set cache), or None for UNSAT."""
        stack = [initial]
        while stack:
            if len(stack) > self.stats.max_branch_depth:
                self.stats.max_branch_depth = len(stack)
            state = stack.pop()
            if self._saturate(state, stack):
                return state
        return None

    def _saturate(self, state: "_State", stack: list["_State"]) -> bool:
        """Saturate one state; True when complete and clash-free.  On a
        nondeterministic choice, push one branch per alternative (first
        alternative on top) and return False."""
        budget = self._run_budget
        while True:
            self.stats.expansions += 1
            if budget is not None:
                budget.charge_expansions(1, site="dl.tableau")
                if not self.stats.expansions % 32:
                    budget.check_deadline(site="dl.tableau")
            faults.fault_point("dl.tableau", expansions=self.stats.expansions)
            if state.size() > self.max_nodes:
                raise TableauLimitError(
                    BudgetReason("nodes", self.max_nodes, state.size(), "dl.tableau")
                )
            if state.size() > self.stats.max_tree_size:
                self.stats.max_tree_size = state.size()
            if self._has_clash(state):
                self.stats.clashes += 1
                return False
            if self._apply_deterministic(state):
                continue
            alternatives = self._find_choice(state)
            if alternatives is not None:
                self.stats.branches += 1
                if budget is not None:
                    # each pushed branch clones the whole tree
                    budget.charge_memory(
                        len(alternatives) * state.size() * _NODE_MEMORY_ESTIMATE,
                        site="dl.tableau",
                    )
                for mutate in reversed(alternatives):
                    branch = state.clone()
                    mutate(branch)
                    stack.append(branch)
                return False
            if self._apply_generating(state):
                continue
            return True

    # ------------------------------------------------------------------ #
    # clash detection
    # ------------------------------------------------------------------ #

    def _has_clash(self, state: "_State") -> bool:
        table = self._table
        for node in state.alive_nodes():
            label = state.label(node)
            for group in self._disjoint_groups:
                if len(label & group) >= 2:
                    return True
            for cid in label:
                kind = table.kind[cid]
                if kind == "bottom":
                    return True
                if kind == "not" and table.body[cid] in label:
                    return True
                if kind == "atmost":
                    witnesses = self._witnesses(state, node, cid)
                    if len(witnesses) > table.n[cid] and all(
                        state.are_distinct(a, b)
                        for a, b in itertools.combinations(witnesses, 2)
                    ):
                        return True
        return False

    def _witnesses(self, state: "_State", node: int, cid: int) -> list[int]:
        """R-neighbours of *node* witnessing the body of a ≥/≤ concept."""
        table = self._table
        body = table.body[cid]
        body_is_top = table.is_top(body)
        return [
            neighbour
            for neighbour in state.r_neighbours(node, table.role[cid])
            if body_is_top or body in state.label(neighbour)
        ]

    # ------------------------------------------------------------------ #
    # deterministic rules
    # ------------------------------------------------------------------ #

    def _apply_deterministic(self, state: "_State") -> bool:
        table = self._table
        changed = False
        # only nodes whose labels or incident edges changed need re-saturating;
        # cross-node effects (∀-propagation) re-dirty their targets via add()
        todo = [node for node in state.dirty if node in state._labels]
        state.dirty.clear()
        for node in todo:
            label_now = state.label(node)
            for neg_name, neg_members in self._definition_closures:
                if neg_name not in label_now and all(
                    member in label_now for member in neg_members
                ):
                    state.add(node, (neg_name,))
                    changed = True
            for cid in list(state.label(node)):
                unfolded = self._unfold.get(cid)
                if unfolded is not None and state.add(node, unfolded):
                    changed = True
                guarded = self._guarded.get(cid)
                if guarded is not None and state.add(node, guarded):
                    changed = True
                mates = self._disjoint_complements.get(cid)
                if mates is not None and state.add(node, mates):
                    changed = True
                kind = table.kind[cid]
                if kind == "and":
                    if state.add(node, table.parts[cid]):
                        changed = True
                elif kind == "or" and self._bcp:
                    label = state.label(node)
                    if any(part in label for part in table.parts[cid]):
                        continue
                    open_parts = [
                        part
                        for part in table.parts[cid]
                        if table.complement_of(part) not in label
                    ]
                    if len(open_parts) == 1:
                        if state.add(node, (open_parts[0],)):
                            changed = True
                    elif not open_parts:
                        state.add(node, (table.intern(Bottom()),))
                        changed = True
                elif kind == "forall":
                    body = table.body[cid]
                    for neighbour in state.r_neighbours(node, table.role[cid]):
                        if state.add(neighbour, (body,)):
                            changed = True
        return changed

    # ------------------------------------------------------------------ #
    # nondeterministic rules
    # ------------------------------------------------------------------ #

    def _find_choice(self, state: "_State"):
        table = self._table
        # ⊔-rule (BCP has already handled the 0/1-open cases)
        for node in state.alive_nodes():
            label = state.label(node)
            for cid in label:
                if table.kind[cid] != "or":
                    continue
                if any(part in label for part in table.parts[cid]):
                    continue
                if self._bcp:
                    open_parts = [
                        part
                        for part in table.parts[cid]
                        if table.complement_of(part) not in label
                    ]
                else:
                    open_parts = list(table.parts[cid])
                if len(open_parts) >= (2 if self._bcp else 1):
                    return [_add_mutator(node, part) for part in open_parts]
        # choose-rule for ≤n R.C
        for node in state.alive_nodes():
            for cid in state.label(node):
                if table.kind[cid] != "atmost" or table.is_top(table.body[cid]):
                    continue
                body = table.body[cid]
                negated = table.complement_of(body)
                for neighbour in state.r_neighbours(node, table.role[cid]):
                    neighbour_label = state.label(neighbour)
                    if body not in neighbour_label and negated not in neighbour_label:
                        return [
                            _add_mutator(neighbour, body),
                            _add_mutator(neighbour, negated),
                        ]
        # ≤-rule (merge) when a number restriction is exceeded
        for node in state.alive_nodes():
            for cid in state.label(node):
                if table.kind[cid] != "atmost":
                    continue
                witnesses = self._witnesses(state, node, cid)
                if len(witnesses) <= table.n[cid]:
                    continue
                mergeable = [
                    (a, b)
                    for a, b in itertools.combinations(witnesses, 2)
                    if not state.are_distinct(a, b)
                ]
                if not mergeable:
                    continue  # all-distinct case is a clash, reported above
                self.stats.merges += 1
                return [_merge_mutator(node, a, b, state) for a, b in mergeable]
        return None

    # ------------------------------------------------------------------ #
    # generating rules (subject to pairwise blocking)
    # ------------------------------------------------------------------ #

    def _apply_generating(self, state: "_State") -> bool:
        table = self._table
        for node in state.alive_nodes():
            if state.is_blocked(node):
                continue
            for cid in state.label(node):
                kind = table.kind[cid]
                if kind == "exists":
                    if not self._witnesses(state, node, cid):
                        self._create_successors(state, node, cid, 1)
                        return True
                elif kind == "atleast" and table.n[cid] >= 1:
                    witnesses = self._witnesses(state, node, cid)
                    if not _has_distinct_subset(state, witnesses, table.n[cid]):
                        self._create_successors(state, node, cid, table.n[cid])
                        return True
        return False

    def _create_successors(self, state: "_State", node: int, cid: int, count: int) -> None:
        table = self._table
        role = table.role[cid]
        body = table.body[cid]
        created = []
        self._charge_nodes(count)
        for _ in range(count):
            child = state.create_node(parent=node, roles=frozenset({role}))
            self.stats.nodes_created += 1
            concepts = () if table.is_top(body) else (body,)
            state.add(child, concepts + self._universal)
            created.append(child)
        for a, b in itertools.combinations(created, 2):
            state.set_distinct(a, b)


def _add_mutator(node: int, cid: int):
    def apply(state: "_State") -> None:
        state.add(node, (cid,))

    return apply


def _merge_mutator(anchor: int, a: int, b: int, current: "_State"):
    """Merge b into a (or a into b when b is on the anchor's ancestor side)."""
    if current.is_ancestor_of(b, anchor):
        keep, drop = b, a
    else:
        keep, drop = a, b

    def apply(state: "_State") -> None:
        state.merge(anchor, keep, drop)

    return apply


def _has_distinct_subset(state: "_State", witnesses: list[int], n: int) -> bool:
    """Do *witnesses* contain n pairwise-distinct members?"""
    if len(witnesses) < n:
        return False
    if n == 1:
        return True
    for subset in itertools.combinations(witnesses, n):
        if all(state.are_distinct(a, b) for a, b in itertools.combinations(subset, 2)):
            return True
    return False


class _State:
    """A completion tree over interned concept ids: labelled nodes,
    role-labelled tree edges, and an inequality relation."""

    __slots__ = (
        "_labels",
        "_parent",
        "_roles",
        "_children",
        "_distinct",
        "_next_id",
        "_version",
        "_neighbour_cache",
        "_alive_cache",
        "dirty",
    )

    def __init__(self) -> None:
        self._labels: dict[int, set[int]] = {}
        self._parent: dict[int, int | None] = {}
        self._roles: dict[int, frozenset[Role]] = {}  # roles on edge parent -> node
        self._children: dict[int, list[int]] = {}
        self._distinct: set[frozenset[int]] = set()
        self._next_id = 0
        #: nodes whose labels/edges changed since they were last saturated
        self.dirty: set[int] = set()
        # structure caches, invalidated whenever the tree shape changes
        self._version = 0
        self._neighbour_cache: dict[tuple[int, Role], list[int]] = {}
        self._alive_cache: list[int] | None = None

    def _structure_changed(self) -> None:
        self._version += 1
        self._neighbour_cache.clear()
        self._alive_cache = None

    # -- construction ---------------------------------------------------- #

    def create_node(self, parent: int | None, roles: frozenset[Role]) -> int:
        node = self._next_id
        self._next_id += 1
        self._labels[node] = set()
        self._parent[node] = parent
        self._roles[node] = roles
        self._children[node] = []
        if parent is not None:
            self._children[parent].append(node)
            self.dirty.add(parent)
        self.dirty.add(node)
        self._structure_changed()
        return node

    def add(self, node: int, cids: tuple[int, ...]) -> bool:
        label = self._labels[node]
        before = len(label)
        label.update(cids)
        if len(label) != before:
            self.dirty.add(node)
            return True
        return False

    def set_distinct(self, a: int, b: int) -> None:
        self._distinct.add(frozenset({a, b}))

    # -- queries ----------------------------------------------------------- #

    def alive_nodes(self) -> list[int]:
        if self._alive_cache is None:
            self._alive_cache = sorted(self._labels)
        return self._alive_cache

    def size(self) -> int:
        return len(self._labels)

    def label(self, node: int) -> set[int]:
        return self._labels[node]

    def are_distinct(self, a: int, b: int) -> bool:
        return frozenset({a, b}) in self._distinct

    def is_ancestor_of(self, candidate: int, node: int) -> bool:
        current = self._parent.get(node)
        while current is not None:
            if current == candidate:
                return True
            current = self._parent[current]
        return False

    def r_neighbours(self, node: int, role: Role) -> list[int]:
        """All y that are R-neighbours of *node*: children whose edge carries
        the role, plus the parent when the node's own edge carries its inverse."""
        key = (node, role)
        cached = self._neighbour_cache.get(key)
        if cached is not None:
            return cached
        found = [child for child in self._children[node] if role in self._roles[child]]
        parent = self._parent[node]
        if parent is not None and role.inv() in self._roles[node]:
            found.append(parent)
        self._neighbour_cache[key] = found
        return found

    # -- pairwise blocking --------------------------------------------------- #

    def is_blocked(self, node: int) -> bool:
        current: int | None = node
        while current is not None:
            if self._directly_blocked(current):
                return True
            current = self._parent[current]
        return False

    def _directly_blocked(self, node: int) -> bool:
        parent = self._parent[node]
        if parent is None:
            return False
        blocker = parent
        while blocker is not None and self._parent[blocker] is not None:
            if (
                self._labels[node] == self._labels[blocker]
                and self._labels[parent] == self._labels[self._parent[blocker]]
                and self._roles[node] == self._roles[blocker]
            ):
                return True
            blocker = self._parent[blocker]
        return False

    # -- merging --------------------------------------------------------------- #

    def merge(self, anchor: int, keep: int, drop: int) -> None:
        """Merge *drop* into *keep*; both are R-neighbours of *anchor*."""
        self._labels[keep].update(self._labels[drop])
        self.dirty.update({anchor, keep})
        parent_of_anchor = self._parent.get(anchor)
        if parent_of_anchor is not None:
            self.dirty.add(parent_of_anchor)
        if self._parent.get(drop) == anchor:
            if self._parent.get(keep) == anchor:
                self._roles[keep] = self._roles[keep] | self._roles[drop]
            else:
                # keep is on the ancestor side: redirect drop's connection as
                # inverse roles on the edge parent(anchor) -> anchor
                inverse_roles = frozenset(role.inv() for role in self._roles[drop])
                self._roles[anchor] = self._roles[anchor] | inverse_roles
        for pair in [pair for pair in self._distinct if drop in pair]:
            other = next(iter(pair - {drop}), keep)
            self._distinct.discard(pair)
            if other != keep:
                self._distinct.add(frozenset({keep, other}))
        self._remove_subtree(drop)
        self._structure_changed()

    def _remove_subtree(self, node: int) -> None:
        for child in list(self._children[node]):
            self._remove_subtree(child)
        parent = self._parent[node]
        if parent is not None and node in self._children[parent]:
            self._children[parent].remove(node)
        del self._labels[node]
        del self._parent[node]
        del self._roles[node]
        del self._children[node]
        self.dirty.discard(node)

    # -- cloning ------------------------------------------------------------------ #

    def clone(self) -> "_State":
        other = _State.__new__(_State)
        other._labels = {node: set(label) for node, label in self._labels.items()}
        other._parent = dict(self._parent)
        other._roles = dict(self._roles)
        other._children = {
            node: list(children) for node, children in self._children.items()
        }
        other._distinct = set(self._distinct)
        other._next_id = self._next_id
        other.dirty = set(self.dirty)
        other._version = 0
        other._neighbour_cache = {}
        other._alive_cache = None
        return other
