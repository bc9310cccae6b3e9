"""Pool-wide predicate-eligibility substrate (two-tier: atoms, conjunctions).

Every incremental index in this codebase starts from per-pattern-node
candidate sets (the paper's ``candt``/``match`` seeds): the nodes whose
attribute tuples satisfy the pattern node's predicate.  Before this module
existed each standing query of a :class:`~repro.engine.pool.MatcherPool`
computed and incrementally maintained its *own* copy — a pool with 64
queries over a handful of distinct predicates re-evaluated the same
predicate on the same churned node up to 64 times per flush.

:class:`SharedEligibilityIndex` is the "one maintained auxiliary structure
per sub-formula" move of answering queries under updates (Berkholz–
Keppeler–Schweikardt) applied to predicates, taken down to the atom level:

- predicates are **interned** into canonical keys
  (:class:`~repro.patterns.predicate.Predicate` canonicalizes conjunct
  order and dedupes atoms at construction, so ``age>25 & job=DB`` and its
  permutation hash equal);
- per distinct **atom** the index owns one posting set
  (:class:`AtomEntry`), evaluated **once** per node event pool-wide —
  ``job = 'DB'`` and ``job = 'DB' & age > 25`` pay for the shared atom
  once, however many conjunctions use it;
- per interned predicate the index owns **one**
  :class:`EligibleSet` of currently-satisfying data nodes, maintained as
  an **intersection view** over its atoms' posting sets: an atom flip
  reconciles each dependent conjunction with O(1) membership checks
  against the sibling atoms' sets instead of re-evaluating the
  conjunction;
- consumers hold refcounted **leases**; a set whose last lease is released
  is dropped so the pool stops paying its upkeep.  Unbalanced releases
  (double-release, never-leased release) raise
  :class:`EligibilityLeaseError` instead of silently corrupting refcounts;
- a :meth:`~repro.patterns.predicate.Predicate.is_unsatisfiable`
  conjunction short-circuits to an empty, upkeep-free set: no atom leases,
  no reconciliation, nothing to maintain.

Every query registered with the pool leases its candidate sets here;
there is no private-copy path inside a pool (standalone indexes still
compute their own sets).  The pool hands each flush's node events to
:meth:`observe_events` in one batch during flush phase A, and the fresh
endpoints of its insertions in one more during phase D; it gets back the
net *flips* (gained/lost predicate verdicts), and routes one repair pass
to exactly the queries whose patterns use a flipped predicate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..patterns.predicate import Atom, Predicate

# One membership flip: (predicate, gained?) — False means lost.
Flip = Tuple[Predicate, bool]
# One batched flip: (predicate, node, gained?) — see ``observe_events``.
EventFlip = Tuple[Predicate, Node, bool]
# One node event: (node, changed attr names or None for "all", is_new?).
NodeEvent = Tuple[Node, Optional[Iterable[str]], bool]


class EligibilityLeaseError(RuntimeError):
    """Unbalanced lease lifecycle: releasing a predicate that was never
    leased, or more times than it was leased."""


class EligibilityStats:
    """Work counters: how many atomic comparisons the pool paid, and how
    they amortize (the quantity the atom tier makes scale with *distinct
    atoms* instead of distinct conjunctions or pool size)."""

    __slots__ = (
        "sets_built",
        "atom_sets_built",
        "atom_evals",
        "node_events",
        "flips",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.sets_built = 0
        self.atom_sets_built = 0
        self.atom_evals = 0
        self.node_events = 0
        self.flips = 0

    def __repr__(self) -> str:
        return (
            f"EligibilityStats(sets={self.sets_built}, "
            f"atom_sets={self.atom_sets_built}, "
            f"atom_evals={self.atom_evals}, events={self.node_events}, "
            f"flips={self.flips})"
        )


class AtomEntry:
    """One distinct atom's posting set — the substrate's bottom tier.

    ``members`` holds the nodes currently satisfying the atom; **only**
    the owning :class:`SharedEligibilityIndex` mutates it.  ``dependents``
    lists the conjunction :class:`EligibleSet`\\ s whose verdicts read this
    atom, so an atom flip knows exactly which views to reconcile.  Atoms
    are refcounted by the conjunctions leasing them, not by consumers
    directly.
    """

    __slots__ = ("atom", "members", "refs", "dependents")

    def __init__(self, atom: Atom, members: Set[Node]) -> None:
        self.atom = atom
        self.members = members
        self.refs = 0
        self.dependents: List["EligibleSet"] = []

    def __repr__(self) -> str:
        return (
            f"AtomEntry({self.atom!r}, |members|={len(self.members)}, "
            f"refs={self.refs}, dependents={len(self.dependents)})"
        )


class EligibleSet:
    """One interned predicate's eligible-node set — a shared read-view.

    ``members`` is the live set — the intersection of ``atom_entries``
    posting sets, maintained incrementally; **only** the owning
    :class:`SharedEligibilityIndex` mutates it (in place: downstream
    aliases — the queries' eligible sets and edge-routing pairs — hold
    the *object*, never a copy).

    ``atom_entries`` is empty for the trivial (TRUE) predicate — every
    node is a member — and for unsatisfiable conjunctions — no node ever
    is, and nothing needs upkeep.
    """

    __slots__ = (
        "predicate",
        "members",
        "atom_entries",
        "attr_names",
        "refs",
    )

    def __init__(
        self,
        predicate: Predicate,
        members: Set[Node],
        atom_entries: Tuple[AtomEntry, ...] = (),
    ) -> None:
        self.predicate = predicate
        self.members = members
        self.atom_entries = atom_entries
        # The attributes the verdict depends on: an attr merge touching
        # none of them cannot flip membership, so observation skips the
        # evaluation entirely (the attr-name routing stage, kept at the
        # substrate level — now per atom via ``_by_attr``).
        self.attr_names = frozenset(a.attribute for a in predicate.atoms)
        self.refs = 0

    def __contains__(self, v: Node) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return (
            f"EligibleSet({self.predicate!r}, |members|={len(self.members)}, "
            f"refs={self.refs})"
        )


class SharedEligibilityIndex:
    """One eligible-node set per distinct predicate per pool, composed
    from one posting set per distinct atom."""

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph
        self._entries: Dict[Predicate, EligibleSet] = {}
        self._atoms: Dict[Atom, AtomEntry] = {}
        # attribute name -> {atom: entry}: the attr-change pruning index.
        self._by_attr: Dict[str, Dict[Atom, AtomEntry]] = {}
        # Trivial (TRUE) entries: no atoms to flip them, but a fresh node
        # always gains them, so node-added must reconcile them explicitly.
        self._trivial: List[EligibleSet] = []
        self.stats = EligibilityStats()

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def lease(self, predicate: Predicate) -> EligibleSet:
        """Acquire the shared set for ``predicate`` (built on first lease).

        Structurally-equal predicates — whatever their spelling — intern
        to the same entry; the caller must treat ``entry.members`` as
        read-only and :meth:`release` with an equal predicate later.
        Building a conjunction leases its atoms, so atoms already posted
        for other conjunctions cost nothing; a brand-new atom is evaluated
        once over the graph.
        """
        entry = self._entries.get(predicate)
        if entry is None:
            entry = self._build(predicate)
            self._entries[predicate] = entry
        entry.refs += 1
        return entry

    def _build(self, predicate: Predicate) -> EligibleSet:
        self.stats.sets_built += 1
        if predicate.is_unsatisfiable():
            # Contradictory conjunction: empty forever, zero upkeep — no
            # atom leases, nothing for observation to reconcile.
            return EligibleSet(predicate, set())
        if predicate.is_trivial():
            entry = EligibleSet(predicate, set(self._graph.nodes()))
            self._trivial.append(entry)
            return entry
        atom_entries = tuple(
            self._lease_atom(atom) for atom in predicate.atoms
        )
        members = set.intersection(*(ae.members for ae in atom_entries))
        entry = EligibleSet(predicate, members, atom_entries)
        for ae in atom_entries:
            ae.dependents.append(entry)
        return entry

    def _lease_atom(self, atom: Atom) -> AtomEntry:
        ae = self._atoms.get(atom)
        if ae is None:
            members = self._initial_members(atom)
            self.stats.atom_evals += self._graph.num_nodes()
            self.stats.atom_sets_built += 1
            ae = AtomEntry(atom, members)
            self._atoms[atom] = ae
            self._by_attr.setdefault(atom.attribute, {})[atom] = ae
        ae.refs += 1
        return ae

    def _initial_members(self, atom: Atom) -> Set[Node]:
        """First-lease full-graph sweep for one atom."""
        return {
            v
            for v in self._graph.nodes()
            if atom.satisfied_by(self._graph.attrs(v))
        }

    def release(self, predicate: Predicate) -> None:
        """Release one lease; the entry dies with its last lease.

        Raises :class:`EligibilityLeaseError` on a predicate with no live
        lease — never leased, or released more times than leased — a
        consumer lifecycle bug that would otherwise drop sets other
        holders still read.
        """
        entry = self._entries.get(predicate)
        if entry is None:
            raise EligibilityLeaseError(
                f"release of never-leased predicate {predicate!r}"
            )
        entry.refs -= 1
        if entry.refs == 0:
            self._drop(entry)

    def _drop(self, entry: EligibleSet) -> None:
        del self._entries[entry.predicate]
        for ae in entry.atom_entries:
            ae.dependents.remove(entry)
            ae.refs -= 1
            if ae.refs == 0:
                del self._atoms[ae.atom]
                bucket = self._by_attr[ae.atom.attribute]
                del bucket[ae.atom]
                if not bucket:
                    del self._by_attr[ae.atom.attribute]
        if not entry.atom_entries and entry.predicate.is_trivial():
            self._trivial.remove(entry)

    # ------------------------------------------------------------------
    # Observation (invoked by the pool in flush phases A and D, post-edit)
    # ------------------------------------------------------------------
    def observe_node_added(self, v: Node) -> List[Flip]:
        """A node appeared in the shared graph (attrs already applied):
        :meth:`observe_events` for one fresh node, returning its gains.
        The pool observes fresh nodes in its batches; the name stays
        because the end-to-end benchmark's tracer
        (benchmarks/e2e/spans.py) looks it up on the class."""
        return [
            (p, gained)
            for p, _v, gained in self.observe_events([(v, None, True)])
        ]

    def observe_events(self, events: Iterable[NodeEvent]) -> List[EventFlip]:
        """Observe a whole batch of node events in one pass.

        ``events`` holds ``(node, changed_names, is_new)`` triples in
        flush order, post-edit (the graph already reflects every event;
        duplicate nodes are fine — touched names accumulate, and an
        ``is_new`` or names-less event widens the node to "evaluate every
        atom").  Atoms are evaluated **column-major**: one pass per
        distinct atom over all its touched nodes.  Membership *before* the
        batch is read off the posting sets, so the returned
        ``(predicate, node, gained)`` triples are the **net** verdict
        flips across the batch — at most one per (predicate, node), with
        transient gain/loss pairs inside the batch never materializing.
        """
        # Fold duplicate events into one touched-name set per node
        # (None = evaluate all atoms); fresh nodes also gain the trivial
        # (TRUE) entries, which no atom flip would ever reconcile.
        touched: Dict[Node, Optional[Set[str]]] = {}
        fresh: List[Node] = []
        n_events = 0
        for v, names, is_new in events:
            n_events += 1
            if is_new and v not in touched:
                fresh.append(v)
            if v in touched:
                cur = touched[v]
                if cur is not None:
                    if names is None or is_new:
                        touched[v] = None
                    else:
                        cur.update(names)
            else:
                touched[v] = (
                    None if names is None or is_new else set(names)
                )
        self.stats.node_events += n_events
        if not touched:
            return []
        # Column-major candidate lists: each atom owns one attribute, so
        # a node lands in an atom's list at most once.
        per_atom: Dict[Atom, List[Node]] = {}
        for v, names in touched.items():
            if names is None:
                for atom in self._atoms:
                    per_atom.setdefault(atom, []).append(v)
            else:
                for name in names:
                    for atom in self._by_attr.get(name, {}):
                        per_atom.setdefault(atom, []).append(v)
        attrs = self._graph.attrs
        # id(entry) -> nodes to reconcile, insertion-ordered for
        # deterministic flip order within each entry.
        affected: Dict[int, Dict[Node, None]] = {}
        for entry in self._trivial:
            if fresh:
                bucket = affected.setdefault(id(entry), {})
                for v in fresh:
                    bucket[v] = None
        for atom, nodes in per_atom.items():
            ae = self._atoms[atom]
            self.stats.atom_evals += len(nodes)
            members = ae.members
            for v in nodes:
                now = atom.satisfied_by(attrs(v))
                was = v in members
                if now is not was:
                    (members.add if now else members.discard)(v)
                    for dep in ae.dependents:
                        affected.setdefault(id(dep), {})[v] = None
        return self._reconcile_batch(affected)

    def _reconcile_batch(
        self, affected: Dict[int, Dict[Node, None]]
    ) -> List[EventFlip]:
        """Re-derive membership of each affected (entry, node) pair from
        the atoms' (already updated) posting sets, mutate the member sets,
        and return the flips.

        Iterates ``_entries`` in interning order so flip order is
        deterministic per batch.  Unsatisfiable entries are never wired to
        atoms or ``_trivial``, so they can never appear here; trivial
        entries have no atoms, so ``all()`` holds and fresh nodes gain
        them.
        """
        flips: List[EventFlip] = []
        if not affected:
            return flips
        for predicate, entry in self._entries.items():
            nodes = affected.get(id(entry))
            if not nodes:
                continue
            for v in nodes:
                now = all(v in ae.members for ae in entry.atom_entries)
                was = v in entry.members
                if now and not was:
                    entry.members.add(v)
                    flips.append((predicate, v, True))
                elif was and not now:
                    entry.members.remove(v)
                    flips.append((predicate, v, False))
        self.stats.flips += len(flips)
        return flips

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry(self, predicate: Predicate) -> Optional[EligibleSet]:
        return self._entries.get(predicate)

    def num_entries(self) -> int:
        return len(self._entries)

    def num_atoms(self) -> int:
        return len(self._atoms)

    def live_entries(self) -> Dict[str, Dict[str, int]]:
        """Per interned predicate: lease count and member count."""
        return {
            repr(predicate): {
                "refs": entry.refs,
                "members": len(entry.members),
            }
            for predicate, entry in self._entries.items()
        }

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Posting sets must mirror atom truth, conjunction views must
        mirror predicate truth *and* equal their atoms' intersection."""
        for atom, ae in self._atoms.items():
            true_members = {
                v
                for v in self._graph.nodes()
                if atom.satisfied_by(self._graph.attrs(v))
            }
            assert ae.members == true_members, (
                f"atom posting drift for {atom!r}: "
                f"{ae.members ^ true_members}"
            )
            assert ae.refs > 0, f"zombie atom entry for {atom!r}"
            assert self._by_attr[atom.attribute][atom] is ae
        for predicate, entry in self._entries.items():
            true_members = {
                v
                for v in self._graph.nodes()
                if predicate.satisfied_by(self._graph.attrs(v))
            }
            assert entry.members == true_members, (
                f"eligibility drift for {predicate!r}: "
                f"{entry.members ^ true_members}"
            )
            assert entry.refs > 0, f"zombie entry for {predicate!r}"
            if entry.atom_entries:
                view = set.intersection(
                    *(ae.members for ae in entry.atom_entries)
                )
                assert entry.members == view, (
                    f"intersection-view drift for {predicate!r}"
                )
                for ae in entry.atom_entries:
                    assert any(dep is entry for dep in ae.dependents), (
                        f"{predicate!r} missing from dependents of "
                        f"{ae.atom!r}"
                    )
            elif predicate.is_trivial():
                assert any(e is entry for e in self._trivial)
            else:
                assert predicate.is_unsatisfiable() and not entry.members

    def __repr__(self) -> str:
        return (
            f"SharedEligibilityIndex(entries={len(self._entries)}, "
            f"atoms={len(self._atoms)}, {self.stats!r})"
        )
