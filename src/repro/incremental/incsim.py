"""Incremental graph simulation (paper Section 5).

:class:`SimulationIndex` maintains the maximum simulation of a normal
pattern in a data graph under edge updates, together with the auxiliary
structures of the paper — ``match()``, ``candt()``, and per-(pattern-edge,
node) support counters (the "local information": how many children of a
candidate currently match the target pattern node).

Each paper algorithm has one implementation, run on edits already made
to the graph (the pool's shared graph, this index's own, or a bounded
index's pair graph):

- ``repair_deleted_edges`` — **IncMatch-** (O(|AFF|)): deleting an ss
  edge may zero a support counter; demotions cascade to graph parents.
- ``repair_inserted_edges`` — **IncMatch+**: an insertion propagates only
  from its triggers (Prop. 5.2) — cs edges, and cc edges inside a pattern
  SCC — and from the endpoints the batch registers.
- ``apply_eligibility_flip_batch`` — node events (attribute changes and
  fresh nodes), resolved to gained/lost pattern nodes: gains adopt,
  losses demote with the cascade.

Every gain — a trigger, an adopted (pattern node, data node) pair — ends
in one promotion pass, :meth:`SimulationIndex._promote`, over the area the
gains can affect.  Its *seeds* are the pairs whose support may have
grown.  It visits the pattern condensation sinks first, with a dirty set
per component: a trivial component promotes its dirty candidates whose
counters are all ``>= 1`` (``propCS``; on a DAG pattern this is the
IncMatch+dag worklist, run in topological order), and a nontrivial SCC
runs the coinductive ``propCC`` refinement of Fig. 9 over the backward
closure of its dirty candidates only.  Each promotion marks its candidate
parents dirty in their own, higher, components.  The pass never looks at
a candidate no seed can reach.

The pool calls them around its shared graph, and
:class:`~repro.incremental.incbsim.BoundedSimulationIndex` around the
pair graph it edits: the pair edges it removes or adds go straight to
``repair_deleted_edges`` / ``repair_inserted_edges``, and its pair nodes
enter and leave their layers through ``apply_eligibility_flip_batch``.

The standalone entry points are drivers over them
(:class:`~repro.incremental.drivers.StandaloneDriver`).  ``apply_batch``
is **IncMatch** (batch updates): the ``minDelta`` cancellation nets the
batch, then the deletions are removed and repaired in one demotion
cascade and the insertions added and repaired in one promotion pass.
A unit update is a batch of one: ``insert_edge``/``delete_edge`` run
the same path, and ``apply_batch_naive`` (**IncMatch_n**, the paper's
naive baseline) feeds the updates one at a time.  ``add_node`` and
``update_node_attrs`` resolve one node's flips against the index's own
eligible sets and repair them with ``apply_eligibility_flip_batch``, the
one entry point of every node event.

The central invariant (checked by the test suite): a predicate-eligible
node is in ``match(u)`` iff every outgoing pattern edge has support
``>= 1``; candidates always have some zero counter.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.scc import condensation, strongly_connected_components
from ..patterns.pattern import Pattern, PatternError, PatternNode
from ..matching.relation import MatchRelation, copy_relation, totalize
from ..matching.simulation import maximum_simulation
from .delta import DeltaLog
from .drivers import StandaloneDriver
from .types import Update, net_updates

PatternEdge = Tuple[PatternNode, PatternNode]
CntKey = Tuple[PatternNode, PatternNode, Node]


class IncStats:
    """Work counters: |AFF| proxies and minDelta effectiveness.

    ``original_updates`` counts the updates handed to ``apply_batch`` and
    ``reduced_updates`` those left once the batch is netted against the
    graph.  On a bounded index both count data-graph edge updates: its
    inner pair-level index shares these counters, but receives the pair
    edits as direct repair calls, which count no update.  The |AFF|
    proxies (promotions, demotions, counter updates, candidates examined)
    count the inner index's pair-level work.  ``pairs_rechecked`` counts
    the suspect pairs IncBMatch- rechecks (bounded indexes only).
    """

    __slots__ = (
        "promotions",
        "demotions",
        "counter_updates",
        "candidates_examined",
        "pairs_rechecked",
        "original_updates",
        "reduced_updates",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.promotions = 0
        self.demotions = 0
        self.counter_updates = 0
        self.candidates_examined = 0
        self.pairs_rechecked = 0
        self.original_updates = 0
        self.reduced_updates = 0

    def aff_size(self) -> int:
        return self.promotions + self.demotions + self.counter_updates


class SimulationIndex(StandaloneDriver):
    """Maximum graph simulation maintained under edge updates.

    ``eligibility`` (a pool-level
    :class:`~repro.engine.eligibility.SharedEligibilityIndex`) makes this
    index *lease* its per-pattern-node eligible sets instead of owning
    private copies: ``self.eligible[u]`` becomes the shared member set of
    ``pattern.predicate(u)``, maintained once per pool however many
    queries read it.  No index evaluates predicates to repair: a leased
    index's sets are mutated by the substrate before the pool invokes the
    repair entry points, a standalone index's by its driver, and node
    events arrive through :meth:`apply_eligibility_flip_batch`, already
    resolved to gained/lost pattern nodes.

    ``eligible`` hands in private eligible sets the caller already holds
    (the bounded index's pair-graph layers); the predicates are not
    evaluated over the graph.  The bounded index keeps the sets: it moves
    pair nodes in and out of them, as the pool's substrate does with
    shared sets, before it calls :meth:`apply_eligibility_flip_batch`.
    """

    def __init__(
        self,
        pattern: Pattern,
        graph: DiGraph,
        eligibility=None,
        eligible: Optional[MatchRelation] = None,
    ) -> None:
        if not pattern.is_normal():
            raise PatternError(
                "SimulationIndex requires a normal pattern; "
                "use BoundedSimulationIndex for b-patterns"
            )
        self.pattern = pattern
        self.graph = graph
        self._eligibility = eligibility
        self.stats = IncStats()
        self.delta = DeltaLog()
        # Pattern structure is immutable: precompute SCC data once.
        comps = strongly_connected_components(pattern.graph())
        dag, comp_of = condensation(pattern.graph())
        self._components: List[List[PatternNode]] = comps  # sinks first
        self._comp_of: Dict[PatternNode, int] = comp_of
        self._nontrivial: Set[int] = {
            i
            for i, comp in enumerate(comps)
            if len(comp) > 1 or pattern.has_edge(comp[0], comp[0])
        }
        self._scc_edges: Set[PatternEdge] = {
            (u, u2)
            for u, u2 in pattern.edges()
            if comp_of[u] == comp_of[u2]
        }
        # Pattern parents split by component: a promotion hands off to
        # the parents in higher components; an SCC's closure walks the
        # parents inside it.
        self._parents_in_comp: Dict[PatternNode, List[PatternNode]] = {}
        self._parents_above: Dict[PatternNode, List[PatternNode]] = {}
        for u in pattern.nodes():
            parents = list(pattern.parents(u))
            self._parents_in_comp[u] = [
                u0 for u0 in parents if comp_of[u0] == comp_of[u]
            ]
            self._parents_above[u] = [
                u0 for u0 in parents if comp_of[u0] != comp_of[u]
            ]
        self._rebuild(eligible)

    # ------------------------------------------------------------------
    # Initialization / batch recomputation
    # ------------------------------------------------------------------
    def _rebuild(self, eligible: Optional[MatchRelation]) -> None:
        """Batch computation of match/candt and all support counters.

        The eligible sets are taken as handed in (the caller's sets, which
        the caller keeps moving nodes in and out of), or leased
        (:meth:`~repro.incremental.drivers.StandaloneDriver._lease_eligible`).
        """
        if eligible is None:
            eligible = self._lease_eligible()
        self.eligible: MatchRelation = eligible
        # Nodes whose eligibility this index has wired: an insertion
        # endpoint outside it is adopted from the eligible sets before
        # the batch's bookkeeping runs.
        self._registered = set(self.graph.nodes())
        self.match: MatchRelation = maximum_simulation(
            self.pattern, self.graph, candidates=copy_relation(eligible)
        )
        self.candt: MatchRelation = {
            u: eligible[u] - self.match[u] for u in eligible
        }
        self._cnt: Dict[CntKey, int] = {}
        for u, u2 in self.pattern.edges():
            target = self.match[u2]
            for v in eligible[u]:
                c = 0
                for w in self.graph.children(v):
                    if w in target:
                        c += 1
                self._cnt[(u, u2, v)] = c
        # The initial relation is state, not change.
        self.delta.clear()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def matches(self) -> MatchRelation:
        """The paper's maximum match: totalized (empty if non-total)."""
        return totalize(copy_relation(self.match))

    def raw_match_sets(self) -> MatchRelation:
        """Per-node maximal sets without the totality convention."""
        return copy_relation(self.match)

    def is_total(self) -> bool:
        """Does every pattern node currently have at least one match?"""
        return all(self.match[u] for u in self.match)

    def pop_match_delta(self) -> Tuple[Set[Tuple[PatternNode, Node]], Set[Tuple[PatternNode, Node]]]:
        """Net ``(added, removed)`` raw match pairs since the last pop.

        Promotions and demotions that cancel within the window leave no
        trace, so the result is exactly ``raw_now - raw_then`` /
        ``raw_then - raw_now``.  Totalization is the caller's concern.
        """
        added, removed = self.delta.pop()
        return set(added), set(removed)

    def support(self, u: PatternNode, u2: PatternNode, v: Node) -> int:
        return self._cnt.get((u, u2, v), 0)

    # ------------------------------------------------------------------
    # Node registration and eligibility repair
    # ------------------------------------------------------------------
    def _adopt_unseen(
        self, nodes: Iterable[Node]
    ) -> List[Tuple[PatternNode, Node]]:
        """Wire the eligibility of the nodes not registered yet into
        candt/counters, in one :meth:`_adopt`; returns the adopted pairs.

        Membership is read off the eligible sets, which already hold the
        nodes' verdicts: the pool's substrate or the standalone driver
        moved them in before the insertion repair.
        """
        pairs: List[Tuple[PatternNode, Node]] = []
        for v in nodes:
            if v in self._registered:
                continue
            self._registered.add(v)
            pairs.extend(
                (u, v)
                for u in self.pattern.nodes()
                if v in self.eligible[u] and not self._adopted(u, v)
            )
        self._adopt(pairs)
        return pairs

    def _adopted(self, u: PatternNode, v: Node) -> bool:
        """Has this index wired ``v`` into layer ``u``'s bookkeeping?

        Eligibility membership alone does not say: a flip or a fresh node
        reaches the eligible set before the index wires it.
        """
        return v in self.match[u] or v in self.candt[u]

    def _adopt(self, pairs: List[Tuple[PatternNode, Node]]) -> None:
        """Two-phase adoption of eligible ``(layer, node)`` pairs.

        Every pair's eligibility is already visible, so a promotion during
        one pair's adoption walks parent counters that may mention
        another pair — all counters must exist before any promotion runs.
        Phase 1 adds each pair to candt and computes its support counters;
        phase 2 promotes the supported ones (a promotion's counter bumps
        then land on initialized keys; a node matching a childless
        pattern node is promoted right away).  The adopted pairs are the
        caller's seeds: promotions they unlock elsewhere are the job of
        its closing :meth:`_promote`.
        """
        for u, v in pairs:
            self.candt[u].add(v)
            for u2 in self.pattern.children(u):
                c = 0
                for w in self.graph.children(v):
                    if w in self.match[u2]:
                        c += 1
                self._cnt[(u, u2, v)] = c
        for u, v in pairs:
            if v in self.candt[u] and all(
                self._cnt[(u, u2, v)] >= 1
                for u2 in self.pattern.children(u)
            ):
                self._promote_node(u, v)

    def apply_eligibility_flip_batch(
        self,
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]],
    ) -> None:
        """Repair after eligibility flipped for a batch of node events
        (one ``(node, gained layers, lost layers)`` triple per event; the
        eligible sets already final, flips netted per (predicate, node)).

        No predicate is evaluated here: gained layers adopt, lost layers
        demote with the usual cascade, and a promotion pass settles the
        gains.  Counter wiring must complete for **every** gained (layer,
        node) pair across the batch before any promotion or demotion
        runs: the final sets may already contain same-batch gains, and
        both :meth:`_promote_node`'s counter bumps and the demote cascade
        index the counter of any eligible parent.  So the batch runs in
        phases — (1)+(2) :meth:`_adopt` every gain, (3) withdraw all
        losses into one demote cascade, (4) one promotion pass
        (:meth:`_promote`) seeded with the adopted pairs.  A seed still
        a candidate is dirty in its own component; one promoted during
        adoption (and still a match after the cascade) hands its
        candidate parents on as dirty.  Demotions can never enable a
        promotion, so adopting first reaches the same fixpoint as a
        losses-first order, and the pass needs no seed from the losses.
        """
        adopt: List[Tuple[PatternNode, Node]] = []
        for v, gained, _lost in events:
            self._registered.add(v)
            adopt.extend((u, v) for u in gained if not self._adopted(u, v))
        self._adopt(adopt)
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for v, _gained, lost in events:
            for u in lost:
                if self._adopted(u, v):
                    self._withdraw(u, v, queue)
        self._demote_cascade(queue)
        self._promote(adopt)

    def _withdraw(self, u: PatternNode, v: Node, queue) -> None:
        """Unwire ``v`` from layer ``u`` after it left ``u``'s eligible
        set: drop it from candt/match and its counters, seeding the demote
        queue with parents that lose support."""
        if v in self.match[u]:
            self._demote_node(u, v, queue)
        self.candt[u].discard(v)
        for u2 in self.pattern.children(u):
            self._cnt.pop((u, u2, v), None)

    # ------------------------------------------------------------------
    # IncMatch-: deletions
    # ------------------------------------------------------------------
    def _demote_node(self, u: PatternNode, v: Node, queue) -> None:
        """Remove the match ``(u, v)``; parents whose support towards
        ``u`` drops to zero join the demote queue."""
        self.match[u].remove(v)
        self.delta.remove((u, v))
        self.stats.demotions += 1
        for u0 in self.pattern.parents(u):
            for p in self.graph.parents(v):
                if p in self.eligible[u0]:
                    key = (u0, u, p)
                    self._cnt[key] -= 1
                    self.stats.counter_updates += 1
                    if self._cnt[key] == 0 and p in self.match[u0]:
                        queue.append((u0, p))

    def _demote_cascade(self, queue: Deque[Tuple[PatternNode, Node]]) -> None:
        while queue:
            u, v = queue.popleft()
            if v not in self.match[u]:
                continue
            if all(
                self._cnt[(u, u2, v)] >= 1 for u2 in self.pattern.children(u)
            ):
                continue  # support restored meanwhile
            self.candt[u].add(v)
            self._demote_node(u, v, queue)

    def repair_deleted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncMatch- for edges already removed from the graph: deleting an
        ss edge may zero a support counter; demotions cascade to graph
        parents."""
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for v, w in edges:
            for u, u2 in self.pattern.edges():
                if v in self.eligible[u] and w in self.match[u2]:
                    key = (u, u2, v)
                    self._cnt[key] -= 1
                    self.stats.counter_updates += 1
                    if self._cnt[key] == 0 and v in self.match[u]:
                        queue.append((u, v))
        self._demote_cascade(queue)

    # ------------------------------------------------------------------
    # IncMatch+: insertions and the promotion pass
    # ------------------------------------------------------------------
    def _insert_bookkeeping(
        self, v: Node, w: Node, seeds: List[Tuple[PatternNode, Node]]
    ) -> None:
        """Counter updates for a fresh edge; appends its tail to ``seeds``
        per pattern edge the edge triggers (Prop. 5.2): a cs pair (the
        tail a candidate, the head a match), or a cc pair inside a
        pattern SCC."""
        for u, u2 in self.pattern.edges():
            if v in self.eligible[u]:
                if w in self.match[u2]:
                    self._cnt[(u, u2, v)] += 1
                    self.stats.counter_updates += 1
                    if v in self.candt[u]:
                        seeds.append((u, v))
                elif (
                    w in self.candt[u2]
                    and v in self.candt[u]
                    and (u, u2) in self._scc_edges
                ):
                    seeds.append((u, v))

    def _promote_node(self, u: PatternNode, v: Node) -> None:
        self.candt[u].remove(v)
        self.match[u].add(v)
        self.delta.add((u, v))
        self.stats.promotions += 1
        for u0 in self.pattern.parents(u):
            for p in self.graph.parents(v):
                if p in self.eligible[u0]:
                    self._cnt[(u0, u, p)] += 1
                    self.stats.counter_updates += 1

    def _hand_off(
        self,
        v: Node,
        parents: Iterable[PatternNode],
        dirty: Dict[int, Set[Tuple[PatternNode, Node]]],
    ) -> None:
        """Mark dirty, each in its own component, the candidate graph
        parents of a new match ``v`` in the pattern parents ``parents``."""
        for u0 in parents:
            cand = self.candt[u0]
            found = [(u0, p) for p in self.graph.parents(v) if p in cand]
            if found:
                dirty.setdefault(self._comp_of[u0], set()).update(found)

    def _promote(self, seeds: Iterable[Tuple[PatternNode, Node]]) -> None:
        """IncMatch+ promotion (propCS + propCC) over the area ``seeds``
        can affect.

        A seed is a ``(pattern node, data node)`` pair whose support may
        have grown: an adopted pair, or the tail of an inserted edge that
        hit a Prop. 5.2 trigger.  A seed still a candidate is dirty in
        its component; one that is already a match (promoted during
        adoption) marks its candidate graph parents dirty instead.  The
        pattern condensation is then visited sinks first, so every
        component sees the final matches of the components below it:

        - a trivial component promotes each dirty candidate whose
          counters are all ``>= 1``;
        - a nontrivial SCC (more than one node, or a self-loop) takes
          the backward closure of its dirty candidates over candidate
          edges whose pattern edge stays inside the SCC, and runs the
          coinductive assume-refine over match ∪ closure (see
          :meth:`_promote_scc`).

        Every promotion marks its candidate parents in higher components
        dirty.

        Why the closure is exact: suppose some new matches of a component
        reach no seed.  Then they use only old edges, old counters and
        old candidates, so together with the old matches they were
        already self-supporting before the update, and the old maximum
        would have held them.  (Every way support can grow is a seed or a
        hand-off: a new edge into a match is a cs trigger, a new edge
        between candidates of one SCC a cc trigger, a new candidate an
        adopted pair, and a new match hands off to its parents.)
        Induction over the components, sinks first, covers the edges
        that cross components.  After a flip batch's demote cascade the
        same holds: the cascade leaves the greatest fixpoint below the
        old maximum plus the adopted matches, and demotions grow no
        support.
        """
        dirty: Dict[int, Set[Tuple[PatternNode, Node]]] = {}
        for u, v in seeds:
            if v in self.match[u]:
                self._hand_off(v, self.pattern.parents(u), dirty)
            elif v in self.candt[u]:
                dirty.setdefault(self._comp_of[u], set()).add((u, v))
        for idx, comp in enumerate(self._components):
            if not dirty:
                return
            pending = dirty.pop(idx, None)
            if pending is None:
                continue
            if idx in self._nontrivial:
                self._promote_scc(comp, pending, dirty)
                continue
            u = comp[0]
            children = self.pattern.children(u)
            for _, v in pending:
                self.stats.candidates_examined += 1
                if all(self._cnt[(u, u2, v)] >= 1 for u2 in children):
                    self._promote_node(u, v)
                    self._hand_off(v, self._parents_above[u], dirty)

    def _promote_scc(
        self,
        comp: List[PatternNode],
        pending: Set[Tuple[PatternNode, Node]],
        dirty: Dict[int, Set[Tuple[PatternNode, Node]]],
    ) -> None:
        """propCC on one nontrivial SCC, over the backward closure of its
        dirty candidates.

        The closure holds every candidate that can reach a dirty one over
        candidate edges whose pattern edge stays inside the SCC.  The
        refine assumes all of it matches and drops, until nothing
        changes, each candidate with an unmet obligation: an edge leaving
        the SCC needs a counter ``>= 1`` (the components below are
        settled); an edge inside it needs a counter ``>= 1`` or a child
        still in the closure.  The survivors are promoted, and hand off
        to their candidate parents outside the SCC — a candidate parent
        inside it is in the closure, so it was promoted or refuted here.
        """
        closure: Dict[PatternNode, Set[Node]] = {u: set() for u in comp}
        for u, v in pending:
            closure[u].add(v)
        stack = list(pending)
        while stack:
            u, v = stack.pop()
            for u0 in self._parents_in_comp[u]:
                cand = self.candt[u0]
                seen = closure[u0]
                for p in self.graph.parents(v):
                    if p in cand and p not in seen:
                        seen.add(p)
                        stack.append((u0, p))
        changed = True
        while changed:
            changed = False
            for u in comp:
                drop: List[Node] = []
                for v in closure[u]:
                    self.stats.candidates_examined += 1
                    for u2 in self.pattern.children(u):
                        if self._cnt[(u, u2, v)] >= 1:
                            continue
                        if (u, u2) in self._scc_edges:
                            target = closure[u2]
                            if any(
                                c in target for c in self.graph.children(v)
                            ):
                                continue
                        drop.append(v)
                        break
                if drop:
                    closure[u].difference_update(drop)
                    changed = True
        for u in comp:
            for v in closure[u]:
                self._promote_node(u, v)
                self._hand_off(v, self._parents_above[u], dirty)

    def repair_inserted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncMatch+ for edges already added to the graph: one promotion
        pass (:meth:`_promote`) from the batch's seeds.

        Endpoints the index has not registered yet are adopted first,
        from the eligible sets, in one adoption.  Their counters are
        computed against the *current* graph (all batch edges included),
        so their adopted pairs are seeds, and bookkeeping runs only for
        edges whose endpoints were both registered before; each such
        edge that hits a Prop. 5.2 trigger seeds its tail.
        """
        edges = list(edges)
        fresh = dict.fromkeys(
            node
            for edge in edges
            for node in edge
            if node not in self._registered
        )
        seeds = self._adopt_unseen(fresh)
        for v, w in edges:
            if v in fresh or w in fresh:
                continue  # registration already counted this edge
            self._insert_bookkeeping(v, w, seeds)
        self._promote(seeds)

    # ------------------------------------------------------------------
    # minDelta and the IncMatch batch driver
    # ------------------------------------------------------------------
    def min_delta(self, updates: Iterable[Update]) -> List[Update]:
        """The minDelta reduction (Section 5.2) *without* applying anything.

        Cancels same-edge insert/delete pairs against the current graph and
        drops updates that cannot affect the match (not ss for deletions,
        not cs / cc-in-SCC for insertions).  Dropped updates still have to
        be applied to the graph — only their propagation is skipped — so
        this returns the *relevant* sublist; callers use
        :meth:`apply_batch`, which performs both steps.
        """
        net = net_updates(self.graph, updates)
        relevant: List[Update] = []
        for upd in net:
            v, w = upd.edge
            if upd.op == "delete":
                keep = any(
                    v in self.match[u] and w in self.match[u2]
                    for u, u2 in self.pattern.edges()
                )
            else:
                keep = False
                for u, u2 in self.pattern.edges():
                    v_cand = v in self.candt[u] or (
                        v not in self.eligible[u]
                        and v in self.graph
                        and self.pattern.predicate(u).satisfied_by(
                            self.graph.attrs(v)
                        )
                    )
                    if not v_cand:
                        continue
                    if w in self.match[u2]:
                        keep = True
                        break
                    if (u, u2) in self._scc_edges and (
                        w in self.candt[u2]
                        or (
                            w in self.graph
                            and w not in self.eligible[u2]
                            and self.pattern.predicate(u2).satisfied_by(
                                self.graph.attrs(w)
                            )
                        )
                    ):
                        keep = True
                        break
            if keep:
                relevant.append(upd)
        return relevant

    def apply_batch(self, updates: Iterable[Update]) -> None:
        """IncMatch: the minDelta cancellation nets the batch, then one
        demotion cascade and one promotion pass."""
        updates = list(updates)
        net = self._drive(updates)
        self.stats.original_updates += len(updates)
        self.stats.reduced_updates += len(net)

    # ------------------------------------------------------------------
    # Invariant check (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the counter/match invariants; raises AssertionError."""
        for u, u2 in self.pattern.edges():
            for v in self.eligible[u]:
                expect = sum(
                    1 for w in self.graph.children(v) if w in self.match[u2]
                )
                actual = self._cnt.get((u, u2, v), 0)
                assert actual == expect, (
                    f"counter drift at ({u}, {u2}, {v}): {actual} != {expect}"
                )
        for u in self.pattern.nodes():
            assert not (self.match[u] & self.candt[u])
            assert self.match[u] | self.candt[u] == self.eligible[u]
            for v in self.match[u]:
                for u2 in self.pattern.children(u):
                    assert self._cnt[(u, u2, v)] >= 1, (
                        f"match ({u}, {v}) has zero support towards {u2}"
                    )
