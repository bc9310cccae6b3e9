"""Incremental graph simulation (paper Section 5).

:class:`SimulationIndex` maintains the maximum simulation of a normal
pattern in a data graph under edge updates, together with the auxiliary
structures of the paper — ``match()``, ``candt()``, and per-(pattern-edge,
node) support counters (the "local information": how many children of a
candidate currently match the target pattern node).

Each paper algorithm has one implementation, run on edits already made
to the graph (the pool's shared graph or this index's own):

- ``repair_deleted_edges`` — **IncMatch-** (O(|AFF|)): deleting an ss
  edge may zero a support counter; demotions cascade to graph parents.
- ``repair_inserted_edges`` — **IncMatch+dag** (worklist promotion,
  complete for DAG patterns) and **IncMatch+** (general patterns: the
  worklist plays ``propCS``, and a bottom-up pass over the pattern
  condensation performs the coinductive ``propCC`` refinement of Fig. 9).
- ``apply_eligibility_flip_batch`` — attribute changes, resolved to
  gained/lost pattern nodes: gains adopt, losses demote with the cascade.

The standalone entry points are drivers over them
(:class:`~repro.incremental.drivers.StandaloneDriver`).  ``apply_batch``
is **IncMatch** (batch updates): the ``minDelta`` cancellation nets the
batch, then the deletions are removed and repaired in one demotion
cascade and the insertions added and repaired in one promotion pass.
A unit update is a batch of one: ``insert_edge``/``delete_edge`` run
the same path, and ``apply_batch_naive`` (**IncMatch_n**, the paper's
naive baseline) feeds the updates one at a time.  ``update_node_attrs``
re-evaluates one node's predicates and repairs the flips.

The central invariant (checked by the test suite): a predicate-eligible
node is in ``match(u)`` iff every outgoing pattern edge has support
``>= 1``; candidates always have some zero counter.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.scc import condensation, strongly_connected_components
from ..patterns.pattern import Pattern, PatternError, PatternNode
from ..matching.relation import MatchRelation, copy_relation, totalize
from ..matching.simulation import candidate_sets, maximum_simulation
from .delta import DeltaLog
from .drivers import StandaloneDriver
from .types import Update, net_updates

PatternEdge = Tuple[PatternNode, PatternNode]
CntKey = Tuple[PatternNode, PatternNode, Node]


class IncStats:
    """Work counters: |AFF| proxies and minDelta effectiveness."""

    __slots__ = (
        "promotions",
        "demotions",
        "counter_updates",
        "candidates_examined",
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
    queries read it.  A leased index never evaluates predicates or
    mutates the sets itself — the substrate mutates them before the pool
    invokes the repair entry points, and attribute-driven eligibility
    changes arrive through :meth:`apply_eligibility_flip_batch` (already
    resolved to gained/lost pattern nodes) rather than
    :meth:`update_node_attrs`.
    """

    def __init__(
        self, pattern: Pattern, graph: DiGraph, eligibility=None
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
        self._has_cycles = bool(self._nontrivial)
        self._scc_edges: Set[PatternEdge] = {
            (u, u2)
            for u, u2 in pattern.edges()
            if comp_of[u] == comp_of[u2]
        }
        self._rebuild()

    # ------------------------------------------------------------------
    # Initialization / batch recomputation
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Batch computation of match/candt and all support counters."""
        if self._eligibility is not None:
            # Shared read-views: one leased set per pattern-node predicate
            # (pattern nodes with equal predicates alias the same object).
            eligible = {
                u: self._eligibility.lease(self.pattern.predicate(u)).members
                for u in self.pattern.nodes()
            }
        else:
            eligible = candidate_sets(self.pattern, self.graph)
        self.eligible: MatchRelation = eligible
        # Nodes whose predicates have been evaluated; registration of a
        # known node is a no-op unless add_node refreshes its attributes.
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
    def add_node(self, v: Node, **attrs) -> None:
        """Register a (possibly new) node, re-evaluating its predicates.

        If the node was already wired into the graph and its fresh
        attributes create matches, a full promotion pass propagates them.
        """
        self.graph.add_node(v, **attrs)
        before = self.stats.promotions
        self._registered.discard(v)  # attributes may have changed
        self._register_node(v)
        if self.stats.promotions > before and (
            self.graph.parents(v) or self.graph.children(v)
        ):
            self._promote_sweep()

    def _register_node(self, v: Node) -> bool:
        """Wire a node's eligibility into candt/counters; True iff unseen.

        A standalone index evaluates the node's predicates once; a leased
        index reads membership off the shared sets (the substrate
        evaluated each distinct predicate once for the whole pool).
        Either way the layers the index has not wired yet are adopted.
        """
        if v in self._registered:
            return False
        self._registered.add(v)
        if self._eligibility is None:
            attrs = self.graph.attrs(v)
            for u in self.pattern.nodes():
                if v not in self.eligible[u] and self.pattern.predicate(
                    u
                ).satisfied_by(attrs):
                    self.eligible[u].add(v)
        self._adopt(
            [
                (u, v)
                for u in self.pattern.nodes()
                if v in self.eligible[u] and not self._adopted(u, v)
            ]
        )
        return True

    def _adopted(self, u: PatternNode, v: Node) -> bool:
        """Has this index wired ``v`` into layer ``u``'s bookkeeping?

        Eligibility membership alone does not say: a flip or a fresh node
        reaches the eligible set before the index wires it.
        """
        return v in self.match[u] or v in self.candt[u]

    def _adopt(self, pairs: List[Tuple[PatternNode, Node]]) -> bool:
        """Two-phase adoption of eligible ``(layer, node)`` pairs.

        Every pair's eligibility is already visible, so a promotion during
        one pair's adoption walks parent counters that may mention
        another pair — all counters must exist before any promotion runs.
        Phase 1 adds each pair to candt and computes its support counters;
        phase 2 promotes the supported ones (a promotion's counter bumps
        then land on initialized keys; a node matching a childless
        pattern node is promoted right away).  Returns whether anything
        was promoted; promotions unlocked *across* the adopted pairs are
        the caller's trailing sweep's job.
        """
        for u, v in pairs:
            self.candt[u].add(v)
            for u2 in self.pattern.children(u):
                c = 0
                for w in self.graph.children(v):
                    if w in self.match[u2]:
                        c += 1
                self._cnt[(u, u2, v)] = c
        promoted = False
        for u, v in pairs:
            if v in self.candt[u] and all(
                self._cnt[(u, u2, v)] >= 1
                for u2 in self.pattern.children(u)
            ):
                self._promote_node(u, v)
                promoted = True
        return promoted

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
        losses into one demote cascade, (4) one closing promotion sweep.
        Demotions can never enable a promotion, so adopting first reaches
        the same fixpoint as a losses-first order.
        """
        adopt: List[Tuple[PatternNode, Node]] = []
        for v, gained, _lost in events:
            self._registered.add(v)
            adopt.extend((u, v) for u in gained if not self._adopted(u, v))
        promoted = self._adopt(adopt)
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for v, _gained, lost in events:
            for u in lost:
                if self._adopted(u, v):
                    self._withdraw(u, v, queue)
        self._demote_cascade(queue)
        if adopt and (promoted or self._has_cycles):
            # New candidacy can unlock further promotions (or coinductive
            # SCC promotions); one sweep settles everything.
            self._promote_sweep()

    def retire_node(self, v: Node) -> None:
        """Forcibly drop ``v`` from every eligible set (with cascades).

        Used by the bounded-simulation layer to retire pair-graph nodes;
        also handy when a node is being deleted from the data graph.
        Unavailable on shared eligible sets (they mirror predicate truth,
        which retirement would falsify for every other leaseholder).
        """
        if self._eligibility is not None:
            raise RuntimeError(
                "cannot retire nodes from shared eligible sets"
            )
        lost = [u for u in self.pattern.nodes() if v in self.eligible[u]]
        for u in lost:
            self.eligible[u].remove(v)
        self.apply_eligibility_flip_batch([(v, [], lost)])

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
    # IncMatch+ / IncMatch+dag: insertions
    # ------------------------------------------------------------------
    def _insert_bookkeeping(self, v: Node, w: Node) -> Tuple[bool, bool]:
        """Counter updates for a fresh edge; returns (cs touched, cc-in-SCC
        touched) — the triggers of Prop. 5.2."""
        cs_touched = False
        cc_scc_touched = False
        for u, u2 in self.pattern.edges():
            if v in self.eligible[u]:
                if w in self.match[u2]:
                    self._cnt[(u, u2, v)] += 1
                    self.stats.counter_updates += 1
                    if v in self.candt[u]:
                        cs_touched = True
                elif (
                    w in self.candt[u2]
                    and v in self.candt[u]
                    and (u, u2) in self._scc_edges
                ):
                    cc_scc_touched = True
        return cs_touched, cc_scc_touched

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

    def _promote_worklist(self, queue: Deque[Tuple[PatternNode, Node]]) -> None:
        """propCS: promote candidates supported by current matches; complete
        on its own for DAG patterns (IncMatch+dag)."""
        while queue:
            u, v = queue.popleft()
            if v not in self.candt[u]:
                continue
            self.stats.candidates_examined += 1
            if not all(
                self._cnt[(u, u2, v)] >= 1 for u2 in self.pattern.children(u)
            ):
                continue
            self._promote_node(u, v)
            for u0 in self.pattern.parents(u):
                for p in self.graph.parents(v):
                    if p in self.candt[u0]:
                        queue.append((u0, p))

    def _promote_sweep(self) -> None:
        """propCS + propCC: one bottom-up pass over the pattern condensation.

        Trivial components promote supported candidates directly; nontrivial
        SCCs run a coinductive assume-refine over match U candt, checking
        intra-SCC obligations against the assumed sets and extra-SCC
        obligations against the (already settled) support counters.
        """
        for idx, comp in enumerate(self._components):
            if idx not in self._nontrivial:
                u = comp[0]
                for v in list(self.candt[u]):
                    self.stats.candidates_examined += 1
                    if all(
                        self._cnt[(u, u2, v)] >= 1
                        for u2 in self.pattern.children(u)
                    ):
                        self._promote_node(u, v)
                continue
            comp_set = set(comp)
            assumed: Dict[PatternNode, Set[Node]] = {
                u: self.match[u] | self.candt[u] for u in comp
            }
            changed = True
            while changed:
                changed = False
                for u in comp:
                    drop: List[Node] = []
                    for v in assumed[u]:
                        if v in self.match[u]:
                            continue  # existing matches stay valid
                        self.stats.candidates_examined += 1
                        ok = True
                        for u2 in self.pattern.children(u):
                            if u2 in comp_set:
                                target = assumed[u2]
                                if not any(
                                    c in target
                                    for c in self.graph.children(v)
                                ):
                                    ok = False
                                    break
                            elif self._cnt[(u, u2, v)] < 1:
                                ok = False
                                break
                        if not ok:
                            drop.append(v)
                    if drop:
                        assumed[u].difference_update(drop)
                        changed = True
            for u in comp:
                for v in list(assumed[u]):
                    if v not in self.match[u]:
                        self._promote_node(u, v)

    def repair_inserted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncMatch+ for edges already added to the graph: the worklist
        (IncMatch+dag) when only cs pairs changed on a DAG pattern,
        otherwise one propCS + propCC sweep.

        Endpoints the index has never evaluated are registered first;
        their counters are computed against the *current* graph (all batch
        edges included), so explicit bookkeeping is only performed for
        edges whose endpoints were both already registered.
        """
        edges = list(edges)
        fresh: Set[Node] = set()
        reg_promoted: List[Tuple[PatternNode, Node]] = []
        for v, w in edges:
            for node in (v, w):
                if self._register_node(node):
                    fresh.add(node)
                    for u in self.pattern.nodes():
                        if node in self.match[u]:
                            reg_promoted.append((u, node))
        needs_worklist = bool(reg_promoted)
        needs_scc = False
        for v, w in edges:
            if v in fresh or w in fresh:
                continue  # registration already counted this edge
            cs, cc_scc = self._insert_bookkeeping(v, w)
            needs_worklist = needs_worklist or cs
            needs_scc = needs_scc or cc_scc
        if fresh and self._has_cycles:
            # A fresh candidate may complete an intra-SCC cycle through
            # pre-existing edges the bookkeeping above never sees.
            needs_scc = True
        if needs_scc or (needs_worklist and self._has_cycles):
            self._promote_sweep()
            return
        if not needs_worklist:
            return
        seeds: Deque[Tuple[PatternNode, Node]] = deque()
        for v, w in edges:
            for u, u2 in self.pattern.edges():
                if v in self.candt[u] and w in self.match[u2]:
                    seeds.append((u, v))
        # Nodes promoted during registration may unlock their parents
        # through edges outside this batch.
        for u, z in reg_promoted:
            for u0 in self.pattern.parents(u):
                for p in self.graph.parents(z):
                    if p in self.candt[u0]:
                        seeds.append((u0, p))
        self._promote_worklist(seeds)

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

    def release(self) -> None:
        """Release shared-eligibility leases (pool unregister); idempotent.

        A released index must not be driven again — its eligible views
        may be dropped by the substrate once the last lease is gone.
        """
        if self._eligibility is None:
            return
        for u in self.pattern.nodes():
            self._eligibility.release(self.pattern.predicate(u))
        self._eligibility = None

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
