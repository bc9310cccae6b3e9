"""Interval-encoded reachability over the SCC condensation.

:class:`IntervalReachabilityIndex` answers "does ``x`` reach ``y`` (along a
possibly-empty path)" in near-O(1) by labelling the condensation DAG
(:func:`repro.graphs.scc.condensation`) with two encodings:

* **DFS tree intervals** ``pre/post``: if ``v``'s interval nests inside
  ``u``'s, then ``v`` is a tree descendant of ``u`` — a *fast accept* with
  no false positives.
* **GRAIL-style min-postorder labels**: Tarjan emits components sinks
  first, so every condensation edge goes to a *smaller* component index —
  the component index itself is a valid postorder rank.  With
  ``low[c] = min(c, min over successors)``, ``u`` can only reach ``v`` when
  ``low[u] <= v < u`` — a *fast reject* with no false negatives.

Queries that pass the reject test but miss the accept test fall back to a
DFS over the condensation, pruned by both labels; same-component pairs are
always reachable.  On DAG-like graphs (the common case for the paper's
workloads) almost every query is decided by the labels alone.

Maintenance is a **budgeted rebuild-on-dirty** policy keyed to the
soundness direction of staleness:

* an *inserted* edge can only create reachability, so a stale index errs
  toward ``False`` — unsound for update routing (a missed pair is a missed
  repair).  Insertions therefore force a rebuild before the next consult.
* a *deleted* edge can only destroy reachability, so a stale index errs
  toward ``True`` — a sound over-approximation for routing.  Deletions are
  tolerated up to ``rebuild_budget`` before the routing entry point
  (:meth:`may_reach`) rebuilds; the exact entry point (:meth:`reachable`)
  always rebuilds when dirty.

:meth:`closure_components` turns an eligible-node set into the set of
condensation components it reaches (or that reach it), making per-edge
routing consults O(1) set-membership — sublinear in the eligible set —
once a :class:`ReachClosure` caches it against the labelling version and
the member set's version (see ``engine/distances.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from . import kernels
from .digraph import DiGraph
from .scc import condensation
from .traversal import reachable_set

Node = Hashable


class IntervalReachabilityIndex:
    """Pre/post-interval reachability oracle with budgeted rebuilds.

    Reachability here is *reflexive*: every node reaches itself along the
    empty path.  Nodes unknown to the current labelling (added after the
    last rebuild, necessarily edge-less — any edge touching them forces a
    rebuild) are treated as isolated.
    """

    __slots__ = (
        "_graph",
        "_budget",
        "_comp_of",
        "_dag_children",
        "_dag_parents",
        "_dag_csr",
        "_pre",
        "_post",
        "_low",
        "_dirty_inserts",
        "_dirty_deletes",
        "_version",
        "rebuild_count",
        "consult_count",
        "fallback_count",
    )

    def __init__(self, graph: DiGraph, rebuild_budget: int = 32) -> None:
        if rebuild_budget < 0:
            raise ValueError("rebuild_budget must be >= 0")
        self._graph = graph
        self._budget = rebuild_budget
        self._dirty_inserts = 0
        self._dirty_deletes = 0
        self._version = 0
        self.rebuild_count = 0
        self.consult_count = 0
        self.fallback_count = 0
        self._rebuild()

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        # Columnar graphs expose a numpy condensation kernel that skips
        # the intermediate DAG object entirely (and hands back CSR arrays
        # for vectorized closures); it returns None when the kernels are
        # inactive, and other backends lack the hook — both fall back to
        # the generic condensation twin.
        fast = getattr(self._graph, "_condensation_lists", None)
        built = fast() if fast is not None else None
        if built is not None:
            n, children, parents, comp_of, dag_csr = built
        else:
            dag, comp_of = condensation(self._graph)
            n = dag.num_nodes()
            children = [[] for _ in range(n)]
            parents = [[] for _ in range(n)]
            for c in range(n):
                for b in dag.children(c):
                    children[c].append(b)
                    parents[b].append(c)
            dag_csr = None
        self._dag_csr = dag_csr
        # GRAIL-style reject label: every condensation edge (c -> b) has
        # b < c (Tarjan is sinks-first), so the component index is a valid
        # postorder rank; fold the minimum over successors bottom-up.
        low = list(range(n))
        for c in range(n):
            lc = low[c]
            for b in children[c]:
                lb = low[b]
                if lb < lc:
                    lc = lb
            low[c] = lc
        # DFS tree intervals for the fast accept.  Roots are taken in
        # decreasing component index (topological order sources-first) so
        # every component is reached.
        pre = [0] * n
        post = [0] * n
        visited = [False] * n
        clock = 0
        for root in range(n - 1, -1, -1):
            if visited[root]:
                continue
            visited[root] = True
            pre[root] = clock
            clock += 1
            stack: List[Tuple[int, int]] = [(root, 0)]
            while stack:
                c, idx = stack[-1]
                kids = children[c]
                advanced = False
                while idx < len(kids):
                    b = kids[idx]
                    idx += 1
                    if not visited[b]:
                        visited[b] = True
                        pre[b] = clock
                        clock += 1
                        stack[-1] = (c, idx)
                        stack.append((b, 0))
                        advanced = True
                        break
                if advanced:
                    continue
                stack.pop()
                post[c] = clock
                clock += 1
        self._comp_of = comp_of
        self._dag_children = children
        self._dag_parents = parents
        self._pre = pre
        self._post = post
        self._low = low
        self._dirty_inserts = 0
        self._dirty_deletes = 0
        self._version += 1
        self.rebuild_count += 1

    # ------------------------------------------------------------------
    # Dirty notifications
    # ------------------------------------------------------------------
    def notify_edges_inserted(self, count: int = 1) -> None:
        """Record edge insertions (forces a rebuild at the next consult)."""
        if count:
            self._dirty_inserts += count

    def notify_edges_deleted(self, count: int = 1) -> None:
        """Record edge deletions (tolerated up to the budget)."""
        if count:
            self._dirty_deletes += count

    def notify_node_removed(self) -> None:
        """A node removal only destroys reachability — treat as a delete."""
        self._dirty_deletes += 1

    # Node additions are free: a fresh node is edge-less (any edge touching
    # it arrives as an insertion and forces a rebuild), and unknown nodes
    # already get isolated semantics.

    @property
    def version(self) -> int:
        """Incremented on every rebuild; lets cached closures detect
        staleness."""
        return self._version

    @property
    def dirty(self) -> bool:
        return bool(self._dirty_inserts or self._dirty_deletes)

    def refresh_for_routing(self) -> None:
        """Apply the routing-entry rebuild policy without answering a
        query: rebuild iff any insertion is pending or deletions exceed
        the budget."""
        if self._dirty_inserts or self._dirty_deletes > self._budget:
            self._rebuild()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable(self, x: Node, y: Node) -> bool:
        """Exact reflexive reachability; rebuilds whenever dirty."""
        if self._dirty_inserts or self._dirty_deletes:
            self._rebuild()
        return self._reach_current(x, y)

    def may_reach(self, x: Node, y: Node) -> bool:
        """Routing-grade reachability: never falsely ``False``.

        Exact when clean; after tolerated deletions it may answer ``True``
        for a pair whose last path was just deleted (sound for routing).
        """
        self.refresh_for_routing()
        return self._reach_current(x, y)

    def _reach_current(self, x: Node, y: Node) -> bool:
        self.consult_count += 1
        comp_of = self._comp_of
        cu = comp_of.get(x)
        cv = comp_of.get(y)
        if cu is None or cv is None:
            return x == y
        return self._dag_reaches(cu, cv)

    def _dag_reaches(self, cu: int, cv: int) -> bool:
        if cu == cv:
            return True
        # Fast reject: cv outside cu's reachable postorder window.
        if not (self._low[cu] <= cv < cu):
            return False
        pre = self._pre
        post = self._post
        tpre = pre[cv]
        tpost = post[cv]
        # Fast accept: cv is a DFS-tree descendant of cu.
        if pre[cu] <= tpre and tpost <= post[cu]:
            return True
        # Exact fallback: DFS pruned by both labels.
        self.fallback_count += 1
        low = self._low
        children = self._dag_children
        seen = {cu}
        stack = [cu]
        while stack:
            c = stack.pop()
            for b in children[c]:
                if b == cv:
                    return True
                if b in seen:
                    continue
                if not (low[b] <= cv < b):
                    continue
                if pre[b] <= tpre and tpost <= post[b]:
                    return True
                seen.add(b)
                stack.append(b)
        return False

    # ------------------------------------------------------------------
    # Component-space helpers (for cached source closures)
    # ------------------------------------------------------------------
    def component_of(self, node: Node) -> Optional[int]:
        """The condensation component of ``node`` under the current
        labelling, or ``None`` for unknown (isolated) nodes."""
        return self._comp_of.get(node)

    def closure_components(
        self, sources: Iterable[Node], reverse: bool = False
    ) -> Set[int]:
        """Components reachable from ``sources`` (``reverse=True``:
        components that *reach* them), under the routing rebuild policy.

        Membership of ``component_of(x)`` in the result answers a routing
        consult in O(1); recompute when :attr:`version` changes or the
        source set does.
        """
        self.refresh_for_routing()
        comp_of = self._comp_of
        if self._dag_csr is not None and kernels.use_numpy():
            seeds: Set[int] = set()
            for s in sources:
                c = comp_of.get(s)
                if c is not None:
                    seeds.add(c)
            if not seeds:
                return set()
            fwd_ptr, fwd_idx, rev_ptr, rev_idx = self._dag_csr
            indptr, indices = (
                (rev_ptr, rev_idx) if reverse else (fwd_ptr, fwd_idx)
            )
            reached = kernels.reachable_csr(indptr, indices, sorted(seeds))
            return set(reached.tolist())
        adj = self._dag_parents if reverse else self._dag_children
        seen: Set[int] = set()
        stack: List[int] = []
        for s in sources:
            c = comp_of.get(s)
            if c is not None and c not in seen:
                seen.add(c)
                stack.append(c)
        while stack:
            c = stack.pop()
            for b in adj[c]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "rebuilds": self.rebuild_count,
            "consults": self.consult_count,
            "fallbacks": self.fallback_count,
            "dirty_inserts": self._dirty_inserts,
            "dirty_deletes": self._dirty_deletes,
        }

    def check_exact(self) -> None:
        """Test hook: after a forced rebuild, compare every pair against a
        BFS ground truth.  O(|V|·(|V|+|E|)) — test-only."""
        self._rebuild()
        nodes = list(self._graph.nodes())
        for x in nodes:
            truth = reachable_set(self._graph, [x])
            for y in nodes:
                expected = y in truth
                got = self._reach_current(x, y)
                if got != expected:
                    raise AssertionError(
                        f"interval oracle wrong on ({x!r}, {y!r}): "
                        f"got {got}, expected {expected}"
                    )


class ReachClosure:
    """A cached source closure: O(1) routing consults against one
    eligible-member set.

    Wraps :meth:`IntervalReachabilityIndex.closure_components` over a
    *live* member set: ``eligible`` is any object exposing ``members``
    (mutated in place by its owner) and a ``version`` counter its owner
    bumps on every membership change, such as a leased
    :class:`~repro.engine.eligibility.EligibleSet`.  The closure
    recomputes at most once per (labelling version, member-set version),
    so per-edge routing consults are O(1) membership tests, sublinear in
    the eligible set.

    ``reverse=False`` answers "is ``x`` reachable *from* some member";
    ``reverse=True`` answers "does ``x`` reach some member".
    """

    __slots__ = ("_reach", "eligible", "reverse", "_comps", "_stamp")

    def __init__(
        self,
        reach: IntervalReachabilityIndex,
        eligible,
        reverse: bool = False,
    ) -> None:
        self._reach = reach
        self.eligible = eligible
        self.reverse = reverse
        self._comps: Set[int] = set()
        # (labelling version, member-set version) _comps was computed at.
        self._stamp: Optional[Tuple[int, int]] = None

    def contains(self, node: Node) -> bool:
        """May ``node`` be reached from (``reverse``: reach) a member?

        Sound under the routing rebuild policy of the underlying index:
        never falsely ``False``.
        """
        reach = self._reach
        reach.refresh_for_routing()
        eligible = self.eligible
        stamp = (reach.version, eligible.version)
        if stamp != self._stamp:
            self._comps = reach.closure_components(
                eligible.members, self.reverse
            )
            self._stamp = stamp
        c = reach.component_of(node)
        if c is None:
            # Unknown to the labelling: a fresh edge-less node.  It routes
            # iff it is itself a member (empty-path reachability).
            return node in eligible.members
        return c in self._comps
