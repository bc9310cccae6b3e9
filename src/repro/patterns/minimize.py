"""Pattern minimization for simulation queries.

Fan et al.'s companion work ("Graph pattern matching: from intractable to
polynomial time", PVLDB 2010) shows that patterns can be *minimized* before
matching: pattern nodes that simulate each other have identical match sets
in every data graph, so the query can run on the quotient pattern.  The
paper reproduced here lists optimization of (incremental) matching as open
work (Section 9); this module supplies the classic batch-side optimization.

Formally, let ``R`` be the maximum relation on ``Vp x Vp`` with
``(x, y) in R`` iff ``fV(x) = fV(y)`` and every pattern edge ``(x, x')``
is matched by some ``(y, y')`` with ``(x', y') in R`` ("y simulates x").
If ``(x, y)`` and ``(y, x)`` are both in ``R`` then ``match(x) = match(y)``
in every graph, and the quotient by this equivalence — with an edge between
classes whenever any members have one — has the same per-class match sets.

Minimization is defined on *normal* patterns (uniform bounds); b-patterns
would additionally need bound dominance in ``R``, which the companion paper
develops but this query class does not require.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .pattern import Bound, Pattern, PatternError, PatternNode


def pattern_self_simulation(pattern: Pattern) -> Set[Tuple[PatternNode, PatternNode]]:
    """The maximum 'y simulates x' relation on the pattern's own nodes."""
    nodes = list(pattern.nodes())
    rel: Set[Tuple[PatternNode, PatternNode]] = {
        (x, y)
        for x in nodes
        for y in nodes
        if pattern.predicate(x) == pattern.predicate(y)
    }
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            ok = True
            for x2 in pattern.children(x):
                if not any(
                    (x2, y2) in rel for y2 in pattern.children(y)
                ):
                    ok = False
                    break
            if not ok:
                rel.discard((x, y))
                changed = True
    return rel


def equivalence_classes(pattern: Pattern) -> List[FrozenSet[PatternNode]]:
    """Mutual-simulation equivalence classes of the pattern's nodes."""
    rel = pattern_self_simulation(pattern)
    nodes = list(pattern.nodes())
    assigned: Dict[PatternNode, int] = {}
    classes: List[Set[PatternNode]] = []
    for x in nodes:
        if x in assigned:
            continue
        cls = {x}
        for y in nodes:
            if y != x and (x, y) in rel and (y, x) in rel:
                cls.add(y)
        idx = len(classes)
        classes.append(cls)
        for member in cls:
            assigned[member] = idx
    return [frozenset(c) for c in classes]


def minimize_pattern(pattern: Pattern) -> Tuple[Pattern, Dict[PatternNode, PatternNode]]:
    """The quotient pattern and a mapping original node -> representative.

    The minimized pattern has one node per equivalence class (named by a
    canonical representative) and an edge between classes whenever any of
    their members are connected; ``match(representative)`` in the quotient
    equals ``match(u)`` in the original for every class member ``u``.
    """
    if not pattern.is_normal():
        raise PatternError("pattern minimization is defined on normal patterns")
    classes = equivalence_classes(pattern)
    rep: Dict[PatternNode, PatternNode] = {}
    for cls in classes:
        representative = sorted(cls, key=repr)[0]
        for member in cls:
            rep[member] = representative
    minimized = Pattern()
    for cls in classes:
        representative = rep[next(iter(cls))]
        minimized.add_node(representative, pattern.predicate(representative))
    for x, x2 in pattern.edges():
        minimized.add_edge(rep[x], rep[x2], 1)
    return minimized, rep


# ----------------------------------------------------------------------
# Canonical form: name-independent pattern fingerprints
# ----------------------------------------------------------------------
#
# Two patterns that differ only in node names (or in simulation-redundant
# nodes, for normal patterns) must hash equal so the pool-level plan can
# intern them — and intern identical *sub*-patterns appearing inside
# different registered patterns.  The canonical form is computed by the
# classic individualization-refinement scheme: WL-style color refinement
# (initial color = predicate, refined by the multiset of (bound, neighbor
# color) over out- and in-edges) followed by branching inside the first
# non-singleton color class, taking the lexicographically least encoding
# over all discrete refinements reached.  Symmetric patterns (a clique,
# disjoint copies of one shape) would make that tie-break factorial, so
# the search prunes by automorphisms, which it finds at leaves whose
# encoding ties the best one: a branch is skipped when an automorphism
# fixing the individualized prefix maps an explored sibling onto it, as
# its leaves are that sibling's leaves relabelled, with equal encodings.
# No first least leaf is ever skipped, so the pruning keeps every key and
# renaming the full search finds.

# A bound sorts as (0, k) when finite and (1, 0) for '*' — comparable and
# hashable regardless of mixture.
_BoundKey = Tuple[int, int]


def _bound_key(bound: Bound) -> _BoundKey:
    return (1, 0) if bound is None else (0, bound)


class CanonicalForm:
    """The canonical relabeling of a pattern.

    - ``key``: a hashable, name-independent fingerprint — equal iff the
      (minimized) patterns are isomorphic as predicate/bound-labelled
      graphs;
    - ``pattern``: the canonical pattern itself, on nodes ``0..n-1``;
    - ``renaming``: original node -> canonical index (composed through the
      minimization representative map, so merged nodes share an index).
    """

    __slots__ = ("key", "pattern", "renaming")

    def __init__(
        self,
        key: Tuple,
        pattern: Pattern,
        renaming: Dict[PatternNode, int],
    ) -> None:
        self.key = key
        self.pattern = pattern
        self.renaming = renaming

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CanonicalForm(n={self.pattern.num_nodes()}, key={self.key!r})"


def _refine(
    nodes: List[PatternNode],
    colors: Dict[PatternNode, int],
    out_adj: Dict[PatternNode, List[Tuple[_BoundKey, PatternNode]]],
    in_adj: Dict[PatternNode, List[Tuple[_BoundKey, PatternNode]]],
) -> Dict[PatternNode, int]:
    """Color refinement to a fixpoint; colors are normalized so equal
    signatures — an isomorphism invariant — get equal ids."""
    while True:
        sigs = {
            v: (
                colors[v],
                tuple(sorted((bk, colors[w]) for bk, w in out_adj[v])),
                tuple(sorted((bk, colors[w]) for bk, w in in_adj[v])),
            )
            for v in nodes
        }
        ids = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        refined = {v: ids[sigs[v]] for v in nodes}
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined


def _certificate(
    order: List[PatternNode],
    pred_keys: Dict[PatternNode, str],
    edges: Iterable[Tuple[PatternNode, PatternNode, _BoundKey]],
) -> Tuple:
    index = {v: i for i, v in enumerate(order)}
    return (
        len(order),
        tuple(pred_keys[v] for v in order),
        tuple(sorted((index[u], index[u2], bk) for u, u2, bk in edges)),
    )


def _orbit(
    seeds: Iterable[PatternNode],
    generators: List[Dict[PatternNode, PatternNode]],
) -> Set[PatternNode]:
    """The nodes the group generated by ``generators`` maps ``seeds`` to."""
    orbit = set(seeds)
    frontier = list(orbit)
    while frontier:
        u = frontier.pop()
        for gen in generators:
            w = gen[u]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def canonical_pattern(pattern: Pattern) -> CanonicalForm:
    """The name-independent canonical form of ``pattern``.

    Normal patterns are minimized first (simulation-equivalent nodes
    collapse, so redundant spellings of the same query fingerprint
    equal); b-patterns — where minimization is undefined — canonicalize
    as given.  The returned :class:`CanonicalForm` carries the hashable
    fingerprint ``key``, the canonical pattern on nodes ``0..n-1``, and
    the original-node -> canonical-index renaming.
    """
    if pattern.is_normal():
        base, rep = minimize_pattern(pattern)
    else:
        base, rep = pattern, {v: v for v in pattern.nodes()}

    nodes = list(base.nodes())
    pred_keys = {v: repr(base.predicate(v)) for v in nodes}
    edges = [(u, u2, _bound_key(base.bound(u, u2))) for u, u2 in base.edges()]
    out_adj: Dict[PatternNode, List[Tuple[_BoundKey, PatternNode]]] = {
        v: [] for v in nodes
    }
    in_adj: Dict[PatternNode, List[Tuple[_BoundKey, PatternNode]]] = {
        v: [] for v in nodes
    }
    for u, u2, bk in edges:
        out_adj[u].append((bk, u2))
        in_adj[u2].append((bk, u))

    initial_ids = {k: i for i, k in enumerate(sorted(set(pred_keys.values())))}
    colors = {v: initial_ids[pred_keys[v]] for v in nodes}

    best: List[Optional[Tuple[Tuple, List[PatternNode]]]] = [None]
    # Automorphisms, each found as the map from the best leaf's order to
    # the order of a leaf whose certificate ties it.
    automorphisms: List[Dict[PatternNode, PatternNode]] = []

    def search(
        colors: Dict[PatternNode, int], prefix: Tuple[PatternNode, ...]
    ) -> None:
        colors = _refine(nodes, colors, out_adj, in_adj)
        by_color: Dict[int, List[PatternNode]] = {}
        for v in nodes:
            by_color.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(by_color):
            if len(by_color[c]) > 1:
                target = by_color[c]
                break
        if target is None:
            order = sorted(nodes, key=colors.__getitem__)
            cert = _certificate(order, pred_keys, edges)
            if best[0] is None or cert < best[0][0]:
                best[0] = (cert, order)
            elif cert == best[0][0]:
                automorphisms.append(dict(zip(best[0][1], order)))
            return
        explored: List[PatternNode] = []
        for v in target:
            fixing = [
                gen for gen in automorphisms
                if all(gen[u] == u for u in prefix)
            ]
            if v in _orbit(explored, fixing):
                continue
            explored.append(v)
            # Individualize v: double every color (preserving order) and
            # give v the even slot of its class — a fresh, strictly
            # smaller color than its former classmates.
            branched = {u: 2 * colors[u] + 1 for u in nodes}
            branched[v] = 2 * colors[v]
            search(branched, prefix + (v,))

    search(colors, ())
    assert best[0] is not None
    cert, order = best[0]

    index = {v: i for i, v in enumerate(order)}
    canonical = Pattern()
    for v in order:
        canonical.add_node(index[v], base.predicate(v))
    for u, u2 in base.edges():
        canonical.add_edge(index[u], index[u2], base.bound(u, u2))
    renaming = {orig: index[rep[orig]] for orig in pattern.nodes()}
    return CanonicalForm(cert, canonical, renaming)
