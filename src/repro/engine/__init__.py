"""Continuous-query engine: many standing patterns over one shared graph.

- :class:`MatcherPool` — registers ``(pattern, semantics)`` queries,
  coalesces updates per flush, routes each update only to the queries it
  can affect, and repairs the shared graph's indexes in one pass;
- :class:`ContinuousQuery` — one registered query: results, routing
  signature, and a match-delta change feed;
- :class:`UpdateRouter` — the label/predicate-keyed routing index;
- :class:`SharedDistanceSubstrate` — pool-level shared distance
  structures: the landmark vectors leased by ``landmark``-mode bounded
  queries, so upkeep is paid once per pool, not once per query, and the
  memoized edge legs and recheck probes their routing and repair share
  (:data:`POOL_DISTANCE_MODES` are the modes a pool query takes);
- :class:`SharedEligibilityIndex` — pool-level predicate-eligibility
  substrate, two-tiered: one posting set per distinct *atom* (evaluated
  once per node event pool-wide) composed into one eligible-node set per
  distinct *predicate* (an intersection view reconciled in O(1) per atom
  flip), leased as read-views by queries, so per-flush atomic evaluations scale with distinct atoms rather than
  distinct conjunctions or pool size;
- :class:`SharedPlan` — the pool-level multi-query plan: one interned
  index per distinct canonical pattern (and semantics and distance
  mode), maintained once per pool and read by every same-shape
  ``simulation`` or ``bounded`` registration through a renaming
  adapter (isomorphism queries own their indexes);
- :class:`MatchDelta` / :class:`ChangeFeed` — the per-flush diff events
  and their drainable subscriber buffers.
"""

from .distances import (
    POOL_DISTANCE_MODES,
    SharedDistanceSubstrate,
    SubstrateStats,
)
from .eligibility import (
    AtomEntry,
    EligibilityLeaseError,
    EligibilityStats,
    EligibleSet,
    SharedEligibilityIndex,
)
from .feeds import ChangeFeed, MatchDelta
from .plan import PlannedQuery, SharedJoin, SharedPlan
from .pool import FlushReport, MatcherPool, PoolStats
from .query import ContinuousQuery, build_index
from .router import UpdateRouter

__all__ = [
    "MatcherPool",
    "ContinuousQuery",
    "UpdateRouter",
    "SharedPlan",
    "SharedJoin",
    "PlannedQuery",
    "SharedDistanceSubstrate",
    "SubstrateStats",
    "POOL_DISTANCE_MODES",
    "SharedEligibilityIndex",
    "AtomEntry",
    "EligibleSet",
    "EligibilityStats",
    "EligibilityLeaseError",
    "MatchDelta",
    "ChangeFeed",
    "FlushReport",
    "PoolStats",
    "build_index",
]
