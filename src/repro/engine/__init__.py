"""Continuous-query engine: many standing patterns over one shared graph.

- :class:`MatcherPool` — registers ``(pattern, semantics)`` queries,
  coalesces updates per flush, routes each update only to the queries it
  can affect, and repairs the shared graph's indexes in one pass;
- :class:`ContinuousQuery` — one registered query: results, routing
  signature, and a match-delta change feed;
- :class:`UpdateRouter` — the label/predicate-keyed routing index;
- :class:`SharedDistanceSubstrate` — pool-level shared distance
  structures (landmark vectors / matrix / interval labelling) leased by
  bounded queries so upkeep is paid once per pool, not once per query,
  and the memoized edge legs their routing and repair share;
- :class:`SharedEligibilityIndex` — pool-level predicate-eligibility
  substrate, two-tiered: one posting set per distinct *atom* (evaluated
  once per node event pool-wide) composed into one eligible-node set per
  distinct *predicate* (an intersection view reconciled in O(1) per atom
  flip), leased as read-views by queries and by the distance substrate,
  so per-flush atomic evaluations scale with distinct atoms rather than
  distinct conjunctions or pool size;
- :class:`SharedPlan` — the pool-level multi-query plan: one interned
  index per distinct canonical pattern (and semantics and distance
  mode), maintained once per pool and read by every same-shape
  registration through a renaming adapter (``plan_scope='shared'``);
- :class:`MatchDelta` / :class:`ChangeFeed` — the per-flush diff events
  and their drainable subscriber buffers.
"""

from .distances import SharedDistanceSubstrate, SubstrateStats
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
