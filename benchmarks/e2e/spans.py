"""Per-layer spans, recorded from the benchmark's own code.

:class:`Tracer` wraps the public entry points of each engine layer (class
attributes, plus the ``net_updates`` name ``engine.pool`` calls) for the
duration of a ``with`` block and restores the originals on exit.  Every
call becomes one span ``(layer, start_ns, end_ns, parent, flush)``, kept
in memory and written out once at the end.  A layer's self time is its
spans' time minus the time of their child spans.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from repro.engine import pool as pool_module
from repro.engine.distances import SharedDistanceSubstrate
from repro.engine.eligibility import SharedEligibilityIndex
from repro.engine.feeds import ChangeFeed
from repro.engine.plan import SharedPlan
from repro.engine.pool import MatcherPool
from repro.engine.query import ContinuousQuery
from repro.engine.router import UpdateRouter

# layer -> (owner, attribute names).  "intake" is the pool's queueing
# surface, reported as pool.intake_ms rather than as its own layer.
WRAPPED = {
    "pool": ((MatcherPool, ("flush",)),),
    "intake": ((MatcherPool, ("queue", "queue_node", "advance")),),
    "coalesce": ((pool_module, ("net_updates",)),),
    "router": (
        (UpdateRouter, ("route_edge", "route_flips", "route_node", "route_attr_change")),
    ),
    "eligibility": (
        (SharedEligibilityIndex, ("observe_events", "observe_node_added")),
    ),
    "distances": (
        (SharedDistanceSubstrate, ("observe_deleted", "observe_inserted", "enforce_lm_budget")),
    ),
    "repair": (
        (
            ContinuousQuery,
            (
                "prepare_deletions",
                "repair_deletions",
                "repair_insertions",
                "observe_deletions",
                "observe_insertions",
                "apply_node_added",
                "apply_attr_update",
                "apply_eligibility_flips",
                "apply_eligibility_flip_batch",
            ),
        ),
    ),
    "plan": ((SharedPlan, ("deliver",)),),
    "feeds": ((ContinuousQuery, ("emit_delta",)), (ChangeFeed, ("drain",))),
}
LAYERS = ("pool", "coalesce", "router", "eligibility", "distances", "repair", "plan", "feeds")

Span = Tuple[str, int, int, int, int]  # layer, start_ns, end_ns, parent, flush


class Tracer:
    """Record a span around every wrapped call while active."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.flush_seq = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.flush_seq)

        return traced

    def __enter__(self) -> "Tracer":
        for layer, owners in WRAPPED.items():
            for owner, names in owners:
                for name in names:
                    original = owner.__dict__[name]
                    self._saved.append((owner, name, original))
                    setattr(owner, name, self._wrap(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def layer_totals(self) -> Dict[str, Tuple[int, int]]:
        """layer -> (self time ns, calls) over every recorded span."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, List[int]] = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(layer, [0, 0])
            entry[0] += end - start - child_ns[i]
            entry[1] += 1
        return {layer: (ns, calls) for layer, (ns, calls) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for layer, start, end, parent, flush in self.spans:
                fh.write(
                    json.dumps(
                        {"name": layer, "start_ns": start, "end_ns": end,
                         "parent": parent, "flush": flush}
                    )
                    + "\n"
                )
