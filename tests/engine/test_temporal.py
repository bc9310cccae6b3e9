"""Unit tests for the temporal (sliding-window / TTL) pool semantics.

Covers the clock (``advance`` monotonicity, external-clock sampling),
stamp intake validation, bulk expiry at flush, the expire→re-insert
same-flush collision (``net_updates`` coalescing must cancel the pair to
zero graph work while refreshing the stamp), dead-on-arrival stamps,
TTL'd query auto-retirement, the zero-rebuild counters, and the
``check_temporal_invariants`` self-check.
"""

from __future__ import annotations

import pytest

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.types import delete, insert
from repro.patterns.pattern import Pattern


def _graph() -> DiGraph:
    g = DiGraph()
    g.add_node("a", label="A")
    g.add_node("b", label="B")
    g.add_node("c", label="C")
    return g


def _pattern() -> Pattern:
    return Pattern.from_spec(
        {"u": "label = A", "w": "label = B"}, [("u", "w", 2)]
    )


class TestClock:
    def test_starts_at_zero_without_clock(self):
        pool = MatcherPool(_graph(), window=10.0)
        assert pool.now == 0.0
        assert pool.temporal

    def test_window_none_is_not_temporal(self):
        pool = MatcherPool(_graph())
        assert not pool.temporal

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            MatcherPool(_graph(), window=0.0)
        with pytest.raises(ValueError):
            MatcherPool(_graph(), window=-1.0)

    def test_advance_is_monotone(self):
        pool = MatcherPool(_graph(), window=10.0)
        assert pool.advance(5.0) == 5.0
        assert pool.advance(5.0) == 5.0  # equal is fine
        with pytest.raises(ValueError):
            pool.advance(4.0)

    def test_advance_rejected_with_external_clock(self):
        ticks = iter([1.0, 2.0, 3.0])
        pool = MatcherPool(_graph(), window=10.0, clock=lambda: next(ticks))
        with pytest.raises(RuntimeError):
            pool.advance(99.0)

    def test_external_clock_sampled_at_flush(self):
        times = [0.0]
        pool = MatcherPool(_graph(), window=5.0, clock=lambda: times[0])
        pool.queue(insert("a", "b"))
        times[0] = 3.0
        pool.flush()
        assert pool.now == 3.0
        # A clock running backwards is clamped, never rewinds pool time.
        times[0] = 1.0
        pool.queue(insert("b", "c"))
        pool.flush()
        assert pool.now == 3.0


class TestIntakeValidation:
    def test_ts_on_delete_rejected(self):
        pool = MatcherPool(_graph(), window=10.0)
        with pytest.raises(ValueError):
            pool.queue(delete("a", "b"), ts=1.0)

    def test_ttl_on_delete_rejected(self):
        pool = MatcherPool(_graph(), window=10.0)
        with pytest.raises(ValueError):
            pool.queue(delete("a", "b"), ttl=1.0)

    def test_nonpositive_ttl_rejected(self):
        pool = MatcherPool(_graph(), window=10.0)
        with pytest.raises(ValueError):
            pool.queue(insert("a", "b"), ttl=0.0)
        with pytest.raises(ValueError):
            pool.queue(insert("a", "b"), ttl=-2.0)

    def test_nontemporal_insert_without_ttl_not_stamped(self):
        pool = MatcherPool(_graph())
        pool.apply([insert("a", "b")])
        assert pool.live_edge_stamps() == {}

    def test_nontemporal_insert_with_ttl_is_stamped(self):
        pool = MatcherPool(_graph())
        pool.apply([insert("a", "b")], ttl=7.0)
        assert pool.live_edge_stamps() == {("a", "b"): (0.0, 7.0)}

    def test_register_ttl_must_be_positive(self):
        pool = MatcherPool(_graph(), window=10.0)
        with pytest.raises(ValueError):
            pool.register(_pattern(), semantics="bounded", ttl=0.0)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteTimes:
    """NaN passes every ``<``/``<=`` guard (its comparisons are all
    false) and an infinite time never expires or expires everything, so
    each time input must be rejected before the pool changes at all."""

    @staticmethod
    def _live_pool():
        pool = MatcherPool(_graph(), window=10.0)
        pool.register(_pattern(), semantics="bounded", name="q")
        pool.advance(2.0)
        pool.apply([insert("a", "b")])
        pool.queue(insert("b", "c"), ttl=3.0)
        return pool

    @staticmethod
    def _state(pool):
        return (
            pool.live_edge_stamps(),
            sorted(pool._expiry_heap),
            dict(pool._pending_stamps),
            pool.now,
            pool.pending,
            [q.name for q in pool.queries()],
        )

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_window_rejected(self, value):
        with pytest.raises(ValueError):
            MatcherPool(_graph(), window=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_register_ttl_rejected(self, value):
        pool = self._live_pool()
        before = self._state(pool)
        with pytest.raises(ValueError):
            pool.register(_pattern(), semantics="bounded", ttl=value)
        assert self._state(pool) == before

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_queue_ttl_rejected(self, value):
        pool = self._live_pool()
        before = self._state(pool)
        with pytest.raises(ValueError):
            pool.queue(insert("a", "c"), ttl=value)
        assert self._state(pool) == before

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_queue_ts_rejected(self, value):
        pool = self._live_pool()
        before = self._state(pool)
        with pytest.raises(ValueError):
            pool.queue(insert("a", "c"), ts=value)
        with pytest.raises(ValueError):
            pool.apply([insert("c", "a")], ts=value)
        assert self._state(pool) == before

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_advance_rejected(self, value):
        pool = self._live_pool()
        before = self._state(pool)
        with pytest.raises(ValueError):
            pool.advance(value)
        assert self._state(pool) == before


class TestBulkExpiry:
    def test_expiry_fires_only_at_flush(self):
        pool = MatcherPool(_graph(), window=5.0)
        pool.apply([insert("a", "b")])
        pool.advance(100.0)
        # Advancing alone retires nothing — the edge is still live.
        assert pool.graph.has_edge("a", "b")
        report = pool.flush()
        assert report.expired == 1
        assert not pool.graph.has_edge("a", "b")
        assert pool.live_edge_stamps() == {}
        assert pool.stats.expired_edges == 1

    def test_expiry_is_one_net_deletion_batch(self):
        pool = MatcherPool(_graph(), window=5.0)
        pool.apply([insert("a", "b"), insert("b", "c")])
        pool.advance(10.0)
        report = pool.flush()
        assert report.expired == 2
        assert sorted(u.edge for u in report.net if u.op == "delete") == [
            ("a", "b"), ("b", "c"),
        ]

    def test_window_boundary_is_inclusive(self):
        # expire_at == now retires the edge (<= comparison).
        pool = MatcherPool(_graph(), window=5.0)
        pool.apply([insert("a", "b")])
        pool.advance(5.0)
        assert pool.flush().expired == 1

    def test_ttl_overrides_window(self):
        pool = MatcherPool(_graph(), window=100.0)
        pool.queue(insert("a", "b"), ttl=2.0)
        pool.queue(insert("b", "c"))
        pool.flush()
        pool.advance(3.0)
        report = pool.flush()
        assert report.expired == 1
        assert not pool.graph.has_edge("a", "b")
        assert pool.graph.has_edge("b", "c")

    def test_explicit_ts_backdates_birth(self):
        pool = MatcherPool(_graph(), window=10.0)
        pool.advance(20.0)
        pool.queue(insert("a", "b"), ts=15.0)
        pool.flush()
        assert pool.live_edge_stamps() == {("a", "b"): (15.0, 25.0)}

    def test_dead_on_arrival_stamp_never_materializes(self):
        pool = MatcherPool(_graph(), window=10.0)
        pool.advance(50.0)
        pool.queue(insert("a", "b"), ts=10.0)  # expired at 20 < 50
        report = pool.flush()
        assert report.net == []
        assert not pool.graph.has_edge("a", "b")
        assert pool.live_edge_stamps() == {}

    def test_expire_then_reinsert_same_flush_nets_to_zero(self):
        pool = MatcherPool(_graph(), window=10.0)
        pool.apply([insert("a", "b")])
        pool.advance(150.0)
        pool.queue(insert("a", "b"), ts=150.0)
        report = pool.flush()
        # Expiry delete + user re-insert cancel under net_updates: no
        # graph op at all, the stamp is simply refreshed.
        assert report.net == []
        assert pool.graph.has_edge("a", "b")
        assert pool.live_edge_stamps() == {("a", "b"): (150.0, 160.0)}

    def test_explicit_delete_drops_stamp(self):
        pool = MatcherPool(_graph(), window=10.0)
        pool.apply([insert("a", "b")])
        pool.apply([delete("a", "b")])
        assert pool.live_edge_stamps() == {}
        # The stale heap entry is skipped at its expiry time.
        pool.advance(11.0)
        assert pool.flush().expired == 0

    def test_reinsert_refreshes_stamp_and_old_entry_goes_stale(self):
        pool = MatcherPool(_graph(), window=10.0)
        pool.apply([insert("a", "b")])
        pool.advance(5.0)
        pool.apply([delete("a", "b")])
        pool.apply([insert("a", "b")])  # reborn at t=5
        pool.advance(11.0)  # past the original expiry (10), not the new (15)
        assert pool.flush().expired == 0
        assert pool.graph.has_edge("a", "b")
        pool.advance(15.0)
        assert pool.flush().expired == 1

    def test_insert_cancelled_by_same_flush_delete_leaves_no_stamp(self):
        pool = MatcherPool(_graph(), window=10.0)
        pool.queue(insert("a", "b"))
        pool.queue(delete("a", "b"))
        pool.flush()
        assert pool.live_edge_stamps() == {}
        assert not pool.graph.has_edge("a", "b")

    def test_expiry_repairs_matches(self):
        pool = MatcherPool(_graph(), window=5.0)
        q = pool.register(_pattern(), semantics="bounded", name="q")
        pool.apply([insert("a", "b")])
        assert q.matches()["u"] == {"a"}
        pool.advance(6.0)
        pool.flush()
        assert q.matches()["u"] == set()


class TestQueryTTL:
    def test_query_expires_at_flush(self):
        pool = MatcherPool(_graph(), window=100.0)
        pool.register(_pattern(), semantics="bounded", name="q", ttl=5.0)
        assert "q" in pool
        pool.advance(6.0)
        report = pool.flush()
        assert report.expired_queries == 1
        assert "q" not in pool
        assert pool.stats.expired_queries == 1

    def test_query_ttl_without_window(self):
        pool = MatcherPool(_graph())
        pool.register(_pattern(), semantics="bounded", name="q", ttl=5.0)
        pool.advance(9.0)
        pool.flush()
        assert "q" not in pool

    def test_unexpired_query_survives(self):
        pool = MatcherPool(_graph(), window=100.0)
        pool.register(_pattern(), semantics="bounded", name="q", ttl=50.0)
        pool.advance(10.0)
        assert pool.flush().expired_queries == 0
        assert "q" in pool


class TestCountersAndInvariants:
    def test_rebuild_counters_shape(self):
        pool = MatcherPool(_graph(), window=10.0)
        pool.register(
            _pattern(), semantics="bounded", name="q",
            distance_mode="landmark",
        )
        counters = pool.rebuild_counters()
        assert set(counters) >= {
            "lm_rebuilds", "reach_rebuilds", "field_rebuilds", "total",
        }
        assert counters["total"] == sum(
            v for k, v in counters.items() if k != "total"
        )

    @pytest.mark.parametrize("mode", ["bfs", "landmark", "matrix", "interval"])
    def test_expiry_triggers_no_rebuilds(self, mode):
        pool = MatcherPool(_graph(), window=5.0)
        pool.register(
            _pattern(), semantics="bounded", name="q", distance_mode=mode,
        )
        pool.apply([insert("a", "b"), insert("b", "c")])
        before = pool.rebuild_counters()["total"]
        pool.advance(10.0)
        report = pool.flush()
        assert report.expired == 2
        assert pool.rebuild_counters()["total"] == before

    def test_check_temporal_invariants_clean(self):
        pool = MatcherPool(_graph(), window=5.0)
        pool.apply([insert("a", "b")])
        pool.check_temporal_invariants()
        # Advancing past live stamps without flushing must not trip the
        # invariant — expiry is a flush-time event.
        pool.advance(100.0)
        pool.check_temporal_invariants()
        pool.flush()
        pool.check_temporal_invariants()

    def test_check_temporal_invariants_detects_orphan_stamp(self):
        pool = MatcherPool(_graph(), window=5.0)
        pool.apply([insert("a", "b")])
        pool.graph.remove_edge("a", "b")  # corrupt behind the pool's back
        with pytest.raises(AssertionError):
            pool.check_temporal_invariants()

    def test_flush_report_slots(self):
        pool = MatcherPool(_graph(), window=5.0)
        report = pool.apply([insert("a", "b")])
        assert report.expired == 0
        assert report.expired_queries == 0
