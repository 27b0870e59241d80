"""Tests for the one bounded-memo primitive."""

import pytest

from repro.design import DesignCache
from repro.mapping import RoutingCache
from repro.runtime.metrics import global_metrics
from repro.utils.memo import Memo


def _run(memo, ops):
    """Apply ``("put", key)`` / ``("get", key)`` steps to ``memo``."""
    for op, key in ops:
        if op == "put":
            memo.put((key,), key)
        else:
            memo.lookup((key,))


class TestBound:
    @pytest.mark.parametrize("ops, evicted, kept", [
        # Insertion order alone: the oldest entry goes first.
        ([("put", "a"), ("put", "b"), ("put", "c")], "a", ("b", "c")),
        # A hit refreshes its entry; the least recently used goes.
        ([("put", "a"), ("put", "b"), ("get", "a"), ("put", "c")], "b", ("a", "c")),
        # Re-putting a resident key refreshes it too.
        ([("put", "a"), ("put", "b"), ("put", "a"), ("put", "c")], "b", ("a", "c")),
    ], ids=["insertion-order", "hit-refreshes", "put-refreshes"])
    def test_bound_evicts_least_recently_used(self, ops, evicted, kept):
        memo = Memo(max_entries=2)
        _run(memo, ops)
        assert len(memo) == 2
        assert memo.lookup((evicted,)) is None
        assert [memo.lookup((key,)) for key in kept] == list(kept)

    def test_none_means_unbounded(self):
        memo = Memo(max_entries=None)
        for index in range(1000):
            memo.put((index,), index)
        assert len(memo) == 1000
        assert memo.lookup((0,)) == 0

    @pytest.mark.parametrize("bound", [0, -1])
    def test_rejects_bound_below_one(self, bound):
        with pytest.raises(ValueError):
            Memo(max_entries=bound)


class TestStats:
    @pytest.mark.parametrize("make, prefix", [
        (lambda: Memo(metric="design/test"), "design/test"),
        (RoutingCache, "routing/cache"),
        (DesignCache, "design/frequency"),
    ], ids=["memo", "routing-cache", "design-cache"])
    def test_stats_clear_and_metric_names(self, make, prefix):
        memo = make()
        registry = global_metrics()
        hits = registry.counter(prefix + "/hits")
        misses = registry.counter(prefix + "/misses")
        memo.put(("a",), 1)
        memo.lookup(("a",))
        memo.lookup(("missing",))
        assert memo.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert registry.counter(prefix + "/hits") == hits + 1
        assert registry.counter(prefix + "/misses") == misses + 1
        memo.clear()
        assert len(memo) == 0

    def test_rejected_entry_counts_as_miss(self):
        memo = Memo(metric="design/test")
        memo.put(("a",), 1)
        assert memo.lookup(("a",), sufficient=lambda value: value > 1) is None
        assert memo.stats() == {"entries": 1, "hits": 0, "misses": 1}

    def test_no_prefix_counts_nothing(self):
        memo = Memo(max_entries=4)
        before = global_metrics().snapshot()["counters"]
        memo.put(("a",), 1)
        memo.lookup(("a",))
        memo.lookup(("missing",))
        assert memo.stats() == {"entries": 1, "hits": 0, "misses": 0}
        assert global_metrics().snapshot()["counters"] == before


class TestMerge:
    def test_resident_entries_win(self):
        memo = Memo()
        memo.put(("a",), "memory")
        assert memo.merge([(("a",), "file"), (("b",), "file")]) == 1
        assert memo.lookup(("a",)) == "memory"
        assert memo.lookup(("b",)) == "file"

    def test_returns_resident_count_after_eviction(self):
        memo = Memo(max_entries=2)
        assert memo.merge([((key,), key) for key in "abcd"]) == 2
        assert [memo.lookup((key,)) for key in "abcd"] == [None, None, "c", "d"]
