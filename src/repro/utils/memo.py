"""One bounded memo: the LRU every cache of the stack is built on.

A :class:`Memo` maps hashable keys to values computed by pure functions
of those keys, so a hit returns exactly what a fresh computation would.
It evicts least-recently-used entries beyond ``max_entries`` (``None``
means unbounded) and, when given a metric prefix, counts hits and misses
both on itself and as ``<prefix>/hits`` / ``<prefix>/misses`` in the
process metrics registry.

Stdlib-only, and the runtime layer is imported lazily on the first
counted lookup: the fused merge kernel builds a memo at import time and
must stay importable without it.  Persisting a memo is the job of
:class:`repro.persistence.MemoPersistence`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, Optional, Tuple


class Memo:
    """A bounded, deterministic LRU memo with optional hit/miss metrics.

    Args:
        max_entries: Bound on resident entries (``None`` = unbounded).
        metric: Counter prefix; lookups are counted only when it is set.
    """

    def __init__(self, max_entries: Optional[int] = None, metric: Optional[str] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self.metric = metric
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Resident ``(key, value)`` pairs, least recently used first."""
        return iter(self._entries.items())

    def lookup(
        self, key: Hashable, sufficient: Optional[Callable[[Any], bool]] = None
    ) -> Any:
        """The memoized value for ``key``, or None.

        A value rejected by the ``sufficient`` predicate counts as a
        *miss*: the caller recomputes in full, so reporting a hit would
        overstate the memo's effectiveness.
        """
        value = self._entries.get(key)
        if value is None or (sufficient is not None and not sufficient(value)):
            if self.metric is not None:
                self.misses += 1
                _increment(self.metric + "/misses")
            return None
        self._entries.move_to_end(key)
        if self.metric is not None:
            self.hits += 1
            _increment(self.metric + "/hits")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Memoize ``value`` as the most recently used entry."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def merge(self, pairs: Iterable[Tuple[Hashable, Any]]) -> int:
        """Merge ``(key, value)`` pairs without displacing resident entries.

        Resident entries win under equal keys.  Returns how many merged
        entries are *still resident* afterwards: on a bounded memo, more
        pairs than the bound merge only their tail, and the count says
        so rather than masking the eviction.
        """
        merged = []
        for key, value in pairs:
            if key in self._entries:
                continue
            self.put(key, value)
            merged.append(key)
        return sum(1 for key in merged if key in self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


_registry: Any = None


def _increment(name: str) -> None:
    global _registry
    if _registry is None:
        from repro.runtime.metrics import global_metrics

        _registry = global_metrics()
    _registry.increment(name)
