"""Bounded LRU caches with hit/miss/eviction accounting.

The engine keeps three of these (bound forms, rewriting templates, answers).
The implementation is a plain ``OrderedDict`` LRU — deliberately simple,
since entries are small and the working sets of realistic workloads fit
easily; the interesting part is the *keying* (canonical fingerprints and
version tokens), which lives in :mod:`repro.api.engine`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterator


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry on overflow.

    ``maxsize <= 0`` disables caching entirely (every ``get`` misses and
    ``put`` is a no-op), which keeps the engine code free of special cases.

    With a ``weigh`` function the entries are also held to a total ``budget``
    of weight: least-recently-used entries are evicted while the sum is over
    it, and a value heavier than the whole budget is not kept at all.
    ``weigh`` must return the same weight for a value for as long as it is
    stored (it is asked again when the value leaves); by default every value
    weighs nothing and only ``maxsize`` bounds the cache.
    """

    __slots__ = ("maxsize", "_weigh", "budget", "weight", "_data", "hits", "misses", "evictions")

    #: Sentinel distinguishing "absent" from a cached ``None``.
    _MISSING = object()

    def __init__(
        self,
        maxsize: int = 512,
        weigh: Callable[[Any], int] = lambda value: 0,
        budget: int = 0,
    ):
        self.maxsize = int(maxsize)
        self._weigh = weigh
        self.budget = budget
        #: The summed weight of the stored values.
        self.weight = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting the hit/miss and refreshing recency."""
        value = self._data.get(key, self._MISSING)
        if value is self._MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or update an entry, evicting LRU entries while over a bound."""
        if self.maxsize <= 0:
            return
        self.discard(key)
        weight = self._weigh(value)
        if weight > self.budget:
            return
        self.weight += weight
        self._data[key] = value
        while len(self._data) > self.maxsize or self.weight > self.budget:
            self.discard(next(iter(self._data)))
            self.evictions += 1

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key`` without counting a hit/miss or refreshing recency.

        Used by maintenance sweeps (delta-scoped invalidation) that must not
        skew hit-rate statistics or entry recency.
        """
        value = self._data.get(key, self._MISSING)
        return default if value is self._MISSING else value

    def discard(self, key: Hashable) -> bool:
        """Remove one entry if present; returns whether it was there."""
        value = self._data.pop(key, self._MISSING)
        if value is self._MISSING:
            return False
        self.weight -= self._weigh(value)
        return True

    def clear(self) -> int:
        """Drop every entry (counters are kept); returns how many were dropped."""
        dropped = len(self._data)
        self._data.clear()
        self.weight = 0
        return dropped

    def __contains__(self, key: Hashable) -> bool:
        # Membership does not count as a hit and does not refresh recency.
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        """Keys from least to most recently used."""
        return iter(self._data)

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
