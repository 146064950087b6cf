"""Tests for the LRU cache and the version counters it keys on."""

import pytest

from repro.datalog.parser import parse_views
from repro.datalog.views import ViewSet
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.service.cache import LRUCache


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" is now LRU
        cache.put("c", 3)       # evicts "b"
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_update_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_size_disables_caching(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_counters_and_stats(self):
        cache = LRUCache(maxsize=8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1

    def test_clear_keeps_counters(self):
        cache = LRUCache(maxsize=8)
        cache.put("a", 1)
        cache.get("a")
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.hits == 1

    def test_discard(self):
        cache = LRUCache(maxsize=8)
        cache.put("a", 1)
        assert cache.discard("a") is True
        assert cache.discard("a") is False

    def test_cached_none_like_values_are_hits(self):
        cache = LRUCache(maxsize=8)
        cache.put("empty", frozenset())
        assert cache.get("empty") == frozenset()
        assert cache.hits == 1


class TestWeighedLRUCache:
    """``weigh`` + ``budget``: a second bound, on the summed weight."""

    @staticmethod
    def cache(maxsize=8, budget=10):
        return LRUCache(maxsize, weigh=len, budget=budget)

    def test_least_recently_used_go_while_over_budget(self):
        cache = self.cache()
        cache.put("a", "xxxx")
        cache.put("b", "xxxx")
        cache.get("a")            # "b" is now LRU
        cache.put("c", "xxxxxx")  # 14 > 10: "b" goes, 10 fits
        assert list(cache) == ["a", "c"] and cache.weight == 10
        cache.put("d", "xxxxxxxxx")  # 19: "a" then "c" go
        assert list(cache) == ["d"] and cache.weight == 9
        assert cache.evictions == 3

    def test_heavier_than_the_whole_budget_is_not_kept(self):
        cache = self.cache()
        cache.put("a", "xxxx")
        cache.put("big", "x" * 11)
        assert "big" not in cache and "a" in cache
        assert cache.evictions == 0 and cache.weight == 4
        cache.put("a", "x" * 11)  # nor does it leave the stale value behind
        assert len(cache) == 0 and cache.weight == 0

    def test_update_discard_and_clear_keep_the_running_weight(self):
        cache = self.cache()
        cache.put("a", "xxxx")
        cache.put("a", "xx")
        cache.put("b", "xxx")
        assert cache.weight == 5
        assert cache.discard("a") and not cache.discard("a")
        assert cache.weight == 3
        assert cache.clear() == 1 and cache.weight == 0
        cache.put("c", "x" * 10)  # the whole budget is free again
        assert "c" in cache

    def test_maxsize_still_bounds_the_entries(self):
        cache = self.cache(maxsize=2, budget=100)
        for key in "abc":
            cache.put(key, "")
        assert list(cache) == ["b", "c"] and cache.evictions == 1

    def test_unweighed_cache_ignores_the_budget(self):
        cache = LRUCache(4)
        for key in "abcd":
            cache.put(key, "x" * 100)
        assert len(cache) == 4 and cache.weight == 0 and cache.evictions == 0
        assert set(cache.stats()) == {"size", "maxsize", "hits", "misses", "evictions", "hit_rate"}


class TestDatabaseVersion:
    def test_new_database_starts_at_zero(self):
        assert Database().version == 0

    def test_add_fact_bumps_version(self):
        db = Database()
        before = db.version
        db.add_fact("r", (1, 2))
        assert db.version > before

    def test_duplicate_fact_does_not_bump(self):
        db = Database()
        db.add_fact("r", (1, 2))
        before = db.version
        db.add_fact("r", (1, 2))
        assert db.version == before

    def test_add_and_remove_relation_bump(self):
        db = Database()
        db.add_relation(Relation("r", 2, [(1, 2)]))
        v1 = db.version
        db.remove_relation("r")
        assert db.version > v1
        # Removing an absent relation is a no-op.
        v2 = db.version
        db.remove_relation("nope")
        assert db.version == v2

    def test_ensure_relation_bumps_only_on_create(self):
        db = Database()
        db.ensure_relation("r", 2)
        v1 = db.version
        db.ensure_relation("r", 2)
        assert db.version == v1


class TestViewSetToken:
    def test_equal_contents_equal_token(self):
        views_a = parse_views("v(A, B) :- r(A, B).")
        views_b = parse_views("v(A, B) :- r(A, B).")
        assert views_a.version_token() == views_b.version_token()

    def test_different_contents_different_token(self):
        views_a = parse_views("v(A, B) :- r(A, B).")
        views_b = parse_views("v(A, B) :- s(A, B).")
        assert views_a.version_token() != views_b.version_token()

    def test_add_changes_token(self):
        views = parse_views("v(A, B) :- r(A, B).")
        extended = views.add(parse_views("w(A) :- t(A, A).")["w"])
        assert views.version_token() != extended.version_token()

    def test_token_is_stable(self):
        views = parse_views("v(A, B) :- r(A, B).")
        assert views.version_token() == views.version_token()
