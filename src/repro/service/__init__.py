"""The serving layer: high-throughput rewriting with caching and indexes.

The library's :func:`repro.rewriting.rewriter.rewrite` is a one-shot call —
every request re-canonicalizes the query, rescans every view and re-verifies
every candidate.  This package turns it into a long-lived service:

* :mod:`repro.service.fingerprint` — order-insensitive canonical fingerprints,
  so isomorphic queries share cache entries;
* :mod:`repro.service.view_index` — a predicate → views relevance index that
  prunes views before candidate generation;
* :mod:`repro.service.cache` — bounded LRU caches with hit accounting;
* :mod:`repro.service.session` — the :class:`RewritingSession` facade
  (``rewrite_cached``, ``answer``, ``contained_cached``, ``stats``);
* :mod:`repro.service.batch` — batch workloads through one session.
"""

from repro.service.batch import BatchItem, BatchReport, run_batch
from repro.service.cache import LRUCache
from repro.service.fingerprint import (
    QueryFingerprint,
    fingerprint,
    fingerprint_text,
    isomorphism_witness,
)
from repro.service.session import RewritingSession
from repro.service.view_index import ViewRelevanceIndex

__all__ = [
    "BatchItem",
    "BatchReport",
    "LRUCache",
    "QueryFingerprint",
    "RewritingSession",
    "ViewRelevanceIndex",
    "fingerprint",
    "fingerprint_text",
    "isomorphism_witness",
    "run_batch",
]
