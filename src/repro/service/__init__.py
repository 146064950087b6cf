"""The serving layer's parts: what lets a long-lived engine cache rewritings.

The library's :func:`repro.rewriting.rewriter.rewrite` is a one-shot call —
every request re-canonicalizes the query, rescans every view and re-verifies
every candidate.  :class:`repro.api.Engine` turns it into a long-lived
service out of these pieces:

* :mod:`repro.service.fingerprint` — order-insensitive canonical fingerprints,
  so isomorphic queries share cache entries;
* :mod:`repro.service.view_index` — a predicate → views relevance index that
  prunes views before candidate generation;
* :mod:`repro.service.cache` — bounded LRU caches with hit accounting;
* :mod:`repro.service.templates` — what the engine's caches hold: rewriting
  templates and their instances, answers, bound forms;
* :mod:`repro.service.batch` — the report of :meth:`repro.api.Engine.batch`.
"""

from repro.service.batch import BatchItem, BatchReport
from repro.service.cache import LRUCache
from repro.service.fingerprint import (
    QueryFingerprint,
    fingerprint,
    fingerprint_text,
    isomorphism_witness,
)
from repro.service.view_index import ViewRelevanceIndex

__all__ = [
    "BatchItem",
    "BatchReport",
    "LRUCache",
    "QueryFingerprint",
    "ViewRelevanceIndex",
    "fingerprint",
    "fingerprint_text",
    "isomorphism_witness",
]
