"""Canonical-fingerprint-keyed memoization of containment verdicts.

Containment of conjunctive queries is invariant under renaming either side,
so a verdict computed once can be reused for every isomorphic pair.  The
:class:`ContainmentMemo` keys verdicts by the pair of canonical fingerprints
(:mod:`repro.service.fingerprint` — equal texts imply isomorphic queries), so
``is_contained`` calls that recur across pruning passes, rewriting
verification, usability checks and the MiniCon/bucket inner loops are
answered without any search.

Before fingerprinting — which is itself not free — a battery of *cheap
necessary conditions* runs on the raw pair.  For ``query ⊑ container`` to
hold (with ``query`` satisfiable), a containment mapping from ``container``
into ``query`` (possibly after collapsing terms, in the comparison case) must
exist, which requires:

* **head signature** — the two heads share predicate name and arity;
* **predicate containment** — every (predicate, arity) signature used in the
  container's body also occurs in the query's body (several container atoms
  may share one target, so *set* containment is the correct necessary
  condition — multiset containment would be unsound);
* **constant subset** (pure queries only) — every constant in the container's
  body occurs in the query's body; constants map to themselves, so a
  container constant with no occurrence in the query has no possible image.
  With comparisons this is *not* necessary (the ordering scenario can pin a
  query variable to a constant), so the guard is skipped there.

A pair failing a guard is rejected in O(body size) without fingerprinting,
memo lookup, or search.

The module-level default memo is shared process-wide (verdicts depend only on
the two queries, never on a database or view set, so sharing is sound).  The
E14 benchmark and the property tests disable it — and the guards — via
:func:`memo_disabled` to measure or test the raw search.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, Optional

from repro.datalog.queries import ConjunctiveQuery

#: Default bound of the verdict cache.
DEFAULT_MEMO_SIZE = 4096

#: Search-difficulty threshold below which the memo steps aside.  The
#: difficulty estimate is the product over the container's subgoals of the
#: number of same-signature query subgoals — a loose upper bound on the
#: backtracking tree.  When it is tiny (chains and stars over distinct
#: relations have product 1) the indexed search finishes faster than the
#: canonical fingerprint the memo would key the verdict by, so memoizing
#: would slow the cold path down; self-join-heavy shapes (everything over
#: one relation) blow past the threshold and get memoized.
DEFAULT_BYPASS_THRESHOLD = 64

#: Lazily resolved ``repro.service.fingerprint.fingerprint`` (the service
#: package imports the containment layer, so importing it here at module load
#: would be circular; by first call everything is initialised).
_fingerprint: Optional[Callable] = None


class BoundedCache:
    """A minimal bounded LRU mapping for layers below :mod:`repro.service`.

    The serving layer's :class:`repro.service.cache.LRUCache` cannot be
    imported here without a package cycle; this is the same idea stripped to
    what the memo needs (hit/miss counting lives in the memo itself).
    """

    __slots__ = ("maxsize", "_data")

    _MISSING = object()

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        value = self._data.get(key, self._MISSING)
        if value is self._MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize <= 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


def _fingerprint_text(query: ConjunctiveQuery) -> str:
    """The query's canonical fingerprint text, computed once per query object.

    The text is cached directly on the (immutable) query in its
    ``_fingerprint_text`` slot, so the hot path — the same expansion object
    checked for soundness, completeness and subsumption — pays one attribute
    read instead of a mapping lookup (whose key equality would re-sort the
    query body every time).
    """
    try:
        return query._fingerprint_text
    except AttributeError:
        pass
    global _fingerprint
    if _fingerprint is None:
        from repro.service.fingerprint import fingerprint

        _fingerprint = fingerprint
    text = _fingerprint(query).text
    object.__setattr__(query, "_fingerprint_text", text)
    return text


def _guards_reject(query: ConjunctiveQuery, container: ConjunctiveQuery) -> bool:
    """Whether a cheap necessary condition already refutes ``query ⊑ container``.

    Sound for satisfiable ``query`` (the caller checks satisfiability first):
    each guard is necessary for a containment mapping from ``container`` into
    ``query`` — or, with comparisons, into some term-collapsed variant of
    ``query``, which preserves predicates and head signature but not body
    constants (hence the pure-only constant guard).
    """
    if query.head.predicate != container.head.predicate:
        return True
    if len(query.head.args) != len(container.head.args):
        return True
    if not container.predicates() <= query.predicates():
        return True
    if not query.comparisons and not container.comparisons:
        container_constants = {
            constant for atom in container.body for constant in atom.constants()
        }
        if container_constants:
            query_constants = {
                constant for atom in query.body for constant in atom.constants()
            }
            if not container_constants <= query_constants:
                return True
    return False


def _search_difficulty(
    query: ConjunctiveQuery, container: ConjunctiveQuery, cap: int
) -> int:
    """Upper bound on the containment-search branching, saturating at ``cap``."""
    signature_counts: Dict[Any, int] = {}
    for atom in query.body:
        signature = atom.signature
        signature_counts[signature] = signature_counts.get(signature, 0) + 1
    difficulty = 1
    for atom in container.body:
        difficulty *= signature_counts.get(atom.signature, 1)
        if difficulty > cap:
            return difficulty
    return difficulty


class ContainmentMemo:
    """A bounded, fingerprint-keyed cache of CQ-containment verdicts."""

    def __init__(
        self,
        maxsize: int = DEFAULT_MEMO_SIZE,
        bypass_threshold: int = DEFAULT_BYPASS_THRESHOLD,
    ):
        self._verdicts = BoundedCache(maxsize)
        # Identity-keyed first tier: queries and (cached) expansions are
        # shared objects, so a pair seen in the generation phase recurs as
        # the *same* pair of objects in the union-construction and
        # subsumption-pruning phases of one request.  An id-pair hit costs a
        # dict probe — no guards, no difficulty estimate, no fingerprints —
        # and covers bypassed pairs the fingerprint tier never stores.  The
        # stored tuple keeps both queries alive, so their ids cannot be
        # recycled while the entry exists.
        self._by_identity = BoundedCache(maxsize)
        self.enabled = True
        self.bypass_threshold = bypass_threshold
        self.hits = 0
        self.misses = 0
        self.guard_rejections = 0
        self.bypasses = 0

    def contained(
        self,
        query: ConjunctiveQuery,
        container: ConjunctiveQuery,
        compute: Callable[[ConjunctiveQuery, ConjunctiveQuery], bool],
        cheap: Optional[Callable[[ConjunctiveQuery, ConjunctiveQuery], bool]] = None,
    ) -> bool:
        """``query ⊑ container``: identity tier, guards, ``cheap``, memo, ``compute``.

        ``compute`` is the decision procedure; its result is stored under the
        fingerprint pair.  ``cheap`` is an optional sound test to try before
        the pair is canonicalized (which one, and for which pairs, is the
        caller's decision): if it holds the pair is settled.  Without one,
        ``compute`` itself runs uncanonicalized when the estimated search
        difficulty is at most :attr:`bypass_threshold` — searching is then
        cheaper than canonicalizing.  Either way such a verdict counts under
        :attr:`bypasses`.  Exceptions propagate uncached (``compute`` can
        refuse oversized inputs).  A disabled memo skips its own tiers and
        runs ``cheap``, then ``compute`` — the raw reference behaviour.
        """
        if not self.enabled:
            return (cheap is not None and cheap(query, container)) or compute(
                query, container
            )
        id_key = (id(query), id(container))
        entry = self._by_identity.get(id_key)
        if entry is not None and entry[0] is query and entry[1] is container:
            self.hits += 1
            return entry[2]
        if _guards_reject(query, container):
            self.guard_rejections += 1
            self._by_identity.put(id_key, (query, container, False))
            return False
        if cheap is not None:
            settled = result = cheap(query, container)
        else:
            settled = (
                _search_difficulty(query, container, self.bypass_threshold)
                <= self.bypass_threshold
            )
            result = settled and compute(query, container)
        if settled:
            self.bypasses += 1
        else:
            key = (_fingerprint_text(query), _fingerprint_text(container))
            verdict = self._verdicts.get(key)
            if verdict is not None:
                self.hits += 1
                result = verdict
            else:
                self.misses += 1
                result = compute(query, container)
                self._verdicts.put(key, result)
        self._by_identity.put(id_key, (query, container, result))
        return result

    def clear(self) -> None:
        """Drop every cached verdict (counters are kept)."""
        self._verdicts.clear()
        self._by_identity.clear()

    def reset(self) -> None:
        """Clear the caches *and* zero the counters (used between benchmark runs)."""
        self.clear()
        self.hits = 0
        self.misses = 0
        self.guard_rejections = 0
        self.bypasses = 0

    def stats(self) -> Dict[str, Any]:
        """A machine-readable snapshot of memo health."""
        lookups = self.hits + self.misses
        return {
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "guard_rejections": self.guard_rejections,
            "bypasses": self.bypasses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "size": len(self._verdicts),
            "maxsize": self._verdicts.maxsize,
        }


#: The process-wide default memo consulted by ``repro.containment.is_contained``.
_GLOBAL_MEMO = ContainmentMemo()


def global_containment_memo() -> ContainmentMemo:
    """The shared memo behind :func:`repro.containment.is_contained`."""
    return _GLOBAL_MEMO


def containment_memo_stats() -> Dict[str, Any]:
    """Statistics of the shared containment memo (hits, misses, guards, size)."""
    return _GLOBAL_MEMO.stats()


@contextmanager
def memo_disabled() -> Iterator[None]:
    """Scope in which the shared memo (and its guards) is bypassed entirely."""
    previous = _GLOBAL_MEMO.enabled
    _GLOBAL_MEMO.enabled = False
    try:
        yield
    finally:
        _GLOBAL_MEMO.enabled = previous
