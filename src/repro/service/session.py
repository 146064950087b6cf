"""The :class:`RewritingSession` facade: a long-lived, caching rewriting server.

One session owns a view set, an optional database, a view-relevance index and
bounded LRU caches:

* **rewriting templates**, keyed by the query's *shape* — its canonical
  fingerprint with every constant abstracted to a parameter (so isomorphic
  queries, and queries differing only in constants the views cannot tell
  apart, share one entry) — plus algorithm, mode and one tag per parameter;
* **instantiations**, keyed by the full fingerprint text and the query's own
  variable names: a template in one query's variables and constants;
* **bound forms**, keyed by a query *text's* skeleton, the order type of its
  literals and their tags: what the first answered text of a key left
  behind, so that the next is answered without being parsed, fingerprinted,
  instantiated or canonicalised (:class:`_BoundForm`);
* **answers**, keyed by the full fingerprint text (constants included) and
  explicitly invalidated whenever the database's version counter moves;
* **containment verdicts**, keyed by the fingerprint pair (containment is
  invariant under renaming either side).

A template is the result of the first request of its key, exactly as the
algorithm returned it.  The rewriting algorithms and the containment test
ask only two things of a query constant: whether it *equals* a constant of a
view definition, and how it *orders* against the other constants of its
``_comparable`` class.  A parameter that equals a view constant (or another,
differently typed constant of the query, or is NaN) is therefore **pinned**
— its tag is its value — and any other is **free**: its tag is its rank
among the view constants of its class, its order against the query's other
constants being part of the shape already.  Two queries of one key differ by
a replacement of free constants that preserves both things, and such a
replacement carries rewritings of one to rewritings of the other
(``docs/paper_mapping.md``, "Shape-parameterised rewriting"); a hit
substitutes the request's variables and free constants into the template's
best rewriting and leaves the others to be instantiated when first read.  A
repeated identical query gets back the very same :class:`Rewriting` objects,
equal to what an uncached :func:`repro.rewriting.rewriter.rewrite` call
would have produced; an isomorphic variant gets the renamed equivalent.
``inverse-rules`` plans are opaque to substitution, so every parameter is
pinned there.

Answering evaluates plans through a session-owned executor (the compiled
set-at-a-time engine of :mod:`repro.exec` by default), so compiled physical
plans are cached next to the rewriting caches and the disjuncts of a union
rewriting share hash-join build sides on the materialized view relations.

Data churn is handled at two granularities.  Mutating the database behind the
session's back still triggers the coarse path: the version counter moves and
the whole answer cache (plus the materialization) is flushed.  The fast path
is :meth:`RewritingSession.apply_delta`: the delta flows through a
:class:`~repro.materialize.store.MaterializedViewStore`, which maintains the
view extents incrementally and reports *which* predicates and views actually
changed; only answer-cache entries whose fingerprinted query touches an
affected predicate are evicted, so cached answers (and every cached
rewriting) for untouched predicates survive the churn.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.errors import RewritingError
from repro.datalog.freshen import FreshVariableFactory
from repro.datalog.parser import scan_literals
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant, Term, term_sort_key
from repro.datalog.views import View, ViewSet
from repro.containment.containment import is_contained
from repro.containment.memo import containment_memo_stats
from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.exec.compile import is_compilable
from repro.exec import CompiledExecutor, InterpretedExecutor, make_executor
from repro.materialize.changelog import ChangeLog
from repro.materialize.delta import Delta
from repro.materialize.store import MaterializedViewStore
from repro.obs.instrument import Instrumentation
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult
from repro.rewriting.rewriter import ALGORITHMS, MODES, rewrite
from repro.service.cache import LRUCache
from repro.service.fingerprint import QueryFingerprint, fingerprint
from repro.service.view_index import ViewRelevanceIndex

QueryLike = Union[ConjunctiveQuery, UnionQuery]


@dataclass(frozen=True)
class _Template:
    """The first result of a template key, as the algorithm returned it."""

    algorithm: str
    rewritings: Tuple[Rewriting, ...]
    candidates_examined: int
    #: Index of the result's ``best`` in ``rewritings`` (None when empty).
    best: Optional[int]
    #: Fingerprint of the query it was computed for: its renaming and params
    #: are what a later request's are matched against.
    fp: QueryFingerprint


class _Instance:
    """A template in one query text's own variables and constants.

    ``best`` — all that answering needs — is instantiated at once, the full
    list when something first reads it; every request of that text is then
    handed the same objects.
    """

    __slots__ = ("best", "_template", "_mapping", "_avoid", "_all")

    def __init__(
        self, template: _Template, mapping: Dict[Term, Term], avoid: FrozenSet[str]
    ):
        self._template = template
        self._mapping = mapping
        self._avoid = avoid
        self._all: Optional[Tuple[Rewriting, ...]] = None
        self.best = (
            None if template.best is None
            else self._instantiate(template.rewritings[template.best])
        )

    def _instantiate(self, rewriting: Rewriting) -> Rewriting:
        return replace(
            rewriting,
            query=_retarget(rewriting.query, self._mapping, self._avoid),
            expansion=_retarget(rewriting.expansion, self._mapping, self._avoid),
        )

    def rewritings(self) -> Tuple[Rewriting, ...]:
        if self._all is None:
            self._all = tuple(
                self.best if index == self._template.best else self._instantiate(r)
                for index, r in enumerate(self._template.rewritings)
            )
        return self._all


class _TemplateHit(RewritingResult):
    """A result served from a template; ``rewritings`` is filled on first read."""

    def __init__(self, query: ConjunctiveQuery, views: ViewSet, instance: _Instance):
        template = instance._template
        self.query = query
        self.views = views
        self.algorithm = template.algorithm
        self.candidates_examined = template.candidates_examined
        self.elapsed = 0.0
        self._instance = instance

    @property
    def rewritings(self) -> List[Rewriting]:  # type: ignore[override]
        return list(self._instance.rewritings())

    @property
    def best(self) -> Optional[Rewriting]:
        return self._instance.best


class _AnswerEntry:
    """One cached answer: the rows, the predicates they depend on and — once
    a front end has encoded them — their encoded form, which therefore lives
    and dies with the rows (LRU, version flush, delta-scoped eviction)."""

    __slots__ = ("rows", "predicates", "encoded")

    def __init__(self, rows: FrozenSet[Tuple[Any, ...]], predicates: FrozenSet[str]):
        self.rows = rows
        self.predicates = predicates
        self.encoded: Any = None


class _BoundForm:
    """What the first answered text of a skeleton leaves for the next ones of
    its key (:meth:`RewritingSession.bound_lookup`): that text's query,
    literals and fingerprint, the template it was served from, and per
    disjunct of what it evaluated the plan shape and the constants lifted out
    of it -- all a text of equal key changes is the literals.  ``reply`` is
    the front end's (:meth:`RewritingSession.record_form`)."""

    __slots__ = ("key", "query", "literals", "fp", "template_key", "template",
                 "kind", "plans", "reply")

    def __init__(self, *fields: Any):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)

    def swap(self, literals: Tuple[Constant, ...]) -> Dict[Term, Term]:
        """The replacement that turns the first text's constants into another's."""
        return dict(zip(self.literals, literals))

    def fingerprint(self, literals: Tuple[Constant, ...]) -> QueryFingerprint:
        """The fingerprint of the text with these literals; no refinement run."""
        swap = self.swap(literals)
        return self.fp.with_params(tuple(swap.get(c, c) for c in self.fp.params))

    def instance(self, literals: Tuple[Constant, ...]) -> ConjunctiveQuery:
        """The query the text with these literals would have parsed to."""
        return self.query.replace_terms(self.swap(literals))


def _plan_kind(best: Optional[Rewriting]) -> Optional[RewritingKind]:
    """The kind of a rewriting that is evaluated in the query's stead, else None."""
    kind = best.kind if best is not None else None
    return kind if kind in (RewritingKind.EQUIVALENT, RewritingKind.PARTIAL) else None


def _retarget(obj: Any, mapping: Dict[Term, Term], avoid_names: FrozenSet[str]) -> Any:
    """Replace a query-like object's variables and constants through ``mapping``.

    Variables outside the mapping's domain (an algorithm's fresh variables)
    are kept, but renamed apart when their names collide with
    ``avoid_names`` (the names the mapping maps *onto*), so the result never
    conflates two distinct variables.  Non-query objects pass through.
    """
    if isinstance(obj, UnionQuery):
        return UnionQuery([_retarget(q, mapping, avoid_names) for q in obj.disjuncts])
    if not isinstance(obj, ConjunctiveQuery):
        return obj
    clashing = [
        v for v in obj.variables() if v.name in avoid_names and v not in mapping
    ]
    if clashing:
        factory = FreshVariableFactory(
            reserved=set(avoid_names) | {v.name for v in obj.variables()}, prefix="_S"
        )
        mapping = {**mapping, **{v: factory.fresh(v.name) for v in clashing}}
    return obj.replace_terms(mapping)


def _query_predicates(query: QueryLike) -> FrozenSet[str]:
    """The base predicate names a query's answers can depend on."""
    if isinstance(query, UnionQuery):
        names: set = set()
        for disjunct in query.disjuncts:
            names.update(name for name, _arity in disjunct.predicates())
        return frozenset(names)
    return frozenset(name for name, _arity in query.predicates())


class RewritingSession:
    """A persistent rewriting service over one view set (and optional database).

    Parameters
    ----------
    views:
        The materialized views available for rewriting.
    database:
        Optional base database; required for :meth:`answer`.
    algorithm / mode:
        Defaults forwarded to :func:`repro.rewriting.rewriter.rewrite`.
    cache_size:
        Bound of each LRU cache (0 disables caching).
    use_view_index:
        Consult a :class:`ViewRelevanceIndex` to prune views per request.
    executor:
        ``"compiled"`` evaluates plans through a session-owned
        :class:`repro.exec.CompiledExecutor`, so compiled physical plans are
        cached alongside the rewriting caches and a union rewriting's many
        disjuncts share their hash-join build sides (the indexes live on the
        materialized view relations).  ``"interpreted"`` uses the
        backtracking interpreter.
        ``None`` (the default) means ``"compiled"``.  An unknown name raises
        :class:`~repro.errors.EvaluationError`.
    instrumentation:
        Optional :class:`repro.obs.Instrumentation`.  When given, the session
        records per-stage latency histograms (rewrite cold/hit, execute,
        delta apply), cache-event counters (rewrite/answer/plan caches and
        containment-memo outcomes) and trace spans through it; when omitted
        (the default) the hooks cost one ``is None`` test each.
    """

    def __init__(
        self,
        views: "ViewSet | Iterable[View]",
        database: Optional[Database] = None,
        algorithm: str = "minicon",
        mode: str = "equivalent",
        cache_size: int = 512,
        use_view_index: bool = True,
        executor: Optional[str] = None,
        instrumentation: Optional[Instrumentation] = None,
    ):
        if algorithm not in ALGORITHMS:
            raise RewritingError(
                f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )
        if mode not in MODES:
            raise RewritingError(
                f"unknown mode {mode!r}; expected one of {', '.join(MODES)}"
            )
        self._executor = make_executor("compiled" if executor is None else executor)
        self.algorithm = algorithm
        self.mode = mode
        self.executor = self._executor.name
        #: Optional :class:`repro.obs.Instrumentation`; when None (the
        #: default for sessions built directly) every hook below is a single
        #: ``is None`` test, so the uninstrumented paths are unchanged.
        self._obs = instrumentation
        self.cache_size = cache_size
        self.use_view_index = use_view_index
        self._views: ViewSet = views if isinstance(views, ViewSet) else ViewSet(list(views))
        self._views_token = self._views.version_token()
        self._index: Optional[ViewRelevanceIndex] = (
            ViewRelevanceIndex(self._views) if use_view_index else None
        )
        self._index_view_constants()
        self._database = database
        self._db_version: Optional[int] = database.version if database is not None else None
        self._store: Optional[MaterializedViewStore] = None
        self._rewrite_cache = LRUCache(cache_size)
        # Memoizes the instantiation of a template in a concrete query's own
        # variables and constants; repeated identical (or identically-named)
        # queries skip the substitution work entirely.
        self._translation_cache = LRUCache(cache_size)
        # Answers are bounded in rows as well as in entries: a few one-shot
        # 10k-row answers would otherwise outweigh every hot entry together.
        self._answer_cache = LRUCache(
            cache_size, weigh=lambda entry: len(entry.rows), budget=128 * cache_size
        )
        self._containment_cache = LRUCache(cache_size)
        self._bound_forms = LRUCache(cache_size)
        self.requests = 0
        self.invalidations = 0
        #: Deltas applied through apply_delta (the fine-grained churn path).
        self.deltas_applied = 0
        #: Answer-cache entries evicted/retained by delta-scoped invalidation.
        self.delta_evictions = 0
        self.delta_retained = 0
        #: Whether the most recent rewrite_cached/answer call was served from cache.
        self.last_cache_hit = False
        #: Whether the most recent answer/answer_with_plan rows came from the
        #: answer cache (no evaluation).
        self.last_answer_from_cache = False
        #: Fingerprint text of the most recently served query.
        self.last_fingerprint = ""

    # -- configuration ----------------------------------------------------------
    @property
    def views(self) -> ViewSet:
        return self._views

    @property
    def database(self) -> Optional[Database]:
        return self._database

    @property
    def evaluation_executor(
        self,
    ) -> "CompiledExecutor | InterpretedExecutor":
        """The executor instance evaluating this session's plans."""
        return self._executor

    @property
    def instrumentation(self) -> Optional[Instrumentation]:
        """The observability bundle recording this session's metrics, if any."""
        return self._obs

    def store(self) -> MaterializedViewStore:
        """The session's materialized-view store (created on first use).

        Requires a database; the same store backs :meth:`answer` and
        :meth:`apply_delta`, so extents read from it are the ones queries are
        answered against.
        """
        self._require_database()
        return self._view_store()

    def has_cached_answer(
        self, query: ConjunctiveQuery, fp: Optional[QueryFingerprint] = None
    ) -> bool:
        """Whether an answer for ``query`` is currently cached.

        Syncs the database version first, so an entry invalidated by an
        out-of-band mutation is never reported as cached.  ``fp`` (here and
        below) is the query's fingerprint when the caller already has it.
        """
        if self._database is not None:
            self._refresh_database_version()
        fp = fp if fp is not None else fingerprint(query)
        return self._answer_cache.peek((fp.text, self.algorithm, self.mode)) is not None

    def set_views(self, views: "ViewSet | Iterable[View]") -> None:
        """Swap the view set; caches are invalidated unless the contents match."""
        view_set = views if isinstance(views, ViewSet) else ViewSet(list(views))
        if view_set.version_token() == self._views_token and view_set == self._views:
            self._views = view_set
            return
        self._views = view_set
        self._index = ViewRelevanceIndex(view_set) if self.use_view_index else None
        self._index_view_constants()
        # Last: bound_lookup, which runs under no lock, reads the token first, so
        # a key carrying the new token was ranked against the new constants.
        self._views_token = view_set.version_token()
        self._store = None
        self._rewrite_cache.clear()
        self._translation_cache.clear()
        self._bound_forms.clear()
        self._answer_cache.clear()
        self.invalidations += 1

    def set_database(self, database: Optional[Database]) -> None:
        """Swap the base database; answer-side caches are invalidated."""
        self._database = database
        self._db_version = database.version if database is not None else None
        self._store = None
        self._answer_cache.clear()
        self.invalidations += 1

    def invalidate(self) -> None:
        """Drop every cached rewriting, answer, verdict and materialization."""
        self._rewrite_cache.clear()
        self._translation_cache.clear()
        self._bound_forms.clear()
        self._answer_cache.clear()
        self._containment_cache.clear()
        self._store = None
        self.invalidations += 1

    # -- data churn ----------------------------------------------------------------
    def apply_delta(self, delta: Delta) -> ChangeLog:
        """Apply a data delta with delta-scoped (not coarse) cache invalidation.

        The delta is applied to the session database through the
        materialized-view store, which maintains every view extent
        incrementally and reports which predicates and views actually
        changed.  Answer-cache entries are then evicted *only* when their
        query's predicates intersect the affected set — answers (and all
        cached rewritings, which depend only on the view definitions) for
        untouched predicates survive.  Mutating the database directly instead
        still works, but costs a coarse flush of the whole answer cache.
        """
        self._require_database()  # syncs any out-of-band changes first
        if self._obs is not None:
            with self._obs.stage("delta_apply", size=delta.size()):
                log = self._view_store().apply_delta(delta)
            self._obs.deltas.inc()
        else:
            log = self._view_store().apply_delta(delta)
        assert self._database is not None
        self._db_version = self._database.version
        self.deltas_applied += 1
        if log.delta.is_empty():
            return log
        affected = log.affected_predicates()
        evicted = 0
        retained = 0
        for key in list(self._answer_cache):
            entry = self._answer_cache.peek(key)
            if entry is None:
                continue
            if entry.predicates & affected:
                self._answer_cache.discard(key)
                evicted += 1
            else:
                retained += 1
        self.delta_evictions += evicted
        self.delta_retained += retained
        if evicted:
            self.invalidations += 1
        return log

    # -- rewriting ----------------------------------------------------------------
    def rewrite_cached(
        self, query: ConjunctiveQuery, fp: Optional[QueryFingerprint] = None
    ) -> RewritingResult:
        """Rewrite ``query``, sharing work with every isomorphic earlier query."""
        return self._rewrite_with_fp(query, fp if fp is not None else fingerprint(query))

    def _rewrite_with_fp(
        self, query: ConjunctiveQuery, fp: QueryFingerprint
    ) -> RewritingResult:
        """The cache lookup proper; the fingerprint is computed once per request."""
        started = time.perf_counter()
        self.requests += 1
        self.last_fingerprint = fp.text
        key = (fp.shape, self.algorithm, self.mode, self._param_tags(fp))
        template = self._rewrite_cache.get(key)
        obs = self._obs
        if template is not None:
            self.last_cache_hit = True
            if obs is not None:
                with obs.stage("rewrite_hit", fingerprint=fp.text):
                    result = self._instantiate(template, query, fp)
                obs.cache_event("rewrite", "hit")
            else:
                result = self._instantiate(template, query, fp)
        else:
            self.last_cache_hit = False
            if obs is not None:
                result = self._observed_cold_rewrite(query, fp, obs)
            else:
                result = self._rewrite_uncached(query)
            best = result.best
            self._rewrite_cache.put(key, _Template(
                algorithm=result.algorithm,
                rewritings=tuple(result.rewritings),
                candidates_examined=result.candidates_examined,
                best=next(
                    (i for i, r in enumerate(result.rewritings) if r is best), None
                ),
                fp=fp,
            ))
        result.elapsed = time.perf_counter() - started
        return result

    def _index_view_constants(self) -> None:
        """Record what the view definitions can tell about a query constant:
        the values they mention, and those values in order per class."""
        constants = [c for view in self._views for c in view.definition.constants()]
        self._view_values = {c.value for c in constants}
        self._view_order: Tuple[List[Any], ...] = tuple(
            sorted(
                c.value for c in constants
                if term_sort_key(c)[1] == kind and c.value == c.value
            )
            for kind in range(3)  # bool, number, str
        )

    def _param_tags(self, fp: QueryFingerprint) -> Tuple[Any, ...]:
        """The per-parameter part of a template key (module docstring)."""
        values = [constant.value for constant in fp.params]
        return tuple(
            (value.__class__, value)
            if (
                self.algorithm == "inverse-rules"
                or value != value
                or value in self._view_values
                or values.count(value) > 1
            )
            else bisect_left(self._view_order[term_sort_key(constant)[1]], value)
            for constant, value in zip(fp.params, values)
        )

    def bound_lookup(
        self, text: str
    ) -> Tuple[Optional[tuple], Tuple[Constant, ...], Optional[_BoundForm]]:
        """A query text's bound-form key, its literals as constants, and the
        form recorded under that key, if any.  Reads only: needs no lock.

        Beside the skeleton the key holds, per literal in value order, its
        class, its place in the text and its rank among the view constants:
        the literals' order type and their :meth:`_param_tags`.  None when a
        literal would be pinned -- no other text may stand in for this one.
        """
        token = self._views_token
        scanned = None if self.algorithm == "inverse-rules" else scan_literals(text)
        if scanned is None:
            return None, (), None
        ranked = sorted((2 if v.__class__ is str else 1, v, i) for i, v in enumerate(scanned[1]))
        if any(v != v or v in self._view_values for _, v, _ in ranked) or any(
            a[:2] == b[:2] for a, b in zip(ranked, ranked[1:])
        ):
            return None, (), None
        tags = tuple((k, i, bisect_left(self._view_order[k], v)) for k, v, i in ranked)
        key = (scanned[0], tags, self.algorithm, self.mode, token)
        return key, tuple(map(Constant, scanned[1])), self._bound_forms.peek(key)

    def bound_counted(self, key: Optional[tuple]) -> None:
        """Count (and refresh) what :meth:`bound_lookup` found under ``key``;
        unlike it, a write: for the first verb of a text, under its lock."""
        hit = self._bound_forms.get(key) is not None
        if self._obs is not None:
            self._obs.cache_event("bound_form", "hit" if hit else "miss")

    def record_form(
        self, key: tuple, query: ConjunctiveQuery, literals: Tuple[Constant, ...],
        fp: QueryFingerprint, result: RewritingResult, reply: Any,
    ) -> Optional[_BoundForm]:
        """Leave under ``key`` the form of a just-answered text, ``reply``
        being the front end's part of it; None when the next text could not
        use one: a string literal beside a symbolic constant (their order, or
        equality, is in no key), a literal that stays in a plan shape's head,
        a fingerprint that is not exact, an executor or database that caches
        no plans."""
        template_key = (fp.shape, self.algorithm, self.mode, self._param_tags(fp))
        template = self._rewrite_cache.peek(template_key)
        kind = _plan_kind(result.best)
        target = query if kind is None else result.best.query
        database = self._database_for(kind)
        terms = [t for atom in (query.head, *query.body) for t in atom.args]
        terms += [t for c in query.comparisons for t in (c.left, c.right)]
        strings = sum(t.__class__ is Constant and t.value.__class__ is str for t in terms)
        if (
            template is None
            or not fp.exact
            or 0 < sum(c.value.__class__ is str for c in literals) < strings
            or type(self._executor) is not CompiledExecutor
            or getattr(database, "storage_scan", None) is not None
        ):
            return None
        plans = []
        for disjunct in target.disjuncts if isinstance(target, UnionQuery) else (target,):
            shape, lifted = self._executor.plan_key(disjunct)
            if not is_compilable(shape) or set(literals) & set(shape.constants()):
                return None
            plans.append((shape, tuple(map(Constant, lifted))))
        form = _BoundForm(key, query, literals, fp, template_key, template, kind, plans, reply)
        self._bound_forms.put(key, form)
        return form

    def _observed_cold_rewrite(
        self, query: ConjunctiveQuery, fp: QueryFingerprint, obs: Instrumentation
    ) -> RewritingResult:
        """A cold rewrite with its latency and containment-memo outcomes recorded.

        The memo is process-global, so the per-outcome counts attributed here
        are the *deltas* its counters moved by during this rewrite — exact in
        single-threaded use, approximate when concurrent engines interleave
        (the totals across engines still add up).
        """
        before = containment_memo_stats()
        with obs.stage(
            "rewrite_cold", fingerprint=fp.text, algorithm=self.algorithm
        ):
            result = self._rewrite_uncached(query)
        obs.cache_event("rewrite", "miss")
        after = containment_memo_stats()
        for field, outcome in (
            ("hits", "hit"),
            ("misses", "miss"),
            ("guard_rejections", "guard_rejection"),
            ("bypasses", "bypass"),
        ):
            # max(0, ...) guards against a concurrent memo.reset() mid-rewrite.
            obs.cache_event(
                "containment_memo", outcome, max(0, after[field] - before[field])
            )
        return result

    def _candidate_filter(self, query: ConjunctiveQuery):
        if self._index is None:
            return None
        # The exhaustive search needs whole-body homomorphisms, so the
        # stronger "cover" pruning is sound there; bucket/minicon cover
        # subgoals individually and get "overlap".
        mode = "cover" if self.algorithm == "exhaustive" else "overlap"
        return self._index.make_filter(query, mode)

    def _rewrite_uncached(self, query: ConjunctiveQuery) -> RewritingResult:
        return rewrite(
            query,
            self._views,
            algorithm=self.algorithm,
            mode=self.mode,
            candidate_filter=self._candidate_filter(query),
        )

    def _instantiate(
        self, template: _Template, query: ConjunctiveQuery, fp: QueryFingerprint
    ) -> RewritingResult:
        names = tuple(var.name for var in fp.renaming)  # in canonical order
        translation_key = (fp.text, self.algorithm, self.mode, names)
        instance: Optional[_Instance] = self._translation_cache.get(translation_key)
        if instance is None:
            first = template.fp
            own = fp.inverse_renaming()
            mapping: Dict[Term, Term] = {
                var: own[canonical] for var, canonical in first.renaming.items()
            }
            # Only constants that change: a pinned one is its own image, and
            # may equal (as 1 equals 1.0) another key of the mapping.
            mapping.update(
                (old, new) for old, new in zip(first.params, fp.params)
                if (old.value.__class__, old.value) != (new.value.__class__, new.value)
            )
            instance = _Instance(template, mapping, frozenset(names))
            self._translation_cache.put(translation_key, instance)
        return _TemplateHit(query, self._views, instance)

    # -- answering ---------------------------------------------------------------
    def answer(self, query: ConjunctiveQuery) -> FrozenSet[Tuple[Any, ...]]:
        """Answer ``query`` over the session database, preferring view plans.

        An equivalent rewriting (when one exists) is evaluated over the
        materialized view instance; a partial rewriting over views plus base
        relations; otherwise the query is evaluated directly.  Either way the
        result equals direct evaluation of the query — rewritings are only
        used when their kind guarantees equivalence.
        """
        self._require_database()
        fp = fingerprint(query)
        self.last_fingerprint = fp.text
        key = (fp.text, self.algorithm, self.mode)
        cached = self._answer_cache.get(key)
        if cached is not None:
            self.last_cache_hit = True
            self.last_answer_from_cache = True
            if self._obs is not None:
                self._obs.cache_event("answer", "hit")
            return cached.rows
        self.last_answer_from_cache = False
        if self._obs is not None:
            self._obs.cache_event("answer", "miss")
        result = self._rewrite_with_fp(query, fp)
        answers = self._evaluate_observed(lambda: self._evaluate_plan(query, result))
        self.last_cache_hit = False
        self._answer_cache.put(key, _AnswerEntry(answers, _query_predicates(query)))
        return answers

    def answer_with_plan(
        self, query: ConjunctiveQuery, fp: Optional[QueryFingerprint] = None
    ) -> Tuple[FrozenSet[Tuple[Any, ...]], RewritingResult]:
        """Answers plus the rewriting result that produced (or would produce) them.

        One fingerprint computation and one rewrite-cache lookup serve both —
        the call front ends use when they need the plan *and* the rows, so a
        served query is accounted once, not twice.  ``last_cache_hit`` reports
        the rewrite-cache outcome.
        """
        entry, result = self._answer_entry(query, fp)
        return entry.rows, result

    def _answer_entry(
        self, query: ConjunctiveQuery, fp: Optional[QueryFingerprint] = None
    ) -> Tuple[_AnswerEntry, RewritingResult]:
        """:meth:`answer_with_plan`, handing out the cache entry itself (the
        engine keeps a served answer's encoded rows on it)."""
        self._require_database()
        if fp is None:
            fp = fingerprint(query)
        result = self._rewrite_with_fp(query, fp)
        return self._entry(fp, query, lambda: self._evaluate_plan(query, result)), result

    def _answer_bound(
        self, form: _BoundForm, literals: Tuple[Constant, ...], fp: QueryFingerprint
    ) -> Optional[_AnswerEntry]:
        """:meth:`_answer_entry` for a text resolved to a bound form: a
        rewrite hit that builds no rewriting.  None when the form is stale
        (the views, or the template it was recorded against, are gone)."""
        if (
            form.key[2:] != (self.algorithm, self.mode, self._views_token)
            or self._rewrite_cache.peek(form.template_key) is not form.template
        ):
            return None
        self._require_database()
        self.requests += 1
        self.last_fingerprint = fp.text
        self.last_cache_hit = True
        obs = self._obs
        with obs.stage("rewrite_hit", fingerprint=fp.text) if obs else nullcontext():
            self._rewrite_cache.get(form.template_key)
        if obs is not None:
            obs.cache_event("rewrite", "hit")

        def run() -> FrozenSet[Tuple[Any, ...]]:
            swap = form.swap(literals)
            database = self._database_for(form.kind)
            answers = [
                self._executor.bound_plan(
                    shape, tuple(swap.get(c, c).value for c in lifted), database
                ).execute(database)
                for shape, lifted in form.plans
            ]
            return answers[0] if len(answers) == 1 else frozenset().union(*answers)

        return self._entry(fp, form.query, run)

    def _entry(
        self, fp: QueryFingerprint, query: ConjunctiveQuery, run: Callable[[], FrozenSet[tuple]]
    ) -> _AnswerEntry:
        """The cached answer of ``fp``; ``run`` evaluates it when there is none."""
        key = (fp.text, self.algorithm, self.mode)
        entry = self._answer_cache.get(key)
        self.last_answer_from_cache = entry is not None
        if self._obs is not None:
            self._obs.cache_event("answer", "hit" if entry is not None else "miss")
        if entry is None:
            entry = _AnswerEntry(self._evaluate_observed(run), _query_predicates(query))
            self._answer_cache.put(key, entry)
        return entry

    def _require_database(self) -> None:
        if self._database is None:
            raise RewritingError("this session has no database; pass one to answer queries")
        self._refresh_database_version()

    def _evaluate_observed(self, run: Callable[[], FrozenSet[tuple]]) -> FrozenSet[tuple]:
        """Evaluate the chosen plan, recording latency and plan-cache outcomes."""
        obs = self._obs
        if obs is None:
            return run()
        executor = self._executor
        hits_before = getattr(executor, "plan_hits", 0)
        misses_before = getattr(executor, "plan_misses", 0)
        with obs.stage("execute", executor=self.executor):
            answers = run()
        obs.cache_event("plan", "hit", getattr(executor, "plan_hits", 0) - hits_before)
        obs.cache_event(
            "plan", "compile", getattr(executor, "plan_misses", 0) - misses_before
        )
        return answers

    def _evaluate_plan(
        self, query: ConjunctiveQuery, result: RewritingResult
    ) -> FrozenSet[Tuple[Any, ...]]:
        kind = _plan_kind(result.best)
        target = query if kind is None else result.best.query
        return evaluate(target, self._database_for(kind), executor=self._executor)

    def _database_for(self, kind: Optional[RewritingKind]) -> Database:
        """What a plan of this kind reads: view extents, those merged with the
        base relations, or (no rewriting stands in for the query) the base."""
        assert self._database is not None
        if kind is None:
            return self._database
        instance = self._materialized_instance()
        return instance if kind is RewritingKind.EQUIVALENT else instance.merge(self._database)

    def _refresh_database_version(self) -> None:
        # The coarse path: an out-of-band mutation moved the version counter,
        # so every cached answer is suspect.  The store self-heals (it
        # re-materializes on next access when stale); the answer cache is
        # flushed wholesale.  apply_delta avoids all of this.
        assert self._database is not None
        version = self._database.version
        if version != self._db_version:
            self._db_version = version
            self._answer_cache.clear()
            self.invalidations += 1

    def _view_store(self) -> MaterializedViewStore:
        assert self._database is not None
        if self._store is None:
            self._store = MaterializedViewStore(self._views, self._database)
        return self._store

    def _materialized_instance(self) -> Database:
        return self._view_store().as_database()

    # -- checkpoint state (the storage layer's hooks) -------------------------------
    def export_store_state(self) -> Optional[Dict[str, Any]]:
        """The view store's exported counters, or None when nothing is live.

        Used by checkpointing: a snapshot that carries this state restores
        without recomputing any extent.  Only meaningful together with the
        base database as it is right now.  Returns None when no store has
        been materialized — checkpointing then records no view state rather
        than forcing a full materialization.
        """
        if self._database is None or self._store is None:
            return None
        return self._view_store().export_state()

    def restore_store_state(self, state: Optional[Dict[str, Any]]) -> bool:
        """Build the view store from checkpointed counters (recovery path).

        Returns True when the state was adopted; an unusable state falls
        back to normal materialization (the store's own self-heal) and
        returns False.  Must be called before any delta or query touches
        the session.
        """
        if self._database is None or state is None:
            return False
        store = MaterializedViewStore(self._views, self._database, state=state)
        adopted = store.restored_views > 0 or not len(self._views)
        self._store = store
        self._db_version = self._database.version
        return adopted

    # -- containment --------------------------------------------------------------
    def contained_cached(self, left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
        """Cached ``left ⊑ right`` (sound: containment is renaming-invariant)."""
        key = (fingerprint(left).text, fingerprint(right).text)
        verdict = self._containment_cache.get(key)
        if verdict is None:
            verdict = is_contained(left, right)
            self._containment_cache.put(key, verdict)
        return verdict

    # -- introspection -------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """A machine-readable snapshot of the session's state and cache health.

        Every entry is per-session except ``"global.containment_memo"``,
        which snapshots the process-wide containment memo.
        """
        return {
            "algorithm": self.algorithm,
            "mode": self.mode,
            "executor": self._executor.stats(),
            "requests": self.requests,
            "invalidations": self.invalidations,
            "views": len(self._views),
            "views_token": self._views_token,
            "database_version": self._db_version,
            "materialized": self._store is not None,
            "deltas_applied": self.deltas_applied,
            "delta_evictions": self.delta_evictions,
            "delta_retained": self.delta_retained,
            "store": self._store.stats() if self._store is not None else None,
            "rewrite_cache": self._rewrite_cache.stats(),
            "translation_cache": self._translation_cache.stats(),
            "bound_forms": self._bound_forms.stats(),
            "answer_cache": self._answer_cache.stats(),
            "containment_cache": self._containment_cache.stats(),
            # The process-wide containment memo (fingerprint-keyed verdicts
            # plus guard/bypass accounting) behind every is_contained call
            # this session issues — including the rewriting algorithms' own
            # verification, which the session-local containment_cache above
            # never sees.  Namespaced "global." because the counters are
            # shared by every engine in the process.
            "global.containment_memo": containment_memo_stats(),
            "view_index": self._index.stats() if self._index is not None else None,
            "storage": self._storage_stats(),
            "metrics": self._obs.snapshot() if self._obs is not None else None,
        }

    def _storage_stats(self) -> Optional[Dict[str, Any]]:
        """Physical storage counters: per-relation layout, backend when present."""
        if self._database is None:
            return None
        stats: Dict[str, Any] = {"relations": self._database.storage_stats()}
        backend = getattr(self._database, "backend", None)
        if backend is not None:
            stats["backend"] = backend.capabilities.to_dict()
            stats["hydrations"] = getattr(self._database, "hydrations", 0)
        return stats
