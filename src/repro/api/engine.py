"""The :class:`Engine`: one connection-style object over the whole pipeline.

``repro.connect(...)`` is the front door of the library: it validates a
:class:`~repro.api.catalog.Catalog` once, attaches data, and returns an
engine exposing the paper's lifecycle — rewrite a query using views, evaluate
the rewriting, maintain the materialized extents under change — as a handful
of verbs::

    engine = repro.connect(views=VIEWS, data=FACTS)
    engine.query("q(X) :- r(X, Y), s(Y, 'z').").answers()   # typed Answer
    engine.query(q).rewrite()                               # RewritingResult
    engine.query(q).explain()                               # typed Explanation
    engine.apply("+ r(7, 8).")                              # incremental delta
    engine.batch([...])                                     # workload report
    engine.stats()                                          # full introspection

The engine is the one object that caches.  A request is looked up in one
chain of tiers, each keyed more coarsely than the one before:

1. the **exact-text memo** (``_prepared``): a text that has been through a
   verb comes back as the same :class:`PreparedQuery` — parsed, validated and
   fingerprinted once, and holding its template instance and reply pieces;
2. **bound forms** (``_bound_forms``), keyed by a text's skeleton, the order
   type of its literals and their tags: what the first answered text of a key
   left behind, so that the next is answered without being parsed,
   fingerprinted, instantiated or canonicalised
   (:class:`~repro.service.templates.BoundForm`);
3. **rewriting templates** (``_rewrite_cache``), keyed by the query's shape,
   algorithm, mode and one tag per parameter
   (:mod:`repro.service.templates`);
4. **answers** (``_answer_cache``), keyed by the full fingerprint text;
5. the executor's **plan cache**, keyed by plan shape (:mod:`repro.exec`).

Every early drop goes through :meth:`Engine.invalidate`: a view-set change
and :meth:`Engine.close` empty every tier; a database version moved behind
the engine's back flushes every answer; a delta applied through
:meth:`Engine.apply` flows through the
:class:`~repro.materialize.store.MaterializedViewStore`, which maintains the
view extents incrementally and reports which predicates changed, and only the
answers whose query reads one of those are evicted.
"""

from __future__ import annotations

import re
import time
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import replace
from typing import (
    AbstractSet, Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
    Tuple, Union,
)

from repro.errors import (
    ConstraintViolationError,
    EvaluationError,
    MaterializationError,
    QueryConstructionError,
    ReproError,
    RewritingError,
    StorageError,
)
from repro.containment.memo import containment_memo_stats
from repro.datalog.parser import parse_database, parse_program, parse_query, scan_literals
from repro.datalog.printer import to_datalog
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant, Term, Variable, term_sort_key
from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.exec import CompiledExecutor
from repro.exec.compile import is_compilable
from repro.materialize.changelog import ChangeLog
from repro.materialize.compare import verify_extents
from repro.materialize.delta import Delta, parse_delta
from repro.materialize.store import MaterializedViewStore
from repro.obs import Instrumentation, MetricsRegistry, Trace
from repro.rewriting.certain import certain_answers
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult
from repro.rewriting.rewriter import ALGORITHMS, MODES, rewrite
from repro.service.batch import BatchItem, BatchReport
from repro.service.cache import LRUCache
from repro.service.fingerprint import QueryFingerprint, fingerprint
from repro.service.templates import (
    AnswerEntry,
    BoundForm,
    Instance,
    Template,
    TemplateHit,
    plan_kind,
    query_predicates,
)
from repro.service.view_index import ViewRelevanceIndex
from repro.storage import RecoveryResult, StorageManager
from repro.api.catalog import Catalog, ConstraintsLike, SchemaLike, ViewsLike
from repro.api.results import (
    Answer,
    CacheReport,
    Evaluation,
    Explanation,
    PlanDescription,
    PlanStep,
    Provenance,
    RewritingAlternative,
    RewritingChoice,
    SOURCE_BASE,
    SOURCE_CERTAIN,
    SOURCE_VIEWS,
    SOURCE_VIEWS_AND_BASE,
)

DataLike = Union[None, Database, str, Mapping[str, Iterable[Sequence[Any]]]]
QueryInput = Union[str, ConjunctiveQuery]
DeltaLike = Union[str, Delta]


def as_database(data: DataLike) -> Optional[Database]:
    """Normalize a data argument: facts text, mapping, Database, or None."""
    if data is None or isinstance(data, Database):
        return data
    if isinstance(data, str):
        return Database.from_atoms(parse_database(data))
    return Database.from_dict(data)


def connect(
    schema: SchemaLike = None,
    views: ViewsLike = None,
    data: DataLike = None,
    view_instance: DataLike = None,
    constraints: ConstraintsLike = None,
    algorithm: str = "minicon",
    mode: str = "equivalent",
    cache_size: int = 512,
    observability: bool = True,
    backend: Optional[str] = None,
    storage: Optional[str] = None,
    wal: "None | bool | str" = None,
    snapshot: Optional[int] = None,
) -> "Engine":
    """Open an :class:`Engine` over a validated catalog.

    Parameters
    ----------
    schema:
        Optional explicit relation schema — a ``{name: arity}`` mapping or
        ``"name/arity"`` entries (string or iterable).  When given, views and
        queries may only mention declared relations; when omitted, the schema
        is inferred from the views and the attached data.
    views:
        View definitions: datalog text, an iterable of :class:`View`, or a
        :class:`ViewSet`.
    data:
        The base database: facts text, a ``{relation: rows}`` mapping, or a
        :class:`Database`.  Required for ``answers()`` / ``apply()``.
    view_instance:
        Tuples reported for the *views* (open-world setting): enables
        ``certain()`` without base data.
    constraints:
        Denial constraints (boolean conjunctive queries) that must be false
        on the data; checked once at attach time and on demand via
        :meth:`Engine.check`.
    algorithm / mode:
        The rewriting algorithm and mode of every request (see
        :func:`repro.rewriting.rewriter.rewrite`).
    cache_size:
        Bound of each cache (0 disables caching).
    observability:
        When True (the default) the engine owns a
        :class:`repro.obs.Instrumentation` bundle: per-stage latency
        histograms, cache-event counters and request traces, readable via
        :meth:`Engine.metrics` (Prometheus text) and :meth:`Engine.trace`.
        Pass False for a bare engine with zero instrumentation overhead.
    backend:
        Where a fresh storage directory keeps its base rows between
        restarts: ``"memory"`` (snapshots; the default) or ``"sqlite"``
        (a SQLite file written on every applied delta).  A directory holding
        state keeps its own backend: ``None`` accepts it, naming the other
        raises.  Queries always run over the in-memory database.  Requires
        ``storage``.
    storage:
        A durable storage directory (created if absent): the write-ahead
        log, snapshots and (for the sqlite backend) the base rows live
        there.  A fresh directory ingests ``data`` — the engine keeps that
        very database; a directory holding prior state is *recovered* —
        pass no ``data`` then — and the :attr:`Engine.recovery_report`
        says what happened.
    wal:
        The WAL fsync policy for a durable directory: True / ``"always"``
        syncs every append, ``"batch"`` (the default) syncs per flush,
        False / ``"none"`` leaves syncing to the OS.  Requires ``storage``.
    snapshot:
        Auto-checkpoint every N applied deltas (``engine.checkpoint()``
        forces one).  Requires ``storage``.
    """
    database = as_database(data)
    instance = as_database(view_instance)
    manager: Optional[StorageManager] = None
    recovery: Optional[RecoveryResult] = None
    if storage is None:
        for name, value in (("backend", backend), ("wal", wal), ("snapshot", snapshot)):
            if value is not None:
                raise StorageError(f"{name}= requires a storage directory (storage=...)")
    else:
        manager = StorageManager(storage, backend=backend, fsync=_fsync_policy(wal))
    try:
        if manager is not None:
            if manager.has_state:
                if database is not None:
                    raise StorageError(
                        f"storage directory {storage!r} already holds state; "
                        "omit data= to recover it (or point at a new directory)"
                    )
                recovery = manager.recover()
                database = recovery.database
            elif database is None:
                database = Database()
        catalog = Catalog(
            schema=schema,
            views=views,
            constraints=constraints,
            data_schema=database.schema() if database is not None else None,
        )
        engine = Engine(
            catalog,
            database=database,
            view_instance=instance,
            algorithm=algorithm,
            mode=mode,
            cache_size=cache_size,
            observability=observability,
            storage_manager=manager,
            recovery=recovery,
            snapshot_interval=snapshot,
        )
        if manager is not None and recovery is None:
            # Written only once the engine has validated the catalog and the
            # data: a rejected connect leaves a fresh directory fresh.
            manager.attach_database(database)
        return engine
    except BaseException:
        if manager is not None:
            manager.close()
        raise


def _fsync_policy(wal: "None | bool | str") -> str:
    if wal is None:
        return "batch"
    if wal is True:
        return "always"
    if wal is False:
        return "none"
    return str(wal)


#: Cache stats keys whose cache is named otherwise in the metrics.
_GAUGE_LABELS = {"bound_forms": "bound_form"}

#: The mark of hole ``i`` in a bound form's printed texts.
_HOLE = re.compile("\0(\\d+)\0")


def _spell(pieces: Sequence[str], spelled: Mapping[str, str]) -> str:
    """A printed text (``text, hole, text, ...``) with its holes spelled."""
    out = list(pieces)
    out[1::2] = [spelled[hole] for hole in pieces[1::2]]
    return "".join(out)


class PreparedQuery:
    """One validated query bound to an engine; the verbs live here.

    Obtained from :meth:`Engine.query`; cheap to create (parse + catalog
    validation only) — all real work happens in the verb methods, each of
    which goes through the engine's caches.  The one built from a query
    *text* is memoised by the engine and carries what is a pure function of
    that text: its fingerprint, its instance of the template it was served
    from and, once answered, the per-text half of the answer (printed query,
    provenance of the plan).
    """

    __slots__ = ("engine", "_query", "_text", "_fingerprint", "_instance", "_plan",
                 "_form", "_form_key", "_literals")

    def __init__(self, engine: "Engine", query: Optional[ConjunctiveQuery]):
        self.engine = engine
        self._query = query
        #: The text this was parsed from (None for a query object).
        self._text: Optional[str] = None
        #: Set by :meth:`Engine.query`.
        self._fingerprint: Optional[QueryFingerprint] = None
        #: The template instance the last rewrite hit handed out; reused for
        #: as long as the engine holds that very template.
        self._instance: Optional[Instance] = None
        #: ``(best rewriting or bound form, printed query, printed rewriting,
        #: Provenance less its hit flags, {hit flags: Provenance})`` of the
        #: last answer; reused for as long as the engine serves the text
        #: from that very object.
        self._plan: Optional[Tuple[Any, ...]] = None
        #: The bound form the text resolved to -- it was not parsed, and
        #: ``query`` is built when first read -- or else the key to leave one
        #: under; and the text's literals as constants.
        self._form = self._form_key = None
        self._literals: Tuple[Any, ...] = ()

    @property
    def query(self) -> ConjunctiveQuery:
        if self._query is None:
            self._query = self._form.instance(self._literals)
        return self._query

    def coalescing_key(self) -> Tuple[str, bool]:
        """What a front end needs before it runs a verb: the canonical
        fingerprint text (equal for renamed and reordered copies), and
        whether the text is new to the engine's memos -- cold work ahead."""
        known = self._form is not None or self.engine._prepared.get(self._text) is self
        return self._fingerprint.text, not known

    def rewrite(self) -> RewritingResult:
        """Rewrite this query using the engine's views (template-cached)."""
        return self.engine._rewrite(self)

    def answers(self) -> Answer:
        """Evaluate the query (through its best rewriting when one exists)."""
        return self.engine._answer(self)

    def explain(self) -> Explanation:
        """The full decision tree: rewriting choice → plan steps → caches."""
        return self.engine._explain(self)

    def certain(self, method: str = "inverse-rules") -> Answer:
        """Certain answers under sound views (open-world semantics)."""
        return self.engine._certain(self, method)

    def __repr__(self) -> str:
        return f"PreparedQuery({to_datalog(self.query)!r})"


class Engine:
    """Rewriting, execution and maintenance over one catalog, and every cache
    between them.  Open one with :func:`connect`."""

    # Declared: past 30 instance attributes CPython stops sharing dict keys
    # between instances, and every attribute load on the request path slows.
    __slots__ = (
        "_answer_cache", "_bound_forms", "_db_version", "_deltas_maintained",
        "_deltas_since_checkpoint", "_executor", "_index", "_merged", "_obs", "_prepared",
        "_rewrite_cache", "_snapshot_interval", "_storage", "_store", "_view_instance",
        "_view_order", "_view_values", "_views_token", "algorithm", "cache_size", "catalog",
        "database", "delta_evictions", "delta_retained", "deltas_applied", "executor",
        "invalidations", "last_cache_hit", "mode", "queries_served", "recovery_report",
        "requests", "views",
    )

    def __init__(
        self,
        catalog: Catalog,
        database: Optional[Database] = None,
        view_instance: Optional[Database] = None,
        algorithm: str = "minicon",
        mode: str = "equivalent",
        cache_size: int = 512,
        observability: bool = True,
        storage_manager: Optional[StorageManager] = None,
        recovery: Optional[RecoveryResult] = None,
        snapshot_interval: Optional[int] = None,
    ):
        if not isinstance(catalog, Catalog):
            raise QueryConstructionError(f"expected a Catalog, got {catalog!r}")
        if database is not None:
            catalog.validate_database(database)
            violated = catalog.check_constraints(database)
            if violated:
                raise ConstraintViolationError(
                    "attached data violates integrity constraint(s): "
                    + ", ".join(violated),
                    violated=violated,
                )
        if view_instance is not None:
            catalog.validate_view_instance(view_instance)
        if algorithm not in ALGORITHMS:
            raise RewritingError(
                f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )
        if mode not in MODES:
            raise RewritingError(
                f"unknown mode {mode!r}; expected one of {', '.join(MODES)}"
            )
        self._executor = CompiledExecutor()
        #: The executor name, ``"compiled"``.
        self.executor = self._executor.name
        self.algorithm = algorithm
        self.mode = mode
        self.cache_size = cache_size
        self.catalog = catalog
        self.views = catalog.views
        self._index_views()
        self._views_token = self.views.version_token()
        self.database = database
        self._db_version: Optional[int] = database.version if database is not None else None
        self._store: Optional[MaterializedViewStore] = None
        #: The views+base database partial rewritings read (_database_for).
        self._merged: Optional[Tuple[Database, Tuple[int, int], Database]] = None
        self._view_instance = view_instance
        self._obs: Optional[Instrumentation] = (
            Instrumentation() if observability else None
        )
        #: Query text -> its validated PreparedQuery: parsing, catalog
        #: validation and fingerprinting are pure functions of the text and
        #: the catalog.  FIFO-bounded by ``cache_size``.
        self._prepared: Dict[str, PreparedQuery] = {}
        self._bound_forms = LRUCache(cache_size)
        self._rewrite_cache = LRUCache(cache_size)
        # Answers are bounded in rows as well as in entries: a few one-shot
        # 10k-row answers would otherwise outweigh every hot entry together.
        self._answer_cache = LRUCache(
            cache_size, weigh=lambda entry: len(entry.rows), budget=128 * cache_size
        )
        self.queries_served = 0
        #: Deltas applied through :meth:`apply`.
        self.deltas_applied = 0
        #: Rewrite lookups, and early cache drops (:meth:`invalidate`).
        self.requests = 0
        self.invalidations = 0
        #: Deltas the view store maintained: :meth:`apply`'s and recovery's.
        self._deltas_maintained = 0
        #: Answer-cache entries evicted/retained by delta-scoped invalidation.
        self.delta_evictions = 0
        self.delta_retained = 0
        #: Whether the most recent rewrite lookup was a template hit.
        self.last_cache_hit = False
        self._storage = storage_manager
        self._snapshot_interval = (
            int(snapshot_interval) if snapshot_interval else None
        )
        self._deltas_since_checkpoint = 0
        #: What recovery found and replayed, or None for a fresh engine.
        self.recovery_report: Optional[Dict[str, Any]] = None
        if storage_manager is not None:
            if self._obs is not None:
                storage_manager.bind_metrics(self._obs)
            if recovery is not None:
                self._replay_recovery(recovery)

    def _replay_recovery(self, recovery: RecoveryResult) -> None:
        """Apply the recovered WAL tail through the view store (view-maintaining)."""
        assert self._storage is not None and self.database is not None
        store_restored = False
        if recovery.store_state is not None:
            # Checkpointed counters: no extent is recomputed.  An unusable
            # state falls back to the store's own re-materialization.
            self._store = MaterializedViewStore(
                self.views, self.database, state=recovery.store_state
            )
            store_restored = self._store.restored_views > 0 or not len(self.views)
        for record in recovery.tail:
            log = self._maintain(parse_delta(record.payload))
            self._storage.mark_applied(record.seq, log.delta)
        report = dict(recovery.report)
        report["store_restored"] = store_restored
        report["replayed"] = len(recovery.tail)
        self.recovery_report = report

    # -- the verbs ---------------------------------------------------------------
    def query(self, query: QueryInput) -> PreparedQuery:
        """Parse (if text) and validate a query against the catalog.

        A text that has been through a verb comes back as the PreparedQuery
        it was given then — nothing is parsed, validated or fingerprinted
        again; a new text whose skeleton, literal order and literal ranks
        (:meth:`bound_lookup`) are those of an answered one is not parsed
        either, only scanned for its literals.  This method only *reads* the
        two memos (a text and its bound form join them inside its first
        verb, a failing one never), so unlike the verbs it needs no lock
        around it in a threaded front end.
        """
        if isinstance(query, ConjunctiveQuery):
            self.catalog.validate_query(query)
            prepared = PreparedQuery(self, query)
            prepared._fingerprint = fingerprint(query)
            return prepared
        if not isinstance(query, str):
            raise QueryConstructionError(
                f"expected datalog text or a ConjunctiveQuery, got {query!r}"
            )
        prepared = self._prepared.get(query)
        if prepared is not None:
            return prepared
        key, literals, form = self.bound_lookup(query)
        if form is not None:
            prepared = PreparedQuery(self, None)
            prepared._fingerprint = form.fingerprint(literals)
        else:
            parsed = self._staged("parse", lambda: parse_query(query))
            self.catalog.validate_query(parsed)
            prepared = PreparedQuery(self, parsed)
            prepared._fingerprint = fingerprint(parsed)
        prepared._text, prepared._form, prepared._form_key = query, form, key
        prepared._literals = literals
        return prepared

    def _remember(self, prepared: PreparedQuery) -> None:
        """Memoise a text's PreparedQuery, and count what ``query`` found for
        it among the bound forms; called by every verb, i.e. under whatever
        lock the caller guards the caches with."""
        memo, bound = self._prepared, self.cache_size
        if prepared._text is None or prepared._text in memo or bound <= 0:
            return
        hit = self._bound_forms.get(prepared._form_key) is not None
        if self._obs is not None:
            self._obs.cache_event("bound_form", "hit" if hit else "miss")
        if len(memo) >= bound:
            del memo[next(iter(memo))]
        memo[prepared._text] = prepared

    def apply(self, delta: DeltaLike) -> ChangeLog:
        """Apply a data delta; views and caches are maintained incrementally.

        Accepts a :class:`Delta` or ``+ fact.`` / ``- fact.`` text.  Returns
        the :class:`ChangeLog` saying which base predicates and views
        actually changed.
        """
        with self._request("apply"):
            if isinstance(delta, str):
                delta = parse_delta(delta)
            database = self._require_database("apply a delta")
            if self._storage is not None:
                # The durable protocol: journal first, apply second, write
                # the base rows and move the applied-watermark last.  Replay
                # is idempotent, so a crash between any two steps recovers
                # exactly.
                seq = self._storage.journal(delta, database.version)
                log = self._maintain(delta)
                self._storage.mark_applied(seq, log.delta)
            else:
                log = self._maintain(delta)
        self.deltas_applied += 1
        if self._storage is not None and self._snapshot_interval:
            self._deltas_since_checkpoint += 1
            if self._deltas_since_checkpoint >= self._snapshot_interval:
                self.checkpoint()
        return log

    def _maintain(self, delta: Delta) -> ChangeLog:
        """Apply ``delta`` through the view store, which maintains every
        extent and says which predicates changed; only the answers that read
        one of those are evicted — cached rewritings, which depend on the
        view definitions alone, all survive."""
        log = self._staged(
            "delta_apply", lambda: self._view_store().apply_delta(delta), size=delta.size()
        )
        if self._obs is not None:
            self._obs.deltas.inc()
        assert self.database is not None
        self._db_version = self.database.version
        self._deltas_maintained += 1
        if not log.delta.is_empty():
            self.invalidate(log.affected_predicates())
        return log

    def checkpoint(self) -> Dict[str, Any]:
        """Write a snapshot of the current state to the storage directory.

        Captures the base extents and (when materialized) the view store's
        derivation counters at the current WAL position, so a later restart
        replays only the log tail.  Returns ``{"path", "seq", "bytes"}``.
        """
        if self._storage is None:
            raise StorageError(
                "this engine has no storage directory; open it with "
                "repro.connect(storage=...) to checkpoint"
            )
        database = self._require_database("checkpoint")
        # With no store live, the snapshot records no view state rather than
        # forcing a full materialization.
        state = self._store.export_state() if self._store is not None else None
        info = self._storage.checkpoint(database, state)
        self._deltas_since_checkpoint = 0
        return info

    def batch(
        self,
        queries: Union[str, Sequence[QueryInput]],
        with_answers: bool = False,
    ) -> BatchReport:
        """Run a workload through this engine's verbs, caches and metrics.

        ``queries`` is a sequence of queries (text or objects) or one datalog
        program text.  Each item is rewritten and, ``with_answers``,
        answered; an item that fails is reported, not raised.
        """
        if isinstance(queries, str):
            queries = list(parse_program(queries))
        if with_answers:
            self._require_database("answer a batch")
        started = time.perf_counter()
        items = [
            self._batch_item(index, query, with_answers)
            for index, query in enumerate(queries)
        ]
        return BatchReport(
            items=items,
            elapsed=time.perf_counter() - started,
            session_stats=self._cache_stats(),
        )

    def _batch_item(self, index: int, query: Any, with_answers: bool) -> BatchItem:
        text = to_datalog(query) if isinstance(query, ConjunctiveQuery) else str(query)
        item = BatchItem(index=index, query=text)
        started = time.perf_counter()
        try:
            prepared = self.query(text)
            result = prepared.rewrite()
            item.cache_hit = self.last_cache_hit
            if with_answers:
                item.answers = len(prepared.answers())
            item.fingerprint = prepared._fingerprint.text
            item.rewritings = len(result.rewritings)
            item.equivalent = result.has_equivalent
            if result.best is not None:
                item.best = to_datalog(result.best.query)
        except ReproError as error:
            item.error = str(error)
        item.elapsed = time.perf_counter() - started
        return item

    def set_views(self, views: ViewsLike) -> None:
        """Swap the view set, validated as :func:`connect` validates it.

        The catalog follows the views.  Every cache is emptied, unless the
        new views equal the old ones.
        """
        database = self.database
        catalog = Catalog(
            schema=self.catalog.declared,
            views=views,
            constraints=self.catalog.constraints,
            data_schema=database.schema() if database is not None else None,
        )
        if database is not None:
            catalog.validate_database(database)
        if self._view_instance is not None:
            catalog.validate_view_instance(self._view_instance)
        unchanged = (
            catalog.views.version_token() == self._views_token
            and catalog.views == self.views
        )
        self.catalog, self.views = catalog, catalog.views
        if unchanged:
            return
        self._index_views()
        self.invalidate()
        # Last: bound_lookup, which runs under no lock, reads the token first, so
        # a key carrying the new token was ranked against the new constants.
        self._views_token = self.views.version_token()

    def invalidate(self, scope: "str | AbstractSet[str]" = "all") -> None:
        """Drop cache entries early; the only place that does.

        ``"all"`` (a view-set change, :meth:`close`) empties every tier and
        the materialization; ``"answers"`` (the database version moved
        behind the engine's back) every answer; a set of base predicates
        (a delta) the answers that read one of them, counting what goes
        and stays.  Each call that can have dropped something counts one
        invalidation.
        """
        answers = self._answer_cache
        if isinstance(scope, str):
            answers.clear()
            if scope == "all":
                self._prepared.clear()
                self._bound_forms.clear()
                self._rewrite_cache.clear()
                self._store = self._merged = None
        else:
            evicted = [key for key in answers if answers.peek(key).predicates & scope]
            for key in evicted:
                answers.discard(key)
            self.delta_evictions += len(evicted)
            self.delta_retained += len(answers)
            if not evicted:
                return
        self.invalidations += 1

    def stats(self) -> Dict[str, Any]:
        """Catalog, engine counters, and the full cache/store state."""
        return {
            "catalog": self.catalog.describe(),
            "queries_served": self.queries_served,
            "deltas_applied": self.deltas_applied,
            "session": self._cache_stats(),
            "storage": self.storage_status(),
        }

    def _cache_stats(self) -> Dict[str, Any]:
        """``stats()["session"]``: the rewriting configuration, its counters
        and the health of every cache.  Every entry is per-engine except
        ``"global.containment_memo"``, which snapshots the process-wide
        containment memo behind every ``is_contained`` call — namespaced
        because its counters are shared by every engine in the process."""
        return {
            "algorithm": self.algorithm,
            "mode": self.mode,
            "executor": self._executor.stats(),
            "requests": self.requests,
            "invalidations": self.invalidations,
            "views": len(self.views),
            "views_token": self._views_token,
            "database_version": self._db_version,
            "materialized": self._store is not None,
            "deltas_applied": self._deltas_maintained,
            "delta_evictions": self.delta_evictions,
            "delta_retained": self.delta_retained,
            "store": self._store.stats() if self._store is not None else None,
            "rewrite_cache": self._rewrite_cache.stats(),
            "bound_forms": self._bound_forms.stats(),
            "answer_cache": self._answer_cache.stats(),
            "global.containment_memo": containment_memo_stats(),
            "view_index": self._index.stats(),
            "storage": self._storage_stats(),
            "metrics": self._obs.snapshot() if self._obs is not None else None,
        }

    def _storage_stats(self) -> Optional[Dict[str, Any]]:
        """Physical storage counters: the per-relation row-store layout."""
        if self.database is None:
            return None
        return {"relations": self.database.storage_stats()}

    def storage_status(self) -> Optional[Dict[str, Any]]:
        """Durability health: backend, WAL position/lag, snapshot freshness.

        None for an engine with no storage directory; the server's
        ``/healthz`` embeds this when present.
        """
        if self._storage is None:
            return None
        status = self._storage.status()
        if self.recovery_report is not None:
            status["recovered"] = True
        return status

    # -- observability -------------------------------------------------------------
    def metrics(self) -> str:
        """The engine's metrics in Prometheus text exposition format.

        Point-in-time gauges (cache occupancy, containment-memo size) are
        refreshed at scrape time; counters and histograms accumulate as the
        engine serves.  Raises when the engine was opened with
        ``observability=False``.
        """
        obs = self._require_observability("render metrics")
        self._refresh_gauges(obs)
        return obs.registry.render()

    def trace(self, trace_id: Optional[str] = None) -> Optional[Trace]:
        """The most recently finished request trace (or one by id).

        Every verb runs under a trace; the returned
        :class:`~repro.obs.Trace` serializes to JSON via ``to_json()``
        (schema: ``docs/trace.schema.json``).  Returns None when nothing has
        been traced yet or the id fell out of the bounded ring.
        """
        obs = self._require_observability("read traces")
        if trace_id is not None:
            return obs.tracer.find(trace_id)
        return obs.tracer.last()

    @property
    def observability(self) -> Optional[Instrumentation]:
        """The engine's instrumentation bundle (None when disabled)."""
        return self._obs

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The live registry, for servers that add their own series."""
        return self._require_observability("expose a metrics registry").registry

    def _require_observability(self, action: str) -> Instrumentation:
        if self._obs is None:
            raise QueryConstructionError(
                f"this engine was opened with observability=False; cannot {action}"
            )
        return self._obs

    def _request(self, verb: str):
        """The per-verb trace/outcome context (no-op without observability)."""
        if self._obs is None:
            return nullcontext()
        return self._obs.request(verb)

    def _staged(self, stage: str, run: Callable[[], Any], **annotations: Any) -> Any:
        """``run()`` as one pipeline stage: timed into the stage histogram and
        traced, by one call in a ``finally``, so also when it raises."""
        started = time.perf_counter()
        try:
            return run()
        finally:
            if self._obs is not None:
                self._obs.stage(stage, started, **annotations)

    def _refresh_gauges(self, obs: Instrumentation) -> None:
        """Set the point-in-time gauges from the cache stats snapshot."""
        occupancy = obs.registry.gauge(
            "repro_cache_entries",
            "Current entry count of each bounded cache.",
            labels=("cache",),
        )
        stats = self._cache_stats()
        # Every cache in the snapshot that reports a size, labelled as in
        # repro_cache_events_total.
        for name, entry in stats.items():
            if isinstance(entry, dict) and "size" in entry:
                label = name.removeprefix("global.").removesuffix("_cache")
                occupancy.labels(_GAUGE_LABELS.get(label, label)).set(entry["size"])
        memo = stats["global.containment_memo"]
        obs.registry.gauge(
            "repro_containment_memo_hit_rate",
            "Hit rate of the process-global containment memo.",
        ).set(memo["hit_rate"])

    def check(self) -> Tuple[str, ...]:
        """Re-check integrity constraints; returns violated constraint names."""
        return self.catalog.check_constraints(self._require_database("check constraints"))

    # -- materialization ----------------------------------------------------------
    def store(self) -> MaterializedViewStore:
        """The materialized-view store (created on first use): the extents
        queries are answered against and deltas maintain."""
        self._require_database("read view extents")
        return self._view_store()

    def extent(self, view_name: str) -> Any:
        """The maintained extent of one view (materializing on first use)."""
        return self.store().extent(view_name)

    def verify(self) -> list:
        """Cross-check maintained extents against full recomputation."""
        self._require_database("verify view extents")
        return verify_extents(self._view_store())

    # -- introspection ------------------------------------------------------------
    @property
    def session(self) -> "Engine":
        """This engine.  Kept only for ``benchmarks/e2e/layers.py``, which
        reads ``engine.session.answer(query)`` and may not change until that
        benchmark is re-based; goes with it."""
        return self

    def answer(self, query: QueryInput) -> FrozenSet[Tuple[Any, ...]]:
        """``self.query(query).answers().rows`` — kept only for the reader
        of :attr:`session`, and goes with it."""
        return self.query(query).answers().rows

    # -- lifecycle ----------------------------------------------------------------
    @property
    def storage(self) -> Optional[StorageManager]:
        """The storage manager (None without a storage directory)."""
        return self._storage

    def close(self) -> None:
        """Drop every cache and materialization; flush and close storage.

        Without storage the engine stays usable afterwards (the caches
        rebuild); with a storage directory the WAL and backend are closed,
        so further :meth:`apply` calls raise :class:`StorageError`.
        """
        self.invalidate()
        if self._storage is not None:
            self._storage.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Engine({self.catalog!r}, data={self.database is not None}, "
            f"executor={self.executor!r})"
        )

    # -- internals: data ----------------------------------------------------------
    def _require_database(self, action: str) -> Database:
        """The attached database.  A version moved behind the engine's back
        (not through :meth:`apply`) flushes every cached answer first; the
        view store re-materializes itself when it finds itself stale."""
        database = self.database
        if database is None:
            raise MaterializationError(
                f"this engine has no base data attached; cannot {action} "
                "(pass data=... to repro.connect)"
            )
        if database.version != self._db_version:
            self._db_version = database.version
            self.invalidate("answers")
        return database

    def _view_store(self) -> MaterializedViewStore:
        assert self.database is not None
        if self._store is None:
            self._store = MaterializedViewStore(self.views, self.database)
        return self._store

    def _database_for(self, kind: Optional[RewritingKind]) -> Database:
        """What a plan of this kind reads: view extents, those beside the
        base relations, or (no rewriting stands in for the query) the base.

        The views+base database holds the very relations of both -- it copies
        no row -- and is built once per pair of their versions, so a partial
        rewriting's plans stay cached until a write."""
        assert self.database is not None
        if kind is None:
            return self.database
        instance = self._view_store().as_database()
        if kind is RewritingKind.EQUIVALENT:
            return instance
        versions = (instance.version, self.database.version)
        merged = self._merged
        if merged is None or merged[0] is not instance or merged[1] != versions:
            merged = self._merged = (
                instance, versions, Database.sharing(self.database, instance)
            )
        return merged[2]

    # -- internals: rewriting -----------------------------------------------------
    def _index_views(self) -> None:
        """Index the view set: the relevance index, and what the definitions
        can tell about a query constant — the values they mention, and those
        values in order per class."""
        self._index = ViewRelevanceIndex(self.views)
        constants = [c for view in self.views for c in view.definition.constants()]
        self._view_values = {c.value for c in constants}
        self._view_order: Tuple[List[Any], ...] = tuple(
            sorted(
                c.value for c in constants
                if term_sort_key(c)[1] == kind and c.value == c.value
            )
            for kind in range(3)  # bool, number, str
        )

    def _param_tags(self, fp: QueryFingerprint) -> Tuple[Any, ...]:
        """The per-parameter part of a template key: a pinned parameter's
        value, a free one's rank (:mod:`repro.service.templates`)."""
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
    ) -> Tuple[Optional[tuple], Tuple[Constant, ...], Optional[BoundForm]]:
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

    def _record_form(
        self, key: tuple, query: ConjunctiveQuery, literals: Tuple[Constant, ...],
        fp: QueryFingerprint, result: RewritingResult, reply: Any,
    ) -> Optional[BoundForm]:
        """Leave under ``key`` the form of a just-answered text, ``reply``
        being its printed half; None when the next text could not use one: a
        string literal beside a symbolic constant (their order, or equality,
        is in no key), a literal that stays in a plan shape's head, a
        fingerprint that is not exact."""
        template_key = (fp.shape, self.algorithm, self.mode, self._param_tags(fp))
        template = self._rewrite_cache.peek(template_key)
        kind = plan_kind(result.best)
        target = query if kind is None else result.best.query
        terms = [t for atom in (query.head, *query.body) for t in atom.args]
        terms += [t for c in query.comparisons for t in (c.left, c.right)]
        strings = sum(t.__class__ is Constant and t.value.__class__ is str for t in terms)
        if (
            template is None
            or not fp.exact
            or 0 < sum(c.value.__class__ is str for c in literals) < strings
        ):
            return None
        plans = []
        for disjunct in target.disjuncts if isinstance(target, UnionQuery) else (target,):
            shape, lifted = self._executor.plan_key(disjunct)
            if not is_compilable(shape) or set(literals) & set(shape.constants()):
                return None
            plans.append((shape, tuple(map(Constant, lifted))))
        form = BoundForm(key, query, literals, fp, template_key, template, kind, plans, reply)
        self._bound_forms.put(key, form)
        return form

    def _rewrite_with_fp(
        self,
        query: ConjunctiveQuery,
        fp: QueryFingerprint,
        prepared: Optional[PreparedQuery] = None,
    ) -> RewritingResult:
        """The template lookup proper; ``prepared`` keeps the instance a hit
        hands out, for the next request of its text."""
        started = time.perf_counter()
        self.requests += 1
        key = (fp.shape, self.algorithm, self.mode, self._param_tags(fp))
        template = self._rewrite_cache.get(key)
        obs = self._obs
        self.last_cache_hit = template is not None
        if template is not None:
            result = self._staged(
                "rewrite_hit", lambda: self._instantiate(template, query, fp, prepared),
                fingerprint=fp.text,
            )
            if obs is not None:
                obs.cache_event("rewrite", "hit")
        else:
            result = self._cold_rewrite(query, fp)
            best = result.best
            self._rewrite_cache.put(key, Template(
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

    def _instantiate(
        self,
        template: Template,
        query: ConjunctiveQuery,
        fp: QueryFingerprint,
        prepared: Optional[PreparedQuery],
    ) -> RewritingResult:
        instance = prepared._instance if prepared is not None else None
        if instance is None or instance._template is not template:
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
            instance = Instance(template, mapping, frozenset(v.name for v in fp.renaming))
            if prepared is not None:
                prepared._instance = instance
        return TemplateHit(query, self.views, instance)

    def _cold_rewrite(self, query: ConjunctiveQuery, fp: QueryFingerprint) -> RewritingResult:
        """A cold rewrite, with its latency and containment-memo outcomes
        recorded when the engine is instrumented.

        The memo is process-global, so the per-outcome counts attributed here
        are the *deltas* its counters moved by during this rewrite — exact in
        single-threaded use, approximate when concurrent engines interleave
        (the totals across engines still add up).
        """
        obs = self._obs
        before = containment_memo_stats() if obs is not None else None
        result = self._staged(
            "rewrite_cold", lambda: self._rewrite_uncached(query),
            fingerprint=fp.text, algorithm=self.algorithm,
        )
        if obs is None:
            return result
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

    def _rewrite_uncached(self, query: ConjunctiveQuery) -> RewritingResult:
        # The exhaustive search needs whole-body homomorphisms, so the
        # stronger "cover" pruning is sound there; bucket/minicon cover
        # subgoals individually and get "overlap".
        mode = "cover" if self.algorithm == "exhaustive" else "overlap"
        return rewrite(
            query,
            self.views,
            algorithm=self.algorithm,
            mode=self.mode,
            candidate_filter=self._index.make_filter(query, mode),
        )

    # -- internals: the verbs -----------------------------------------------------
    @staticmethod
    def _plan_target(best: Optional[Rewriting]) -> str:
        if best is not None and best.kind is RewritingKind.EQUIVALENT:
            return SOURCE_VIEWS
        if best is not None and best.kind is RewritingKind.PARTIAL:
            return SOURCE_VIEWS_AND_BASE
        return SOURCE_BASE

    def _rewrite(self, prepared: PreparedQuery) -> RewritingResult:
        self._remember(prepared)
        with self._request("rewrite"):
            return self._rewrite_with_fp(prepared.query, prepared._fingerprint, prepared)

    def _answer(self, prepared: PreparedQuery) -> Answer:
        started = time.perf_counter()
        self._remember(prepared)
        fp, form, result = prepared._fingerprint, prepared._form, None
        with self._request("query"):
            self._require_database("answer queries")
            hit = self._answer_bound(form, prepared._literals, fp) if form is not None else None
            if hit is None:
                if form is not None:
                    # Stale: answered the long way, which leaves a fresh form.
                    prepared._query, prepared._form = prepared.query, None
                query = prepared.query
                result = self._rewrite_with_fp(query, fp, prepared)
                hit = self._entry(fp, query, lambda: self._evaluate_plan(query, result))
        entry, from_cache = hit
        flags = (self.last_cache_hit, from_cache)
        self.queries_served += 1
        served = form if result is None else result.best
        plan = prepared._plan
        if plan is None or plan[0] is not served:
            plan = prepared._plan = (served, *self._reply(prepared, result), {})
        _, text, rewriting, provenance, flagged = plan
        if flags not in flagged:
            flagged[flags] = replace(
                provenance, rewriting=rewriting, fingerprint=fp.text,
                cache_hit=flags[0], answered_from_cache=flags[1],
            )
        return Answer(
            rows=entry.rows,
            query=text,
            provenance=flagged[flags],
            elapsed=time.perf_counter() - started,
            _cached=entry if from_cache else None,
        )

    def _answer_bound(
        self, form: BoundForm, literals: Tuple[Constant, ...], fp: QueryFingerprint
    ) -> Optional[Tuple[AnswerEntry, bool]]:
        """:meth:`_entry` for a text resolved to a bound form: a rewrite hit
        that builds no rewriting.  None when the form is stale (the views, or
        the template it was recorded against, are gone)."""
        if (
            form.key[2:] != (self.algorithm, self.mode, self._views_token)
            or self._rewrite_cache.peek(form.template_key) is not form.template
        ):
            return None
        self.requests += 1
        self.last_cache_hit = True
        obs = self._obs
        started = time.perf_counter()  # not _staged: no closure on every warm hit
        self._rewrite_cache.get(form.template_key)
        if obs is not None:
            obs.stage("rewrite_hit", started, fingerprint=fp.text)
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
    ) -> Tuple[AnswerEntry, bool]:
        """The cached answer of ``fp`` and whether it was cached; ``run``
        evaluates it when it was not."""
        key = (fp.text, self.algorithm, self.mode)
        entry = self._answer_cache.get(key)
        if self._obs is not None:
            self._obs.cache_event("answer", "hit" if entry is not None else "miss")
        if entry is not None:
            return entry, True
        entry = AnswerEntry(self._evaluate_observed(run), query_predicates(query))
        self._answer_cache.put(key, entry)
        return entry, False

    def _evaluate_observed(self, run: Callable[[], FrozenSet[tuple]]) -> FrozenSet[tuple]:
        """Evaluate the chosen plan, recording latency and plan-cache outcomes."""
        obs = self._obs
        if obs is None:
            return run()
        executor = self._executor
        hits_before, misses_before = executor.plan_hits, executor.plan_misses
        answers = self._staged("execute", run, executor=self.executor)
        obs.cache_event("plan", "hit", executor.plan_hits - hits_before)
        obs.cache_event("plan", "compile", executor.plan_misses - misses_before)
        return answers

    def _evaluate_plan(
        self, query: ConjunctiveQuery, result: RewritingResult
    ) -> FrozenSet[Tuple[Any, ...]]:
        kind = plan_kind(result.best)
        target = query if kind is None else result.best.query
        return evaluate(target, self._database_for(kind), executor=self._executor)

    def _reply(
        self, prepared: PreparedQuery, result: Optional[RewritingResult]
    ) -> Tuple[str, Optional[str], Provenance]:
        """The per-text half of an answer: printed query, printed rewriting
        and a provenance to fill them (and the hit flags) into.  A text served
        from a bound form (``result`` is None) spells its literals into the
        form's; any other prints its objects and, if it can, leaves a form."""
        literals, form = prepared._literals, prepared._form
        spelled = {str(i): str(constant) for i, constant in enumerate(literals)}
        if result is None:
            *pieces, provenance = form.reply
            return (*(p and _spell(p, spelled) for p in pieces), provenance)
        best = result.best
        source = self._plan_target(best)
        used = best if source != SOURCE_BASE else None
        texts = [to_datalog(prepared.query), to_datalog(used.query) if used is not None else None]
        provenance = Provenance(
            source=source,
            rewriting=None,
            kind=used.kind.value if used is not None else None,
            algorithm=result.algorithm,
            views_used=used.views_used if used is not None else (),
            executor=self.executor,
        )
        if prepared._form_key is not None:
            holes = {c: Variable(f"\0{i}\0") for i, c in enumerate(literals)}
            pieces = [
                obj and _HOLE.split(to_datalog(obj.replace_terms(holes)))
                for obj in (prepared.query, used and used.query)
            ]
            # A view constant spelling a hole's mark would be split as one.
            if [p and _spell(p, spelled) for p in pieces] == texts:
                prepared._form = self._record_form(
                    prepared._form_key, prepared.query, literals, prepared._fingerprint,
                    result, (*pieces, provenance),
                )
        return (*texts, provenance)

    def _certain(self, prepared: PreparedQuery, method: str) -> Answer:
        started = time.perf_counter()
        self._remember(prepared)
        query = prepared.query
        with self._request("certain"):
            instance = self._view_instance
            if instance is None:
                self._require_database(
                    "compute certain answers without a view instance"
                )
                instance = self._view_store().as_database()
            rows = certain_answers(query, self.views, instance, method=method)
        self.queries_served += 1
        provenance = Provenance(
            source=SOURCE_CERTAIN,
            rewriting=None,
            kind=None,
            algorithm=method,
            views_used=self.views.names(),
            cache_hit=False,
            fingerprint="",
            executor=self.executor,
        )
        return Answer(
            rows=rows,
            query=to_datalog(query),
            provenance=provenance,
            elapsed=time.perf_counter() - started,
        )

    def _explain(self, prepared: PreparedQuery) -> Explanation:
        self._remember(prepared)
        query, fp = prepared.query, prepared._fingerprint
        with self._request("explain"):
            answer_cached = False
            if self.database is not None:
                self._require_database("explain")
                answer_cached = (fp.text, self.algorithm, self.mode) in self._answer_cache
            result = self._rewrite_with_fp(query, fp, prepared)
            rewrite_hit = self.last_cache_hit
            best = result.best
            choice = RewritingChoice(
                found=best is not None,
                chosen=to_datalog(best.query) if best is not None else None,
                kind=best.kind.value if best is not None else None,
                algorithm=result.algorithm,
                views_used=best.views_used if best is not None else (),
                candidates_examined=result.candidates_examined,
                cache_hit=rewrite_hit,
                alternatives=tuple(
                    RewritingAlternative(
                        query=to_datalog(r.query),
                        kind=r.kind.value,
                        views_used=r.views_used,
                    )
                    for r in result.rewritings
                    if r is not best
                ),
            )
            evaluation, materialization = self._describe_evaluation(query, best)
            caches = CacheReport(
                rewrite_cache_hit=rewrite_hit,
                answer_cached=answer_cached,
                plan_hits=self._executor.plan_hits,
                plan_misses=self._executor.plan_misses,
            )
            return Explanation(
                query=to_datalog(query),
                fingerprint=fp.text,
                algorithm=self.algorithm,
                mode=self.mode,
                rewriting=choice,
                evaluation=evaluation,
                caches=caches,
                materialization=materialization,
            )

    def _describe_evaluation(
        self, query: ConjunctiveQuery, best: Optional[Rewriting]
    ) -> Tuple[Evaluation, Optional[Dict[str, Any]]]:
        if self.database is None:
            return Evaluation(target="none", executor=self.executor, plans=()), None
        kind = plan_kind(best)
        plan_query = query if kind is None else best.query  # type: ignore[union-attr]
        plan_db = self._database_for(kind)
        disjuncts = (
            plan_query.disjuncts
            if isinstance(plan_query, UnionQuery)
            else (plan_query,)
        )
        plans = tuple(
            self._describe_plan(disjunct, plan_db, self._executor)
            for disjunct in disjuncts
        )
        materialization = self._view_store().stats() if kind is not None else None
        evaluation = Evaluation(target=self._plan_target(best), executor=self.executor, plans=plans)
        return evaluation, materialization

    @staticmethod
    def _describe_plan(
        disjunct: ConjunctiveQuery, database: Database, executor: CompiledExecutor
    ) -> PlanDescription:
        text = to_datalog(disjunct)
        hits_before = executor.plan_hits
        try:
            plan = executor.plan_for(disjunct, database)
        except EvaluationError:
            return PlanDescription(disjunct=text, strategy="interpreted")
        cache_hit = executor.plan_hits > hits_before
        if plan is None:
            return PlanDescription(
                disjunct=text, strategy="interpreted", cache_hit=cache_hit
            )
        if plan.always_empty:
            return PlanDescription(
                disjunct=text, strategy="empty", cache_hit=cache_hit
            )
        steps = tuple(
            PlanStep(
                operator=step.operator(first=index == 0),
                predicate=step.predicate,
                arity=step.arity,
                key_positions=step.key_positions,
                filters=len(step.filters),
                columns_kept=len(step.keep),
                distinct=step.distinct,
            )
            for index, step in enumerate(plan.steps)
        )
        return PlanDescription(
            disjunct=text, strategy="compiled", steps=steps, cache_hit=cache_hit
        )
