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

Internally the engine owns a :class:`~repro.service.session.RewritingSession`
(fingerprint caches, view-relevance index, delta-scoped invalidation), which
in turn owns the executor (the compiled set-at-a-time engine by default) and
the :class:`~repro.materialize.store.MaterializedViewStore`.  Nothing is
reimplemented here: the facade composes the existing layers, and the old
entry points (``rewrite``, ``evaluate``, ``RewritingSession``) remain
supported underneath it.
"""

from __future__ import annotations

import os
import re
import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import (
    ConstraintViolationError,
    EvaluationError,
    MaterializationError,
    QueryConstructionError,
    StorageError,
)
from repro.datalog.parser import parse_database, parse_program, parse_query
from repro.datalog.printer import to_datalog
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Variable
from repro.engine.database import Database
from repro.materialize.changelog import ChangeLog
from repro.materialize.compare import verify_extents
from repro.materialize.delta import Delta, parse_delta
from repro.obs import Instrumentation, MetricsRegistry, Trace
from repro.rewriting.certain import certain_answers
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult
from repro.service.batch import BatchReport, run_batch
from repro.service.fingerprint import QueryFingerprint, fingerprint
from repro.service.session import RewritingSession
from repro.storage import (
    BackedDatabase,
    RecoveryResult,
    StorageManager,
    default_backend_name,
    list_snapshots,
    make_backend,
)
from repro.storage.manager import SQLITE_FILENAME
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
    executor: Optional[str] = None,
    cache_size: int = 512,
    use_view_index: bool = True,
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
    algorithm / mode / executor / cache_size / use_view_index:
        Forwarded to the underlying :class:`RewritingSession`.  ``executor``
        is ``"compiled"`` or ``"interpreted"``; ``None`` uses the
        process-wide configured default.
    observability:
        When True (the default) the engine owns a
        :class:`repro.obs.Instrumentation` bundle: per-stage latency
        histograms, cache-event counters and request traces, readable via
        :meth:`Engine.metrics` (Prometheus text) and :meth:`Engine.trace`.
        Pass False for a bare engine with zero instrumentation overhead.
    backend:
        The storage backend: ``"memory"`` (the default in-memory row store) or
        ``"sqlite"`` (rows in SQLite with scan pushdown).  ``None`` reads
        the ``REPRO_DEFAULT_BACKEND`` environment variable, falling back to
        memory.  Without ``storage``, the sqlite backend uses an in-memory
        SQLite database (no persistence, but exercising the full adapter).
    storage:
        A durable storage directory (created if absent): the write-ahead
        log, snapshots and (for the sqlite backend) the base rows live
        there.  A fresh directory ingests ``data``; a directory holding
        prior state is *recovered* — pass no ``data`` then — and the
        :attr:`Engine.recovery_report` says what happened.
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
        if wal is not None:
            raise StorageError("wal= requires a storage directory (storage=...)")
        if snapshot is not None:
            raise StorageError("snapshot= requires a storage directory (storage=...)")
        backend_name = backend if backend is not None else default_backend_name()
        if backend_name != "memory" and database is not None:
            database = BackedDatabase.from_database(
                database, make_backend(backend_name)
            )
    else:
        backend_name = backend
        if backend_name is None:
            # Reopening a directory must pick the backend its base rows
            # actually live in; only a genuinely fresh directory consults
            # the environment default.
            if os.path.exists(os.path.join(storage, SQLITE_FILENAME)):
                backend_name = "sqlite"
            else:
                backend_name = default_backend_name()
        manager = StorageManager(storage, backend=backend_name, fsync=_fsync_policy(wal))
        has_state = manager.last_seq > 0 or bool(list_snapshots(storage))
        if has_state:
            if database is not None:
                manager.close()
                raise StorageError(
                    f"storage directory {storage!r} already holds state; "
                    "omit data= to recover it (or point at a new directory)"
                )
            recovery = manager.recover()
            database = recovery.database
        else:
            database = manager.attach_database(
                database if database is not None else Database()
            )
    catalog = Catalog(
        schema=schema,
        views=views,
        constraints=constraints,
        data_schema=database.schema() if database is not None else None,
    )
    return Engine(
        catalog,
        database=database,
        view_instance=instance,
        algorithm=algorithm,
        mode=mode,
        executor=executor,
        cache_size=cache_size,
        use_view_index=use_view_index,
        observability=observability,
        storage_manager=manager,
        recovery=recovery,
        snapshot_interval=snapshot,
    )


def _fsync_policy(wal: "None | bool | str") -> str:
    if wal is None:
        return "batch"
    if wal is True:
        return "always"
    if wal is False:
        return "none"
    return str(wal)


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
    which goes through the engine's session caches.  The one built from a
    query *text* is memoised by the engine and carries what is a pure
    function of that text: its fingerprint and, once answered, the
    per-text half of the answer (printed query, provenance of the plan).
    """

    __slots__ = ("engine", "_query", "_text", "_fingerprint", "_plan",
                 "_form", "_form_key", "_literals")

    def __init__(self, engine: "Engine", query: Optional[ConjunctiveQuery]):
        self.engine = engine
        self._query = query
        #: The text this was parsed from (None for a query object).
        self._text: Optional[str] = None
        self._fingerprint: Optional[QueryFingerprint] = None
        #: ``(best rewriting or bound form, printed query, printed rewriting,
        #: Provenance less its hit flags, {hit flags: Provenance})`` of the
        #: last answer; reused for as long as the session serves the text
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
        if self._fingerprint is None:
            self._fingerprint = fingerprint(self.query)
        known = self._form is not None or self.engine._prepared.get(self._text) is self
        return self._fingerprint.text, not known

    def rewrite(self) -> RewritingResult:
        """Rewrite this query using the engine's views (fingerprint-cached)."""
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
    """A connection-style facade over rewriting, execution and maintenance."""

    def __init__(
        self,
        catalog: Catalog,
        database: Optional[Database] = None,
        view_instance: Optional[Database] = None,
        algorithm: str = "minicon",
        mode: str = "equivalent",
        executor: Optional[str] = None,
        cache_size: int = 512,
        use_view_index: bool = True,
        observability: bool = True,
        storage_manager: Optional[StorageManager] = None,
        recovery: Optional[RecoveryResult] = None,
        snapshot_interval: Optional[int] = None,
    ):
        if not isinstance(catalog, Catalog):
            raise QueryConstructionError(f"expected a Catalog, got {catalog!r}")
        self._catalog = catalog
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
        self._view_instance = view_instance
        self._obs: Optional[Instrumentation] = (
            Instrumentation() if observability else None
        )
        self._session = RewritingSession(
            catalog.views,
            database=database,
            algorithm=algorithm,
            mode=mode,
            cache_size=cache_size,
            use_view_index=use_view_index,
            executor=executor,
            instrumentation=self._obs,
        )
        #: Query text -> its validated PreparedQuery: parsing, catalog
        #: validation and fingerprinting are pure functions of the text and
        #: this engine's fixed catalog.  FIFO-bounded by ``cache_size``.
        self._prepared: Dict[str, PreparedQuery] = {}
        self.queries_served = 0
        self.deltas_applied = 0
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
        """Apply the recovered WAL tail through the session (view-maintaining)."""
        assert self._storage is not None
        store_restored = False
        if recovery.store_state is not None:
            store_restored = self._session.restore_store_state(recovery.store_state)
        for record in recovery.tail:
            self._session.apply_delta(parse_delta(record.payload))
            self._storage.mark_applied(record.seq)
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
        (``RewritingSession.bound_lookup``) are those of an answered one is
        not parsed either, only scanned for its literals.  This method only
        *reads* the two memos (a text and its bound form join them inside its
        first verb, a failing one never), so unlike the verbs it needs no
        lock around it in a threaded front end.
        """
        if isinstance(query, ConjunctiveQuery):
            self._catalog.validate_query(query)
            return PreparedQuery(self, query)
        if not isinstance(query, str):
            raise QueryConstructionError(
                f"expected datalog text or a ConjunctiveQuery, got {query!r}"
            )
        prepared = self._prepared.get(query)
        if prepared is not None:
            return prepared
        key, literals, form = self._session.bound_lookup(query)
        if form is not None:
            prepared = PreparedQuery(self, None)
            prepared._fingerprint = form.fingerprint(literals)
        else:
            with self._obs.stage("parse") if self._obs is not None else nullcontext():
                parsed = parse_query(query)
            self._catalog.validate_query(parsed)
            prepared = PreparedQuery(self, parsed)
            prepared._fingerprint = fingerprint(parsed)
        prepared._text, prepared._form, prepared._form_key = query, form, key
        prepared._literals = literals
        return prepared

    def _remember(self, prepared: PreparedQuery) -> None:
        """Memoise a text's PreparedQuery, and count what ``query`` found for
        it among the bound forms; called by every verb, i.e. under whatever
        lock the caller guards the session caches with."""
        memo, bound = self._prepared, self._session.cache_size
        if prepared._text is None or prepared._text in memo or bound <= 0:
            return
        self._session.bound_counted(prepared._form_key)
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
            self._require_database("apply a delta")
            if self._storage is not None:
                # The durable protocol: journal first, apply second, move
                # the applied-watermark last.  Replay is idempotent, so a
                # crash between any two steps recovers exactly.
                assert self._session.database is not None
                seq = self._storage.journal(delta, self._session.database.version)
                log = self._session.apply_delta(delta)
                self._storage.mark_applied(seq)
            else:
                log = self._session.apply_delta(delta)
        self.deltas_applied += 1
        if self._storage is not None and self._snapshot_interval:
            self._deltas_since_checkpoint += 1
            if self._deltas_since_checkpoint >= self._snapshot_interval:
                self.checkpoint()
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
        self._require_database("checkpoint")
        assert self._session.database is not None
        info = self._storage.checkpoint(
            self._session.database, self._session.export_store_state()
        )
        self._deltas_since_checkpoint = 0
        return info

    def batch(
        self,
        queries: Union[str, Sequence[QueryInput]],
        with_answers: bool = False,
    ) -> BatchReport:
        """Process a workload through the engine's configuration.

        ``queries`` is a sequence of queries (text or objects) or one datalog
        program text (see :func:`repro.service.batch.run_batch`).
        """
        if isinstance(queries, str):
            queries = list(parse_program(queries))
        return run_batch(
            list(queries),
            self._session.views,
            database=self._session.database,
            algorithm=self._session.algorithm,
            mode=self._session.mode,
            cache_size=self._session.cache_size,
            use_view_index=self._session.use_view_index,
            with_answers=with_answers,
            executor=self._session.executor,
        )

    def stats(self) -> Dict[str, Any]:
        """Catalog, engine counters, and the full session/cache/store state."""
        return {
            "catalog": self._catalog.describe(),
            "queries_served": self.queries_served,
            "deltas_applied": self.deltas_applied,
            "session": self._session.stats(),
            "storage": self.storage_status(),
        }

    def storage_status(self) -> Optional[Dict[str, Any]]:
        """Durability health: backend, WAL position/lag, snapshot freshness.

        None for a plain in-memory engine with no storage attached; the
        server's ``/healthz`` embeds this when present.
        """
        backend = getattr(self._session.database, "backend", None)
        if self._storage is None:
            if backend is None:
                return None
            return {"backend": backend.capabilities.to_dict()}
        status = self._storage.status()
        if backend is not None:
            status["db_backend"] = backend.capabilities.to_dict()
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

    def _refresh_gauges(self, obs: Instrumentation) -> None:
        """Set the point-in-time gauges from the session's stats snapshot."""
        occupancy = obs.registry.gauge(
            "repro_cache_entries",
            "Current entry count of each bounded cache.",
            labels=("cache",),
        )
        stats = self._session.stats()
        for cache in ("rewrite_cache", "answer_cache", "translation_cache",
                      "containment_cache"):
            entry = stats.get(cache)
            if entry is not None:
                occupancy.labels(cache.removesuffix("_cache")).set(entry["size"])
        memo = stats.get("global.containment_memo")
        if memo is not None:
            occupancy.labels("containment_memo").set(memo["size"])
            obs.registry.gauge(
                "repro_containment_memo_hit_rate",
                "Hit rate of the process-global containment memo.",
            ).set(memo["hit_rate"])

    def check(self) -> Tuple[str, ...]:
        """Re-check integrity constraints; returns violated constraint names."""
        self._require_database("check constraints")
        assert self._session.database is not None
        return self._catalog.check_constraints(self._session.database)

    # -- materialization ----------------------------------------------------------
    def extent(self, view_name: str) -> Any:
        """The maintained extent of one view (materializing on first use)."""
        self._require_database("read view extents")
        return self._session.store().extent(view_name)

    def verify(self) -> list:
        """Cross-check maintained extents against full recomputation."""
        self._require_database("verify view extents")
        return verify_extents(self._session.store())

    # -- introspection ------------------------------------------------------------
    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def views(self):
        return self._session.views

    @property
    def database(self) -> Optional[Database]:
        return self._session.database

    @property
    def session(self) -> RewritingSession:
        """The underlying session (for benchmarks and advanced callers)."""
        return self._session

    @property
    def executor(self) -> str:
        """The configured executor name (``"compiled"`` / ``"interpreted"``)."""
        return self._session.executor

    @property
    def last_cache_hit(self) -> bool:
        """Whether the most recent rewrite/answer was served from cache."""
        return self._session.last_cache_hit

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
        self._session.invalidate()
        self._prepared.clear()
        if self._storage is not None:
            self._storage.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Engine({self._catalog!r}, data={self.database is not None}, "
            f"executor={self.executor!r})"
        )

    # -- internals ----------------------------------------------------------------
    def _require_database(self, action: str) -> None:
        if self._session.database is None:
            raise MaterializationError(
                f"this engine has no base data attached; cannot {action} "
                "(pass data=... to repro.connect)"
            )

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
            return self._session.rewrite_cached(prepared.query, prepared._fingerprint)

    def _answer(self, prepared: PreparedQuery) -> Answer:
        started = time.perf_counter()
        self._remember(prepared)
        session, form, result = self._session, prepared._form, None
        with self._request("query"):
            self._require_database("answer queries")
            entry = None
            if form is not None:
                entry = session._answer_bound(form, prepared._literals, prepared._fingerprint)
                if entry is None:
                    # Stale: answered the long way, which leaves a fresh form.
                    prepared._query, prepared._form = prepared.query, None
            if entry is None:
                entry, result = session._answer_entry(prepared.query, prepared._fingerprint)
        flags = (session.last_cache_hit, session.last_answer_from_cache)
        self.queries_served += 1
        served = form if result is None else result.best
        plan = prepared._plan
        if plan is None or plan[0] is not served:
            plan = prepared._plan = (served, *self._reply(prepared, result), {})
        _, text, rewriting, provenance, flagged = plan
        if flags not in flagged:
            flagged[flags] = replace(
                provenance, rewriting=rewriting, fingerprint=session.last_fingerprint,
                cache_hit=flags[0], answered_from_cache=flags[1],
            )
        return Answer(
            rows=entry.rows,
            query=text,
            provenance=flagged[flags],
            elapsed=time.perf_counter() - started,
            _cached=entry if flags[1] else None,
        )

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
            executor=self._session.executor,
        )
        if prepared._form_key is not None:
            holes = {c: Variable(f"\0{i}\0") for i, c in enumerate(literals)}
            pieces = [
                obj and _HOLE.split(to_datalog(obj.replace_terms(holes)))
                for obj in (prepared.query, used and used.query)
            ]
            # A view constant spelling a hole's mark would be split as one.
            if [p and _spell(p, spelled) for p in pieces] == texts:
                prepared._form = self._session.record_form(
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
                instance = self._session.store().as_database()
            rows = certain_answers(
                query, self._session.views, instance, method=method
            )
        self.queries_served += 1
        provenance = Provenance(
            source=SOURCE_CERTAIN,
            rewriting=None,
            kind=None,
            algorithm=method,
            views_used=self._session.views.names(),
            cache_hit=False,
            fingerprint="",
            executor=self._session.executor,
        )
        return Answer(
            rows=rows,
            query=to_datalog(query),
            provenance=provenance,
            elapsed=time.perf_counter() - started,
        )

    def _explain(self, prepared: PreparedQuery) -> Explanation:
        self._remember(prepared)
        with self._request("explain"):
            return self._explain_uncounted(prepared.query, prepared._fingerprint)

    def _explain_uncounted(
        self, query: ConjunctiveQuery, fp: Optional[QueryFingerprint]
    ) -> Explanation:
        answer_cached = (
            self._session.database is not None
            and self._session.has_cached_answer(query, fp)
        )
        result = self._session.rewrite_cached(query, fp)
        rewrite_hit = self._session.last_cache_hit
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
        executor = self._session.evaluation_executor
        executor_stats = executor.stats()
        caches = CacheReport(
            rewrite_cache_hit=rewrite_hit,
            answer_cached=answer_cached,
            plan_hits=executor_stats.get("plan_hits", 0),
            plan_misses=executor_stats.get("plan_misses", 0),
        )
        return Explanation(
            query=to_datalog(query),
            fingerprint=self._session.last_fingerprint,
            algorithm=self._session.algorithm,
            mode=self._session.mode,
            rewriting=choice,
            evaluation=evaluation,
            caches=caches,
            materialization=materialization,
        )

    def _describe_evaluation(
        self, query: ConjunctiveQuery, best: Optional[Rewriting]
    ) -> Tuple[Evaluation, Optional[Dict[str, Any]]]:
        executor_name = self._session.executor
        if self._session.database is None:
            return Evaluation(target="none", executor=executor_name, plans=()), None
        target = self._plan_target(best)
        if target == SOURCE_VIEWS:
            plan_query: "ConjunctiveQuery | UnionQuery" = best.query  # type: ignore[union-attr]
            plan_db = self._session.store().as_database()
        elif target == SOURCE_VIEWS_AND_BASE:
            plan_query = best.query  # type: ignore[union-attr]
            assert self._session.database is not None
            plan_db = self._session.store().as_database().merge(self._session.database)
        else:
            plan_query = query
            plan_db = self._session.database
        disjuncts = (
            plan_query.disjuncts
            if isinstance(plan_query, UnionQuery)
            else (plan_query,)
        )
        executor = self._session.evaluation_executor
        plans = tuple(
            self._describe_plan(disjunct, plan_db, executor)
            for disjunct in disjuncts
        )
        materialization = None
        if target in (SOURCE_VIEWS, SOURCE_VIEWS_AND_BASE):
            materialization = self._session.store().stats()
        return Evaluation(target=target, executor=executor_name, plans=plans), materialization

    @staticmethod
    def _describe_plan(
        disjunct: ConjunctiveQuery, database: Database, executor: Any
    ) -> PlanDescription:
        text = to_datalog(disjunct)
        # The compiled executor exposes plan_for; the interpreter does not.
        if not hasattr(executor, "plan_for"):
            return PlanDescription(disjunct=text, strategy="interpreted")
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
