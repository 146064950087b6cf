"""Per-layer metrics: server-side counts and the in-process traced pass.

Layers are the packages of ``src/repro``.  Two sources, both outside the
program (spans *inside* it are a later change):

* **Counts** are deltas of what ``GET /stats`` and ``GET /metrics`` already
  expose, read before and after the sat phase (:func:`server_side`).
* **Times** are spans this file opens around each layer's public function
  while it replays the head of the workload's request stream in-process
  (:func:`traced_pass`).  Every request gets two root spans sharing its
  request id: ``request``, whose child ``api.answers`` (``api.apply`` for a
  write) is an :class:`~repro.api.Engine` configured like the server, and
  ``layers`` — the same request taken through the layers one call at a time
  on independent state: ``datalog.parse`` → ``service.fingerprint`` →
  ``rewriting.rewrite`` → ``exec.compile`` → ``exec.execute`` for a read,
  ``storage.wal_append`` → ``engine.apply_delta`` → ``materialize.maintain``
  → ``storage.checkpoint`` for a write.  The layered state keeps the two
  caches the session keeps (rewritings and answers by fingerprint, answers
  evicted by changed predicate), so a request that is a cache hit in the
  engine skips the same layers here and a layer's share of ``api.answers``
  is meaningful.

The traced pass never overlaps a timed phase: the server is dead by then.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.api import connect
from repro.containment.containment import is_contained
from repro.containment.memo import global_containment_memo, memo_disabled
from repro.datalog.parser import parse_database, parse_query
from repro.engine.database import Database
from repro.exec import CompiledExecutor
from repro.experiments.measure import percentile
from repro.materialize.store import MaterializedViewStore
from repro.rewriting.rewriter import rewrite
from repro.service.cache import LRUCache
from repro.service.fingerprint import fingerprint
from repro.service.view_index import ViewRelevanceIndex
from repro.storage import StorageManager

import inputs
from loadgen import PhaseResult

#: Requests replayed by the traced pass, per workload (20 under ``--smoke``).
TRACED_REQUESTS = {"warm_serve": 200, "cold_rewrite": 100, "exec_heavy": 100,
                   "churn_mixed": 280}
#: Deltas replayed after the reads of a read-only workload (two checkpoints
#: and a tail for recovery to replay).
TRACED_DELTAS = 60
#: Seconds given to the observability on/off pairs.
OVERHEAD_BUDGET = 2.0


class SpanRecorder:
    """Spans kept in memory: name, start, end, parent and request id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, request_id: int) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request_id": request_id,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def by_request(self, name: str) -> Dict[int, float]:
        """Total seconds of the spans called ``name``, per request id."""
        total: Dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name:
                total[s["request_id"]] = total.get(s["request_id"], 0.0) + s["end"] - s["start"]
        return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds per span name, minus what each span's children cover."""
    covered: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals: Dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def write_trace(runs: Sequence[Any], path: Path) -> None:
    """Write the spans of every traced run of this invocation to one file."""
    path.write_text(json.dumps({
        "unit": "seconds since the workload's traced pass began",
        "traces": [
            {"workload": run.workload.name, "seed": run.seed, "spans": run.spans}
            for run in runs
        ],
    }))


# ---------------------------------------------------------------------------
# Counts the server already exposes
# ---------------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _moved(before: Dict[str, Any], after: Dict[str, Any], *path: str) -> float:
    def dig(document: Dict[str, Any]) -> float:
        value: Any = document
        for key in path:
            value = (value or {}).get(key)
        return float(value or 0)
    return dig(after) - dig(before)


def scrape(metrics_text: str, name: str) -> float:
    """Sum of a counter's samples in a Prometheus text exposition."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in (" ", "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def server_side(run: Any) -> None:
    """Fill the count-based per-layer metrics from ``/stats`` deltas.

    ``before``/``after`` bracket the sat phase; ``final`` is read after the
    last write, so the delta-driven counters cover every delta the server saw.
    """
    stats = run.server_stats
    metrics_text = stats["metrics"]
    sat, single = run.sat, run.single
    v, n = run.values, run.samples
    s0, s1, s2 = (stats[moment]["session"] for moment in ("before", "after", "final"))

    def hit_ratio(cache: str) -> float:
        hits = _moved(s0, s1, cache, "hits")
        return _ratio(hits, hits + _moved(s0, s1, cache, "misses"))

    v["service.rewrite_cache_hit_ratio"] = hit_ratio("rewrite_cache")
    v["service.answer_cache_hit_ratio"] = hit_ratio("answer_cache")
    pruned = _moved(s0, s1, "view_index", "views_pruned")
    v["service.views_pruned_ratio"] = _ratio(
        pruned, pruned + _moved(s0, s1, "view_index", "views_admitted")
    )
    v["service.delta_evictions"] = _moved(s0, s2, "delta_evictions")
    v["service.delta_retained"] = _moved(s0, s2, "delta_retained")

    memo = "global.containment_memo"
    memo_hits = _moved(s0, s1, memo, "hits")
    lookups = memo_hits + _moved(s0, s1, memo, "misses")
    v["containment.memo_hit_ratio"] = _ratio(memo_hits, lookups)
    checks = lookups + _moved(s0, s1, memo, "guard_rejections") + _moved(s0, s1, memo, "bypasses")
    cold = _moved(s0, s1, "rewrite_cache", "misses")
    v["containment.checks_per_rewrite"] = _ratio(checks, cold)
    n["containment.checks_per_rewrite"] = int(cold)

    plan_hits = _moved(s0, s1, "executor", "plan_hits")
    v["exec.plan_hit_ratio"] = _ratio(
        plan_hits, plan_hits + _moved(s0, s1, "executor", "plan_misses")
    )
    v["exec.fallbacks"] = _moved(s0, s2, "executor", "fallbacks")

    deltas = _moved(s0, s2, "store", "deltas_applied")
    v["materialize.views_maintained_per_delta"] = _ratio(
        _moved(s0, s2, "store", "views_maintained"), deltas
    )
    n["materialize.views_maintained_per_delta"] = int(deltas)
    v["materialize.views_recomputed"] = _moved(s0, s2, "store", "views_recomputed")

    v["server.coalesced_total"] = scrape(metrics_text, "repro_server_coalesced_total")
    v["server.rejected_total"] = scrape(metrics_text, "repro_server_rejected_total")
    sizes = [s.nbytes for s in sat.of_kind("read") if s.latency is not None]
    v["server.response_bytes_p50"] = percentile(sizes, 0.5)
    n["server.response_bytes_p50"] = len(sizes)

    def completed(phase: PhaseResult) -> int:
        return sum(1 for s in phase.samples
                   if s.latency is not None and s.at + s.latency < phase.seconds)

    v["server.conn_scaling"] = _ratio(
        completed(sat) / sat.seconds, completed(single) / single.seconds
    )
    n["server.conn_scaling"] = completed(single)
    v["storage.checkpoint_stall_ms"] = _checkpoint_stall(run, run.paced)


def _checkpoint_stall(run: Any, paced_result: PhaseResult) -> float:
    """Median, over the paced phase's checkpoints, of the slowest request
    within one request of the write that triggered it (0 without storage)."""
    if not run.workload.storage_flags:
        return 0.0
    ordered = [s for s in paced_result.samples if s.latency is not None]
    stalls = []
    for position, sample in enumerate(ordered):
        # The server checkpoints on every SNAPSHOT_EVERY-th delta it has applied,
        # and it has applied the whole stream from index 0.
        if sample.kind == "write" and (sample.ref + 1) % inputs.SNAPSHOT_EVERY == 0:
            around = ordered[max(0, position - 1):position + 2]
            stalls.append(max(s.latency for s in around))
    run.samples["storage.checkpoint_stall_ms"] = len(stalls)
    return statistics.median(stalls) * 1e3 if stalls else 0.0


# ---------------------------------------------------------------------------
# The traced pass
# ---------------------------------------------------------------------------

class Pipeline:
    """One request through the layers' public functions, on its own state."""

    def __init__(self, workload: inputs.Workload, database: Database,
                 store: MaterializedViewStore, storage_dir: Path, recorder: SpanRecorder):
        self.views = workload.views
        self.database = database
        self.store = store
        self.recorder = recorder
        self.executor = CompiledExecutor()
        self.index = ViewRelevanceIndex(self.views)
        self.rewritings = LRUCache(512)
        self.answers = LRUCache(512)
        #: A plain copy of the base relations: ``Database.apply_delta`` alone.
        self.bare = database.copy()
        self.manager = StorageManager(str(storage_dir), backend="memory", fsync="always")
        self.manager.attach_database(database)
        self.results: List[Any] = []
        self.rows_out = 0
        self.applied = 0
        self.changed_rows = 0

    def read(self, text: str, request_id: int) -> None:
        span = self.recorder.span
        with span("datalog.parse", request_id):
            query = parse_query(text)
        with span("service.fingerprint", request_id):
            key = fingerprint(query).text
        if self.answers.get(key) is not None:
            return
        result = self.rewritings.get(key)
        if result is None:
            candidate_filter = self.index.make_filter(query, "overlap")
            with span("rewriting.rewrite", request_id):
                result = rewrite(query, self.views, "minicon", "equivalent",
                                 candidate_filter=candidate_filter)
            self.rewritings.put(key, result)
            self.results.append(result)
        plan = result.best.query if result.best is not None else query
        instance = self.store.as_database() if result.best is not None else self.database
        with span("exec.compile", request_id):
            self.executor.plan_for(plan, instance)
        with span("exec.execute", request_id):
            rows = self.executor.evaluate(plan, instance)
        self.rows_out += len(rows)
        predicates = frozenset(name for name, _ in query.predicates())
        self.answers.put(key, (rows, predicates))

    def write(self, delta: Any, request_id: int) -> None:
        span = self.recorder.span
        with span("storage.wal_append", request_id):
            seq = self.manager.wal.append(delta.to_text(), self.database.version)
        with span("engine.apply_delta", request_id):
            self.bare.apply_delta(delta)
        with span("materialize.maintain", request_id):
            log = self.store.apply_delta(delta)
        self.manager.mark_applied(seq)
        self.applied += 1
        self.changed_rows += delta.size()
        affected = log.affected_predicates()
        for key in list(self.answers):
            if self.answers.peek(key)[1] & affected:
                self.answers.discard(key)
        if self.applied % inputs.SNAPSHOT_EVERY == 0:
            self.checkpoint(request_id)

    def checkpoint(self, request_id: int) -> None:
        with self.recorder.span("storage.checkpoint", request_id):
            self.manager.checkpoint(self.database, self.store.export_state())


def _median_of(values: Sequence[float], scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def traced_pass(run: Any) -> List[Dict[str, Any]]:
    """Replay the head of the request stream in-process; fill the time metrics."""
    w = run.workload
    v, n = run.values, run.samples
    work: Path = run.work
    views_text, facts_text = inputs.views_text(w.views), inputs.facts_text(w.database)
    durable = bool(w.storage_flags)

    started = time.perf_counter()
    database = Database.from_atoms(parse_database(facts_text))
    v["engine.load_facts_per_s"] = database.size() / (time.perf_counter() - started)
    n["engine.load_facts_per_s"] = database.size()
    v["engine.rows_per_relation"] = database.size() / len(database.relation_names())
    started = time.perf_counter()
    store = MaterializedViewStore(w.views, database)
    v["materialize.initial_ms"] = (time.perf_counter() - started) * 1e3

    count = 20 if run.smoke else TRACED_REQUESTS[w.name]
    reads = [text for text, _ in w.reads(count)]
    if w.interleaved_writes:
        plan: List[Tuple[str, Any]] = []
        cursor = 0
        for position, text in enumerate(reads):
            if position % 10 in inputs.WRITE_SLOTS:
                plan.append(("write", w.deltas[cursor]))
                cursor += 1
            else:
                plan.append(("read", text))
    else:
        deltas = w.deltas[: 10 if run.smoke else TRACED_DELTAS]
        plan = [("read", text) for text in reads] + [("write", d) for d in deltas]

    def engine(tag: str, observability: bool = True):
        storage = {"storage": str(work / tag), "wal": "always",
                   "snapshot": inputs.SNAPSHOT_EVERY} if durable else {}
        return connect(views=views_text, data=facts_text, observability=observability, **storage)

    # Like the server, every state below first takes the warm-up list, so the
    # replayed requests meet the caches the timed phases met.  Warm-up requests
    # are recorded too, under negative request ids: they feed the layer times,
    # never the shares of ``api.answers``.
    warm_up = w.templates[:8] if run.smoke else w.templates
    numbered = [(-1 - i, "read", text) for i, text in enumerate(warm_up)] + [
        (i, kind, item) for i, (kind, item) in enumerate(plan)
    ]

    # Three passes over the same requests, each from a reset containment memo
    # (it is process-wide: a pass that followed another request by request
    # would find every verdict already made).  First with the recorder off.
    global_containment_memo().reset()
    bare_engine = engine("trace-bare")
    bare: List[float] = []
    for request_id, kind, item in numbered:
        if kind == "write":
            bare_engine.apply(item)
            continue
        started = time.perf_counter()
        bare_engine.query(item).answers()
        if request_id >= 0:
            bare.append(time.perf_counter() - started)
    bare_engine.close()

    # Then the engine, one root span per request ...
    global_containment_memo().reset()
    recorder = SpanRecorder()
    traced_engine = engine("trace-engine")
    for request_id, kind, item in numbered:
        with recorder.span("request", request_id):
            if kind == "read":
                with recorder.span("api.answers", request_id):
                    traced_engine.query(item).answers()
            else:
                with recorder.span("api.apply", request_id):
                    traced_engine.apply(item)

    # ... then the same requests layer by layer, on independent state.
    global_containment_memo().reset()
    pipeline = Pipeline(w, database, store, work / "trace-pipeline", recorder)
    for request_id, kind, item in numbered:
        with recorder.span("layers", request_id):
            if kind == "read":
                pipeline.read(item, request_id)
            else:
                pipeline.write(item, request_id)
    if not recorder.durations("storage.checkpoint"):
        with recorder.span("layers", len(plan)):  # short (smoke) passes still time one
            pipeline.checkpoint(len(plan))

    def times(name: str, metric: str, scale: float) -> None:
        durations = recorder.durations(name)
        v[metric] = _median_of(durations, scale)
        n[metric] = len(durations)

    times("datalog.parse", "datalog.parse_us", 1e6)
    times("service.fingerprint", "service.fingerprint_us", 1e6)
    times("rewriting.rewrite", "rewriting.cold_rewrite_ms", 1e3)
    times("exec.compile", "exec.compile_ms", 1e3)
    times("exec.execute", "exec.execute_ms", 1e3)
    times("engine.apply_delta", "engine.apply_delta_us", 1e6)
    times("materialize.maintain", "materialize.maintain_ms", 1e3)
    times("storage.wal_append", "storage.wal_append_us", 1e6)
    times("storage.checkpoint", "storage.checkpoint_ms", 1e3)

    results = pipeline.results
    v["rewriting.rewritings_per_query"] = _ratio(sum(len(r.rewritings) for r in results), len(results))
    v["rewriting.candidates_per_query"] = _ratio(
        sum(r.candidates_examined for r in results), len(results)
    )
    n["rewriting.rewritings_per_query"] = n["rewriting.candidates_per_query"] = len(results)
    v["exec.rows_per_s"] = _ratio(pipeline.rows_out, sum(recorder.durations("exec.execute")))

    answers = {rid: t for rid, t in recorder.by_request("api.answers").items() if rid >= 0}
    v["api.answers_ms"] = _median_of(list(answers.values()), 1e3)
    n["api.answers_ms"] = len(answers)
    layered = [recorder.by_request(name) for name in (
        "datalog.parse", "service.fingerprint", "rewriting.rewrite", "exec.compile", "exec.execute",
    )]
    v["api.self_us"] = _median_of(
        [seconds - sum(layer.get(rid, 0.0) for layer in layered)
         for rid, seconds in answers.items()], 1e6,
    )
    # Shares are taken inside the layered pass — a layer's self time over the
    # whole of the reads' ``layers`` spans — not against ``api.answers``: the
    # two passes run seconds apart, and this host's speed moves in between.
    reads_layered = sum(
        seconds for rid, seconds in recorder.by_request("layers").items() if rid in answers
    )
    own = self_times([s for s in recorder.spans if s["request_id"] in answers])
    v["rewriting.self_share"] = _ratio(own.get("rewriting.rewrite", 0.0), reads_layered)
    v["exec.self_share"] = _ratio(
        own.get("exec.compile", 0.0) + own.get("exec.execute", 0.0), reads_layered
    )
    v["trace.overhead_ratio"] = _ratio(
        statistics.median(answers.values()), statistics.median(bare)
    )
    one_connection = statistics.median(
        s.latency for s in run.single.of_kind("read") if s.latency is not None
    )
    v["server.http_overhead_us"] = (one_connection - statistics.median(bare)) * 1e6

    # Raw containment checks on the expansion/query pairs the rewrites produced.
    pairs = [
        (rewriting.expansion, result.query)
        for result in results for rewriting in result.rewritings[:3]
        if rewriting.expansion is not None
    ][:60]
    checks = []
    with memo_disabled():
        for expansion, query in pairs:
            started = time.perf_counter()
            is_contained(expansion, query)
            checks.append(time.perf_counter() - started)
    v["containment.check_us"] = _median_of(checks, 1e6)
    n["containment.check_us"] = len(checks)

    # A cached query through the session alone.
    session = traced_engine.session
    warm = []
    for text in reads[-20:]:
        query = parse_query(text)
        session.answer(query)
        for _ in range(10):
            started = time.perf_counter()
            session.answer(query)
            warm.append(time.perf_counter() - started)
    v["service.warm_answer_us"] = _median_of(warm, 1e6)
    n["service.warm_answer_us"] = len(warm)
    traced_engine.close()

    _storage_metrics(run, pipeline, database, work)
    _observability_overhead(run, engine)
    return recorder.spans


def _storage_metrics(run: Any, pipeline: Pipeline, database: Database, work: Path) -> None:
    v, n = run.values, run.samples
    manager = pipeline.manager
    wal = manager.wal.stats()
    status = manager.status()
    facts = database.size()
    # The first fsync belongs to the log's creation, not to a delta.
    v["storage.fsyncs_per_delta"] = _ratio(wal["fsyncs"] - 1, wal["appended"])
    v["storage.wal_bytes_per_changed_row"] = _ratio(wal["bytes"], pipeline.changed_rows)
    v["storage.snapshot_bytes_per_fact"] = _ratio(status["snapshot_bytes"], facts)
    directory = Path(manager.directory)
    v["storage.disk_bytes_per_fact"] = _ratio(
        sum(f.stat().st_size for f in directory.iterdir() if f.is_file()), facts
    )
    manager.close()
    recoveries, replayed = [], 0
    for rep in range(3):
        copy = work / f"trace-recover-{rep}"
        shutil.copytree(directory, copy)
        started = time.perf_counter()
        recovering = StorageManager(str(copy), backend="memory", fsync="always")
        recovered = recovering.recover()
        recoveries.append(time.perf_counter() - started)
        replayed = len(recovered.tail)
        recovering.close()
        shutil.rmtree(copy)
    v["storage.recover_ms"] = statistics.median(recoveries) * 1e3
    n["storage.recover_ms"] = len(recoveries)
    v["storage.replayed_deltas"] = float(replayed)


def _observability_overhead(run: Any, engine: Any) -> None:
    """``answers()`` with observability on ÷ off, as the median over pairs.

    Each pair sends one text of the read stream to both engines and yields
    one ratio, so what varies between requests cancels within the pair.
    """
    on, off = engine("obs-on", True), engine("obs-off", False)
    ratios: List[float] = []
    deadline = time.perf_counter() + (0.3 if run.smoke else OVERHEAD_BUDGET)
    while time.perf_counter() < deadline:
        for text, _ in run.workload.reads(4):
            seconds = {}
            # Alternate which engine goes first, so neither always finds the
            # CPU caches warmed by the other.
            for target in ((on, off) if len(ratios) % 2 else (off, on)):
                # The memo is shared: whoever went second would find the
                # first one's verdicts.  Both sides start each call cold.
                global_containment_memo().clear()
                started = time.perf_counter()
                target.query(text).answers()
                seconds[target is on] = time.perf_counter() - started
            ratios.append(seconds[True] / seconds[False])
    on.close()
    off.close()
    run.values["obs.overhead_ratio"] = statistics.median(ratios)
    run.samples["obs.overhead_ratio"] = len(ratios)
    run.notes.append(
        "obs.overhead_ratio quartiles: "
        + " / ".join(f"{q:.3f}" for q in statistics.quantiles(ratios, n=4))
        + f" over {len(ratios)} interleaved pairs"
    )
