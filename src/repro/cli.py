"""Command-line interface.

Every subcommand goes through the :mod:`repro.api` facade — the CLI is a thin
argument-parsing shell around ``repro.connect(...)`` and the engine verbs:

``python -m repro rewrite``
    Rewrite a query using views and print the plans found.
``python -m repro answer``
    Evaluate a query (directly, or through its rewriting) over a database of
    facts.
``python -m repro explain``
    Print the decision tree for a query: rewriting choice, physical plan
    steps, cache and materialization state (optionally as JSON).
``python -m repro certain``
    Compute certain answers from materialized view instances.
``python -m repro materialize``
    Materialize views over a database and print (or save) their extents.
``python -m repro apply-delta``
    Apply a ``+ fact.`` / ``- fact.`` delta to a database, maintain the view
    extents incrementally, and report what changed.
``python -m repro serve``
    Run a long-lived engine that reads queries line by line and serves them
    through the fingerprint cache — or, with ``--http PORT``, serve the
    :mod:`repro.server` HTTP/JSON API (``/query``, ``/explain``,
    ``/apply-delta``, ``/stats``, ``/metrics``, ``/healthz``) until
    SIGINT/SIGTERM, then drain gracefully.
``python -m repro stats``
    Build an engine, optionally warm it with a workload, and print the full
    stats snapshot (``--stats-json`` for machines).
``python -m repro batch``
    Process a file of workload queries through one engine and report
    per-query results and throughput.
``python -m repro snapshot``
    Checkpoint a durable storage directory: write a snapshot of the current
    (recovered) state so later restarts replay only the WAL tail.
``python -m repro restore``
    Recover a durable storage directory and report what happened — snapshot
    used, WAL records replayed, corruption repaired; ``--output`` exports the
    recovered facts, ``--verify`` cross-checks maintained view extents.
``python -m repro replay``
    Inspect a write-ahead log: record count, last sequence number, and any
    trailing corruption (``--repair`` truncates a damaged tail in place).
``python -m repro experiments``
    List the reproduced experiments (E1..E10) and the bench that regenerates
    each.

Queries and views are given inline or in files, in the datalog syntax of
:mod:`repro.datalog.parser`; databases are files of ground facts.

Exit codes
----------
``0`` success; ``1`` operational failure (no rewriting found, verification
mismatch, batch errors); ``2`` usage error (bad flags — argparse).  Library
errors map each :class:`~repro.errors.ReproError` subclass to its own code so
scripts can react without parsing messages:

=====  ==========================================================
code   error
=====  ==========================================================
64     ``ReproError`` (any subclass not listed below)
65     ``ParseError`` (rendered with line/column and caret context)
66     ``UnsafeQueryError``
67     ``QueryConstructionError``
68     ``SchemaError``
69     ``EvaluationError``
70     ``RewritingError``
71     ``MaterializationError``
72     ``UnsupportedFeatureError``
73     ``ConstraintViolationError``
74     ``StorageError`` (including WAL/snapshot corruption)
=====  ==========================================================

``replay`` exits 1 (not 74) when it *finds* trailing corruption without
``--repair`` — the log is readable and the condition is the command's answer,
not a failure; unrecognizable files (bad magic) still exit 74.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import (
    ConstraintViolationError,
    EvaluationError,
    MaterializationError,
    ParseError,
    QueryConstructionError,
    ReproError,
    RewritingError,
    SchemaError,
    StorageError,
    UnsafeQueryError,
    UnsupportedFeatureError,
)
from repro.api import connect
from repro.api.results import sort_rows
from repro.datalog.parser import parse_program
from repro.materialize.delta import parse_delta
from repro.rewriting.rewriter import ALGORITHMS, MODES

#: Exit code per error class; the most derived class wins (see module docs).
EXIT_CODES = {
    ReproError: 64,
    ParseError: 65,
    UnsafeQueryError: 66,
    QueryConstructionError: 67,
    SchemaError: 68,
    EvaluationError: 69,
    RewritingError: 70,
    MaterializationError: 71,
    UnsupportedFeatureError: 72,
    ConstraintViolationError: 73,
    StorageError: 74,
}


def exit_code_for(error: ReproError) -> int:
    """The documented exit code for an error (most derived class wins)."""
    for klass in type(error).__mro__:
        code = EXIT_CODES.get(klass)
        if code is not None:
            return code
    return 64  # pragma: no cover - every ReproError hits the base entry


def format_error(error: ReproError) -> str:
    """Render an error for the terminal; parse errors get caret context."""
    message = f"error: {error}"
    if isinstance(error, ParseError):
        context = error.caret_context()
        if context is not None:
            indented = "\n".join(f"  {line}" for line in context.splitlines())
            message = f"{message}\n{indented}"
    return message


def _read_text(value: str) -> str:
    """Interpret an argument as a file path if one exists, else as inline text."""
    path = Path(value)
    if path.exists() and path.is_file():
        return path.read_text()
    return value


def _engine_for(args: argparse.Namespace, **overrides):
    """Build the engine a subcommand needs from its common flags."""
    options = {
        "views": _read_text(args.views) if getattr(args, "views", None) else None,
        "data": _read_text(args.database) if getattr(args, "database", None) else None,
        "algorithm": getattr(args, "algorithm", "minicon"),
        "mode": getattr(args, "mode", "equivalent"),
        "cache_size": getattr(args, "cache_size", 512),
    }
    if getattr(args, "storage", None):
        options["storage"] = args.storage
        if getattr(args, "wal", None):
            options["wal"] = args.wal
        if getattr(args, "snapshot_every", None):
            options["snapshot"] = args.snapshot_every
    options.update(overrides)
    return connect(**options)


def _print_rows(rows, out) -> None:
    for row in sort_rows(rows):
        print("\t".join(str(value) for value in row), file=out)


def _command_rewrite(args: argparse.Namespace, out) -> int:
    engine = _engine_for(args)
    prepared = engine.query(_read_text(args.query))
    result = prepared.rewrite()
    print(f"# query: {prepared.query}", file=out)
    print(f"# algorithm={args.algorithm} mode={args.mode} "
          f"candidates={result.candidates_examined} time={result.elapsed:.4f}s", file=out)
    if not result.rewritings:
        print("no rewriting found", file=out)
        return 1
    for index, rewriting in enumerate(result.rewritings, start=1):
        print(f"-- rewriting {index} [{rewriting.kind.value}] "
              f"(views: {', '.join(rewriting.views_used)})", file=out)
        print(rewriting.query, file=out)
        if args.show_expansion and rewriting.expansion is not None:
            print(f"   expansion: {rewriting.expansion}", file=out)
    return 0


def _command_answer(args: argparse.Namespace, out) -> int:
    engine = _engine_for(args)
    answer = engine.query(_read_text(args.query)).answers()
    provenance = answer.provenance
    if args.views:
        if provenance.source == "views":
            print(f"# using rewriting: {provenance.rewriting}", file=out)
        elif provenance.source == "views+base":
            print(f"# using partial rewriting: {provenance.rewriting}", file=out)
        else:
            print("no equivalent rewriting found; evaluating the query directly", file=out)
    _print_rows(answer, out)
    print(f"# {len(answer)} answers", file=out)
    return 0


def _command_explain(args: argparse.Namespace, out) -> int:
    engine = _engine_for(args)
    explanation = engine.query(_read_text(args.query)).explain()
    if args.json:
        import json

        Path(args.json).write_text(json.dumps(explanation.to_json(), indent=2))
        print(f"# wrote {args.json}", file=out)
    print(explanation.to_text(), file=out)
    return 0


def _command_certain(args: argparse.Namespace, out) -> int:
    engine = _engine_for(
        args, data=None, view_instance=_read_text(args.view_instance)
    )
    answer = engine.query(_read_text(args.query)).certain(method=args.method)
    _print_rows(answer, out)
    print(f"# {len(answer)} certain answers ({args.method})", file=out)
    return 0


def _command_materialize(args: argparse.Namespace, out) -> int:
    engine = _engine_for(args)
    wanted = set(args.view) if args.view else None
    for view in engine.views:
        if wanted is not None and view.name not in wanted:
            continue
        rows = engine.extent(view.name)
        print(f"-- {view.name}/{view.arity}: {len(rows)} rows", file=out)
        if not args.sizes_only:
            _print_rows(rows, out)
    stats = engine.store().stats()
    print(
        f"# materialized {stats['views']} views, {stats['extent_rows']} extent rows, "
        f"{stats['tracked_derivations']} derivations tracked",
        file=out,
    )
    return 0


def _command_apply_delta(args: argparse.Namespace, out) -> int:
    engine = _engine_for(args)
    delta = parse_delta(_read_text(args.delta))
    log = engine.apply(delta)
    print(f"# delta: {delta.size()} requested, {log.delta.size()} effective", file=out)
    for name in sorted(log.base_predicates):
        print(
            f"  base {name}: +{len(log.delta.inserted_rows(name))} "
            f"-{len(log.delta.removed_rows(name))}",
            file=out,
        )
    for change in log.view_changes:
        marker = "*" if change.changed else " "
        print(
            f"  view {marker}{change.view}: +{len(change.inserted)} "
            f"-{len(change.removed)} [{change.strategy}]",
            file=out,
        )
    if args.show_extents:
        for view in engine.views:
            rows = engine.extent(view.name)
            print(f"-- {view.name}/{view.arity}: {len(rows)} rows", file=out)
            _print_rows(rows, out)
    if args.verify:
        mismatches = engine.verify()
        if mismatches:
            for mismatch in mismatches:
                print(f"MISMATCH {mismatch}", file=out)
            return 1
        print("# verified: maintained extents equal full recomputation", file=out)
    return 0


def _command_serve(args: argparse.Namespace, out) -> int:
    engine = _engine_for(args)
    if args.http is not None:
        return _serve_http(args, engine, out)
    with_answers = engine.database is not None and args.answers
    source = Path(args.input).open() if args.input else sys.stdin
    served = 0
    try:
        for line in source:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line in (":quit", ":exit"):
                break
            if line == ":stats":
                _print_stats(engine, out, as_json=args.stats_json)
                continue
            try:
                prepared = engine.query(line)
                if with_answers:
                    answer = prepared.answers()
                    rows: "object | None" = answer.rows
                    best = answer.provenance.rewriting
                    hit = answer.provenance.cache_hit
                else:
                    result = prepared.rewrite()
                    rows = None
                    best = result.best.query if result.best is not None else None
                    hit = engine.last_cache_hit
            except ReproError as error:
                # One bad request must not take the server down.
                print(format_error(error), file=out)
                continue
            served += 1
            tag = "hit " if hit else "miss"
            if best is None:
                print(f"[{tag}] no rewriting found", file=out)
            else:
                print(f"[{tag}] {best}", file=out)
            if rows is not None:
                _print_rows(rows, out)
                print(f"# {len(rows)} answers", file=out)
    finally:
        if source is not sys.stdin:
            source.close()
    print(f"# served {served} queries", file=out)
    _print_stats(engine, out, as_json=args.stats_json)
    return 0


def _serve_http(args: argparse.Namespace, engine, out) -> int:
    """Run the repro.server HTTP API until SIGINT/SIGTERM, then drain."""
    import gc
    import signal

    from repro.server import ReproServer

    server = ReproServer(
        engine,
        host=args.host,
        port=args.http,
        queue_limit=args.queue_limit,
    )
    import threading

    def stop(signum, frame):
        # shutdown() blocks until serve_forever() returns, and the handler
        # runs *on* the serving thread — drain from a helper thread instead.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, stop)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass
    # What is loaded by now (modules, catalog, base relations) lives as long
    # as the process: move it out of reach of every later full collection.
    # Process-wide state, so only this command touches it — never the library.
    gc.collect()
    gc.freeze()
    print(f"# serving on {server.address} "
          f"(queue_limit={server.queue_limit})", file=out)
    out.flush()
    try:
        server.serve_forever()
    finally:
        gc.unfreeze()
        server.shutdown()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    _print_stats(engine, out, as_json=args.stats_json)
    return 0


def _command_stats(args: argparse.Namespace, out) -> int:
    engine = _engine_for(args)
    if args.queries:
        with_answers = engine.database is not None and args.answers
        for query in parse_program(_read_text(args.queries)):
            prepared = engine.query(query)
            if with_answers:
                prepared.answers()
            else:
                prepared.rewrite()
    _print_stats(engine, out, as_json=args.stats_json)
    return 0


def _print_stats(engine, out, as_json: bool = False) -> None:
    """The end-of-run stats block: human `#` lines, or JSON for scripts."""
    if as_json:
        import json

        print(json.dumps(engine.stats(), default=str, sort_keys=True), file=out)
        return
    _print_session_stats(engine, out)


def _print_session_stats(engine, out) -> None:
    stats = engine.stats()["session"]
    rewrite_stats = stats["rewrite_cache"]
    index_stats = stats["view_index"]
    memo_stats = stats.get("global.containment_memo")
    print(
        f"# cache: {rewrite_stats['hits']} hits / {rewrite_stats['misses']} misses "
        f"(rate {rewrite_stats['hit_rate']:.2f}), {rewrite_stats['evictions']} evictions",
        file=out,
    )
    if memo_stats is not None:
        print(
            f"# containment memo: {memo_stats['hits']} hits / {memo_stats['misses']} misses "
            f"(rate {memo_stats['hit_rate']:.2f}), {memo_stats['guard_rejections']} guard "
            f"rejections, {memo_stats['bypasses']} bypasses",
            file=out,
        )
    print(
        f"# view index: {index_stats['views_pruned']} views pruned, "
        f"{index_stats['views_admitted']} admitted across "
        f"{index_stats['queries_filtered']} queries",
        file=out,
    )


def _command_batch(args: argparse.Namespace, out) -> int:
    engine = _engine_for(args)
    queries = parse_program(_read_text(args.queries))
    report = engine.batch(queries, with_answers=args.answers)
    for item in report.items:
        status = "error" if item.error else ("hit " if item.cache_hit else "miss")
        summary = item.error or item.best or "no rewriting found"
        answers = f" answers={item.answers}" if item.answers is not None else ""
        print(f"[{status}] {item.query}  ->  {summary}{answers}", file=out)
    print(
        f"# {report.requests} queries, {report.cache_hits} cache hits, "
        f"{report.errors} errors, {report.elapsed:.3f}s "
        f"({report.throughput:.1f} q/s)",
        file=out,
    )
    if args.json:
        import json

        Path(args.json).write_text(json.dumps(report.to_dict(), indent=2))
        print(f"# wrote {args.json}", file=out)
    return 0 if report.errors == 0 else 1


def _command_snapshot(args: argparse.Namespace, out) -> int:
    engine = connect(
        views=_read_text(args.views) if args.views else None,
        storage=args.storage,
    )
    try:
        info = engine.checkpoint()
    finally:
        engine.close()
    print(
        f"# snapshot {info['path']}: seq={info['seq']} bytes={info['bytes']}",
        file=out,
    )
    return 0


def _command_restore(args: argparse.Namespace, out) -> int:
    engine = connect(
        views=_read_text(args.views) if args.views else None,
        storage=args.storage,
    )
    try:
        report = engine.recovery_report
        if report is None:
            print("# nothing to recover: the storage directory was fresh", file=out)
        else:
            snapshot = report.get("snapshot")
            base = f"snapshot seq {snapshot['seq']}" if snapshot else "empty state"
            print(
                f"# recovered from {base} + {report['replayed']} WAL record(s)",
                file=out,
            )
            for skipped in report.get("snapshots_skipped", ()):
                print(f"# skipped snapshot {skipped['path']}: {skipped['error']}", file=out)
            wal = report.get("wal", {})
            if wal.get("corruption"):
                print(
                    f"# wal corruption repaired: {wal['corruption']} "
                    f"(truncated at byte {wal['truncated_at']})",
                    file=out,
                )
        database = engine.database
        assert database is not None
        print(f"# state: {database.size()} facts in "
              f"{len(database.relation_names())} relation(s)", file=out)
        if args.output:
            from repro.materialize.delta import _value_to_text

            lines = []
            for name in sorted(database.relation_names()):
                for row in sort_rows(database.tuples(name)):
                    rendered = ", ".join(_value_to_text(value) for value in row)
                    lines.append(f"{name}({rendered}).")
            Path(args.output).write_text("\n".join(lines) + ("\n" if lines else ""))
            print(f"# wrote {len(lines)} facts to {args.output}", file=out)
        if args.verify:
            if not args.views:
                print("# --verify needs --views (nothing to cross-check)", file=out)
                return 1
            mismatches = engine.verify()
            if mismatches:
                for mismatch in mismatches:
                    print(f"MISMATCH {mismatch}", file=out)
                return 1
            print("# verified: maintained extents equal full recomputation", file=out)
    finally:
        engine.close()
    return 0


def _command_replay(args: argparse.Namespace, out) -> int:
    import os

    from repro.storage import read_wal
    from repro.storage.manager import WAL_FILENAME

    path = args.wal_file or os.path.join(args.storage, WAL_FILENAME)
    records, report = read_wal(path, repair=args.repair)
    print(
        f"# wal {path}: {report.records} record(s), last seq {report.last_seq}, "
        f"{report.bytes_read} byte(s)",
        file=out,
    )
    if args.show:
        for record in records:
            changes = record.payload.count("\n") + 1 if record.payload else 0
            print(
                f"  seq={record.seq} version={record.db_version} "
                f"lines={changes}",
                file=out,
            )
    if report.corruption is not None:
        status = "repaired" if report.repaired else "found (re-run with --repair)"
        print(
            f"# corruption {status}: {report.corruption} at byte "
            f"{report.truncated_at}",
            file=out,
        )
        return 0 if report.repaired else 1
    print("# log is clean", file=out)
    return 0


def _command_experiments(args: argparse.Namespace, out) -> int:
    from repro.experiments.registry import all_experiments

    for experiment in all_experiments():
        print(f"{experiment.id:<4} [{experiment.artefact:<6}] {experiment.title}", file=out)
        print(f"     claim : {experiment.claim}", file=out)
        print(f"     bench : {experiment.bench_module}", file=out)
    return 0


def _add_storage_flags(parser: argparse.ArgumentParser, required: bool = False) -> None:
    parser.add_argument(
        "--storage", required=required, default=None, metavar="DIR",
        help="persistent storage directory (write-ahead log + snapshots); "
             "recovers any existing state on startup",
    )
    parser.add_argument(
        "--wal", choices=["always", "batch", "none"], default=None,
        help="WAL fsync policy: always (fsync per append), batch (fsync on "
             "checkpoint/close; default), none (no fsync — fast, crash-unsafe)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=None, dest="snapshot_every",
        metavar="N", help="write a checkpoint snapshot every N applied deltas",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Answering Queries Using Views (PODS 1995) — query rewriting toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    rewrite_parser = subparsers.add_parser("rewrite", help="rewrite a query using views")
    rewrite_parser.add_argument("--query", required=True, help="query text or file")
    rewrite_parser.add_argument("--views", required=True, help="view definitions text or file")
    rewrite_parser.add_argument("--algorithm", choices=ALGORITHMS, default="minicon")
    rewrite_parser.add_argument("--mode", choices=MODES, default="equivalent")
    rewrite_parser.add_argument(
        "--show-expansion", action="store_true", help="also print each rewriting's expansion"
    )
    rewrite_parser.set_defaults(handler=_command_rewrite)

    answer_parser = subparsers.add_parser("answer", help="evaluate a query over a database")
    answer_parser.add_argument("--query", required=True)
    answer_parser.add_argument("--database", required=True, help="facts text or file")
    answer_parser.add_argument(
        "--views", help="optional views: answer through an equivalent rewriting instead"
    )
    answer_parser.add_argument("--algorithm", choices=ALGORITHMS, default="minicon")
    answer_parser.set_defaults(handler=_command_answer)

    explain_parser = subparsers.add_parser(
        "explain", help="print the rewriting/plan/cache decision tree for a query"
    )
    explain_parser.add_argument("--query", required=True)
    explain_parser.add_argument("--views", required=True, help="view definitions text or file")
    explain_parser.add_argument("--database", help="optional facts text or file")
    explain_parser.add_argument("--algorithm", choices=ALGORITHMS, default="minicon")
    explain_parser.add_argument("--mode", choices=MODES, default="equivalent")
    explain_parser.add_argument("--json", help="also write the explanation to this JSON file")
    explain_parser.set_defaults(handler=_command_explain)

    certain_parser = subparsers.add_parser(
        "certain", help="certain answers from materialized view instances"
    )
    certain_parser.add_argument("--query", required=True)
    certain_parser.add_argument("--views", required=True)
    certain_parser.add_argument(
        "--view-instance", required=True, help="facts over the view relations (text or file)"
    )
    certain_parser.add_argument(
        "--method",
        choices=["inverse-rules", "rewriting", "minicon", "bucket"],
        default="inverse-rules",
    )
    certain_parser.set_defaults(handler=_command_certain)

    materialize_parser = subparsers.add_parser(
        "materialize", help="materialize views over a database and print their extents"
    )
    materialize_parser.add_argument("--views", required=True, help="view definitions text or file")
    materialize_parser.add_argument("--database", required=True, help="facts text or file")
    materialize_parser.add_argument(
        "--view", action="append", help="only show these views (repeatable)"
    )
    materialize_parser.add_argument(
        "--sizes-only", action="store_true", help="print extent sizes without the rows"
    )
    materialize_parser.set_defaults(handler=_command_materialize)

    delta_parser = subparsers.add_parser(
        "apply-delta",
        help="apply a '+ fact.' / '- fact.' delta and maintain views incrementally",
    )
    delta_parser.add_argument("--views", required=True, help="view definitions text or file")
    delta_parser.add_argument("--database", required=True, help="facts text or file")
    delta_parser.add_argument(
        "--delta", required=True, help="delta text or file (lines of '+ fact.' / '- fact.')"
    )
    delta_parser.add_argument(
        "--show-extents", action="store_true", help="print the maintained extents after applying"
    )
    delta_parser.add_argument(
        "--verify", action="store_true",
        help="cross-check maintained extents against full recomputation",
    )
    delta_parser.set_defaults(handler=_command_apply_delta)

    serve_parser = subparsers.add_parser(
        "serve", help="serve queries line by line through a caching engine"
    )
    serve_parser.add_argument("--views", required=True, help="view definitions text or file")
    serve_parser.add_argument("--database", help="optional facts text or file")
    serve_parser.add_argument("--algorithm", choices=ALGORITHMS, default="minicon")
    serve_parser.add_argument("--mode", choices=MODES, default="equivalent")
    serve_parser.add_argument("--cache-size", type=int, default=512)
    serve_parser.add_argument(
        "--input", help="file of queries, one per line (default: stdin)"
    )
    serve_parser.add_argument(
        "--answers", action="store_true",
        help="also evaluate each query over the database",
    )
    serve_parser.add_argument(
        "--http", type=int, metavar="PORT", default=None,
        help="serve the HTTP/JSON API on this port instead of reading stdin "
             "(0 picks a free port); freezes the garbage collector's view of "
             "everything loaded so far (gc.freeze) until the server stops",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address for --http"
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=32,
        help="max in-flight POST requests before 503s (--http)",
    )
    serve_parser.add_argument(
        "--stats-json", action="store_true",
        help="print stats as one JSON object instead of '#' comment lines",
    )
    _add_storage_flags(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    stats_parser = subparsers.add_parser(
        "stats", help="print an engine's stats snapshot, optionally after a workload"
    )
    stats_parser.add_argument("--views", required=True, help="view definitions text or file")
    stats_parser.add_argument("--database", help="optional facts text or file")
    stats_parser.add_argument(
        "--queries", help="optional warmup workload (datalog rules, text or file)"
    )
    stats_parser.add_argument("--algorithm", choices=ALGORITHMS, default="minicon")
    stats_parser.add_argument("--mode", choices=MODES, default="equivalent")
    stats_parser.add_argument("--cache-size", type=int, default=512)
    stats_parser.add_argument(
        "--answers", action="store_true",
        help="evaluate the warmup queries over the database",
    )
    stats_parser.add_argument(
        "--stats-json", action="store_true",
        help="print stats as one JSON object instead of '#' comment lines",
    )
    _add_storage_flags(stats_parser)
    stats_parser.set_defaults(handler=_command_stats)

    batch_parser = subparsers.add_parser(
        "batch", help="process a workload file through one caching engine"
    )
    batch_parser.add_argument(
        "--queries", required=True, help="workload queries (datalog rules, text or file)"
    )
    batch_parser.add_argument("--views", required=True, help="view definitions text or file")
    batch_parser.add_argument("--database", help="optional facts text or file")
    batch_parser.add_argument("--algorithm", choices=ALGORITHMS, default="minicon")
    batch_parser.add_argument("--mode", choices=MODES, default="equivalent")
    batch_parser.add_argument("--cache-size", type=int, default=512)
    batch_parser.add_argument(
        "--answers", action="store_true",
        help="also evaluate each query over the database",
    )
    batch_parser.add_argument("--json", help="write the full report to this JSON file")
    batch_parser.set_defaults(handler=_command_batch)

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="checkpoint a storage directory (base facts + view store)"
    )
    snapshot_parser.add_argument(
        "--storage", required=True, metavar="DIR", help="persistent storage directory"
    )
    snapshot_parser.add_argument(
        "--views", help="view definitions text or file (checkpoints the view "
                        "store too, so recovery can skip re-materialization)"
    )
    snapshot_parser.set_defaults(handler=_command_snapshot)

    restore_parser = subparsers.add_parser(
        "restore", help="recover a storage directory and report/export its state"
    )
    restore_parser.add_argument(
        "--storage", required=True, metavar="DIR", help="persistent storage directory"
    )
    restore_parser.add_argument(
        "--views", help="view definitions text or file (needed for --verify)"
    )
    restore_parser.add_argument(
        "--output", metavar="FILE", help="write the recovered facts to this file"
    )
    restore_parser.add_argument(
        "--verify", action="store_true",
        help="cross-check recovered view extents against full recomputation",
    )
    restore_parser.set_defaults(handler=_command_restore)

    replay_parser = subparsers.add_parser(
        "replay", help="inspect a write-ahead log; optionally repair a corrupt tail"
    )
    replay_parser.add_argument(
        "--storage", required=True, metavar="DIR", help="persistent storage directory"
    )
    replay_parser.add_argument(
        "--wal-file", default=None, metavar="FILE",
        help="explicit WAL path (default: <storage>/wal.log)",
    )
    replay_parser.add_argument(
        "--show", action="store_true", help="print one line per record"
    )
    replay_parser.add_argument(
        "--repair", action="store_true",
        help="truncate a corrupt tail so the log opens cleanly",
    )
    replay_parser.set_defaults(handler=_command_replay)

    experiments_parser = subparsers.add_parser(
        "experiments", help="list the reproduced experiments"
    )
    experiments_parser.set_defaults(handler=_command_experiments)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code (see module docs)."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except ReproError as error:
        print(format_error(error), file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(argv=None))
